"""Run one benchmark workload against this checkout's `src/` and print its metrics.

    python3 bench/run.py --workload mutation_walk --seed 1 --seconds 40 --trace 0

One process, one thread, closed loop: an item starts only when the previous
one has finished and been checked.  The timed phase repeats passes over the
workload's items until --seconds have passed.  A fixed reference task is
timed between items, every time is scaled by how fast the reference ran
around it (see Phase), and an item's time is the median of its scaled
repetitions.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it runs half the time untraced and half with every library layer
wrapped, and reports per-layer metrics.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  A fuller record, with the
environment, goes to .bench_build/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from reference import NOMINAL_S, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_build" / "results"

SETUP_PROBES = 15
MIN_BEYOND_P95 = 10
# Fewest items per pass that leave MIN_BEYOND_P95 beyond the nearest-rank p95.
MIN_ITEMS_PER_PASS = 200
# Fewest whole passes, so every item's median time has at least three repetitions.
MIN_PASSES = 3

END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("items/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def p95_index(n: int) -> int:
    """Nearest-rank index of the 95th percentile among n sorted samples.

    Raises ValueError when fewer than MIN_BEYOND_P95 samples lie beyond it.
    """
    index = (95 * n + 99) // 100 - 1
    beyond = n - 1 - index
    if n < 1 or beyond < MIN_BEYOND_P95:
        raise ValueError(
            f"{n} samples leave {max(beyond, 0)} beyond p95; need {MIN_BEYOND_P95}"
        )
    return index


def use_checkout_src() -> Path:
    """Import companion_bases from this checkout's src/; exit if that fails."""
    package = SRC / "companion_bases"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import companion_bases

    resolved = Path(companion_bases.__file__).resolve().parent
    if resolved != package:
        sys.exit(f"error: companion_bases resolved to {resolved}, not {package}")
    return resolved


def probe_setup(types) -> tuple[float, float]:
    """Set-up seconds of one fresh process that imports the library and builds
    types, and the reference time that process measured right after."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *types],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    probe = json.loads(proc.stdout)
    expected = SRC / "companion_bases" / "__init__.py"
    if Path(probe["module"]).resolve() != expected:
        sys.exit(f"error: set-up probe imported {probe['module']}, not {expected}")
    return probe["seconds"], probe["reference_s"]


@dataclass
class Phase:
    """What one timed phase measured: each item's times over the passes.

    Next to each time is the mean of the reference times just before and just
    after that repetition.  A scaled time is time * NOMINAL_S / reference:
    what the repetition would have taken had the machine run the reference
    work in NOMINAL_S.
    """

    # doubles in arrays, so the samples add little and steadily to peak RSS
    times_ms: list[array]
    reference_times_s: list[array]
    attempted: int = 0
    pass_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    item_s: float = 0.0

    def median_ms(self, scaled: bool = True) -> list[float]:
        """Each item's median time over its repetitions, scaled or as measured."""
        return [
            statistics.median(
                t * NOMINAL_S / ref if scaled else t for t, ref in zip(times, refs)
            )
            for times, refs in zip(self.times_ms, self.reference_times_s)
        ]

    def items_per_s(self, scaled: bool = True) -> float:
        """Items over the sum of their median times."""
        return 1000.0 * len(self.times_ms) / sum(self.median_ms(scaled))

    def slowdown(self) -> float:
        """Median reference time over NOMINAL_S: how slow the machine ran."""
        refs = [ref for item in self.reference_times_s for ref in item]
        return statistics.median(refs) / NOMINAL_S


def run_passes(
    items, seconds: float, min_passes: int, after_pass=None, whole_passes=False
) -> Phase:
    """Repeat passes over the items until time is up and min_passes are whole.

    The pass running at the deadline stops there, its items' times still
    counting, unless whole_passes is set.
    """
    clock = time.perf_counter
    phase = Phase([array("d") for _ in items], [array("d") for _ in items])
    times, refs = phase.times_ms, phase.reference_times_s
    deadline = clock() + seconds
    while True:
        pass_start = clock()
        before = reference_s()
        for i, (label, fn) in enumerate(items):
            start = clock()
            try:
                failure = fn()
            except Exception as exc:  # a failing item is counted and named, not fatal
                failure = f"{type(exc).__name__}: {exc}"
            end = clock()
            phase.attempted += 1
            phase.item_s += end - start
            after = reference_s()
            times[i].append((end - start) * 1000.0)
            refs[i].append((before + after) / 2)
            before = after
            if failure is not None:
                phase.failures.append(f"{label}: {failure}")
            if not whole_passes and end >= deadline and len(phase.pass_s) >= min_passes:
                return phase
        phase.pass_s.append(clock() - pass_start)
        if after_pass is not None:
            after_pass()
        if clock() >= deadline and len(phase.pass_s) >= min_passes:
            return phase


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None when it is not a work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(module_path: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "companion_bases": str(module_path),
    }


def measure_end_to_end(args, types, generate) -> tuple[dict, list[Phase], dict]:
    compileall.compile_dir(str(SRC), quiet=1)
    items = generate(args.seed)
    setup_samples: list[tuple[float, float]] = []
    start = time.perf_counter()

    def probe_due() -> None:
        # spread the probes over the run, so they sample it as the items do
        elapsed = min(1.0, (time.perf_counter() - start) / args.seconds)
        while len(setup_samples) < math.ceil(SETUP_PROBES * elapsed):
            setup_samples.append(probe_setup(types))

    phase = run_passes(items, args.seconds, MIN_PASSES, after_pass=probe_due)
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(types))
    typical = sorted(phase.median_ms())
    measured = sorted(phase.median_ms(scaled=False))
    values = {
        "setup_s": statistics.median(s * NOMINAL_S / ref for s, ref in setup_samples),
        "items_per_s": phase.items_per_s(),
        "latency_p50_ms": statistics.median(typical),
        "latency_p95_ms": typical[p95_index(len(typical))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "passes": len(phase.pass_s),
        "items_per_pass": len(items),
        "slowdown": phase.slowdown(),
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setup_samples),
            "items_per_s": phase.items_per_s(scaled=False),
            "latency_p50_ms": statistics.median(measured),
            "latency_p95_ms": measured[p95_index(len(measured))],
        },
        "pass_s": phase.pass_s,
        "setup_samples_s": setup_samples,
    }
    return values, [phase], record


def measure_layers(args, types, generate) -> tuple[dict, list[Phase], dict]:
    from companion_bases import root_system

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    for label in types:
        root_system.build_root_system(root_system.DynkinType.parse(label))
    build_self_s = tracer.self_s["root_system.build_root_system"]
    not_restored = tracing.uninstall(patches)

    items = generate(args.seed)
    untraced = run_passes(items, args.seconds / 2, 2)

    tracer.reset()
    per_pass: list[Counter] = []

    def snapshot() -> None:
        per_pass.append(Counter(tracer.edges) - sum(per_pass, Counter()))

    patches = tracing.install(tracer)
    try:
        # whole passes only, so calls_per_item is the same however many fit
        traced = run_passes(items, args.seconds / 2, 2, snapshot, whole_passes=True)
    finally:
        not_restored += tracing.uninstall(patches)

    values = tracing.layer_metrics(tracer, traced.attempted)
    values["root_system.build_root_system.self_s"] = build_self_s
    values["trace.overhead_ratio"] = untraced.items_per_s() / traced.items_per_s()
    values["trace.coverage"] = tracer.top_s / traced.item_s
    calls = tracer.calls()
    problems = [f"wrapper not restored: {name}" for name in not_restored]
    if any(counts != per_pass[0] for counts in per_pass):
        problems.append("traced passes made different calls")
    record = {
        "untraced_passes": len(untraced.pass_s),
        "traced_passes": len(traced.pass_s),
        "items_per_pass": len(items),
        "trace_problems": problems,
        "spans": {
            name: {"calls": calls[name], "self_s": tracer.self_s[name]}
            for name in sorted(calls)
        },
        "edges": sorted(
            [parent or "", child, count] for (parent, child), count in tracer.edges.items()
        ),
    }
    return values, [untraced, traced], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    module_path = use_checkout_src()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    types, generate = workloads.WORKLOADS[args.workload]
    env = environment(module_path)
    measure = measure_layers if args.trace else measure_end_to_end
    values, phases, record = measure(args, types, generate)

    units = tracing.layer_units() if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    attempted = sum(phase.attempted for phase in phases)
    failures = [failure for phase in phases for failure in phase.failures]
    problems = record.get("trace_problems", [])
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=env,
        failures=failures,
        failed_ratio=len(failures) / attempted,
        **record,
    )
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    summary = {k: v for k, v in record.items() if not isinstance(v, (list, dict))}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(summary)}")
    for problem in problems + failures[:20]:
        print(f"FAILED {problem}")
    if len(failures) > 20:
        print(f"FAILED ... {len(failures) - 20} more in {out_path}")
    for name, metric in metrics.items():
        print(f"{name:<52} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record.get("unscaled", {}).items():
        print(f"{'unscaled ' + name:<52} {value:>14.6g} {END_TO_END[name][0]}")
    print(f"{'failed_ratio':<52} {detail['failed_ratio']:>14.6g} ratio")
    print(f"{'attempted':<52} {attempted:>14d} items")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
