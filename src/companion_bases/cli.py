"""Command-line front end.

Subcommands: mutate, recognize, companion, dvectors, verify-type-a.  All JSON
output uses sorted keys and no extra whitespace, so repeated runs are
byte-identical.  Vertex indices are 0-based; polygon corners are 1-based.

Exit codes: 0 success, 2 malformed input (also conflicting options and files
that cannot be read or written), 3 bad vertex index, 4 construction or search
failure or invariant violation (RuntimeError), 5 verification found a
counterexample.  Every failure prints one "error:" line to stderr.

The argument parser (PARSER) is built once, when this module is imported, and
every main call reuses it; `import companion_bases` does not import this
module, so library users never build it.
"""

from __future__ import annotations

import argparse
import sys

from .companion import (
    companion_basis_failure,
    companion_basis_for,
    d_vector_set,
    dumps_companion_basis,
    loads_companion_basis,
)
from .quiver import (
    ExchangeMatrix,
    _matrix_data,
    dump_json,
    dumps_exchange_matrix,
    loads_exchange_matrix,
    mutate_sequence,
    recognize,
)
from .root_system import DynkinType, parse_int
from .type_a import (
    Triangulation,
    _string_comparison,
    enumerate_triangulations,
    quiver_from_triangulation,
    random_triangulation,
)

EXIT_PARSE = 2
EXIT_INDEX = 3
EXIT_SEARCH = 4
EXIT_VERIFY = 5

# verify-type-a --jobs ceiling: a fork-started ProcessPoolExecutor starts all
# its workers at once
MAX_JOBS = 32

# verify-type-a exhaustive cap: 4862 triangulations at n = 8
MAX_EXHAUSTIVE_N = 8

# verify-type-a sample caps, checked before anything is drawn.  The draws fill
# the memoized form rows of the one A_n root system, at most 16 bytes per pair
# of positive roots (a row entry and its value grouping), and every record is
# held, about 0.1 MB each at n = 75, until the output is written.  So at
# n <= 75 any sample keeps a process under 256 MB: at n = 75, the whole table
# (124 MB) filled and then 20 draws peaked at 149 MB (2-core x86 VM, Python
# 3.11), and 980 more records add about 90 MB.
MAX_SAMPLE_N = 75
MAX_WALK_LENGTH = 1000


class CommandError(Exception):
    """A command that cannot finish; args are (message, exit code), printed by main."""


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_matrix(args) -> ExchangeMatrix:
    """Matrix from --input, or the standard orientation of --type."""
    try:
        if args.type is not None:
            dt = DynkinType.parse(args.type)
            return ExchangeMatrix.from_arrows(dt.rank, dt.edges())
        return loads_exchange_matrix(_read(args.input))
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_PARSE) from None


def _integer(text: str, message: str) -> int:
    """text as an ASCII -?[0-9]+ integer, spaces around it allowed; else exit 2."""
    try:
        return parse_int(text.strip())
    except ValueError:
        raise CommandError(message, EXIT_PARSE) from None


def _positive(text: str | None, flag: str) -> int:
    message = f"{flag} must be a positive integer"
    value = 0 if text is None else _integer(text, message)
    if value < 1:
        raise CommandError(message, EXIT_PARSE)
    return value


def cmd_mutate(args) -> int:
    if args.sequence is not None:
        parts = [part for part in args.sequence.split(",") if part.strip() != ""]
        message = "bad sequence: vertices must be ASCII integers"
        ks = [_integer(part, message) for part in parts]
    elif args.k is not None:
        ks = [_integer(args.k, "--k must be an ASCII integer")]
    else:
        raise CommandError("--k or --sequence is required", EXIT_PARSE)
    B = _load_matrix(args)
    try:
        B = mutate_sequence(B, ks)
    except IndexError as exc:
        raise CommandError(str(exc), EXIT_INDEX) from None
    _write(args.output, dumps_exchange_matrix(B))
    return 0


def cmd_recognize(args) -> int:
    failure, dynkin = recognize(_load_matrix(args))
    report: dict = {"finite_type": failure is None}
    if failure is not None:
        report["failing_condition"] = failure
    else:
        report["dynkin_type"] = None if dynkin is None else str(dynkin)
    _write(args.output, dump_json(report))
    return 0


def cmd_companion(args) -> int:
    B = _load_matrix(args)
    try:
        psi = companion_basis_for(B)
    except (ValueError, RuntimeError) as exc:
        raise CommandError(str(exc), EXIT_SEARCH) from None
    _write(args.output, dumps_companion_basis(psi, B))
    return 0


def cmd_dvectors(args) -> int:
    try:
        psi, B = loads_companion_basis(_read(args.input))
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_PARSE) from None
    # one elimination: the inverse, once computed, proves det = +-1 for the
    # check; when there is none, the check's own elimination reports why
    try:
        psi.inverse()
    except ValueError:
        pass
    failure = companion_basis_failure(psi, B)
    if failure is not None:
        raise CommandError(failure, EXIT_SEARCH)
    dset = d_vector_set(psi)
    rows = [{"d": d, "root": root} for d, root in dset.sorted_items()]
    report = {"type": str(psi.rs.dynkin), "count": len(rows), "vectors": rows}
    _write(args.output, dump_json(report))
    return 0


def _verify_one(T: Triangulation) -> dict:
    B = quiver_from_triangulation(T)
    # companion_basis_for has checked the basis and walked B's chordless cycles
    strong, n_strings = _string_comparison(companion_basis_for(B), B)
    return {
        "diagonals": [list(d) for d in T.diagonals],
        "quiver": _matrix_data(B),
        "strong": strong,
        "n_strings": n_strings,
    }


def cmd_verify_type_a(args) -> int:
    n = _positive(args.n, "--n")
    count = 50 if args.walk_length is None else _positive(args.walk_length, "--walk-length")
    if count > MAX_WALK_LENGTH:
        raise CommandError(f"--walk-length must be at most {MAX_WALK_LENGTH}", EXIT_PARSE)
    jobs = _positive(args.jobs, "--jobs")
    if jobs > MAX_JOBS:
        raise CommandError(f"--jobs must be at most {MAX_JOBS}", EXIT_PARSE)
    seed = _integer(args.seed, "--seed must be an ASCII integer")
    if args.mode == "exhaustive":
        if n > MAX_EXHAUSTIVE_N:
            message = f"exhaustive mode is capped at n={MAX_EXHAUSTIVE_N}"
            raise CommandError(message, EXIT_PARSE)
        triangulations = enumerate_triangulations(n)
    else:
        if n > MAX_SAMPLE_N:
            raise CommandError(f"sample mode is capped at n={MAX_SAMPLE_N}", EXIT_PARSE)
        # imported here: only sample mode draws
        from random import Random

        rng = Random(seed)
        triangulations = [random_triangulation(n, rng) for _ in range(count)]
    # output order; both maps below return records in input order
    triangulations.sort(key=lambda T: T.diagonals)
    workers = min(jobs, len(triangulations))
    try:
        if workers > 1:
            # about four chunks per worker: at n = 8 a round trip per
            # triangulation costs two workers more than the second one saves
            size = max(1, len(triangulations) // (4 * workers))
            # imported here: it brings multiprocessing, which no other command uses
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_verify_one, triangulations, chunksize=size))
        else:
            records = list(map(_verify_one, triangulations))
    except (ValueError, RuntimeError) as exc:
        raise CommandError(str(exc), EXIT_SEARCH) from None
    lines = [dump_json(r) for r in records]
    summary = {
        "mode": args.mode,
        "n": n,
        "seed": seed,
        "total": len(records),
        "strong": sum(1 for r in records if r["strong"]),
    }
    lines.append(dump_json(summary))
    _write(args.output, "\n".join(lines))
    if args.verbose:
        print(f"{summary['strong']}/{summary['total']} strong", file=sys.stderr)
    return 0 if summary["strong"] == summary["total"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="companion-bases",
        description="Companion bases for quivers of cluster-tilted algebras.",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(p, with_type=False):
        source = p.add_mutually_exclusive_group() if with_type else p
        source.add_argument("--input", default=None, help="input file ('-' for stdin)")
        if with_type:
            source.add_argument(
                "--type",
                default=None,
                help="use the standard orientation of this Dynkin type as input",
            )
        p.add_argument("--output", default=None, help="output file ('-' for stdout)")

    p = sub.add_parser("mutate", help="mutate an exchange matrix")
    io_args(p, with_type=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--k", default=None, help="vertex to mutate (0-based)")
    g.add_argument("--sequence", default=None, help="comma-separated vertices")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("recognize", help="finite-type recognition and Dynkin type")
    io_args(p, with_type=True)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("companion", help="construct a companion basis")
    io_args(p, with_type=True)
    p.set_defaults(func=cmd_companion)

    p = sub.add_parser("dvectors", help="d-vectors of all positive roots")
    io_args(p)
    p.set_defaults(func=cmd_dvectors)

    p = sub.add_parser(
        "verify-type-a", help="check d-vectors against string modules in type A"
    )
    # generates its own input, so it takes no --input
    p.add_argument("--output", default=None, help="output file ('-' for stdout)")
    p.add_argument(
        "--n", default=None, help="rank: triangulations of the (n+3)-gon (required)"
    )
    p.add_argument(
        "--mode",
        choices=["exhaustive", "sample"],
        default="exhaustive",
        help=f"every triangulation (n at most {MAX_EXHAUSTIVE_N}) or a seeded random "
        f"sample (n at most {MAX_SAMPLE_N}, which keeps a process under 256 MB)",
    )
    p.add_argument("--seed", default="0", help="seed of the sample (default 0)")
    p.add_argument(
        "--walk-length",
        default=None,
        dest="walk_length",
        help=f"number of sampled triangulations in sample mode, at most {MAX_WALK_LENGTH}",
    )
    p.add_argument(
        "--jobs",
        default="1",
        help=f"worker processes, at most {MAX_JOBS} (default 1)",
    )
    p.set_defaults(func=cmd_verify_type_a)

    return parser


# parse_args makes a fresh Namespace on every call, so one parser serves them all
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # argparse before Python 3.12 reads the option value "--" (as in --k=--) as []
    for name, value in list(vars(args).items()):
        if value == []:
            setattr(args, name, "--")
    try:
        return args.func(args)
    except CommandError as exc:
        message, code = exc.args
    except OSError as exc:
        message, code = exc, EXIT_PARSE
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
