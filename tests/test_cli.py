import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from companion_bases import cli, companion, quiver, type_a
from companion_bases.cli import main
from companion_bases.companion import companion_basis_failure, loads_companion_basis
from companion_bases.intlinalg import det_bareiss
from companion_bases.quiver import dumps_exchange_matrix, loads_exchange_matrix
from companion_bases.root_system import MAX_RANK

from conftest import PENDANT_ARROWS, PENDANT_DVECTORS, grid_quiver

PENDANT_JSON = json.dumps({"n": 4, "arrows": [list(a) for a in PENDANT_ARROWS]})

PENDANT_BASIS_JSON = json.dumps(
    {
        "type": "A4",
        "quiver": {"n": 4, "arrows": [list(a) for a in PENDANT_ARROWS]},
        "gamma": [[-1, 0, 0, 0], [0, -1, -1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }
)

PENDANT_DVECTORS_STDOUT = (
    '{"count":10,"type":"A4","vectors":['
    '{"d":[0,0,0,1],"root":[0,0,0,1]},{"d":[0,0,1,0],"root":[0,0,1,0]},'
    '{"d":[0,0,1,1],"root":[0,0,1,1]},{"d":[0,1,0,0],"root":[0,1,1,0]},'
    '{"d":[0,1,0,1],"root":[0,1,1,1]},{"d":[0,1,1,0],"root":[0,1,0,0]},'
    '{"d":[1,0,0,0],"root":[1,0,0,0]},{"d":[1,1,0,0],"root":[1,1,1,0]},'
    '{"d":[1,1,0,1],"root":[1,1,1,1]},{"d":[1,1,1,0],"root":[1,1,0,0]}]}\n'
)


@pytest.fixture
def pendant_file(tmp_path):
    path = tmp_path / "pendant.json"
    path.write_text(PENDANT_JSON)
    return path


def run(args):
    return main([str(a) for a in args])


def test_mutate_involution(tmp_path):
    src = tmp_path / "path.json"
    src.write_text('{"n": 3, "arrows": [[0, 1], [1, 2]]}')
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert run(["mutate", "--input", src, "--k", 1, "--output", once]) == 0
    assert loads_exchange_matrix(once.read_text()).entries == (
        (0, -1, 1),
        (1, 0, -1),
        (-1, 1, 0),
    )
    assert run(["mutate", "--input", once, "--k", 1, "--output", twice]) == 0
    canonical = tmp_path / "canonical.json"
    assert run(["mutate", "--input", src, "--sequence", "1,1,1,1,1,1", "--output", canonical]) == 0
    assert twice.read_bytes() == canonical.read_bytes()


def test_mutate_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["mutate", "--input", bad, "--k", 0]) == 2
    good = tmp_path / "good.json"
    good.write_text('{"n": 2, "arrows": [[0, 1]]}')
    assert run(["mutate", "--input", good, "--k", 5]) == 3
    assert run(["mutate", "--input", good]) == 2
    assert run(["mutate", "--input", good, "--sequence", "0,x"]) == 2


def test_recognize(tmp_path, capsys, pendant_file):
    assert run(["recognize", "--input", pendant_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"dynkin_type": "A4", "finite_type": True}

    square = tmp_path / "square.json"
    square.write_text('{"n": 4, "arrows": [[0, 1], [1, 2], [3, 2], [0, 3]]}')
    assert run(["recognize", "--input", square]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["finite_type"] is False
    assert report["failing_condition"] == "chordless cycle not cyclically oriented"

    one = tmp_path / "one.json"
    one.write_text('{"n": 1, "b": [[0]]}')
    assert run(["recognize", "--input", one]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "dynkin_type": "A1",
        "finite_type": True,
    }

    double = tmp_path / "double.json"
    double.write_text('{"n": 2, "b": [[0, 2], [-2, 0]]}')
    assert run(["recognize", "--input", double]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "failing_condition": "no positive quasi-Cartan companion",
        "finite_type": False,
    }


def test_companion_command(tmp_path, capsys, pendant_file):
    out = tmp_path / "basis.json"
    assert run(["companion", "--input", pendant_file, "--output", out]) == 0
    psi, B = loads_companion_basis(out.read_text())
    assert companion_basis_failure(psi, B) is None

    path = tmp_path / "path.json"
    path.write_text('{"n": 3, "arrows": [[0, 1], [1, 2]]}')
    assert run(["companion", "--input", path, "--output", out]) == 0
    psi, _ = loads_companion_basis(out.read_text())
    assert psi.gamma == psi.rs.simple_roots

    d5 = tmp_path / "d5.json"
    d5.write_text('{"n": 5, "arrows": [[0, 1], [1, 2], [2, 3], [2, 4]]}')
    assert run(["companion", "--input", d5, "--output", out]) == 0
    psi, B = loads_companion_basis(out.read_text())
    assert str(psi.rs.dynkin) == "D5"
    assert companion_basis_failure(psi, B) is None

    square = tmp_path / "square.json"
    square.write_text('{"n": 4, "arrows": [[0, 1], [1, 2], [3, 2], [0, 3]]}')
    assert run(["companion", "--input", square]) == 4


@pytest.mark.parametrize("command", ["mutate", "recognize", "companion"])
@pytest.mark.parametrize("text", ['{"n": 0, "b": []}', '{"n": 0, "arrows": []}'])
def test_empty_quiver_is_malformed_input(tmp_path, capsys, command, text):
    src = tmp_path / "empty.json"
    src.write_text(text)
    extra = ["--k", 0] if command == "mutate" else []
    assert run([command, "--input", src, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["mutate", "recognize", "companion"])
@pytest.mark.parametrize(
    "arrows,named", [("[[0, 1], [2, 2]]", "[2, 2]"), ("[[0, -1]]", "[0, -1]")]
)
def test_a_loop_or_out_of_range_arrow_is_malformed_input(
    tmp_path, capsys, command, arrows, named
):
    src = tmp_path / "bad.json"
    src.write_text(f'{{"n": 3, "arrows": {arrows}}}')
    extra = ["--k", 0] if command == "mutate" else []
    assert run([command, "--input", src, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: bad arrow {named}"]


@pytest.mark.parametrize("command", ["mutate", "recognize", "companion"])
def test_arrows_that_are_not_a_list_are_malformed_input(tmp_path, capsys, command):
    src = tmp_path / "bad.json"
    src.write_text('{"n": 2, "arrows": 5}')
    extra = ["--k", 0] if command == "mutate" else []
    assert run([command, "--input", src, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: 'arrows' must be a list"]


BOTH_FIELDS = {"n": 2, "b": [[0, 1], [-1, 0]], "arrows": [[1, 0]]}


@pytest.mark.parametrize("command", ["mutate", "recognize", "companion", "dvectors"])
def test_a_quiver_with_both_b_and_arrows_is_malformed_input(tmp_path, capsys, command):
    # dvectors reads the quiver embedded in its basis document
    document = {**A2_BASIS, "quiver": BOTH_FIELDS} if command == "dvectors" else BOTH_FIELDS
    src = tmp_path / "both.json"
    src.write_text(json.dumps(document))
    extra = ["--k", 0] if command == "mutate" else []
    assert run([command, "--input", src, *extra]) == 2
    assert_one_error_line(capsys, "expected a 'b' matrix or an 'arrows' list, not both")


def test_companion_rejects_disconnected_quiver(tmp_path, capsys):
    src = tmp_path / "disconnected.json"
    src.write_text('{"n": 3, "arrows": [[0, 1]]}')
    assert run(["companion", "--input", src]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: matrix is not connected"]


def test_dvectors_command(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(PENDANT_BASIS_JSON)
    assert run(["dvectors", "--input", basis]) == 0
    out = capsys.readouterr().out
    # byte for byte: rows in sorted d-vector order, canonical JSON
    assert out == PENDANT_DVECTORS_STDOUT
    report = json.loads(out)
    assert report["type"] == "A4"
    assert report["count"] == 10
    assert {tuple(row["d"]) for row in report["vectors"]} == PENDANT_DVECTORS
    ds = [row["d"] for row in report["vectors"]]
    assert ds == sorted(ds)

    a2 = tmp_path / "a2.json"
    a2.write_text(
        json.dumps(
            {
                "type": "A2",
                "quiver": {"n": 2, "arrows": [[0, 1]]},
                "gamma": [[1, 0], [0, 1]],
            }
        )
    )
    assert run(["dvectors", "--input", a2]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {tuple(r["d"]) for r in report["vectors"]} == {(1, 0), (0, 1), (1, 1)}

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(
            {
                "type": "A2",
                "quiver": {"n": 2, "arrows": []},
                "gamma": [[1, 0], [0, 1]],
            }
        )
    )
    assert run(["dvectors", "--input", invalid]) == 4
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("!")
    assert run(["dvectors", "--input", bad]) == 2


A2_BASIS = {"type": "A2", "quiver": {"n": 2, "arrows": [[0, 1]]}, "gamma": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "field,value",
    [
        ("gamma", None),
        ("gamma", [[1, 0], 5]),
        ("gamma", [[1, 0]]),
        ("gamma", [[1, 0], [0, 1, 0]]),
        ("gamma", [[1.7, 0], [0, 1]]),
        ("gamma", [[1.0, 0], [0, 1]]),
        ("gamma", [["1", 0], [0, 1]]),
        ("gamma", [[True, False], [False, True]]),
        ("gamma", [[2, 0], [0, 1]]),
        ("type", 5),
        ("type", None),
        ("type", "B2"),
        ("quiver", None),
        ("quiver", {"n": 2, "b": 5}),
        ("quiver", {"n": 2, "b": [[0, 1.5], [-1.5, 0]]}),
        ("quiver", {"n": 2, "arrows": [5]}),
        ("quiver", {"n": True, "arrows": []}),
        # a quiver of the wrong size for the type is malformed, not a failed check
        ("quiver", {"n": 3, "arrows": [[0, 1], [1, 2]]}),
    ],
)
def test_dvectors_rejects_malformed_input(tmp_path, capsys, field, value):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({**A2_BASIS, field: value}))
    assert run(["dvectors", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_dvectors_keeps_exit_4_for_a_wrong_basis_of_the_right_size(tmp_path, capsys):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({**A2_BASIS, "gamma": [[1, 0], [-1, 0]]}))
    assert run(["dvectors", "--input", path]) == 4
    assert capsys.readouterr().err == "error: not a Z-basis of the root lattice\n"


def test_dvectors_keeps_exit_4_for_roots_of_determinant_two(tmp_path, capsys):
    # four D4 roots spanning a sublattice of index 2: nonsingular, so only the
    # determinant tells them from a Z-basis
    gamma = [[0, 1, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
    assert det_bareiss(gamma) == 2
    path = tmp_path / "basis.json"
    quiver = {"n": 4, "arrows": [[0, 1], [1, 2], [1, 3]]}
    path.write_text(json.dumps({"type": "D4", "quiver": quiver, "gamma": gamma}))
    assert run(["dvectors", "--input", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a Z-basis of the root lattice\n"


def test_verify_type_a_enumerates_the_strings_once_per_triangulation(monkeypatch):
    calls = []
    original = type_a._string_keys

    def counting(B):
        calls.append(B)
        return original(B)

    monkeypatch.setattr(type_a, "_string_keys", counting)
    triangulations = type_a.enumerate_triangulations(4)
    for T in triangulations:
        B = type_a.quiver_from_triangulation(T)
        assert cli._verify_one(T)["n_strings"] == len(original(B)) == 10
    assert len(calls) == len(triangulations)


def test_verify_type_a(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert run(["verify-type-a", "--n", 2, "--mode", "exhaustive", "--output", out]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["total"] == 5 and summary["strong"] == 5
    records = lines[:-1]
    assert all(set(r) == {"diagonals", "quiver", "strong", "n_strings"} for r in records)
    assert all(r["n_strings"] == 3 for r in records)

    sampled = tmp_path / "sampled.jsonl"
    assert (
        run(
            [
                "verify-type-a",
                "--n", 5,
                "--mode", "sample",
                "--seed", 1,
                "--walk-length", 10,
                "--output", sampled,
            ]
        )
        == 0
    )
    lines = [json.loads(line) for line in sampled.read_text().splitlines()]
    assert lines[-1]["total"] == 10 and lines[-1]["strong"] == 10
    assert lines[-1]["seed"] == 1

    # byte-stable across runs
    again = tmp_path / "again.jsonl"
    assert (
        run(
            [
                "verify-type-a",
                "--n", 5,
                "--mode", "sample",
                "--seed", 1,
                "--walk-length", 10,
                "--output", again,
            ]
        )
        == 0
    )
    assert again.read_bytes() == sampled.read_bytes()

    assert run(["verify-type-a", "--mode", "exhaustive"]) == 2
    capsys.readouterr()
    assert run(["verify-type-a", "--n", cli.MAX_EXHAUSTIVE_N + 1, "--mode", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: exhaustive mode is capped at n={cli.MAX_EXHAUSTIVE_N}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            ["--n", cli.MAX_SAMPLE_N + 1, "--walk-length", 1],
            f"sample mode is capped at n={cli.MAX_SAMPLE_N}",
        ),
        (
            ["--n", 2, "--walk-length", cli.MAX_WALK_LENGTH + 1],
            f"--walk-length must be at most {cli.MAX_WALK_LENGTH}",
        ),
    ],
)
def test_verify_type_a_caps_the_sample_before_drawing(capsys, monkeypatch, extra, message):
    def no_draw(n, rng):
        raise AssertionError("drew a triangulation above the cap")

    monkeypatch.setattr(cli, "random_triangulation", no_draw)
    assert run(["verify-type-a", "--mode", "sample", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_type_a_samples_up_to_the_walk_length_cap(capsys):
    cap = cli.MAX_WALK_LENGTH
    assert run(["verify-type-a", "--n", 1, "--mode", "sample", "--walk-length", cap]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["total"] == summary["strong"] == cap


def test_verify_type_a_parallel(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert run(["verify-type-a", "--n", 3, "--output", serial]) == 0
    assert run(["verify-type-a", "--n", 3, "--jobs", 2, "--output", parallel]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.fixture
def serial_pool(monkeypatch):
    """Swaps ProcessPoolExecutor, which the CLI imports from concurrent.futures
    when it makes a pool, for a serial stand-in that forks nothing; returns
    the max_workers of each pool it was asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("jobs", [cli.MAX_JOBS + 1, 100_000])
def test_verify_type_a_rejects_jobs_above_the_cap(capsys, serial_pool, jobs):
    assert run(["verify-type-a", "--n", 2, "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at most {cli.MAX_JOBS}\n"
    assert serial_pool == []


@pytest.mark.parametrize("jobs,workers", [(3, [3]), (cli.MAX_JOBS, [5]), (1, [])])
def test_verify_type_a_starts_no_more_workers_than_triangulations(
    capsys, serial_pool, jobs, workers
):
    assert run(["verify-type-a", "--n", 2]) == 0
    serial = capsys.readouterr().out
    assert run(["verify-type-a", "--n", 2, "--jobs", jobs]) == 0
    assert capsys.readouterr().out == serial
    assert serial_pool == workers


def test_verify_type_a_counts_the_strings_it_compares(capsys, monkeypatch):
    original = type_a._string_keys
    monkeypatch.setattr(type_a, "_string_keys", lambda B: original(B)[1:])
    assert run(["verify-type-a", "--n", 3]) == 5
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1]["total"] == 14 and lines[-1]["strong"] == 0
    assert all(r["n_strings"] == 3 * 4 // 2 - 1 and not r["strong"] for r in lines[:-1])


def test_verify_type_a_walks_the_chordless_cycles_once_per_triangulation(
    capsys, monkeypatch
):
    walks = []
    original = quiver._cycle_walk

    def counting(B):
        walks.append(B)
        return original(B)

    monkeypatch.setattr(quiver, "_cycle_walk", counting)
    assert run(["verify-type-a", "--n", 4]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["total"] == 42
    assert len(walks) == 42


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_type_a_exits_4_on_a_construction_failure(
    capsys, monkeypatch, serial_pool, jobs
):
    monkeypatch.setattr(companion, "_gram_realization", lambda rs, A: None)
    assert run(["verify-type-a", "--n", 2, "--jobs", jobs]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no roots of A2 realize the companion\n"
    assert serial_pool == ([2] if jobs == 2 else [])


def test_verify_type_a_sends_the_pool_about_four_chunks_per_worker(
    capsys, monkeypatch
):
    sent = []

    class ChunkRecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            sent.append((list(items), chunksize))
            return map(fn, sent[-1][0])

    assert run(["verify-type-a", "--n", 4]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ChunkRecordingPool)
    assert run(["verify-type-a", "--n", 4, "--jobs", 2]) == 0
    assert capsys.readouterr().out == serial
    # 42 triangulations over 2 workers: one map in chunks of 42 // 8 = 5, in
    # output order
    [(triangulations, chunksize)] = sent
    assert chunksize == 5
    expected = sorted(type_a.enumerate_triangulations(4), key=lambda T: T.diagonals)
    assert triangulations == expected


def test_type_flag_generates_standard_orientation(tmp_path, capsys):
    assert run(["recognize", "--type", "E7"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "dynkin_type": "E7",
        "finite_type": True,
    }
    out = tmp_path / "d5.json"
    assert run(["companion", "--type", "D5", "--output", out]) == 0
    psi, B = loads_companion_basis(out.read_text())
    assert str(psi.rs.dynkin) == "D5"
    assert psi.gamma == psi.rs.simple_roots
    assert run(["recognize", "--type", "F4"]) == 2


def test_console_entry_point(tmp_path):
    src = tmp_path / "m.json"
    src.write_text('{"n": 2, "arrows": [[0, 1]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "companion_bases.cli", "recognize", "--input", str(src)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dynkin_type": "A2", "finite_type": True}


def test_recognize_finds_the_chordless_cycles_once(capsys, monkeypatch):
    calls = []
    original = quiver.chordless_cycles

    def counting(B, **options):
        calls.append(B)
        return original(B, **options)

    monkeypatch.setattr(quiver, "chordless_cycles", counting)
    assert run(["recognize", "--type", "E8"]) == 0
    assert capsys.readouterr().out == '{"dynkin_type":"E8","finite_type":true}\n'
    assert len(calls) == 1


DEEP = "[" * 100_000


@pytest.mark.parametrize(
    "command,text",
    [
        ("mutate", DEEP),
        ("recognize", DEEP),
        ("companion", DEEP),
        ("dvectors", DEEP),
        ("recognize", '{"n": 2, "b": ' + DEEP + "}"),
        ("dvectors", '{"type": "A2", "gamma": [], "quiver": ' + DEEP + "}"),
    ],
)
def test_deeply_nested_json_is_malformed_input(tmp_path, capsys, command, text):
    src = tmp_path / "deep.json"
    src.write_text(text)
    extra = ["--k", 0] if command == "mutate" else []
    assert run([command, "--input", src, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "extra",
    [
        ["--mode", "sample", "--walk-length", -5],
        ["--mode", "sample", "--walk-length", 0],
        ["--mode", "exhaustive", "--walk-length", 0],
        ["--jobs", -2],
        ["--jobs", 0],
    ],
)
def test_verify_type_a_rejects_a_vacuous_run(capsys, extra):
    assert run(["verify-type-a", "--n", 4, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_verify_type_a_exhaustive_at_n_7(tmp_path):
    out = tmp_path / "report.jsonl"
    assert run(["verify-type-a", "--n", 7, "--mode", "exhaustive", "--output", out]) == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["total"] == summary["strong"] == 1430


@pytest.mark.parametrize(
    "argv",
    [
        ["mutate", "--type", "A3", "--k", 0],
        ["recognize", "--type", "A3"],
        ["companion", "--type", "A3"],
        ["dvectors", "--input", "BASIS"],
        ["verify-type-a", "--n", 2],
    ],
)
def test_unwritable_output_is_exit_2(tmp_path, capsys, argv):
    basis = tmp_path / "basis.json"
    basis.write_text(PENDANT_BASIS_JSON)
    argv = [str(basis) if a == "BASIS" else a for a in argv]
    missing = tmp_path / "no" / "such" / "dir" / "out.json"
    assert run([*argv, "--output", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno 2]")


def test_unreadable_input_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for argv in (["recognize"], ["companion"], ["dvectors"], ["mutate", "--k", 0]):
        assert run([*argv, "--input", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")


def assert_usage_error(capsys, argv, message="not allowed with argument"):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
    assert message in captured.err


@pytest.mark.parametrize("command", ["mutate", "recognize", "companion"])
def test_type_and_input_together_are_rejected(pendant_file, capsys, command):
    extra = ["--k", 0] if command == "mutate" else []
    argv = [command, "--type", "E8", "--input", pendant_file, *extra]
    assert_usage_error(capsys, argv)


def test_verify_type_a_takes_no_input(capsys):
    argv = ["verify-type-a", "--n", 1, "--input", "/nonexistent/file.json"]
    assert_usage_error(capsys, argv, "unrecognized arguments: --input")


@pytest.mark.parametrize("sequence", ["", "0", "1,2"])
def test_k_and_sequence_together_are_rejected(pendant_file, capsys, sequence):
    argv = ["mutate", "--input", pendant_file, "--k", 0, "--sequence", sequence]
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("sequence", ["1_0", "١", "+1", "0,１", "1,0x1"])
def test_sequence_takes_ascii_decimal_vertices_only(pendant_file, capsys, sequence):
    assert run(["mutate", "--input", pendant_file, "--sequence", sequence]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad sequence: ")


def test_sequence_keeps_padding_empty_parts_and_negative_vertices(pendant_file, capsys):
    assert run(["mutate", "--input", pendant_file, "--sequence", " 1 ,,2,"]) == 0
    padded = capsys.readouterr().out
    assert run(["mutate", "--input", pendant_file, "--sequence", "1,2"]) == 0
    assert capsys.readouterr().out == padded
    assert run(["mutate", "--input", pendant_file, "--sequence", "-1"]) == 3
    assert capsys.readouterr().err == "error: vertex -1 out of range for n=4\n"


def assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("k", ["١", "1_0", "+1", "x", "", "1.0", "²"])
def test_k_takes_ascii_integers_only(capsys, k):
    assert run(["mutate", "--type", "A3", f"--k={k}"]) == 2
    assert_one_error_line(capsys, "--k must be an ASCII integer")


def test_k_keeps_padding_and_negative_vertices(capsys):
    assert run(["mutate", "--type", "A3", "--k", " 1 "]) == 0
    padded = capsys.readouterr().out
    assert run(["mutate", "--type", "A3", "--k", "1"]) == 0
    assert capsys.readouterr().out == padded
    assert run(["mutate", "--type", "A3", "--k", "-1"]) == 3
    assert_one_error_line(capsys, "vertex -1 out of range for n=3")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "٣", "--n must be a positive integer"),
        ("--n", "3_0", "--n must be a positive integer"),
        ("--n", "x", "--n must be a positive integer"),
        ("--walk-length", "١", "--walk-length must be a positive integer"),
        ("--jobs", "+1", "--jobs must be a positive integer"),
        ("--seed", "٣", "--seed must be an ASCII integer"),
        ("--seed", "1_0", "--seed must be an ASCII integer"),
    ],
)
def test_verify_type_a_flags_take_ascii_integers_only(capsys, flag, value, message):
    argv = ["verify-type-a", "--n", "2", "--mode", "sample", f"{flag}={value}"]
    assert run(argv) == 2
    assert_one_error_line(capsys, message)


def test_verify_type_a_reads_padded_and_negative_seeds(capsys):
    assert run(["verify-type-a", "--n", " 2 ", "--mode", "sample", "--seed", "-3"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (summary["n"], summary["seed"], summary["total"]) == (2, -3, 50)


@pytest.mark.parametrize("n", [MAX_RANK + 1, 10**12])
def test_inputs_above_the_rank_cap_are_malformed(tmp_path, capsys, n):
    quiver_message = f"'n' is {n}, above the cap of {MAX_RANK} vertices"
    rank_message = f"rank {n} is above the cap of {MAX_RANK}"
    src = tmp_path / "quiver.json"
    for command in ("mutate", "recognize", "companion"):
        src.write_text(json.dumps({"n": n, "arrows": []}))
        extra = ["--k", "0"] if command == "mutate" else []
        assert run([command, "--input", src, *extra]) == 2
        assert_one_error_line(capsys, quiver_message)
        assert run([command, "--type", f"A{n}", *extra]) == 2
        assert_one_error_line(capsys, rank_message)
    for document, message in [
        ({"type": f"A{n}", "quiver": {"n": 2, "b": []}, "gamma": []}, rank_message),
        ({"type": "A2", "quiver": {"n": n, "b": []}, "gamma": []}, quiver_message),
    ]:
        src.write_text(json.dumps(document))
        assert run(["dvectors", "--input", src]) == 2
        assert_one_error_line(capsys, message)


def test_recognize_on_the_grid_reports_the_unoriented_cycle(tmp_path, capsys):
    src = tmp_path / "grid.json"
    src.write_text(dumps_exchange_matrix(grid_quiver(7)))
    assert run(["recognize", "--input", src]) == 0
    assert capsys.readouterr().out == (
        '{"failing_condition":"chordless cycle not cyclically oriented","finite_type":false}\n'
    )


@pytest.mark.parametrize("label", ["A١", "A²", "A 3", "A+3", "A3_0", "Ａ3"])
def test_type_labels_take_ascii_ranks_only(capsys, label):
    assert run(["recognize", f"--type={label}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "invalid literal" not in lines[0]


def test_companion_reports_disconnection_before_finite_type(tmp_path, capsys):
    # two vertices joined by a double arrow, and a third on its own
    src = tmp_path / "disconnected.json"
    src.write_text('{"n": 3, "b": [[0, 2, 0], [-2, 0, 0], [0, 0, 0]]}')
    assert run(["companion", "--input", src]) == 4
    assert_one_error_line(capsys, "matrix is not connected")
    assert run(["recognize", "--input", src]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"finite_type": False, "failing_condition": "no positive quasi-Cartan companion"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mutate", "--type", "A3", "--k=--"], "--k must be an ASCII integer"),
        (["mutate", "--type", "A3", "--sequence=--"], "bad sequence: vertices must be ASCII integers"),
        (["verify-type-a", "--n", "2", "--jobs=--"], "--jobs must be a positive integer"),
        (["recognize", "--type=--"], "cannot parse Dynkin type '--'"),
        (["recognize", "--input=--"], "[Errno 2] No such file or directory: '--'"),
    ],
)
def test_an_option_value_of_two_dashes_is_read_as_text(capsys, argv, message):
    assert run(argv) == 2
    assert_one_error_line(capsys, message)


def capture(argv):
    """(exit code, stdout, stderr) of one in-process call; argparse's own exits
    (usage errors, --help) are caught as SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cli_script(tmp_path, pendant_file, monkeypatch):
    """A fixed list of (argv, expected exit code) over every subcommand.

    Strongness is reported false on rank 2 only, so that verify-type-a --n 2
    exits 5 while other ranks pass."""
    compare = cli._string_comparison

    def failing_on_rank_2(psi, B):
        strong, n_strings = compare(psi, B)
        return B.n != 2 and strong, n_strings

    monkeypatch.setattr(cli, "_string_comparison", failing_on_rank_2)
    files = {
        "square": '{"n": 4, "arrows": [[0, 1], [1, 2], [3, 2], [0, 3]]}',
        "disconnected": '{"n": 3, "arrows": [[0, 1]]}',
        "malformed": "{nope",
        "basis": PENDANT_BASIS_JSON,
        "wrong": json.dumps({**A2_BASIS, "gamma": [[1, 0], [-1, 0]]}),
    }
    path = {"pendant": pendant_file, "missing": tmp_path / "missing.json"}
    for name, text in files.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(text)
    return [
        (["mutate", "--input", path["pendant"], "--k", 1], 0),
        (["mutate", "--type", "A3", "--sequence", "0,1,2"], 0),
        (["mutate", "--type", "A3", "--k", 7], 3),
        (["mutate", "--type", "A3", "--k", "x"], 2),
        (["mutate", "--type", "A3", "--k=--"], 2),
        (["mutate", "--type", "A3"], 2),
        (["mutate", "--type", "A3", "--k", 0, "--sequence", "1"], 2),
        (["mutate", "--type", "E8", "--input", path["pendant"], "--k", 0], 2),
        (["mutate", "--type", "A3", "--k"], 2),
        (["mutate", "--help"], 0),
        (["recognize", "--input", path["pendant"]], 0),
        (["recognize", "--type", "E7"], 0),
        (["recognize", "--input", path["square"]], 0),
        (["recognize", "--input", path["malformed"]], 2),
        (["recognize", "--input", path["missing"]], 2),
        (["recognize", "--type", "E8", "--input", path["pendant"]], 2),
        (["recognize", "--help"], 0),
        (["companion", "--input", path["pendant"]], 0),
        (["companion", "--type", "D5"], 0),
        (["companion", "--input", path["disconnected"]], 4),
        (["companion", "--input", path["square"]], 4),
        (["companion", "--help"], 0),
        (["dvectors", "--input", path["basis"]], 0),
        (["dvectors", "--input", path["wrong"]], 4),
        (["dvectors", "--input", path["malformed"]], 2),
        (["dvectors", "--help"], 0),
        (["verify-type-a", "--n", 2], 5),
        (["verify-type-a", "--n", 1], 0),
        (["--verbose", "verify-type-a", "--n", 3, "--mode", "sample", "--seed", 4, "--walk-length", 3], 0),
        (["verify-type-a", "--n", 9], 2),
        (["verify-type-a", "--n", 2, "--jobs=--"], 2),
        (["verify-type-a", "--mode", "bogus"], 2),
        (["verify-type-a", "--n", 1, "--input", path["missing"]], 2),
        (["verify-type-a", "--help"], 0),
        ([], 2),
        (["bogus"], 2),
        (["--help"], 0),
    ]


def test_reusing_the_parser_leaks_no_state(cli_script, monkeypatch):
    assert {code for _, code in cli_script} == {0, 2, 3, 4, 5}
    shared = cli.PARSER
    for script in (cli_script, cli_script[::-1]):
        for argv, expected in script:
            monkeypatch.setattr(cli, "PARSER", shared)
            reused = capture(argv)
            monkeypatch.setattr(cli, "PARSER", cli.build_parser())
            assert reused == capture(argv), argv
            assert reused[0] == expected, argv


def test_main_never_rebuilds_the_parser(cli_script, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv, expected in cli_script[:20]:
        assert capture(argv)[0] == expected, argv
    assert built == []


def test_importing_the_library_does_not_import_the_cli():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import companion_bases, sys; print('companion_bases.cli' in sys.modules)",
        ],
        cwd=root,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
