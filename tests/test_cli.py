"""End-to-end checks of the command-line entry point."""

import json
import os
import signal
import subprocess
import tracemalloc

import pytest

import ivtree
# loaded here, so that no traced peak holds the check kernel's import
import ivtree._check  # noqa: F401
from ivtree import GridSpec, emit_csv, emit_jsonl, scan_grid
from ivtree.cli import main

from conftest import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_singleton_scan_to_stdout(capsys):
    code, out = run_cli(capsys, "--J", "-1.7", "--Jp", "6.5", "--T", "13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "J,Jp,T,c,d,root_count,roots,stabilities,eta1,eta2,phase_transition"
    assert len(lines) == 2
    assert ",3," in lines[1] and lines[1].endswith("true")


def test_range_flags_with_equals_form(capsys):
    code, out = run_cli(capsys, "--J=-1:1:3", "--Jp=0", "--T", "2:4:2")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3 * 1 * 2


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["--J", "-1.7", "--Jp", "6.5", "--T", "13"]
    _, stdout_text = run_cli(capsys, *argv)
    path = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == stdout_text


def test_jsonl_format(capsys):
    code, out = run_cli(capsys, "--J", "0", "--Jp", "0", "--T", "1:2:2",
                        "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert all(r["root_count"] == 1 for r in records)


def test_subnormal_temperature_cells_carry_the_weight_error(capsys):
    code, out = run_cli(capsys, "--J", "0", "--Jp=0:1:2", "--T", "1e-320", "--format", "jsonl")
    assert code == 0
    errors = [json.loads(line)["error"] for line in out.splitlines()]
    assert errors == ["|beta*J| = nan exceeds the representable range"] * 2


def test_jsonl_is_strict_when_eta_saturates(capsys):
    """eta2 of this cell is above the double range while its root is not;
    JSONL says null where the CSV keeps printing inf."""
    argv = ["--J", "260.06291799467704", "--Jp", "93.55166319011829", "--T", "1"]

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    code, out = run_cli(capsys, *argv, "--format", "jsonl")
    assert code == 0
    rec = json.loads(out, parse_constant=reject)
    assert rec["root_count"] == 1
    assert rec["eta2"] is None
    assert rec["eta1"] > 0.0
    _, csv_text = run_cli(capsys, *argv)
    assert csv_text.splitlines()[1].split(",")[9] == "inf"


def test_consistency_flag_adds_column(capsys):
    code, out = run_cli(capsys, "--J", "-1.7", "--Jp", "6.5", "--T", "13",
                        "--check-consistency")
    assert code == 0
    assert out.splitlines()[0].endswith(",consistency_residual")


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["--J=-2:2:5", "--Jp=5:7:3", "--T", "13"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_worker_count_does_not_change_output(capsys):
    base = ["--J=-2:2:3", "--Jp=5:7:2", "--T", "13"]
    _, serial = run_cli(capsys, *base)
    _, parallel = run_cli(capsys, *(base + ["--workers", "2"]))
    assert serial == parallel


def test_curve_mode(capsys):
    code, out = run_cli(capsys, "--J", "0", "--Jp", "0", "--T", "1",
                        "--curve", "--samples", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,g,g_minus_x,is_fixed_point"
    assert len(lines) == 6


@pytest.mark.parametrize("argv", [
    ["--J", "nonsense", "--Jp", "0", "--T", "1"],
    ["--J", "1:2", "--Jp", "0", "--T", "1"],
    ["--J", "2:1:5", "--Jp", "0", "--T", "1"],
    ["--J", "0", "--Jp", "0", "--T", "0"],
    ["--J=0:1:2", "--Jp", "0", "--T", "1", "--curve"],
    ["--J", "0", "--Jp", "0", "--T", "1", "--curve", "--format", "jsonl"],
    ["--J", "0", "--Jp", "0", "--T", "1", "--curve", "--check-consistency"],
    ["--J", "0", "--Jp", "0", "--T", "1", "--samples", "1"],
    ["--J", "0", "--Jp", "0", "--T", "1", "--workers", "0"],
    ["--J=-1e308:1e308:3", "--Jp", "0", "--T", "1"],
    ["--J=-1e308:1e308:3", "--Jp", "0", "--T", "1", "--format", "jsonl"],
    ["--J", "0", "--Jp", "0", "--T", "0", "--curve"],
])
def test_invalid_invocations_exit_2(argv, recwarn):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def run_module(*argv, stdout=subprocess.PIPE, blas_threads=None, preexec_fn=None):
    return run_python("-m", "ivtree", *argv, stdout=stdout, blas_threads=blas_threads,
                      preexec_fn=preexec_fn)


def test_module_invocation():
    proc = run_module("--J", "0", "--Jp", "0", "--T", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("0,0,1,1,1,1,1,stable")


def test_dropped_temperature_zero_cells_warn_in_one_line(capsys, recwarn):
    """A fresh process under the default filter, and main in this process
    under recwarn's, print the warning as one line of their own."""
    argv = ["--J", "1", "--Jp", "1", "--T=-1:1:3"]
    proc = run_module(*argv)
    assert proc.returncode == 0
    assert proc.stderr == "ivtree: warning: dropping grid cell(s) at T = 0\n"
    assert len(proc.stdout.splitlines()) == 3
    assert main(argv) == 0
    assert capsys.readouterr() == (proc.stdout, proc.stderr)
    assert not recwarn


def test_workers_start_no_process_pool():
    """--workers is accepted, but the scan stays in this process: the
    process-pool module is never imported."""
    script = ("import os, sys\n"
              "from ivtree.cli import main\n"
              "main(sys.argv[1:] + ['--out', os.devnull])\n"
              "print('concurrent.futures.process' in sys.modules)\n")
    proc = run_python("-c", script, "--J=-2:2:3", "--Jp=5:7:2", "--T", "13", "--workers", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("module, preset, expected", [
    ("ivtree.cli", None, "1"),
    ("ivtree.cli", "2", "2"),
    ("ivtree", None, "None"),
    ("ivtree.scanner", None, "None"),
])
def test_only_the_cli_sets_the_blas_thread_count(module, preset, expected):
    """Importing the command line sets OPENBLAS_NUM_THREADS to 1 before
    numpy loads, so the process runs no OpenBLAS thread pool; a value the
    caller set stays, and the library leaves the environment alone."""
    script = ("import os, sys\n"
              "__import__(sys.argv[1])\n"
              "import numpy\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              "if os.path.exists('/proc/self/status'):\n"
              "    with open('/proc/self/status') as fh:\n"
              "        print(next(line.split()[1] for line in fh\n"
              "                   if line.startswith('Threads:')))\n")
    proc = run_python("-c", script, module, blas_threads=preset)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == expected
    if expected == "1":
        if len(lines) == 1:
            pytest.skip("no /proc/self/status to count threads")
        assert lines[1] == "1"


@pytest.mark.parametrize("module, disabled, expected", [
    ("ivtree.cli", False, "frozen enabled"),
    ("ivtree.cli", True, "frozen disabled"),
    ("ivtree", False, "unfrozen enabled"),
    ("ivtree.scanner", False, "unfrozen enabled"),
])
def test_only_the_cli_freezes_the_import_time_heap(module, disabled, expected):
    """Importing the command line moves the import-time heap out of the
    collector's reach and leaves the collector as it found it; the library
    leaves the collector alone."""
    script = ("import gc, sys\n"
              "if sys.argv[2] == 'True':\n"
              "    gc.disable()\n"
              "__import__(sys.argv[1])\n"
              "print('frozen' if gc.get_freeze_count() > 0 else 'unfrozen',\n"
              "      'enabled' if gc.isenabled() else 'disabled')\n")
    proc = run_python("-c", script, module, str(disabled))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


@pytest.mark.parametrize("module, collected", [("ivtree.cli", False), ("ivtree.scanner", True)])
def test_the_cli_imports_with_the_collector_off(module, collected):
    """Importing the command line runs no collector pass, since the heap it
    builds is frozen at once; the collector is on afterwards.  The
    library's import, which leaves the collector alone, still runs
    passes."""
    script = ("import gc, sys\n"
              "passes = []\n"
              "gc.callbacks.append(lambda phase, info: phase == 'start' and passes.append(info))\n"
              "__import__(sys.argv[1])\n"
              "print(len(passes) > 0, gc.isenabled(), gc.get_freeze_count() > 0)\n")
    proc = run_python("-c", script, module)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{collected} True {not collected}\n"


def test_the_cli_still_collects_a_runs_own_cycles():
    """The freeze covers only what exists at import: a reference cycle made
    afterwards is still freed, by the collector's own passes and without a
    gc.collect() call, so a disabled collector fails this."""
    script = ("import gc, weakref\n"
              "import ivtree.cli\n"
              "class Node:\n"
              "    pass\n"
              "node = Node()\n"
              "node.self = node\n"
              "ref = weakref.ref(node)\n"
              "del node\n"
              "keep = [[] for _ in range(10 * gc.get_threshold()[0])]\n"
              "print(ref() is None)\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("argv", [
    ("--J=-2:2:5", "--Jp=5:7:4", "--T", "13", "--workers", "2"),
    ("--J=-3:3:4", "--Jp=-3:7:3", "--T", "13", "--check-consistency", "--format", "jsonl"),
])
def test_output_bytes_do_not_depend_on_the_blas_thread_count(argv):
    outputs = []
    for threads in (None, "1", "2"):
        proc = run_module(*argv, blas_threads=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] and outputs == [outputs[0]] * 3


def test_the_cli_imports_only_what_a_run_uses():
    """Neither json nor dataclasses is loaded by importing the command line,
    and each run loads exactly the package modules it runs: a grid scan the
    solver kernel alone, a checked scan the check kernel besides, and a
    --curve run the scalar map's layers but neither the oracle nor the
    check kernel."""
    scan = ["ivtree", "ivtree._solver", "ivtree.cli", "ivtree.scanner"]
    script = ("import sys\n"
              "import ivtree.cli\n"
              "print([m for m in ('dataclasses', 'json') if m in sys.modules])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ivtree'))\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[]\n{scan}\n"
    script = ("import io, sys\n"
              "from contextlib import redirect_stdout\n"
              "from ivtree.cli import main\n"
              "with redirect_stdout(io.StringIO()):\n"
              "    main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ivtree'),\n"
              "      file=sys.stderr)\n")
    proc = run_python("-c", script, "--J=-3:3:5", "--Jp=-3:7:5", "--T", "13")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{scan}\n"
    proc = run_python("-c", script, "--J=-3:3:5", "--Jp=-3:7:5", "--T", "13",
                      "--check-consistency", "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{sorted(scan + ['ivtree._check'])}\n"
    proc = run_python("-c", script, "--J", "-1.7", "--Jp", "6.5", "--T", "13", "--curve")
    assert proc.returncode == 0, proc.stderr
    curve = scan + ["ivtree.fixpoint", "ivtree.model", "ivtree.recurrence"]
    assert proc.stderr == f"{sorted(curve)}\n"


def test_jsonl_loads_json_only_to_quote_an_error_text():
    """A JSONL run quotes its labels and regimes itself, so a run without
    error rows never loads json; a run with error rows does, to quote their
    texts."""
    script = ("import io, sys\n"
              "from contextlib import redirect_stdout\n"
              "from ivtree.cli import main\n"
              "with redirect_stdout(io.StringIO()) as out:\n"
              "    main(sys.argv[1:])\n"
              "print('json' in sys.modules, out.getvalue().count('\"error\"'), file=sys.stderr)\n")
    proc = run_python("-c", script, "--J=-3:3:5", "--Jp=-3:7:5", "--T", "13",
                      "--check-consistency", "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False 0\n"
    proc = run_python("-c", script, "--J=-400:400:3", "--Jp", "0", "--T", "1",
                      "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "True 2\n"


def test_package_names_load_their_module_on_first_use():
    """In a fresh process: dir() lists every public name before any module
    is loaded, and each name resolves, through getattr and through
    ``from ivtree import *``, to the object of the module that defines it."""
    script = ("import sys\n"
              "import ivtree\n"
              "assert not [m for m in sys.modules if m.startswith('ivtree.')]\n"
              "assert set(ivtree.__all__) <= set(dir(ivtree))\n"
              "star = {}\n"
              "exec('from ivtree import *', star)\n"
              "assert set(star) - {'__builtins__'} == set(ivtree.__all__)\n"
              "for name in ivtree.__all__:\n"
              "    value = getattr(ivtree, name)\n"
              "    assert value is star[name]\n"
              "    assert getattr(sys.modules[value.__module__], name) is value\n"
              "print('ok')\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ivtree.no_such_name
    with pytest.raises(ImportError):
        from ivtree import no_such_name  # noqa: F401
    # dir() lists every public name, loaded or not, and no unknown one
    names = dir(ivtree)
    assert names == sorted(names) and set(ivtree.__all__) <= set(names)
    assert "no_such_name" not in names


def test_large_prolonged_coupling_scan_answers_every_cell(capsys):
    """beta*Jp up to 12 (d up to e^24): the lower tangency abscissa once
    cancelled to 0 and the scan died with ZeroDivisionError."""
    code, out = run_cli(capsys, "--J", "0", "--Jp=-3:12:4", "--T", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert [row.split(",")[5] for row in rows] == ["1", "3", "3", "3"]


@pytest.mark.parametrize("cell, reason", [
    (("-200", "150", "1"), "fixed point exp(-900) is outside the double range"),
    (("-300", "-300", "1"), "Numerical result out of range"),
])
def test_curve_outside_the_double_range_exits_2_without_traceback(cell, reason):
    """Fixed point e^-900 (once an OverflowError from the solver report) and
    g overflowing while tabulated (once OverflowError(34) from scalar_map_g)."""
    J, Jp, T = cell
    proc = run_module(f"--J={J}", f"--Jp={Jp}", "--T", T, "--curve")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("ivtree: error: --curve")
    assert reason in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("out", ["", "missing/x.csv"])
def test_unwritable_out_exits_2_without_traceback(tmp_path, out):
    """A directory, and a file in a directory that does not exist."""
    proc = run_module("--J", "0", "--Jp", "0", "--T", "1", "--out", str(tmp_path / out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("ivtree: error: --out ")
    assert proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["--J", "1", "--Jp", "1", "--T", "1"],
    ["--J=-3:3:21", "--Jp=-3:7:21", "--T", "13"],
    ["--J", "1", "--Jp", "1", "--T", "1", "--curve"],
    ["--J=-3:3:41", "--Jp=-3:7:41", "--T", "13"],
])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_failed_write_to_stdout_exits_2_without_traceback(argv, unbuffered, monkeypatch):
    """stdout on a full device: the final flush of a short text fails, and so
    does the write of a text longer than the stream's buffer, and that of a
    later block of a grid written in several.  A buffered stdout still holds
    the short text at exit, and must not fail again."""
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "w") as full:
        proc = run_module(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "ivtree: error: --out -: No space left on device"
    assert proc.stderr.count("ivtree: error:") == 1
    assert proc.stderr.startswith("usage: ivtree ")
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["--J", "1", "--Jp", "1", "--T", "1"],
    ["--J=-3:3:41", "--Jp=-3:7:41", "--T", "13"],
])
def test_a_failed_write_to_out_exits_2_without_traceback(argv):
    """--out on a full device: the first write or the closing flush fails."""
    proc = run_module(*argv, "--out", "/dev/full")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "ivtree: error: --out /dev/full: No space left on device"
    assert proc.stderr.count("ivtree: error:") == 1
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr
    assert proc.stdout == ""


def test_a_write_that_fails_part_way_keeps_what_went_out(tmp_path):
    """A file size limit in the child: the text of the 1,681-row grid is
    written in blocks until the limit, then a write fails.  The run exits 2
    with one line, and the file holds the text up to the limit."""
    resource = pytest.importorskip("resource")
    limit = 64 * 1024

    def limit_file_size():
        # past the limit a write fails with EFBIG instead of raising SIGXFSZ
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    out = tmp_path / "grid.csv"
    proc = run_module("--J=-3:3:41", "--Jp=-3:7:41", "--T", "13", "--out", str(out),
                      preexec_fn=limit_file_size)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == f"ivtree: error: --out {out}: File too large"
    assert proc.stderr.count("ivtree: error:") == 1
    assert "Traceback" not in proc.stderr
    text = emit_csv(scan_grid(GridSpec(j=(-3, 3, 41), jp=(-3, 7, 41), t=(13, 13, 1))))
    assert len(text) > limit
    assert out.read_text(encoding="utf-8") == text[:limit]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_grid_output_memory_does_not_grow_with_the_table(fmt):
    """A 201 x 201 scan written in blocks: the traced peak is the scan's
    arrays (about 7.2 MB for either format) plus one block of text.  Writing
    the table as one string peaked at about 25 MB for CSV and 44 MB for
    JSONL, which is over the bound."""
    tracemalloc.start()
    try:
        code = main(["--J=-3:3:201", "--Jp=-3:7:201", "--T", "13", "--format", fmt,
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 22e6


@pytest.mark.parametrize("grid, chunk", [
    (["--J=-3:3:151", "--Jp=-3:7:151"], 512),
    (["--J=-1.75:-1.65:64", "--Jp=6.4:6.6:64"], ivtree.scanner._CHUNK_CELLS),
], ids=["151x151-chunk512", "three-roots-64x64"])
def test_the_check_adds_one_chunk_of_memory_not_one_grid(grid, chunk, monkeypatch):
    """With --check-consistency the traced peak stays within 2 MB of the
    unchecked run's, because each chunk's roots are checked as soon as it
    is solved, at most one chunk's count of roots a call.  The 151 x 151
    scan runs in 45 chunks of 512 cells (0.3 MB more); checking every root
    of the grid after the solve, from grid-wide copies of the roots' logs
    and field coefficients, added 4.8 MB.  Every cell of the 64 x 64 grid
    has three roots, so its one chunk of 4096 cells has 12,288 (1.5 MB
    more); checking them in one call added 9.0 MB."""
    monkeypatch.setattr(ivtree.scanner, "_CHUNK_CELLS", chunk)
    peaks = []
    for flags in ([], ["--check-consistency"]):
        tracemalloc.start()
        try:
            code = main([*grid, "--T", "13", *flags, "--out", os.devnull])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] - peaks[0] < 2e6


@pytest.mark.parametrize("out", ["", "missing/x.csv"])
def test_unwritable_out_exits_2_before_scanning(tmp_path, out, monkeypatch):
    """The whole scan once ran before the --out path was tried; scan_grid
    must not be reached."""
    def scan_grid(*args, **kwargs):
        raise AssertionError("scan_grid ran before --out was opened")

    monkeypatch.setattr(ivtree.cli, "scan_grid", scan_grid)
    with pytest.raises(SystemExit) as excinfo:
        main(["--J=-3:3:401", "--Jp=-3:7:401", "--T", "13", "--out", str(tmp_path / out)])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--J", "0", "--Jp", "0", "--T", "0"],
    ["--J=-3:3:3", "--Jp", "0", "--T", "0", "--check-consistency"],
    ["--J=-1e308:1e308:3", "--Jp", "0", "--T", "1"],
    ["--J=-200", "--Jp", "150", "--T", "1", "--curve"],
    ["--J", "0", "--Jp", "0", "--T", "0", "--curve"],
])
def test_runs_that_exit_2_leave_out_alone(tmp_path, argv, recwarn):
    """Grids with no temperature cell or an overflowing range, and a curve
    that cannot be tabulated: no file is created or truncated."""
    kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
    kept.write_text("kept\n", encoding="utf-8")
    for path in (kept, missing):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(path)])
        assert excinfo.value.code == 2
    assert kept.read_text(encoding="utf-8") == "kept\n"
    assert not missing.exists()


def test_fresh_process_consistency_jsonl_equals_in_process_bytes():
    """The child builds the enumeration tables from empty caches; its
    residuals must have the bits of this process's scan."""
    proc = run_module("--J=-3:3:21", "--Jp=-3:7:21", "--T", "13",
                      "--check-consistency", "--format", "jsonl")
    assert proc.returncode == 0, proc.stderr
    spec = GridSpec(j=(-3, 3, 21), jp=(-3, 7, 21), t=(13, 13, 1))
    assert proc.stdout == emit_jsonl(scan_grid(spec, check_consistency=True))
