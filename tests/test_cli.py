"""End-to-end checks of the command-line entry point."""

import json
import os
import subprocess
import sys

import pytest

import ivtree
from ivtree import GridSpec, emit_jsonl, scan_grid
from ivtree.cli import main


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


def run_python(*argv, stdout=subprocess.PIPE):
    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(ivtree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env)


def run_module(*argv, stdout=subprocess.PIPE):
    return run_python("-m", "ivtree", *argv, stdout=stdout)


def test_module_invocation():
    proc = run_module("--J", "0", "--Jp", "0", "--T", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("0,0,1,1,1,1,1,stable")


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


def test_the_cli_imports_only_what_a_run_uses():
    """Neither the consistency oracle nor json nor dataclasses is loaded by
    importing the command line; a run loads them only when it needs them.
    A grid run leaves the scalar map's module unloaded; a --curve run,
    which evaluates g, loads it."""
    script = ("import sys\n"
              "import ivtree.cli\n"
              "print([m for m in ('ivtree.oracle', 'dataclasses', 'json') if m in sys.modules])\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    script = ("import io, sys\n"
              "from contextlib import redirect_stdout\n"
              "from ivtree.cli import main\n"
              "with redirect_stdout(io.StringIO()):\n"
              "    main(sys.argv[1:])\n"
              "print('ivtree.recurrence' in sys.modules, file=sys.stderr)\n")
    proc = run_python("-c", script, "--J=-3:3:5", "--Jp=-3:7:5", "--T", "13")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"
    proc = run_python("-c", script, "--J", "-1.7", "--Jp", "6.5", "--T", "13", "--curve")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "True\n"


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
])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_failed_write_to_stdout_exits_2_without_traceback(argv, unbuffered, monkeypatch):
    """stdout on a full device: the final flush of a short text fails, and so
    does the write of a text longer than the stream's buffer.  A buffered
    stdout still holds the short text at exit, and must not fail again."""
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with open("/dev/full", "w") as full:
        proc = run_module(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "ivtree: error: --out -: No space left on device"
    assert proc.stderr.startswith("usage: ivtree ")
    assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr


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
