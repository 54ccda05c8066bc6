"""The scripts in scripts/, each run in a child process."""

import ast
import inspect
import re
import shutil
from pathlib import Path

import pytest

import conftest
import ivtree
from ivtree import GridSpec, emit_csv, scan_grid

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    return run_python(str(SCRIPTS / name), *argv)


def test_phase_diagram_writes_the_csv_of_its_scan(tmp_path):
    out = tmp_path / "diagram.csv"
    proc = run_script("phase_diagram.py", "--steps", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    spec = GridSpec(j=(-3.0, 3.0, 5), jp=(-3.0, 7.0, 5), t=(13.0, 13.0, 1))
    assert out.read_text(encoding="utf-8") == emit_csv(scan_grid(spec))
    assert "25 cells: " in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["--steps", "1"], "J: steps = 1 requires min = max"),
    (["--steps", "0"], "J: steps must be >= 1"),
    (["--T", "0"], "T: no nonzero temperature cells remain"),
    (["--T", "nan"], "T: need finite min <= max"),
    (["--jp-range", "7", "-3"], "Jp: need finite min <= max"),
    (["--out", "{tmp}"], "--out {tmp}: Is a directory"),
    (["--out", "{tmp}/missing/diagram.csv"],
     "--out {tmp}/missing/diagram.csv: No such file or directory"),
    (["--out", "/dev/full"], "--out /dev/full: No space left on device"),
])
def test_phase_diagram_rejects_what_it_cannot_scan_or_write(argv, message, tmp_path):
    """Exit 2 with one usage error line, not a traceback, and leave no
    output file behind for an invalid grid."""
    out = tmp_path / "diagram.csv"
    argv = ["--out", str(out)] + [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = run_script("phase_diagram.py", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    message = message.replace("{tmp}", str(tmp_path))
    assert proc.stderr.splitlines()[-1] == f"phase_diagram.py: error: {message}"
    assert not out.exists()


def test_tangency_sweep_prints_the_collision_root():
    proc = run_script("tangency_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert "at c*: collision root x = " in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["--d", "nan"], "--d must be finite and exceed 2"),
    (["--d", "inf"], "--d must be finite and exceed 2"),
    (["--points", "-1"], "--points must be nonnegative"),
    (["--span", "1.5"], "--span must be in [0, 1)"),
    (["--d", "1e300"], "c* at d = 1e+300 lies outside the double range"),
    (["--d", "1e150"], "fixed point exp(-1035.18) is outside the double range"),
])
def test_tangency_sweep_rejects_what_it_cannot_sweep(argv, message):
    """Exit 2 with one usage error line, not a traceback."""
    proc = run_script("tangency_sweep.py", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"tangency_sweep.py: error: {message}")


def test_one_cell_ab_compares_a_tree_with_itself():
    """Both copies of one tree give equal answers and solver arrays, each
    round prints a p50 and a mean for each, and the last line gives the
    new tree's wins and the old tree's p50 quartiles."""
    src = str(Path(ivtree.__file__).resolve().parent.parent)
    proc = run_script("one_cell_ab.py", src, src, "--draws", "12", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("12 draws, equal PhasePoints and solver arrays; ")
    assert [line.split(":")[0] for line in lines[1:3]] == ["round 1", "round 2"]
    assert all(line.count(" p50 ") == 2 and line.count(" mean ") == 2 for line in lines[1:3])
    assert lines[3].startswith("median of rounds: old p50 ")
    match = re.fullmatch(r"new p50 lower in (\d) of 2 rounds; "
                         r"old p50 quartiles (\S+) to (\S+) us", lines[4])
    assert match and int(match[1]) <= 2
    assert 0 < float(match[2]) <= float(match[3])


def test_one_cell_ab_finds_solver_bits_that_no_phase_point_shows(tmp_path):
    """A tree whose slopes are one ulp off gives the same PhasePoints, and
    the solver arrays tell the trees apart."""
    home = Path(ivtree.__file__).resolve().parent
    copy = tmp_path / "ivtree"
    shutil.copytree(home, copy, ignore=shutil.ignore_patterns("__pycache__"))
    solver = copy / "_solver.py"
    text = solver.read_text(encoding="utf-8")
    slopes = "_slope(lcd[:, :, None] + log_roots)"
    assert text.count(slopes) == 1
    solver.write_text(text.replace(slopes, f"np.nextafter({slopes}, np.inf)"), encoding="utf-8")
    proc = run_script("one_cell_ab.py", str(home.parent), str(tmp_path), "--draws", "4")
    assert proc.returncode == 1
    assert proc.stderr.startswith("different solver arrays at J=")


def test_one_cell_ab_rejects_a_directory_without_the_package(tmp_path):
    proc = run_script("one_cell_ab.py", str(tmp_path), str(tmp_path), "--draws", "2")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == f"one_cell_ab.py: error: no ivtree package in {tmp_path}"


GRID_ARGV = ("--J=-3:3:5", "--Jp=-3:7:5", "--T", "13")


def test_cli_ab_compares_a_tree_with_itself():
    """Both runs of one checkout print the same bytes, and each round of
    fresh processes adds to the paired figures."""
    root = str(Path(ivtree.__file__).resolve().parents[2])
    proc = run_script("cli_ab.py", root, root, "--rounds", "2", "--", *GRID_ARGV)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("equal output: exit 0, ")
    match = re.fullmatch(r"2 rounds: old median (\S+) ms \(quartiles (\S+) to (\S+) ms\), "
                         r"new median \S+ ms", lines[1])
    assert match and 0 < float(match[2]) <= float(match[3])
    assert lines[2].startswith("new - old: median ") and lines[2].endswith(" of 2")


def test_cli_ab_refuses_trees_whose_output_differs(tmp_path):
    """A tree whose stdout differs is refused, and so is one whose stderr
    alone differs: here, the text of the T = 0 warning."""
    home = Path(ivtree.__file__).resolve().parent
    zero_t_argv = ("--J", "1", "--Jp", "1", "--T=-1:1:3")
    for case, old, new, argv in [
        ("stdout", 'CSV_HEADER = ["J", ', 'CSV_HEADER = ["j", ', GRID_ARGV),
        ("stderr", '"dropping grid cell(s)', '"skipping grid cell(s)', zero_t_argv),
    ]:
        shutil.copytree(home, tmp_path / case / "src" / "ivtree",
                        ignore=shutil.ignore_patterns("__pycache__"))
        scanner = tmp_path / case / "src" / "ivtree" / "scanner.py"
        text = scanner.read_text(encoding="utf-8")
        assert text.count(old) == 1
        scanner.write_text(text.replace(old, new), encoding="utf-8")
        proc = run_script("cli_ab.py", str(home.parents[1]), str(tmp_path / case), "--", *argv)
        assert proc.returncode == 1, case
        assert proc.stderr.startswith("different output: old exit 0, "), case


def test_cli_ab_rejects_a_directory_without_the_package(tmp_path):
    proc = run_script("cli_ab.py", str(tmp_path), str(tmp_path), "--", *GRID_ARGV)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"cli_ab.py: error: no ivtree package in {tmp_path / 'src'}")


def frozen_literals(name):
    """The source text of each value in the conftest dict `name`, by key;
    a tuple gives a list of texts."""
    source = inspect.getsource(conftest)
    node = next(n for n in ast.parse(source).body
                if isinstance(n, ast.Assign) and n.targets[0].id == name).value
    texts = {}
    for key, value in zip(node.keys, node.values):
        items = value.elts if isinstance(value, ast.Tuple) else [value]
        texts[key.value] = [ast.get_source_segment(source, v) for v in items]
    return texts


def test_reference_values_prints_the_frozen_three_root_constants():
    pytest.importorskip("mpmath")
    proc = run_script("reference_values.py")
    assert proc.returncode == 0, proc.stderr
    lit = frozen_literals("THREE_ROOT_EXPECTED")
    expected = [f"  {k} = {lit[k][0]}" for k in "abcd"]
    expected += [f"  root {r}  g' = {dg}" for r, dg in zip(lit["roots"], lit["derivatives"])]
    expected += [f"  eta{k} = {lit[f'eta{k}'][0]}  at x_crit_{k} = {lit['x_crit'][k - 1]}"
                 for k in (1, 2)]
    lines = proc.stdout.splitlines()
    assert lines[0] == "--- three-root point: J=-1.7 Jp=6.5 T=13"
    assert lines[1:10] == expected

    blocks = {}
    for line in lines:
        if line.startswith("--- "):
            blocks[line] = body = []
        else:
            body.append(line)
    # the lines after a and b
    dec = frozen_literals("DECREASING_EXPECTED")
    assert blocks["--- decreasing-map point: J=-1.045 Jp=-1.045 T=6.55"][2:] == [
        f"  c = {dec['cd'][0]}", f"  d = {dec['cd'][0]}",
        f"  root {dec['root'][0]}  g' = {dec['derivative'][0]}"]
    neg = frozen_literals("NEGATIVE_T_EXPECTED")
    assert blocks["--- negative-temperature point: J=6.75 Jp=1.95 T=-5.75"][2:] == [
        f"  c = {neg['c'][0]}", f"  d = {neg['d'][0]}",
        f"  root {neg['root'][0]}  g' = {neg['derivative'][0]}"]
    tan = frozen_literals("TANGENT_CASE")
    c_star, _, tangent, *roots = blocks[f"--- tangent case at d = {tan['d'][0]}"]
    assert c_star == f"  c* = {tan['c'][0]}"
    assert tangent.startswith(f"  x_tangent = {tan['x_tangent'][0]}  ")
    assert roots == [f"  root {tan['x_tangent'][0]}"] * 2 + [f"  root {tan['x_transversal'][0]}"]
