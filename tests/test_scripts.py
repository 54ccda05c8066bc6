"""The scripts in scripts/, each run in a child process."""

import ast
import inspect
from pathlib import Path

import pytest

import conftest
from ivtree import GridSpec, emit_csv, scan_grid

from test_cli import run_python

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


def test_tangency_sweep_prints_the_collision_root():
    proc = run_script("tangency_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert "at c*: collision root x = " in proc.stdout


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
