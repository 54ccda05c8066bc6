"""The names of the package that the benchmark under perfbench/ reads.

The tracer wraps each (layer, name) of its LAYERS table and reads two
fields of FixedPointReport, and the benchmark's driver and client import
the scanner's grid API and call it and the command line's main.  A module
layout that drops one of them, or a signature that no longer takes the
benchmark's arguments, breaks a benchmark run, so these tests read the
benchmark's sources (and change nothing there), resolve every name
against the package and bind every call to its callee's signature.
"""

import ast
import collections
import importlib
import inspect
from pathlib import Path

import ivtree
import ivtree.cli
import ivtree.scanner
from ivtree import FixedPointReport

PERFBENCH = Path(ivtree.__file__).resolve().parents[2] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_every_traced_name_is_an_attribute_of_its_layer():
    [layers] = [ast.literal_eval(node.value) for node in _tree("tracing.py").body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"ivtree.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ivtree.{layer}.{name}"


def test_the_fixed_point_report_keeps_the_fields_the_tracer_reads():
    assert {"count", "quartic_roots"} <= set(FixedPointReport._fields)


def test_the_scanner_keeps_the_grid_api_the_benchmark_imports():
    """Every name run.py imports from ivtree.scanner (GridSpec, emit_csv,
    scan_grid) and every name client.py reads off that module."""
    imported = {alias.name for node in ast.walk(_tree("run.py"))
                if isinstance(node, ast.ImportFrom) and node.module == "ivtree.scanner"
                for alias in node.names}
    read = {node.attr for node in ast.walk(_tree("client.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "scanner"}
    assert {"GridSpec", "emit_csv", "scan_grid"} <= imported | read
    scanner = importlib.import_module("ivtree.scanner")
    for name in imported | read:
        assert hasattr(scanner, name), f"ivtree.scanner.{name}"


def test_every_call_the_benchmark_makes_into_the_package_binds():
    """Each call that run.py and client.py make into ivtree binds to its
    callee's signature, e.g. run.py's scan_grid(spec, workers=1): a
    parameter the benchmark passes cannot be dropped or renamed."""
    grid_api = {"GridSpec": ivtree.scanner.GridSpec, "scan_grid": ivtree.scanner.scan_grid,
                "emit_csv": ivtree.scanner.emit_csv}
    # run.py imports the grid API's names; client.py reads them off the module
    callees = {**grid_api, **{f"scanner.{name}": f for name, f in grid_api.items()},
               "ivtree.cli.main": ivtree.cli.main}
    bound = collections.Counter()
    for source in ("run.py", "client.py"):
        for node in ast.walk(_tree(source)):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func) in callees):
                continue
            name = ast.unparse(node.func)
            keywords = {k.arg: k.value for k in node.keywords}
            assert None not in keywords and not any(isinstance(a, ast.Starred)
                                                    for a in node.args), ast.unparse(node)
            inspect.signature(callees[name]).bind(*node.args, **keywords)
            bound[name.removeprefix("scanner.")] += 1
    assert bound == {"GridSpec": 2, "scan_grid": 2, "emit_csv": 1, "ivtree.cli.main": 2}
