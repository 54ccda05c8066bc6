"""The names of the package that the benchmark under perfbench/ reads.

The tracer wraps each (layer, name) of its LAYERS table and reads two
fields of FixedPointReport, and the benchmark's driver and client import
the scanner's grid API.  A module layout that drops one of them breaks a
traced run, so these tests read the benchmark's sources (and change
nothing there) and resolve every name against the package.
"""

import ast
import importlib
from pathlib import Path

import ivtree
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
