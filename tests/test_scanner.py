"""Grid scans, output emission, and the curve table."""

import collections
import hashlib
import json
import math
import random
import warnings

import numpy as np
import pytest

import ivtree._check
import ivtree.recurrence
import ivtree.scanner
from ivtree import (GridSpec, TransferWeights, couplings, critical_points, derive_weights,
                    emit_csv, emit_curve, emit_jsonl, field_from_scalar,
                    find_positive_fixed_points, kolmogorov_consistency_check, scan_grid)
from ivtree.recurrence import scalar_map_g
from ivtree._solver import STABILITY_LABELS, regime
from ivtree.fixpoint import emit_curve_csv
from ivtree.scanner import CSV_HEADER, evaluate_point

from conftest import (NEGATIVE_T_POINT, TANGENT_CASE, THREE_ROOT_EXPECTED, THREE_ROOT_POINT,
                      assert_close)


def singleton(J, Jp, T) -> GridSpec:
    return GridSpec(j=(J, J, 1), jp=(Jp, Jp, 1), t=(T, T, 1))


# ----------------------------------------------------------------- GridSpec


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(j=(0, 1, 0), jp=(0, 0, 1), t=(1, 1, 1))
    with pytest.raises(ValueError):
        GridSpec(j=(2, 1, 5), jp=(0, 0, 1), t=(1, 1, 1))
    with pytest.raises(ValueError):
        GridSpec(j=(0, 1, 1), jp=(0, 0, 1), t=(1, 1, 1))  # steps=1 needs min=max
    with pytest.raises(ValueError):
        GridSpec(j=(0, math.inf, 2), jp=(0, 0, 1), t=(1, 1, 1))
    with pytest.raises(ValueError, match="max - min overflows"):
        GridSpec(j=(-1e308, 1e308, 3), jp=(0, 0, 1), t=(1, 1, 1))
    with pytest.raises(ValueError):
        GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(math.nan, math.nan, 1))
    for steps in (2.5, 2.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="Jp: steps must be an integer"):
            GridSpec(j=(0.0, 1.0, 3), jp=(0.0, 1.0, steps), t=(1.0, 1.0, 1))
    with pytest.raises(ValueError, match="T: steps must be an integer"):
        GridSpec(j=(0.0, 1.0, 2), jp=(0.0, 0.0, 1), t=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="J: steps must be >= 1"):
        GridSpec(j=(0.0, 1.0, np.int64(0)), jp=(0.0, 0.0, 1), t=(1.0, 1.0, 1))
    spec = GridSpec(j=(0.0, 1.0, np.int64(3)), jp=(0.0, 0.0, np.int32(1)), t=(1.0, 1.0, 1))
    assert scan_grid(spec)[2].J == 1.0


def test_record_reprs_are_unchanged():
    """The text of the reference cell and of a grid, as the records printed
    when they were dataclasses."""
    assert repr(evaluate_point(*THREE_ROOT_POINT)) == (
        "PhasePoint(J=-1.7, Jp=6.5, T=13.0, c=0.7698662646139592, d=2.7182818284590455, "
        "root_count=3, roots=(0.07109898438733472, 2.8530454262905898, 7.931073245016277), "
        "stabilities=('stable', 'unstable', 'stable'), eta1=0.5570388069885117, "
        "eta2=1.064008571673668, regime='multi-capable', phase_transition=True, "
        "consistency_residual=None, error=None)")
    assert repr(GridSpec(j=(-3.0, 3.0, 21), jp=(-3.0, 7.0, 21), t=(13.0, 13.0, 1))) == (
        "GridSpec(j=(-3.0, 3.0, 21), jp=(-3.0, 7.0, 21), t=(13.0, 13.0, 1))")


def _one_cell_sample():
    """Seeded cells at T = 1 as the point-query client draws them (even
    draws with |beta J|, |beta Jp| <= 12, odd ones over the accepted box
    <= 354), then d = 1, both doubles next to d = 2 (no double b has
    b * b == 2), the tangent cell of scripts/tangency_sweep.py at d = 2.5,
    and both weight-bound errors."""
    rng = random.Random(13)
    cells = []
    for i in range(500):
        r = 12.0 if i % 2 == 0 else 354.0
        cells.append((rng.uniform(-r, r), rng.uniform(-r, r), 1.0))
    half_log2 = math.log(2.0) / 2.0
    cells += [(J, 0.0, 1.0) for J in (-5.0, -0.3, 0.0, 0.3, 5.0)]
    cells += [(J, Jp, 1.0) for J in (-1.0, 0.0, 1.0)
              for Jp in (half_log2, math.nextafter(half_log2, 1.0))]
    cells.append((math.log(TANGENT_CASE["c"]) / 2.0, math.log(TANGENT_CASE["d"]) / 2.0, 1.0))
    cells += [(400.0, 0.0, 1.0), (0.0, -400.0, 1.0)]
    return cells


def test_one_cell_answers_are_pinned():
    """sha256 over the repr of every one-cell answer of the sample, and of
    the one-cell solver at d = 1 and d = 2 exactly, taken before the
    one-cell path was cut down: a change of any bit of any reported value
    or error text shows here."""
    texts = [repr(evaluate_point(*cell)) for cell in _one_cell_sample()]
    for c in (0.5, 1.0, TANGENT_CASE["c"], 3.0):
        for d in (1.0, 2.0):
            w = TransferWeights(c, d)
            texts += [repr(find_positive_fixed_points(w)), repr(critical_points(w))]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "5fec6454decd50df440ddd2278dfcd5809f164643a758806afca68c28f43a508")


def test_axis_values_and_singleton_flag():
    spec = GridSpec(j=(-3, 3, 21), jp=(-3, 7, 21), t=(13, 13, 1))
    assert spec.j_values().size == 21
    assert spec.j_values()[0] == -3.0 and spec.j_values()[-1] == 3.0
    assert not spec.is_singleton()
    assert singleton(1, 2, 3).is_singleton()


@pytest.mark.parametrize("value", [-1.7, 0.1, 13.0, 1e-300, -350.0])
def test_singleton_axis_is_the_value_itself(value):
    spec = singleton(value, value, value)
    for axis in (spec.j_values(), spec.jp_values(), spec.t_values()):
        assert axis.dtype == np.float64
        assert axis.tolist() == [value]
        assert axis.tolist() == np.linspace(value, value, 1).tolist()


def test_temperature_zero_cells_are_dropped_with_warning():
    """t_values drops the zero quietly; the scan that drops it warns once."""
    spec = GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(-1, 1, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = spec.t_values()
    assert vals.tolist() == [-1.0, 1.0]
    with pytest.warns(UserWarning, match="T = 0") as caught:
        assert len(scan_grid(spec)) == 2
    assert len(caught) == 1


def test_the_temperature_zero_warning_names_the_line_that_scans():
    """Under the default filter, which shows a warning once per line, two
    scans from two lines warn twice, each at its own line."""
    spec = GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(-1, 1, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        scan_grid(spec)
        scan_grid(spec)
    assert [str(w.message) for w in caught] == ["dropping grid cell(s) at T = 0"] * 2
    assert [w.filename for w in caught] == [__file__] * 2
    assert caught[1].lineno == caught[0].lineno + 1


def test_all_zero_temperature_grid_is_an_error():
    """Rejected when the spec is built, whether T = 0 is pinned or spans
    several cells."""
    for t in ((0.0, 0.0, 1), (0.0, 0.0, 3), (-0.0, 0.0, 2)):
        with pytest.raises(ValueError, match="T: no nonzero temperature cells remain"):
            GridSpec(j=(1.0, 1.0, 1), jp=(1.0, 1.0, 1), t=t)


# ------------------------------------------------------------------- scans


def test_singleton_scan_at_the_three_root_point():
    pts = scan_grid(singleton(*THREE_ROOT_POINT))
    assert len(pts) == 1
    p = pts[0]
    assert p.root_count == 3
    assert p.phase_transition is True
    assert p.error is None
    assert_close(p.roots, THREE_ROOT_EXPECTED["roots"], 1e-9, "scan roots")
    assert p.stabilities == ("stable", "unstable", "stable")
    assert p.regime == "multi-capable"


def test_singleton_scan_at_the_negative_temperature_point():
    p = scan_grid(singleton(*NEGATIVE_T_POINT))[0]
    assert p.root_count == 1
    assert p.phase_transition is False
    assert p.eta1 is None and p.eta2 is None


def test_zero_coupling_line_has_the_unit_root():
    pts = scan_grid(GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(1, 5, 3)))
    for p in pts:
        assert p.root_count == 1
        assert abs(p.roots[0] - 1.0) < 1e-12
        assert p.phase_transition is False


def test_failed_cells_are_recorded_not_raised():
    pts = scan_grid(GridSpec(j=(0, 5000, 2), jp=(0, 0, 1), t=(0.001, 0.001, 1)))
    ok, bad = pts[0], pts[1]
    assert ok.error is None and ok.root_count == 1
    assert bad.error is not None and bad.root_count is None
    assert "J" in bad.error


def test_scan_order_is_j_major():
    spec = GridSpec(j=(0, 1, 2), jp=(0, 1, 2), t=(1, 2, 2))
    seen = [(p.J, p.Jp, p.T) for p in scan_grid(spec)]
    assert seen == sorted(seen)
    assert len(seen) == 8


def test_parallel_scan_matches_serial():
    spec = GridSpec(j=(-2, 2, 5), jp=(5, 7, 3), t=(13, 13, 1))
    serial = emit_csv(scan_grid(spec, workers=1))
    parallel = emit_csv(scan_grid(spec, workers=3))
    assert serial == parallel


def test_chunked_scan_is_byte_identical_for_one_two_and_three_workers():
    """workers is accepted and ignored: every worker count runs the same
    serial loop over chunks, so the bytes must not change."""
    spec = GridSpec(j=(-3, 3, 21), jp=(-3, 7, 21), t=(13, 13, 1))
    texts = {workers: emit_csv(scan_grid(spec, workers=workers)) for workers in (1, 2, 3)}
    assert texts[1] == texts[2] == texts[3]
    assert len(texts[1].splitlines()) == 1 + 21 * 21


def test_classification_coherence_over_a_mixed_grid():
    pts = scan_grid(GridSpec(j=(-3, 3, 5), jp=(-3, 7, 5), t=(13, 13, 1)))
    assert all(p.error is None for p in pts)
    for p in pts:
        assert p.phase_transition == (p.root_count >= 2)
        assert p.regime in ("unique", "multi-capable")
        assert len(p.roots) == p.root_count == len(p.stabilities)


def test_consistency_residual_is_reported_when_requested():
    p = evaluate_point(*THREE_ROOT_POINT, check_consistency=True)
    assert p.consistency_residual is not None
    assert p.consistency_residual < 1e-10
    q = evaluate_point(*THREE_ROOT_POINT)
    assert q.consistency_residual is None


def test_consistency_holds_over_the_whole_accepted_domain():
    """|beta J|, |beta Jp| up to 350: every answered cell's fixed points give
    consistent measures; the unanswered ones have unrepresentable roots."""
    pts = scan_grid(GridSpec(j=(-350, 350, 41), jp=(-350, 350, 41), t=(1, 1, 1)),
                    check_consistency=True)
    answered = [p for p in pts if p.error is None]
    assert len(answered) > len(pts) // 2
    assert any(p.root_count == 3 for p in answered)
    assert all("outside the double range" in p.error for p in pts if p.error is not None)
    assert max(p.consistency_residual for p in answered) <= 1e-9


# README grid, |J|, |Jp| <= 350 at T = 1 (574 cells with a root outside the
# double range), and a low-temperature cube (both weight-bound messages too)
README_GRID = GridSpec(j=(-3, 3, 21), jp=(-3, 7, 21), t=(13, 13, 1))
WIDE_GRID = GridSpec(j=(-350, 350, 41), jp=(-350, 350, 41), t=(1, 1, 1))
LOW_T_GRID = GridSpec(j=(-3, 3, 11), jp=(-3, 7, 11), t=(0.005, 0.5, 11))


@pytest.mark.parametrize("spec, digest", [
    (README_GRID, "aa5a2c51178f819dd80d9bfd247fb1bcd8cb051091054b4a0ca0393f28aedcf2"),
    (WIDE_GRID, "362e311d14596884a76d9296ed3f717e33aba8bc39ae48911196d327ef20d066"),
    (LOW_T_GRID, "16ab70ba8fbd3316b3389ad95573b4ac0f55ece50f9302fff81c384cfe7a5154"),
])
def test_csv_bytes_are_pinned(spec, digest):
    """sha256 of the CSV written by the per-cell scanner these grids were
    first pinned with; the array scan must reproduce it byte for byte."""
    assert hashlib.sha256(emit_csv(scan_grid(spec)).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec, error_rows, digest", [
    (WIDE_GRID, 574, "3179834fef9dd7dc4a781db9cce62f7a00e0b399ace41aa3498613dae09db68c"),
    (LOW_T_GRID, 122, "bab3f88ba0925d7bef1c17d16eb1b2ff3dfcf0a733733ec591b6a96ce3064833"),
])
def test_jsonl_error_texts_are_pinned(spec, error_rows, digest):
    """sha256 of the JSONL, every cell error text included; the CSV leaves
    an error cell's fields empty, so only JSONL pins the messages."""
    text = emit_jsonl(scan_grid(spec))
    assert text.count('"error"') == error_rows
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# four blocks of _EMIT_ROWS rows; and a grid around the cell of
# test_cli.py::test_jsonl_is_strict_when_eta_saturates, whose rows mix
# weight-bound and out-of-range errors, one and three roots, NaN etas and
# etas above the double range
FOUR_BLOCK_GRID = GridSpec(j=(-3, 3, 21), jp=(-3, 7, 21), t=(10, 13, 4))
SATURATED_GRID = GridSpec(j=(260.06291799467704 - 80, 260.06291799467704 + 100, 10),
                          jp=(93.55166319011829 - 40, 93.55166319011829 + 20, 7),
                          t=(0.9, 1, 2))


@pytest.mark.parametrize("spec, check, emit, digest", [
    (README_GRID, False, emit_jsonl,
     "cd3e7d7d23fcb8849a650534099a45491c97daa2435d8259edf42a33fdeb3bd6"),
    (FOUR_BLOCK_GRID, False, emit_csv,
     "0fa589b4f3f7a1bb948d197c5711e4e82b3dac3b35f15628f5685d11e8473fdd"),
    (FOUR_BLOCK_GRID, False, emit_jsonl,
     "1923cc69eb017884f0f0e4f8d7b8abaa997d7d2b96f959c08dbf244ee8aeed97"),
    (README_GRID, True, emit_csv,
     "a2f1dc9575036ce445ff4c69495eaace6192fe85fb3628308e1127b2744f67ff"),
    (SATURATED_GRID, False, emit_csv,
     "b33b5da3570a7367c10ee28e8b9d72a2d8f994faed3560feab1da4fe8c4f887d"),
    (SATURATED_GRID, False, emit_jsonl,
     "33a3c5b4d705b42f15d66de33df13bdda8deb47f2d5607bb485ad48c6fc416b9"),
])
def test_emitted_bytes_are_pinned(spec, check, emit, digest):
    """sha256 of the emitters' text, every root, eta and residual spelling
    included, as the per-column emitter wrote it."""
    text = emit(scan_grid(spec, check_consistency=check))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_scan_residuals_are_those_of_the_one_field_check():
    """Each cell's residual is, bit for bit, the largest
    kolmogorov_consistency_check over the fields field_from_scalar makes of
    its roots: the scan forms the same field values as arrays."""
    table = scan_grid(README_GRID, check_consistency=True)
    for p in table:
        params = couplings(p.J, p.Jp, p.T)
        assert p.consistency_residual == max(
            kolmogorov_consistency_check(params, field_from_scalar(x)) for x in p.roots)


def test_consistency_jsonl_is_pinned_apart_from_residual_round_off():
    text = emit_jsonl(scan_grid(README_GRID, check_consistency=True))
    rows = [json.loads(line) for line in text.splitlines()]
    residuals = [row.pop("consistency_residual") for row in rows]
    assert max(residuals) <= 1e-9
    canonical = "\n".join(json.dumps(row) for row in rows).encode()
    assert hashlib.sha256(canonical).hexdigest() == (
        "ac8bfbf6bf1b11be53527fa1c6f4ff2608ef747543ec0c01bffbd12bbd78139b")


def test_scan_rows_equal_their_one_cell_answers():
    """Both error kinds (weight bound, root outside the double range) and
    answered cells: each row of a scan is the cell evaluated alone."""
    errors = set()
    for spec in (WIDE_GRID, LOW_T_GRID):
        table = scan_grid(spec)
        for p in table:
            assert p == evaluate_point(p.J, p.Jp, p.T)
            if p.error is not None:
                errors.add(p.error.split(" = ")[0].split("(")[0])
    assert errors == {"|beta*J|", "|beta*Jp|", "fixed point exp"}


def test_scan_weights_are_those_of_derive_weights_per_axis_pair(monkeypatch):
    """Each distinct (J, T) and (Jp, T) pair is exponentiated once, and every
    cell's weights and weight errors equal derive_weights on that cell."""
    calls = []
    original = ivtree.scanner.coupling_weight
    monkeypatch.setattr(ivtree.scanner, "coupling_weight",
                        lambda *args: calls.append(args) or original(*args))
    table = scan_grid(LOW_T_GRID)
    assert len(calls) == 11 * 11 + 11 * 11
    for p in table:
        try:
            w = derive_weights(couplings(p.J, p.Jp, p.T))
        except OverflowError as exc:
            assert p.error == str(exc)
            continue
        if p.error is None:
            assert (p.c, p.d) == (w.c, w.d)


def test_j_bound_message_wins_when_both_weights_overflow():
    p = evaluate_point(1000.0, -2000.0, 1.0)
    with pytest.raises(OverflowError) as excinfo:
        derive_weights(couplings(1000.0, -2000.0, 1.0))
    assert p.error == str(excinfo.value)
    assert p.error.startswith("|beta*J| = 1000 ")


def test_rejected_input_is_reported_like_couplings():
    for cell in ((1.0, 1.0, 0.0), (math.nan, 1.0, 1.0), (1000.0, math.inf, 1.0)):
        with pytest.raises(ValueError) as excinfo:
            couplings(*cell)
        assert evaluate_point(*cell).error == str(excinfo.value)


def test_table_is_a_sequence_of_phase_points():
    table = scan_grid(GridSpec(j=(0, 5000, 3), jp=(0, 0, 2), t=(0.001, 0.001, 1)))
    points = list(table)
    assert len(table) == len(points) == 6
    assert table[-1] == points[-1] and table[1:4] == points[1:4]
    assert [p.error is not None for p in table] == [False] * 2 + [True] * 4
    with pytest.raises(IndexError):
        table[6]


@pytest.mark.parametrize("check", [False, True])
def test_rows_of_a_three_axis_grid_are_their_cells_alone(check):
    """Each cell's coordinates and weights come from its index and the axis
    sizes.  On a grid whose T = 0 layer is dropped, every row, read by
    index (negative too), by slice or as CSV and JSONL text, is that of the
    cell evaluated alone."""
    spec = GridSpec(j=(-2.0, 2.0, 3), jp=(1.0, 5.0, 3), t=(-1.0, 1.0, 3))
    with pytest.warns(UserWarning, match="T = 0"):
        table = scan_grid(spec, check_consistency=check)
    cells = [(J, Jp, T) for J in (-2.0, 0.0, 2.0) for Jp in (1.0, 3.0, 5.0) for T in (-1.0, 1.0)]
    alone = [evaluate_point(*cell, check_consistency=check) for cell in cells]
    assert len(table) == len(alone) == 18
    assert list(table) == alone
    assert [table[i - len(table)] for i in range(len(table))] == alone
    for cut in (slice(None), slice(1, 13, 4), slice(None, None, -1), slice(-5, None),
                slice(-3, -12, -2)):
        assert table[cut] == alone[cut]
    csv_rows = emit_csv(table).splitlines()
    jsonl_rows = emit_jsonl(table).splitlines()
    for i, cell in enumerate(cells):
        one = scan_grid(singleton(*cell), check_consistency=check)
        assert csv_rows[i + 1] == emit_csv(one).splitlines()[1]
        assert jsonl_rows[i] == emit_jsonl(one).rstrip("\n")


def test_csv_residual_is_empty_exactly_on_error_rows():
    table = scan_grid(LOW_T_GRID, check_consistency=True)
    lines = emit_csv(table).splitlines()
    assert lines[0].endswith(",consistency_residual")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(table)
    assert all(len(row) == 12 for row in rows)
    assert {i for i, row in enumerate(rows) if row[11] == ""} == set(table.errors)
    assert len(table.errors) == 122
    assert max(float(row[11]) for row in rows if row[11] != "") <= 1e-9


def test_jsonl_residual_is_null_on_error_rows():
    table = scan_grid(LOW_T_GRID, check_consistency=True)
    recs = [json.loads(line) for line in emit_jsonl(table).splitlines()]
    errored = [rec for rec in recs if "error" in rec]
    assert len(errored) == 122
    assert all(rec["consistency_residual"] is None for rec in errored)
    assert all(rec["consistency_residual"] <= 1e-9 for rec in recs if "error" not in rec)


def test_residual_is_absent_without_the_check():
    table = scan_grid(LOW_T_GRID)
    lines = emit_csv(table).splitlines()
    assert "consistency_residual" not in lines[0]
    assert all(len(line.split(",")) == 11 for line in lines)
    recs = [json.loads(line) for line in emit_jsonl(table).splitlines()]
    assert not any("consistency_residual" in rec for rec in recs)


def test_error_heavy_scan_is_byte_identical_for_one_two_and_three_workers():
    texts = {workers: emit_jsonl(scan_grid(LOW_T_GRID, workers=workers, check_consistency=True))
             for workers in (1, 2, 3)}
    assert texts[1] == texts[2] == texts[3]
    assert texts[1].count('"error"') == 122


# 100 cuts both grids part-way: 441 = 4 * 100 + 41 and 1331 = 13 * 100 + 31
@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_output_does_not_depend_on_the_chunk_size(chunk, monkeypatch):
    """Cells are solved and their roots checked in chunks of _CHUNK_CELLS,
    and the text is emitted in blocks of _EMIT_ROWS rows; each chunk's and
    block's errors and residuals must land on its own cells, with the same
    bits, whatever the boundaries."""
    def outputs():
        return (emit_jsonl(scan_grid(LOW_T_GRID, check_consistency=True)),
                emit_csv(scan_grid(README_GRID)),
                emit_csv(scan_grid(LOW_T_GRID, check_consistency=True)))

    default = outputs()
    monkeypatch.setattr(ivtree.scanner, "_CHUNK_CELLS", chunk)
    monkeypatch.setattr(ivtree.scanner, "_EMIT_ROWS", chunk)
    assert outputs() == default
    assert default[0].count('"error"') == 122
    assert default[2].splitlines()[0].endswith(",consistency_residual")


def test_emission_formats_each_axis_value_and_weight_once(monkeypatch):
    """On a grid of four blocks, every J, Jp, T, c and d value is spelled
    once per table, not once per block; the roots and etas go through the
    row templates, whose bytes test_emitted_bytes_are_pinned pins."""
    table = scan_grid(FOUR_BLOCK_GRID)
    assert not table.errors and len(table) > 3 * ivtree.scanner._EMIT_ROWS
    seen = collections.Counter()
    spell = ivtree.scanner._spell

    def counted(x):
        seen[x] += 1
        return spell(x)

    monkeypatch.setattr(ivtree.scanner, "_spell", counted)
    text = emit_csv(table)
    monkeypatch.undo()
    assert text == emit_csv(table)
    expected = collections.Counter()
    for values in (table.j, table.jp, table.t, table.c, table.d):
        expected.update(values.tolist())
    assert seen == expected


# chunks of 1 and 7 cells start at cells other than 0: each chunk's errors
# must land on its own cells
@pytest.mark.parametrize("chunk", [ivtree.scanner._CHUNK_CELLS, 1, 7])
def test_a_non_finite_residual_makes_an_error_cell(chunk, monkeypatch):
    """A root whose residual is not finite (here every root above 1) turns
    its cell into an error cell: found cleared, residual NaN, a fixed
    message, null in JSONL and empty in CSV.  The other cells keep their
    answers."""
    monkeypatch.setattr(ivtree.scanner, "_CHUNK_CELLS", chunk)
    plain = scan_grid(README_GRID, check_consistency=True)
    original = ivtree._check.consistency_residuals
    monkeypatch.setattr(ivtree._check, "consistency_residuals",
                        lambda coef: np.where(coef[2] > 0.0, np.nan, original(coef)))
    table = scan_grid(README_GRID, check_consistency=True)
    hit = {i for i, p in enumerate(plain) if max(p.roots) > 1.0}
    assert 0 < len(hit) < len(table)
    assert set(table.errors) == hit
    recs = [json.loads(line) for line in emit_jsonl(table).splitlines()]
    rows = [line.split(",") for line in emit_csv(table).splitlines()[1:]]
    for i, p in enumerate(table):
        if i not in hit:
            assert p == plain[i]
            continue
        assert p.error == "consistency residual is not finite"
        assert p.root_count is None and not table.found[i].any()
        assert math.isnan(table.residual[i])
        assert recs[i]["consistency_residual"] is None and recs[i]["error"] == p.error
        assert rows[i][3:] == [""] * 9


# ------------------------------------------------------------------ outputs


def test_csv_header_is_pinned():
    header = emit_csv(scan_grid(singleton(*THREE_ROOT_POINT))).splitlines()[0]
    assert header == "J,Jp,T,c,d,root_count,roots,stabilities,eta1,eta2,phase_transition"
    assert CSV_HEADER == ["J", "Jp", "T", "c", "d", "root_count", "roots",
                          "stabilities", "eta1", "eta2", "phase_transition"]


def test_csv_single_point_layout():
    text = emit_csv(scan_grid(singleton(*THREE_ROOT_POINT)))
    lines = text.splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "-1.7" and fields[1] == "6.5" and fields[2] == "13"
    assert fields[3] == "0.769866264614"  # 12 significant digits
    assert fields[5] == "3"
    assert fields[6] == "0.0710989843873;2.85304542629;7.93107324502"
    assert fields[7] == "stable;unstable;stable"
    assert fields[10] == "true"


def test_csv_error_cell_leaves_fields_empty():
    text = emit_csv(scan_grid(singleton(5000.0, 0.0, 0.001)))
    fields = text.splitlines()[1].split(",")
    assert fields[0] == "5000"
    assert fields[3] == "" and fields[5] == "" and fields[10] == ""


def test_csv_consistency_column_is_appended():
    text = emit_csv(scan_grid(singleton(*THREE_ROOT_POINT), check_consistency=True))
    header = text.splitlines()[0]
    assert header.endswith(",consistency_residual")
    assert len(text.splitlines()[1].split(",")) == 12


def test_jsonl_round_trip():
    pts = scan_grid(GridSpec(j=(0, 0, 1), jp=(0, 0, 1), t=(1, 2, 2)))
    lines = emit_jsonl(pts).splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["root_count"] == 1
    assert rec["regime"] == "unique"
    assert "error" not in rec


def test_jsonl_quotes_its_words_as_json_does():
    """The emitter quotes the stability labels and the regimes itself,
    without json: each is a word that json.dumps writes as it is."""
    words = set(STABILITY_LABELS) | {regime(d) for d in (1.0, 2.0, 3.0)}
    assert words == {"stable", "marginal", "unstable", "unique", "multi-capable"}
    for word in words:
        assert '"%s"' % word == json.dumps(word)


def test_jsonl_carries_cell_errors():
    rec = json.loads(emit_jsonl(scan_grid(singleton(5000.0, 0.0, 0.001))))
    assert rec["root_count"] is None
    assert "exceeds" in rec["error"]


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("spec", [
    WIDE_GRID, LOW_T_GRID,
    GridSpec(j=(-800, 800, 33), jp=(-800, 800, 33), t=(0.5, 4, 5)),
])
def test_jsonl_is_strict_on_every_error_kind(spec, check):
    """Every line is strict JSON (no NaN or Infinity token) on grids whose
    error rows carry both weight-bound messages and roots outside the
    double range, and whose other rows include saturated etas."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    table = scan_grid(spec, check_consistency=check)
    lines = emit_jsonl(table).splitlines()
    assert len(lines) == len(table)
    for line in lines:
        json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("spec", [
    README_GRID, WIDE_GRID, LOW_T_GRID,
    GridSpec(j=(-800, 800, 33), jp=(-800, 800, 33), t=(0.5, 4, 5)),
    GridSpec(j=(5e-324, 1e-300, 5), jp=(-0.0, 0.0, 2), t=(1e-310, 1e308, 4)),
], ids=["readme", "wide", "low-T", "800", "extreme-axes"])
def test_jsonl_lines_are_what_json_dumps_writes(spec, check):
    """Every line, read back and written again by json.dumps, keeps its
    bytes: the emitter spells each float as json.dumps does (repr), on
    axes that reach the subnormals, -0.0 and 1e308 too."""
    for line in emit_jsonl(scan_grid(spec, check_consistency=check)).splitlines():
        assert line == json.dumps(json.loads(line))


@pytest.mark.parametrize("column", ["roots", "residual"])
def test_jsonl_refuses_a_non_finite_root_or_residual(column):
    """A root or residual that is printed must be finite: JSONL raises
    json.dumps's error, where CSV prints inf."""
    table = scan_grid(README_GRID, check_consistency=True)
    cell = int(table.found[:, 2].nonzero()[0][-1])
    if column == "roots":
        table.roots[cell, 2] = math.inf
    else:
        table.residual[cell] = math.inf
    with pytest.raises(ValueError, match=r"^Out of range float values are not JSON "
                                         r"compliant: inf$"):
        emit_jsonl(table)
    assert emit_csv(table).splitlines()[1 + cell].count("inf") == 1


# -------------------------------------------------------------------- curve


def test_curve_constant_map():
    rows = emit_curve(couplings(0.0, 0.0, 1.0), samples=50)
    assert len(rows) == 50
    assert all(r[1] == 1.0 for r in rows)
    flagged = [r for r in rows if r[3]]
    assert len(flagged) == 1 and flagged[0][0] == 1.0


def test_curve_two_samples_is_two_rows():
    rows = emit_curve(couplings(0.0, 0.0, 1.0), samples=2)
    assert len(rows) == 2


def test_curve_marks_every_root_exactly():
    params = couplings(*THREE_ROOT_POINT)
    rows = emit_curve(params)
    assert len(rows) == 400
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    flagged = [r[0] for r in rows if r[3]]
    assert_close(flagged, THREE_ROOT_EXPECTED["roots"], 1e-9, "marked roots")
    # sign pattern of g(x) - x along the curve: +, -, +, - means 3 crossings
    signs = [math.copysign(1.0, r[2]) for r in rows
             if abs(r[2]) > 1e-12 * max(1.0, r[0])]
    changes = sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)
    assert changes == 3


def test_curve_respects_the_requested_range():
    rows = emit_curve(couplings(*THREE_ROOT_POINT), x_range=(1.0, 10.0), samples=100)
    assert len(rows) == 100
    assert rows[0][0] == 1.0 and rows[-1][0] == 10.0
    flagged = [r[0] for r in rows if r[3]]
    assert len(flagged) == 2  # the smallest root 0.071 lies outside


def test_curve_validation():
    params = couplings(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        emit_curve(params, samples=1)
    with pytest.raises(ValueError):
        emit_curve(params, x_range=(-1.0, 10.0))
    with pytest.raises(ValueError, match="x_range"):
        emit_curve(couplings(-1.7, 6.5, 13), x_range=(1e-4, math.inf), samples=5)


def test_curve_evaluates_g_once_per_sample(monkeypatch):
    """One scalar_map_g call per row, and the bytes of the curve that
    evaluated g twice per row (sha256 of the reference cell's 400 rows)."""
    calls = []

    def counted(x, w):
        calls.append(x)
        return scalar_map_g(x, w)

    params = couplings(*THREE_ROOT_POINT)
    monkeypatch.setattr(ivtree.recurrence, "scalar_map_g", counted)
    text = emit_curve_csv(params)
    assert len(calls) == 400
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "20001959959dfbfec577c5c9561189de3b0702865774b451f401d33ae968ec6a")


def test_curve_csv_layout():
    text = emit_curve_csv(couplings(0.0, 0.0, 1.0), samples=3)
    lines = text.splitlines()
    assert lines[0] == "x,g,g_minus_x,is_fixed_point"
    assert len(lines) == 4
    assert lines[1].endswith("false") or lines[1].endswith("true")
