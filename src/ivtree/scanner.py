"""Parameter-grid scans: classify each (J, Jp, T) cell and emit CSV/JSONL.

A cell is classified by its positive fixed points: more than one fixed point
means more than one translation-invariant measure, i.e. a phase transition.
The grid is cut into chunks of cells, each solved by one call of the array
solver (optionally in a process pool), and merged back in deterministic
J-major order.  Every cell's answer is independent of the chunk it lands in,
so output bytes never depend on the worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fixpoint import find_positive_fixed_points, solve_fixed_points
from .model import CouplingParameters, couplings, derive_weights, field_from_scalar
from .oracle import kolmogorov_consistency_check
from .recurrence import scalar_map_g

# cells per solver call: keeps the solver's arrays (a few dozen doubles per
# cell) in the low megabytes however large the grid
_CHUNK_CELLS = 4096

CSV_HEADER = ["J", "Jp", "T", "c", "d", "root_count", "roots", "stabilities",
              "eta1", "eta2", "phase_transition"]


@dataclass(frozen=True)
class GridSpec:
    """Inclusive (min, max, steps) ranges for J, Jp, T; steps = 1 pins a value."""

    j: tuple[float, float, int]
    jp: tuple[float, float, int]
    t: tuple[float, float, int]

    def __post_init__(self):
        for name, (lo, hi, steps) in (("J", self.j), ("Jp", self.jp), ("T", self.t)):
            if steps < 1:
                raise ValueError(f"{name}: steps must be >= 1")
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"{name}: need finite min <= max")
            if steps == 1 and lo != hi:
                raise ValueError(f"{name}: steps = 1 requires min = max")

    @staticmethod
    def _axis(rng: tuple[float, float, int]) -> np.ndarray:
        lo, hi, steps = rng
        return np.linspace(lo, hi, steps)

    def j_values(self) -> np.ndarray:
        return self._axis(self.j)

    def jp_values(self) -> np.ndarray:
        return self._axis(self.jp)

    def t_values(self) -> np.ndarray:
        """Temperature cells with any exact zero dropped (warned about)."""
        vals = self._axis(self.t)
        if np.any(vals == 0.0):
            warnings.warn("dropping grid cell(s) at T = 0", stacklevel=2)
            vals = vals[vals != 0.0]
        if vals.size == 0:
            raise ValueError("T: no nonzero temperature cells remain")
        return vals

    def is_singleton(self) -> bool:
        return self.j[2] == self.jp[2] == self.t[2] == 1


@dataclass(frozen=True)
class PhasePoint:
    """Classification of one grid cell; error is set when evaluation failed."""

    J: float
    Jp: float
    T: float
    c: float | None = None
    d: float | None = None
    root_count: int | None = None
    roots: tuple[float, ...] = ()
    stabilities: tuple[str, ...] = ()
    eta1: float | None = None
    eta2: float | None = None
    regime: str | None = None
    phase_transition: bool | None = None
    consistency_residual: float | None = None
    error: str | None = None


def evaluate_point(J: float, Jp: float, T: float,
                   check_consistency: bool = False) -> PhasePoint:
    """Classify one cell; the same computation as its cell in any scan."""
    return _evaluate_cells([(J, Jp, T)], check_consistency)[0]


def _evaluate_cells(cells, check_consistency: bool = False) -> list[PhasePoint]:
    """Classify (J, Jp, T) cells with one solver call; failures land in error."""
    points: list[PhasePoint | None] = [None] * len(cells)
    solved = []
    for i, (J, Jp, T) in enumerate(cells):
        try:
            params = couplings(J, Jp, T)
            solved.append((i, params, derive_weights(params)))
        except (ValueError, ArithmeticError) as exc:
            points[i] = PhasePoint(J=J, Jp=Jp, T=T, error=str(exc))
    batch = solve_fixed_points([w.c for _, _, w in solved], [w.d for _, _, w in solved])
    for k, (i, params, w) in enumerate(solved):
        J, Jp, T = cells[i]
        try:
            report = batch.report(k)
            thresholds = batch.thresholds(k)
            residual = None
            if check_consistency:
                residual = max(
                    kolmogorov_consistency_check(params, field_from_scalar(r))
                    for r in report.roots
                )
            points[i] = PhasePoint(
                J=J, Jp=Jp, T=T, c=w.c, d=w.d,
                root_count=report.count, roots=report.roots,
                stabilities=report.stability,
                eta1=thresholds.eta1, eta2=thresholds.eta2,
                regime=thresholds.regime,
                phase_transition=report.count >= 2,
                consistency_residual=residual,
            )
        except (ValueError, ArithmeticError) as exc:
            points[i] = PhasePoint(J=J, Jp=Jp, T=T, error=str(exc))
    return points


def scan_grid(spec: GridSpec, workers: int = 1,
              check_consistency: bool = False) -> list[PhasePoint]:
    """One PhasePoint per grid cell in J-major, then Jp, then T order.

    Per-cell failures land in the cell's error field and never abort the scan.
    Results are identical for any worker count.
    """
    j_values, jp_values, t_values = spec.j_values(), spec.jp_values(), spec.t_values()
    cells = [(float(J), float(Jp), float(T))
             for J in j_values for Jp in jp_values for T in t_values]
    size = min(_CHUNK_CELLS, -(-len(cells) // max(1, workers)))
    chunks = [cells[i:i + size] for i in range(0, len(cells), size)]
    evaluate = partial(_evaluate_cells, check_consistency=check_consistency)
    if workers <= 1:
        results = map(evaluate, chunks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, chunks))
    return [p for chunk in results for p in chunk]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def emit_csv(points, include_consistency: bool = False) -> str:
    """CSV table of phase points; lists are semicolon-joined inside one field."""
    buf = io.StringIO()
    header = CSV_HEADER + (["consistency_residual"] if include_consistency else [])
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for p in points:
        row = [
            _fmt(p.J), _fmt(p.Jp), _fmt(p.T), _fmt(p.c), _fmt(p.d),
            _fmt(p.root_count),
            ";".join(_fmt(r) for r in p.roots),
            ";".join(p.stabilities),
            _fmt(p.eta1), _fmt(p.eta2), _fmt(p.phase_transition),
        ]
        if include_consistency:
            row.append(_fmt(p.consistency_residual))
        writer.writerow(row)
    return buf.getvalue()


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def emit_jsonl(points, include_consistency: bool = False) -> str:
    """One strict-JSON object per point; carries the regime label and any
    cell error.  An eta that saturated outside the double range is null."""
    lines = []
    for p in points:
        obj = {
            "J": p.J, "Jp": p.Jp, "T": p.T, "c": p.c, "d": p.d,
            "root_count": p.root_count, "roots": list(p.roots),
            "stabilities": list(p.stabilities),
            "eta1": _finite_or_none(p.eta1), "eta2": _finite_or_none(p.eta2),
            "regime": p.regime,
            "phase_transition": p.phase_transition,
        }
        if include_consistency:
            obj["consistency_residual"] = p.consistency_residual
        if p.error is not None:
            obj["error"] = p.error
        lines.append(json.dumps(obj, allow_nan=False))
    return "\n".join(lines) + ("\n" if lines else "")


def emit_curve(params: CouplingParameters, x_range: tuple[float, float] = (1e-4, 1e4),
               samples: int = 400) -> list[tuple[float, float, float, bool]]:
    """Exactly `samples` rows of (x, g(x), g(x)-x, is_fixed_point).

    The x column is log-uniform over x_range, except that for each fixed
    point inside the range the nearest unused sample is snapped to the exact
    root and flagged, so the table always has `samples` rows and still marks
    every root it covers.  Roots outside x_range are not marked.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    lo, hi = x_range
    if not (0 < lo < hi):
        raise ValueError("x_range must satisfy 0 < lo < hi")
    w = derive_weights(params)
    log_xs = np.linspace(math.log(lo), math.log(hi), samples)
    xs = np.exp(log_xs)
    xs[0], xs[-1] = lo, hi
    marked = np.zeros(samples, dtype=bool)
    for r in find_positive_fixed_points(w).roots:
        if not (lo <= r <= hi):
            continue
        order = np.argsort(np.abs(log_xs - math.log(r)))
        slot = next((k for k in order if not marked[k]), None)
        if slot is not None:
            xs[slot] = r
            marked[slot] = True
    rows = [(float(x), scalar_map_g(float(x), w), scalar_map_g(float(x), w) - float(x), bool(m))
            for x, m in zip(xs, marked)]
    rows.sort(key=lambda row: row[0])
    return rows


def emit_curve_csv(params: CouplingParameters, x_range: tuple[float, float] = (1e-4, 1e4),
                   samples: int = 400) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "g", "g_minus_x", "is_fixed_point"])
    for x, g, gap, marker in emit_curve(params, x_range, samples):
        writer.writerow([_fmt(x), _fmt(g), _fmt(gap), _fmt(marker)])
    return buf.getvalue()
