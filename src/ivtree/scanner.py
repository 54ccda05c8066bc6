"""Parameter-grid scans: classify each (J, Jp, T) cell and emit CSV/JSONL.

A cell is classified by its positive fixed points: more than one fixed point
means more than one translation-invariant measure, i.e. a phase transition.
The rules of that classification live in fixpoint (root_errors,
stability_codes, regime).  GridSpec makes every check of a grid when it is
built, so scan_grid has no input error to raise.  scan_grid is the one
route from couplings to a ScanTable, and it works on arrays from the axes to
the output bytes.  The weight c depends only on (J, T) and d only on
(Jp, T), so each is computed once per distinct pair.  The cells are cut
into chunks, each solved in this process by one call of the array solver,
and the answers land in one ScanTable in deterministic J-major order.  Every
cell's answer is independent of the chunk it lands in, so output bytes never
depend on the chunk size.  evaluate_point is a one-cell scan.  The emitters
build the output column by column and format each distinct axis value and
weight once.

With the consistency check, every found root's field is checked by
consistency_residuals in blocks of _CHECK_ROOTS roots, and a cell's residual
is the largest over its roots.  A root's residual has the same bits in any
block, so the check keeps the rule that output bytes never depend on how
the work is cut.  The oracle module is imported only by a scan that checks,
and the recurrence module (the scalar map g) only by emit_curve.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .fixpoint import (STABILITY_LABELS, find_positive_fixed_points, regime, root_errors,
                       solve_fixed_points, stability_codes)
from .model import (CheckedRecord, CouplingParameters, couplings, coupling_weight,
                    derive_weights, scalar_field_h)

# cells per solver call: keeps the solver's arrays (a few dozen doubles per
# cell) in the low megabytes however large the grid
_CHUNK_CELLS = 4096

# roots per consistency_residuals call: its (roots, 560) work arrays stay
# near 300 KB (blocks of 256 raised the peak RSS of a 21x21 CLI scan from
# 33.4 to 35.3 MB)
_CHECK_ROOTS = 64

CSV_HEADER = ["J", "Jp", "T", "c", "d", "root_count", "roots", "stabilities",
              "eta1", "eta2", "phase_transition"]

# output fields that hold a list
_LISTS = ("roots", "stabilities")


class _GridSpecFields(NamedTuple):
    j: tuple[float, float, int]
    jp: tuple[float, float, int]
    t: tuple[float, float, int]


class GridSpec(CheckedRecord, _GridSpecFields):
    """Inclusive (min, max, steps) ranges for J, Jp, T; steps = 1 pins a value."""

    __slots__ = ()

    def __new__(cls, j: tuple[float, float, int], jp: tuple[float, float, int],
                t: tuple[float, float, int]):
        for name, (lo, hi, steps) in (("J", j), ("Jp", jp), ("T", t)):
            try:
                operator.index(steps)
            except TypeError:
                raise ValueError(f"{name}: steps must be an integer") from None
            if steps < 1:
                raise ValueError(f"{name}: steps must be >= 1")
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"{name}: need finite min <= max")
            if steps == 1 and lo != hi:
                raise ValueError(f"{name}: steps = 1 requires min = max")
            if not math.isfinite(hi - lo):
                raise ValueError(f"{name}: max - min overflows")
        # linspace keeps both ends, so T has no nonzero cell exactly when both are 0
        if t[0] == t[1] == 0:
            raise ValueError("T: no nonzero temperature cells remain")
        return super().__new__(cls, j, jp, t)

    @staticmethod
    def _axis(rng: tuple[float, float, int]) -> np.ndarray:
        lo, hi, steps = rng
        if steps == 1:
            return np.array([float(lo)])
        return np.linspace(lo, hi, steps)

    def j_values(self) -> np.ndarray:
        return self._axis(self.j)

    def jp_values(self) -> np.ndarray:
        return self._axis(self.jp)

    def t_values(self) -> np.ndarray:
        """Temperature cells with any exact zero dropped (warned about); at
        least one remains."""
        vals = self._axis(self.t)
        if np.count_nonzero(vals) < vals.size:
            warnings.warn("dropping grid cell(s) at T = 0", stacklevel=2)
            vals = vals[vals != 0.0]
        return vals

    def is_singleton(self) -> bool:
        return self.j[2] == self.jp[2] == self.t[2] == 1


class PhasePoint(NamedTuple):
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


class ScanTable(Sequence):
    """Classified cells as arrays; as a Sequence, one PhasePoint per cell.

    Cell i has J = j[cell_j[i]], Jp = jp[cell_jp[i]], T = t[cell_t[i]] and
    the weights c[cell_c[i]], d[cell_d[i]], so every distinct value is
    stored and formatted once.  found, roots and stability hold the three
    root slots of solve_fixed_points (stability as an index into
    STABILITY_LABELS); found is False throughout an error cell.  eta is NaN
    where the cell has none (d < 2).  residual is None when the consistency
    check did not run, and NaN at every error cell when it did; the
    emitters write its column exactly when it is not None.  errors maps a
    cell to its error text.  scan_grid is the only maker of a table.
    Tables compare by identity.
    """

    __slots__ = ("j", "jp", "t", "c", "d", "cell_j", "cell_jp", "cell_t", "cell_c",
                 "cell_d", "found", "roots", "stability", "eta", "residual", "errors")

    def __init__(self, *, j: np.ndarray, jp: np.ndarray, t: np.ndarray, c: np.ndarray,
                 d: np.ndarray, cell_j: np.ndarray, cell_jp: np.ndarray,
                 cell_t: np.ndarray, cell_c: np.ndarray, cell_d: np.ndarray,
                 found: np.ndarray, roots: np.ndarray, stability: np.ndarray,
                 eta: np.ndarray, residual: np.ndarray | None, errors: dict[int, str]):
        self.j, self.jp, self.t, self.c, self.d = j, jp, t, c, d
        self.cell_j, self.cell_jp, self.cell_t = cell_j, cell_jp, cell_t
        self.cell_c, self.cell_d = cell_c, cell_d
        self.found, self.roots, self.stability, self.eta = found, roots, stability, eta
        self.residual, self.errors = residual, errors

    def __len__(self) -> int:
        return self.cell_j.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("ScanTable index out of range")
        J = self.j.item(self.cell_j.item(i))
        Jp = self.jp.item(self.cell_jp.item(i))
        T = self.t.item(self.cell_t.item(i))
        error = self.errors.get(i)
        if error is not None:
            return PhasePoint(J=J, Jp=Jp, T=T, error=error)
        slots = [k for k, f in enumerate(self.found[i].tolist()) if f]
        roots, codes = self.roots[i].tolist(), self.stability[i].tolist()
        roots = tuple([roots[k] for k in slots])
        d = self.d.item(self.cell_d.item(i))
        eta1, eta2 = [None if math.isnan(e) else e for e in self.eta[i].tolist()]
        return PhasePoint(
            J=J, Jp=Jp, T=T, c=self.c.item(self.cell_c.item(i)), d=d,
            root_count=len(roots), roots=roots,
            stabilities=tuple([STABILITY_LABELS[codes[k]] for k in slots]),
            eta1=eta1, eta2=eta2,
            regime=regime(d),
            phase_transition=len(roots) >= 2,
            consistency_residual=None if self.residual is None else self.residual.item(i),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _pair_weights(name: str, values: list[float], betas: list[float]):
    """Weight of each (coupling, beta) pair, coupling-major: c for name "J",
    d for "Jp".

    Forms beta * coupling and goes through coupling_weight() as
    derive_weights does, so the bits are the same.  A pair whose weight does
    not fit in a double gets NaN; the second result maps its position to the
    error text.
    """
    weights, rejected = [], {}
    for k, (value, beta) in enumerate(itertools.product(values, betas)):
        try:
            a = coupling_weight(name, beta * value)
        except OverflowError as exc:
            rejected[k] = str(exc)
            a = math.nan
        weights.append(a * a)
    return np.array(weights), rejected


def evaluate_point(J: float, Jp: float, T: float,
                   check_consistency: bool = False) -> PhasePoint:
    """Classify one cell: the only row of its one-cell scan_grid, or the
    error of couplings() for input that no grid holds (T = 0, non-finite)."""
    try:
        p = couplings(J, Jp, T)
    except ValueError as exc:
        return PhasePoint(J=float(J), Jp=float(Jp), T=float(T), error=str(exc))
    spec = GridSpec((p.J, p.J, 1), (p.Jp, p.Jp, 1), (p.T, p.T, 1))
    return scan_grid(spec, check_consistency=check_consistency)[0]


def scan_grid(spec: GridSpec, workers: int = 1,
              check_consistency: bool = False) -> ScanTable:
    """One PhasePoint per grid cell in J-major, then Jp, then T order.

    Per-cell failures land in the cell's error field and never abort the scan.
    workers is accepted for compatibility and ignored: every scan runs in
    this process, because a process pool cost more than it saved.
    """
    j, jp, t = spec.j_values(), spec.jp_values(), spec.t_values()
    # beta = 1/T once per temperature, as CouplingParameters forms it
    betas = [1.0 / T for T in t.tolist()]
    c, c_rejected = _pair_weights("J", j.tolist(), betas)
    d, d_rejected = _pair_weights("Jp", jp.tolist(), betas)
    cell_j, cell_jp, cell_t = np.unravel_index(np.arange(j.size * jp.size * t.size),
                                               (j.size, jp.size, t.size))
    # cell_c indexes the (J, T) pairs, cell_d the (Jp, T) pairs
    cell_c = cell_j * t.size + cell_t
    cell_d = cell_jp * t.size + cell_t
    cc, dd = c[cell_c], d[cell_d]
    errors = {}
    if c_rejected or d_rejected:
        # a cell with a NaN weight carries J's message where both weights
        # fail, and solves the placeholder c = d = 1, which is never reported
        bad = (np.isnan(cc) | np.isnan(dd)).nonzero()[0]
        errors = {i: c_rejected.get(a) or d_rejected[b] for i, a, b in
                  zip(bad.tolist(), cell_c[bad].tolist(), cell_d[bad].tolist())}
        cc[bad] = dd[bad] = 1.0

    n = cell_c.size
    found, log_roots, roots = np.empty((n, 3), dtype=bool), np.empty((n, 3)), np.empty((n, 3))
    stability, eta = np.empty((n, 3), dtype=np.intp), np.empty((n, 2))
    for s in range(0, n, _CHUNK_CELLS):
        e = s + _CHUNK_CELLS
        batch = solve_fixed_points(cc[s:e], dd[s:e])
        found[s:e], log_roots[s:e], roots[s:e] = batch.found, batch.log_roots, batch.roots
        stability[s:e], eta[s:e] = stability_codes(batch.slopes), batch.eta
    errors.update((i, str(e)) for i, e in root_errors(found, log_roots, roots).items())
    if errors:
        found[list(errors)] = False

    residual = None
    if check_consistency:
        from . import oracle
        # found roots in cell order, each with the coefficients of its field;
        # beta and beta * J as CouplingParameters and
        # kolmogorov_consistency_check form them
        cells = found.nonzero()[0]
        beta = 1.0 / t[cell_t[cells]]
        coef = np.empty((10, cells.size))
        coef[0], coef[1] = beta * j[cell_j[cells]], beta * jp[cell_jp[cells]]
        # math.log, not np.log: the bits of field_from_scalar
        coef[2:] = scalar_field_h(np.array([math.log(r) for r in roots[found].tolist()]))
        per_root = np.empty(cells.size)
        for s in range(0, cells.size, _CHECK_ROOTS):
            e = s + _CHECK_ROOTS
            per_root[s:e] = oracle.consistency_residuals(coef[:, s:e])
        per_slot = np.full(found.shape, -np.inf)
        per_slot[found] = per_root
        answered = found.any(axis=1)
        residual = np.where(answered, per_slot.max(axis=1), np.nan)
        bad = (answered & ~np.isfinite(residual)).nonzero()[0].tolist()
        if bad:
            errors.update(dict.fromkeys(bad, "consistency residual is not finite"))
            found[bad] = False
            residual[bad] = np.nan
    return ScanTable(j=j, jp=jp, t=t, c=c, d=d, cell_j=cell_j, cell_jp=cell_jp,
                     cell_t=cell_t, cell_c=cell_c, cell_d=cell_d, found=found,
                     roots=roots, stability=stability, eta=eta, residual=residual,
                     errors=errors)


# ------------------------------------------------------------------ outputs


def _spell(x: float) -> str:
    """A float at 12 significant digits, as CSV prints it."""
    return format(x, ".12g")


def _json_float(x: float) -> str:
    """A float as json.dumps(x, allow_nan=False) writes it."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(x)


def _json_eta(x: float) -> str:
    """An eta outside the double range has no strict JSON spelling: null."""
    return repr(x) if math.isfinite(x) else "null"


def _texts(values, spell, blank: str | None = None) -> np.ndarray:
    """spell(v) for each value as an object array; NaN gives blank if set."""
    return np.array([blank if blank is not None and math.isnan(v) else spell(v)
                     for v in values.tolist()], dtype=object)


def _fields(table: ScanTable, spell, eta_spell, blank: str, sep: str,
            word) -> dict[str, np.ndarray]:
    """Per-cell text of every output field, by name, in JSONL key order.

    spell formats a float, eta_spell an eta, blank is a missing value, sep
    joins list entries and word quotes a label.  roots and stabilities hold
    the joined entries only, without brackets.  consistency_residual is a
    field exactly when the scan ran the check.
    """
    n = len(table)
    errors = np.fromiter(table.errors, dtype=np.intp, count=len(table.errors))
    found = table.found
    count = found.sum(axis=1)

    roots = np.full(found.shape, "", dtype=object)
    roots[found] = [spell(x) for x in table.roots[found].tolist()]
    # a separator after slot 0 when a later slot is set, after slot 1 before slot 2
    cut01 = np.where(found[:, 0] & (found[:, 1] | found[:, 2]), sep, "").astype(object)
    cut12 = np.where(found[:, 1] & found[:, 2], sep, "").astype(object)

    # each slot contributes 0 (empty) or 1 + its stability code, in base 4
    lists = [sep.join(word(STABILITY_LABELS[(key >> 2 * k & 3) - 1])
                      for k in range(3) if key >> 2 * k & 3) for key in range(64)]
    keys = (found * (table.stability + 1)) @ np.array([1, 4, 16])

    eta = np.full((n, 2), blank, dtype=object)
    has_eta = ~np.isnan(table.eta)
    eta[has_eta] = [eta_spell(x) for x in table.eta[has_eta].tolist()]

    fields = {
        "J": _texts(table.j, spell)[table.cell_j],
        "Jp": _texts(table.jp, spell)[table.cell_jp],
        "T": _texts(table.t, spell)[table.cell_t],
        "c": _texts(table.c, spell, blank)[table.cell_c],
        "d": _texts(table.d, spell, blank)[table.cell_d],
        "root_count": np.array(["0", "1", "2", "3"], dtype=object)[count],
        "roots": roots[:, 0] + cut01 + roots[:, 1] + cut12 + roots[:, 2],
        "stabilities": np.array(lists, dtype=object)[keys],
        "eta1": eta[:, 0],
        "eta2": eta[:, 1],
        "regime": _texts(table.d, lambda d: word(regime(d)))[table.cell_d],
        "phase_transition": np.where(count >= 2, "true", "false").astype(object),
    }
    if table.residual is not None:
        fields["consistency_residual"] = _texts(table.residual, spell, blank)
    # an error cell keeps its coordinates only; its lists stay empty
    for name, column in fields.items():
        if name not in ("J", "Jp", "T"):
            column[errors] = "" if name in _LISTS else blank
    return fields


def emit_csv(table: ScanTable) -> str:
    """CSV of a scan, one row per cell; lists are semicolon-joined inside one
    field, and a consistency_residual column follows when the scan ran the
    check."""
    fields = _fields(table, _spell, _spell, "", ";", str)
    header = CSV_HEADER + (["consistency_residual"] if table.residual is not None else [])
    rows = map(",".join, zip(*(fields[name].tolist() for name in header)))
    return "\n".join(itertools.chain([",".join(header)], rows)) + "\n"


def emit_jsonl(table: ScanTable) -> str:
    """One strict-JSON object per cell of a scan; carries the regime label,
    any cell error, and consistency_residual when the scan ran the check.
    An eta that saturated outside the double range is null."""
    import json

    fields = _fields(table, _json_float, _json_eta, "null", ", ", json.dumps)
    error = np.full(len(table), "", dtype=object)
    error[list(table.errors)] = [f', "error": {json.dumps(e)}' for e in table.errors.values()]
    template = "{%s%%s}" % ", ".join(
        f'"{name}": [%s]' if name in _LISTS else f'"{name}": %s' for name in fields)
    lines = map(template.__mod__, zip(*(f.tolist() for f in fields.values()), error.tolist()))
    return "\n".join(lines) + "\n"


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
    if not 0 < lo < hi < math.inf:
        raise ValueError("x_range must satisfy 0 < lo < hi < inf")
    from .recurrence import scalar_map_g

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
    rows = []
    for x, m in zip(xs.tolist(), marked.tolist()):
        g = scalar_map_g(x, w)
        rows.append((x, g, g - x, m))
    rows.sort(key=lambda row: row[0])
    return rows


def emit_curve_csv(params: CouplingParameters, x_range: tuple[float, float] = (1e-4, 1e4),
                   samples: int = 400) -> str:
    rows = [",".join((_spell(x), _spell(g), _spell(gap), "true" if marker else "false"))
            for x, g, gap, marker in emit_curve(params, x_range, samples)]
    return "\n".join(["x,g,g_minus_x,is_fixed_point"] + rows) + "\n"
