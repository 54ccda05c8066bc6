"""Parameter-grid scans: classify each (J, Jp, T) cell and emit CSV/JSONL.

A cell is classified by its positive fixed points: more than one fixed point
means more than one translation-invariant measure, i.e. a phase transition.
The rules of that classification live in the solver kernel _solver
(root_errors, stability_codes, regime).  GridSpec makes every check of a
grid when it is built, so scan_grid has no input error to raise.  scan_grid
is the one route from couplings to a ScanTable, and it works on arrays from
the axes to the output bytes.  The weight c depends only on (J, T) and d only on
(Jp, T), so each is computed once per distinct pair, and a cell's weights
are those tables repeated over the third axis.  The cells are cut into
chunks, and _scan_chunk does all of a chunk's work (solve, error cells,
check), so no scratch array spans the grid.  The answers land in one
ScanTable in deterministic J-major order; a grid of one chunk keeps the
chunk's arrays as the table's.  Every cell's answer is independent of the
chunk it lands in, so output bytes never depend on the chunk size.  The table
stores no per-cell index: a cell's axis and weight indices follow from its
own index and the axis sizes (_cell_indices).  evaluate_point is a one-cell
scan.  The emitters work block by block (_emit_blocks).  Each distinct axis
value and weight is spelled once per table.  Every other choice in a row's
text (its found slots and their stabilities, which etas and residual it
prints, its regime, whether it is an error row) is a small integer key, and
each key gets one %-template per table.  A block of _EMIT_ROWS rows joins its
rows' templates and fills them with one % over its values, so no more than
one block of text is held at a time.  emit_csv and emit_jsonl join the blocks
into one string; the command line writes them to its output one by one.

With the consistency check, the fields of a chunk's found roots are
checked by consistency_residuals in slices of at most _CHUNK_CELLS roots,
and a cell's residual is the largest over its roots.  A root's residual has
the same bits in any call, so the check keeps the rule that output bytes
never depend on how the work is cut.  At import this module loads only the
solver kernel; the check's kernel _check is imported only by a scan that
checks, and model only by evaluate_point, so a grid scan compiles neither,
nor fixpoint, recurrence or the oracle.  The curve of g lives in fixpoint
(emit_curve).
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from ._solver import (STABILITY_LABELS, CheckedRecord, _solve, coupling_weight, regime,
                      root_errors, scalar_field_h, stability_codes)

# cells per solver call and roots per consistency_residuals call: the work
# arrays (a few dozen doubles per cell, about 140 per root checked) stay
# within about 10 MB however large the grid
_CHUNK_CELLS = 4096

# rows per block of emitted text: a block's strings (about 0.3 MB) stay
# below the scan's own arrays, so emission never sets a run's peak memory
_EMIT_ROWS = 512

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
        """Temperature cells with any exact zero dropped; at least one
        remains.  scan_grid warns when it drops one."""
        vals = self._axis(self.t)
        return vals if np.count_nonzero(vals) == vals.size else vals[vals != 0.0]

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

    The cells run over the axes j, jp, t in J-major, then Jp, then T order,
    so cell i = (a * jp.size + b) * t.size + k has J = j[a], Jp = jp[b],
    T = t[k] and the weights c[a * t.size + k], d[b * t.size + k]
    (_cell_indices): every distinct value is stored and formatted once, and
    no per-cell index is stored.  found, roots and stability hold the three
    root slots of solve_fixed_points (stability as an index into
    STABILITY_LABELS); found is False throughout an error cell.  eta is NaN
    where the cell has none (d < 2).  residual is None when the consistency
    check did not run, and NaN at every error cell when it did; the
    emitters write its column exactly when it is not None.  errors maps a
    cell to its error text.  scan_grid is the only maker of a table.
    Tables compare by identity.
    """

    __slots__ = ("j", "jp", "t", "c", "d", "found", "roots", "stability", "eta", "residual",
                 "errors")

    def __init__(self, *, j: np.ndarray, jp: np.ndarray, t: np.ndarray, c: np.ndarray,
                 d: np.ndarray, found: np.ndarray, roots: np.ndarray, stability: np.ndarray,
                 eta: np.ndarray, residual: np.ndarray | None, errors: dict[int, str]):
        self.j, self.jp, self.t, self.c, self.d = j, jp, t, c, d
        self.found, self.roots, self.stability, self.eta = found, roots, stability, eta
        self.residual, self.errors = residual, errors

    def __len__(self) -> int:
        return len(self.found)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = operator.index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("ScanTable index out of range")
        nt = self.t.size
        ab, k = divmod(i, nt)
        a, b = divmod(ab, self.jp.size)
        J, Jp, T = self.j.item(a), self.jp.item(b), self.t.item(k)
        error = self.errors.get(i)
        if error is not None:
            return PhasePoint(J=J, Jp=Jp, T=T, error=error)
        slots = [s for s, f in enumerate(self.found[i].tolist()) if f]
        roots, codes = self.roots[i].tolist(), self.stability[i].tolist()
        roots = tuple([roots[s] for s in slots])
        d = self.d.item(b * nt + k)
        eta1, eta2 = [None if math.isnan(e) else e for e in self.eta[i].tolist()]
        return PhasePoint(
            J=J, Jp=Jp, T=T, c=self.c.item(a * nt + k), d=d,
            root_count=len(roots), roots=roots,
            stabilities=tuple([STABILITY_LABELS[codes[s]] for s in slots]),
            eta1=eta1, eta2=eta2,
            regime=regime(d),
            phase_transition=len(roots) >= 2,
            consistency_residual=None if self.residual is None else self.residual.item(i),
        )


def _cell_indices(cells: np.ndarray, shape: tuple[int, int, int]):
    """For the cells of a grid of shape (J, Jp, T) axis sizes, in J-major
    order: the index of each cell's J, Jp and T on its axis and of its c
    and d in the weight tables, which hold the (J, T) and (Jp, T) pairs."""
    cell_j, cell_jp, cell_t = np.unravel_index(cells, shape)
    return cell_j, cell_jp, cell_t, cell_j * shape[2] + cell_t, cell_jp * shape[2] + cell_t


def _pair_weights(name: str, values: list[float], betas: list[float]):
    """Weight of each (coupling, beta) pair, coupling-major: c for name "J",
    d for "Jp".

    Forms beta * coupling and goes through the same coupling_weight() as
    derive_weights, so the bits are the same.  A pair whose weight does not
    fit in a double gets NaN; the second result maps its position to the
    error text.
    """
    weights, rejected = [], {}
    for k, (value, beta) in enumerate(itertools.product(values, betas)):
        try:
            weights.append(coupling_weight(name, beta * value))
        except OverflowError as exc:
            rejected[k] = str(exc)
            weights.append(math.nan)
    return np.array(weights), rejected


def _scan_chunk(axes: tuple[np.ndarray, ...], rejected: tuple[dict[int, str], dict[int, str]],
                check: bool, errors: dict[int, str], start: int, c: np.ndarray, d: np.ndarray):
    """Classify the cells start, start + 1, ... of the grid on axes
    (j, jp, t) whose weights are c and d: their found, roots, stability,
    eta and residual (None unless check) as ScanTable holds them.

    Adds the error text of each failed cell to errors and clears its found
    slots.  rejected maps the position of each (J, T) and (Jp, T) pair whose
    weight did not fit in a double to its text; those weights are NaN in c
    and d.  With check, consistency_residuals checks every found root, at
    most _CHUNK_CELLS roots a call.
    """
    shape = tuple(axis.size for axis in axes)
    c_rejected, d_rejected = rejected
    if c_rejected or d_rejected:
        # a cell with a NaN weight carries J's message where both weights
        # fail, and solves the placeholder c = d = 1, which is never reported
        weightless = np.isnan(c) | np.isnan(d)
        bad = weightless.nonzero()[0]
        cell_c, cell_d = _cell_indices(bad + start, shape)[3:]
        errors.update((start + i, c_rejected.get(a) or d_rejected[b]) for i, a, b in
                      zip(bad.tolist(), cell_c.tolist(), cell_d.tolist()))
        c[bad] = d[bad] = 1.0
    # c and d are float64 and positive finite (coupling_weight's or the
    # placeholder 1), so solve_fixed_points' copy and check would only repeat
    batch = _solve(c, d)
    found, roots = batch.found, batch.roots
    if c_rejected or d_rejected:
        found[weightless] = False
    failed = root_errors(found, batch.log_roots, roots)
    if failed:
        errors.update((start + i, str(e)) for i, e in failed.items())
        found[list(failed)] = False
    if not check:
        return found, roots, stability_codes(batch.slopes), batch.eta, None
    from . import _check
    # the field coefficients of each found root, in cell order; beta and
    # beta * J as CouplingParameters and kolmogorov_consistency_check form them
    cell_j, cell_jp, cell_t = _cell_indices(found.nonzero()[0] + start, shape)[:3]
    j, jp, t = axes
    beta = 1.0 / t[cell_t]
    coef = np.empty((10, beta.size))
    coef[0], coef[1] = beta * j[cell_j], beta * jp[cell_jp]
    # math.log, not np.log: the bits of field_from_scalar
    coef[2:] = scalar_field_h(np.array([math.log(r) for r in roots[found].tolist()]))
    per_slot = np.full(found.shape, -np.inf)
    checked = np.empty(beta.size)
    for s in range(0, beta.size, _CHUNK_CELLS):
        checked[s:s + _CHUNK_CELLS] = _check.consistency_residuals(coef[:, s:s + _CHUNK_CELLS])
    per_slot[found] = checked
    answered = found.any(axis=1)
    residual = np.where(answered, per_slot.max(axis=1), np.nan)
    bad = (answered & ~np.isfinite(residual)).nonzero()[0]
    if bad.size:
        errors.update(dict.fromkeys((bad + start).tolist(), "consistency residual is not finite"))
        found[bad] = False
        residual[bad] = np.nan
    return found, roots, stability_codes(batch.slopes), batch.eta, residual


def evaluate_point(J: float, Jp: float, T: float,
                   check_consistency: bool = False) -> PhasePoint:
    """Classify one cell: the only row of its one-cell scan_grid, or the
    error of couplings() for input that no grid holds (T = 0, non-finite)."""
    from .model import couplings

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
    this process, because a process pool cost more than it saved.  A scan
    that drops T = 0 cells warns once, at the line that called it.
    """
    j, jp, t = spec.j_values(), spec.jp_values(), spec.t_values()
    if t.size < spec.t[2]:
        warnings.warn("dropping grid cell(s) at T = 0", stacklevel=2)
    shape = j.size, jp.size, t.size
    # beta = 1/T once per temperature, as CouplingParameters forms it
    betas = [1.0 / T for T in t.tolist()]
    c, c_rejected = _pair_weights("J", j.tolist(), betas)
    d, d_rejected = _pair_weights("Jp", jp.tolist(), betas)
    # the weights of each cell: c holds the (J, T) pairs J-major and d the
    # (Jp, T) pairs, so each row of T values of c repeats once per Jp, and
    # d once per J
    cc = c.reshape(shape[0], shape[2]).repeat(shape[1], axis=0).ravel()
    dd = d.reshape(1, -1).repeat(shape[0], axis=0).ravel()
    n, errors, axes, rejected = cc.size, {}, (j, jp, t), (c_rejected, d_rejected)
    if n <= _CHUNK_CELLS:
        # one chunk: its arrays are the table's, which saves 6 % of a one-cell query
        found, roots, stability, eta, residual = _scan_chunk(axes, rejected, check_consistency,
                                                             errors, 0, cc, dd)
    else:
        found, roots = np.empty((n, 3), dtype=bool), np.empty((n, 3))
        stability, eta = np.empty((n, 3), dtype=np.intp), np.empty((n, 2))
        residual = np.empty(n) if check_consistency else None
        for s in range(0, n, _CHUNK_CELLS):
            e = s + _CHUNK_CELLS
            chunk = _scan_chunk(axes, rejected, check_consistency, errors, s, cc[s:e], dd[s:e])
            found[s:e], roots[s:e], stability[s:e], eta[s:e] = chunk[:4]
            if residual is not None:
                residual[s:e] = chunk[4]
    return ScanTable(j=j, jp=jp, t=t, c=c, d=d, found=found, roots=roots, stability=stability,
                     eta=eta, residual=residual, errors=errors)


# ------------------------------------------------------------------ outputs


def _spell(x: float) -> str:
    """A float at 12 significant digits, as CSV prints it."""
    return format(x, ".12g")


def _emit_blocks(table: ScanTable, fmt: str) -> Iterator[str]:
    """The text of emit_csv (fmt "csv") or emit_jsonl (fmt "jsonl") in
    blocks of _EMIT_ROWS rows; the CSV header is a block of its own.

    Each distinct axis value and weight is spelled once per table.  Every
    other choice a row's text makes is one small integer key: which root
    slots are found and the stability of each, whether each eta and the
    residual are printed, the regime (JSONL only), or -1 for an error row.
    Each key's %-template is built once per table, with %s for the axis and
    weight texts and, for roots, etas and the residual, %.12g in CSV and %r
    in JSONL, which is what json.dumps writes for a finite float.  A block
    joins its rows' templates and applies % once to its flat tuple of
    values, so no text of more than one block is ever held.  roots and
    stabilities join their entries with sep and carry no brackets;
    consistency_residual is a field exactly when the scan ran the check.
    """
    jsonl = fmt == "jsonl"
    if jsonl:
        # the stability labels and regimes are plain ASCII words, which
        # json.dumps quotes as they are
        spell, blank, sep, word, num = repr, "null", ", ", '"{}"'.format, "%r"
    else:
        spell, blank, sep, word, num = _spell, "", ";", str, "%.12g"
    n, shape = len(table), (table.j.size, table.jp.size, table.t.size)
    # every axis value is finite (GridSpec), and a weight is NaN only where
    # its cell is an error row, which prints no weight
    texts = [np.array([spell(v) for v in values.tolist()], dtype=object)
             for values in (table.j, table.jp, table.t, table.c, table.d)]
    residual = [] if table.residual is None else ["consistency_residual"]
    if jsonl:
        names = CSV_HEADER[:-1] + ["regime", "phase_transition"] + residual
        # each d's regime, as an index into the regimes the table has
        regimes = {}
        regime_of = np.array([regimes.setdefault(word(regime(d)), len(regimes))
                              for d in table.d.tolist()])
        regimes = list(regimes)
    else:
        names = CSV_HEADER + residual
        yield ",".join(names) + "\n"

    def template(key: int) -> str:
        """A row's text with a %-field for each value it prints."""
        if key < 0:
            # an error row keeps its coordinates only; its lists stay empty
            fields = dict.fromkeys(names, blank)
            fields.update(roots="", stabilities="")
        else:
            labels = [word(STABILITY_LABELS[(key >> 2 * k & 3) - 1])
                      for k in range(3) if key >> 2 * k & 3]
            fields = {"c": "%s", "d": "%s", "root_count": str(len(labels)),
                      "roots": sep.join([num] * len(labels)), "stabilities": sep.join(labels),
                      "eta1": num if key & 64 else blank, "eta2": num if key & 128 else blank,
                      "phase_transition": "true" if len(labels) >= 2 else "false",
                      "consistency_residual": num if key & 256 else blank}
            if jsonl:
                fields["regime"] = regimes[key >> 9]
        fields.update(J="%s", Jp="%s", T="%s")
        if not jsonl:
            return ",".join([fields[name] for name in names]) + "\n"
        return "{%s%s}\n" % (", ".join([f'"{name}": [{fields[name]}]' if name in _LISTS
                                         else f'"{name}": {fields[name]}' for name in names]),
                              ', "error": %s' if key < 0 else "")

    templates = {}
    errors = np.sort(np.fromiter(table.errors, dtype=np.intp, count=len(table.errors)))
    for s in range(0, n, _EMIT_ROWS):
        e = min(s + _EMIT_ROWS, n)
        cells = _cell_indices(np.arange(s, e), shape)
        lo, hi = np.searchsorted(errors, (s, e)).tolist()
        bad = errors[lo:hi] - s
        # each row's values in the order of its fields (J, Jp, T, c, d, three
        # roots, two etas, the residual, the JSONL error text), and which of
        # them the row prints
        values = np.empty((e - s, 12), dtype=object)
        printed = np.zeros((e - s, 12), dtype=bool)
        numbers = np.full((e - s, 6), np.nan)
        numbers[:, :3], numbers[:, 3:5] = table.roots[s:e], table.eta[s:e]
        if table.residual is not None:
            numbers[:, 5] = table.residual[s:e]
        printed[:, :5] = True
        printed[:, 5:8] = table.found[s:e]
        # a saturated eta has no strict JSON spelling: null, where CSV prints inf
        printed[:, 8:10] = np.isfinite(numbers[:, 3:5]) if jsonl else ~np.isnan(numbers[:, 3:5])
        printed[:, 10] = ~np.isnan(numbers[:, 5])
        printed[bad, 3:] = False
        for k in range(5):
            values[:, k] = texts[k][cells[k]]
        values[:, 5:11] = numbers
        # bits 2k and 2k + 1 hold 1 + the stability code of found slot k,
        # bits 6-8 whether eta1, eta2 and the residual are printed, and the
        # bits from 9 on the regime
        keys = ((printed[:, 5:8] * (table.stability[s:e] + 1)) @ np.array([1, 4, 16])
                + printed[:, 8:11] @ np.array([64, 128, 256]))
        if jsonl:
            shown = numbers[printed[:, 5:11]]
            if not np.isfinite(shown).all():
                raise ValueError("Out of range float values are not JSON compliant: "
                                 + repr(shown[~np.isfinite(shown)][0].item()))
            keys += regime_of[cells[4]] << 9
            if bad.size:
                import json
                printed[bad, 11] = True
                values[bad, 11] = [json.dumps(table.errors[i]) for i in errors[lo:hi].tolist()]
        keys[bad] = -1
        keys = keys.tolist()
        for key in set(keys).difference(templates):
            templates[key] = template(key)
        yield "".join([templates[key] for key in keys]) % tuple(values[printed].tolist())


def emit_csv(table: ScanTable) -> str:
    """CSV of a scan, one row per cell; lists are semicolon-joined inside one
    field, and a consistency_residual column follows when the scan ran the
    check."""
    return "".join(_emit_blocks(table, "csv"))


def emit_jsonl(table: ScanTable) -> str:
    """One strict-JSON object per cell of a scan; carries the regime label,
    any cell error, and consistency_residual when the scan ran the check.
    An eta that saturated outside the double range is null."""
    return "".join(_emit_blocks(table, "jsonl"))
