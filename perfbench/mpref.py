"""Independent 40-digit solve of g(x) = x, for checking the program's roots.

With x = y^3 the fixed-point equation ((1 + c d x) / (d + c x))^3 = x becomes
the y-quartic

    f(y) = c y^4 - c d y^3 + d y - 1 = 0,

whose positive roots all lie between 1/d and d (every fixed point lies
between g(0) = d^-3 and g(inf) = d^3).  f'' = 6 c y (2 y - d) vanishes once on
y > 0, so f has at most two positive critical points; they split the bracket
into monotone pieces and each piece holding a sign change holds one root.
Everything is bisected in log y, so weights up to e^708 need no scaling.
This module imports nothing from ivtree.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import exp, log, mp, mpf, sqrt

DPS = 40

# |f| at a critical point below this share of the size of f's terms there
# means the cell sits within float resolution of a tangency (a double root)
TANGENCY_REL = mpf("1e-12")

# the three-root reference cell (J, Jp, T) = (-1.7, 6.5, 13), taken as exact
# decimals, and its roots (they agree with tests/conftest.py to 18 digits)
REFERENCE_CELL = ("-1.7", "6.5", "13")
REFERENCE_ROOTS = ("0.07109898438733473393810383960975362900136",
                   "2.853045426290587729164555159007619824907",
                   "7.931073245016291857362439675860731956604")


@dataclass(frozen=True)
class Solution:
    roots: tuple          # positive fixed points x, ascending, as mpf
    near_tangent: bool


def _f(y, c, d):
    return ((c * y - c * d) * y * y + d) * y - 1


def _df(y, c, d):
    return (4 * c * y - 3 * c * d) * y * y + d


def _bisect_log(fn, lo, hi, rel=mpf("1e-38")):
    """Root of fn in (lo, hi), 0 < lo < hi, fn(lo) and fn(hi) of opposite sign."""
    t_lo, t_hi = log(lo), log(hi)
    lo_negative = fn(lo) < 0
    for _ in range(400):
        if t_hi - t_lo <= rel:
            break
        t_mid = (t_lo + t_hi) / 2
        f_mid = fn(exp(t_mid))
        if f_mid == 0:
            return exp(t_mid)
        if (f_mid < 0) == lo_negative:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return exp((t_lo + t_hi) / 2)


def _critical_points(c, d):
    """Positive zeros of f' = 4 c y^3 - 3 c d y^2 + d (none or two)."""
    y_min = d / 2          # f'' = 0 here: the only positive extremum of f'
    if _df(y_min, c, d) >= 0:
        return []
    # f' > 0 below 1/sqrt(3c) and at y = d
    y_low = min(y_min, 1 / sqrt(3 * c)) / 2
    df = lambda y: _df(y, c, d)
    return [_bisect_log(df, y_low, y_min), _bisect_log(df, y_min, d)]


def solve(beta_j: float, beta_jp: float) -> Solution:
    """Positive fixed points for weights c = e^(2 beta J), d = e^(2 beta Jp)."""
    with mp.workdps(DPS):
        c = exp(2 * mpf(beta_j))
        d = exp(2 * mpf(beta_jp))
        lo, hi = min(d, 1 / d) / 2, max(d, 1 / d) * 2
        f = lambda y: _f(y, c, d)
        crit = [p for p in _critical_points(c, d) if lo < p < hi]
        near_tangent = any(
            abs(f(p)) < TANGENCY_REL * (c * p**4 + c * d * p**3 + d * p + 1)
            for p in crit)
        edges = [lo, *crit, hi]
        roots = []
        for a, b in zip(edges, edges[1:]):
            fa, fb = f(a), f(b)
            if fa == 0:
                roots.append(a)
            elif (fa < 0) != (fb < 0):
                roots.append(_bisect_log(f, a, b))
        return Solution(roots=tuple(sorted(+(y**3) for y in roots)),
                        near_tangent=near_tangent)


def self_test() -> bool:
    """The solver reproduces the frozen roots of the reference cell."""
    J, Jp, T = REFERENCE_CELL
    with mp.workdps(DPS):
        sol = solve(mpf(J) / mpf(T), mpf(Jp) / mpf(T))
        return (len(sol.roots) == 3 and not sol.near_tangent and all(
            abs(r / mpf(ref) - 1) < mpf("1e-30")
            for r, ref in zip(sol.roots, REFERENCE_ROOTS)))


def agrees(beta_j: float, beta_jp: float, roots, rel: float = 1e-9) -> str:
    """Compare float roots with the 40-digit solve: 'ok', 'tangent' or 'wrong'.

    A cell within float resolution of a tangency may legitimately report two
    close roots as one, one, or two; it is reported as 'tangent', not failed.
    """
    sol = solve(beta_j, beta_jp)
    if sol.near_tangent:
        return "tangent"
    if len(sol.roots) != len(roots):
        return "wrong"
    for exact, got in zip(sol.roots, sorted(roots)):
        if abs(mpf(got) / exact - 1) > rel:
            return "wrong"
    return "ok"
