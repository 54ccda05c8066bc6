"""Regenerate the high-precision constants frozen into tests/conftest.py.

Everything here is computed with 40-digit mpmath arithmetic and no imports
from the package, so it stays an independent oracle for the float64 code.
Run it and diff the output against the constants in the test suite:

    python3 scripts/reference_values.py

Requires mpmath, which the test extra installs (pip install -e ".[test]");
it is deliberately not a runtime dependency.
"""

from mpmath import mp, mpf, exp, sqrt, polyroots

mp.dps = 40
DIGITS = 18


def weights(J, Jp, T):
    beta = mpf(1) / mpf(T)
    a = exp(beta * mpf(J))
    b = exp(beta * mpf(Jp))
    return a, b, a * a, b * b


def g(x, c, d):
    return ((1 + c * d * x) / (d + c * x)) ** 3


def dg(x, c, d):
    return 3 * c * (d * d - 1) * (1 + c * d * x) ** 2 / (d + c * x) ** 4


def positive_roots(c, d):
    coeffs = [c**3, 3 * c**2 * d - c**3 * d**3, 3 * c * d**2 - 3 * c**2 * d**2,
              d**3 - 3 * c * d, mpf(-1)]
    rs = polyroots(coeffs, maxsteps=300, extraprec=200)
    return sorted(r.real for r in rs if abs(r.imag) < mpf("1e-30") and r.real > 0)


def tangency_data(c, d):
    """Roots of c^2 d x^2 - 2c(d^2 - 2)x + d = 0 and the slopes g(x)/x there."""
    s = sqrt(d**4 - 5 * d**2 + 4)
    x1 = ((d * d - 2) - s) / (c * d)
    x2 = ((d * d - 2) + s) / (c * d)
    return x1, x2, g(x1, c, d) / x1, g(x2, c, d) / x2


def fmt(x):
    return mp.nstr(x, DIGITS)


def report(tag, J, Jp, T):
    a, b, c, d = weights(J, Jp, T)
    print(f"--- {tag}: J={J} Jp={Jp} T={T}")
    print(f"  a = {fmt(a)}")
    print(f"  b = {fmt(b)}")
    print(f"  c = {fmt(c)}")
    print(f"  d = {fmt(d)}")
    for r in positive_roots(c, d):
        print(f"  root {fmt(r)}  g' = {fmt(dg(r, c, d))}")
    if d > 2:
        x1, x2, e1, e2 = tangency_data(c, d)
        print(f"  eta1 = {fmt(e1)}  at x_crit_1 = {fmt(x1)}")
        print(f"  eta2 = {fmt(e2)}  at x_crit_2 = {fmt(x2)}")


def main():
    report("three-root point", "-1.7", "6.5", "13")
    report("decreasing-map point", "-1.045", "-1.045", "6.55")
    report("negative-temperature point", "6.75", "1.95", "-5.75")

    # Tangent case: eta1 is linear in c at fixed d, so scaling c = c0/eta1(c0)
    # makes the lower tangent slope exactly 1 and the small roots collide.
    d0 = mpf("2.5")
    _, _, e1, _ = tangency_data(mpf(1), d0)
    c_star = 1 / e1
    x1, _, e1s, e2s = tangency_data(c_star, d0)
    print(f"--- tangent case at d = {fmt(d0)}")
    print(f"  c* = {fmt(c_star)}")
    print(f"  eta1(c*) = {fmt(e1s)}  eta2(c*) = {fmt(e2s)}")
    print(f"  x_tangent = {fmt(x1)}  g'(x_tangent) = {fmt(dg(x1, c_star, d0))}")
    for r in positive_roots(c_star, d0):
        print(f"  root {fmt(r)}")


if __name__ == "__main__":
    main()
