"""Shared reference points and frozen expected values.

The numeric expectations below were computed independently at 40 significant
digits (mpmath; see scripts/reference_values.py) and frozen here, so the
tests compare the float implementation against an external oracle rather
than against itself.
"""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ivtree
from ivtree import FixedPointReport, TransferWeights, couplings, derive_weights, scalar_map_dg
from ivtree._solver import STABILITY_LABELS, stability_codes

# (J, Jp, T) with three positive fixed points: two stable measures coexist
THREE_ROOT_POINT = (-1.7, 6.5, 13.0)
THREE_ROOT_EXPECTED = {
    "a": 0.877420232621723477,
    "b": 1.64872127070012815,
    "c": 0.769866264613959339,
    "d": 2.71828182845904524,
    "roots": (0.0710989843873347339, 2.85304542629058773, 7.93107324501629186),
    "derivatives": (0.329339102607707622, 1.2288824614792192, 0.753671967201859083),
    "eta1": 0.557038806988511887,
    "eta2": 1.06400857167366853,
    "x_crit": (0.351596962950149009, 4.79870780358037073),
}

# J = Jp < 0 with d < 1: g is strictly decreasing, one fixed point
DECREASING_POINT = (-1.045, -1.045, 6.55)
DECREASING_EXPECTED = {
    "cd": 0.726814516517350984,
    "root": 1.10786343236430422,
    "derivative": -0.469216760397701558,
}

# negative temperature, d < 1: again a unique fixed point
NEGATIVE_T_POINT = (6.75, 1.95, -5.75)
NEGATIVE_T_EXPECTED = {
    "c": 0.0955767119970859725,
    "d": 0.507498831990590048,
    "root": 3.00017921740009711,
    "derivative": -0.701981300304565362,
}

# (c, d) tuned so the lower tangent slope through the origin equals 1:
# the map is tangent to the diagonal and the count drops from 3 to 1
TANGENT_CASE = {
    "c": 1.2305654516899863,
    "d": 2.5,
    "x_tangent": 0.264290933136957437,
    "x_transversal": 9.78668780826017062,
}


def pytest_report_header(config):
    """numpy's version and SIMD targets: the baseline, then the dispatch
    targets with a * on each this CPU enables.  The pinned digests hold for
    the log/exp/tanh kernels of one build and CPU, so a digest that fails
    on another host shows which kernels it ran on."""
    # numpy 2.x keeps the extension in numpy._core, numpy 1.x in numpy.core
    for home in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(home)
            baseline, dispatch = umath.__cpu_baseline__, umath.__cpu_dispatch__
            enabled = umath.__cpu_features__
            break
        except (ImportError, AttributeError):
            continue
    else:
        return f"numpy {np.__version__}, SIMD targets unknown"
    targets = [*baseline, *(name + "*" * bool(enabled.get(name)) for name in dispatch)]
    return f"numpy {np.__version__}, SIMD {' '.join(targets)}"


@pytest.fixture
def three_root_weights() -> TransferWeights:
    return derive_weights(couplings(*THREE_ROOT_POINT))


@pytest.fixture
def three_root_params():
    return couplings(*THREE_ROOT_POINT)


def run_python(*argv, stdout=subprocess.PIPE, blas_threads=None, preexec_fn=None):
    """Run a fresh interpreter; OPENBLAS_NUM_THREADS is blas_threads, or unset."""
    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(ivtree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # importing ivtree.cli here sets the variable in this process's environment
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, preexec_fn=preexec_fn)


def assert_close(actual, expected, rtol, label=""):
    """Relative comparison with a readable failure message."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)
    assert np.all(err <= rtol), (
        f"{label or 'value'}: {actual} vs expected {expected} "
        f"(max rel err {err.max():.3e} > {rtol:.1e})"
    )


# ------------------------------------------------- test-side second oracles
#
# Second routes to the solver's numbers that share none of its algebra, so
# tests can compare two independent computations of the same values.


def quartic_coefficients(w: TransferWeights) -> np.ndarray:
    """Coefficients of x(d+cx)^3 - (1+cdx)^3 in descending powers.

    Positive roots of this quartic are exactly the positive fixed points of g.
    The leading coefficient c^3 > 0 and constant term -1 < 0 force at least
    one positive real root.
    """
    c, d = w.c, w.d
    return np.array([
        c**3,
        3.0 * c**2 * d - c**3 * d**3,
        3.0 * c * d**2 - 3.0 * c**2 * d**2,
        d**3 - 3.0 * c * d,
        -1.0,
    ])


def quartic_positive_roots(w: TransferWeights) -> tuple[float, ...]:
    """Positive real roots of the x-quartic from its companion matrix.

    Ill-conditioned for extreme weights (coefficients up to c^3 d^3), so only
    a cross-check on moderate weights; roots closer than 1e-7 are merged.
    """
    qr = np.roots(quartic_coefficients(w))
    qr = qr[(np.abs(qr.imag) <= 1e-7 * (1.0 + np.abs(qr.real))) & (qr.real > 0)]
    kept: list[float] = []
    for x in np.sort(qr.real):
        if not kept or x - kept[-1] > 1e-7 * max(1.0, x):
            kept.append(float(x))
    return tuple(kept)


def eta_closed_forms(c: float, d: float) -> tuple[float, float]:
    """Closed-form tangent slopes eta_1, eta_2 for d > 2 (the solver's route
    is g(x_crit)/x_crit in log space)."""
    s = math.sqrt(4.0 - 5.0 * d * d + d**4)
    d2 = d * d
    eta1 = -(c * d**4 * (1.0 - d2 + s) ** 3) / ((2.0 - 2.0 * d2 + s) ** 3 * (2.0 - d2 + s))
    eta2 = (c * d**4 * (-1.0 + d2 + s) ** 3) / ((-2.0 + d2 + s) * (-2.0 + 2.0 * d2 + s) ** 3)
    return eta1, eta2


def closed_forms_agree(th, c: float, d: float) -> bool:
    """Both closed-form slopes match the solver's eta values to 1e-9 relative."""
    cf1, cf2 = eta_closed_forms(c, d)
    return abs(cf1 / th.eta1 - 1.0) < 1e-9 and abs(cf2 / th.eta2 - 1.0) < 1e-9


def scalar_map_d2g(x: float, w: TransferWeights) -> float:
    """Second derivative g''(x) = -6c^2(d^2-1)(1+cdx)(2-d^2+cdx) / (d+cx)^5."""
    c, d = w.c, w.d
    return (-6.0 * c * c * (d * d - 1.0) * (1.0 + c * d * x)
            * (2.0 - d * d + c * d * x) / (d + c * x) ** 5)


def classify_stability(report: FixedPointReport, w: TransferWeights) -> FixedPointReport:
    """Relabel each root of report by its closed-form |g'|: stable below 1,
    unstable above, marginal within STABILITY_TOL of 1."""
    derivs = tuple(scalar_map_dg(x, w) for x in report.roots)
    return report._replace(
        derivative=derivs,
        stability=tuple(STABILITY_LABELS[k] for k in stability_codes(derivs).tolist()))
