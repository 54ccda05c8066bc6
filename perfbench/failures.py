"""Stable names for the ways a cell can go unanswered.

A cell is unanswered when its PhasePoint carries an error (kind
``error_<name>``), when the call raised (``raised_<Type>``), when the CLI scan
holding it died (``aborted``), or when its roots disagree with the 40-digit
reference (``wrong``).  Traced runs prefix the kind with the deepest traced
layer the failure passed through, as in ``fixpoint.raised_ZeroDivisionError``;
the ``failed.*`` counters in BENCHMARK.json name the kinds seen so far and
``failed.other`` sums the rest.
"""

from __future__ import annotations

# PhasePoint.error texts seen in practice, by errno or message
_ERROR_NAMES = (
    ("(34, ", "erange"),                      # OverflowError from float ** (ERANGE)
    ("Array must not contain infs or NaNs", "nonfinite"),
    ("math range error", "math_range"),
    ("x must be nonnegative", "negative_x"),
)


def error_kind(message: str) -> str:
    for prefix, name in _ERROR_NAMES:
        if message.startswith(prefix):
            return "error_" + name
    return "error_other"


def raised_kind(exc: BaseException) -> str:
    return "raised_" + type(exc).__name__
