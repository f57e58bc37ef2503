"""Output checks: digests, numbers and their comparison with recorded references.

Each command's output is its stdout followed by the files it wrote.  From it
the check takes a sha256 digest, the exact numbers (bounds, certificate
bounds, lowerbound ratios, sweep columns, compressed weights, the sampled
compression deviation, ...) and the estimates (the Monte Carlo values of
``rademacher``, which are certified lower bounds: they may rise but must not
fall).
"""

from __future__ import annotations

import hashlib
import math
import re

# Relative tolerances.  An exact output may move by at most DRIFT_TOL; an
# estimate may rise freely but may fall by at most ESTIMATE_TOL.
DRIFT_TOL = 1e-9
ESTIMATE_TOL = 1e-9

_NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])"
    r"|(?<![\w.])-?inf(?![\w])|(?<![\w.])nan(?![\w])"
)
_HEX_DIGEST = re.compile(r'"inputs_digest": "([0-9a-f]+)"')
# (pattern, is_estimate): estimate lines are taken out of the exact stream.
# The Monte Carlo std_error is dispersion of the estimate, so it is neither.
_ESTIMATE_LINES = (
    (re.compile(r"^value: (\S+)$", re.M), True),
    (re.compile(r"^std_error: (\S+)$", re.M), False),
)


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def parse(text: str) -> dict:
    """Split one command's output into exact numbers, estimates and strings."""
    estimates = []
    for pattern, is_estimate in _ESTIMATE_LINES:
        if is_estimate:
            estimates.extend(float(v) for v in pattern.findall(text))
        text = pattern.sub("", text)
    strings = _HEX_DIGEST.findall(text)
    text = _HEX_DIGEST.sub("", text)
    numbers = [float(v) for v in _NUMBER.findall(text)]
    return {"numbers": numbers, "estimates": estimates, "strings": strings}


def _rel(value: float, ref: float) -> float:
    if value == ref or (math.isnan(value) and math.isnan(ref)):
        return 0.0
    if ref == 0.0 or not math.isfinite(ref) or not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref)


def compare(parsed: dict, ref: dict) -> dict:
    """Compare a parsed output with its reference.

    Returns drift (largest relative deviation of an exact number), the
    estimate ratios (value / reference) and a list of problems; a non-empty
    list fails the command.
    """
    problems = []
    drift = 0.0
    if len(parsed["numbers"]) != len(ref["numbers"]):
        problems.append(f"{len(parsed['numbers'])} numbers, reference has "
                        f"{len(ref['numbers'])}")
        drift = math.inf
    else:
        drift = max((_rel(v, r) for v, r in zip(parsed["numbers"], ref["numbers"])),
                    default=0.0)
    if parsed["strings"] != ref["strings"]:
        problems.append("input digests differ from the reference")
        drift = math.inf
    if drift > DRIFT_TOL:
        problems.append(f"exact output drifted by {drift:.3g} (tolerance {DRIFT_TOL:g})")
    ratios = []
    if len(parsed["estimates"]) != len(ref["estimates"]):
        problems.append("estimate count differs from the reference")
    else:
        for v, r in zip(parsed["estimates"], ref["estimates"]):
            ratio = 1.0 if v == r else (v / r if r > 0 else math.inf)
            ratios.append(ratio)
            if not ratio >= 1.0 - ESTIMATE_TOL:
                problems.append(f"estimate fell to {ratio!r} of its reference")
    return {"drift": drift, "estimate_ratios": ratios, "problems": problems}
