"""Closed-form capacity bounds for norm-constrained networks, plus the r-tuner.

Each ``bound_*`` function evaluates one published or in-house complexity
bound from a :class:`~capnet.network.NormProfile` and scalar context.
Bounds whose source statement hides a universal constant are computed with
that constant set to 1 and flagged ``exact_constants=False`` in reports, so
exact-constant and big-O values are never silently mixed.

Throughout, logs are natural and ``logbar(z) = max(1, log z)``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import DegenerateLayerError, ShapeError, VerificationError
from .network import (Dataset, ELEMENTWISE_TAGS, Network, NormProfile, override_products,
                      profile)


def logbar(z: float) -> float:
    """max(1, ln z); clamps non-positive arguments to 1."""
    if z <= 0.0:
        return 1.0
    return max(1.0, math.log(z))


# ---------------------------------------------------------------------------
# Baseline bounds from the literature (universal constants set to 1)
# ---------------------------------------------------------------------------

def bound_frobenius_exp_depth(prof: NormProfile, B: float, m: int) -> float:
    """Frobenius-product bound with the 2^d peeling factor.

    B * 2^d * prod_j M_F(j) / sqrt(m).
    """
    _check_m(m)
    return B * 2.0 ** prof.depth * prof.frobenius_product / math.sqrt(m)


def bound_spectral_ratio_sum(prof: NormProfile, B: float, m: int) -> float:
    """Spectral-product bound scaled by the (2,1)/spectral ratio sum.

    B * (prod_j ||W_j||) * (sum_j (rows_l2_sum(j)/||W_j||)^(2/3))^(3/2) / sqrt(m);
    polylog factors in the width and m are noted in the report citation, not
    multiplied in.
    """
    _check_m(m)
    if prof.degenerate:
        raise DegenerateLayerError("a zero layer makes the spectral ratio undefined")
    ratios = [r / s for r, s in zip(prof.rows_l2_sum, prof.spectral)]
    return B * prof.gamma * sum(t ** (2.0 / 3.0) for t in ratios) ** 1.5 / math.sqrt(m)


def bound_pacbayes_spectral(prof: NormProfile, B: float, m: int, h: int) -> float:
    """PAC-Bayes style bound: B * (prod ||W_j||) * sqrt(d^2 h sum_j F_j^2/S_j^2 / m)."""
    _check_m(m)
    if prof.degenerate:
        raise DegenerateLayerError("a zero layer makes the Frobenius/spectral ratio undefined")
    d = prof.depth
    ssq = sum((f / s) ** 2 for f, s in zip(prof.frobenius, prof.spectral))
    return B * prof.gamma * math.sqrt(d * d * h * ssq / m)


# ---------------------------------------------------------------------------
# sqrt-depth bounds with exact constants
# ---------------------------------------------------------------------------

def bound_frobenius_sqrt_depth(prof: NormProfile, data: Dataset) -> float:
    """Exact-constant Frobenius bound with sqrt(depth) growth.

    (1/m) * prod_j M_F(j) * (sqrt(2 ln2 d) + 1) * sqrt(sum_i ||x_i||^2).
    Valid for element-wise, positive-homogeneous activations; callers gate
    applicability.
    """
    m = data.m
    energy = float((data.points * data.points).sum())
    return prof.frobenius_product * (math.sqrt(2.0 * math.log(2.0) * prof.depth) + 1.0) \
        * math.sqrt(energy) / m


def bound_frobenius_sqrt_depth_weak(prof: NormProfile, B: float, m: int) -> float:
    """Data-radius form: B (sqrt(2 ln2 d) + 1) prod_j M_F(j) / sqrt(m)."""
    _check_m(m)
    return B * (math.sqrt(2.0 * math.log(2.0) * prof.depth) + 1.0) \
        * prof.frobenius_product / math.sqrt(m)


def bound_row_l1_sqrt_depth(prof: NormProfile, data: Dataset) -> float:
    """Exact-constant bound for per-row l1 budgets.

    (2/m) * prod_j M(j) * sqrt(d + 1 + ln n) * sqrt(max_j sum_i x_{i,j}^2),
    where M(j) is the largest l1 row norm of layer j and n the input
    dimension.  Valid for element-wise 1-Lipschitz activations fixing 0.
    """
    m = data.m
    n = data.dim
    col_energy = float((data.points * data.points).sum(axis=0).max())
    return 2.0 * prof.rows_l1_max_product * math.sqrt(prof.depth + 1.0 + math.log(n)) \
        * math.sqrt(col_energy) / m


def bound_row_l1_sqrt_depth_weak(prof: NormProfile, B: float, m: int, n: int) -> float:
    """Data-radius form: 2B sqrt(d + 1 + ln n) prod_j M(j) / sqrt(m)."""
    _check_m(m)
    return 2.0 * B * math.sqrt(prof.depth + 1.0 + math.log(n)) \
        * prof.rows_l1_max_product / math.sqrt(m)


# ---------------------------------------------------------------------------
# The r-tuner and the depth-free bounds built on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    """Result of the exhaustive r-scan; r_star is None when the d^alpha/n
    branch wins outright."""

    r_star: int | None
    value: float


def tune_r(alpha: float, beta: float, b: float, c: float, n: float, d: int) -> TuneResult:
    """min{ min_r c r^alpha/n + b/r^beta , d^alpha/n } by exhaustive scan.

    Requires alpha > 0, beta in (0, 1], b, c, n >= 1 and integer d >= 1.
    Whenever c <= b n the returned value satisfies the closed-form cap
    value <= min{ 3 b^(a/(a+b)) / (n/c)^(b/(a+b)) , d^alpha/n },
    and a violation raises VerificationError.  For c > b n the cap can
    genuinely fail (e.g. alpha=1.5, beta=1, b=1, c=10, n=1, d=10 scans to 11
    against a cap of about 7.54) while the scanned value itself is still
    exact, so the check is limited to the cap's domain of validity.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    for name, v in (("b", b), ("c", c), ("n", n)):
        if not v >= 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    rs = np.arange(1, d + 1, dtype=np.float64)
    inner = c * rs ** alpha / n + b / rs ** beta
    i = int(np.argmin(inner))
    outer = d ** alpha / n
    if outer < inner[i]:
        result = TuneResult(r_star=None, value=float(outer))
    else:
        result = TuneResult(r_star=i + 1, value=float(inner[i]))
    if c <= b * n:
        cap = min(3.0 * b ** (alpha / (alpha + beta)) / (n / c) ** (beta / (alpha + beta)),
                  outer)
        if not result.value <= cap * (1.0 + 1e-12):
            raise VerificationError(f"r-scan value {result.value} exceeds its cap {cap}")
    return result


def bound_frobenius_depth_free(prof: NormProfile, B: float, m: int, gamma: float) -> float:
    """Depth-free Frobenius bound (universal constant 1).

    (B prod M_F / gamma) * min{ logbar(m)^(3/4) sqrt(logbar(prod M_F / Gamma))
    / m^(1/4), sqrt(d/m) }, where Gamma is the spectral-norm product.
    """
    _check_m(m)
    _check_gamma(gamma)
    if prof.gamma <= 0.0:
        raise DegenerateLayerError("zero spectral-norm product; depth-free bound undefined")
    closed = _scan_checked(min(*frobenius_depth_free_branches(prof, m)), 0.5, 0.5,
                           math.sqrt(logbar(prof.frobenius_product / prof.gamma)), m, prof.depth)
    return (B * prof.frobenius_product / gamma) * closed


def frobenius_depth_free_branches(prof: NormProfile, m: int) -> tuple[float, float]:
    """The two branches of the depth-free Frobenius bound's min:
    logbar(m)^(3/4) sqrt(logbar(prod M_F / Gamma)) / m^(1/4) and sqrt(d/m)."""
    lb = logbar(prof.frobenius_product / prof.gamma)
    return logbar(m) ** 0.75 * math.sqrt(lb) / m ** 0.25, math.sqrt(prof.depth / m)


def bound_schatten_depth_free(prof: NormProfile, B: float, m: int, gamma: float,
                              h: int, p: float) -> float:
    """Depth-free Schatten-p bound (universal constant 1).

    (B L ln(h) ln(m) prod M(j) / gamma) * min{
      logbar(prod M_p / Gamma)^(1/(2/3+p)) (logbar(m)^(3/2))^(1/(1+3p/2))
      / m^(1/(2+3p)),  d^(3/2)/sqrt(m) },
    with M(j) the spectral norms, L the largest rows_l2_sum/spectral ratio,
    and ln(h) clamped to 1 for h < 2.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    _check_gamma(gamma)
    matlin._check_schatten_p(p)
    if prof.gamma <= 0.0 or prof.ratio_max is None:
        raise DegenerateLayerError("zero layer; depth-free spectral bound undefined")
    lb = logbar(prof.schatten_product / prof.gamma)
    e_ratio = 1.0 / (2.0 / 3.0 + p)
    e_logm = 1.0 / (1.0 + 1.5 * p)
    e_m = 1.0 / (2.0 + 3.0 * p)
    first = lb ** e_ratio * (logbar(m) ** 1.5) ** e_logm / m ** e_m
    second = prof.depth ** 1.5 / math.sqrt(m)
    closed = _scan_checked(min(first, second), 1.5, 1.0 / p, lb ** (1.0 / p), m, prof.depth)
    lnh = math.log(h) if h >= 2 else 1.0
    return (B * prof.ratio_max * lnh * math.log(m) * prof.gamma / gamma) * closed


def _scan_checked(closed: float, alpha: float, beta: float, b: float, m: int, d: int) -> float:
    """closed, a depth-free bound's closed-form branch minimum, once checked
    against the exhaustive r-scan with c = logbar(m)^(3/2) and n = sqrt(m):
    the scan can never beat the closed form by more than its stated factor 3."""
    t = tune_r(alpha, beta, b, logbar(m) ** 1.5, math.sqrt(m), d)
    if not t.value <= 3.0 * closed * (1.0 + 1e-9):
        raise VerificationError(f"r-scan {t.value} over 3x closed form {closed}")
    return closed


def bound_lipschitz_cover(prof: NormProfile, B: float, m: int, gamma: float, dim: int) -> float:
    """Whole-Lipschitz-class bound: B prod ||W_j|| / (gamma m^(1/dim))."""
    _check_m(m)
    _check_gamma(gamma)
    if dim < 1:
        raise ValueError(f"input dimension must be >= 1, got {dim}")
    return B * prof.gamma / (gamma * m ** (1.0 / dim))


def bound_lower(budgets, B: float, m: int, gamma: float, h: int, p: float) -> float:
    """Attainable-complexity floor for Schatten-p budgets (constant 1).

    B * prod_j M_p(j) * h^max(0, 1/2 - 1/p) / (gamma sqrt(m)).
    """
    _check_m(m)
    _check_gamma(gamma)
    return B * float(np.prod(np.asarray(budgets, dtype=np.float64))) \
        * h ** max(0.0, 0.5 - 1.0 / p) / (gamma * math.sqrt(m))


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"sample count m must be >= 1, got {m}")


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ValueError(f"margin parameter gamma must be positive, got {gamma}")


# ---------------------------------------------------------------------------
# Comparative reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundContext:
    m: int
    B: float
    gamma: float
    p: float
    n: int
    h: int
    d: int


@dataclass(frozen=True)
class BoundEntry:
    """One named bound value; value is None when the bound does not apply to
    the network's activations (reported explicitly, never dropped)."""

    name: str
    value: float | None
    exact_constants: bool
    citation: str
    inputs_digest: str


@dataclass(frozen=True)
class BoundReport:
    entries: tuple[BoundEntry, ...]
    context: BoundContext

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def render_table(self) -> str:
        ctx = self.context
        lines = [
            f"# context: m={ctx.m} B={_fmt(ctx.B)} gamma={_fmt(ctx.gamma)} "
            f"p={_fmt(ctx.p)} n={ctx.n} h={ctx.h} d={ctx.d}",
            "# exact_constants=False means the universal constant is set to 1",
        ]
        widths = (28, 24, 6)
        lines.append(f"{'name':<{widths[0]}} {'value':<{widths[1]}} {'exact':<{widths[2]}} citation")
        for e in self.entries:
            val = "inapplicable" if e.value is None else _fmt(e.value)
            lines.append(
                f"{e.name:<{widths[0]}} {val:<{widths[1]}} "
                f"{str(e.exact_constants).lower():<{widths[2]}} {e.citation}"
            )
        return "\n".join(lines) + "\n"

    def to_obj(self) -> dict:
        return {"context": dataclasses.asdict(self.context),
                "entries": [dataclasses.asdict(e) for e in self.entries]}

    def render_structured(self) -> str:
        return json.dumps(self.to_obj(), indent=1) + "\n"

    def render_csv(self) -> str:
        return csv_text(["name", "value", "exact_constants", "citation"], [
            [e.name, "inapplicable" if e.value is None else e.value,
             str(e.exact_constants).lower(), e.citation] for e in self.entries])


def _fmt(x: float) -> str:
    """17 significant digits: round-trips float64 exactly."""
    return format(float(x), ".17g")


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a header row; floats take 17 digits, strings pass through."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([
            v if isinstance(v, str)
            else _fmt(v) if isinstance(v, (float, np.floating))
            else str(v)
            for v in row
        ])
    return buf.getvalue()


def _digest(prof: NormProfile, ctx: BoundContext, name: str) -> str:
    payload = json.dumps({
        "name": name,
        "ctx": dataclasses.astuple(ctx),
        "spectral": prof.spectral, "frobenius": prof.frobenius,
        "schatten": prof.schatten, "rows_l2_sum": prof.rows_l2_sum,
        "rows_l1_max": prof.rows_l1_max,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def report_for(net: Network, data: Dataset, p: float = 2.0, gamma: float = 1.0,
               gamma_override: float | None = None,
               schatten_override: float | None = None) -> BoundReport:
    """Evaluate every bound formula applicable to the network's activations.

    gamma_override / schatten_override replace the measured spectral- and
    Schatten-norm products for what-if analysis (network.override_products).
    """
    if data.dim != net.input_dim:
        raise ShapeError(
            f"dataset dimension {data.dim} does not match network input {net.input_dim}"
        )
    prof = override_products(profile(net, p), gamma_override, schatten_override)
    ctx = BoundContext(m=data.m, B=data.radius, gamma=gamma, p=p,
                       n=net.input_dim, h=net.width, d=net.depth)
    elementwise = all(l.activation in ELEMENTWISE_TAGS for l in net.layers[:-1])
    B, m = ctx.B, ctx.m

    def entry(name, fn, exact, citation, needs_elementwise=False):
        value = fn() if elementwise or not needs_elementwise else None
        return BoundEntry(name=name, value=value, exact_constants=exact,
                          citation=citation, inputs_digest=_digest(prof, ctx, name))

    note = "universal constant set to 1"
    entries = (
        entry("frobenius-exp-depth", lambda: bound_frobenius_exp_depth(prof, B, m),
              False, f"Neyshabur, Tomioka, Srebro (2015); {note}", True),
        entry("spectral-ratio-sum", lambda: bound_spectral_ratio_sum(prof, B, m),
              False, f"Bartlett, Foster, Telgarsky (2017); carries extra "
                     f"ln(h)*ln(m) factors not multiplied in; {note}"),
        entry("pacbayes-spectral", lambda: bound_pacbayes_spectral(prof, B, m, ctx.h),
              False, f"Neyshabur, Bharadwaj, McAllester, Srebro (2017); polylog "
                     f"factors omitted; {note}"),
        entry("frobenius-sqrt-depth", lambda: bound_frobenius_sqrt_depth(prof, data),
              True, "exponential-moment peeling; exact constants", True),
        entry("frobenius-sqrt-depth-weak", lambda: bound_frobenius_sqrt_depth_weak(prof, B, m),
              True, "exponential-moment peeling, data-radius form; exact constants", True),
        entry("row-l1-sqrt-depth", lambda: bound_row_l1_sqrt_depth(prof, data),
              True, "exponential-moment peeling, per-row l1 budgets; exact constants", True),
        entry("row-l1-sqrt-depth-weak",
              lambda: bound_row_l1_sqrt_depth_weak(prof, B, m, ctx.n),
              True, "exponential-moment peeling, data-radius form; exact constants", True),
        entry("frobenius-depth-free",
              lambda: bound_frobenius_depth_free(prof, B, m, gamma),
              False, f"rank-1 layer split + univariate Lipschitz composition; {note}", True),
        entry("schatten-depth-free",
              lambda: bound_schatten_depth_free(prof, B, m, gamma, ctx.h, p)
              if not math.isinf(p) and m >= 2 else None,
              False, f"rank-1 layer split over spectral/(2,1) budgets; {note}", True),
        entry("lipschitz-cover", lambda: bound_lipschitz_cover(prof, B, m, gamma, ctx.n),
              False, f"metric entropy of bounded Lipschitz functions; {note}"),
        entry("schatten-lower", lambda: bound_lower(prof.schatten, B, m, gamma, ctx.h, p),
              False, f"explicit construction floor; {note}"),
    )
    return BoundReport(entries=entries, context=ctx)
