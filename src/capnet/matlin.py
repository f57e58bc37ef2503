"""Dense matrix primitives: SVD, matrix norms, and Euclidean norm-ball projections.

Matrices are 2-D float64 numpy arrays with finite entries, validated through
:func:`as_matrix`.  The SVD, the norms, the ball projections and the support
map also take a stack (n, rows, cols) of matrices and work slice by slice:
every slice comes out bit-identical to the same call on that matrix alone.
Every function here is pure: arrays are treated as immutable and are never
modified in place, so values are safe to share between concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

MAX_SIDE = 1024        # documented working range for svd()
MAX_SCHATTEN_P = 64.0  # beyond this the Schatten norm is numerically spectral
_EPS = float(np.finfo(np.float64).eps)


def as_matrix(entries) -> np.ndarray:
    """Validated matrix constructor from a 2-D array-like.

    Rejects empty shapes and non-finite entries.
    """
    a = np.asarray(entries, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _as_stack(entries) -> np.ndarray:
    """:func:`as_matrix` for a matrix or a stack (n, rows, cols) of them."""
    a = np.asarray(entries, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix or a 3-D stack of them, got ndim={a.ndim}")
    if 0 in a.shape:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class NormKind:
    """A matrix norm selector.

    tag is one of ``spectral``, ``frobenius``, ``schatten`` (with exponent
    ``p``), ``rows_l2_sum`` (sum of Euclidean row norms, i.e. the (2,1)-norm
    of the transpose) or ``rows_l1_max`` (largest l1 row norm).
    """

    tag: str
    p: float | None = None

    def __post_init__(self):
        if self.tag not in ("spectral", "frobenius", "schatten", "rows_l2_sum", "rows_l1_max"):
            raise ValueError(f"unknown norm tag {self.tag!r}")
        if self.tag == "schatten":
            if self.p is None:
                raise ValueError("schatten norm requires an exponent p")
            _check_schatten_p(self.p)
        elif self.p is not None:
            raise ValueError(f"norm {self.tag!r} takes no exponent")


SPECTRAL = NormKind("spectral")
FROBENIUS = NormKind("frobenius")
ROWS_L2_SUM = NormKind("rows_l2_sum")
ROWS_L1_MAX = NormKind("rows_l1_max")


def _check_schatten_p(p: float) -> None:
    """Reject a Schatten exponent outside [1, MAX_SCHATTEN_P] (inf and nan too)."""
    if not p >= 1.0:
        raise ValueError(f"schatten exponent must satisfy p >= 1, got {p}")
    if p > MAX_SCHATTEN_P:
        raise ValueError(
            f"schatten exponent {p} exceeds {MAX_SCHATTEN_P:g}; values this large are "
            "numerically indistinguishable from the spectral norm, use SPECTRAL instead"
        )


def schatten(p: float) -> NormKind:
    """Schatten-p norm selector; p = inf maps to the spectral tag."""
    p = float(p)
    if math.isinf(p) and p > 0:
        return SPECTRAL
    return NormKind("schatten", p)


@dataclass(frozen=True)
class BallConstraint:
    """A norm ball ``{W : norm(W, kind) <= radius}`` with radius > 0."""

    kind: NormKind
    radius: float

    def __post_init__(self):
        _check_radius(self.radius)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``W = left @ diag(singular) @ right.T``.

    left is rows x k and right is cols x k, both with orthonormal columns;
    singular values are non-negative and non-increasing; k = min(rows, cols).
    The SVD of a stack (n, rows, cols) holds one such factor per slice, with
    a leading axis of length n on each field.
    """

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular[..., None, :]) @ self.right.swapaxes(-1, -2)


def _lapack_svd(w, **options):
    """numpy's SVD of w, validated and guarded as :func:`svd` describes."""
    w = _as_stack(w)
    if max(w.shape[-2:]) > MAX_SIDE:
        raise ValueError(f"matrix side {max(w.shape[-2:])} exceeds supported range {MAX_SIDE}")
    try:
        return np.linalg.svd(w, **options)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for a {w.shape} matrix") from exc


def svd(w) -> SvdResult:
    """Full-accuracy thin SVD of a dense matrix (sides at most MAX_SIDE), or
    of every slice of a stack of them.

    Deterministic for a fixed input.  Non-convergence of the underlying
    solver raises :class:`NumericalError` rather than returning garbage.
    """
    u, s, vh = _lapack_svd(w, full_matrices=False)
    return SvdResult(left=u, singular=np.maximum(s, 0.0), right=vh.swapaxes(-1, -2))


def singular_values(w) -> np.ndarray:
    """Singular values of w (a row per slice of a stack), non-increasing."""
    return np.maximum(_lapack_svd(w, compute_uv=False), 0.0)


def matrix_norm(w, kind: NormKind):
    """Evaluate the selected matrix norm of w: a float, or an array of one
    norm per slice of a stack (n, rows, cols).  A Frobenius norm sums a
    stack's slices in C order, as np.linalg.norm does a C-contiguous matrix."""
    if kind.tag in ("spectral", "schatten"):
        return singular_norm(singular_values(w), kind)
    w = _as_stack(w)
    if kind.tag == "frobenius":
        if w.ndim == 2:
            return float(np.linalg.norm(w))
        # np.linalg.norm of a matrix is the dot of its ravel with itself, and
        # a stacked (1, size) @ (size, 1) product takes that same dot
        flat = w.reshape(w.shape[0], 1, -1)
        return np.sqrt((flat @ flat.swapaxes(-1, -2))[:, 0, 0])
    if kind.tag == "rows_l2_sum":
        out = np.sqrt((w * w).sum(axis=-1)).sum(axis=-1)
    else:
        out = np.abs(w).sum(axis=-1).max(axis=-1)
    return float(out) if w.ndim == 2 else out


def singular_norm(s: np.ndarray, kind: NormKind):
    """Spectral or Schatten norm from a matrix's singular values s: a float,
    or an array of one norm per row of a stack (n, k) of them."""
    if kind.tag == "spectral":
        return float(s[0]) if s.ndim == 1 else s[:, 0]
    if kind.tag == "schatten":
        return _lp_vec_norm(s, kind.p) if s.ndim == 1 else _lp_row_norms(s, kind.p)
    raise ValueError(f"norm {kind.tag!r} is not a function of the singular values")


def rank1_approx(w) -> tuple[np.ndarray, float]:
    """Best rank-1 approximation and its spectral error.

    Returns ``(s1 * u1 v1^T, s2)`` built from the leading singular triple;
    the error equals the second singular value (0 when min(rows, cols) = 1).
    The approximation never exceeds the input in spectral or any Schatten
    norm.  A zero matrix returns (zeros, 0.0); any leading singular pair is
    acceptable under ties, and the deterministic solver ordering picks one.
    """
    r = svd(w)
    if not r.singular[0] > 0:
        return np.zeros((r.left.shape[0], r.right.shape[0])), 0.0
    approx = r.singular[0] * np.outer(r.left[:, 0], r.right[:, 0])
    err = float(r.singular[1]) if r.singular.size > 1 else 0.0
    return approx, err


# ---------------------------------------------------------------------------
# Euclidean (Frobenius-distance) projections onto norm balls
# ---------------------------------------------------------------------------

def _check_radius(radius: float) -> None:
    if not radius > 0:
        raise ValueError(f"ball radius must be positive, got {radius}")


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Project a vector onto the l1 ball by the sorted-threshold rule.

    rho is the last sorted position that passes the threshold test; when
    rounding fails it everywhere (entries some 2^53 times the radius) rho is
    0 and the result is the zero vector.
    """
    _check_radius(radius)
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    hits = np.nonzero(u - (css - radius) / ks > 0)[0]
    rho = hits[-1] if hits.size else 0
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_l1_rows(w, radius: float) -> np.ndarray:
    """Project every row of a (rows, n) stack onto the l1 ball.

    The sorted-threshold rule of :func:`project_l1_ball` along the last
    axis, with one sort and one cumsum for the whole stack; each row comes
    out bit-identical to ``project_l1_ball(row, radius)``, and rows inside
    the ball come back unchanged.
    """
    _check_radius(radius)
    w = np.asarray(w, dtype=np.float64)
    a = np.abs(w)
    inside = a.sum(axis=1) <= radius
    if inside.all():
        return w.copy()
    u = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, w.shape[1] + 1)
    hits = u - (css - radius) / ks > 0
    rho = np.where(hits.any(axis=1), w.shape[1] - 1 - hits[:, ::-1].argmax(axis=1), 0)
    theta = (css[np.arange(w.shape[0]), rho] - radius) / (rho + 1.0)
    return np.where(inside[:, None], w, np.sign(w) * np.maximum(a - theta[:, None], 0.0))


def _lp_vec_norm(a: np.ndarray, p: float) -> float:
    # normalise by the top value so a**p cannot overflow for large p
    top = float(a.max(initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((a / top) ** p) ** (1.0 / p))


def _lp_row_norms(a: np.ndarray, p: float) -> np.ndarray:
    """:func:`_lp_vec_norm` of every row of a (a >= 0), bit for bit.  At p = 1
    the powers are the identity and all rows take one pass; other p go row by
    row, as a power of a whole array may round differently from a scalar one."""
    if p != 1.0:
        return np.array([_lp_vec_norm(row, p) for row in a])
    top = a.max(axis=1, initial=0.0)
    return top * (a / np.where(top > 0.0, top, 1.0)[:, None]).sum(axis=1)


def _lp_shrink(a: np.ndarray, p: float, lam: float) -> np.ndarray:
    """Solve x + lam*p*x^(p-1) = a coordinate-wise on [0, a] (a >= 0).

    Safeguarded Newton: iterates stay inside a per-coordinate bracket, and
    any step that leaves it, or whose residual/derivative overflowed, falls
    back to bisection.  The bracket keeps halving on fallback, so large p
    (where x^(p-1) overflows far from the root) still converges.
    """
    if lam == 0.0:
        return a.copy()
    scale = max(1.0, float(a.max(initial=0.0)))
    # the root also satisfies lam*p*x^(p-1) <= a, which gives a far tighter
    # bracket top than a itself when p is large (Newton would otherwise crawl
    # down x^(p-1) at a relative rate of only 1/(p-1) per step)
    with np.errstate(over="ignore", divide="ignore"):
        cap = np.power(a / (lam * p), 1.0 / (p - 1.0))
    hi = np.minimum(a, np.where(np.isfinite(cap), cap, a))
    if p >= 2.0:
        # f is convex and increasing, f(cap) >= 0, and iterates never leave
        # [root, cap], so plain Newton from the cap descends monotonically
        # with nothing able to overflow
        lamp = lam * p
        x = hi
        for _ in range(80):
            xq = x ** (p - 2.0)
            f = x + lamp * xq * x - a
            nxt = x - f / (1.0 + lamp * (p - 1.0) * xq)
            done = float(np.max(np.abs(nxt - x), initial=0.0)) <= 1e-16 * scale
            x = nxt
            if done:
                break
        return np.maximum(x, 0.0)
    lo = np.zeros_like(a)
    x = np.minimum(a / (1.0 + lam * p), hi)
    for _ in range(110):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            f = x + lam * p * np.power(x, p - 1.0) - a
            df = 1.0 + lam * p * (p - 1.0) * np.power(x, p - 2.0)
            step = f / df
        sign = np.where(np.isnan(f), 1.0, np.sign(f))  # overflowed residual is positive
        f = np.where(np.isnan(f), np.inf, f)
        if np.max(np.abs(np.where(np.isfinite(f), f, 1.0)), initial=0.0) <= 1e-13 * scale:
            break
        lo = np.where(sign < 0, x, lo)
        hi = np.where(sign > 0, x, hi)
        nxt = x - step
        bad = ~np.isfinite(nxt) | (nxt <= lo) | (nxt >= hi) | ~np.isfinite(f)
        nxt = np.where(bad, 0.5 * (lo + hi), nxt)
        x = nxt
        if np.max(hi - lo, initial=0.0) <= 1e-15 * scale:
            break
    return np.maximum(x, 0.0)


def _lp_slope(x: np.ndarray, p: float, lam: float, phi: float) -> float:
    """-d||x(lam)||_p / dlam at the shrink x = x(lam), whose norm is phi.

    Uses the implicit derivative dx/dlam = -p x^(p-1) / (1 + lam p (p-1) x^(p-2)),
    written as -p x / (x^(2-p) + lam p (p-1)) so that no power overflows.
    """
    x = x[x > 0]
    with np.errstate(over="ignore", divide="ignore"):
        dx = p * x / (x ** (2.0 - p) + lam * p * (p - 1.0))
    return float(np.sum((x / phi) ** (p - 1.0) * dx))


def _lp_multiplier(a: np.ndarray, p: float, radius: float) -> tuple[float, float]:
    """The multiplier lam* at which the shrink of a (a >= 0, outside the
    ball) reaches the l_p sphere, and the half-width of a band around lam*
    outside which the computed test ||shrink(a, lam)||_p > radius is certain.

    The computed norm of a shrink is within err of the exact one: the inner
    solve stops within 1e-13*scale of the root in every coordinate, one
    coordinate moves the norm by at most as much, and rounding adds a few
    ulps per coordinate.  err divided by the norm's slope at lam* bounds how
    far from lam* the test can answer wrongly; the band is four times that.

    lam* comes in closed form at p = 2 and otherwise from Newton on
    (||x(lam)||_p / radius)^(1-p) - 1, which is linear in lam at p = 2 and
    for large lam, safeguarded by bisection inside [0, lam_cap], where every
    coordinate's cap (a / (lam p))^(1/(p-1)) already lies on the sphere.
    Returns (nan, nan) when lam_cap overflows or Newton does not converge.
    """
    top = float(a.max())
    err = a.size * (1e-13 * max(1.0, top) + 8.0 * _EPS * radius)
    if p == 2.0:
        # ||x(lam)||_2 = ||a||_2 / (1 + 2 lam), of slope 2 radius / (1 + 2 lam*) at lam*
        lam = 0.5 * (_lp_vec_norm(a, 2.0) / radius - 1.0)
        return lam, 2.0 * err * (1.0 + 2.0 * lam) / radius
    log_cap = math.log(top / p) + (p - 1.0) * math.log(
        _lp_vec_norm((a / top) ** (1.0 / (p - 1.0)), p) / radius)
    if not log_cap < 709.0:
        return math.nan, math.nan
    lo, hi = 0.0, math.exp(log_cap)
    lam, x = 0.0, a
    for _ in range(60):
        phi = _lp_vec_norm(x, p)
        if phi > radius:
            lo = lam
        else:
            hi = lam
        slope = _lp_slope(x, p, lam, phi)
        nxt = math.nan
        if 0.0 < slope < math.inf:
            ratio = phi / radius
            step = radius * ratio * math.expm1(min(709.0, (p - 1.0) * math.log(ratio))) \
                / ((p - 1.0) * slope)
            band = 4.0 * err / slope
            if abs(step) <= band / 8.0:
                return lam + step, band
            nxt = lam + step
        lam = nxt if lo < nxt <= hi else 0.5 * (lo + hi)
        x = _lp_shrink(a, p, lam)
    return math.nan, math.nan


def project_lp_ball(v, p: float, radius: float) -> np.ndarray:
    """Project a vector, or every row of a stack (n, k) of them, onto the l_p
    ball, 1 <= p <= MAX_SCHATTEN_P.

    p = 1 uses the sorted-threshold rule, on a stack :func:`project_l1_rows`;
    other p project a stack row by row.  General p bisects the Lagrange
    multiplier lam of the coordinate-wise shrink x + lam*p*x^(p-1) = |v|
    (bracket [0, max|v|/p] widened by doubling, at most 200 steps,
    tolerance 1e-10) and returns the shrink at the final bracket's top.

    Each bisection step only learns whether the shrink at its midpoint lies
    outside the ball, so the bisection is replayed from the multiplier lam*
    solved directly (:func:`_lp_multiplier`): a midpoint outside the band
    around lam* is answered by its side of lam*, one inside it evaluates the
    shrink.  The replay checks itself: the shrink at the final bracket's
    bottom (when above 0) must lie outside the ball and the one at its top
    inside.  Outside the band the test is monotone in lam, so one wrong
    answer shows at one of the two ends; the bisection then runs again with
    every step evaluated.  Either way the result is the evaluated
    bisection's, bit for bit.

    When the multiplier overflows (large p, radius far below |v|) the
    shrink comes out nan; the problem for v / radius on the unit ball, whose
    multiplier is radius^(p-2) times smaller, is then solved and scaled back.
    A nan there raises :class:`NumericalError`.
    """
    _check_schatten_p(p)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2:
        if p == 1.0:
            return project_l1_rows(v, radius)
        out = np.empty_like(v)
        for i, row in enumerate(v):
            out[i] = _project_lp(row, p, radius)
        return out
    if p == 1.0:
        return project_l1_ball(v, radius)
    return _project_lp(v, p, radius)


def _project_lp(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """:func:`project_lp_ball` of the vector v for 1 < p <= MAX_SCHATTEN_P."""
    a = np.abs(v)
    if _lp_vec_norm(a, p) <= radius:
        return v.copy()

    def outside(lam):
        return _lp_vec_norm(_lp_shrink(a, p, lam), p) > radius

    def bisect(pred):
        lo, hi = 0.0, float(a.max()) / p
        # the textbook bracket max(a)/p can undershoot for p > 1; widen until feasible
        while pred(hi):
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * max(1.0, hi):
                break
        return lo, hi

    # (a nan lam* answers every step "inside" and is judged by the same check)
    star, band = _lp_multiplier(a, p, radius)
    lo, hi = bisect(lambda lam: outside(lam) if abs(lam - star) <= band else lam < star)
    x = _lp_shrink(a, p, hi)
    if not ((lo == 0.0 or outside(lo)) and _lp_vec_norm(x, p) <= radius):
        with np.errstate(over="ignore", invalid="ignore"):  # nan is handled below
            lo, hi = bisect(outside)
            x = _lp_shrink(a, p, hi)
        if not np.isfinite(x).all():
            if radius == 1.0:
                raise NumericalError(f"l_{p:g}-ball projection overflowed its multiplier")
            return radius * _project_lp(v / radius, p, 1.0)
    return np.sign(v) * x


def project_to_ball(w, c: BallConstraint) -> np.ndarray:
    """Euclidean (Frobenius-distance) projection of w onto the ball c.

    Norms are compared with ``radius * (1 + 1e-12)``: an input within it is
    returned unchanged, and the result lies within it.  Spectral and
    Schatten balls take one SVD for the norm check and the projection: they
    project the singular-value vector, whose norm stands for the result's,
    and reconstruct with the input's singular vectors.  Row-structured balls
    project each row independently.  A stack (n, rows, cols) is projected
    slice by slice, with one SVD for the whole stack; its slices within the
    ball keep their bits.
    """
    w = np.asarray(w, dtype=np.float64)  # svd or matrix_norm validates it
    if w.ndim != 2:
        return _project(w, c)[0]
    out, outside = _project(w[None], c)
    return out[0] if outside[0] else w


def _project(w: np.ndarray, c: BallConstraint) -> tuple[np.ndarray, np.ndarray]:
    """:func:`project_to_ball` of a stack w (n, rows, cols), and which of its
    slices were outside the ball (the others come back as they are)."""
    kind = c.kind
    limit = c.radius * (1.0 + 1e-12)
    if kind.tag in ("spectral", "schatten"):
        r = svd(w)
        outside = ~(singular_norm(r.singular, kind) <= limit)
        every = outside.all()
        if not (every or outside.any()):
            return w, outside
        pick = slice(None) if every else outside
        s = r.singular[pick]
        if kind.tag == "spectral":
            s = np.minimum(s, c.radius)
            again = None  # a clip at the radius always passes the check
        else:
            s = project_lp_ball(s, kind.p, c.radius)
            again = ~(singular_norm(s, kind) <= limit)
        proj = (r.left[pick] * s[:, None, :]) @ r.right[pick].swapaxes(-1, -2)
    else:
        norms = matrix_norm(w, kind)
        outside = ~(norms <= limit)
        every = outside.all()
        if not (every or outside.any()):
            return w, outside
        pick = slice(None) if every else outside
        v = w[pick]
        if kind.tag == "frobenius":
            proj = v * (c.radius / norms[pick])[:, None, None]
        elif kind.tag == "rows_l1_max":
            proj = project_l1_rows(v.reshape(-1, v.shape[-1]), c.radius).reshape(v.shape)
        else:  # rows_l2_sum
            rows = np.sqrt((v * v).sum(axis=-1))
            shrunk = project_l1_rows(rows, c.radius)
            scale = np.divide(shrunk, rows, out=np.zeros_like(rows), where=rows > 0)
            proj = v * scale[..., None]
        again = ~(matrix_norm(proj, kind) <= limit)
    # the l1-type projections (Schatten-1 and the row norms) overshoot by about
    # size * eps times the input's norm, which far outside exceeds the limit
    if again is not None and again.any():
        proj[again] = _project(proj[again], c)[0]
    if every:
        return proj, outside
    out = w.copy()
    out[outside] = proj
    return out, outside


def linear_maximizer(g, c: BallConstraint) -> np.ndarray:
    """argmax of <W, G> over the ball c (the ball's support-point map), for G
    or for every slice of a stack (n, rows, cols) of them.

    Used by the constrained ascent to polish candidates; returns a boundary
    point of the ball for any nonzero gradient G, and 0 for G = 0.
    """
    kind = c.kind
    if kind.tag in ("spectral", "schatten"):
        r = svd(g)
        if kind.tag == "spectral":
            out = c.radius * (r.left @ r.right.swapaxes(-1, -2))
        else:
            support = _lp_support(r.singular, kind.p, c.radius)
            out = (r.left * support[..., None, :]) @ r.right.swapaxes(-1, -2)
        return np.where(r.singular[..., :1, None] > 0, out, 0.0)
    g = _as_stack(g)
    nonzero = g.reshape(*g.shape[:-2], -1).any(axis=-1)[..., None, None]
    if kind.tag == "frobenius":
        norm = np.asarray(matrix_norm(g, kind))[..., None, None]
        return np.where(nonzero, g * (c.radius / np.where(nonzero, norm, 1.0)), 0.0)
    if kind.tag == "rows_l1_max":
        idx = np.abs(g).argmax(axis=-1)[..., None]
        out = np.zeros_like(g)
        np.put_along_axis(out, idx, c.radius * np.sign(np.take_along_axis(g, idx, -1)), -1)
        return np.where(nonzero, out, 0.0)
    norms = np.sqrt((g * g).sum(axis=-1))[..., None]  # rows_l2_sum
    best = norms.argmax(axis=-2)[..., None]
    top = np.take_along_axis(norms, best, -2)
    out = g * (c.radius / np.where(nonzero, top, 1.0))
    return np.where(nonzero & (np.arange(g.shape[-2])[:, None] == best), out, 0.0)


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; maps 1 <-> inf."""
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def _lp_support(g: np.ndarray, p: float, radius: float) -> np.ndarray:
    """argmax of <x, g> over the nonnegative l_p ball, for g >= 0 or for every
    row of a stack (n, k) of such g."""
    if p == 1.0:
        out = np.zeros_like(g)
        np.put_along_axis(out, g.argmax(axis=-1)[..., None], radius, -1)
        return out
    if g.ndim == 2:
        return np.array([_lp_support(row, p, radius) for row in g])
    q = dual_exponent(p)
    top = float(g.max())
    if top == 0.0:
        return np.zeros_like(g)
    scaled = (g / top) ** (q - 1.0)
    return radius * scaled / _lp_vec_norm(scaled, p)
