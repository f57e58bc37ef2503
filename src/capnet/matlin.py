"""Dense matrix primitives: SVD, matrix norms, and Euclidean norm-ball projections.

Matrices are 2-D float64 numpy arrays with finite entries, validated through
:func:`as_matrix`.  The SVD, the norms, the ball projections and the support
map also take a stack (n, rows, cols) of matrices and work on all of its
slices at once, the l_p machinery of the Schatten norms on the stack's rows
of singular values in one pass; a ball projection also takes a list of
stacks, whose rows of singular values a Schatten ball projects together.
Every slice comes out bit-identical to the same call on that matrix alone.
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


def _lp_row_norms(a: np.ndarray, p: float):
    """l_p norm of every row of a stack (n, k) of vectors a >= 0, or of a
    vector (a float64 scalar).

    Each row is divided by its top value, so that a**p cannot overflow for
    large p.  The root of each row's sum is a scalar power, libm's pow: a
    power of a whole array follows numpy's SIMD dispatch and may round
    differently.
    """
    top = a.max(axis=-1)
    # an all-zero row divides by the least subnormal, which any top > 0 exceeds
    sums = ((a / np.maximum(top, 5e-324)[..., None]) ** p).sum(axis=-1)
    if p == 1.0:  # the root is the identity
        return top * sums
    root = 1.0 / p
    return top * ([s ** root for s in sums.tolist()] if a.ndim > 1 else sums ** root)


def _lp_vec_norm(a: np.ndarray, p: float) -> float:
    """:func:`_lp_row_norms` of the vector a, as a float."""
    return float(_lp_row_norms(a, p))


def _lp_shrink(a: np.ndarray, p: float, lam) -> np.ndarray:
    """Solve x + lam*p*x^(p-1) = a coordinate-wise on [0, a] (a >= 0), for a
    vector a and a float lam, or for every row of a stack (n, k) with its own
    multiplier lam[i].

    Safeguarded Newton: iterates stay inside a per-coordinate bracket, and
    any step that leaves it, or whose residual/derivative overflowed, falls
    back to bisection.  The bracket keeps halving on fallback, so large p
    (where x^(p-1) overflows far from the root) still converges.  Each step
    computes only the rows still iterating, and a row keeps its iterate from
    the step at which its own stop test passes, so it comes out as it would
    alone; a row with lam = 0 is a.
    """
    x0 = a.reshape(-1, a.shape[-1])
    scale = np.maximum(x0.max(axis=1), 1.0)
    with np.errstate(all="ignore"):
        # lam*p and lam*p*(p-1) element by element, as the scalar products were
        lamp = np.repeat(np.multiply(lam, p), x0.shape[1]).reshape(x0.shape)
        lampm = lamp * (p - 1.0)
        on = np.flatnonzero(lamp[:, 0] != 0.0)
        # the root also satisfies lam*p*x^(p-1) <= a, which gives a far tighter
        # bracket top than a itself when p is large (Newton would otherwise crawl
        # down x^(p-1) at a relative rate of only 1/(p-1) per step); a cap that
        # is not finite (lam = 0 among them) leaves a
        hi = np.fmin(x0, np.power(x0 / lamp, 1.0 / (p - 1.0)))
        x = hi if p >= 2.0 else np.minimum(x0 / (1.0 + lamp), hi)
        # the rows `on` still iterating: their iterate first, then what they step with
        rows = [x[on], x0[on], lamp[on], lampm[on], scale[on]]
        if p >= 2.0:
            # f is convex and increasing, f(cap) >= 0, and iterates never leave
            # [root, cap], so plain Newton from the cap descends monotonically
            # with nothing able to overflow
            for _ in range(80):
                if not on.size:
                    break
                xs, a0, lp, lpm, sc = rows
                xq = xs ** (p - 2.0)
                rows[0] = xs - (xs + lp * xq * xs - a0) / (1.0 + lpm * xq)
                on, rows = _keep(x, on, ~(np.abs(rows[0] - xs).max(axis=1) <= 1e-16 * sc), rows)
            return np.maximum(x, 0.0).reshape(a.shape)
        rows += [np.zeros_like(rows[0]), hi[on]]
        for _ in range(110):
            if not on.size:
                break
            xs, a0, lp, lpm, sc, lo, up = rows
            f = xs + lp * np.power(xs, p - 1.0) - a0
            df = 1.0 + lpm * np.power(xs, p - 2.0)
            # a residual that overflowed (inf or nan) counts as 1 in the stop test
            # and as positive in the bracket; its step is never finite
            res = np.abs(f)
            going = np.where(res < np.inf, res, 1.0).max(axis=1) > 1e-13 * sc
            on, (xs, a0, lp, lpm, sc, lo, up, f, df) = _keep(x, on, going, rows + [f, df])
            lo = np.where(f < 0.0, xs, lo)
            up = np.where(f <= 0.0, up, xs)
            nxt = xs - f / df
            rows = [np.where((nxt > lo) & (nxt < up), nxt, 0.5 * (lo + up)),
                    a0, lp, lpm, sc, lo, up]
            on, rows = _keep(x, on, (up - lo).max(axis=1) > 1e-15 * sc, rows)
    return np.maximum(x, 0.0).reshape(a.shape)


def _keep(x, on, going, rows):
    """Write the iterates rows[0] of the rows `on` into x; return the rows
    still `going` and their arrays in rows."""
    x[on] = rows[0]
    return (on, rows) if going.all() else (on[going], [r[going] for r in rows])


def _lp_slope(x: np.ndarray, p: float, lam: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """-d||x(lam)||_p / dlam at the shrinks x = x(lam) of a stack (n, k), one
    per row, whose norms are phi.

    Uses the implicit derivative dx/dlam = -p x^(p-1) / (1 + lam p (p-1) x^(p-2)),
    written as -p x / (x^(2-p) + lam p (p-1)) so that no power overflows, and
    sums each row over its positive entries alone; its bits steer only lam*.
    """
    with np.errstate(all="ignore"):
        dx = p * x / (x ** (2.0 - p) + lam[:, None] * p * (p - 1.0))
        return np.where(x > 0.0, (x / phi[:, None]) ** (p - 1.0) * dx, 0.0).sum(axis=1)


def _lp_multiplier(a: np.ndarray, p: float, radius: float):
    """The multiplier lam* at which the shrink of a (a >= 0, outside the
    ball) reaches the l_p sphere, and the half-width of a band around lam*
    outside which the computed test ||shrink(a, lam)||_p > radius is certain;
    for a vector, or one of each for every row of a stack (n, k).

    The computed norm of a shrink is within err of the exact one: the inner
    solve stops within 1e-13*scale of the root in every coordinate, one
    coordinate moves the norm by at most as much, and rounding adds a few
    ulps per coordinate.  err divided by the norm's slope at lam* bounds how
    far from lam* the test can answer wrongly; the band is four times that.

    lam* comes in closed form at p = 2 and otherwise from Newton on
    (||x(lam)||_p / radius)^(1-p) - 1, which is linear in lam at p = 2 and
    for large lam, safeguarded by bisection inside [0, lam_cap], where every
    coordinate's cap (a / (lam p))^(1/(p-1)) already lies on the sphere.
    The shrinks, norms and slopes of the rows still iterating are taken
    together; each row's Newton update is its own, in floats.  A row gets
    (nan, nan) when lam_cap overflows or Newton does not converge.
    """
    rows = a.reshape(-1, a.shape[-1])
    top = rows.max(axis=1)
    err = rows.shape[1] * (1e-13 * np.maximum(1.0, top) + 8.0 * _EPS * radius)
    if p == 2.0:
        # ||x(lam)||_2 = ||a||_2 / (1 + 2 lam), of slope 2 radius / (1 + 2 lam*) at lam*
        lam = 0.5 * (_lp_row_norms(rows, 2.0) / radius - 1.0)
        band = 2.0 * err * (1.0 + 2.0 * lam) / radius
        return lam.reshape(a.shape[:-1]), band.reshape(a.shape[:-1])
    star, band = np.full(len(rows), math.nan), np.full(len(rows), math.nan)
    err = err.tolist()
    caps = _lp_row_norms((rows / top[:, None]) ** (1.0 / (p - 1.0)), p).tolist()
    log_caps = [math.log(t / p) + (p - 1.0) * math.log(c / radius)
                for t, c in zip(top.tolist(), caps)]
    live = [i for i, c in enumerate(log_caps) if c < 709.0]
    lo, hi = [0.0] * len(rows), [math.exp(c) if c < 709.0 else 0.0 for c in log_caps]
    lam, x = [0.0] * len(live), rows[live]
    for _ in range(60):
        phi = _lp_row_norms(x, p).tolist()
        slopes = _lp_slope(x, p, np.array(lam), np.array(phi)).tolist()
        going, nxt_lam = [], []
        for i, f, slope, at in zip(live, phi, slopes, lam):
            if f > radius:
                lo[i] = at
            else:
                hi[i] = at
            nxt = math.nan
            if 0.0 < slope < math.inf:
                ratio = f / radius
                step = radius * ratio * math.expm1(min(709.0, (p - 1.0) * math.log(ratio))) \
                    / ((p - 1.0) * slope)
                width = 4.0 * err[i] / slope
                if abs(step) <= width / 8.0:
                    star[i], band[i] = at + step, width
                    continue
                nxt = at + step
            going.append(i)
            nxt_lam.append(nxt if lo[i] < nxt <= hi[i] else 0.5 * (lo[i] + hi[i]))
        live, lam = going, nxt_lam
        if not live:
            break
        x = _lp_shrink(rows[live], p, np.array(lam))
    return star.reshape(a.shape[:-1]), band.reshape(a.shape[:-1])


def project_lp_ball(v, p: float, radius: float, norms=None) -> np.ndarray:
    """Project a vector, or every row of a stack (n, k) of them, onto the l_p
    ball, 1 <= p <= MAX_SCHATTEN_P.  norms, when given, are the rows' l_p
    norms as :func:`_lp_row_norms` takes them (read for p > 1).

    p = 1 uses the sorted-threshold rule, on a stack :func:`project_l1_rows`.
    General p bisects the Lagrange multiplier lam of the coordinate-wise
    shrink x + lam*p*x^(p-1) = |v| (bracket [0, max|v|/p] widened by
    doubling, at most 200 steps, tolerance 1e-10) and returns the shrink at
    the final bracket's top, whose norm is at most the radius.

    Each bisection step only learns whether the shrink at its midpoint lies
    outside the ball, so the bisection is replayed from the multiplier lam*
    solved directly (:func:`_lp_multiplier`): a midpoint outside the band
    around lam* is answered by its side of lam*, one inside it evaluates the
    shrink.  The replay checks itself: the shrink at the final bracket's
    bottom (when above 0) must lie outside the ball and the one at its top
    inside.  Outside the band the test is monotone in lam, so one wrong
    answer shows at one of the two ends; the bisection then runs again with
    every step evaluated.  Either way the result is the evaluated
    bisection's, bit for bit.  Each row of a stack bisects alone, one
    evaluated shrink at a time; the rows share the multiplier solve and the
    end check, and every row gets the bits of its projection alone.

    When the multiplier overflows (large p, radius far below |v|) the
    shrink comes out nan; the problem for v / radius on the unit ball, whose
    multiplier is radius^(p-2) times smaller, is then solved and scaled back.
    A nan there raises :class:`NumericalError`.
    """
    _check_schatten_p(p)
    v = np.asarray(v, dtype=np.float64)
    if p == 1.0:
        return project_l1_rows(v, radius) if v.ndim == 2 else project_l1_ball(v, radius)
    return _project_lp(v.reshape(-1, v.shape[-1]), p, radius, norms).reshape(v.shape)


def _project_lp(v: np.ndarray, p: float, radius: float, norms=None) -> np.ndarray:
    """:func:`project_lp_ball` of the stack v (n, k) for 1 < p <= MAX_SCHATTEN_P."""
    a = np.abs(v)
    if norms is None:
        norms = _lp_row_norms(a, p)
    out = v.copy()
    todo = np.flatnonzero(~(norms <= radius))
    if not todo.size:
        return out
    a = a[todo]
    tops = a.max(axis=1).tolist()

    def bisect(i, star, band):
        # row i's bisection: a step within the band around lam* evaluates whether
        # the shrink there lies outside the ball, any other step answers by its
        # side of lam*
        lo, hi = 0.0, tops[i] / p
        row = a[i:i + 1]
        # the textbook bracket max(a)/p can undershoot for p > 1; widen until feasible
        while (_lp_row_norms(_lp_shrink(row, p, np.array([hi])), p)[0] > radius
               if abs(hi - star) <= band else hi < star):
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (_lp_row_norms(_lp_shrink(row, p, np.array([mid])), p)[0] > radius
                    if abs(mid - star) <= band else mid < star):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * (hi if hi > 1.0 else 1.0):
                break
        return lo, hi

    # (a nan lam* answers every step "inside" and is judged by the same check)
    star, band = (np.ravel(s).tolist() for s in _lp_multiplier(a, p, radius))
    lo, hi = np.array([bisect(i, s, b) for i, (s, b) in enumerate(zip(star, band))]).T
    # the shrinks at every bracket's top and at the bottoms above 0, in one pass
    up = np.flatnonzero(lo != 0.0)
    x = _lp_shrink(np.concatenate([a, a[up]]), p, np.concatenate([hi, lo[up]]))
    ends = _lp_row_norms(x, p)
    x, ok = x[:len(todo)], ends[:len(todo)] <= radius
    ok[up] &= ends[len(todo):] > radius
    redo = np.flatnonzero(~ok)
    if redo.size:
        hi = np.array([bisect(i, 0.0, math.inf)[1] for i in redo])
        x[redo] = _lp_shrink(a[redo], p, hi)
    out[todo] = np.sign(v[todo]) * x
    nan = todo[~np.isfinite(x).all(axis=1)]
    if nan.size:
        if radius == 1.0:
            raise NumericalError(f"l_{p:g}-ball projection overflowed its multiplier")
        out[nan] = radius * _project_lp(v[nan] / radius, p, 1.0)
    return out


def project_to_ball(w, c: BallConstraint):
    """Euclidean (Frobenius-distance) projection of w onto the ball c.

    Norms are compared with ``radius * (1 + 1e-12)``: an input within it is
    returned unchanged, and the result lies within it.  Spectral and
    Schatten balls take one SVD for the norm check and the projection: they
    project the singular-value vector, whose norm stands for the result's,
    and reconstruct with the input's singular vectors.  Row-structured balls
    project each row independently.  A stack (n, rows, cols) is projected
    slice by slice, with one SVD for the whole stack; its slices within the
    ball keep their bits.

    A list of matrices and stacks returns the list of their projections,
    each with the bits of its own call; a Schatten ball takes one SVD per
    entry and projects the singular values of all entries together.
    """
    many = isinstance(w, list)
    ws = [np.asarray(x, float) for x in (w if many else [w])]  # svd or matrix_norm validates
    outs = _project([x[None] if x.ndim == 2 else x for x in ws], c)
    outs = [(out[0] if outside[0] else x) if x.ndim == 2 else out
            for x, (out, outside) in zip(ws, outs)]
    return outs if many else outs[0]


def project_masked(w, c: BallConstraint, mask) -> np.ndarray:
    """Euclidean projection of w, or of every slice of a stack, onto the
    ball c among the matrices 0 off mask, a 0/1 partial permutation (checked
    by the caller).  There the singular values are the masked entries'
    absolute values, one per row, so c is the l_p ball of those entries and
    one step of :func:`_project_rows` is exact; norms are compared with
    ``radius * (1 + 1e-12)``, as :func:`project_to_ball` compares them."""
    w = np.asarray(w, dtype=np.float64)
    rows, cols = np.nonzero(mask)
    out, e = np.zeros_like(w), np.atleast_2d(w[..., rows, cols])
    p = {"spectral": math.inf, "rows_l1_max": math.inf, "frobenius": 2.0,
         "rows_l2_sum": 1.0}.get(c.kind.tag, c.kind.p)
    todo = np.arange(len(e) if rows.size else 0)
    while todo.size:  # the rows that the l1 rule left outside the limit go again
        e[todo], _, again = _project_rows(e[todo], p, c.radius, c.radius * (1.0 + 1e-12))
        todo = todo[again]
    out[..., rows, cols] = e.reshape(out[..., rows, cols].shape)
    return out


def _project(ws: list, c: BallConstraint) -> list:
    """:func:`project_to_ball` of a list of stacks w (n, rows, cols): per
    stack, its projection and which of its slices were outside the ball
    (the others come back as they are)."""
    kind = c.kind
    limit = c.radius * (1.0 + 1e-12)
    if kind.tag in ("spectral", "schatten"):
        rs = [svd(w) for w in ws]
        svs = (_project_singular([r.singular for r in rs], c, limit) if kind.tag == "schatten"
               else [_project_rows(r.singular, math.inf, c.radius, limit) for r in rs])  # a clip
    outs = []
    for i, w in enumerate(ws):
        if kind.tag in ("spectral", "schatten"):
            s, outside, again = svs[i]
        else:
            norms = matrix_norm(w, kind)
            outside = ~(norms <= limit)
        every = outside.all()
        if not (every or outside.any()):
            outs.append((w, outside))
            continue
        pick = slice(None) if every else outside
        if kind.tag in ("spectral", "schatten"):
            r = rs[i]
            proj = (r.left[pick] * s[pick][:, None, :]) @ r.right[pick].swapaxes(-1, -2)
            again = again[pick]
        else:
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
        if again.any():
            proj[again] = _project([proj[again]], c)[0][0]
        out = proj if every else w.copy()
        if not every:
            out[outside] = proj
        outs.append((out, outside))
    return outs


def _project_singular(svs: list, c: BallConstraint, limit: float) -> list:
    """:func:`_project_rows` of each stack (n, k) of rows of singular values
    in svs on the Schatten ball c.  All stacks' rows are projected as one
    array, rows under 8 entries zero-padded to one length (numpy sums fewer
    than 8 terms in order, so a zero changes no sum, and a padded coordinate
    shrinks to 0), longer rows only with rows of their length (their
    pairwise sums depend on it).
    """
    groups = {}
    for i, sv in enumerate(svs):
        k = sv.shape[1]
        groups.setdefault(k if k >= 8 else 0, []).append(i)
    out = [None] * len(svs)
    for members in groups.values():
        ends = np.cumsum([len(svs[i]) for i in members])
        s = np.zeros((ends[-1], max(svs[i].shape[1] for i in members)))
        for i, end in zip(members, ends):
            s[end - len(svs[i]):end, :svs[i].shape[1]] = svs[i]
        s, outside, again = _project_rows(s, c.kind.p, c.radius, limit)
        for i, end in zip(members, ends):
            rows = slice(end - len(svs[i]), end)
            out[i] = s[rows, :svs[i].shape[1]], outside[rows], again[rows]
    return out


def _project_rows(s: np.ndarray, p: float, radius: float, limit: float):
    """The rows of the stack s (n, k) outside the l_p ball's limit projected
    onto the ball of the radius (a clip at p = inf), which were outside, and
    which the l1 rule left outside the limit (by about k * eps times a norm)."""
    a = np.abs(s)
    norms = a.max(axis=1) if p == math.inf else _lp_row_norms(a, p)
    outside = ~(norms <= limit)
    s, again = s.copy(), np.zeros(len(s), dtype=bool)
    if p == math.inf:
        s[outside] = np.clip(s[outside], -radius, radius)
    elif outside.any():
        s[outside] = t = project_lp_ball(s[outside], p, radius, norms[outside])
        if p == 1.0:
            again[outside] = ~(_lp_row_norms(np.abs(t), p) <= limit)
    return s, outside, again


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
    top = g.max(axis=-1, keepdims=True)
    scaled = (g / np.where(top > 0.0, top, 1.0)) ** (dual_exponent(p) - 1.0)
    norms = _lp_row_norms(scaled, p)[..., None]
    return radius * scaled / np.where(norms > 0.0, norms, 1.0)
