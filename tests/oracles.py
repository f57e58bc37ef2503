"""Independent oracles used to cross-check library results.

Deliberately implemented without the library (and without the LAPACK paths
the library uses) so each check has two genuinely different routes:
a classical Jacobi eigensolver, brute-force enumerations and grid searches,
and closed-form combinatorial expectations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def jacobi_eigenvalues(a: np.ndarray, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by classical Jacobi rotations."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= tol * max(1.0, abs(a[p, p]) + abs(a[q, q])):
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off <= tol:
            break
    return np.sort(np.diag(a))[::-1]


def singular_values_via_gram(w: np.ndarray) -> np.ndarray:
    """Singular values from the Jacobi eigenvalues of the smaller Gram matrix."""
    w = np.asarray(w, dtype=np.float64)
    gram = w @ w.T if w.shape[0] <= w.shape[1] else w.T @ w
    return np.sqrt(np.clip(jacobi_eigenvalues(gram), 0.0, None))


def mean_abs_sign_sum(m: int) -> float:
    """E|sum_{i<=m} eps_i| in closed form: m 2^(1-m) C(m-1, floor((m-1)/2))."""
    return m * 2.0 ** (1 - m) * math.comb(m - 1, (m - 1) // 2)


def all_signs(m: int) -> np.ndarray:
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


def enumerate_linear_class_value(points: np.ndarray) -> float:
    """Exact complexity of {x -> w.x : |w| <= 1} on the given points."""
    m = points.shape[0]
    total = 0.0
    for eps in all_signs(m):
        total += float(np.linalg.norm(eps @ points))
    return total / (2 ** m * m)


def grid_sup_positive_part(c: np.ndarray, p: float, steps: int = 41) -> float:
    """Dense grid search of sup_{|w|_p <= 1} sum_k max(0, w_k) c_k (small h)."""
    h = len(c)
    axis = np.linspace(-1.0, 1.0, steps)
    grids = np.meshgrid(*([axis] * h), indexing="ij")
    w = np.stack([g.ravel() for g in grids], axis=1)
    if math.isinf(p):
        feasible = np.abs(w).max(axis=1) <= 1.0 + 1e-12
    else:
        feasible = (np.abs(w) ** p).sum(axis=1) ** (1.0 / p) <= 1.0 + 1e-12
    vals = np.maximum(w[feasible], 0.0) @ np.asarray(c, dtype=np.float64)
    return float(max(vals.max(initial=0.0), 0.0))


def nearest_in_ball_grid(target: np.ndarray, norm_fn, radius: float,
                         lo: float, hi: float, steps: int = 61) -> float:
    """Min distance from target to {v : norm_fn(v) <= radius} by grid search."""
    axes = [np.linspace(lo, hi, steps)] * len(target)
    best = math.inf
    for v in itertools.product(*axes):
        v = np.asarray(v)
        if norm_fn(v) <= radius + 1e-12:
            best = min(best, float(np.linalg.norm(v - target)))
    return best


def projection_via_slsqp(v: np.ndarray, norm_fn, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : norm_fn(x) <= radius} via scipy SLSQP."""
    from scipy.optimize import minimize

    v = np.asarray(v, dtype=np.float64)
    res = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        x0=v * min(1.0, radius / max(norm_fn(v), 1e-12)),
        jac=lambda x: x - v,
        constraints=[{"type": "ineq", "fun": lambda x: radius - norm_fn(x)}],
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-14},
    )
    return res.x


def project_lp_ball_bisection(v, p: float, radius: float) -> np.ndarray:
    """The l_p-ball projection as a plain bisection on the Lagrange multiplier.

    This was ``matlin.project_lp_ball`` before the bisection was replayed
    from a solved multiplier, kept verbatim (it shares the library's inner
    solve ``_lp_shrink``); the library's result must equal it bit for bit.
    """
    from capnet.matlin import _check_schatten_p, _lp_shrink, _lp_vec_norm, project_l1_ball

    _check_schatten_p(p)
    if p == 1.0:
        return project_l1_ball(v, radius)
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    if _lp_vec_norm(a, p) <= radius:
        return v.copy()
    lo, hi = 0.0, float(a.max()) / p
    # the textbook bracket max(a)/p can undershoot for p > 1; widen until feasible
    while _lp_vec_norm(_lp_shrink(a, p, hi), p) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _lp_vec_norm(_lp_shrink(a, p, mid), p) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
    return np.sign(v) * _lp_shrink(a, p, hi)


def project_l1_rows_loop(w, radius: float) -> np.ndarray:
    """Row-wise l1-ball projection as one ``project_l1_ball`` call per row.

    This was the row projection of ``matlin.project_to_ball`` and of the
    l1/inf contraction harness before it was batched; the batched
    ``matlin.project_l1_rows`` must equal it bit for bit.
    """
    from capnet.matlin import project_l1_ball

    return np.vstack([project_l1_ball(row, radius)[None, :] for row in w])


def project_rows_l1_max_loop(w, radius: float) -> np.ndarray:
    """``project_to_ball`` onto a ROWS_L1_MAX ball with the per-row loop."""
    from capnet.matlin import ROWS_L1_MAX, matrix_norm

    limit = radius * (1.0 + 1e-12)
    if matrix_norm(w, ROWS_L1_MAX) <= limit:
        return w
    out = project_l1_rows_loop(w, radius)
    return out if matrix_norm(out, ROWS_L1_MAX) <= limit \
        else project_rows_l1_max_loop(out, radius)


def sign_mean_by_chunks(fn, m: int) -> float:
    """Mean of fn over all 2^m sign vectors, enumerated chunk by chunk with a
    fresh ``sign_matrix(m, start, stop)`` per 2^14-row chunk.

    This was ``rademacher._sign_mean`` before it built each block from a
    precomputed low part; the library's result must equal it exactly.
    """
    from capnet.rademacher import sign_matrix

    total = 1 << m
    step = 1 << min(14, m)
    acc = 0.0
    for start in range(0, total, step):
        acc += float(fn(sign_matrix(m, start, min(start + step, total))).sum())
    return acc / total


def sphere_points_per_point(dim: int, count: int, seed: int, key=()) -> np.ndarray:
    """``network.sphere_points`` as a loop that seeds one fresh generator per
    point; the library derives the same streams in one pass and must match it
    exactly."""
    from capnet.network import _rng

    pts = np.empty((count, dim))
    for i in range(count):
        v = _rng(seed, *key, i).standard_normal(dim)
        norm = float(np.linalg.norm(v))
        pts[i] = v / norm if norm > 0 else np.eye(dim)[0]
    return pts
