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


# ---------------------------------------------------------------------------
# The constrained ascent, one sign vector and one restart at a time
# ---------------------------------------------------------------------------
#
# This was ``rademacher.sup_ascent`` (with its ``_enforce``,
# ``_scale_to_boundary``, ``_backward`` and forward loop, and
# ``matlin.project_to_ball`` and ``matlin.linear_maximizer``) before every
# sample and restart ran as one stacked ascent, kept verbatim on the 2-D
# matlin primitives; the stacked ascent must equal it bit for bit.

def _run_layers_2d(weights, acts, a):
    from capnet.network import activation_batch

    inputs, preacts = [], []
    for w, act in zip(weights, acts):
        inputs.append(a)
        z = a @ w.T
        preacts.append(z)
        a = z if act is None else activation_batch(act, z)
    return a, inputs, preacts


def _backward_2d(weights, acts, inputs, preacts, g_out):
    grads = [None] * len(weights)
    g = g_out[:, None]
    for j in range(len(weights) - 1, -1, -1):
        z = preacts[j]
        if j < len(weights) - 1:
            act = acts[j]
            if act == "relu":
                g = g * (z > 0)
            elif act == "max_to_scalar":
                routed = np.zeros_like(z)
                routed[np.arange(z.shape[0]), z.argmax(axis=1)] = g[:, 0]
                g = routed
        grads[j] = g.T @ inputs[j]
        if j > 0:
            g = g @ weights[j]
    return grads


def project_to_ball_2d(w, c):
    from capnet.matlin import (matrix_norm, project_l1_ball, project_l1_rows, project_lp_ball,
                               singular_norm, svd)

    w = np.asarray(w, dtype=np.float64)
    kind = c.kind
    limit = c.radius * (1.0 + 1e-12)
    if kind.tag in ("spectral", "schatten"):
        r = svd(w)
        if singular_norm(r.singular, kind) <= limit:
            return w
        if kind.tag == "spectral":
            s = np.minimum(r.singular, c.radius)
        else:
            s = project_lp_ball(r.singular, kind.p, c.radius)
        out, norm = (r.left * s) @ r.right.T, singular_norm(s, kind)
    else:
        if matrix_norm(w, kind) <= limit:
            return w
        if kind.tag == "frobenius":
            out = w * (c.radius / float(np.linalg.norm(w)))
        elif kind.tag == "rows_l1_max":
            out = project_l1_rows(w, c.radius)
        else:
            norms = np.sqrt((w * w).sum(axis=1))
            shrunk = project_l1_ball(norms, c.radius)
            scale = np.divide(shrunk, norms, out=np.zeros_like(norms), where=norms > 0)
            out = w * scale[:, None]
        norm = matrix_norm(out, kind)
    return out if norm <= limit else project_to_ball_2d(out, c)


def _lp_support_2d(g, p, radius):
    from capnet.matlin import _lp_vec_norm, dual_exponent

    if p == 1.0:
        out = np.zeros_like(g)
        out[int(np.argmax(g))] = radius
        return out
    q = dual_exponent(p)
    top = float(g.max())
    if top == 0.0:
        return np.zeros_like(g)
    scaled = (g / top) ** (q - 1.0)
    return radius * scaled / _lp_vec_norm(scaled, p)


def linear_maximizer_2d(g, c):
    from capnet.matlin import as_matrix, svd

    kind = c.kind
    if kind.tag in ("spectral", "schatten"):
        r = svd(g)
        if not r.singular[0] > 0:
            return np.zeros((r.left.shape[0], r.right.shape[0]))
        if kind.tag == "spectral":
            return c.radius * (r.left @ r.right.T)
        return (r.left * _lp_support_2d(r.singular, kind.p, c.radius)) @ r.right.T
    g = as_matrix(g)
    if not g.any():
        return np.zeros_like(g)
    if kind.tag == "frobenius":
        return g * (c.radius / float(np.linalg.norm(g)))
    if kind.tag == "rows_l1_max":
        out = np.zeros_like(g)
        idx = np.abs(g).argmax(axis=1)
        rows = np.arange(g.shape[0])
        out[rows, idx] = c.radius * np.sign(g[rows, idx])
        return out
    norms = np.sqrt((g * g).sum(axis=1))
    best = int(norms.argmax())
    out = np.zeros_like(g)
    out[best] = g[best] * (c.radius / norms[best])
    return out


def enforce_2d(w, c, mask):
    from capnet.matlin import matrix_norm

    if mask is None:
        return project_to_ball_2d(w, c)
    w = w * mask
    for _ in range(8):
        out = project_to_ball_2d(w, c)
        if out is w:
            return w
        w = out * mask
    worst = matrix_norm(w, c.kind) / c.radius
    return w / worst if worst > 1.0 else w


def _scale_to_boundary_2d(w, c):
    from capnet.matlin import matrix_norm

    n = matrix_norm(w, c.kind)
    return w * (c.radius / n) if n > 0 else w


def sup_ascent_per_restart(eps, spec, data, restarts=8, steps=500, seed=0):
    """One sign vector's ascent, restart after restart (see the section note)."""
    from capnet.matlin import BallConstraint
    from capnet.network import _rng

    eps = np.asarray(eps, dtype=np.float64)
    x = data.points
    m = data.m
    acts = [l.activation for l in spec.template.layers]
    masks = spec.masks
    trained = [j for j, c in enumerate(spec.balls) if c is not None]

    multiplier = 1.0
    balls = [None if c is None else BallConstraint(c.kind, 1.0) for c in spec.balls]
    base_weights = [l.weight for l in spec.template.layers]
    for j in trained:
        multiplier *= spec.balls[j].radius
        base_weights[j] = base_weights[j] / spec.balls[j].radius

    g_out = eps / m

    def feasible(ws):
        return [w if c is None else enforce_2d(w, c, mk) for w, c, mk in zip(ws, balls, masks)]

    def masked_grads(ws, inputs, preacts):
        grads = _backward_2d(ws, acts, inputs, preacts, g_out)
        return [g if mk is None else g * mk for g, mk in zip(grads, masks)]

    best_val = -math.inf
    best_ws = None

    def consider(ws):
        nonlocal best_val, best_ws
        y, inputs, preacts = _run_layers_2d(ws, acts, x)
        v = float(eps @ y[:, 0]) / m
        if v > best_val:
            best_val, best_ws = v, [w.copy() for w in ws]
        return v, inputs, preacts

    if trained:
        zero_ws = list(base_weights)
        zero_ws[trained[0]] = np.zeros_like(zero_ws[trained[0]])
        consider(feasible(zero_ws))

    corr = (eps @ x) / m
    for k in range(restarts):
        ws = [w.copy() for w in base_weights]
        if k == 0 and balls[0] is not None:
            w1 = np.tile(corr, (ws[0].shape[0], 1))
            if masks[0] is not None:
                w1 = w1 * masks[0]
            ws[0] = _scale_to_boundary_2d(w1, balls[0])
        else:
            rng = _rng(seed, k)
            for j in trained:
                w = rng.standard_normal(ws[j].shape)
                if masks[j] is not None:
                    w = w * masks[j]
                ws[j] = _scale_to_boundary_2d(w, balls[j])
        ws = feasible(ws)
        for t in range(1, steps + 1):
            grads = masked_grads(ws, *consider(ws)[1:])
            lr = 0.1 / math.sqrt(t)
            for j in trained:
                ws[j] = enforce_2d(ws[j] + lr * grads[j], balls[j], masks[j])
        current = consider(ws)
        if trained:
            flipped = list(ws)
            flipped[trained[-1]] = -flipped[trained[-1]]
            if (f := consider(flipped))[0] > current[0]:
                ws, current = flipped, f
        for _ in range(4):
            grads = masked_grads(ws, *current[1:])
            cand = list(ws)
            for j in trained:
                cj = linear_maximizer_2d(grads[j], balls[j]) if grads[j].any() else ws[j]
                cand[j] = enforce_2d(cj, balls[j], masks[j])
            if (c := consider(cand))[0] > current[0]:
                ws, current = cand, c
            else:
                break

    out_weights = [w if c is None else w * c.radius for w, c in zip(best_ws, spec.balls)]
    return multiplier * best_val, out_weights


def mc_values_per_sample(spec, data, epsilon_samples, restarts=8, steps=500, seed=0):
    """The per-sample values of ``rademacher.mc_rademacher``, one
    :func:`sup_ascent_per_restart` call per sample."""
    from capnet.network import _rng

    vals = np.empty(epsilon_samples)
    for i in range(epsilon_samples):
        eps = _rng(seed, i, 0).choice([-1.0, 1.0], size=data.m)
        sub_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(i, 1)).generate_state(1)[0])
        vals[i], _ = sup_ascent_per_restart(eps, spec, data, restarts=restarts, steps=steps,
                                            seed=sub_seed)
    return vals


def sign_values_per_sample(g, bucket_matrix, samples: int, seed: int) -> np.ndarray:
    """The per-sample values of the Monte Carlo branch of
    ``lowerbound._sign_expectation``: one fresh ``_rng(seed, i)`` sign vector
    per sample, and g on that one vector's bucket sums."""
    from capnet.network import _rng

    m = bucket_matrix.shape[0]
    vals = np.empty(samples)
    for i in range(samples):
        vals[i] = float(g(_rng(seed, i).choice([-1.0, 1.0], size=(1, m)) @ bucket_matrix)[0])
    return vals
