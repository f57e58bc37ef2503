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
    """Euclidean projection onto {x : norm_fn(x) <= radius} via scipy SLSQP.

    norm_fn may also return an array, one value per constraint, each of which
    must stay at most radius: a norm that is the largest of several smooth
    terms is best given as those terms, which spares SLSQP the max's kinks.
    """
    from scipy.optimize import minimize

    v = np.asarray(v, dtype=np.float64)
    res = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        x0=v * min(1.0, radius / max(np.max(norm_fn(v)), 1e-12)),
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


def profile_per_layer(net, p: float = 2.0):
    """``network.profile`` as the loop that takes each layer's norms on its own,
    kept verbatim from before layers of one shape were stacked; the library
    must match it field for field."""
    from capnet import matlin
    from capnet.network import NormProfile

    kind = matlin.schatten(p)
    spec, frob, schat, r21, r1inf = [], [], [], [], []
    for layer in net.layers:
        w = layer.weight
        sv = matlin.singular_values(w)
        spec.append(matlin.singular_norm(sv, matlin.SPECTRAL))
        frob.append(matlin.matrix_norm(w, matlin.FROBENIUS))
        schat.append(matlin.singular_norm(sv, kind))
        r21.append(matlin.matrix_norm(w, matlin.ROWS_L2_SUM))
        r1inf.append(matlin.matrix_norm(w, matlin.ROWS_L1_MAX))
    degenerate = any(s == 0.0 for s in spec)
    ratio = None if degenerate else max(r / s for r, s in zip(r21, spec))
    return NormProfile(
        p=float(p),
        spectral=tuple(spec),
        frobenius=tuple(frob),
        schatten=tuple(schat),
        rows_l2_sum=tuple(r21),
        rows_l1_max=tuple(r1inf),
        gamma=float(np.prod(spec)),
        schatten_product=float(np.prod(schat)),
        frobenius_product=float(np.prod(frob)),
        ratio_max=ratio,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# The constrained ascent, one sign vector and one restart at a time
# ---------------------------------------------------------------------------
#
# This was ``rademacher.sup_ascent`` (with its ``_scale_to_boundary``,
# ``_backward`` and forward loop, and ``matlin.project_to_ball`` and
# ``matlin.linear_maximizer``) before every sample and restart ran as one
# stacked ascent, kept verbatim on the 2-D matlin primitives; the stacked
# ascent must equal it bit for bit.  A masked layer takes the exact masked
# projection one matrix at a time (``enforce_2d``).

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
    """The projection of one matrix onto its layer's ball and partial-
    permutation mask: the masked entries, as a vector, projected onto the
    l_p ball that the ball is on them (a clip at p = inf) for as long as
    they lie outside the limit, and zeros off the mask."""
    from capnet.matlin import _lp_vec_norm, project_lp_ball

    if mask is None:
        return project_to_ball_2d(w, c)
    idx = np.nonzero(mask)
    e = w[idx]
    # one entry per row and column: the singular values are the entries' |.|
    p = {"spectral": math.inf, "frobenius": 2.0, "rows_l2_sum": 1.0,
         "rows_l1_max": math.inf, "schatten": c.kind.p}[c.kind.tag]

    def norm(v):
        return float(np.abs(v).max()) if p == math.inf else _lp_vec_norm(np.abs(v), p)

    while e.size and not norm(e) <= c.radius * (1.0 + 1e-12):
        e = np.clip(e, -c.radius, c.radius) if p == math.inf else project_lp_ball(e, p, c.radius)
    out = np.zeros_like(w)
    out[idx] = e
    return out


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


# ---------------------------------------------------------------------------
# The verify suite's cover search and contraction loop, one member chunk and
# one function at a time
# ---------------------------------------------------------------------------

def verify_cover_chunked(cover, trials: int, seed: int = 0) -> float:
    """This was ``rademacher.verify_cover`` before it took the running max
    over the grid of a (grid, members) array: members x trials x grid
    broadcast in chunks of about 4,000,000 doubles.  Verbatim but for one
    fresh ``_rng(seed, t)`` per trial in place of the one-pass streams."""
    from capnet.errors import VerificationError
    from capnet.network import _rng
    from capnet.rademacher import _refined_grid

    fine = _refined_grid(cover.grid, 4)
    mvals = cover.values_on(fine)
    dx = np.diff(fine)
    fs = np.empty((trials, fine.size))
    for t in range(trials):
        slopes = _rng(seed, t).choice([-1.0, 1.0], size=dx.size)
        f = np.concatenate([[0.0], np.cumsum(slopes * dx)])
        fs[t] = f - np.interp(0.0, fine, f)
    mins = np.full(trials, np.inf)
    chunk = max(1, 4_000_000 // (max(trials, 1) * fine.size))
    for lo in range(0, cover.n_members, chunk):
        block = mvals[lo:lo + chunk]
        dist = np.abs(block[:, None, :] - fs[None, :, :]).max(axis=2)
        mins = np.minimum(mins, dist.min(axis=0))
    worst = float(mins.max())
    if worst > cover.eps * (1.0 + 1e-6):
        raise VerificationError(
            f"cover misses a function by {worst} > eps={cover.eps}"
        )
    return worst


def check_contraction_per_function(f_values, R: float, lam: float, pool, project,
                                   right_norm, activation: str,
                                   label: str) -> tuple[float, float]:
    """This was ``rademacher._check_contraction`` before the K functions
    stepped together as one stack: a 25-step projected ascent per function,
    kept verbatim; the stacked harness must equal it bit for bit."""
    from capnet.errors import VerificationError
    from capnet.rademacher import CONTRACTION_CAP, _univariate, sign_matrix

    if not (0 < R < math.inf and 0 < lam < math.inf):
        raise ValueError(f"need finite R > 0 and lam > 0, got R={R}, lam={lam}")
    f = np.asarray(f_values, dtype=np.float64)
    if f.ndim != 3:
        raise ValueError("f_values must have shape (K, m, dim)")
    if not np.isfinite(f).all():
        raise ValueError("f_values must be finite")
    k, m, dim = f.shape
    if m > CONTRACTION_CAP:
        raise ValueError(f"m={m} exceeds the enumeration cap {CONTRACTION_CAP}")
    act, dact = _univariate(activation)
    signs = sign_matrix(m)

    t = np.einsum("cm,kmd->ckd", signs, f)
    rhs = 2.0 * float(np.exp(lam * R * right_norm(t)).max(axis=1).mean())

    dirs = pool(dim)
    sup_inner = np.zeros(signs.shape[0])
    for kk in range(k):
        vals = act(f[kk] @ dirs.T)                      # (m, S)
        cand = np.abs(signs @ vals)                     # (E, S)
        w = dirs[cand.argmax(axis=1)]                   # (E, dim)
        for step in range(1, 26):
            z = w @ f[kk].T                             # (E, m)
            inner = (signs * act(z)).sum(axis=1)
            grad = (signs * dact(z)) @ f[kk]            # (E, dim)
            w = project(w + (0.25 / math.sqrt(step)) * np.sign(inner)[:, None] * grad)
        inner_r = np.abs((signs * act(w @ f[kk].T)).sum(axis=1))
        sup_inner = np.maximum(sup_inner, np.maximum(cand.max(axis=1), inner_r))
    lhs = float(np.exp(lam * sup_inner).mean())
    if lhs > rhs * (1.0 + 1e-9):
        raise VerificationError(f"{label} violated: lhs={lhs} > rhs={rhs}")
    return lhs, rhs
