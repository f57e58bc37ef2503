"""Empirical Rademacher complexity and enumeration harnesses.

Exact enumeration over sign vectors is available up to m = 22; beyond that,
Monte Carlo averages a constrained-ascent inner supremum over sampled sign
vectors.  All empirical suprema are lower bounds on the true supremum by
construction (every candidate evaluated is feasible), so the inequality
harnesses in this module are one-sided: an under-approximated left side can
only make a check harder, and right sides are computed exactly.

Seeds are derived per sample / restart / trial from (master seed, index),
so results never depend on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import VerificationError
from .network import (ELEMENTWISE_TAGS, Dataset, Network, _index_streams, _rng,
                      _run_layers)

ENUM_CAP = 22           # exact enumeration of sign vectors caps at 2^22
CONTRACTION_CAP = 14    # sign-enumeration cap inside the contraction harnesses
COVER_MAX_GRID = 16     # largest x-grid for the explicit Lipschitz cover
ASCENT_BLOCK_BYTES = 1 << 22  # weights and layer outputs of one stack of ascent trajectories
SIGN_BLOCK_BITS = 14    # an enumeration block holds 2^14 sign vectors


@dataclass(frozen=True)
class RademacherEstimate:
    """An estimated complexity value with its provenance.

    Monte Carlo values are statistically lower-biased (the inner supremum is
    under-approximated); std_error is 0 for exact enumeration.
    """

    value: float
    method: str            # "exact-enumeration" or "monte-carlo"
    epsilon_samples: int
    sup_restarts: int
    sup_steps: int
    std_error: float
    seed: int


@dataclass(frozen=True)
class ClassSpec:
    """A norm-ball-constrained network class over a fixed template.

    template fixes shapes and activation tags (output must be scalar);
    balls holds each layer's ball, or None for a layer frozen at its
    template weights (e.g. the fixed scalar tail of the lower-bound
    construction).  masks optionally pin a sparsity pattern (entries off the
    mask stay zero); left as None, it becomes no mask on every layer.
    """

    template: Network
    balls: tuple[matlin.BallConstraint | None, ...]
    masks: tuple[np.ndarray | None, ...] | None = None

    def __post_init__(self):
        d = self.template.depth
        if self.template.output_dim != 1:
            raise ValueError("class template must be scalar-valued (final layer has one row)")
        if len(self.balls) != d:
            raise ValueError(f"need one ball (or None) per layer, got {len(self.balls)}")
        if self.masks is not None and len(self.masks) != d:
            raise ValueError("masks must align with layers")
        if self.masks is None:
            object.__setattr__(self, "masks", (None,) * d)
        if any(c is None and mk is not None for c, mk in zip(self.balls, self.masks)):
            raise ValueError("a frozen (None) layer keeps its template weights and takes no mask")


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def sign_matrix(m: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows are the sign vectors with indices [start, stop) in binary order."""
    stop = (1 << m) if stop is None else stop
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(m, dtype=np.int64)
    return (((idx[:, None] >> shifts) & 1) * 2 - 1).astype(np.float64)


def _sign_mean(fn, m: int, buckets=None) -> float:
    """Exact mean of fn over all 2^m sign vectors.

    Block c holds the rows [c 2^14, (c+1) 2^14) of ``sign_matrix(m)`` (one
    block of all 2^m rows when m <= 14); each block's values are summed and
    the block sums are added in order.  fn is given one reused array after
    another, so it must neither keep nor modify them.

    Without buckets, fn maps a block of sign vectors to one value per row.

    With an (m, h) 0/1 bucket matrix that puts each point in at most one
    bucket, fn maps a stack of per-bucket sign sums ``s @ buckets`` to one
    value per row, treating every row alike whatever the stack's size.  The
    sum over the n_k points of bucket k takes only n_k + 1 values, so fn is
    evaluated once on each of the prod_k (n_k + 1) sum vectors, in blocks of
    at most 2^14 rows, into a table in mixed-radix order: a sign vector's
    entry is at the sum of the strides of its +1 points' buckets.  Each
    sign block gathers its values from the table at the low block's indices
    plus the block's constant high offset, so every value, and every block
    sum, has the bits of fn on the block's own bucket sums.
    """
    if buckets is None:
        blocks = (fn(block) for block in _sign_blocks(m))
    else:
        b = np.asarray(buckets, dtype=np.int64)
        n = b.sum(axis=0)
        table, start = np.empty(int(np.prod(n + 1))), 0
        for block in _count_blocks(n):
            table[start:start + len(block)] = fn(block)
            start += len(block)
        weights = b @ (np.cumprod(n + 1) // (n + 1))
        low = min(SIGN_BLOCK_BITS, m)
        idx = _binary_sums(weights[:low])
        blocks = (table[idx + offset] for offset in _binary_sums(weights[low:]))
    acc = 0.0
    for values in blocks:
        acc += float(values.sum())
    return acc / (1 << m)


def _sign_blocks(m: int):
    """The rows of ``sign_matrix(m)`` as successive blocks of 2^14 rows (one
    block when m <= 14).  The low 14 columns are the same in every block and
    the others are constant within one, so a single array is built once and
    only its high columns change between blocks: a consumer must neither
    keep nor modify a block."""
    low = min(SIGN_BLOCK_BITS, m)
    block = np.empty((1 << low, m))
    block[:, :low] = sign_matrix(low)
    high = np.arange(m - low, dtype=np.int64)
    for c in range(1 << (m - low)):
        block[:, low:] = ((c >> high) & 1) * 2 - 1
        yield block


def _count_blocks(n):
    """The vectors 2t - n for integer 0 <= t <= n, the sign sums of buckets
    of n_k points, in mixed-radix order of t (t_0 fastest), as successive
    blocks of at most 2^14 rows.  As in :func:`_sign_blocks`, the low digits
    whose radix product fits in 2^14 rows are built once and only the high
    columns change between blocks: a consumer must neither keep nor modify a
    block."""
    radix = n + 1
    spans = np.cumprod(radix)
    low = int(np.searchsorted(spans, 1 << SIGN_BLOCK_BITS, side="right"))
    t = np.arange(spans[low - 1] if low else 1, dtype=np.int64)
    block = np.empty((len(t), len(n)))
    block[:, :low] = 2 * (t[:, None] // (spans[:low] // radix[:low]) % radix[:low]) - n[:low]
    high_strides = np.cumprod(radix[low:]) // radix[low:]
    for c in range(int(np.prod(radix[low:]))):
        block[:, low:] = 2 * (c // high_strides % radix[low:]) - n[low:]
        yield block


def _binary_sums(weights) -> np.ndarray:
    """Entry r is the sum of weights[i] over the set bits i of r."""
    out = np.zeros(1, dtype=np.int64)
    for w in weights:
        out = np.concatenate((out, out + w))
    return out


def enumeration_estimate(fn, m: int, value, hint: str, buckets=None) -> RademacherEstimate:
    """The exact estimate whose value is ``value(mean)``, for the mean of fn
    over all 2^m sign vectors, or of fn on their bucket sums (see
    :func:`_sign_mean`); m above ENUM_CAP is refused with the caller's hint
    at a sampling alternative."""
    if m > ENUM_CAP:
        raise ValueError(f"m={m} exceeds the exact-enumeration cap {ENUM_CAP}; {hint}")
    return RademacherEstimate(
        value=value(_sign_mean(fn, m, buckets)), method="exact-enumeration",
        epsilon_samples=2 ** m, sup_restarts=0, sup_steps=0, std_error=0.0, seed=0,
    )


def sampled_estimate(vals, seed: int, scale: float = 1.0, restarts: int = 0,
                     steps: int = 0) -> RademacherEstimate:
    """The Monte Carlo estimate ``scale`` times the mean of the per-sample
    values vals (at least 2), with the standard error of that mean."""
    n = len(vals)
    return RademacherEstimate(
        value=scale * float(vals.mean()), method="monte-carlo", epsilon_samples=n,
        sup_restarts=restarts, sup_steps=steps,
        std_error=scale * float(vals.std(ddof=1) / math.sqrt(n)), seed=seed,
    )


def exact_rademacher(values) -> RademacherEstimate:
    """Exact complexity of a finite class given its m x K evaluation matrix.

    value = 2^-m sum_eps max_k (1/m) sum_i eps_i values[i, k].
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError("expected a non-empty m x K evaluation matrix")
    if not np.isfinite(v).all():
        raise ValueError("evaluation matrix entries must be finite")
    m = v.shape[0]
    return enumeration_estimate(lambda s: (s @ v).max(axis=1), m, lambda mean: mean / m,
                                "use mc_rademacher")


# ---------------------------------------------------------------------------
# Constrained-ascent inner supremum
# ---------------------------------------------------------------------------

def _backward(weights, acts, inputs, preacts, g_out):
    """Gradients of sum_i g_out_i * y_i with respect to every weight matrix.

    g_out is (n, m), one row per weight set of a stacked forward pass (see
    ``network._run_layers``), and every gradient comes out as an (n, rows,
    cols) stack.  Subgradient conventions: relu'(0) = 0; the scalar-max
    routes its gradient to the lowest-index maximising coordinate.
    """
    grads = [None] * len(weights)
    g = g_out[..., None]
    for j in range(len(weights) - 1, -1, -1):
        z = preacts[j]
        if j < len(weights) - 1:
            act = acts[j]
            if act == "relu":
                g = g * (z > 0)
            elif act == "max_to_scalar":
                routed = np.zeros(g.shape[:-1] + z.shape[-1:])
                top = np.broadcast_to(z.argmax(axis=-1), g.shape[:-1])
                np.put_along_axis(routed, top[..., None], g, -1)
                g = routed
            # identity: pass through
        grads[j] = g.swapaxes(-1, -2) @ inputs[j]
        if j > 0:
            g = g @ weights[j]
    return grads


def _enforce(w, c, mask):
    """Projection onto the layer's ball c (and its mask) of w, or of every
    slice of a stack (n, rows, cols) of weights.

    Without a mask this is one projection, which shares its SVD with the
    norm check and lands in the ball.  Masking can raise a Schatten norm, so
    a masked slice alternates projection and mask until a projection changes
    nothing; a final uniform scale-down of the slices still changing
    guarantees strict feasibility when the alternating rounds have not
    converged, so every candidate the ascent evaluates really is in the
    class.
    """
    if mask is None:
        return matlin.project_to_ball(w, c)
    if w.ndim == 2:
        return _enforce(w[None], c, mask)[0]
    w = w * mask
    live = np.arange(len(w))
    for _ in range(8):
        sub = w[live]
        out = matlin.project_to_ball(sub, c)
        # a slice outside the ball always moves, one inside keeps its bits
        moved = (out != sub).reshape(len(live), -1).any(axis=1)
        live = live[moved]
        if not live.size:
            return w
        w[live] = out[moved] * mask
    worst = matlin.matrix_norm(w[live], c.kind) / c.radius
    w[live] = w[live] / np.where(worst > 1.0, worst, 1.0)[:, None, None]
    return w


def _scale_to_boundary(w, c):
    """Every nonzero slice of the stack w scaled onto the sphere of c."""
    n = matlin.matrix_norm(w, c.kind)
    return w * np.where(n > 0, c.radius / np.where(n > 0, n, 1.0), 1.0)[:, None, None]


def _value_cap(spec: ClassSpec, data: Dataset) -> float:
    """An upper bound on every per-sample ascent value of the class:
    Pi_j c_j (1/m) sum_i |x_i|_2, where c_j bounds layer j's spectral norm.

    A ball bounds it by its radius (spectral, Schatten, Frobenius and
    rows_l2_sum balls) or by sqrt(rows) times its radius (rows_l1_max); a
    frozen layer has its own.  The activations are 1-Lipschitz and fix 0, so
    |f(x)| <= Pi_j c_j |x|_2 for every f in the class.
    """
    prod = 1.0
    for layer, c in zip(spec.template.layers, spec.balls):
        if c is None:
            prod *= matlin.matrix_norm(layer.weight, matlin.SPECTRAL)
        elif c.kind.tag == "rows_l1_max":
            prod *= math.sqrt(layer.weight.shape[0]) * c.radius
        else:
            prod *= c.radius
    x = data.points
    return prod * float(np.sqrt((x * x).sum(axis=1)).mean())


def _trajectory_bytes(spec: ClassSpec, m: int) -> int:
    """The bytes of one ascent trajectory's weights and layer outputs over m
    points, the unit of ASCENT_BLOCK_BYTES."""
    return 8 * sum((m + l.weight.shape[1]) * l.weight.shape[0] for l in spec.template.layers)


def sup_ascent(eps, spec: ClassSpec, data: Dataset, restarts: int, steps: int,
               seed: int | list[int] = 0):
    """Maximise (1/m) sum_i eps_i f(x_i) over the constrained class.

    Projected gradient ascent (step 0.1/sqrt(t)) with multiple restarts: one
    deterministic restart starts from the boundary-scaled sign-weighted data
    correlation, restart k of the others from a boundary point drawn from
    ``_rng(seed, k)``; each restart ends with a sign flip and up to 4
    support-point refinement rounds, each round taking on only the
    trajectories the previous one improved.  Every evaluated candidate is
    feasible, so the returned value is a certified lower bound on the true
    supremum, and it is deterministic for a fixed seed.

    eps is a +-1 vector of length m with an int seed, which returns (value,
    weights), or a stack (n, m) of them with a sequence of n seeds, which
    returns an array of n values and every layer's weights as an (n, rows,
    cols) stack.  The n * restarts trajectories step together in stacks
    whose weights and layer outputs take about ASCENT_BLOCK_BYTES (one
    trajectory at least), each computed bit for bit as it would be alone, so
    the stacking does not change the result.  A sign vector's result
    is the first best of its candidates in the order they would be met one
    restart after another: the zero function, then each restart's steps,
    flip and refinement.

    Positive homogeneity of the activations lets the ascent run with each
    ball's radius normalised to 1; the result is rescaled by the radius
    product, which makes the value exactly proportional to each layer's
    budget.
    """
    eps = np.asarray(eps, dtype=np.float64)
    single = eps.ndim == 1
    signs = eps[None] if single else eps
    if (signs.ndim != 2 or signs.shape[1] != data.m or not len(signs)
            or not np.all(np.abs(signs) == 1.0)):
        raise ValueError("eps must be a vector of +-1 of length m, or a stack (n, m) of them")
    seeds = [seed] if single else np.atleast_1d(seed).tolist()
    if len(seeds) != len(signs):
        raise ValueError(f"need one seed per sign vector, got {len(seeds)} for {len(signs)}")
    if data.dim != spec.template.input_dim:
        raise ValueError("data dimension does not match the class template")
    if restarts < 1 or steps < 0:
        raise ValueError(f"the ascent needs restarts >= 1 and steps >= 0, "
                         f"got restarts={restarts}, steps={steps}")
    x = data.points
    m = data.m
    acts = [l.activation for l in spec.template.layers]
    masks = spec.masks
    trained = [j for j, c in enumerate(spec.balls) if c is not None]

    # normalise every radius to 1
    multiplier = 1.0
    balls = [None if c is None else matlin.BallConstraint(c.kind, 1.0) for c in spec.balls]
    base_weights = [l.weight for l in spec.template.layers]
    for j in trained:
        multiplier *= spec.balls[j].radius
        base_weights[j] = base_weights[j] / spec.balls[j].radius

    def feasible(ws):
        return [w if c is None else _enforce(w, c, mk) for w, c, mk in zip(ws, balls, masks)]

    # trajectory i * restarts + k is restart k of sign vector i; restart 0
    # starts at the sign-weighted data correlation when the first layer is
    # trainable, keeping the template's later layers, and the rest draw every
    # trainable layer at random
    at_corr = balls[0] is not None
    corr = (signs[:, None, :] @ x) / m

    def ascend(runs):
        """The best objective of each trajectory of runs and its weights."""
        every = np.arange(len(runs))
        eps_run = signs[runs // restarts][:, None, :]
        g_out = eps_run[:, 0] / m

        def masked_grads(ws, inputs, preacts, sel):
            grads = _backward(ws, acts, inputs, preacts, g_out[sel])
            return [g if mk is None else g * mk for g, mk in zip(grads, masks)]

        best_val = np.full(len(runs), -math.inf)
        best_ws = [np.empty((len(runs),) + base_weights[j].shape) if j in trained else None
                   for j in range(len(acts))]

        def consider(ws, sel):
            """The objectives of the trajectories sel at ws (their weights),
            kept per trajectory as its best where they beat it, with the
            layer inputs and pre-activations of the forward pass."""
            y, inputs, preacts = _run_layers(ws, acts, x)
            v = (eps_run[sel] @ y)[:, 0, 0] / m
            won = v > best_val[sel]
            # weight arrays are never written once built, so a best may be ws itself
            if len(sel) == len(every) and won.all():
                best_val[:] = v
                for j in trained:
                    best_ws[j] = ws[j]
            elif won.any():
                best_val[sel[won]] = v[won]
                for j in trained:
                    best_ws[j] = best_ws[j].copy()
                    best_ws[j][sel[won]] = ws[j][won]
            return v, inputs, preacts

        ws = [np.repeat(w[None], len(runs), axis=0) if j in trained else w
              for j, w in enumerate(base_weights)]
        for pos, run in enumerate(runs.tolist()):
            i, k = divmod(run, restarts)
            if k == 0 and at_corr:
                ws[0][pos] = corr[i]
            else:
                rng = _rng(seeds[i], k)
                for j in trained:
                    ws[j][pos] = rng.standard_normal(ws[j].shape[1:])
        firsts = runs % restarts == 0
        for j in trained:
            if masks[j] is not None:
                ws[j] = ws[j] * masks[j]
            ws[j] = _scale_to_boundary(ws[j], balls[j])
            if at_corr and j > 0:
                ws[j][firsts] = base_weights[j]
        ws = feasible(ws)

        for t in range(1, steps + 1):
            grads = masked_grads(ws, *consider(ws, every)[1:], every)
            lr = 0.1 / math.sqrt(t)
            for j in trained:
                ws[j] = _enforce(ws[j] + lr * grads[j], balls[j], masks[j])
        # from here on ws, their objectives val and forward caches hold only
        # the trajectories at positions live, one slice each of a stacked array
        live = every
        val, *caches = consider(ws, live)
        if trained:
            # negating the output-side trainable layer is always feasible and,
            # with a linear tail, exactly flips the function's sign; rescues
            # wrong-sign basins cheaply
            flipped = [-w if j == trained[-1] else w for j, w in enumerate(ws)]
            f_val, *f_caches = consider(flipped, live)
            won = f_val > val
            val = np.where(won, f_val, val)
            ws, *caches = ([np.where(won[:, None, None], b, a) if a.ndim == 3 else a
                            for a, b in zip(old, new)]
                           for old, new in zip([ws, *caches], [flipped, *f_caches]))
        # support-point refinement: jump to each ball's maximiser of the
        # linearised objective, for as long as that improves the trajectory;
        # exact for single-layer linear classes
        for _ in range(4):
            grads = masked_grads(ws, *caches, live)
            cand = list(ws)
            for j in trained:
                moved = grads[j].reshape(len(live), -1).any(axis=1)[:, None, None]
                cj = np.where(moved, matlin.linear_maximizer(grads[j], balls[j]), ws[j])
                cand[j] = _enforce(cj, balls[j], masks[j])
            c_val, *c_caches = consider(cand, live)
            won = c_val > val
            if not won.any():
                break
            live, val = live[won], c_val[won]
            ws, *caches = ([a[won] if a.ndim == 3 else a for a in part]
                           for part in [cand, *c_caches])
        return best_val, best_ws

    # per sign vector, the zero function (in the class whenever some layer is
    # trainable) and then each restart's best, in order
    n = len(signs)
    value = np.full(n, -math.inf)
    weights = [np.repeat(w[None], n, axis=0) for w in base_weights]
    if trained:
        zero_ws = list(base_weights)
        zero_ws[trained[0]] = np.zeros_like(zero_ws[trained[0]])
        zero_ws = feasible(zero_ws)
        value = (signs[:, None, :] @ _run_layers(zero_ws, acts, x)[0])[:, 0, 0] / m
        for j in trained:
            weights[j] = np.repeat(zero_ws[j][None], n, axis=0)
    block = max(1, ASCENT_BLOCK_BYTES // _trajectory_bytes(spec, m))
    for start in range(0, n * restarts, block):
        runs = np.arange(start, min(start + block, n * restarts))
        best_val, best_ws = ascend(runs)
        for k in range(restarts):
            sel = runs % restarts == k
            i = runs[sel] // restarts
            won = best_val[sel] > value[i]
            value[i[won]] = best_val[sel][won]
            for j in trained:
                weights[j][i[won]] = best_ws[j][sel][won]
    for j in trained:
        weights[j] = weights[j] * spec.balls[j].radius
    values = multiplier * value
    if single:
        return float(values[0]), [w[0] for w in weights]
    return values, weights


def mc_rademacher(spec: ClassSpec, data: Dataset, epsilon_samples: int,
                  restarts: int, steps: int, seed: int = 0) -> RademacherEstimate:
    """Monte Carlo estimate: average the ascent supremum over sampled signs.

    Sample i draws its sign vector from ``_rng(seed, i, 0)`` and seeds its
    restarts from the (i, 1) child of seed.  The samples ascend in blocks,
    each one :func:`sup_ascent` call whose trajectories fit in
    ASCENT_BLOCK_BYTES (one sample at least), so that the weights it returns
    stay within that too; the trajectories are independent, so the blocks do
    not change the result.  Lower-biased for the true complexity (the inner
    sup is under-estimated).  A per-sample value above the class's cap
    (:func:`_value_cap`, 1e-9 relative) can only come from an infeasible
    candidate and raises VerificationError.
    """
    if epsilon_samples < 2:
        raise ValueError("need at least 2 epsilon samples")
    signs = np.array([_rng(seed, i, 0).choice([-1.0, 1.0], size=data.m)
                      for i in range(epsilon_samples)])
    seeds = [int(np.random.SeedSequence(entropy=seed, spawn_key=(i, 1)).generate_state(1)[0])
             for i in range(epsilon_samples)]
    # sup_ascent refuses restarts < 1
    block = max(1, ASCENT_BLOCK_BYTES // (max(restarts, 1) * _trajectory_bytes(spec, data.m)))
    vals = np.concatenate([
        sup_ascent(signs[b:b + block], spec, data, restarts=restarts, steps=steps,
                   seed=seeds[b:b + block])[0]
        for b in range(0, epsilon_samples, block)])
    cap = _value_cap(spec, data)
    worst = float(vals.max())
    if worst > cap * (1.0 + 1e-9):
        raise VerificationError(f"ascent value {worst} exceeds the class's cap {cap}: "
                                "an infeasible candidate was evaluated")
    return sampled_estimate(vals, seed, restarts=restarts, steps=steps)


# ---------------------------------------------------------------------------
# Contraction-step harnesses
# ---------------------------------------------------------------------------

def _univariate(tag: str):
    if tag == "relu":
        return (lambda z: np.maximum(z, 0.0)), (lambda z: (z > 0).astype(np.float64))
    if tag == "identity":
        return (lambda z: z), (lambda z: np.ones_like(z))
    if tag == "clip1":  # 1-Lipschitz, fixes 0, not positive-homogeneous
        return (lambda z: np.clip(z, -1.0, 1.0)), (lambda z: (np.abs(z) < 1).astype(np.float64))
    raise ValueError(f"unknown scalar activation {tag!r}")


def _check_contraction(f_values, R: float, lam: float, pool, project, right_norm,
                       activation: str, label: str) -> tuple[float, float]:
    """The peeling check for one ball: pool(dim) gives the feasible starting
    directions, project maps rows back onto the ball, and right_norm is the
    dual norm over the last axis of the (E, K, dim) signed sums.  Each sign
    vector's best start is refined by projected ascent.  R and lam must be
    finite and positive (the step needs g(z) = exp(lam z) increasing), and
    f_values finite."""
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


def check_contraction_frobenius(f_values, R: float, lam: float,
                                direction_samples: int = 64, seed: int = 0,
                                activation: str = "relu") -> tuple[float, float]:
    """One-sided check of the exp-moment peeling step for Frobenius balls.

    f_values has shape (K, m, dim): K vector-valued functions evaluated on m
    points.  With g(z) = exp(lam z),
      lhs = E_eps sup_{f, |w|=R} g(|sum_i eps_i act(w . f_i)|)   (sampled w)
      rhs = 2 E_eps sup_f g(R |sum_i eps_i f_i|)                 (exact)
    and lhs <= rhs must hold; activation must be positive-homogeneous
    (relu or identity).
    """
    if activation not in ELEMENTWISE_TAGS:
        raise ValueError("the Frobenius contraction step needs relu or identity")

    def pool(dim):
        dirs = _rng(seed, 0).standard_normal((direction_samples, dim))
        return dirs * (R / np.sqrt((dirs * dirs).sum(axis=1, keepdims=True)))

    def sphere(w):
        n = np.sqrt((w * w).sum(axis=1, keepdims=True))
        return np.where(n > 0, w * (R / n), w)

    return _check_contraction(f_values, R, lam, pool, sphere,
                              lambda t: np.sqrt((t * t).sum(axis=2)),
                              activation, "contraction")


def check_contraction_l1inf(f_values, R: float, lam: float,
                            direction_samples: int = 64, seed: int = 0,
                            activation: str = "relu") -> tuple[float, float]:
    """One-sided check of the peeling step for per-row l1 balls.

    Same shape conventions as the Frobenius variant, with w ranging over the
    radius-R l1 ball and the infinity norm on the right side:
      rhs = 2 E_eps sup_f g(R max_j |sum_i eps_i f_i[j]|).
    The ball's vertices +-R e_j are always in the candidate pool (they are
    exact maximisers of the linearised objective); the activation only needs
    to fix 0, so clip1 is allowed alongside relu and identity.
    """
    def pool(dim):
        interior = _rng(seed, 0).standard_normal((direction_samples, dim))
        interior = interior * (R / np.abs(interior).sum(axis=1, keepdims=True))
        return np.concatenate([R * np.eye(dim), -R * np.eye(dim), interior], axis=0)

    return _check_contraction(f_values, R, lam, pool,
                              lambda w: matlin.project_l1_rows(w, R),
                              lambda t: np.abs(t).max(axis=2),
                              activation, "l1/inf contraction")


def check_union_bound(classes, A: float, m: int) -> tuple[float, float]:
    """Exact check that pooling classes costs at most 2 sqrt(2) A sqrt(ln r / m).

    classes are m x K_j evaluation matrices uniformly bounded by A:
      lhs = exact complexity of the pooled class,
      rhs = max_j exact complexity of class j + 2 sqrt(2) A sqrt(ln r)/sqrt(m).
    """
    mats = [np.asarray(c, dtype=np.float64) for c in classes]
    if not mats:
        raise ValueError("need at least one class")
    for i, v in enumerate(mats, start=1):
        if v.ndim != 2 or v.shape[0] != m:
            raise ValueError(f"class {i} is not an m x K matrix")
        if not np.isfinite(v).all():
            raise ValueError(f"class {i} has non-finite entries")
        if np.abs(v).max() > A * (1.0 + 1e-12):
            raise ValueError(f"class {i} exceeds the stated bound A={A}")
    lhs = exact_rademacher(np.hstack(mats)).value
    r = len(mats)
    rhs = max(exact_rademacher(v).value for v in mats) \
        + 2.0 * math.sqrt(2.0) * A * math.sqrt(math.log(r)) / math.sqrt(m)
    if lhs > rhs + 1e-12:
        raise VerificationError(f"union bound violated: lhs={lhs} > rhs={rhs}")
    return lhs, rhs


# ---------------------------------------------------------------------------
# Explicit cover of bounded 1-Lipschitz functions fixing the origin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzCover:
    """A finite sup-norm cover of {f : [-R, R] -> R, 1-Lipschitz, f(0) = 0}.

    Members are piecewise-linear with slope -1, 0 or +1 on each grid
    segment, encoded as one sign per segment and anchored so the value at 0
    is exactly 0.  Member count is 3^(segments) <= 3^(floor(2R/eps) + 1).
    """

    R: float
    eps: float
    grid: np.ndarray
    signs: np.ndarray  # (n_members, n_segments) int8

    @property
    def n_members(self) -> int:
        return self.signs.shape[0]

    def member_values(self) -> np.ndarray:
        """Values of every member at the grid points, origin-anchored."""
        widths = np.diff(self.grid)
        v = np.concatenate(
            [np.zeros((self.n_members, 1)),
             np.cumsum(self.signs.astype(np.float64) * widths, axis=1)], axis=1,
        )
        return v - self._at_zero(v)[:, None]

    def _at_zero(self, v: np.ndarray) -> np.ndarray:
        i = int(np.clip(np.searchsorted(self.grid, 0.0, side="right") - 1,
                        0, len(self.grid) - 2))
        w = self.grid[i + 1] - self.grid[i]
        t = (0.0 - self.grid[i]) / w if w > 0 else 0.0
        return v[:, i] * (1.0 - t) + v[:, i + 1] * t

    def values_on(self, xs) -> np.ndarray:
        """(n_members, len(xs)) piecewise-linear member values."""
        xs = np.asarray(xs, dtype=np.float64)
        v = self.member_values()
        seg = np.clip(np.searchsorted(self.grid, xs, side="right") - 1,
                      0, len(self.grid) - 2)
        width = np.diff(self.grid)[seg]
        t = np.where(width > 0, (xs - self.grid[seg]) / width, 0.0)
        return v[:, seg] * (1.0 - t) + v[:, seg + 1] * t


def build_lipschitz_cover(R: float, eps: float) -> LipschitzCover:
    """Enumerate the slope-sign cover of the origin-anchored Lipschitz class."""
    if not 0 < eps <= 2 * R:
        raise ValueError(f"need 0 < eps <= 2R, got eps={eps}, R={R}")
    grid = _cover_grid(R, eps)
    if len(grid) > COVER_MAX_GRID:
        raise ValueError(
            f"x-grid would have {len(grid)} points (> {COVER_MAX_GRID}); the member "
            f"count 3^{len(grid) - 1} is unmanageable, increase eps"
        )
    n_seg = len(grid) - 1
    n_members = 3 ** n_seg
    idx = np.arange(n_members)
    signs = np.empty((n_members, n_seg), dtype=np.int8)
    for s in range(n_seg):
        signs[:, s] = (idx // 3 ** s) % 3 - 1
    return LipschitzCover(R=float(R), eps=float(eps), grid=grid, signs=signs)


def _cover_grid(R: float, eps: float) -> np.ndarray:
    n = round(2.0 * R / eps)
    if n >= 1 and abs(n * eps - 2.0 * R) <= 1e-9 * max(1.0, 2.0 * R):
        return np.linspace(-R, R, n + 1)
    k = int(math.floor(2.0 * R / eps))
    pts = -R + eps * np.arange(k + 1, dtype=np.float64)
    return np.append(pts, R)


def verify_cover(cover: LipschitzCover, trials: int, seed: int = 0) -> float:
    """Max over random 1-Lipschitz origin-anchored f of the min member distance.

    Test functions take random +-1 slopes on the 4x-refined grid; distances
    are exact sups (both sides are piecewise linear on the fine grid).
    Raises if any f is farther than eps from the whole cover.
    """
    fine = _refined_grid(cover.grid, 4)
    mvals = cover.values_on(fine)
    dx = np.diff(fine)
    fs = np.empty((trials, fine.size))
    for t, gen in enumerate(_index_streams(seed, (), trials)):
        slopes = gen.choice([-1.0, 1.0], size=dx.size)
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


def _refined_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    pieces = [
        np.linspace(grid[i], grid[i + 1], factor + 1)[:-1]
        for i in range(len(grid) - 1)
    ]
    return np.concatenate(pieces + [grid[-1:]])
