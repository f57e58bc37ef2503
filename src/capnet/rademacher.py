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
from .network import Dataset, Network, _rng, activation_batch

ENUM_CAP = 22           # exact enumeration of sign vectors caps at 2^22
CONTRACTION_CAP = 14    # sign-enumeration cap inside the contraction harnesses
COVER_MAX_GRID = 16     # largest x-grid for the explicit Lipschitz cover


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
    constraints lists the enforced balls per layer.  masks optionally pin a
    sparsity pattern (entries off the mask stay zero); trainable marks which
    layers are optimised at all (others stay at the template weights, e.g.
    the fixed scalar tail of the lower-bound construction).  Left as None,
    they become no mask and all trainable, one entry per layer.
    """

    template: Network
    constraints: tuple[tuple[matlin.BallConstraint, ...], ...]
    masks: tuple[np.ndarray | None, ...] | None = None
    trainable: tuple[bool, ...] | None = None

    def __post_init__(self):
        d = self.template.depth
        if self.template.output_dim != 1:
            raise ValueError("class template must be scalar-valued (final layer has one row)")
        if len(self.constraints) != d:
            raise ValueError(f"need one constraint tuple per layer, got {len(self.constraints)}")
        if self.masks is not None and len(self.masks) != d:
            raise ValueError("masks must align with layers")
        if self.trainable is not None and len(self.trainable) != d:
            raise ValueError("trainable flags must align with layers")
        if self.masks is None:
            object.__setattr__(self, "masks", (None,) * d)
        if self.trainable is None:
            object.__setattr__(self, "trainable", (True,) * d)
        for j, tr in enumerate(self.trainable):
            if tr and not self.constraints[j]:
                raise ValueError(f"trainable layer {j + 1} needs at least one ball constraint")


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def sign_matrix(m: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows are the sign vectors with indices [start, stop) in binary order."""
    stop = (1 << m) if stop is None else stop
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(m, dtype=np.int64)
    return (((idx[:, None] >> shifts) & 1) * 2 - 1).astype(np.float64)


def _sign_mean(fn, m: int) -> float:
    """Exact mean of fn over all 2^m sign vectors.

    fn maps a block of sign vectors to one value per row.  Block c holds the
    rows [c 2^14, (c+1) 2^14) of ``sign_matrix(m)`` (one block of all 2^m
    rows when m <= 14), and the block sums are added in order.  The low 14
    columns are the same in every block and the others are constant within
    one, so a single array is built once and only its high columns change
    between blocks: fn must neither keep nor modify the block it is given.
    """
    low = min(14, m)
    block = np.empty((1 << low, m))
    block[:, :low] = sign_matrix(low)
    high = np.arange(m - low, dtype=np.int64)
    acc = 0.0
    for c in range(1 << (m - low)):
        block[:, low:] = ((c >> high) & 1) * 2 - 1
        acc += float(fn(block).sum())
    return acc / (1 << m)


def enumeration_estimate(fn, m: int, value, hint: str) -> RademacherEstimate:
    """The exact estimate whose value is ``value(mean)``, for the mean of fn
    over all 2^m sign vectors (see :func:`_sign_mean`); m above ENUM_CAP is
    refused with the caller's hint at a sampling alternative."""
    if m > ENUM_CAP:
        raise ValueError(f"m={m} exceeds the exact-enumeration cap {ENUM_CAP}; {hint}")
    return RademacherEstimate(
        value=value(_sign_mean(fn, m)), method="exact-enumeration",
        epsilon_samples=2 ** m, sup_restarts=0, sup_steps=0, std_error=0.0, seed=0,
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

def _forward_cached(weights, acts, x):
    """Forward pass keeping inputs and pre-activations of every layer."""
    a = x
    inputs, preacts = [], []
    for w, act in zip(weights, acts):
        inputs.append(a)
        z = a @ w.T
        preacts.append(z)
        a = z if act is None else activation_batch(act, z)
    return a[:, 0], inputs, preacts


def _backward(weights, acts, inputs, preacts, g_out):
    """Gradients of sum_i g_out_i * y_i with respect to every weight matrix.

    Subgradient conventions: relu'(0) = 0; the scalar-max routes its
    gradient to the lowest-index maximising coordinate.
    """
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
            # identity: pass through
        grads[j] = g.T @ inputs[j]
        if j > 0:
            g = g @ weights[j]
    return grads


def _enforce(w, constraints, mask):
    """Projection onto all of the layer's balls (and its mask).

    A single ball without a mask takes one projection, which shares its SVD
    with the norm check and lands in the ball.  Masking can raise a Schatten
    norm, so other layers cycle through their balls until a pass changes
    nothing; a final uniform scale-down guarantees strict feasibility even
    when the alternating passes have not fully converged, so every candidate
    the ascent evaluates really is in the class.
    """
    if mask is None and len(constraints) == 1:
        return matlin.project_to_ball(w, constraints[0])
    if mask is not None:
        w = w * mask
    for _ in range(8):
        ok = True
        for c in constraints:
            out = matlin.project_to_ball(w, c)
            if out is not w:
                w = out if mask is None else out * mask
                ok = False
        if ok:
            return w
    worst = max((matlin.matrix_norm(w, c.kind) / c.radius for c in constraints),
                default=1.0)
    return w / worst if worst > 1.0 else w


def _scale_to_boundary(w, c):
    n = matlin.matrix_norm(w, c.kind)
    return w * (c.radius / n) if n > 0 else w


def sup_ascent(eps, spec: ClassSpec, data: Dataset, restarts: int = 8,
               steps: int = 500, seed: int = 0) -> tuple[float, list[np.ndarray]]:
    """Maximise (1/m) sum_i eps_i f(x_i) over the constrained class.

    Projected gradient ascent (step 0.1/sqrt(t)) with multiple restarts: one
    deterministic restart starts from the boundary-scaled sign-weighted data
    correlation, the rest from seeded random boundary points; each restart
    ends with a few support-point refinement rounds.  Every evaluated
    candidate is feasible, so the returned value is a certified lower bound
    on the true supremum, and it is deterministic for a fixed seed.

    Positive homogeneity of the activations lets the ascent run with the
    leading radius of every trainable layer normalised to 1; the result is
    rescaled by the radius product, which makes the value exactly
    proportional to each layer's budget.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (data.m,) or not np.all(np.abs(eps) == 1.0):
        raise ValueError("eps must be a vector of +-1 of length m")
    if data.dim != spec.template.input_dim:
        raise ValueError("data dimension does not match the class template")
    x = data.points
    m = data.m
    d = spec.template.depth
    acts = [l.activation for l in spec.template.layers]
    masks, trainable = spec.masks, spec.trainable
    if restarts < 1 and not any(trainable):
        raise ValueError("a class with no trainable layer needs restarts >= 1")

    # normalise leading radii to 1
    multiplier = 1.0
    norm_cons: list[tuple[matlin.BallConstraint, ...]] = []
    base_weights: list[np.ndarray] = []
    for j in range(d):
        w = spec.template.layers[j].weight
        if trainable[j]:
            r0 = spec.constraints[j][0].radius
            multiplier *= r0
            norm_cons.append(tuple(
                matlin.BallConstraint(c.kind, c.radius / r0) for c in spec.constraints[j]
            ))
            base_weights.append(w / r0)
        else:
            norm_cons.append(())
            base_weights.append(w)

    def feasible(ws):
        return [
            _enforce(w, norm_cons[j], masks[j]) if trainable[j] else w
            for j, w in enumerate(ws)
        ]

    best_val = -math.inf
    best_ws = None

    def consider(ws):
        """The objective at ws, kept as the best when it beats it."""
        nonlocal best_val, best_ws
        v = float(eps @ _forward_cached(ws, acts, x)[0]) / m
        if v > best_val:
            best_val, best_ws = v, [w.copy() for w in ws]
        return v

    # the zero function is in the class whenever some layer is trainable
    if any(trainable):
        zero_ws = list(base_weights)
        j0 = trainable.index(True)
        zero_ws[j0] = np.zeros_like(zero_ws[j0])
        consider(feasible(zero_ws))

    corr = (eps @ x) / m
    g_out = eps / m
    last_trainable = max((j for j in range(d) if trainable[j]), default=None)
    for k in range(restarts):
        ws = [w.copy() for w in base_weights]
        if k == 0 and trainable[0]:
            # deterministic restart at the sign-weighted data correlation
            w1 = np.tile(corr, (ws[0].shape[0], 1))
            if masks[0] is not None:
                w1 = w1 * masks[0]
            ws[0] = _scale_to_boundary(w1, norm_cons[0][0])
        else:
            rng = _rng(seed, k)
            for j in range(d):
                if trainable[j]:
                    w = rng.standard_normal(ws[j].shape)
                    if masks[j] is not None:
                        w = w * masks[j]
                    ws[j] = _scale_to_boundary(w, norm_cons[j][0])
        ws = feasible(ws)
        for t in range(1, steps + 1):
            y, inputs, preacts = _forward_cached(ws, acts, x)
            v = float(eps @ y) / m
            if v > best_val:
                best_val, best_ws = v, [w.copy() for w in ws]
            grads = _backward(ws, acts, inputs, preacts, g_out)
            lr = 0.1 / math.sqrt(t)
            for j in range(d):
                if trainable[j]:
                    g = grads[j] if masks[j] is None else grads[j] * masks[j]
                    ws[j] = _enforce(ws[j] + lr * g, norm_cons[j], masks[j])
        current = consider(ws)  # the objective at ws from here on
        if last_trainable is not None:
            # negating the output-side trainable layer is always feasible and,
            # with a linear tail, exactly flips the function's sign; rescues
            # wrong-sign basins cheaply
            flipped = list(ws)
            flipped[last_trainable] = -flipped[last_trainable]
            if (v := consider(flipped)) > current:
                ws, current = flipped, v
        # support-point refinement: jump to each ball's maximiser of the
        # linearised objective; exact for single-layer linear classes
        for _ in range(4):
            y, inputs, preacts = _forward_cached(ws, acts, x)
            grads = _backward(ws, acts, inputs, preacts, g_out)
            cand = []
            for j in range(d):
                if trainable[j]:
                    g = grads[j] if masks[j] is None else grads[j] * masks[j]
                    if g.any():
                        cj = matlin.linear_maximizer(g, norm_cons[j][0])
                    else:
                        cj = ws[j]
                    cand.append(_enforce(cj, norm_cons[j], masks[j]))
                else:
                    cand.append(ws[j])
            if (v := consider(cand)) > current:
                ws, current = cand, v
            else:
                break

    out_weights = [
        best_ws[j] * spec.constraints[j][0].radius if trainable[j] else best_ws[j]
        for j in range(d)
    ]
    return multiplier * best_val, out_weights


def mc_rademacher(spec: ClassSpec, data: Dataset, epsilon_samples: int,
                  restarts: int = 8, steps: int = 500, seed: int = 0) -> RademacherEstimate:
    """Monte Carlo estimate: average the ascent supremum over sampled signs.

    Lower-biased for the true complexity (the inner sup is under-estimated).
    """
    if epsilon_samples < 2:
        raise ValueError("need at least 2 epsilon samples")
    vals = np.empty(epsilon_samples)
    for i in range(epsilon_samples):
        eps = _rng(seed, i, 0).choice([-1.0, 1.0], size=data.m)
        sub_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(i, 1)).generate_state(1)[0])
        vals[i], _ = sup_ascent(eps, spec, data, restarts=restarts, steps=steps, seed=sub_seed)
    return RademacherEstimate(
        value=float(vals.mean()), method="monte-carlo", epsilon_samples=epsilon_samples,
        sup_restarts=restarts, sup_steps=steps,
        std_error=float(vals.std(ddof=1) / math.sqrt(epsilon_samples)), seed=seed,
    )


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
    if activation not in ("relu", "identity"):
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


def _refined_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    pieces = [
        np.linspace(grid[i], grid[i + 1], factor + 1)[:-1]
        for i in range(len(grid) - 1)
    ]
    return np.concatenate(pieces + [grid[-1:]])
