"""Explicit constructions attaining the Schatten-budget complexity floor.

Two constructions are built and evaluated exactly:

* a diagonal first layer under a Schatten-p budget, followed by a scalar max
  and a fixed chain of scalar multipliers, on data cycling through scaled
  basis vectors.  Its inner supremum has the closed form ||(c)_+||_q where
  c_k are the per-bucket sign sums and q is the dual exponent of p;
* a scalar weight chain on constant data, whose complexity reduces to the
  mean absolute sign sum E|sum_i eps_i|.

Both values depend on a sign vector only through its per-bucket sign sums
(the scalar chain is one bucket), so each construction hands its inner value
g and its bucket matrix to the enumeration, which evaluates g once per
distinct sum vector and gathers each block of 2^14 per-sign-vector values
from that table, so every block sum is that of evaluating the block's rows
directly.  Sign expectations are enumerated exactly up to m = 22 or sampled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .bounds import _check_gamma, bound_lower
from .errors import VerificationError
from .network import Dataset, Layer, Network, _index_streams
from .rademacher import (SIGN_BLOCK_BITS, ClassSpec, RademacherEstimate,
                         enumeration_estimate, sampled_estimate)


def positive_part_dual_norm(c: np.ndarray, p: float) -> np.ndarray:
    """Row-wise ||max(c, 0)||_q for the dual exponent q of p.

    This is the exact inner supremum sup_{|w|_p <= 1} sum_k max(0, w_k) c_k.
    """
    cp = np.maximum(np.atleast_2d(np.asarray(c, dtype=np.float64)), 0.0)
    q = matlin.dual_exponent(p)
    if math.isinf(q):
        return cp.max(axis=1)
    if q == 1.0:
        return cp.sum(axis=1)
    top = cp.max(axis=1)
    out = np.zeros_like(top)
    nz = top > 0
    out[nz] = top[nz] * ((cp[nz] / top[nz, None]) ** q).sum(axis=1) ** (1.0 / q)
    return out


def witness_inner_value(c: np.ndarray, p: float, h: int) -> np.ndarray:
    """Inner value of the explicit witness w_k = h^(-1/p) sign(c_k).

    Equals h^(-1/p) ||(c)_+||_1, never above the exact dual-norm supremum.
    """
    cp = np.maximum(np.atleast_2d(np.asarray(c, dtype=np.float64)), 0.0)
    return h ** (-1.0 / p) * cp.sum(axis=1)


@dataclass(frozen=True)
class DiagConstruction:
    """Diagonal-layer construction: data x_i = B e_(i mod h), buckets A_k."""

    h: int
    m: int
    p: float
    B: float
    gamma: float
    budgets: tuple[float, ...]
    data: Dataset
    buckets: tuple[tuple[int, ...], ...]

    def bucket_matrix(self) -> np.ndarray:
        """(m, h) indicator: column k marks the 1-based indices i with i mod h = k."""
        b = np.zeros((self.m, self.h))
        for k, idx in enumerate(self.buckets):
            for i in idx:
                b[i - 1, k] = 1.0
        return b


@dataclass(frozen=True)
class ScalarChainConstruction:
    """Scalar chain x -> prod_j budgets_j * w x on constant data x_i = B."""

    m: int
    B: float
    gamma: float
    budgets: tuple[float, ...]

    def __post_init__(self):
        if any(b <= 0 for b in self.budgets):
            raise ValueError("all budgets must be positive")

    def bucket_matrix(self) -> np.ndarray:
        """(m, 1): every point is in the one bucket, whose sign sum is sum_i eps_i."""
        return np.ones((self.m, 1))


def build_diag(h: int, m: int, p: float, B: float, gamma: float,
               budgets) -> tuple[DiagConstruction, ClassSpec]:
    """Build the diagonal construction and a class realising it.

    The realised template's first layer is an (h+1) x h diagonal pattern
    under a Schatten-p ball of radius budgets[0]; the always-zero extra
    output row feeds the scalar max a zero coordinate, so the supremum takes
    the positive-part form for every h (including h = 1).  The remaining
    budgets become fixed scalar layers and the final fixed scalar folds in
    the 1/gamma loss slope.
    """
    if h < 1 or m < 1:
        raise ValueError("need h >= 1 and m >= 1")
    _check_gamma(gamma)
    budgets = tuple(float(b) for b in budgets)
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("budgets must be a non-empty positive sequence")
    d = len(budgets)
    points = np.zeros((m, h))
    buckets: list[list[int]] = [[] for _ in range(h)]
    for i in range(1, m + 1):
        k = i % h
        points[i - 1, k] = B
        buckets[k].append(i)
    data = Dataset(points=points)
    cons = DiagConstruction(
        h=h, m=m, p=float(p), B=float(B), gamma=float(gamma),
        budgets=budgets, data=data,
        buckets=tuple(tuple(b) for b in buckets),
    )

    mask = np.zeros((h + 1, h))
    mask[np.arange(h), np.arange(h)] = 1.0
    first = Layer(weight=(budgets[0] * h ** (-1.0 / p)) * mask,
                  activation="max_to_scalar")
    layers = [first]
    scalars = list(budgets[1:]) or [1.0]
    scalars[-1] = scalars[-1] / gamma
    for j, s in enumerate(scalars):
        last = j == len(scalars) - 1
        layers.append(Layer(weight=np.array([[s]]), activation=None if last else "identity"))
    template = Network(layers=tuple(layers), input_dim=h)
    frozen = (None,) * (len(layers) - 1)
    spec = ClassSpec(template=template,
                     balls=(matlin.BallConstraint(matlin.schatten(p), budgets[0]),) + frozen,
                     masks=(mask,) + frozen)
    return cons, spec


def exact_diag_rademacher(cons: DiagConstruction, samples: int = 0,
                          seed: int = 0) -> RademacherEstimate:
    """Complexity of the diagonal construction with the exact inner supremum.

    value = (B prod_j budgets_j / (gamma m)) * E ||(c)_+||_q with
    c_k = sum_{i in A_k} eps_i.
    """
    return _sign_expectation(lambda c: positive_part_dual_norm(c, cons.p), cons, samples, seed)


def diag_witness_rademacher(cons: DiagConstruction, samples: int = 0,
                            seed: int = 0) -> RademacherEstimate:
    """Same construction evaluated with the explicit witness weights."""
    return _sign_expectation(lambda c: witness_inner_value(c, cons.p, cons.h),
                             cons, samples, seed)


def exact_scalar_chain_rademacher(cons: ScalarChainConstruction, samples: int = 0,
                                  seed: int = 0) -> RademacherEstimate:
    """Complexity of the scalar chain: (B prod budgets / (gamma m)) E|sum eps|."""
    return _sign_expectation(lambda c: np.abs(c[:, 0]), cons, samples, seed)


def _sign_expectation(g, cons, samples: int, seed: int) -> RademacherEstimate:
    """(B prod budgets / (gamma m)) times the sign expectation of g(s @ bmat)
    for the construction's bucket matrix bmat: enumerated when samples = 0,
    else a Monte Carlo mean over samples >= 2, whose sign vectors are drawn
    one stream each and handed to g 2^14 at a time."""
    m = cons.m
    bmat = cons.bucket_matrix()
    scale = cons.B * float(np.prod(cons.budgets)) / (cons.gamma * m)
    if samples == 0:
        return enumeration_estimate(g, m, lambda mean: scale * mean, "use monte-carlo", bmat)
    if samples < 2:
        raise ValueError(f"monte-carlo needs samples >= 2 (0 enumerates), got {samples}")
    vals = np.empty(samples)
    streams = _index_streams(seed, (), samples)
    rows = 1 << SIGN_BLOCK_BITS
    for start in range(0, samples, rows):
        signs = np.array([gen.choice([-1.0, 1.0], size=m)
                          for gen in itertools.islice(streams, rows)])
        vals[start:start + len(signs)] = g(signs @ bmat)
    return sampled_estimate(vals, seed, scale)


def demonstrate_lower_bound(h_grid, m_grid, p_grid, seed: int = 0, B: float = 1.0,
                            gamma: float = 1.0, samples: int = 0) -> list[dict]:
    """Ratio table of the best construction value to the closed-form floor.

    For every (h, m, p) both constructions are evaluated (exactly when
    samples = 0, by Monte Carlo otherwise, which requires samples >= 2000)
    with unit budgets at depth 2, and the ratio to the floor is checked to
    lie in [0.2, 2.0].
    """
    if samples and samples < 2000:
        raise ValueError("monte-carlo demonstrations need at least 2000 samples")
    rows = []
    for h in h_grid:
        for m in m_grid:
            for p in p_grid:
                budgets = (1.0, 1.0)
                cons, _ = build_diag(h, m, p, B, gamma, budgets)
                chain = ScalarChainConstruction(m=m, B=B, gamma=gamma, budgets=budgets)
                dv = exact_diag_rademacher(cons, samples, seed).value
                sv = exact_scalar_chain_rademacher(chain, samples, seed).value
                floor = bound_lower(budgets, B, m, gamma, h, p)
                ratio = max(dv, sv) / floor
                if not 0.2 <= ratio <= 2.0:
                    raise VerificationError(
                        f"ratio {ratio} outside [0.2, 2.0] at h={h} m={m} p={p}"
                    )
                rows.append({
                    "h": h, "m": m, "p": p, "diag_value": dv, "scalar_value": sv,
                    "bound_lower": floor, "ratio": ratio,
                })
    return rows
