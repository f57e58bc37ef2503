"""Rank-1 layer replacement with a certified sup-norm deviation bound.

Given per-layer norm products Gamma (spectral) and M (Schatten-p), one of
the first r layers must have a Schatten/spectral ratio at most (M/Gamma)^(1/r).
Replacing that layer with its leading singular triple changes the computed
function by at most B * Gamma * (2 p ln(M/Gamma) / r)^(1/p) over the radius-B
ball; when r < p ln(M/Gamma) the guarantee is met trivially by zeroing layer
r.  Certificates carry both the layer-perturbation bound and this closed
form, and can be re-checked by sampling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import matlin
from .errors import DegenerateLayerError, NumericalError, VerificationError
from .network import (Layer, Network, NormProfile, _row_norms, _run_layers, activation_batch,
                      forward_batch, lipschitz_product, override_products, profile,
                      sphere_points)

# a layer whose second singular value is this far below its first is treated
# as already rank-1 and kept verbatim
_RANK1_RTOL = 1e-12


@dataclass(frozen=True)
class CompressionCertificate:
    """Deviation certificate for one rank-1 (or zeroing) replacement.

    lemma_bound is B * Gamma * ||W - W~|| / ||W|| for the replaced layer;
    theorem_bound is B * Gamma * (2 p ln(M/Gamma) / r)^(1/p).  When the
    requested r is below p ln(M/Gamma), degenerate_zero is set and layer r
    was replaced by the all-zeros matrix instead.
    """

    r_requested: int
    r_prime: int
    p: float
    gamma_product: float
    schatten_product: float
    lemma_bound: float
    theorem_bound: float
    degenerate_zero: bool
    B: float
    inputs_digest: str

    def __post_init__(self):
        if not 1 <= self.r_prime <= self.r_requested:
            raise ValueError("r_prime must lie in {1..r_requested}")
        if not self.degenerate_zero:
            if not self.lemma_bound <= self.theorem_bound * (1.0 + 1e-9):
                raise VerificationError(
                    f"certificate inconsistent: lemma bound {self.lemma_bound} exceeds "
                    f"theorem bound {self.theorem_bound}"
                )

    def to_obj(self) -> dict:
        return dataclasses.asdict(self)


def select_layer(net: Network, p: float, r: int) -> int:
    """Index (1-based) in {1..r} minimising ||W_j||_p / ||W_j||, first on ties.

    The returned layer's ratio is at most (M/Gamma)^(1/r) where M and Gamma
    are the network-wide Schatten-p and spectral norm products.
    """
    if not 1 <= r <= net.depth:
        raise ValueError(f"r={r} out of range for depth {net.depth}")
    return _select(profile(net, p), r)


def _select(prof: NormProfile, r: int) -> int:
    best_j, best_ratio = 0, math.inf
    for j in range(1, r + 1):
        spec = prof.spectral[j - 1]
        if spec == 0.0:
            raise DegenerateLayerError(f"layer {j} is zero; ratio undefined")
        ratio = prof.schatten[j - 1] / spec
        if ratio < best_ratio:
            best_j, best_ratio = j, ratio
    return best_j


def rank1_replace(net: Network, p: float, r: int, B: float,
                  gamma_override: float | None = None,
                  schatten_override: float | None = None,
                  ) -> tuple[Network, CompressionCertificate]:
    """Replace one near-rank-1 layer and certify the sup-norm deviation.

    Gamma and M default to the network's actual norm products; overrides
    let callers certify against looser external budgets and must be finite
    and > 0, as B must be finite and >= 0.  A bound that overflows (inf or
    nan) certifies nothing and raises :class:`NumericalError`.
    """
    matlin._check_schatten_p(p)
    _check_radius(B)
    if not 1 <= r <= net.depth:
        raise ValueError(f"r={r} out of range for depth {net.depth}")
    prof = override_products(profile(net, p), gamma_override, schatten_override)
    gamma_prod, m_prod = prof.gamma, prof.schatten_product
    if gamma_prod <= 0.0:
        raise DegenerateLayerError("zero spectral-norm product; certificate undefined")
    log_ratio = max(0.0, math.log(m_prod / gamma_prod))
    theorem_bound = B * gamma_prod * (2.0 * p * log_ratio / r) ** (1.0 / p)

    if r >= p * log_ratio:
        r_prime = _select(prof, r)
        w = net.layers[r_prime - 1].weight
        approx, err = matlin.rank1_approx(w)
        spec = prof.spectral[r_prime - 1]
        if err <= _RANK1_RTOL * spec:
            approx = w  # already rank-1: keep the layer verbatim
        lemma_bound = B * gamma_prod * err / spec
        degenerate = False
    else:
        r_prime = r
        w = net.layers[r_prime - 1].weight
        approx = np.zeros_like(w)
        lemma_bound = B * gamma_prod  # ||W - 0|| / ||W|| = 1
        degenerate = True

    if not (math.isfinite(lemma_bound) and math.isfinite(theorem_bound)):
        raise NumericalError(f"certificate bounds overflowed at B={B}: lemma bound "
                             f"{lemma_bound}, theorem bound {theorem_bound}")

    layers = list(net.layers)
    layers[r_prime - 1] = Layer(weight=approx, activation=layers[r_prime - 1].activation)
    compressed = Network(layers=tuple(layers), input_dim=net.input_dim)
    digest = hashlib.sha256(json.dumps({
        "p": p, "r": r, "B": B, "gamma_product": gamma_prod, "schatten_product": m_prod,
        "spectral": prof.spectral, "schatten": prof.schatten,
        "overrides": [gamma_override, schatten_override],
    }, sort_keys=True).encode()).hexdigest()[:12]
    cert = CompressionCertificate(
        r_requested=r, r_prime=r_prime, p=p, gamma_product=gamma_prod,
        schatten_product=m_prod, lemma_bound=lemma_bound, theorem_bound=theorem_bound,
        degenerate_zero=degenerate, B=B, inputs_digest=digest,
    )
    return compressed, cert


def verify_certificate(net: Network, compressed: Network, cert: CompressionCertificate,
                       B: float, samples: int, seed: int) -> float:
    """Sampled check of the certified deviation; returns the observed maximum.

    Points are drawn uniformly on the radius-B sphere with per-point seeds
    derived from (seed, index), plus the deterministic extremes +-B times
    each right-singular direction of the first layer.  The observed maximum
    is a lower bound on the true sup, so a finite deviation above either
    certified bound (at 1e-6 relative tolerance), or a nan bound, raises
    :class:`VerificationError`.  A forward pass or a deviation that
    overflowed (inf or nan) measures nothing and raises
    :class:`NumericalError`; neither case ever passes.
    """
    _check_radius(B)
    right = matlin.svd(net.layers[0].weight).right
    extremes = [sign * B * right[:, k] for k in range(right.shape[1]) for sign in (1.0, -1.0)]
    x = np.vstack([B * sphere_points(net.input_dim, samples, seed)] + extremes)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = forward_batch(net, x) - forward_batch(compressed, x)
    # an entry that overflowed in either forward pass or in diff makes its
    # row's norm nan, and the max nan
    observed = float(_row_norms(diff).max())
    if not math.isfinite(observed):
        raise NumericalError(f"the sampled deviation overflowed at B={B}")
    for name, bound in (("lemma", cert.lemma_bound), ("theorem", cert.theorem_bound)):
        if not observed <= bound * (1.0 + 1e-6):
            raise VerificationError(
                f"observed deviation {observed} exceeds {name} bound {bound}"
            )
    return observed


def _check_radius(B: float) -> None:
    if not 0.0 <= B < math.inf:
        raise ValueError(f"domain radius B must be finite and >= 0, got {B}")


@dataclass(frozen=True)
class ChainDescriptor:
    """The univariate tail of a factored network.

    Maps a scalar t to the output of the layers above the rank-1 split:
    t -> W_d s_{d-1}( ... s_{r'}(direction * t)).  lipschitz_bound records
    the product of spectral norms of the tail layers (an upper bound since
    the direction is a unit vector and activations are 1-Lipschitz).
    """

    direction: np.ndarray
    head_activation: str | None
    tail: tuple[Layer, ...]
    lipschitz_bound: float

    def batch(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
        a = t * self.direction[None, :]
        if self.head_activation is not None:
            a = activation_batch(self.head_activation, a)
        return _run_layers([l.weight for l in self.tail], [l.activation for l in self.tail],
                           a)[0]

    def __call__(self, t: float) -> np.ndarray:
        return self.batch(np.asarray([t]))[0]


def factor_compressed(compressed: Network, r_prime: int) -> tuple[Network, ChainDescriptor]:
    """Split a rank-1-layer network into a scalar-output head and a univariate tail.

    Layer r_prime must be rank at most 1 (s * u * v^T).  The head network is
    layers 1..r_prime-1 followed by the single row s * v^T; the tail maps the
    head's scalar output through u and the remaining layers.  For every x,
    forward(compressed, x) == chain(forward(head, x)).
    """
    if not 1 <= r_prime <= compressed.depth:
        raise ValueError(f"r_prime={r_prime} out of range for depth {compressed.depth}")
    w = compressed.layers[r_prime - 1].weight
    res = matlin.svd(w)
    s = float(res.singular[0])
    if res.singular.size > 1 and res.singular[1] > 1e-10 * max(s, 1e-300):
        raise ValueError(
            f"layer {r_prime} has second singular value {res.singular[1]}; not rank 1"
        )
    u = res.left[:, 0]
    v = res.right[:, 0]
    head_layers = list(compressed.layers[: r_prime - 1])
    head_layers.append(Layer(weight=(s * v)[None, :], activation=None))
    shallow = Network(layers=tuple(head_layers), input_dim=compressed.input_dim)
    chain = ChainDescriptor(
        direction=u,
        head_activation=compressed.layers[r_prime - 1].activation,
        tail=compressed.layers[r_prime:],
        lipschitz_bound=(lipschitz_product(compressed, r_prime + 1)
                         if r_prime < compressed.depth else 1.0),
    )
    return shallow, chain
