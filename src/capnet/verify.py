"""Randomized property suites run by ``capnet verify``, and the random
network generator the suites, ``capnet sweep`` and the tests draw from.

Each suite returns a list of check results; any failure makes the CLI exit
nonzero.  Sizes and seeds are fixed at the canonical desk-scale settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import compress, lowerbound, matlin, rademacher
from .errors import VerificationError
from .network import ELEMENTWISE_TAGS, Layer, Network, _rng, forward_batch


@dataclass(frozen=True)
class CheckResult:
    label: str
    ok: bool
    detail: str = ""


def _result(label: str, fn) -> CheckResult:
    try:
        detail = fn()
        return CheckResult(label=label, ok=True, detail=detail or "")
    except (VerificationError, ValueError) as exc:
        return CheckResult(label=label, ok=False, detail=str(exc))


def random_net(rng: np.random.Generator, depth: int | None = None,
               max_width: int = 8, scalar_output: bool = False,
               input_dim: int | None = None) -> Network:
    """A random ReLU network with the given size caps."""
    depth = depth or int(rng.integers(1, 9))
    dims = [input_dim or int(rng.integers(1, max_width + 1))]
    for _ in range(depth):
        dims.append(int(rng.integers(1, max_width + 1)))
    if scalar_output:
        dims[-1] = 1
    layers = []
    for j in range(depth):
        w = rng.standard_normal((dims[j + 1], dims[j]))
        layers.append(Layer(weight=w, activation="relu" if j < depth - 1 else None))
    return Network(layers=tuple(layers), input_dim=dims[0])


def suite_norms() -> list[CheckResult]:
    """Schatten monotonicity, unitary invariance and SVD reconstruction."""
    rng = _rng(20240)
    ps = [1.0, 1.5, 2.0, 4.0, 8.0]

    def run():
        for i in range(200):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            w = rng.standard_normal((rows, cols)) * rng.uniform(0.2, 5.0)
            res = matlin.svd(w)
            if np.abs(res.reconstruct() - w).max() > 1e-10 * max(
                    1.0, float(np.abs(w).max())):
                raise VerificationError(f"matrix {i}: SVD reconstruction off")
            for side, dim in ((res.left, rows), (res.right, cols)):
                g = side.T @ side
                if np.abs(g - np.eye(g.shape[0])).max() > 1e-10:
                    raise VerificationError(f"matrix {i}: factor not orthonormal")
            sv = matlin.singular_values(w)
            vals = [matlin.singular_norm(sv, matlin.schatten(p)) for p in ps + [math.inf]]
            for a, b in zip(vals, vals[1:]):
                if not a >= b - 1e-10:
                    raise VerificationError(f"matrix {i}: Schatten chain not monotone")
            q, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
            u, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
            moved = matlin.singular_values(q @ w @ u)
            for p in (1.0, 2.0, 4.0):
                kind = matlin.schatten(p)
                before, after = (matlin.singular_norm(s, kind) for s in (sv, moved))
                if abs(after - before) > 1e-8 * max(1.0, before):
                    raise VerificationError(f"matrix {i}: not unitarily invariant at p={p}")
        return "200 matrices up to 16x16"

    return [_result("norms: monotonicity, invariance, reconstruction", run)]


def suite_contraction() -> list[CheckResult]:
    """Both contraction harnesses on random small instances."""
    rng = _rng(20241)
    out = []
    for name, checker, tags in (
        ("frobenius", rademacher.check_contraction_frobenius, ELEMENTWISE_TAGS),
        ("l1inf", rademacher.check_contraction_l1inf, ELEMENTWISE_TAGS + ("clip1",)),
    ):
        def run(checker=checker, tags=tags):
            fs, Rs, lams = [], [], []
            for _ in range(50):
                k, m, dim = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (3, 9), (2, 4)))
                fs.append(rng.standard_normal((k, m, dim)))
                Rs.append(float(rng.uniform(0.5, 2.0)))
                lams.append(float(rng.uniform(0.1, 0.8)))
            checker(fs, R=Rs, lam=lams, direction_samples=48, seed=[20241 + i for i in range(50)],
                    activation=[tags[i % len(tags)] for i in range(50)])
            return "50 instances"

        out.append(_result(f"contraction ({name}): lhs <= rhs", run))
    return out


def suite_union() -> list[CheckResult]:
    rng = _rng(20242)

    def run():
        for _ in range(50):
            m = int(rng.integers(2, 11))
            r = int(rng.integers(1, 9))
            a = float(rng.uniform(0.5, 3.0))
            classes = [
                np.clip(rng.standard_normal((m, int(rng.integers(1, 6)))) * a, -a, a)
                for _ in range(r)
            ]
            rademacher.check_union_bound(classes, A=a, m=m)
        return "50 instances"

    return [_result("union: pooled complexity within 2*sqrt(2) A sqrt(ln r / m)", run)]


def suite_cover() -> list[CheckResult]:
    out = []
    for eps in (0.5, 0.25):
        def run(eps=eps):
            cover = rademacher.build_lipschitz_cover(1.0, eps)
            cap = 3 ** (math.floor(2.0 / eps) + 1)
            if cover.n_members > cap:
                raise VerificationError(f"member count {cover.n_members} over cap {cap}")
            worst = rademacher.verify_cover(cover, trials=200, seed=20243)
            return f"{cover.n_members} members, worst distance {worst:.6f}"

        out.append(_result(f"cover eps={eps}: size cap and covering radius", run))
    return out


def suite_certificate() -> list[CheckResult]:
    """Replacement certificates are sound; the factored form matches."""
    rng = _rng(20244)

    def run_cert():
        for i in range(100):
            net = random_net(rng, depth=int(rng.integers(1, 9)), max_width=8)
            r = int(rng.integers(1, net.depth + 1))
            compressed, cert = compress.rank1_replace(net, p=2.0, r=r, B=1.0)
            compress.verify_certificate(net, compressed, cert, B=1.0,
                                        samples=1000, seed=20244 + i)
        return "100 networks, 1000 samples each"

    def run_factor():
        for i in range(50):
            net = random_net(rng, depth=int(rng.integers(1, 7)), max_width=6)
            r = int(rng.integers(1, net.depth + 1))
            compressed, cert = compress.rank1_replace(net, p=2.0, r=r, B=1.0)
            shallow, chain = compress.factor_compressed(compressed, cert.r_prime)
            x = rng.standard_normal((100, net.input_dim))
            direct = forward_batch(compressed, x)
            via = chain.batch(forward_batch(shallow, x)[:, 0])
            scale = max(1.0, float(np.abs(direct).max()))
            if np.abs(direct - via).max() > 1e-10 * scale:
                raise VerificationError(f"net {i}: factored evaluation diverges")
        return "50 networks, 100 points each"

    return [
        _result("certificate: sampled deviation within both bounds", run_cert),
        _result("certificate: factored two-path evaluation agrees", run_factor),
    ]


def suite_lowerbound() -> list[CheckResult]:
    def run():
        rows = lowerbound.demonstrate_lower_bound(
            h_grid=(2, 4, 8), m_grid=(8, 16), p_grid=(1.0, 2.0, math.inf), seed=20245,
        )
        return f"{len(rows)} grid points, ratios in [0.2, 2.0]"

    return [_result("lowerbound: construction/floor ratios in window", run)]


SUITES = {
    "norms": suite_norms,
    "contraction": suite_contraction,
    "union": suite_union,
    "cover": suite_cover,
    "certificate": suite_certificate,
    "lowerbound": suite_lowerbound,
}


def run_suites(names) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
