import math
import os
import pathlib
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from capnet import compress, matlin
from capnet.errors import DegenerateLayerError, NumericalError, VerificationError
from capnet.network import forward, forward_batch, profile
from capnet.verify import random_net
from conftest import make_net

mpmath.mp.dps = 50


class TestSelectLayer:
    def test_argmin_with_tie_break(self):
        # Frobenius/spectral ratios: sqrt(2), 1.0, sqrt(2); layer 2 wins,
        # and among the tied layers 1 and 3 the first index would win
        net = make_net([np.diag([1.0, 1.0]), np.diag([5.0, 1e-9]),
                        np.eye(2)], ["relu", "relu", None])
        assert compress.select_layer(net, 2.0, 3) == 2
        tied = make_net([np.eye(2), np.eye(2), np.eye(2)], ["relu", "relu", None])
        assert compress.select_layer(tied, 2.0, 3) == 1

    def test_r_equals_one(self, rng):
        net = make_net([rng.standard_normal((3, 3)), rng.standard_normal((1, 3))])
        assert compress.select_layer(net, 2.0, 1) == 1

    def test_ratio_within_product_cap(self, rng):
        for _ in range(20):
            net = random_net(rng, depth=int(rng.integers(2, 7)), max_width=6)
            prof = profile(net, 2.0)
            r = int(rng.integers(1, net.depth + 1))
            j = compress.select_layer(net, 2.0, r)
            ratio = prof.schatten[j - 1] / prof.spectral[j - 1]
            cap = (prof.schatten_product / prof.gamma) ** (1.0 / r)
            assert ratio <= cap * (1 + 1e-12)

    def test_zero_layer_error(self):
        net = make_net([np.zeros((2, 2)), np.ones((1, 2))])
        with pytest.raises(DegenerateLayerError):
            compress.select_layer(net, 2.0, 1)


class TestRank1Replace:
    def test_identity_layers_example(self):
        # three 2x2 identity layers: ratio sqrt(2) each, M/Gamma = 2 sqrt(2)
        net = make_net([np.eye(2)] * 3, ["relu", "relu", None])
        compressed, cert = compress.rank1_replace(net, p=2.0, r=3, B=1.0)
        assert not cert.degenerate_zero  # 2 ln(2 sqrt 2) ~ 2.079 <= 3
        want = float(mpmath.sqrt(4 * mpmath.log(2 * mpmath.sqrt(2)) / 3))
        assert cert.theorem_bound == pytest.approx(want, rel=1e-12)
        assert cert.theorem_bound == pytest.approx(1.17741, abs=5e-6)

    def test_rank1_layer_is_kept_verbatim(self, rng):
        w2 = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        net = make_net([np.eye(3) * 2.0, w2, rng.standard_normal((1, 3))],
                       ["relu", "relu", None])
        compressed, cert = compress.rank1_replace(net, p=2.0, r=2, B=1.0)
        assert cert.r_prime == 2
        assert cert.lemma_bound <= 1e-10 * cert.gamma_product
        assert compressed.layers[1].weight is net.layers[1].weight

    def test_degenerate_zero_fallback(self, rng):
        # wide random layers make p ln(M/Gamma) > 1 while r = 1
        net = make_net([rng.standard_normal((6, 6)), rng.standard_normal((6, 6)),
                        rng.standard_normal((1, 6))])
        prof = profile(net, 2.0)
        assert 2.0 * math.log(prof.schatten_product / prof.gamma) > 1.0
        compressed, cert = compress.rank1_replace(net, p=2.0, r=1, B=1.0)
        assert cert.degenerate_zero and cert.r_prime == 1
        assert not compressed.layers[0].weight.any()
        assert cert.lemma_bound == pytest.approx(cert.gamma_product)
        # zero network deviates by at most B * Gamma <= theorem bound
        obs = compress.verify_certificate(net, compressed, cert, B=1.0,
                                          samples=200, seed=4)
        assert obs <= cert.gamma_product * (1 + 1e-9)

    def test_certificate_ordering_and_monotone_in_r(self, rng):
        net = random_net(rng, depth=5, max_width=5)
        prev = math.inf
        for r in range(1, 6):
            _, cert = compress.rank1_replace(net, p=2.0, r=r, B=1.0)
            if not cert.degenerate_zero:
                assert cert.lemma_bound <= cert.theorem_bound * (1 + 1e-9)
            assert cert.theorem_bound <= prev * (1 + 1e-12)
            prev = cert.theorem_bound

    def test_replacement_never_expands_norms(self, rng):
        for _ in range(20):
            net = random_net(rng, depth=4, max_width=5)
            compressed, cert = compress.rank1_replace(net, p=2.0, r=4, B=1.0)
            j = cert.r_prime - 1
            for kind in (matlin.SPECTRAL, matlin.schatten(2)):
                assert matlin.matrix_norm(compressed.layers[j].weight, kind) <= \
                    matlin.matrix_norm(net.layers[j].weight, kind) * (1 + 1e-12)


class TestVerifyCertificate:
    def test_identical_networks(self, rng):
        net = random_net(rng, depth=3, max_width=4)
        _, cert = compress.rank1_replace(net, p=2.0, r=3, B=1.0)
        assert compress.verify_certificate(net, net, cert, B=1.0, samples=50, seed=0) == 0.0

    def test_diagonal_single_layer_sup_is_exact(self):
        net = make_net([np.diag([5.0, 3.0])], [None])
        compressed, cert = compress.rank1_replace(net, p=2.0, r=1, B=1.0)
        assert not cert.degenerate_zero
        np.testing.assert_allclose(compressed.layers[0].weight,
                                   np.diag([5.0, 0.0]), atol=1e-12)
        assert cert.lemma_bound == pytest.approx(3.0)  # B * Gamma * s2/s1 = 5 * 3/5
        obs = compress.verify_certificate(net, compressed, cert, B=1.0,
                                          samples=100, seed=1)
        # the +-B e_2 extremes achieve the sup exactly
        assert obs == pytest.approx(3.0, rel=1e-12)

    def test_sampled_soundness_on_relu_net(self, rng):
        net = random_net(rng, depth=4, max_width=6)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=4, B=1.5)
        obs = compress.verify_certificate(net, compressed, cert, B=1.5,
                                          samples=1000, seed=7)
        assert obs <= cert.lemma_bound * (1 + 1e-6)
        assert obs <= cert.theorem_bound * (1 + 1e-6)

    def test_violation_detected(self, rng):
        net = random_net(rng, depth=2, max_width=4)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=2, B=1.0)
        import dataclasses
        fake = dataclasses.replace(cert, degenerate_zero=True,
                                   lemma_bound=0.0, theorem_bound=1e-12)
        if np.abs(compressed.layers[cert.r_prime - 1].weight
                  - net.layers[cert.r_prime - 1].weight).max() == 0:
            pytest.skip("replacement was exact; nothing to detect")
        with pytest.raises(VerificationError):
            compress.verify_certificate(net, compressed, fake, B=1.0,
                                        samples=100, seed=0)

    def test_overflowing_forward_pass_is_a_numerical_failure(self):
        net = make_net([2.0 * np.eye(2)], [None])
        _, cert = compress.rank1_replace(net, p=2.0, r=1, B=1.0)
        with pytest.raises(NumericalError, match="overflowed"):
            compress.verify_certificate(net, net, cert, B=1e308, samples=10, seed=0)

    def test_overflowing_deviation_is_a_numerical_failure(self):
        # both forward passes are finite, their difference is not
        net, flipped = make_net([np.eye(2)], [None]), make_net([-np.eye(2)], [None])
        _, cert = compress.rank1_replace(net, p=2.0, r=1, B=1.0)
        with pytest.raises(NumericalError, match="overflowed"):
            compress.verify_certificate(net, flipped, cert, B=1e308, samples=10, seed=0)

    def test_deterministic_in_seed(self, rng):
        net = random_net(rng, depth=3, max_width=4)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=3, B=1.0)
        a = compress.verify_certificate(net, compressed, cert, B=1.0, samples=64, seed=5)
        b = compress.verify_certificate(net, compressed, cert, B=1.0, samples=64, seed=5)
        assert a == b


class TestFactorCompressed:
    def test_two_layer_split(self, rng):
        u, v = rng.standard_normal(3), rng.standard_normal(2)
        w1 = np.outer(u, v)
        net = make_net([w1, rng.standard_normal((1, 3))], ["relu", None])
        shallow, chain = compress.factor_compressed(net, 1)
        assert shallow.depth == 1 and shallow.output_dim == 1
        s = matlin.svd(w1).singular[0]
        assert abs(matlin.matrix_norm(shallow.layers[0].weight, matlin.FROBENIUS) - s) < 1e-9
        x = rng.standard_normal(2)
        np.testing.assert_allclose(chain(forward(shallow, x)[0]), forward(net, x),
                                   atol=1e-10)

    def test_dual_path_on_100_points(self, rng):
        for _ in range(10):
            net = random_net(rng, depth=int(rng.integers(2, 6)), max_width=5)
            compressed, cert = compress.rank1_replace(net, p=2.0, r=net.depth, B=1.0)
            shallow, chain = compress.factor_compressed(compressed, cert.r_prime)
            x = rng.standard_normal((100, net.input_dim))
            direct = forward_batch(compressed, x)
            via = chain.batch(forward_batch(shallow, x)[:, 0])
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(direct - via).max() <= 1e-10 * scale

    def test_chain_fixes_zero(self, rng):
        net = random_net(rng, depth=4, max_width=4)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=4, B=1.0)
        shallow, chain = compress.factor_compressed(compressed, cert.r_prime)
        assert np.abs(chain(0.0)).max() == 0.0

    def test_chain_lipschitz_recorded_and_valid(self, rng):
        net = random_net(rng, depth=3, max_width=4)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=3, B=1.0)
        shallow, chain = compress.factor_compressed(compressed, cert.r_prime)
        want = 1.0
        for j in range(cert.r_prime + 1, compressed.depth + 1):
            want *= matlin.matrix_norm(compressed.layers[j - 1].weight, matlin.SPECTRAL)
        assert chain.lipschitz_bound == pytest.approx(want)
        ts = np.linspace(-2, 2, 41)
        ys = chain.batch(ts)
        diffs = np.linalg.norm(np.diff(ys, axis=0), axis=1)
        assert np.all(diffs <= chain.lipschitz_bound * (ts[1] - ts[0]) * (1 + 1e-9))

    def test_full_rank_layer_rejected(self, rng):
        net = make_net([rng.standard_normal((3, 3)), np.ones((1, 3))])
        with pytest.raises(ValueError, match="not rank 1"):
            compress.factor_compressed(net, 1)


class TestDomainChecks:
    @pytest.mark.parametrize("B", [math.nan, -1.0, math.inf])
    def test_bad_radius_rejected(self, B, rng):
        net = random_net(rng, depth=2, max_width=4)
        with pytest.raises(ValueError, match="domain radius"):
            compress.rank1_replace(net, p=2.0, r=2, B=B)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=2, B=1.0)
        with pytest.raises(ValueError, match="domain radius"):
            compress.verify_certificate(net, compressed, cert, B=B, samples=10, seed=0)

    def test_overflowing_bounds_are_a_numerical_failure(self):
        net = make_net([np.diag([2.0, 1.0]), np.diag([2.0, 1.0])])
        with pytest.raises(NumericalError, match="overflowed"):
            compress.rank1_replace(net, p=2.0, r=1, B=1e308)

    @pytest.mark.parametrize("override", [0.0, -1.0, math.nan, math.inf])
    def test_bad_overrides_rejected(self, override, rng):
        net = random_net(rng, depth=2, max_width=4)
        for kw in ("gamma_override", "schatten_override"):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                compress.rank1_replace(net, p=2.0, r=2, B=1.0, **{kw: override})

    def test_zero_radius_certifies_zero(self, rng):
        net = random_net(rng, depth=2, max_width=4)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=2, B=0.0)
        assert compress.verify_certificate(net, compressed, cert, B=0.0,
                                           samples=10, seed=0) == 0.0

    def test_nan_bound_fails_the_check(self, rng):
        import dataclasses
        net = random_net(rng, depth=2, max_width=4)
        compressed, cert = compress.rank1_replace(net, p=2.0, r=2, B=1.0)
        fake = dataclasses.replace(cert, degenerate_zero=True, lemma_bound=math.nan)
        with pytest.raises(VerificationError, match="lemma"):
            compress.verify_certificate(net, compressed, fake, B=1.0, samples=10, seed=0)

    @pytest.mark.parametrize("p", [math.inf, 0.5, 65.0, math.nan])
    def test_schatten_domain_from_matlin(self, p, rng):
        net = random_net(rng, depth=2, max_width=4)
        with pytest.raises(ValueError, match="schatten exponent"):
            compress.rank1_replace(net, p=p, r=1, B=1.0)


def test_compress_demo_script_runs(tmp_path):
    # a copy, so that the inputs it writes next to itself land in tmp_path
    root = pathlib.Path(__file__).resolve().parents[1]
    script = shutil.copy(root / "scripts" / "compress_demo.py", tmp_path)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "factored-path max error on 5 points:" in proc.stdout
