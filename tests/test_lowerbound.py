import math

import numpy as np
import pytest

from capnet import lowerbound, rademacher
from oracles import all_signs, grid_sup_positive_part, mean_abs_sign_sum


class TestBuckets:
    def test_h2_m2(self):
        cons, _ = lowerbound.build_diag(2, 2, math.inf, 1.0, 1.0, (1.0,))
        assert cons.buckets == ((2,), (1,))
        np.testing.assert_allclose(cons.data.points, [[0.0, 1.0], [1.0, 0.0]])

    def test_h1_single_bucket(self):
        cons, _ = lowerbound.build_diag(1, 5, 2.0, 1.0, 1.0, (1.0,))
        assert cons.buckets == ((1, 2, 3, 4, 5),)

    def test_balanced_buckets(self):
        cons, _ = lowerbound.build_diag(4, 16, 2.0, 1.0, 1.0, (1.0,))
        assert all(len(b) == 4 for b in cons.buckets)

    def test_every_point_is_scaled_basis_vector(self):
        cons, _ = lowerbound.build_diag(3, 7, 2.0, 2.5, 1.0, (1.0,))
        pts = cons.data.points
        assert np.all(np.sum(pts != 0, axis=1) == 1)
        assert np.all(pts.max(axis=1) == 2.5)


class TestExactDiag:
    def test_h2_m2_pinf(self):
        cons, _ = lowerbound.build_diag(2, 2, math.inf, 1.0, 1.0, (1.0,))
        est = lowerbound.exact_diag_rademacher(cons)
        assert est.value == pytest.approx(0.5)
        assert est.method == "exact-enumeration"

    def test_all_negative_sign_sums_give_zero(self):
        assert lowerbound.positive_part_dual_norm(np.array([-3.0, -1.0]), 2.0)[0] == 0.0

    def test_dual_norm_against_grid_search(self):
        rng = np.random.default_rng(12)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            for _ in range(3):
                c = rng.integers(-3, 4, size=3).astype(np.float64)
                got = lowerbound.positive_part_dual_norm(c, p)[0]
                want = grid_sup_positive_part(c, p, steps=61)
                assert got == pytest.approx(want, abs=2e-2)
                assert got >= want - 1e-12  # grid is a lower bound on the sup

    def test_witness_never_exceeds_exact(self):
        for p in (1.0, 2.0, 4.0, math.inf):
            for h, m in ((2, 6), (3, 6)):
                cons, _ = lowerbound.build_diag(h, m, p, 1.0, 1.0, (1.0, 1.0))
                bmat = cons.bucket_matrix()
                c = all_signs(m) @ bmat
                exact = lowerbound.positive_part_dual_norm(c, p)
                witness = lowerbound.witness_inner_value(c, p, h)
                assert np.all(witness <= exact + 1e-12)
                est = lowerbound.exact_diag_rademacher(cons).value
                wit = lowerbound.diag_witness_rademacher(cons).value
                assert wit <= est + 1e-12

    def test_budget_and_radius_monotonicity(self):
        base = lowerbound.exact_diag_rademacher(
            lowerbound.build_diag(2, 8, 2.0, 1.0, 1.0, (1.0, 1.0))[0]).value
        assert lowerbound.exact_diag_rademacher(
            lowerbound.build_diag(2, 8, 2.0, 2.0, 1.0, (1.0, 1.0))[0]).value \
            == pytest.approx(2 * base)
        assert lowerbound.exact_diag_rademacher(
            lowerbound.build_diag(2, 8, 2.0, 1.0, 1.0, (3.0, 1.0))[0]).value \
            == pytest.approx(3 * base)
        assert lowerbound.exact_diag_rademacher(
            lowerbound.build_diag(2, 8, 2.0, 1.0, 1.0, (1.0, 1.5))[0]).value \
            == pytest.approx(1.5 * base)

    def test_sup_ascent_cross_check_h1_p2(self):
        cons, spec = lowerbound.build_diag(1, 6, 2.0, 1.0, 1.0, (1.0,))
        exact = lowerbound.exact_diag_rademacher(cons).value
        total = 0.0
        for eps in all_signs(6):
            val, _ = rademacher.sup_ascent(eps, spec, cons.data, restarts=2,
                                           steps=15, seed=7)
            total += val
        assert total / 64 == pytest.approx(exact, abs=1e-3)

    def test_sup_ascent_cross_check_h2_pinf(self):
        cons, spec = lowerbound.build_diag(2, 4, math.inf, 1.0, 1.0, (1.0, 1.0))
        exact = lowerbound.exact_diag_rademacher(cons).value
        total = 0.0
        for eps in all_signs(4):
            val, _ = rademacher.sup_ascent(eps, spec, cons.data, restarts=3,
                                           steps=25, seed=3)
            total += val
        assert total / 16 == pytest.approx(exact, abs=1e-3)

    def test_monte_carlo_mode_agrees(self):
        cons, _ = lowerbound.build_diag(2, 10, 2.0, 1.0, 1.0, (1.0,))
        exact = lowerbound.exact_diag_rademacher(cons).value
        mc = lowerbound.exact_diag_rademacher(cons, samples=4000, seed=1)
        assert abs(mc.value - exact) <= 4 * mc.std_error


class TestScalarChain:
    def test_m2(self):
        cons = lowerbound.ScalarChainConstruction(m=2, B=1.0, gamma=1.0, budgets=(1.0,))
        assert lowerbound.exact_scalar_chain_rademacher(cons).value == pytest.approx(0.5)

    def test_m1(self):
        cons = lowerbound.ScalarChainConstruction(m=1, B=2.0, gamma=0.5, budgets=(1.5,))
        assert lowerbound.exact_scalar_chain_rademacher(cons).value == \
            pytest.approx(2.0 * 1.5 / 0.5)

    def test_matches_binomial_closed_form(self):
        for m in range(2, 16):
            cons = lowerbound.ScalarChainConstruction(m=m, B=1.0, gamma=1.0,
                                                      budgets=(1.0, 1.0))
            got = lowerbound.exact_scalar_chain_rademacher(cons).value
            assert got == pytest.approx(mean_abs_sign_sum(m) / m, rel=1e-12)

    def test_khintchine_window(self):
        for m in range(4, 21):
            cons = lowerbound.ScalarChainConstruction(m=m, B=1.0, gamma=1.0,
                                                      budgets=(1.0,))
            val = lowerbound.exact_scalar_chain_rademacher(cons).value
            assert 0.6 <= val * math.sqrt(m) <= 1.0


class TestDemonstration:
    def test_default_grid_ratios(self):
        rows = lowerbound.demonstrate_lower_bound(
            h_grid=(2, 4, 8), m_grid=(8, 16), p_grid=(1.0, 2.0, math.inf))
        assert len(rows) == 18
        for row in rows:
            assert 0.2 <= row["ratio"] <= 2.0
            if row["p"] == 2.0:
                scalar_ratio = row["scalar_value"] / row["bound_lower"]
                assert 0.6 <= scalar_ratio <= 1.0
                assert row["scalar_value"] >= row["diag_value"]

    def test_b_homogeneity(self):
        a = lowerbound.demonstrate_lower_bound((2,), (8,), (2.0,), B=1.0)
        b = lowerbound.demonstrate_lower_bound((2,), (8,), (2.0,), B=2.0)
        assert b[0]["ratio"] == pytest.approx(a[0]["ratio"], rel=1e-12)
        assert b[0]["diag_value"] == pytest.approx(2 * a[0]["diag_value"], rel=1e-12)


class TestSamplesSelectTheEstimator:
    def test_zero_enumerates_and_two_or_more_sample(self):
        cons, _ = lowerbound.build_diag(2, 6, 2.0, 1.0, 1.0, (1.0,))
        assert lowerbound.diag_witness_rademacher(cons).method == "exact-enumeration"
        assert lowerbound.diag_witness_rademacher(cons, samples=2).method == "monte-carlo"

    @pytest.mark.parametrize("samples", [1, -3])
    def test_fewer_than_two_samples_refused(self, samples):
        chain = lowerbound.ScalarChainConstruction(m=4, B=1.0, gamma=1.0, budgets=(1.0,))
        with pytest.raises(ValueError, match="samples >= 2"):
            lowerbound.exact_scalar_chain_rademacher(chain, samples=samples)

    def test_cap_refusal_mentions_monte_carlo(self):
        chain = lowerbound.ScalarChainConstruction(m=23, B=1.0, gamma=1.0, budgets=(1.0,))
        with pytest.raises(ValueError, match="cap 22; use monte-carlo"):
            lowerbound.exact_scalar_chain_rademacher(chain)
