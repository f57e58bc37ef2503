import math

import numpy as np
import pytest

from capnet import lowerbound, rademacher
from oracles import (all_signs, grid_sup_positive_part, mean_abs_sign_sum,
                     sign_mean_by_chunks, sign_values_per_sample)

B, GAMMA, BUDGETS = 1.3, 0.7, (1.0, 2.0)
ORACLE_PS = (1.0, 1.5, 2.0, 3.0, 7.0, math.inf)


def scale(m):
    """B prod(budgets) / (gamma m), the factor in front of every sign expectation."""
    return B * float(np.prod(BUDGETS)) / (GAMMA * m)


def diag_inner(cons):
    """The construction's inner values, as functions of the bucket sums c."""
    return {
        lowerbound.exact_diag_rademacher: lambda c: lowerbound.positive_part_dual_norm(c, cons.p),
        lowerbound.diag_witness_rademacher:
            lambda c: lowerbound.witness_inner_value(c, cons.p, cons.h),
    }


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


class TestBucketTable:
    """Every enumerated value equals its per-chunk evaluation on the sign rows."""

    @pytest.mark.parametrize("h,m", [(h, m) for h in (1, 2, 3, 4, 8, 9, 12, 17, 30)
                                     for m in (1, 5, 8, 13, 14, 15, 16, 18)] + [(4, 21)])
    def test_diag_and_witness_equal_the_row_enumeration(self, h, m):
        # empty buckets (h > m), one-point buckets, one block (m <= 14), rows wider than 8
        ps = ORACLE_PS if m <= 16 else (1.5, math.inf) if m == 18 else (2.0,)
        for p in ps:
            cons, _ = lowerbound.build_diag(h, m, p, B, GAMMA, BUDGETS)
            bmat = cons.bucket_matrix()
            for estimator, g in diag_inner(cons).items():
                want = scale(m) * sign_mean_by_chunks(lambda s: g(s @ bmat), m)
                assert estimator(cons).value == want, (estimator.__name__, p)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 13, 14, 15, 16, 18, 21])
    def test_chain_equals_the_row_enumeration(self, m):
        chain = lowerbound.ScalarChainConstruction(m=m, B=B, gamma=GAMMA, budgets=BUDGETS)
        want = scale(m) * sign_mean_by_chunks(lambda s: np.abs(s.sum(axis=1)), m)
        assert lowerbound.exact_scalar_chain_rademacher(chain).value == want

    def test_table_blocks_have_at_most_2_14_rows(self):
        # h=30, m=18: every bucket has at most one point, so the table has 2^18 rows
        cons, _ = lowerbound.build_diag(30, 18, 2.0, B, GAMMA, BUDGETS)
        shapes = []

        def g(c):
            shapes.append(c.shape)
            return lowerbound.positive_part_dual_norm(c, 2.0)

        got = rademacher._sign_mean(g, 18, cons.bucket_matrix())
        assert max(rows for rows, _ in shapes) <= 1 << 14
        assert {cols for _, cols in shapes} == {30}
        assert sum(rows for rows, _ in shapes) == 1 << 18
        assert got == sign_mean_by_chunks(
            lambda s: lowerbound.positive_part_dual_norm(s @ cons.bucket_matrix(), 2.0), 18)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("h", [1, 2, 5])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_equals_the_per_sample_loop(self, h, p):
        m, samples, seed = 11, 2000, h + 7
        cons, _ = lowerbound.build_diag(h, m, p, B, GAMMA, BUDGETS)
        for estimator, g in diag_inner(cons).items():
            vals = sign_values_per_sample(g, cons.bucket_matrix(), samples, seed)
            want = rademacher.sampled_estimate(vals, seed, scale(m))
            assert estimator(cons, samples, seed) == want, estimator.__name__

    @pytest.mark.parametrize("samples", [2000, (1 << 14) + 3])
    def test_chain_equals_the_per_sample_loop(self, samples):
        # 2^14 + 3 samples reach g in two stacks
        m, seed = 9, 3
        chain = lowerbound.ScalarChainConstruction(m=m, B=B, gamma=GAMMA, budgets=BUDGETS)
        vals = sign_values_per_sample(lambda c: np.abs(c[:, 0]), np.ones((m, 1)), samples, seed)
        assert lowerbound.exact_scalar_chain_rademacher(chain, samples, seed) == \
            rademacher.sampled_estimate(vals, seed, scale(m))
