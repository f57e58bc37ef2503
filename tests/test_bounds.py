import math
import warnings

import mpmath
import numpy as np
import pytest

from capnet import bounds
from capnet.errors import DegenerateLayerError
from capnet.network import Dataset, profile
from capnet.verify import random_net
from conftest import make_net

mpmath.mp.dps = 50


def scalar_chain_profile(values, p=2.0):
    """Profile of a chain of 1x1 layers; every norm of [[v]] equals |v|."""
    return profile(make_net([np.array([[v]]) for v in values],
                            ["identity"] * (len(values) - 1) + [None]), p)


class TestExpDepthBound:
    def test_unit_layers(self):
        prof = scalar_chain_profile([1.0, 1.0, 1.0])
        assert bounds.bound_frobenius_exp_depth(prof, 1.0, 100) == pytest.approx(0.8)

    def test_single_layer(self):
        prof = scalar_chain_profile([2.0])
        assert bounds.bound_frobenius_exp_depth(prof, 1.0, 4) == pytest.approx(2.0)

    def test_doubles_per_unit_layer(self):
        for d in range(1, 6):
            a = bounds.bound_frobenius_exp_depth(scalar_chain_profile([1.0] * d), 1.0, 9)
            b = bounds.bound_frobenius_exp_depth(scalar_chain_profile([1.0] * (d + 1)), 1.0, 9)
            assert b == 2.0 * a


class TestRatioSumBound:
    def test_single_row_layer(self, rng):
        w = rng.standard_normal((1, 4))
        prof = profile(make_net([w], [None]))
        spec = float(np.linalg.norm(w))
        assert bounds.bound_spectral_ratio_sum(prof, 2.0, 16) == \
            pytest.approx(2.0 * spec / 4.0)

    def test_ratio_one_layers_hit_d32_floor(self):
        d = 4
        prof = scalar_chain_profile([1.5] * d)
        expected = 1.0 * 1.5 ** d * d ** 1.5 / math.sqrt(25)
        assert bounds.bound_spectral_ratio_sum(prof, 1.0, 25) == pytest.approx(expected)

    def test_matches_high_precision_recomputation(self, rng):
        net = make_net([rng.standard_normal((3, 2)), rng.standard_normal((3, 3)),
                        rng.standard_normal((1, 3))])
        prof = profile(net)
        B, m = 1.3, 50
        got = bounds.bound_spectral_ratio_sum(prof, B, m)
        acc = mpmath.mpf(0)
        for r, s in zip(prof.rows_l2_sum, prof.spectral):
            acc += (mpmath.mpf(r) / mpmath.mpf(s)) ** mpmath.mpf("2/3")
        want = mpmath.mpf(B) * mpmath.mpf(prof.gamma) * acc ** mpmath.mpf("1.5") \
            / mpmath.sqrt(m)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_floor_property(self, rng):
        for _ in range(20):
            net = make_net([rng.standard_normal((3, 3)), rng.standard_normal((1, 3))])
            prof = profile(net)
            floor = prof.gamma * prof.depth ** 1.5 / math.sqrt(30)
            assert bounds.bound_spectral_ratio_sum(prof, 1.0, 30) >= floor * (1 - 1e-12)


class TestPacBayesBound:
    def test_rank_one_layers(self):
        d, h, m = 3, 1, 16
        prof = scalar_chain_profile([1.0] * d)
        assert bounds.bound_pacbayes_spectral(prof, 1.0, m, h) == \
            pytest.approx(d ** 1.5 * math.sqrt(h / m))

    def test_scalar_single_layer(self):
        prof = scalar_chain_profile([3.0])
        assert bounds.bound_pacbayes_spectral(prof, 1.0, 4, 1) == pytest.approx(1.5)

    def test_formula_oracle(self, rng):
        net = make_net([rng.standard_normal((4, 3)), rng.standard_normal((1, 4))])
        prof = profile(net)
        B, m, h = 2.0, 36, 4
        ssq = mpmath.mpf(0)
        for f, s in zip(prof.frobenius, prof.spectral):
            ssq += (mpmath.mpf(f) / mpmath.mpf(s)) ** 2
        want = mpmath.mpf(B) * mpmath.mpf(prof.gamma) * mpmath.sqrt(
            mpmath.mpf(4 * h) * ssq / m)
        assert bounds.bound_pacbayes_spectral(prof, B, m, h) == \
            pytest.approx(float(want), rel=1e-12)


class TestSqrtDepthBounds:
    def test_frobenius_example_high_precision(self):
        prof = scalar_chain_profile([1.0])
        data = Dataset(points=np.array([[1.0], [-1.0], [1.0], [-1.0]]))
        want = float((mpmath.sqrt(2 * mpmath.log(2)) + 1) / 2)
        assert bounds.bound_frobenius_sqrt_depth(prof, data) == \
            pytest.approx(want, rel=1e-12)

    def test_zero_data(self):
        prof = scalar_chain_profile([1.0, 1.0])
        data = Dataset(points=np.zeros((3, 1)))
        assert bounds.bound_frobenius_sqrt_depth(prof, data) == 0.0

    def test_product_scaling(self, rng):
        data = Dataset(points=rng.standard_normal((5, 1)))
        a = bounds.bound_frobenius_sqrt_depth(scalar_chain_profile([1.0] * 3), data)
        b = bounds.bound_frobenius_sqrt_depth(scalar_chain_profile([2.0] * 3), data)
        assert b == pytest.approx(8.0 * a, rel=1e-12)

    def test_row_l1_example_high_precision(self):
        prof = scalar_chain_profile([1.0, 1.0])
        pts = np.zeros((4, 2))
        pts[:, 0] = 1.0
        data = Dataset(points=pts)
        want = float(mpmath.sqrt(3 + mpmath.log(2)))
        assert bounds.bound_row_l1_sqrt_depth(prof, data) == pytest.approx(want, rel=1e-12)

    def test_row_l1_zero_data(self):
        prof = scalar_chain_profile([1.0])
        assert bounds.bound_row_l1_sqrt_depth(prof, Dataset(points=np.zeros((2, 3)))) == 0.0

    def test_row_l1_ignores_zero_energy_columns(self):
        prof = scalar_chain_profile([1.0, 1.0])
        base = np.array([[1.0, 0.0], [0.5, 0.0]])
        with_zero_col = np.array([[1.0, 0.0], [0.5, 0.0]])
        a = bounds.bound_row_l1_sqrt_depth(prof, Dataset(points=base))
        b = bounds.bound_row_l1_sqrt_depth(prof, Dataset(points=with_zero_col))
        assert a == b

    def test_points_whose_squares_overflow(self, rng):
        # squaring points above about 1e154 overflows; the energies are then
        # summed again scaled by the largest |entry|
        prof = scalar_chain_profile([1.5, 0.7, 2.0])
        pts = rng.standard_normal((32, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bound in (bounds.bound_frobenius_sqrt_depth, bounds.bound_row_l1_sqrt_depth):
                big = bound(prof, Dataset(points=pts * 1e200))
                assert math.isfinite(big)
                assert big == pytest.approx(1e200 * bound(prof, Dataset(points=pts)), rel=1e-12)

    def test_weak_form_dominated_by_exp_depth(self):
        # sqrt(2 ln2 d) + 1 <= 2^d for d >= 2
        for d in range(2, 12):
            for mf in (0.5, 1.0, 3.0):
                prof = scalar_chain_profile([mf] * d)
                weak = bounds.bound_frobenius_sqrt_depth_weak(prof, 1.0, 49)
                exp = bounds.bound_frobenius_exp_depth(prof, 1.0, 49)
                assert weak <= exp


class TestTuneR:
    def test_scan_example(self):
        res = bounds.tune_r(0.5, 0.5, 1.0, 1.0, 100.0, 50)
        assert res.value <= 0.3
        assert res.value == pytest.approx(math.sqrt(50) / 100)
        assert res.r_star is None  # the d^alpha/n branch wins here

    def test_single_candidate(self):
        res = bounds.tune_r(1.0, 1.0, 2.0, 1.5, 10.0, 1)
        assert res.value == pytest.approx(min(1.5 / 10 + 2.0, 1.0 / 10))

    def test_monotone_in_n(self):
        prev = math.inf
        for n in (10.0, 100.0, 1000.0):
            val = bounds.tune_r(0.5, 0.5, 2.0, 1.0, n, 40).value
            assert val <= prev + 1e-15
            prev = val

    def test_grid_satisfies_closed_form_cap(self):
        # the cap is a theorem for c <= b n; every violation on the full grid
        # must sit in the c > b n corner where the cap itself is false
        for alpha in (0.5, 1.5):
            for beta in (0.25, 1.0):
                for b in (1.0, 10.0, 100.0):
                    for c in (1.0, 10.0, 100.0):
                        for n in (1.0, 10.0, 100.0, 1000.0):
                            for d in (1, 10, 50):
                                res = bounds.tune_r(alpha, beta, b, c, n, d)
                                cap = min(
                                    3.0 * b ** (alpha / (alpha + beta))
                                    / (n / c) ** (beta / (alpha + beta)),
                                    d ** alpha / n,
                                )
                                if c <= b * n:
                                    assert res.value <= cap * (1 + 1e-12)

    def test_cap_counterexample_outside_domain(self):
        # hand computation: min_r (10 r^1.5 + 1/r) = 11 at r = 1, d-branch
        # 10^1.5 = 31.6, so the scan value is 11; the closed-form cap is
        # 3 * 10^0.4 = 7.54 < 11, showing the cap genuinely fails for c > b n
        res = bounds.tune_r(1.5, 1.0, 1.0, 10.0, 1.0, 10)
        assert res.value == pytest.approx(11.0)
        cap = 3.0 * (1.0 / 10.0) ** (-1.0 / 2.5)
        assert res.value > cap

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bounds.tune_r(0.0, 0.5, 1.0, 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            bounds.tune_r(1.0, 2.0, 1.0, 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            bounds.tune_r(1.0, 1.0, 0.5, 1.0, 1.0, 5)


class TestDepthFreeBounds:
    def test_clamped_when_products_match(self):
        for d in (1, 3, 10):
            prof = scalar_chain_profile([1.0] * d)  # Gamma == prod M_F == 1
            got = bounds.bound_frobenius_depth_free(prof, 2.0, 16, 0.5)
            want = (2.0 / 0.5) * min(bounds.logbar(16) ** 0.75 / 2.0, math.sqrt(d / 16))
            assert got == pytest.approx(want, rel=1e-12)

    def test_sqrt_d_branch_wins_for_shallow_nets(self):
        prof = scalar_chain_profile([1.0])
        got = bounds.bound_frobenius_depth_free(prof, 1.0, 16, 1.0)
        assert got == pytest.approx(math.sqrt(1 / 16))

    def test_frobenius_formula_oracle(self, rng):
        net = make_net([rng.standard_normal((3, 2)), rng.standard_normal((1, 3))])
        prof = profile(net)
        B, m, gamma = 1.5, 64, 0.7
        lb = mpmath.mpf(max(1.0, math.log(prof.frobenius_product / prof.gamma)))
        lm = mpmath.mpf(max(1.0, math.log(m)))
        first = lm ** mpmath.mpf("0.75") * mpmath.sqrt(lb) / mpmath.mpf(m) ** mpmath.mpf("0.25")
        second = mpmath.sqrt(mpmath.mpf(prof.depth) / m)
        want = mpmath.mpf(B) * mpmath.mpf(prof.frobenius_product) / mpmath.mpf(gamma) \
            * min(first, second)
        assert bounds.bound_frobenius_depth_free(prof, B, m, gamma) == \
            pytest.approx(float(want), rel=1e-12)

    def test_spectral_collapses_to_clamped_logs(self):
        d = 3
        prof = scalar_chain_profile([1.0] * d)  # all ratios 1, Gamma == prod M_p
        m, h, p = 100, 4, 2.0
        first = (math.log(m) ** 1.5) ** (1.0 / 4.0) / m ** 0.125
        second = d ** 1.5 / 10.0
        want = math.log(h) * math.log(m) * min(first, second)
        assert bounds.bound_schatten_depth_free(prof, 1.0, m, 1.0, h, p) == \
            pytest.approx(want, rel=1e-12)

    def test_p2_m_exponent_is_one_eighth(self):
        # 1/(2 + 3p) at p = 2 puts m^(1/8) in the denominator of branch one;
        # depth 300 keeps that branch active at both sample sizes
        prof = scalar_chain_profile([1.0] * 300)
        vals = []
        for m in (10 ** 4, 10 ** 8):
            first = (bounds.logbar(m) ** 1.5) ** (1.0 / 4.0) / m ** (1.0 / 8.0)
            got = bounds.bound_schatten_depth_free(prof, 1.0, m, 1.0, 1, 2.0)
            assert got == pytest.approx(math.log(m) * first, rel=1e-12)
            vals.append(got)
        assert vals[1] < vals[0]

    def test_h_clamp(self):
        prof = scalar_chain_profile([1.0, 1.0])
        a = bounds.bound_schatten_depth_free(prof, 1.0, 50, 1.0, 1, 2.0)
        assert a > 0  # ln(1) would zero it out without the clamp

    def test_min_structure_depth_sweep(self):
        # with per-layer norms pinned to product 1 the first branch is flat in d
        first_branch_vals = []
        for d in range(2, 40):
            prof = scalar_chain_profile([1.0] * d)
            val = bounds.bound_frobenius_depth_free(prof, 1.0, 16, 1.0)
            assert val <= math.sqrt(d / 16) * (1 + 1e-12)
            first = bounds.logbar(16) ** 0.75 / 16 ** 0.25
            if first < math.sqrt(d / 16):
                first_branch_vals.append(val)
        assert max(first_branch_vals) - min(first_branch_vals) < 1e-12

    def test_degenerate_gamma(self):
        prof = profile(make_net([np.zeros((2, 2)), np.eye(2)]))
        with pytest.raises(DegenerateLayerError):
            bounds.bound_frobenius_depth_free(prof, 1.0, 4, 1.0)


class TestLipschitzCoverBound:
    def test_dim_one(self):
        prof = scalar_chain_profile([1.0])
        assert bounds.bound_lipschitz_cover(prof, 1.0, 25, 1.0, 1) == pytest.approx(1 / 25)

    def test_depth_enters_only_through_gamma(self):
        a = bounds.bound_lipschitz_cover(scalar_chain_profile([2.0, 0.5]), 1.0, 16, 1.0, 3)
        b = bounds.bound_lipschitz_cover(scalar_chain_profile([1.0]), 1.0, 16, 1.0, 3)
        assert a == pytest.approx(b)

    def test_formula_oracle(self):
        prof = scalar_chain_profile([1.3, 0.7])
        got = bounds.bound_lipschitz_cover(prof, 2.0, 81, 0.5, 4)
        want = mpmath.mpf(2) * mpmath.mpf(prof.gamma) / (
            mpmath.mpf("0.5") * mpmath.mpf(81) ** (mpmath.mpf(1) / 4))
        assert got == pytest.approx(float(want), rel=1e-12)


class TestLowerBound:
    def test_spectral_example(self):
        assert bounds.bound_lower([1.0], 1.0, 16, 1.0, 4, math.inf) == pytest.approx(0.5)

    def test_p2_size_independent(self):
        for h in (1, 4, 64):
            assert bounds.bound_lower([1.0, 2.0], 1.0, 25, 1.0, h, 2.0) == \
                pytest.approx(2.0 / 5.0)

    def test_p1_exponent_clamps_to_zero(self):
        assert bounds.bound_lower([1.0], 1.0, 4, 1.0, 100, 1.0) == pytest.approx(0.5)


class TestMonotonicity:
    @staticmethod
    def _evaluate(prof, B):
        return [
            bounds.bound_frobenius_exp_depth(prof, B, 16),
            bounds.bound_spectral_ratio_sum(prof, B, 16),
            bounds.bound_pacbayes_spectral(prof, B, 16, 2),
            bounds.bound_frobenius_sqrt_depth_weak(prof, B, 16),
            bounds.bound_row_l1_sqrt_depth_weak(prof, B, 16, 3),
            bounds.bound_frobenius_depth_free(prof, B, 16, 1.0),
            bounds.bound_lipschitz_cover(prof, B, 16, 1.0, 3),
            bounds.bound_lower(prof.schatten, B, 16, 1.0, 2, 2.0),
        ]

    def test_monotone_in_radius_alone(self):
        prof = scalar_chain_profile([1.3, 0.9])
        prev = None
        for B in (0.5, 1.0, 2.0, 4.0):
            vals = self._evaluate(prof, B)
            if prev is not None:
                for lo, hi in zip(prev, vals):
                    assert hi >= lo - 1e-12
            prev = vals

    def test_monotone_in_each_layer_budget(self):
        base = [1.1, 0.8, 1.4]
        for j in range(3):
            prev = None
            for scale in (1.0, 1.3, 2.0):
                values = list(base)
                values[j] *= scale
                vals = self._evaluate(scalar_chain_profile(values), 1.0)
                if prev is not None:
                    for lo, hi in zip(prev, vals):
                        assert hi >= lo - 1e-12
                prev = vals


class TestReport:
    def test_report_values_and_applicability(self, rng):
        net = make_net([np.eye(2), np.eye(2)])
        data = Dataset(points=np.array([[1.0, 0.0], [0.0, 1.0]]))
        rep = bounds.report_for(net, data)
        prof = profile(net, 2.0)
        assert rep.entry("frobenius-exp-depth").value == pytest.approx(
            bounds.bound_frobenius_exp_depth(prof, 1.0, 2))
        assert rep.entry("frobenius-sqrt-depth").value == pytest.approx(
            bounds.bound_frobenius_sqrt_depth(prof, data))
        assert all(e.value is None or (math.isfinite(e.value) and e.value >= 0)
                   for e in rep.entries)

    def test_max_to_scalar_marks_inapplicable(self):
        net = make_net([np.eye(2), np.array([[1.0]])], ["max_to_scalar", None])
        data = Dataset(points=np.array([[1.0, 0.0]]))
        rep = bounds.report_for(net, data)
        assert rep.entry("frobenius-sqrt-depth").value is None
        assert rep.entry("spectral-ratio-sum").value is not None
        csv_text = rep.render_csv()
        assert "inapplicable" in csv_text

    def test_csv_header_and_roundtrip(self, rng):
        net = make_net([rng.standard_normal((2, 2)), rng.standard_normal((1, 2))])
        data = Dataset(points=rng.standard_normal((4, 2)))
        rep = bounds.report_for(net, data)
        lines = rep.render_csv().splitlines()
        assert lines[0] == "name,value,exact_constants,citation"
        import csv as csvmod
        import io
        for row in list(csvmod.reader(io.StringIO("\n".join(lines[1:])))):
            if row[1] != "inapplicable":
                assert bounds._fmt(float(row[1])) == row[1]

    def test_inexact_entries_carry_convention_note(self, rng):
        net = make_net([rng.standard_normal((2, 2)), rng.standard_normal((1, 2))])
        data = Dataset(points=rng.standard_normal((4, 2)))
        for e in bounds.report_for(net, data).entries:
            if not e.exact_constants:
                assert "universal constant set to 1" in e.citation

    def test_table_prints_context_header(self, rng):
        net = make_net([rng.standard_normal((2, 2)), rng.standard_normal((1, 2))])
        data = Dataset(points=rng.standard_normal((4, 2)))
        table = bounds.report_for(net, data).render_table()
        head = table.splitlines()[0]
        assert head.startswith("# context:") and " m=4 " in head

    def test_override_gamma_changes_depth_free(self, rng):
        net = make_net([rng.standard_normal((3, 2)) * 2, rng.standard_normal((1, 3))])
        data = Dataset(points=rng.standard_normal((40, 2)))
        base = bounds.report_for(net, data).entry("frobenius-depth-free").value
        tweaked = bounds.report_for(net, data, gamma_override=1e-6) \
            .entry("frobenius-depth-free").value
        assert tweaked >= base


class TestSingleOwners:
    def test_depth_free_value_is_min_of_its_branches(self, rng):
        net = random_net(rng, depth=5, max_width=6, scalar_output=True)
        prof = profile(net, 2.0)
        first, second = bounds.frobenius_depth_free_branches(prof, 16)
        got = bounds.bound_frobenius_depth_free(prof, 1.5, 16, 0.5)
        assert got == (1.5 * prof.frobenius_product / 0.5) * min(first, second)
        assert second == math.sqrt(5 / 16)

    @pytest.mark.parametrize("p", [math.inf, 0.5, 65.0, math.nan])
    def test_schatten_domain_from_matlin(self, p, rng):
        prof = profile(random_net(rng, depth=2, max_width=4, scalar_output=True), 2.0)
        with pytest.raises(ValueError, match="schatten exponent"):
            bounds.bound_schatten_depth_free(prof, 1.0, 16, 1.0, 4, p)

    def test_csv_text_formats_floats_at_17_digits(self):
        text = bounds.csv_text(["a", "b", "c"], [["x,y", 0.1, 3], ["z", np.float64(1 / 3), None]])
        assert text == 'a,b,c\n"x,y",0.10000000000000001,3\nz,0.33333333333333331,None\n'
