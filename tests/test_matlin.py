import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capnet import matlin
from conftest import NORM_KINDS, kind_id
from oracles import (_lp_support_2d, linear_maximizer_2d, nearest_in_ball_grid,
                     project_l1_rows_loop, project_lp_ball_bisection, project_rows_l1_max_loop,
                     project_to_ball_2d, projection_via_slsqp, singular_values_via_gram)

small_matrices = arrays(
    np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestSvd:
    def test_identity(self):
        r = matlin.svd(np.eye(3))
        np.testing.assert_allclose(r.singular, [1, 1, 1], atol=1e-14)

    def test_diagonal(self):
        r = matlin.svd(np.diag([5.0, 3.0, 1.0]))
        np.testing.assert_allclose(r.singular, [5, 3, 1], atol=1e-14)
        # left and right agree with the identity up to per-column signs
        signs = np.sign(np.diag(r.left))
        np.testing.assert_allclose(r.left * signs, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(r.right * signs, np.eye(3), atol=1e-14)

    def test_matches_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            matlin.svd(w).singular, singular_values_via_gram(w), atol=1e-8)

    def test_invariants_random(self, rng):
        for _ in range(25):
            w = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
            r = matlin.svd(w)
            assert np.all(np.diff(r.singular) <= 1e-12)
            assert np.all(r.singular >= 0)
            scale = max(1.0, float(np.linalg.norm(w)))
            assert np.linalg.norm(r.reconstruct() - w) <= 1e-10 * scale
            for q in (r.left, r.right):
                assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-10

    def test_rejects_nonfinite_and_oversize(self):
        with pytest.raises(ValueError):
            matlin.svd(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            matlin.svd(np.zeros((1, matlin.MAX_SIDE + 1)))

    def test_deterministic(self, rng):
        w = rng.standard_normal((6, 4))
        a, b = matlin.svd(w), matlin.svd(w.copy())
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.singular, b.singular)
        assert np.array_equal(a.right, b.right)


class TestMatrixNorm:
    def test_diagonal_examples(self):
        w = np.diag([3.0, 4.0])
        assert matlin.matrix_norm(w, matlin.SPECTRAL) == pytest.approx(4.0)
        assert matlin.matrix_norm(w, matlin.FROBENIUS) == pytest.approx(5.0)
        assert matlin.matrix_norm(w, matlin.schatten(1)) == pytest.approx(7.0)

    def test_identity_schatten(self):
        assert matlin.matrix_norm(np.eye(4), matlin.schatten(2)) == pytest.approx(2.0)
        for p in (1.0, 3.0, 8.0):
            assert matlin.matrix_norm(np.eye(4), matlin.schatten(p)) == \
                pytest.approx(4.0 ** (1.0 / p))

    def test_row_norms(self):
        w = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert matlin.matrix_norm(w, matlin.ROWS_L1_MAX) == pytest.approx(3.5)
        assert matlin.matrix_norm(w, matlin.ROWS_L2_SUM) == \
            pytest.approx(math.sqrt(5.0) + math.sqrt(9.25))

    def test_schatten3_matches_gram_oracle(self):
        rng = np.random.default_rng(99)
        w = rng.standard_normal((5, 3))
        s = singular_values_via_gram(w)
        expected = (s ** 3).sum() ** (1.0 / 3.0)
        assert matlin.matrix_norm(w, matlin.schatten(3)) == pytest.approx(expected, abs=1e-9)

    def test_schatten2_equals_frobenius(self, rng):
        for _ in range(20):
            w = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
            f = matlin.matrix_norm(w, matlin.FROBENIUS)
            assert matlin.matrix_norm(w, matlin.schatten(2)) == pytest.approx(f, rel=1e-12)

    def test_singular_norm_needs_a_spectral_kind(self):
        s = matlin.singular_values(np.diag([3.0, 4.0]))
        assert matlin.singular_norm(s, matlin.schatten(1)) == pytest.approx(7.0)
        with pytest.raises(ValueError, match="singular values"):
            matlin.singular_norm(s, matlin.FROBENIUS)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            matlin.schatten(0.5)
        with pytest.raises(ValueError, match="SPECTRAL"):
            matlin.schatten(100.0)
        assert matlin.schatten(math.inf) == matlin.SPECTRAL

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_schatten_chain_monotone(self, w):
        if not w.any():
            return
        vals = [matlin.matrix_norm(w, matlin.schatten(p)) for p in (1, 1.5, 2, 4, 16)]
        vals.append(matlin.matrix_norm(w, matlin.SPECTRAL))
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-10

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_row_sum_dominance_chain(self, w):
        spec = matlin.matrix_norm(w, matlin.SPECTRAL)
        frob = matlin.matrix_norm(w, matlin.FROBENIUS)
        tr = matlin.matrix_norm(w, matlin.schatten(1))
        r21 = matlin.matrix_norm(w, matlin.ROWS_L2_SUM)
        assert spec <= frob + 1e-10
        assert frob <= tr + 1e-10
        assert r21 >= frob - 1e-10

    def test_unitary_invariance(self, rng):
        for _ in range(10):
            w = rng.standard_normal((5, 4))
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            for p in (1.0, 2.0, 7.0):
                a = matlin.matrix_norm(w, matlin.schatten(p))
                b = matlin.matrix_norm(q @ w @ u, matlin.schatten(p))
                assert b == pytest.approx(a, rel=1e-8)


class TestRank1Approx:
    def test_diagonal_example_and_lemma_bound(self):
        w = np.diag([5.0, 3.0, 1.0])
        approx, err = matlin.rank1_approx(w)
        np.testing.assert_allclose(approx, np.diag([5.0, 0.0, 0.0]), atol=1e-12)
        assert err == pytest.approx(3.0)
        # p = 2 error cap: (25 + 9 + 1 - 25)^(1/2) = sqrt(10)
        cap = (matlin.matrix_norm(w, matlin.schatten(2)) ** 2
               - matlin.matrix_norm(w, matlin.SPECTRAL) ** 2) ** 0.5
        assert cap == pytest.approx(math.sqrt(10.0))
        assert err <= cap

    def test_rank1_input(self, rng):
        w = np.outer(rng.standard_normal(4), rng.standard_normal(3))
        approx, err = matlin.rank1_approx(w)
        np.testing.assert_allclose(approx, w, atol=1e-12 * np.abs(w).max())
        assert err <= 1e-12 * matlin.matrix_norm(w, matlin.SPECTRAL)

    def test_zero_matrix(self):
        approx, err = matlin.rank1_approx(np.zeros((2, 3)))
        assert err == 0.0 and not approx.any()

    def test_error_equals_second_singular_value(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 4))
        _, err = matlin.rank1_approx(w)
        assert err == pytest.approx(singular_values_via_gram(w)[1], abs=1e-9)

    def test_norm_nonexpansion_and_error_caps(self, rng):
        for _ in range(30):
            w = rng.standard_normal((rng.integers(2, 7), rng.integers(2, 7)))
            approx, err = matlin.rank1_approx(w)
            for kind in (matlin.SPECTRAL, matlin.schatten(1), matlin.schatten(2),
                         matlin.schatten(4)):
                assert matlin.matrix_norm(approx, kind) <= \
                    matlin.matrix_norm(w, kind) * (1 + 1e-12)
            spec = matlin.matrix_norm(w, matlin.SPECTRAL)
            for p in (1.0, 2.0, 4.0):
                cap = (matlin.matrix_norm(w, matlin.schatten(p)) ** p - spec ** p)
                assert err <= max(cap, 0.0) ** (1.0 / p) + 1e-9


class TestProjection:
    def test_frobenius_uniform_scaling(self, rng):
        w = rng.standard_normal((3, 4))
        w *= 10.0 / np.linalg.norm(w)
        out = matlin.project_to_ball(w, matlin.BallConstraint(matlin.FROBENIUS, 5.0))
        np.testing.assert_allclose(out, 0.5 * w, rtol=1e-14)

    def test_spectral_clipping(self):
        out = matlin.project_to_ball(
            np.diag([5.0, 3.0]), matlin.BallConstraint(matlin.SPECTRAL, 4.0))
        np.testing.assert_allclose(out, np.diag([4.0, 3.0]), atol=1e-12)

    def test_trace_ball_example_with_grid_oracle(self):
        c = matlin.BallConstraint(matlin.schatten(1), 2.0)
        w = np.diag([3.0, 1.0])
        out = matlin.project_to_ball(w, c)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-10)
        # distance-minimality against a dense grid over the feasible set
        oracle = nearest_in_ball_grid(
            np.array([3.0, 1.0]), lambda v: np.abs(v).sum(), 2.0, -0.5, 3.0, steps=141)
        assert np.linalg.norm(out - w) <= oracle + 1e-8

    def test_inside_ball_returned_unchanged(self, rng):
        w = rng.standard_normal((3, 3)) * 0.1
        for c in (matlin.BallConstraint(matlin.FROBENIUS, 10.0),
                  matlin.BallConstraint(matlin.schatten(3), 10.0),
                  matlin.BallConstraint(matlin.ROWS_L1_MAX, 10.0)):
            assert matlin.project_to_ball(w, c) is w

    @pytest.mark.parametrize("kind", [
        matlin.SPECTRAL, matlin.FROBENIUS, matlin.schatten(1), matlin.schatten(1.5),
        matlin.schatten(3), matlin.ROWS_L1_MAX, matlin.ROWS_L2_SUM,
    ])
    def test_feasibility_and_idempotence(self, rng, kind):
        for _ in range(10):
            w = rng.standard_normal((4, 3)) * 3.0
            c = matlin.BallConstraint(kind, float(rng.uniform(0.5, 2.0)))
            out = matlin.project_to_ball(w, c)
            assert matlin.matrix_norm(out, kind) <= c.radius * (1 + 1e-9)
            again = matlin.project_to_ball(out, c)
            assert np.abs(again - out).max() <= 1e-10

    @pytest.mark.parametrize("kind", [
        matlin.SPECTRAL, matlin.FROBENIUS, matlin.schatten(1), matlin.schatten(2.5),
        matlin.ROWS_L1_MAX, matlin.ROWS_L2_SUM,
    ])
    def test_optimality_against_sampled_interior_points(self, kind):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 3)) * 3.0
        c = matlin.BallConstraint(kind, 1.0)
        out = matlin.project_to_ball(w, c)
        d_out = np.linalg.norm(w - out)
        for _ in range(1000):
            q = rng.standard_normal((3, 3))
            nq = matlin.matrix_norm(q, kind)
            q *= rng.uniform(0, 1) / max(nq, 1e-12)
            assert d_out <= np.linalg.norm(w - q) + 1e-8

    def test_general_p_vector_projection_matches_slsqp(self):
        rng = np.random.default_rng(17)
        for p in (1.5, 3.0, 8.0):
            v = rng.standard_normal(4) * 2.0
            mine = matlin.project_lp_ball(v, p, 1.0)
            ref = projection_via_slsqp(
                v, lambda x, p=p: float((np.abs(x) ** p).sum() ** (1 / p)), 1.0)
            np.testing.assert_allclose(mine, ref, atol=5e-6)

    def test_lp_projection_bracket_expansion(self):
        # many large coordinates force the multiplier beyond max(a)/p
        v = np.full(16, 10.0)
        out = matlin.project_lp_ball(v, 2.0, 1.0)
        assert float((out ** 2).sum() ** 0.5) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(out, v / np.linalg.norm(v), atol=1e-9)

    @pytest.mark.parametrize("p", [1.01, 7.0, 32.0, 63.9, 64.0])
    def test_lp_projection_lands_on_boundary(self, p):
        # exterior points project onto the sphere; large p once stalled the
        # inner solve far from the boundary
        rng = np.random.default_rng(33)
        for _ in range(20):
            v = rng.standard_normal(rng.integers(2, 10)) * rng.uniform(1.5, 20)
            if matlin._lp_vec_norm(np.abs(v), p) <= 1.0:
                continue
            out = matlin.project_lp_ball(v, p, 1.0)
            assert matlin._lp_vec_norm(np.abs(out), p) == pytest.approx(1.0, abs=5e-9)

    @pytest.mark.parametrize("p", [32.0, 63.9, 64.0])
    def test_overflowing_multiplier_still_lands_on_boundary(self, p):
        # the multiplier for these inputs exceeds the float range at large p,
        # which once made every coordinate nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = matlin.project_lp_ball(np.array([0.00073198]), p, 1.25e-06)
            mat = matlin.project_to_ball(
                np.diag([2e-3, 1e-3]), matlin.BallConstraint(matlin.schatten(p), 1e-6))
        assert np.isfinite(out).all() and np.isfinite(mat).all()
        assert matlin._lp_vec_norm(np.abs(out), p) == pytest.approx(1.25e-06, rel=5e-9)
        assert matlin.matrix_norm(mat, matlin.schatten(p)) == pytest.approx(1e-6, rel=5e-9)


def _lp_cases(seed, count):
    """Exterior points: p in [1.01, 64], 1-8 coordinates of magnitude
    1e-3..1e3 (some zero), radius 1e-3..(1 - 1e-7) times the point's norm."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        p = float(np.exp(rng.uniform(math.log(1.01), math.log(64.0))))
        d = int(rng.integers(1, 9))
        v = rng.standard_normal(d) * np.exp(rng.uniform(math.log(1e-3), math.log(1e3), d))
        v[rng.random(d) < 0.2] = 0.0
        if not v.any():
            continue
        ratio = 1.0 - math.exp(rng.uniform(math.log(1e-7), math.log(1.0 - 1e-3)))
        cases.append((v, p, matlin._lp_vec_norm(np.abs(v), p) * ratio))
    return cases


def _lp_norm_by_row(row, p):
    """The l_p norm of one row >= 0 as matlin took it one row at a time: a
    numpy sum of the row's powers over its top value and a scalar root."""
    top = float(row.max(initial=0.0))
    return top * float(np.sum((row / top) ** p) ** (1.0 / p)) if top > 0.0 else 0.0


def _lp_stacks(seed, count):
    """Stacks (n, k) with k in 1..12 and about a fifth of the entries zero,
    p in {1.01, 1.5, 2, 3, 64}, rows 0.1..10 times apart and the radius one
    row's computed norm, so that rows lie inside, on and outside the sphere.
    In every fifth stack p = 64, the radius is 1.25e-6 and one row has norm
    1e-3, so far outside that its multiplier overflows and it takes the
    unit-ball rescale."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        p = 64.0 if i % 5 == 0 else float(rng.choice([1.01, 1.5, 2.0, 3.0, 64.0]))
        v = rng.standard_normal((n, k)) * np.exp(rng.uniform(math.log(0.1), math.log(10.0),
                                                             (n, 1)))
        v[rng.random((n, k)) < 0.2] = 0.0
        norms = [_lp_norm_by_row(np.abs(row), p) for row in v]
        j = int(rng.integers(n))
        radius = norms[j] or 1.0
        if i % 5 == 0:
            v *= 1.25e-6 / radius
            v[j] *= 1e-3 / 1.25e-6
            radius = 1.25e-6
        yield v, p, radius


class TestReplayedLpProjection:
    """project_lp_ball replays the multiplier bisection from a solved
    multiplier; its result must be the plain bisection's, bit for bit."""

    def test_bit_identical_to_bisection_oracle(self):
        compared = 0
        ends = [(v, p, r) for v, _, r in _lp_cases(7, 30) for p in (1.01, 2.0, 64.0)]
        for v, p, radius in _lp_cases(2024, 400) + ends:
            ref = project_lp_ball_bisection(v, p, radius)
            if not np.isfinite(ref).all():
                continue  # the multiplier overflowed, where the bisection returned nan
            assert np.array_equal(matlin.project_lp_ball(v, p, radius), ref), (v, p, radius)
            compared += 1
        assert compared >= 450

    @pytest.mark.parametrize("wrong,falls_back", [
        # near misses may still lead the replay to the evaluated bracket
        (lambda star, band: (star * (1.0 + 1e-6), band), False),
        (lambda star, band: (star + 3.0 * band, band), False),
        (lambda star, band: (math.nan, math.nan), False),
        # misses by far more than the band and the bisection's tolerance cannot
        (lambda star, band: (star + band + 1e-6 * max(1.0, star), band), True),
        (lambda star, band: (star - band - 1e-6 * max(1.0, star), band), True),
        (lambda star, band: (2.0 * star + band + 1e-6, band), True),
    ])
    def test_wrong_multiplier_falls_back_to_identical_bits(self, monkeypatch, wrong,
                                                           falls_back):
        real = matlin._lp_multiplier
        monkeypatch.setattr(matlin, "_lp_multiplier", lambda a, p, r: wrong(*real(a, p, r)))
        shrink, calls = matlin._lp_shrink, []
        monkeypatch.setattr(matlin, "_lp_shrink",
                            lambda *args: calls.append(1) or shrink(*args))
        fallbacks, expected = 0, 0
        for v, p, radius in _lp_cases(99, 60):
            # a multiplier within the tolerance of 0 leaves nothing to get wrong
            expected += falls_back and real(np.abs(v), p, radius)[0] > 1e-8
            del calls[:]
            ref = project_lp_ball_bisection(v, p, radius)
            evaluated = len(calls)
            del calls[:]
            assert np.array_equal(matlin.project_lp_ball(v, p, radius), ref), (v, p, radius)
            # the evaluated bisection took `evaluated` solves; a fallback repeats them all
            fallbacks += len(calls) > evaluated
            del calls[:]
        assert fallbacks >= expected >= (20 if falls_back else 0)

    def test_stacks_match_rows_and_the_bisection_oracle(self):
        # a stack projects, norms and supports every row in one pass; each row
        # must come out as on its own and as the plain bisection has it (scaled
        # back from the unit ball where the multiplier overflows)
        seen = dict(inside=0, outside=0, rescaled=0, zeros_k8=0)
        for v, p, radius in _lp_stacks(5, 60):
            a = np.abs(v)
            out, norms = matlin.project_lp_ball(v, p, radius), matlin._lp_row_norms(a, p)
            support = matlin._lp_support(a, p, radius)
            for row, got, norm, sup in zip(v, out, norms, support):
                assert norm == matlin._lp_vec_norm(np.abs(row), p) == _lp_norm_by_row(
                    np.abs(row), p)
                assert np.array_equal(sup, matlin._lp_support(np.abs(row), p, radius))
                assert np.array_equal(sup, _lp_support_2d(np.abs(row), p, radius))
                assert np.array_equal(got, matlin.project_lp_ball(row, p, radius))
                ref = project_lp_ball_bisection(row, p, radius)
                if not np.isfinite(ref).all():
                    ref = radius * project_lp_ball_bisection(row / radius, p, 1.0)
                    seen["rescaled"] += 1
                assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                                   np.signbit(ref))
                seen["inside" if norm <= radius else "outside"] += 1
                seen["zeros_k8"] += row.size >= 8 and not row.all() and norm > radius
        assert min(seen.values()) >= 25, seen

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 64.0])
    def test_wrong_multiplier_for_some_rows_falls_back_for_those(self, monkeypatch, p):
        # a multiplier off by far more than its band for every other row of a
        # stack: those rows evaluate their whole bisection again, the others
        # take the same shrinks as with the right one, and every row keeps the
        # plain bisection's bits
        real, shrink = matlin._lp_multiplier, matlin._lp_shrink
        calls = collections.Counter()

        def counting(a, p, lam):
            calls.update(row.tobytes() for row in a.reshape(-1, a.shape[-1]))
            return shrink(a, p, lam)

        def wrong(a, p, radius):
            star, band = real(a, p, radius)
            star = star.copy()
            star[::2] += band[::2] + 1e-6 * np.maximum(1.0, star[::2])
            return star, band

        monkeypatch.setattr(matlin, "_lp_shrink", counting)
        rng = np.random.default_rng(31)
        v = rng.standard_normal((9, 6)) * np.exp(rng.uniform(0.0, 3.0, (9, 1)))
        v[rng.random(v.shape) < 0.2] = 0.0
        radius = 0.5 * min(matlin._lp_vec_norm(np.abs(row), p) for row in v)
        refs, evaluated = [], []
        for row in v:
            calls.clear()
            refs.append(project_lp_ball_bisection(row, p, radius))
            evaluated.append(calls[np.abs(row).tobytes()])
        counts = []
        for multiplier in (real, wrong):
            monkeypatch.setattr(matlin, "_lp_multiplier", multiplier)
            calls.clear()
            assert np.array_equal(matlin.project_lp_ball(v, p, radius), refs)
            counts.append([calls[np.abs(row).tobytes()] for row in v])
        for i, (right, wrong_count) in enumerate(zip(*counts)):
            if i % 2:
                assert wrong_count == right
            else:
                assert wrong_count > evaluated[i] > right


def _l1_stacks(seed, count):
    """(rows, n) stacks with n in 1..300, some zero entries and rows scaled
    to 0.1..10 times the radius in l1 norm, so that most stacks mix rows
    inside and outside the ball; radius 1e-3..1e2.  In every third stack the
    radius is one row's computed l1 norm, which puts that row on the
    boundary, where the inside test depends on numpy's pairwise summation
    (n >= 8) of the row."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows, n = int(rng.integers(1, 17)), int(rng.integers(1, 301))
        radius = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e2))))
        w = rng.standard_normal((rows, n))
        w[rng.random(w.shape) < 0.2] = 0.0
        l1 = np.abs(w).sum(axis=1, keepdims=True)
        factor = np.exp(rng.uniform(math.log(0.1), math.log(10.0), (rows, 1)))
        w = np.divide(w * radius * factor, l1, out=w, where=l1 > 0)
        if i % 3 == 0:
            radius = float(np.abs(w[int(rng.integers(rows))]).sum())
        yield w, radius


class TestBatchedL1Projection:
    """project_l1_rows batches the per-row sorted-threshold rule; each row
    must be the per-row projection's, bit for bit."""

    def test_bit_identical_to_row_loop(self):
        inside = outside = 0
        for w, radius in _l1_stacks(11, 1200):
            ref = project_l1_rows_loop(w, radius)
            got = matlin.project_l1_rows(w, radius)
            assert np.array_equal(got, ref), (w, radius)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            hit = np.abs(w).sum(axis=1) <= radius
            inside += int(hit.sum())
            outside += int((~hit).sum())
        assert inside >= 1000 and outside >= 1000

    def test_project_to_ball_matches_row_loop(self):
        for w, radius in _l1_stacks(12, 300):
            c = matlin.BallConstraint(matlin.ROWS_L1_MAX, radius)
            ref = project_rows_l1_max_loop(w, radius)
            got = matlin.project_to_ball(w, c)
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                               np.signbit(ref))

    def test_per_row_radius_matches_scalar_calls(self):
        # the l1/inf contraction harness projects a stack of instances at
        # once, one radius per row; each row must get its scalar call's bits
        rng = np.random.default_rng(25)
        inside = outside = 0
        for i, (w, radius) in enumerate(_l1_stacks(13, 400)):
            radii = radius * np.exp(rng.uniform(math.log(0.1), math.log(10.0), len(w)))
            if i % 3 == 0:  # a row on its own boundary
                j = int(rng.integers(len(w)))
                radii[j] = float(np.abs(w[j]).sum()) or radius
            got = matlin.project_l1_rows(w, radii)
            ref = np.vstack([matlin.project_l1_rows(row[None], r)
                             for row, r in zip(w, radii.tolist())])
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                               np.signbit(ref))
            hit = np.abs(w).sum(axis=1) <= radii
            inside += int(hit.sum())
            outside += int((~hit).sum())
        assert inside >= 300 and outside >= 300

    def test_rows_inside_come_back_unchanged(self):
        w = np.array([[0.25, -0.0, 0.5], [3.0, -1.0, 0.0]])
        out = matlin.project_l1_rows(w, 1.0)
        assert out is not w
        assert np.array_equal(out[0], w[0]) and np.signbit(out[0, 1])
        assert np.array_equal(out[1], [1.0, 0.0, 0.0])
        assert np.array_equal(matlin.project_l1_rows(w[:1], 1.0), w[:1])

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            matlin.project_l1_ball(np.array([3.0, -1.0]), radius)
        with pytest.raises(ValueError, match="radius"):
            matlin.project_l1_rows(np.array([[3.0, -1.0]]), radius)
        with pytest.raises(ValueError, match="radius"):
            matlin.project_l1_rows(np.array([[3.0, -1.0], [0.5, 0.0]]), np.array([1.0, radius]))

    def test_radius_below_rounding_of_the_entries(self):
        # u - (u - radius) rounds to 0, so no sorted position passes the test
        w = np.array([[1e20, -1e20], [0.5, 0.0]])
        assert np.array_equal(matlin.project_l1_ball(w[0], 1.0), [0.0, -0.0])
        assert np.array_equal(matlin.project_l1_rows(w, 1.0), [[0.0, -0.0], [0.5, 0.0]])


class TestStacks:
    """A stack (n, rows, cols) gives every slice the bits of the same call on
    that matrix alone; the 2-D projection and support map are compared with
    their pre-stack forms kept in the oracles."""

    @staticmethod
    def _stack(rng):
        n, rows, cols = rng.integers(1, 6), rng.integers(1, 8), rng.integers(1, 8)
        w = rng.standard_normal((n, rows, cols)) * 10.0 ** rng.uniform(-2, 4, size=(n, 1, 1))
        w[rng.random(n) < 0.2] = 0.0
        return w

    @pytest.mark.parametrize("kind", NORM_KINDS, ids=kind_id)
    def test_projection_support_map_and_norm_per_slice(self, kind, rng):
        for _ in range(30):
            w = self._stack(rng)
            c = matlin.BallConstraint(kind, float(rng.uniform(0.5, 3.0)))
            out, lm, norms = (matlin.project_to_ball(w, c), matlin.linear_maximizer(w, c),
                              matlin.matrix_norm(w, kind))
            assert out.shape == lm.shape == w.shape and norms.shape == (len(w),)
            for i, wi in enumerate(w):
                want = project_to_ball_2d(wi, c)
                assert np.array_equal(out[i], want)
                assert np.array_equal(matlin.project_to_ball(wi, c), want)
                assert np.array_equal(lm[i], linear_maximizer_2d(wi, c))
                assert np.array_equal(matlin.linear_maximizer(wi, c), lm[i])
                assert norms[i] == matlin.matrix_norm(wi, kind)

    def test_svd_and_singular_values_per_slice(self, rng):
        for _ in range(20):
            w = self._stack(rng)
            r, sv = matlin.svd(w), matlin.singular_values(w)
            for i, wi in enumerate(w):
                ri = matlin.svd(wi)
                assert np.array_equal(r.left[i], ri.left)
                assert np.array_equal(r.singular[i], ri.singular)
                assert np.array_equal(r.right[i], ri.right)
                assert np.array_equal(sv[i], matlin.singular_values(wi))
                assert np.array_equal(r.reconstruct()[i], ri.reconstruct())

    @pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 2.0, 3.0, 64.0])
    def test_lp_projection_per_row(self, p, rng):
        v = rng.standard_normal((6, 5)) * 10.0 ** rng.uniform(-1, 2, size=(6, 1))
        out = matlin.project_lp_ball(v, p, 1.3)
        for row, got in zip(v, out):
            assert np.array_equal(got, matlin.project_lp_ball(row, p, 1.3))

    def test_inside_slices_keep_their_bits(self, rng):
        w = rng.standard_normal((3, 4, 3))
        w[1] *= 1e-3
        kind = matlin.schatten(1)
        c = matlin.BallConstraint(kind, 2.0 * matlin.matrix_norm(w[1], kind))
        out = matlin.project_to_ball(w, c)
        assert np.array_equal(out[1], w[1])
        assert not np.array_equal(out[0], w[0])

    def test_stack_validation(self):
        c = matlin.BallConstraint(matlin.SPECTRAL, 1.0)
        with pytest.raises(ValueError, match="finite"):
            matlin.project_to_ball(np.full((2, 2, 2), np.nan), c)
        with pytest.raises(ValueError, match="positive"):
            matlin.svd(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="2-D"):
            matlin.project_to_ball(np.ones(3), c)
        with pytest.raises(ValueError, match="2-D"):
            matlin.matrix_norm(np.ones((1, 2, 2, 2)), matlin.FROBENIUS)


JOINED_KINDS = [matlin.SPECTRAL, matlin.FROBENIUS, matlin.ROWS_L2_SUM, matlin.ROWS_L1_MAX] + [
    matlin.schatten(p) for p in (1.0, 1.5, 2.0, 4.0, 64.0)]


def _own_norm(s, kind):
    """The norm of the matrix s as project_to_ball checks it."""
    if kind.tag in ("spectral", "schatten"):
        return matlin.singular_norm(matlin.svd(s).singular, kind)
    return matlin.matrix_norm(s, kind)


def _joined_lists(seed, count):
    """Lists of 1-4 matrices and stacks (1-3 slices) for one ball, cycling
    through JOINED_KINDS with radius 0.5..3.  min(rows, cols) is 1, 3, 5 or 7,
    or 8, 9, 10, 16 or 17, so that rows of singular values padded to a common
    length share a call with rows of 8 or more, of several lengths.  Each
    slice is 0.1..10 times the radius in the ball's norm: in every fifth list
    all slices lie inside, in the next all outside; about one slice in ten is
    zero.  In every third list the radius puts one slice's norm, as its own
    call computes it, exactly on the limit radius * (1 + 1e-12), so that a
    norm summed otherwise in the joined call would show in the result."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = JOINED_KINDS[i % len(JOINED_KINDS)]
        c = matlin.BallConstraint(kind, float(rng.uniform(0.5, 3.0)))
        lo, hi = {0: (0.1, 0.99), 1: (1.01, 10.0)}.get(i % 5, (0.1, 10.0))
        entries = []
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.choice([1, 3, 5, 7, 8, 9, 10, 16, 17]))
            shape = (k, k + int(rng.integers(0, 4)))
            n = int(rng.integers(1, 4))
            w = rng.standard_normal((n,) + (shape if rng.random() < 0.5 else shape[::-1]))
            factor = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
            w *= (c.radius * factor / matlin.matrix_norm(w, kind))[:, None, None]
            w[rng.random(n) < 0.1] = 0.0
            entries.append(w[0] if rng.random() < 0.3 else w)
        if i % 3 == 2:
            w = entries[int(rng.integers(len(entries)))]
            norm = _own_norm(w if w.ndim == 2 else w[int(rng.integers(len(w)))], kind)
            radius = norm / (1.0 + 1e-12)
            for _ in range(4 if norm > 0.0 else 0):
                if radius * (1.0 + 1e-12) == norm:
                    c = matlin.BallConstraint(kind, radius)
                    break
                radius = np.nextafter(radius, math.inf if radius * (1.0 + 1e-12) < norm else 0.0)
        yield entries, c


class TestJoinedProjection:
    """project_to_ball of a list takes the rows of singular values of all
    its entries through one Schatten-ball check and projection (rows of
    fewer than 8 entries zero-padded to a common length); every entry must
    come out as its own call has it, and every slice as the 2-D form kept in
    the oracles."""

    @staticmethod
    def _check(entries, c):
        got = matlin.project_to_ball(entries, c)
        assert isinstance(got, list) and len(got) == len(entries)
        for w, out in zip(entries, got):
            want = matlin.project_to_ball(w, c)
            assert out.shape == w.shape and np.array_equal(out, want), (w, c)
            for wi, oi in zip(w[None] if w.ndim == 2 else w, out[None] if w.ndim == 2 else out):
                assert np.array_equal(oi, project_to_ball_2d(wi, c)), (wi, c)

    def test_list_equals_per_entry_calls(self):
        seen = collections.Counter()
        for entries, c in _joined_lists(15, 2000):
            self._check(entries, c)
            slices = [s for w in entries for s in (w[None] if w.ndim == 2 else w)]
            inside = [matlin.matrix_norm(s, c.kind) <= c.radius for s in slices]
            seen["all inside" if all(inside) else "all outside" if not any(inside)
                 else "mixed"] += 1
            seen["zero slice"] += any(not s.any() for s in slices)
            ks = {min(s.shape) for s in slices}
            seen["short and long rows"] += min(ks) < 8 <= max(ks)
            seen["long rows of two lengths"] += len({k for k in ks if k >= 8}) > 1
            seen["a slice on the limit"] += any(
                _own_norm(s, c.kind) == c.radius * (1.0 + 1e-12) for s in slices)
            seen["short rows of two lengths"] += len({k for k in ks if k < 8}) > 1
            seen[kind_id(c.kind)] += 1
        assert min(seen.values()) >= 50, seen

    def test_overflowing_multiplier_among_other_entries(self):
        # the multiplier of [[0.00073198]] overflows at p = 64 and radius
        # 1.25e-6 and takes the unit-ball rescale; joined with padded rows
        # and rows of 8 or more it keeps the bits of its own call
        rng = np.random.default_rng(64)
        c = matlin.BallConstraint(matlin.schatten(64.0), 1.25e-6)
        entries = [np.array([[0.00073198]]), 1e-6 * rng.standard_normal((2, 3, 5)),
                   1e-6 * rng.standard_normal((9, 8))]
        self._check(entries, c)
        assert np.isfinite(matlin.project_to_ball(entries, c)[0]).all()

    def test_other_forms(self, rng):
        # an empty list, and a single matrix or stack is the list of one
        c = matlin.BallConstraint(matlin.schatten(1.5), 1.0)
        assert matlin.project_to_ball([], c) == []
        w = 3.0 * rng.standard_normal((2, 4, 3))
        assert np.array_equal(matlin.project_to_ball(w, c), matlin.project_to_ball([w], c)[0])
        assert np.array_equal(matlin.project_to_ball(w[0], c),
                              matlin.project_to_ball([w[0]], c)[0])
        inside = 0.01 * w[0]
        assert matlin.project_to_ball([inside, w], c)[0] is inside
        with pytest.raises(ValueError, match="2-D"):
            matlin.project_to_ball([w, np.ones(3)], c)


class TestShrinkStack:
    # a row that runs into the p >= 2 Newton loop's 80-step cap, met in the
    # benchmark's p = 2 ascent: its entry near 1 keeps moving by one ulp per
    # step, which the stop test 1e-16 * scale never accepts
    CAP_ROW, CAP_LAM = [1.000140305663656, 0.0, 0.0], 7.015286683217722e-05

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 64.0])
    def test_rows_equal_their_lone_calls(self, p, monkeypatch):
        rng = np.random.default_rng(int(10 * p))
        stopped, keep = [], matlin._keep

        def recording(x, on, going, rows):
            stopped.extend(on[~going].tolist())
            return keep(x, on, going, rows)

        monkeypatch.setattr(matlin, "_keep", recording)
        for trial in range(40):
            n, k = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            a = np.abs(rng.standard_normal((n, k))) * np.exp(rng.uniform(-3.0, 3.0, (n, 1)))
            a[rng.random((n, k)) < 0.2] = 0.0
            lam = np.exp(rng.uniform(-12.0, 4.0, n))
            lam[rng.random(n) < 0.25] = 0.0
            cap = p == 2.0 and k >= 3 and trial % 2 == 0
            if cap:
                a[-1], lam[-1] = self.CAP_ROW + [0.0] * (k - 3), self.CAP_LAM
            del stopped[:]
            x = matlin._lp_shrink(a, p, lam)
            assert x.shape == a.shape
            stopped_in_stack = sorted(stopped)
            for row, l, got in zip(a, lam, x):
                assert np.array_equal(got, matlin._lp_shrink(row, p, float(l)))
                if l == 0.0:
                    assert np.array_equal(got, row)
                    continue
                # the root of the increasing f(y) = y + lam p y^(p-1) - a lies
                # within 1e-9 relative of got, up to the solver's residual
                # tolerance 1e-13 * max(1, max(a)) and f's rounding (a root
                # among the subnormals has no 1e-9 relative neighbours)
                with np.errstate(all="ignore"):
                    lower, upper = (y + l * p * y ** (p - 1.0) - row
                                    for y in (got * (1.0 - 1e-9), got * (1.0 + 1e-9)))
                slack = 1e-13 * max(1.0, row.max()) + 8.0 * np.finfo(float).eps * row
                pos = got >= np.finfo(float).tiny
                assert np.all(lower[pos] <= slack[pos]) and np.all(upper[pos] >= -slack[pos])
            if cap:
                # every other row with a multiplier stopped on its own test;
                # the capped one never did and still came out as alone
                assert stopped_in_stack == [i for i in range(n - 1) if lam[i] != 0.0]


def _partial_permutation(rng, rows, cols, k):
    """A random 0/1 (rows, cols) mask of k entries, at most one per row and
    per column."""
    mask = np.zeros((rows, cols))
    mask[rng.permutation(rows)[:k], rng.permutation(cols)[:k]] = 1.0
    return mask


class TestMaskedProjection:
    """project_masked onto a ball and a partial-permutation mask, against
    SLSQP over the masked entries under the ball's own matrix norm, so that
    the reduction to an l_p ball of the entries is checked with it."""

    # SLSQP's accuracy, which is lowest where the optimum sits on a kink:
    # of the l1 kind of norms wherever an entry shrinks to 0, and of the
    # singular values wherever entries meet at the radius
    SLSQP_ATOL = {"spectral": 5e-4, "rows_l2_sum": 5e-4, "schatten1": 5e-4}

    @pytest.mark.parametrize("kind", NORM_KINDS, ids=kind_id)
    def test_matches_slsqp(self, kind):
        rng = np.random.default_rng(5)
        for rows, cols in ((4, 3), (3, 5), (1, 4), (5, 5)):
            # k = 0 is the all-zero mask; k < min(rows, cols) leaves rows and
            # columns empty
            for k in range(min(rows, cols) + 1):
                for _ in range(2):
                    mask = _partial_permutation(rng, rows, cols, k)
                    w = 2.0 * rng.standard_normal((rows, cols))
                    c = matlin.BallConstraint(kind, float(rng.uniform(0.3, 1.5)))
                    out = matlin.project_masked(w, c, mask)
                    assert not out[mask == 0].any()
                    if not k:
                        continue
                    idx = np.nonzero(mask)

                    def norm(x):
                        m = np.zeros((rows, cols))
                        m[idx] = x
                        # a largest singular value or row norm as all of them
                        if kind.tag == "spectral":
                            return matlin.singular_values(m)
                        if kind.tag == "rows_l1_max":
                            return np.abs(m).sum(axis=1)
                        return matlin.matrix_norm(m, kind)

                    ref = projection_via_slsqp(w[idx], norm, c.radius)
                    ref = ref * min(1.0, c.radius / np.max(norm(ref)))  # scaled into the ball
                    np.testing.assert_allclose(out[idx], ref,
                                               atol=self.SLSQP_ATOL.get(kind_id(kind), 1e-6))
                    # and no farther from w than that feasible point (the
                    # multiplier's 1e-10 bisection tolerance aside)
                    assert (np.linalg.norm(out[idx] - w[idx])
                            <= np.linalg.norm(ref - w[idx]) + 1e-9)

    @pytest.mark.parametrize("kind", NORM_KINDS, ids=kind_id)
    def test_result_is_feasible_and_zero_off_the_mask(self, kind, rng, monkeypatch):
        # far outside, the l1 rule overshoots by rounding and its rows are
        # projected again
        project, calls = matlin.project_lp_ball, []
        monkeypatch.setattr(matlin, "project_lp_ball",
                            lambda *a, **k: calls.append(1) or project(*a, **k))
        for scale in (0.5, 3.0, 1e3, 1e6):
            calls.clear()
            for _ in range(25):
                rows, cols = (int(n) for n in rng.integers(1, 9, size=2))
                mask = _partial_permutation(rng, rows, cols,
                                            int(rng.integers(0, min(rows, cols) + 1)))
                w = scale * rng.standard_normal((6, rows, cols))
                c = matlin.BallConstraint(kind, float(rng.uniform(0.1, 3.0)))
                out = matlin.project_masked(w, c, mask)
                assert np.all(matlin.matrix_norm(out, kind) <= c.radius * (1 + 1e-12))
                assert not out[:, mask == 0].any()
                # every slice of the stack as it comes out alone
                for wi, oi in zip(w, out):
                    assert np.array_equal(matlin.project_masked(wi, c, mask), oi)
            if scale == 1e6 and kind_id(kind) in ("rows_l2_sum", "schatten1"):
                assert len(calls) > 50  # more than one per project_masked call
