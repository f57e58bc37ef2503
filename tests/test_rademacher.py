import itertools
import math
import re

import numpy as np
import pytest

from capnet import cli, lowerbound, matlin, rademacher, verify
from capnet.errors import VerificationError
from capnet.network import (Dataset, Layer, Network, dataset_from_obj, network_from_obj,
                            save_dataset, save_network)
from conftest import NORM_KINDS, kind_id, load_perfbench, make_net, sphere_points, traced_peak_mib
from oracles import (all_signs, check_contraction_per_function, enumerate_linear_class_value,
                     mc_values_per_sample, sign_mean_by_chunks, sup_ascent_per_restart,
                     verify_cover_chunked)


def linear_spec(dim, radius=1.0, kind=None):
    kind = kind or matlin.FROBENIUS
    tpl = Network(layers=(Layer(np.full((1, dim), 0.1), None),), input_dim=dim)
    return rademacher.ClassSpec(template=tpl, balls=(matlin.BallConstraint(kind, radius),))


class TestExactRademacher:
    def test_singleton_class_is_zero(self, rng):
        vals = rng.standard_normal((8, 1))
        est = rademacher.exact_rademacher(vals)
        assert est.method == "exact-enumeration"
        assert abs(est.value) <= 1e-12

    def test_two_constants(self):
        vals = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert rademacher.exact_rademacher(vals).value == pytest.approx(0.5)

    def test_negation_closed_class_absolute_identity(self, rng):
        v = rng.standard_normal((6, 3))
        mirrored = np.hstack([v, -v])
        est = rademacher.exact_rademacher(mirrored).value
        signs = all_signs(6)
        want = np.abs(signs @ v).max(axis=1).mean() / 6
        assert est == pytest.approx(want, abs=1e-12)

    def test_permutation_and_duplication_invariance(self, rng):
        v = rng.standard_normal((5, 4))
        base = rademacher.exact_rademacher(v).value
        assert rademacher.exact_rademacher(v[:, ::-1]).value == base
        assert rademacher.exact_rademacher(np.hstack([v, v[:, :2]])).value == base

    def test_cap_refusal_mentions_monte_carlo(self):
        with pytest.raises(ValueError, match="mc_rademacher"):
            rademacher.exact_rademacher(np.zeros((23, 1)))

    def test_non_finite_values_rejected(self, rng):
        v = rng.standard_normal((4, 3))
        v[2, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            rademacher.exact_rademacher(v)


class TestSignMean:
    @pytest.mark.parametrize("m", [3, 14, 15, 18])
    def test_equals_per_chunk_enumeration(self, m):
        # the block's row order shows in the seeded max of s @ v
        v = np.random.default_rng(m).standard_normal((m, 5))
        fn = lambda s: (s @ v).max(axis=1)  # noqa: E731
        assert rademacher._sign_mean(fn, m) == sign_mean_by_chunks(fn, m)

    def test_blocks_are_the_sign_matrix_rows_in_order(self):
        m, blocks = 16, []
        rademacher._sign_mean(lambda s: blocks.append(s.copy()) or s[:, 0], m)
        assert len(blocks) == 4
        assert np.array_equal(np.vstack(blocks), rademacher.sign_matrix(m))


class TestSupAscent:
    def test_linear_class_recovers_dual_norm(self, rng):
        data = Dataset(points=rng.standard_normal((10, 3)))
        spec = linear_spec(3, radius=2.0)
        for trial in range(5):
            eps = rng.choice([-1.0, 1.0], size=10)
            val, ws = rademacher.sup_ascent(eps, spec, data, restarts=2, steps=60,
                                            seed=trial)
            truth = 2.0 * np.linalg.norm(eps @ data.points) / 10
            assert val == pytest.approx(truth, rel=1e-6)
            assert matlin.matrix_norm(ws[0], matlin.FROBENIUS) <= 2.0 * (1 + 1e-9)

    def test_zero_dataset(self):
        data = Dataset(points=np.zeros((6, 2)))
        spec = linear_spec(2)
        eps = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        val, _ = rademacher.sup_ascent(eps, spec, data, restarts=2, steps=30, seed=0)
        assert val == 0.0

    def test_frozen_class_without_restarts_rejected(self):
        tpl = Network(layers=(Layer(np.ones((1, 2)), None),), input_dim=2)
        spec = rademacher.ClassSpec(template=tpl, balls=(None,))
        data = Dataset(points=np.eye(2))
        eps = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="restarts >= 1"):
            rademacher.sup_ascent(eps, spec, data, restarts=0, steps=5)
        val, _ = rademacher.sup_ascent(eps, spec, data, restarts=1, steps=5)
        assert val == 0.0

    def test_row_l1_class_recovers_max_coordinate(self, rng):
        data = Dataset(points=rng.standard_normal((8, 4)))
        spec = linear_spec(4, radius=1.5, kind=matlin.ROWS_L1_MAX)
        eps = rng.choice([-1.0, 1.0], size=8)
        val, _ = rademacher.sup_ascent(eps, spec, data, restarts=2, steps=60, seed=3)
        truth = 1.5 * np.abs(eps @ data.points).max() / 8
        assert val == pytest.approx(truth, rel=1e-6)

    def test_exact_budget_proportionality(self, rng):
        data = Dataset(points=rng.standard_normal((6, 3)))
        eps = rng.choice([-1.0, 1.0], size=6)
        base, _ = rademacher.sup_ascent(eps, linear_spec(3, 1.0), data,
                                        restarts=3, steps=40, seed=9)
        doubled, _ = rademacher.sup_ascent(eps, linear_spec(3, 2.0), data,
                                           restarts=3, steps=40, seed=9)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
        assert doubled >= base

    def test_monotone_in_constraints_deep_net(self, rng):
        tpl = make_net([rng.standard_normal((3, 2)), rng.standard_normal((1, 3))])
        data = sphere_points(rng, 6, 2)
        eps = rng.choice([-1.0, 1.0], size=6)

        def spec(r1, r2):
            return rademacher.ClassSpec(template=tpl, balls=(
                matlin.BallConstraint(matlin.FROBENIUS, r1),
                matlin.BallConstraint(matlin.FROBENIUS, r2),
            ))

        small, _ = rademacher.sup_ascent(eps, spec(1.0, 1.0), data, restarts=3,
                                         steps=80, seed=2)
        big, _ = rademacher.sup_ascent(eps, spec(1.5, 2.0), data, restarts=3,
                                       steps=80, seed=2)
        assert big >= small
        assert big == pytest.approx(3.0 * small, rel=1e-12)

    def test_value_nonnegative_with_zero_in_class(self, rng):
        tpl = make_net([rng.standard_normal((2, 2)), rng.standard_normal((1, 2))])
        data = sphere_points(rng, 5, 2)
        spec = rademacher.ClassSpec(template=tpl, balls=(
            matlin.BallConstraint(matlin.FROBENIUS, 1.0),
            matlin.BallConstraint(matlin.FROBENIUS, 1.0),
        ))
        for s in range(4):
            eps = np.random.default_rng(s).choice([-1.0, 1.0], size=5)
            val, _ = rademacher.sup_ascent(eps, spec, data, restarts=2, steps=40, seed=s)
            assert val >= 0.0


class TestAscentGolden:
    """Pinned value and weights, compared bit for bit, for two ascent paths
    that no benchmark output covers: a masked layer with a frozen tail, and
    a frozen tail after a ReLU layer."""

    def test_masked_diagonal_class_with_frozen_tail(self):
        cons, spec = lowerbound.build_diag(h=3, m=6, p=1.5, B=2.0, gamma=0.5,
                                           budgets=(1.3, 0.7))
        eps = np.random.default_rng(7).choice([-1.0, 1.0], size=6)
        val, ws = rademacher.sup_ascent(eps, spec, cons.data, restarts=3, steps=40, seed=11)
        assert val == 1.7499294786396553
        diag = 0.6249748137998771
        assert ws[0].tolist() == [[diag, 0.0, 0.0], [0.0, diag, 0.0], [0.0, 0.0, diag],
                                  [0.0, 0.0, 0.0]]
        assert ws[1].tolist() == [[1.4]]

    def test_relu_layer_with_frozen_tail(self):
        rng = np.random.default_rng(3)
        tpl = Network(layers=(Layer(rng.standard_normal((3, 4)), "relu"),
                              Layer(rng.standard_normal((1, 3)), None)), input_dim=4)
        data = Dataset(points=rng.standard_normal((8, 4)))
        eps = rng.choice([-1.0, 1.0], size=8)
        spec = rademacher.ClassSpec(
            template=tpl, balls=(matlin.BallConstraint(matlin.schatten(1.5), 1.2), None))
        val, ws = rademacher.sup_ascent(eps, spec, data, restarts=3, steps=30, seed=5)
        assert val == 0.8264111127582668
        assert ws[0].tolist() == [
            [-0.06545360721408697, -0.17274445725015378, 0.07219363761258378,
             -0.17375186389510183],
            [-0.15544969421808208, -0.4102611635990266, 0.1714569963219975,
             -0.41265371401107986],
            [-0.24552612478794508, -0.6479899118241247, 0.2708089719087026,
             -0.6517688425835968]]
        assert ws[1].tolist() == [[-0.2812874181513504, -0.6680463461089501,
                                   -1.0551505512051214]]


class TestEnforce:
    """``matlin.project_to_ball`` as the ascent calls it: one SVD per layer
    per step, and a feasible result for every kind of single ball.  Masked
    layers are tested in ``tests/test_matlin.py::TestMaskedProjection``."""

    @pytest.mark.parametrize("p", [math.inf, 4.0, 2.0, 1.5, 1.0])
    def test_one_svd_per_layer_per_step(self, p, monkeypatch):
        # the norm check and the projection share one SVD, and the projected
        # point needs no re-check; the restarts step as one stack, so one
        # stacked SVD serves every restart's layer, and the layers of the one
        # ball go through one projection call
        net = verify.random_net(np.random.default_rng(0), depth=4, max_width=8,
                                scalar_output=True, input_dim=6)
        data = Dataset(points=np.random.default_rng(5).standard_normal((32, 6)))
        eps = np.random.default_rng(6).choice([-1.0, 1.0], size=32)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        project, per_call = matlin.project_to_ball, []

        def counted(w, c):
            before = len(calls)
            out = project(w, c)
            per_call.append((len(w) if isinstance(w, list) else 1, len(calls) - before))
            return out

        monkeypatch.setattr(matlin, "project_to_ball", counted)
        steps = 6
        rademacher.sup_ascent(eps, cli._ball_class(net, p), data, restarts=2, steps=steps,
                              seed=3)
        # (layers projected, SVDs taken) of every call: all layers, one SVD each
        assert len(per_call) >= steps
        assert set(per_call) == {(net.depth, net.depth)}

    @pytest.mark.parametrize("kind", [matlin.SPECTRAL, matlin.schatten(1), matlin.schatten(1.5),
                                      matlin.schatten(2), matlin.schatten(4), matlin.FROBENIUS,
                                      matlin.ROWS_L1_MAX, matlin.ROWS_L2_SUM])
    def test_single_ball_result_is_feasible(self, kind, rng):
        # far outside, the l1-type projections overshoot by rounding and are
        # projected again
        for scale in (0.5, 3.0, 1e3, 1e6):
            for _ in range(25):
                w = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9))) * scale
                c = matlin.BallConstraint(kind, float(rng.uniform(0.1, 3.0)))
                out = matlin.project_to_ball(w, c)
                assert matlin.matrix_norm(out, kind) <= c.radius * (1 + 1e-12)


class TestStackedAscent:
    """One stacked sup_ascent over n sign vectors x restarts equals the
    per-restart loop it replaced (oracles.sup_ascent_per_restart) bit for
    bit: every value with ==, every weight with array_equal."""

    @staticmethod
    def _check(spec, data, n, restarts, steps):
        rng = np.random.default_rng([n, restarts, steps])
        eps = rng.choice([-1.0, 1.0], size=(n, data.m))
        seeds = rng.integers(0, 2 ** 32, size=n).tolist()
        vals, ws = rademacher.sup_ascent(eps, spec, data, restarts=restarts, steps=steps,
                                         seed=seeds)
        assert vals.shape == (n,)
        assert [w.shape for w in ws] == [(n,) + l.weight.shape for l in spec.template.layers]
        for i in range(n):
            want, want_ws = sup_ascent_per_restart(eps[i], spec, data, restarts, steps, seeds[i])
            assert vals[i] == want, (i, n, restarts, steps)
            assert all(np.array_equal(w[i], v) for w, v in zip(ws, want_ws)), (i, n)
        # a lone sign vector with an int seed is a stack of one
        one, one_ws = rademacher.sup_ascent(eps[0], spec, data, restarts=restarts,
                                            steps=steps, seed=seeds[0])
        assert isinstance(one, float) and one == vals[0]
        assert all(np.array_equal(w, v[0]) for w, v in zip(one_ws, ws))
        # and no value passes the class's feasibility cap
        assert vals.max() <= rademacher._value_cap(spec, data) * (1 + 1e-9)

    @pytest.mark.parametrize("kind", NORM_KINDS, ids=kind_id)
    def test_equals_per_restart_loop(self, kind):
        rng = np.random.default_rng(17)
        relu = make_net([rng.standard_normal((4, 3)), rng.standard_normal((3, 4)),
                         rng.standard_normal((1, 3))])
        mixed = make_net([rng.standard_normal((4, 3)), rng.standard_normal((3, 4)), [[0.7]]],
                         ["identity", "max_to_scalar", None])
        data = Dataset(points=rng.standard_normal((10, 3)))

        def balls(net, frozen=()):
            # radii below the template's norms, so the template starts outside
            return tuple(None if j in frozen else
                         matlin.BallConstraint(kind, 0.8 * matlin.matrix_norm(l.weight, kind))
                         for j, l in enumerate(net.layers))

        # a random partial permutation: two of the three columns, in two random rows
        mask = np.zeros((4, 3))
        mask[rng.permutation(4)[:2], rng.permutation(3)[:2]] = 1.0
        classes = [
            rademacher.ClassSpec(relu, balls(relu)),
            rademacher.ClassSpec(mixed, balls(mixed)),
            rademacher.ClassSpec(relu, balls(relu, frozen=(1,))),   # a frozen middle layer
            rademacher.ClassSpec(relu, balls(relu, frozen=(0,))),   # a frozen first layer
            rademacher.ClassSpec(relu, balls(relu), masks=(mask, None, None)),
        ]
        for spec in classes:
            for n, restarts, steps in itertools.product((1, 2, 5), (1, 3), (0, 1, 7)):
                self._check(spec, data, n, restarts, steps)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_masked_diagonal_class_with_frozen_tail(self, p):
        cons, spec = lowerbound.build_diag(h=3, m=7, p=p, B=2.0, gamma=0.5,
                                           budgets=(1.3, 0.7, 1.1))
        for n, restarts, steps in itertools.product((1, 2, 5), (1, 3), (0, 1, 7)):
            self._check(spec, cons.data, n, restarts, steps)

    @pytest.mark.parametrize("stack", [1, 2])
    def test_small_stacks_equal_per_restart_loop(self, stack, monkeypatch):
        # stacks of one or two trajectories, so that with 3 restarts a stack
        # ends inside a sign vector's restarts and splits them
        cons, diag = lowerbound.build_diag(h=3, m=7, p=1.5, B=2.0, gamma=0.5,
                                           budgets=(1.3, 0.7, 1.1))
        net = verify.random_net(np.random.default_rng(4), depth=3, max_width=5,
                                scalar_output=True, input_dim=3)
        data = Dataset(points=np.random.default_rng(8).standard_normal((9, 3)))
        for spec, data_ in ((diag, cons.data), (cli._ball_class(net, math.inf), data)):
            monkeypatch.setattr(rademacher, "ASCENT_BLOCK_BYTES",
                                stack * rademacher._trajectory_bytes(spec, data_.m))
            for n, restarts, steps in itertools.product((1, 2, 5), (1, 3), (0, 7)):
                self._check(spec, data_, n, restarts, steps)

    @pytest.mark.parametrize("p", [math.inf, 1.0, 1.5])
    def test_mc_rademacher_equals_per_sample_loop(self, p):
        net = verify.random_net(np.random.default_rng(4), depth=3, max_width=5,
                                scalar_output=True, input_dim=3)
        data = Dataset(points=np.random.default_rng(8).standard_normal((9, 3)))
        spec = cli._ball_class(net, p)
        est = rademacher.mc_rademacher(spec, data, epsilon_samples=5, restarts=3, steps=7,
                                       seed=9)
        vals = mc_values_per_sample(spec, data, 5, restarts=3, steps=7, seed=9)
        assert est == rademacher.sampled_estimate(vals, 9, restarts=3, steps=7)

    @pytest.mark.parametrize("block", [1, 2])
    def test_mc_rademacher_in_blocks_equals_per_sample_loop(self, block, monkeypatch):
        net = verify.random_net(np.random.default_rng(4), depth=3, max_width=5,
                                scalar_output=True, input_dim=3)
        data = Dataset(points=np.random.default_rng(8).standard_normal((9, 3)))
        spec = cli._ball_class(net, 1.5)
        per_sample = 3 * rademacher._trajectory_bytes(spec, data.m)
        monkeypatch.setattr(rademacher, "ASCENT_BLOCK_BYTES", block * per_sample + 7)
        ascent, sizes = rademacher.sup_ascent, []

        def counted(eps, *args, **kwargs):
            sizes.append(len(eps))
            return ascent(eps, *args, **kwargs)

        monkeypatch.setattr(rademacher, "sup_ascent", counted)
        est = rademacher.mc_rademacher(spec, data, epsilon_samples=5, restarts=3, steps=7,
                                       seed=9)
        assert sizes == [block] * (5 // block) + [5 % block] * (5 % block > 0)
        vals = mc_values_per_sample(spec, data, 5, restarts=3, steps=7, seed=9)
        assert est == rademacher.sampled_estimate(vals, 9, restarts=3, steps=7)

    def test_one_seed_per_sign_vector(self):
        data = Dataset(points=np.eye(2))
        eps = np.array([[1.0, -1.0], [-1.0, -1.0]])
        with pytest.raises(ValueError, match="one seed per sign vector"):
            rademacher.sup_ascent(eps, linear_spec(2), data, restarts=1, steps=1, seed=[3])
        with pytest.raises(ValueError, match="stack"):
            rademacher.sup_ascent(eps[:, :1], linear_spec(2), data, restarts=1, steps=1,
                                  seed=[3, 4])


def _reference_net():
    net, data, _ = load_perfbench("inputs").generate(0)
    return network_from_obj(net), dataset_from_obj(data)


class TestValueCap:
    def test_reference_net(self):
        # ROADMAP quotes these rounded: 1246, 2430, 423 and 10610
        net, data = _reference_net()
        caps = {p: rademacher._value_cap(cli._ball_class(net, p), data)
                for p in (2.0, 1.5, math.inf, 1.0)}
        assert caps == pytest.approx({2.0: 1245.5935272046804, 1.5: 2430.006302485732,
                                      math.inf: 423.02054141529084,
                                      1.0: 10609.655469556623}, rel=1e-12)

    def test_row_l1_ball_and_frozen_layer(self, rng):
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((1, 3))
        spec = rademacher.ClassSpec(template=make_net([w1, w2]), balls=(
            matlin.BallConstraint(matlin.ROWS_L1_MAX, 0.5), None))
        data = Dataset(points=rng.standard_normal((6, 4)))
        want = (math.sqrt(3) * 0.5 * np.linalg.norm(w2, 2)
                * np.linalg.norm(data.points, axis=1).mean())
        assert rademacher._value_cap(spec, data) == pytest.approx(want, rel=1e-12)

    def test_infeasible_candidate_exits_3(self, tmp_path, monkeypatch, capsys):
        net, data = _reference_net()
        paths = [str(tmp_path / "net.json"), str(tmp_path / "data.json")]
        save_network(net, paths[0])
        save_dataset(data, paths[1])
        argv = ["rademacher", "--network", paths[0], "--data", paths[1], "--p", "inf",
                "--samples", "2", "--restarts", "1", "--steps", "20"]
        assert cli.main(argv) == 0
        project = matlin.project_to_ball

        def doubled(w, c):
            out = project(w, c)
            return [2.0 * x for x in out] if isinstance(w, list) else 2.0 * out

        monkeypatch.setattr(matlin, "project_to_ball", doubled)
        capsys.readouterr()
        assert cli.main(argv) == 3
        assert "cap" in capsys.readouterr().err


class TestExactInnerSupremum:
    """Per sign vector the ascent stays below the exact inner supremum.

    The diagonal lower-bound class has it in closed form, scale times
    ||(eps @ buckets)_+||_q; a single-layer linear class under a Schatten
    ball (of a 1 x dim matrix, whose every Schatten norm is its l2 norm) has
    the l2 norm of (1/m) sum_i eps_i x_i times the radius.
    """

    # the smallest ascent/exact ratio over the configurations below, recorded
    # when the ascent still ran one sample and restart after another (the
    # stacked ascent gives the same bits); a better ascent raises it
    WORST_RATIO = 0.55868630089011

    def test_never_above_and_worst_ratio_kept(self):
        worst = math.inf
        for h, m, p in itertools.product((2, 4), (6, 12), (1.0, 1.5, 2.0, math.inf)):
            rng = np.random.default_rng([h, m, int(10 * min(p, 9.0))])
            eps = rng.choice([-1.0, 1.0], size=(6, m))
            cons, spec = lowerbound.build_diag(h=h, m=m, p=p, B=1.5, gamma=0.5,
                                               budgets=(1.2, 0.8))
            scale = cons.B * float(np.prod(cons.budgets)) / (cons.gamma * m)
            exact_diag = scale * lowerbound.positive_part_dual_norm(eps @ cons.bucket_matrix(), p)
            data = Dataset(points=rng.standard_normal((m, h)))
            radius = 1.7
            linear = rademacher.ClassSpec(
                template=Network(layers=(Layer(np.full((1, h), 0.1), None),), input_dim=h),
                balls=(matlin.BallConstraint(matlin.schatten(p), radius),))
            exact_linear = radius * np.linalg.norm(eps @ data.points, axis=1) / m
            for spec_, data_, exact in ((spec, cons.data, exact_diag),
                                        (linear, data, exact_linear)):
                vals, _ = rademacher.sup_ascent(eps, spec_, data_, restarts=3, steps=40,
                                                seed=list(range(6)))
                # 1e-9 relative, and the rounding of the objective's m-term
                # sum where the supremum is 0
                slack = m * np.finfo(float).eps * rademacher._value_cap(spec_, data_)
                assert np.all(vals <= exact * (1 + 1e-9) + slack), (h, m, p, vals, exact)
                pos = exact > 0
                worst = min(worst, float((vals[pos] / exact[pos]).min()))
        assert worst >= self.WORST_RATIO


class TestMcRademacher:
    def test_singleton_class_near_zero(self, rng):
        tpl = make_net([rng.standard_normal((1, 3))], [None])
        spec = rademacher.ClassSpec(template=tpl, balls=(None,))
        data = sphere_points(rng, 9, 3)
        est = rademacher.mc_rademacher(spec, data, epsilon_samples=48, restarts=1,
                                       steps=1, seed=11)
        assert abs(est.value) <= 3.0 * est.std_error + 1e-12

    def test_linear_class_matches_enumeration(self, rng):
        data = Dataset(points=rng.standard_normal((10, 3)))
        spec = linear_spec(3)
        est = rademacher.mc_rademacher(spec, data, epsilon_samples=64, restarts=2,
                                       steps=60, seed=5)
        exact = enumerate_linear_class_value(data.points)
        assert abs(est.value - exact) <= 3.0 * est.std_error
        assert est.method == "monte-carlo" and est.std_error > 0

    def test_deterministic_for_fixed_seed(self, rng):
        data = sphere_points(rng, 6, 2)
        spec = linear_spec(2)
        a = rademacher.mc_rademacher(spec, data, epsilon_samples=8, restarts=2,
                                     steps=30, seed=21)
        b = rademacher.mc_rademacher(spec, data, epsilon_samples=8, restarts=2,
                                     steps=30, seed=21)
        assert a == b

    def test_std_error_scaling(self):
        rng = np.random.default_rng(2)
        data = Dataset(points=rng.standard_normal((6, 2)))
        spec = linear_spec(2)
        ratios = []
        for s in range(10):
            small = rademacher.mc_rademacher(spec, data, epsilon_samples=16,
                                             restarts=1, steps=25, seed=100 + s)
            big = rademacher.mc_rademacher(spec, data, epsilon_samples=32,
                                           restarts=1, steps=25, seed=200 + s)
            ratios.append(small.std_error / big.std_error)
        mean_ratio = float(np.mean(ratios))
        assert math.sqrt(2) * 0.7 <= mean_ratio <= math.sqrt(2) * 1.3


class TestAscentAgainstAngleGrid:
    def test_two_layer_relu_class_vs_dense_direction_oracle(self):
        """For a width-1 hidden ReLU class the true supremum reduces to a
        1-D direction search; the ascent must stay below it (it is a lower
        bound) and recover it on most sign vectors."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 2))
        data = Dataset(points=x)
        r1, r2 = 1.3, 0.8
        tpl = Network(layers=(Layer(np.ones((1, 2)), "relu"),
                              Layer(np.ones((1, 1)), None)), input_dim=2)
        spec = rademacher.ClassSpec(template=tpl, balls=(
            matlin.BallConstraint(matlin.FROBENIUS, r1),
            matlin.BallConstraint(matlin.FROBENIUS, r2),
        ))
        thetas = np.linspace(0, 2 * np.pi, 2_000_001)
        h = np.maximum(x @ np.stack([np.cos(thetas), np.sin(thetas)], axis=1).T, 0.0)
        hits, got_sum, want_sum = 0, 0.0, 0.0
        for t in range(20):
            eps = np.random.default_rng(1000 + t).choice([-1.0, 1.0], size=7)
            oracle = r1 * r2 * float(np.abs(eps @ h).max()) / 7
            val, _ = rademacher.sup_ascent(eps, spec, data, restarts=8,
                                           steps=150, seed=t)
            assert val <= oracle * (1 + 1e-6)
            hits += abs(val - oracle) <= 1e-5 * oracle
            got_sum += val
            want_sum += oracle
        assert hits >= 14
        assert got_sum >= 0.97 * want_sum


class TestUltrathinEquivalence:
    def test_chain_class_matches_single_nonlinearity(self, rng):
        """A deep chain of one vector layer plus positive scalars estimates the
        same complexity as the one-nonlinearity class with the product budget."""
        dim, m, budget = 3, 8, 1.5
        data = sphere_points(rng, m, dim)
        per = budget ** 0.25
        v = rng.standard_normal(dim)
        v *= per / np.linalg.norm(v)
        chain_tpl = make_net([v[None, :], np.array([[per]]), np.array([[per]]),
                              np.array([[per]])])
        chain_spec = rademacher.ClassSpec(
            template=chain_tpl,
            balls=tuple(matlin.BallConstraint(matlin.FROBENIUS, per) for _ in range(4)))
        glm_tpl = make_net([v[None, :] * (budget / per), np.array([[1.0]])])
        glm_spec = rademacher.ClassSpec(
            template=glm_tpl,
            balls=(matlin.BallConstraint(matlin.FROBENIUS, budget), None))
        a = rademacher.mc_rademacher(chain_spec, data, epsilon_samples=24,
                                     restarts=3, steps=80, seed=31)
        c = rademacher.mc_rademacher(glm_spec, data, epsilon_samples=24,
                                     restarts=3, steps=80, seed=31)
        se = math.hypot(a.std_error, c.std_error)
        assert abs(a.value - c.value) <= 3.0 * max(se, 1e-12)


class TestBoundConsistency:
    def test_row_l1_class_below_its_bound(self, rng):
        m, dim = 10, 3
        data = Dataset(points=rng.standard_normal((m, dim)))
        radii = (1.0, 0.7)
        raw = [rng.standard_normal((2, dim)), rng.standard_normal((1, 2))]
        scaled = [w * (r / matlin.matrix_norm(w, matlin.ROWS_L1_MAX))
                  for w, r in zip(raw, radii)]
        tpl = make_net(scaled)
        spec = rademacher.ClassSpec(
            template=tpl,
            balls=tuple(matlin.BallConstraint(matlin.ROWS_L1_MAX, r) for r in radii))
        est = rademacher.mc_rademacher(spec, data, epsilon_samples=16,
                                       restarts=3, steps=100, seed=17)
        from capnet import bounds
        from capnet.network import profile
        cap = bounds.bound_row_l1_sqrt_depth(profile(tpl, 2.0), data)
        assert est.value <= cap


class TestContraction:
    def test_zero_class_frobenius(self):
        lhs, rhs = rademacher.check_contraction_frobenius(
            np.zeros((1, 4, 2)), R=1.0, lam=0.5, seed=0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0)

    def test_single_linear_function(self, rng):
        f = rng.standard_normal((1, 4, 3))
        lhs, rhs = rademacher.check_contraction_frobenius(f, R=1.0, lam=0.5, seed=1)
        assert lhs <= rhs * (1 + 1e-9)

    def test_rhs_scaling_identity(self, rng):
        # g(lam * 2R * z) = g((lam)(2R) z): rhs at (2R, lam/2) equals rhs at (R, lam)
        f = rng.standard_normal((2, 5, 2))
        _, rhs_a = rademacher.check_contraction_frobenius(f, R=1.0, lam=0.6, seed=2)
        _, rhs_b = rademacher.check_contraction_frobenius(f, R=2.0, lam=0.3, seed=2)
        assert rhs_b == pytest.approx(rhs_a, rel=1e-12)

    def test_zero_class_l1inf(self):
        lhs, rhs = rademacher.check_contraction_l1inf(
            np.zeros((1, 4, 2)), R=1.0, lam=0.5, seed=0)
        assert (lhs, rhs) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_coordinate_projection_function(self):
        f = np.zeros((1, 4, 3))
        f[0, :, 0] = [1.0, -1.0, 0.5, 2.0]
        lhs, rhs = rademacher.check_contraction_l1inf(f, R=1.0, lam=0.4, seed=3)
        assert lhs <= rhs * (1 + 1e-9)

    def test_identity_activation_gap_is_factor_two(self, rng):
        # for K = 1 and identity, the l1-ball sup is exactly R ||sum eps f||_inf
        # via the vertices, so lhs = rhs / 2
        f = rng.standard_normal((1, 5, 3))
        lhs, rhs = rademacher.check_contraction_l1inf(f, R=1.0, lam=0.5, seed=4,
                                                      activation="identity")
        assert rhs / lhs == pytest.approx(2.0, rel=1e-9)

    def test_nonhomogeneous_activation_allowed_only_for_l1inf(self, rng):
        f = rng.standard_normal((1, 4, 2))
        rademacher.check_contraction_l1inf(f, R=1.0, lam=0.5, seed=5,
                                           activation="clip1")
        with pytest.raises(ValueError):
            rademacher.check_contraction_frobenius(f, R=1.0, lam=0.5, seed=5,
                                                   activation="clip1")

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            rademacher.check_contraction_frobenius(np.zeros((1, 15, 2)), 1.0, 0.5)

    @pytest.mark.parametrize("name", ["frobenius", "l1inf"])
    def test_non_finite_f_values_rejected(self, name, rng):
        f = rng.standard_normal((2, 5, 3))
        f[1, 3, 0] = math.nan
        check = getattr(rademacher, f"check_contraction_{name}")
        with pytest.raises(ValueError, match="finite"):
            check(f, R=1.0, lam=0.5)

    @pytest.mark.parametrize("name", ["frobenius", "l1inf"])
    @pytest.mark.parametrize("R,lam", [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (1.0, -0.3),
                                       (math.inf, 0.5), (1.0, math.nan)])
    def test_parameters_outside_the_domain_rejected(self, name, R, lam):
        # R = -1 used to report a violated contraction; lam <= 0 makes
        # exp(lam z) non-increasing, where the peeling step does not apply
        f = np.random.default_rng(0).standard_normal((2, 5, 3))
        check = getattr(rademacher, f"check_contraction_{name}")
        with pytest.raises(ValueError, match="R > 0 and lam > 0"):
            check(f, R=R, lam=lam)

    # (lhs, rhs) recorded from the two separate harnesses the shared one
    # replaced, and the m = 8 case from the per-row l1 projection the batched
    # one replaced; f = default_rng(seed).standard_normal(shape), 32 directions
    @pytest.mark.parametrize("name,seed,activation,shape,R,lam,want", [
        ("frobenius", 0, "relu", (2, 6, 3), 1.3, 0.5,
         (9.974427897826025, 32.21484785436192)),
        ("frobenius", 1, "identity", (3, 5, 2), 0.8, 0.7,
         (10.230005290033922, 20.460010745642656)),
        ("frobenius", 2, "relu", (1, 7, 3), 1.7, 0.3,
         (7.1397479819626355, 17.456183478978332)),
        ("l1inf", 3, "relu", (2, 6, 3), 1.3, 0.5,
         (20.721603653258484, 87.47217841443191)),
        ("l1inf", 4, "identity", (3, 5, 2), 0.8, 0.7,
         (13.21478325544701, 26.42956651089402)),
        ("l1inf", 5, "clip1", (1, 7, 3), 1.7, 0.3,
         (3.486260253266397, 14.265970063715937)),
        # m = 8 is the largest m of the verify suite's instances
        ("l1inf", 6, "relu", (3, 8, 3), 1.1, 0.6,
         (21.449551580283405, 93.66658329275714)),
    ])
    def test_golden_values(self, name, seed, activation, shape, R, lam, want):
        f = np.random.default_rng(seed).standard_normal(shape)
        check = getattr(rademacher, f"check_contraction_{name}")
        got = check(f, R=R, lam=lam, direction_samples=32, seed=seed,
                    activation=activation)
        assert got == want

    @pytest.mark.parametrize("name,activation", [
        ("frobenius", "relu"), ("frobenius", "identity"),
        ("l1inf", "relu"), ("l1inf", "identity"), ("l1inf", "clip1"),
    ])
    @pytest.mark.parametrize("shape", [(1, 5, 3), (3, 6, 2),
                                       (1, rademacher.CONTRACTION_CAP, 2),
                                       (3, rademacher.CONTRACTION_CAP, 3)])
    def test_matches_per_function_loop(self, name, activation, shape, monkeypatch):
        # the K functions step as one stack; each must get the bits of its own loop
        f = np.random.default_rng(sum(shape)).standard_normal(shape)
        check = getattr(rademacher, f"check_contraction_{name}")
        args = dict(R=1.3, lam=0.4, direction_samples=24, seed=9, activation=activation)
        got = check(f, **args)
        monkeypatch.setattr(rademacher, "_check_contraction", check_contraction_per_function)
        assert got == check(f, **args)

    @pytest.mark.parametrize("name", ["frobenius", "l1inf"])
    @pytest.mark.parametrize("shape", [(0, 4, 2), (2, 0, 2), (2, 4, 0)])
    def test_empty_shape_rejected(self, name, shape):
        # K = 0 used to fail inside numpy; m = 0 or dim = 0 returned (1.0, 2.0)
        check = getattr(rademacher, f"check_contraction_{name}")
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            check(np.zeros(shape), R=1.0, lam=0.5)


class TestUnionBound:
    def test_single_class_no_additive_term(self, rng):
        v = rng.uniform(-1, 1, size=(5, 3))
        lhs, rhs = rademacher.check_union_bound([v], A=1.0, m=5)
        assert lhs == pytest.approx(rhs)

    def test_two_singleton_constants(self):
        a = 1.0
        classes = [np.full((2, 1), a), np.full((2, 1), -a)]
        lhs, rhs = rademacher.check_union_bound(classes, A=a, m=2)
        assert lhs == pytest.approx(0.5)  # A E|eps1 + eps2| / 2
        assert rhs == pytest.approx(2 * math.sqrt(2) * math.sqrt(math.log(2) / 2), rel=1e-12)

    def test_eight_random_classes(self, rng):
        classes = [np.clip(rng.standard_normal((10, int(rng.integers(1, 5)))), -2, 2)
                   for _ in range(8)]
        lhs, rhs = rademacher.check_union_bound(classes, A=2.0, m=10)
        assert lhs <= rhs

    def test_bound_violation_in_inputs(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            rademacher.check_union_bound([np.full((3, 1), 5.0)], A=1.0, m=3)

    def test_non_finite_class_rejected(self, rng):
        bad = rng.uniform(-1, 1, size=(4, 2))
        bad[0, 1] = math.nan
        with pytest.raises(ValueError, match="class 2 has non-finite"):
            rademacher.check_union_bound([rng.uniform(-1, 1, size=(4, 3)), bad], A=1.0, m=4)


class TestLipschitzCover:
    def test_member_count_example(self):
        cover = rademacher.build_lipschitz_cover(1.0, 0.5)
        assert cover.n_members == 81  # 3^4 on the grid {-1,-0.5,0,0.5,1}
        np.testing.assert_allclose(cover.grid, [-1, -0.5, 0, 0.5, 1])
        assert cover.n_members <= 3 ** (math.floor(2 / 0.5) + 1)

    def test_members_are_lipschitz_and_anchored(self):
        cover = rademacher.build_lipschitz_cover(1.0, 0.5)
        vals = cover.member_values()
        widths = np.diff(cover.grid)
        slopes = np.abs(np.diff(vals, axis=1)) / widths
        assert slopes.max() <= 1.0 + 1e-12
        at_zero = cover.values_on(np.array([0.0]))
        assert np.abs(at_zero).max() == 0.0

    def test_identity_and_zero_are_covered_exactly(self):
        cover = rademacher.build_lipschitz_cover(1.0, 0.5)
        vals = cover.values_on(cover.grid)
        for target in (cover.grid, np.zeros_like(cover.grid)):
            dist = np.abs(vals - target).max(axis=1).min()
            assert dist == 0.0

    def test_verify_cover_within_eps(self):
        cover = rademacher.build_lipschitz_cover(1.0, 0.25)
        worst = rademacher.verify_cover(cover, trials=200, seed=6)
        assert worst <= 0.25 * (1 + 1e-6)

    def test_halving_eps_nests_the_cover(self):
        coarse = rademacher.build_lipschitz_cover(1.0, 0.5)
        fine = rademacher.build_lipschitz_cover(1.0, 0.25)
        xs = np.linspace(-1, 1, 101)
        coarse_vals = coarse.values_on(xs)
        fine_vals = fine.values_on(xs)
        # every coarse member reappears in the finer cover
        for row in coarse_vals[:: max(1, len(coarse_vals) // 27)]:
            assert np.abs(fine_vals - row).max(axis=1).min() <= 1e-12

    def test_search_holds_no_member_table_on_the_fine_grid(self):
        # the 3^8 members' values on the 33 fine points alone take 1.65 MiB;
        # the search's own arrays (values at the 9 grid points, two 8-trial
        # block buffers, one member row, the trials) take 1.35 MiB
        cover = rademacher.build_lipschitz_cover(1.0, 0.25)
        assert traced_peak_mib(lambda: rademacher.verify_cover(cover, trials=200)) <= 1.5

    def test_shrinking_eps_never_increases_distance(self):
        coarse = rademacher.build_lipschitz_cover(1.0, 0.5)
        fine = rademacher.build_lipschitz_cover(1.0, 0.25)
        a = rademacher.verify_cover(coarse, trials=60, seed=8)
        b = rademacher.verify_cover(fine, trials=60, seed=8)
        assert b <= a + 1e-12

    def test_grid_size_refusal(self):
        with pytest.raises(ValueError, match="increase eps"):
            rademacher.build_lipschitz_cover(1.0, 0.05)

    @staticmethod
    def _outcome(search, cover, trials):
        try:
            return search(cover, trials, seed=11)
        except VerificationError as err:
            return str(err)

    # every (R, eps) of R in {0.5, 1, 1.7} and eps in {0.3, 2/3, 2R} but
    # R = 1.7, eps = 0.3, whose 3^12 members would take the chunked search minutes
    @pytest.mark.parametrize("trials", [1, 7, 200])
    @pytest.mark.parametrize("R,eps", [(0.5, 0.3), (0.5, 2 / 3), (0.5, 1.0),
                                       (1.0, 0.3), (1.0, 2 / 3), (1.0, 2.0),
                                       (1.7, 2 / 3), (1.7, 3.4)])
    def test_matches_chunked_search(self, R, eps, trials):
        cover = rademacher.build_lipschitz_cover(R, eps)
        got = self._outcome(rademacher.verify_cover, cover, trials)
        assert got == self._outcome(verify_cover_chunked, cover, trials)

    def test_too_coarse_cover_raises_in_both(self):
        # the 9 members of the eps = 1 grid, claimed to cover at eps = 0.25
        coarse = rademacher.build_lipschitz_cover(1.0, 1.0)
        cover = rademacher.LipschitzCover(R=1.0, eps=0.25, grid=coarse.grid,
                                          signs=coarse.signs)
        with pytest.raises(VerificationError, match="cover misses") as got:
            rademacher.verify_cover(cover, trials=50, seed=3)
        with pytest.raises(VerificationError) as want:
            verify_cover_chunked(cover, trials=50, seed=3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        cover = rademacher.build_lipschitz_cover(1.0, 0.5)
        with pytest.raises(ValueError, match=f"trials={trials}"):
            rademacher.verify_cover(cover, trials=trials)


class TestClassSpecDefaults:
    def test_none_becomes_one_entry_per_layer(self, rng):
        net = make_net([rng.standard_normal((3, 2)), rng.standard_normal((1, 3))])
        balls = tuple(matlin.BallConstraint(matlin.FROBENIUS, 1.0) for _ in net.layers)
        spec = rademacher.ClassSpec(template=net, balls=balls)
        assert spec.masks == (None, None)

    def test_mask_on_a_frozen_layer_is_refused(self, rng):
        # the ascent keeps a frozen layer at its template weights, so a mask
        # there could never hold
        net = make_net([rng.standard_normal((3, 2)), rng.standard_normal((1, 3))])
        ball = matlin.BallConstraint(matlin.FROBENIUS, 1.0)
        with pytest.raises(ValueError, match="frozen"):
            rademacher.ClassSpec(template=net, balls=(ball, None),
                                 masks=(None, np.ones((1, 3))))


class TestClassSpecMasks:
    """A mask is a 0/1 partial permutation of its layer's shape; anything
    else would be broadcast over the layer or would scale it, and the exact
    masked projection would not hold."""

    @staticmethod
    def _spec(mask):
        net = make_net([np.ones((4, 3)), np.ones((1, 4))])
        ball = matlin.BallConstraint(matlin.schatten(1.5), 1.0)
        return rademacher.ClassSpec(template=net, balls=(ball, ball), masks=(mask, None))

    @pytest.mark.parametrize("mask", [
        np.ones((1, 3)),               # broadcast over the rows
        np.eye(3),
        np.full((4, 3), 0.5),          # scales the layer
        -np.eye(4, 3),
        np.eye(4, 3)[[0, 1, 2, 2]],    # two entries in one column
        np.eye(3, 4).T[:, [0, 0, 1]],  # two entries in one row
        np.array(1.0),
    ], ids=["row", "square", "half", "negative", "two_in_a_column", "two_in_a_row", "scalar"])
    def test_refused(self, mask):
        with pytest.raises(ValueError, match=r"layer 0: a mask must be a 0/1 matrix of shape "
                                             r"\(4, 3\) with at most one 1 per row and per "
                                             "column"):
            self._spec(mask)

    def test_partial_permutations_accepted(self):
        # the empty mask, a permutation of the columns with an empty row, and
        # a boolean one
        for mask in (np.zeros((4, 3)), np.eye(4, 3)[[2, 0, 3, 1]], np.eye(4, 3, k=1) > 0):
            assert self._spec(mask).masks[0] is mask
        cons, spec = lowerbound.build_diag(h=3, m=6, p=1.5, B=2.0, gamma=0.5,
                                           budgets=(1.3, 0.7))
        assert spec.masks[0].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
