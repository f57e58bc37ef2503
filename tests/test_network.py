import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet import matlin, verify
from capnet.errors import ParseError, ShapeError
from capnet.network import (Dataset, Layer, Network, NormProfile, dataset_from_obj,
                            dataset_to_obj, forward, forward_batch,
                            lipschitz_product, load_network, network_from_obj,
                            network_to_obj, profile, save_network, sub_forward)
from conftest import make_net, sphere_points


class TestForward:
    def test_identity_relu_clips(self):
        net = make_net([np.eye(2), np.eye(2)])
        np.testing.assert_allclose(forward(net, [1.0, -1.0]), [1.0, 0.0])

    def test_max_to_scalar_then_scale(self):
        net = make_net([np.eye(2), np.array([[2.0]])], ["max_to_scalar", None])
        np.testing.assert_allclose(forward(net, [0.5, -1.0]), [1.0])

    def test_positive_homogeneity(self, rng):
        for _ in range(10):
            net = make_net([rng.standard_normal((3, 4)), rng.standard_normal((2, 3))])
            x = rng.standard_normal(4)
            np.testing.assert_allclose(
                forward(net, 2.0 * x), 2.0 * forward(net, x), atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 8.0))
    def test_homogeneity_in_alpha(self, alpha):
        rng = np.random.default_rng(3)
        net = make_net([rng.standard_normal((3, 3)),
                        rng.standard_normal((1, 1))],
                       ["max_to_scalar", None])
        x = rng.standard_normal(3)
        got = forward(net, alpha * x)
        want = alpha * forward(net, x)
        np.testing.assert_allclose(got, want, atol=1e-9 * max(1.0, abs(alpha)))

    def test_dimension_error_names_layer(self):
        net = make_net([np.eye(2), np.eye(2)])
        with pytest.raises(ShapeError, match="layer 1"):
            forward(net, [1.0, 2.0, 3.0])

    def test_forward_deterministic(self, rng):
        net = make_net([rng.standard_normal((4, 4)), rng.standard_normal((1, 4))])
        x = rng.standard_normal(4)
        a, b = forward(net, x), forward(net, x.copy())
        assert np.array_equal(a, b)


class TestSubForward:
    def test_full_range_equals_forward(self, rng):
        net = make_net([rng.standard_normal((3, 2)), rng.standard_normal((3, 3)),
                        rng.standard_normal((1, 3))])
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(sub_forward(net, 1, net.depth, x), forward(net, x))

    def test_composition_identity(self, rng):
        net = make_net([rng.standard_normal((4, 3)), rng.standard_normal((4, 4)),
                        rng.standard_normal((2, 4))])
        x = rng.standard_normal(3)
        full = forward(net, x)
        for r in range(1, net.depth):
            head = sub_forward(net, 1, r, x)
            act = net.layers[r - 1].activation
            squashed = np.maximum(head, 0.0) if act == "relu" else head
            np.testing.assert_allclose(
                sub_forward(net, r + 1, net.depth, squashed), full, atol=1e-12)

    def test_single_layer(self, rng):
        w = rng.standard_normal((3, 2))
        net = make_net([w, rng.standard_normal((1, 3))])
        x = rng.standard_normal(2)
        np.testing.assert_allclose(sub_forward(net, 1, 1, x), w @ x)

    def test_range_validation(self, rng):
        net = make_net([rng.standard_normal((2, 2))])
        with pytest.raises(ShapeError):
            sub_forward(net, 1, 2, [0.0, 0.0])


class TestLipschitz:
    def test_orthogonal_layers(self):
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        net = make_net([q, q])
        assert lipschitz_product(net) == pytest.approx(1.0)

    def test_diagonal_chain(self):
        net = make_net([np.diag([2.0, 2.0]), np.diag([3.0, 3.0])])
        assert lipschitz_product(net) == pytest.approx(6.0)

    def test_sampled_lipschitz_bound(self, rng):
        net = make_net([rng.standard_normal((4, 3)), rng.standard_normal((4, 4)),
                        rng.standard_normal((1, 4))])
        lip = lipschitz_product(net)
        xs = rng.standard_normal((1000, 3))
        ys = rng.standard_normal((1000, 3))
        fx, fy = forward_batch(net, xs), forward_batch(net, ys)
        num = np.linalg.norm(fx - fy, axis=1)
        den = np.linalg.norm(xs - ys, axis=1)
        assert np.all(num <= lip * den * (1 + 1e-9))

    def test_global_output_bound(self, rng):
        net = make_net([rng.standard_normal((4, 3)), rng.standard_normal((2, 4))])
        data = sphere_points(rng, 50, 3, radius=1.7)
        gamma = profile(net).gamma
        out = forward_batch(net, data.points)
        assert np.linalg.norm(out, axis=1).max() <= data.radius * gamma * (1 + 1e-9)


class TestProfile:
    def test_identity_layers(self):
        net = make_net([np.eye(2), np.eye(2)])
        prof = profile(net, 2.0)
        assert prof.gamma == pytest.approx(1.0)
        assert prof.frobenius_product == pytest.approx(2.0)
        assert prof.rows_l2_sum == (2.0, 2.0)
        assert prof.ratio_max == pytest.approx(2.0)

    def test_diagonal_gamma(self):
        net = make_net([np.diag([2.0, 2.0]), np.diag([3.0, 3.0])])
        assert profile(net).gamma == pytest.approx(6.0)

    def test_gamma_below_schatten_product(self, rng):
        for _ in range(100):
            net = make_net([rng.standard_normal((3, 3)), rng.standard_normal((1, 3))])
            for p in (1.0, 2.0, 4.0, math.inf):
                prof = profile(net, p)
                assert prof.gamma <= prof.schatten_product * (1 + 1e-12)
            assert profile(net).ratio_max >= 1.0 - 1e-12

    def test_zero_layer_degenerate_flag(self):
        net = make_net([np.zeros((2, 2)), np.eye(2)])
        prof = profile(net)
        assert prof.degenerate and prof.ratio_max is None

    @staticmethod
    def reference_net():
        return verify.random_net(np.random.default_rng(0), depth=4, max_width=8,
                                 scalar_output=True, input_dim=6)

    # recorded when profile still took one SVD per norm; the shared
    # singular values must give the same bits
    SPECTRAL = (4.479347570897033, 4.193250087159556, 3.4324965737358815,
                2.2881193598628533)
    FROBENIUS = (5.585200916685899, 6.929322672401062, 5.134139485156482,
                 2.288119359862853)
    ROWS_L2_SUM = (14.056309799911213, 16.798863996776294, 10.926957717573549,
                   2.288119359862853)
    ROWS_L1_MAX = (7.177582746608005, 7.470776490112105, 6.181233862210781,
                   4.943260676379847)

    @pytest.mark.parametrize("p,schatten,schatten_product", [
        (1.5, (6.801138253175994, 8.880299503373829, 6.236489460773552,
               2.2881193598628533), 861.8428541071866),
        (2.0, (5.585200916685899, 6.929322672401063, 5.134139485156481,
               2.2881193598628533), 454.64867010981925),
        (math.inf, SPECTRAL, 147.5211588185282),
    ])
    def test_golden_reference_profile(self, p, schatten, schatten_product):
        got = profile(self.reference_net(), p)
        want = NormProfile(
            p=p, spectral=self.SPECTRAL, frobenius=self.FROBENIUS, schatten=schatten,
            rows_l2_sum=self.ROWS_L2_SUM, rows_l1_max=self.ROWS_L1_MAX,
            gamma=147.5211588185282, schatten_product=schatten_product,
            frobenius_product=454.64867010981925, ratio_max=4.006167924068557,
            degenerate=False,
        )
        assert got == want

    def test_one_svd_per_shape(self, monkeypatch):
        calls = []
        real = matlin.singular_values

        def counting(w):
            calls.append(w.shape)
            return real(w)

        monkeypatch.setattr(matlin, "singular_values", counting)
        monkeypatch.setattr(matlin, "svd", None)  # profile must not need the factors
        ref = self.reference_net()
        wide, square = np.ones((3, 2)), np.eye(3)
        repeated = make_net([wide, square, square, wide.T, wide, wide.T, np.ones((1, 2))])
        for net, want in ((ref, [(1, *l.weight.shape) for l in ref.layers]),
                          (repeated, [(2, 3, 2), (2, 3, 3), (2, 2, 3), (1, 1, 2)])):
            for p in (1.5, 2.0, math.inf):
                calls.clear()
                profile(net, p)
                assert calls == want

    @staticmethod
    def _oracle_nets():
        """400 random nets of depth 1-12 with repeated shapes, the 300-layer
        1x1 chain and nets with a zero layer."""
        rng = np.random.default_rng(2025)
        for case in range(400):
            depth = int(rng.integers(1, 13))
            widths = rng.integers(1, 4 if case % 2 else 9, size=depth + 1)
            scale = 10.0 ** rng.uniform(-3, 3)
            weights = [rng.standard_normal((widths[j + 1], widths[j])) * scale
                       for j in range(depth)]
            if case % 7 == 0:
                weights[int(rng.integers(depth))] *= 0.0
            yield make_net(weights)
        yield make_net([np.array([[1.0]])] * 300, ["identity"] * 299 + [None])
        yield make_net([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.ones((1, 2))])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 64.0, math.inf])
    def test_matches_per_layer_loop(self, p):
        from oracles import profile_per_layer
        for net in self._oracle_nets():
            got, want = profile(net, p), profile_per_layer(net, p)
            for field in dataclasses.fields(NormProfile):
                assert getattr(got, field.name) == getattr(want, field.name), \
                    (field.name, [l.weight.shape for l in net.layers])


class TestValidation:
    def test_final_activation_rejected(self):
        with pytest.raises(ShapeError):
            Network(layers=(Layer(np.eye(2), "relu"),), input_dim=2)

    def test_missing_hidden_activation_rejected(self):
        with pytest.raises(ShapeError):
            Network(layers=(Layer(np.eye(2), None), Layer(np.eye(2), None)), input_dim=2)

    def test_max_to_scalar_needs_scalar_successor(self):
        with pytest.raises(ShapeError):
            Network(layers=(Layer(np.eye(2), "max_to_scalar"),
                            Layer(np.eye(2), None)), input_dim=2)

    def test_chain_mismatch(self):
        with pytest.raises(ShapeError, match="layer 2"):
            Network(layers=(Layer(np.eye(2), "relu"),
                            Layer(np.ones((1, 3)), None)), input_dim=2)

    def test_dataset_invariants(self):
        d = Dataset(points=np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert d.radius == pytest.approx(5.0)
        with pytest.raises(ParseError):
            Dataset(points=np.array([[np.inf, 0.0]]))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = make_net([rng.standard_normal((3, 4)) * 1e3,
                        rng.standard_normal((3, 3)),
                        rng.standard_normal((1, 1)) * 1e-7],
                       ["relu", "max_to_scalar", None])
        path = tmp_path / "net.json"
        save_network(net, str(path))
        loaded = load_network(str(path))
        assert loaded.input_dim == net.input_dim
        for a, b in zip(loaded.layers, net.layers):
            assert np.array_equal(a.weight, b.weight)
            assert a.activation == b.activation

    def test_dataset_round_trip(self, rng):
        d = Dataset(points=rng.standard_normal((5, 3)))
        again = dataset_from_obj(dataset_to_obj(d))
        assert np.array_equal(again.points, d.points)

    def test_unknown_field_rejected(self):
        obj = network_to_obj(make_net([np.eye(2)], [None]))
        obj["extra"] = 1
        with pytest.raises(ParseError, match="unknown"):
            network_from_obj(obj)

    def test_activation_on_final_layer_rejected(self):
        obj = network_to_obj(make_net([np.eye(2)], [None]))
        obj["layers"][0]["activation"] = "relu"
        with pytest.raises(ParseError, match="unknown field"):
            network_from_obj(obj)

    def test_wrong_data_length_rejected(self):
        obj = network_to_obj(make_net([np.eye(2)], [None]))
        obj["layers"][0]["data"] = [1.0, 0.0, 0.0]
        with pytest.raises(ParseError, match="rows\\*cols"):
            network_from_obj(obj)

    def test_nonfinite_entry_rejected(self):
        obj = network_to_obj(make_net([np.eye(2)], [None]))
        obj["layers"][0]["data"][0] = float("nan")
        with pytest.raises(ParseError, match="finite"):
            network_from_obj(obj)

    def test_missing_activation_on_hidden_layer_rejected(self):
        obj = network_to_obj(make_net([np.eye(2), np.eye(2)]))
        del obj["layers"][0]["activation"]
        with pytest.raises(ParseError, match="missing"):
            network_from_obj(obj)

    def test_ragged_dataset_rejected(self):
        with pytest.raises(ParseError, match="point 2"):
            dataset_from_obj({"points": [[1.0, 2.0], [1.0]]})

    def test_bad_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ParseError, match="broken.json"):
            load_network(str(path))


class TestSpherePoints:
    @pytest.mark.parametrize("dim, count", [(0, 3), (-1, 3), (2, -1)])
    def test_bad_sizes_rejected(self, dim, count):
        from capnet.network import sphere_points as draw
        with pytest.raises(ValueError, match="dimension >= 1 and count >= 0"):
            draw(dim, count, seed=0)

    def test_zero_count_is_empty(self):
        from capnet.network import sphere_points as draw
        assert draw(3, 0, seed=0).shape == (0, 3)

    @staticmethod
    def _cases():
        """300 seeded (dim, count, seed, key) draws: seeds of one, two and three
        or more 32-bit words, keys of 0-3 words with some at or above 2**32."""
        rng = np.random.default_rng(2024)
        seed_ranges = [(0, 1 << 32), (1 << 32, 1 << 64), (1 << 64, 1 << 96)]
        for case in range(300):
            lo, hi = seed_ranges[case % 3]
            seed = lo + int.from_bytes(rng.bytes(12), "little") % (hi - lo)
            key = tuple(int(rng.integers(0, 1 << 32)) << (32 * int(rng.integers(0, 2)))
                        for _ in range(int(rng.integers(0, 4))))
            yield int(rng.integers(1, 17)), int(rng.integers(0, 201)), seed, key

    def test_matches_per_point_generators(self):
        from capnet.network import sphere_points as draw
        from oracles import sphere_points_per_point
        for dim, count, seed, key in self._cases():
            got = draw(dim, count, seed, key)
            assert np.array_equal(got, sphere_points_per_point(dim, count, seed, key)), \
                (dim, count, seed, key)

    def test_raw_words_are_numpys(self):
        from capnet.network import _index_words, _pcg64_raw
        for dim, count, seed, key in self._cases():
            got = _pcg64_raw(_index_words(seed, key, count), dim)
            want = [np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(*key, i)))
                    .random_raw(dim) for i in range(count)]
            assert np.array_equal(got, np.reshape(want, (count, dim))), (dim, count, seed, key)

    def test_every_point_through_numpys_generator(self, monkeypatch):
        # every bound 0: no draw takes the vectorised fast path
        from capnet import network
        from oracles import sphere_points_per_point
        wi, _ = network._ziggurat()
        monkeypatch.setattr(network, "_ziggurat", lambda: (wi, np.zeros(256, np.uint64)))
        for dim, count, seed, key in self._cases():
            assert np.array_equal(network.sphere_points(dim, count, seed, key),
                                  sphere_points_per_point(dim, count, seed, key)), \
                (dim, count, seed, key)

    def test_tables_read_every_layer_but_one(self):
        # numpy's layer 1 never takes the fast path; every other layer must, or
        # its draws all go through numpy's generator
        from capnet.network import _ziggurat
        wi, bound = _ziggurat()
        assert list(np.flatnonzero(bound == 0)) == [1]
        assert np.all(wi[bound > 0] > 0) and np.all(bound < 1 << 52)

    @pytest.mark.parametrize("dim, count, block_words", [
        (16, 2 * 4096 + 7, None),  # three blocks of the default size, the last partial
        (6, 13, 4),  # fewer words per block than one point: a point per block
    ])
    def test_count_spanning_several_blocks(self, dim, count, block_words, monkeypatch):
        from capnet import network
        from oracles import sphere_points_per_point
        if block_words:
            monkeypatch.setattr(network, "_SPHERE_BLOCK_WORDS", block_words)
        assert count > network._SPHERE_BLOCK_WORDS // dim * 2
        assert np.array_equal(network.sphere_points(dim, count, 11, (4,)),
                              sphere_points_per_point(dim, count, 11, (4,)))

    def test_dim_64_mostly_falls_back(self):
        # the vectorised pass still gives numpy's normals where most points
        # leave its fast path; sphere_points itself draws them per point there
        from capnet import network
        from oracles import sphere_points_per_point
        words = network._index_words(3, (9,), 400)
        raw = network._pcg64_raw(words, 64)
        _, bound = network._ziggurat()
        fast = ((raw >> np.uint64(9) & np.uint64((1 << 52) - 1))
                < bound[(raw & np.uint64(0xFF)).astype(np.intp)]).all(axis=1)
        assert 0 < fast.sum() < 200
        normals = np.empty((400, 64))
        network._fast_normals(words, normals)
        assert np.array_equal(normals, [network._rng(3, 9, i).standard_normal(64)
                                        for i in range(400)])
        assert np.array_equal(network.sphere_points(64, 400, 3, (9,)),
                              sphere_points_per_point(64, 400, 3, (9,)))

    def test_either_side_of_the_vectorised_dimensions(self):
        from capnet import network
        from oracles import sphere_points_per_point
        for dim in (network._FAST_NORMALS_MAX_DIM, network._FAST_NORMALS_MAX_DIM + 1):
            assert np.array_equal(network.sphere_points(dim, 300, 5, (2,)),
                                  sphere_points_per_point(dim, 300, 5, (2,))), dim

    def test_wrong_pcg64_multiplier_raises(self, monkeypatch):
        from capnet import network
        from capnet.errors import NumericalError
        monkeypatch.setattr(network, "_PCG_MULT", network._PCG_MULT ^ 2)
        with pytest.raises(NumericalError, match=f"{np.__version__}'s PCG64"):
            network.sphere_points(3, 5, seed=7)

    @pytest.mark.parametrize("seed, block_words", [
        (7, None),  # index 0 takes the fast path
        (4, None),  # index 0 falls back to numpy's generator, index 1 does not
        (4, 3),  # ... and index 1 is in the second block
    ])
    def test_wrong_ziggurat_width_raises(self, seed, block_words, monkeypatch):
        # the first point that takes the fast path is checked against numpy
        from capnet import network
        from capnet.errors import NumericalError
        if block_words:
            monkeypatch.setattr(network, "_SPHERE_BLOCK_WORDS", block_words)
        wi, bound = network._ziggurat()
        monkeypatch.setattr(network, "_ziggurat", lambda: (wi * 2, bound))
        with pytest.raises(NumericalError, match=f"{np.__version__}'s standard_normal"):
            network.sphere_points(3, 5, seed=seed)

    def test_every_stream_state_is_numpys(self):
        from capnet.network import _index_streams, _rng
        for dim, count, seed, key in self._cases():
            for i, gen in enumerate(_index_streams(seed, key, count)):
                assert gen.bit_generator.state == _rng(seed, *key, i).bit_generator.state, \
                    (seed, key, i)

    def test_a_yielded_generator_outlives_the_next(self):
        from capnet.network import _index_streams, _rng
        streams = _index_streams(5, (1,), 3)
        first, second = next(streams), next(streams)
        assert first is not second
        assert first.bit_generator.state == _rng(5, 1, 0).bit_generator.state

    def test_importing_the_cli_leaves_numpy_random_unimported(self):
        # the seed words reach PCG64 through an ISeedSequence subclass built
        # only when streams are first drawn; numpy 1.x imports
        # numpy.random with numpy itself, so the check is against that
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import capnet.cli; print(before, 'numpy.random' in sys.modules)")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(matlin.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before

    def test_index_beyond_one_hash_word_rejected(self):
        # an index >= 2**32 is two SeedSequence words, which the pass does not hash
        from capnet.network import _index_streams
        with pytest.raises(ValueError, match="2\\*\\*32"):
            next(_index_streams(0, (), (1 << 32) + 1))

    def test_wrong_hash_constant_raises(self, monkeypatch):
        from capnet import network
        from capnet.errors import NumericalError
        monkeypatch.setattr(network, "_MULT_A", network._MULT_A ^ 1)
        with pytest.raises(NumericalError, match=np.__version__):
            network.sphere_points(3, 5, seed=7)
