"""Acceptance gate: one test per criterion, at the stated tolerances and
time budgets.  Run with ``pytest tests/test_acceptance.py -v`` to get one
pass/fail line per criterion.
"""

import csv
import io
import math
import time

import mpmath
import numpy as np
import pytest

from capnet import bounds, compress, lowerbound, matlin, rademacher, verify
from capnet.cli import main
from capnet.network import Dataset, Layer, Network, profile
from conftest import make_net
from oracles import enumerate_linear_class_value

mpmath.mp.dps = 50


class _Budget:
    """Context manager asserting the criterion's wall-clock budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, \
                f"criterion exceeded its {self.limit}s budget ({self.elapsed:.1f}s)"
        return False


def _announce(n, label, budget):
    print(f"PASS criterion {n:2d}: {label} ({budget.elapsed:.2f}s)")


def test_criterion_01_norm_oracle_suite():
    with _Budget(10) as b:
        rng = np.random.default_rng(101)
        for i in range(200):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            w = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 4.0)
            res = matlin.svd(w)
            scale = max(float(np.linalg.norm(w)), 1e-300)
            assert np.linalg.norm(res.reconstruct() - w) <= 1e-10 * scale
            chain = [matlin.matrix_norm(w, matlin.schatten(p))
                     for p in (1.0, 1.5, 2.0, 4.0, 16.0)]
            chain.append(matlin.matrix_norm(w, matlin.SPECTRAL))
            for hi, lo in zip(chain, chain[1:]):
                assert hi >= lo - 1e-10
            q = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
            u = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
            for p in (1.0, 2.0, 4.0):
                a = matlin.matrix_norm(w, matlin.schatten(p))
                assert matlin.matrix_norm(q @ w @ u, matlin.schatten(p)) == \
                    pytest.approx(a, rel=1e-8)
    _announce(1, "norm oracle suite on 200 matrices", b)


def test_criterion_02_rank1_spectral_error():
    with _Budget(5) as b:
        rng = np.random.default_rng(102)
        for _ in range(100):
            w = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            _, err = matlin.rank1_approx(w)
            s = matlin.svd(w).singular
            assert err == pytest.approx(float(s[1]), abs=1e-9)
            spec = float(s[0])
            for p in (1.0, 2.0, 4.0):
                cap = (matlin.matrix_norm(w, matlin.schatten(p)) ** p - spec ** p)
                assert err <= max(cap, 0.0) ** (1.0 / p) + 1e-9
    _announce(2, "rank-1 error equals s2 and meets the Schatten cap", b)


def test_criterion_03_certificate_soundness():
    with _Budget(60) as b:
        rng = np.random.default_rng(103)
        for i in range(100):
            net = verify.random_net(rng, depth=int(rng.integers(1, 9)), max_width=8)
            r = int(rng.integers(1, net.depth + 1))
            compressed, cert = compress.rank1_replace(net, p=2.0, r=r, B=1.0)
            obs = compress.verify_certificate(net, compressed, cert, B=1.0,
                                              samples=1000, seed=1000 + i)
            assert obs <= cert.lemma_bound * (1 + 1e-6)
            assert obs <= cert.theorem_bound * (1 + 1e-6)
    _announce(3, "100 certificates sound at 1000 samples", b)


def test_criterion_04_factorization_identity():
    with _Budget(30) as b:
        rng = np.random.default_rng(104)
        for _ in range(50):
            net = verify.random_net(rng, depth=int(rng.integers(1, 7)), max_width=6)
            compressed, cert = compress.rank1_replace(net, p=2.0, r=net.depth, B=1.0)
            shallow, chain = compress.factor_compressed(compressed, cert.r_prime)
            x = rng.standard_normal((100, net.input_dim))
            from capnet.network import forward_batch
            direct = forward_batch(compressed, x)
            via = chain.batch(forward_batch(shallow, x)[:, 0])
            assert np.abs(direct - via).max() <= 1e-10 * max(1.0, np.abs(direct).max())
    _announce(4, "two-path factorization agrees on 100 x 50 evaluations", b)


def test_criterion_05_exact_constant_bounds():
    with _Budget(1) as b:
        prof1 = profile(make_net([np.array([[1.0]])], [None]), 2.0)
        data1 = Dataset(points=np.array([[1.0], [-1.0], [1.0], [-1.0]]))
        got = bounds.bound_frobenius_sqrt_depth(prof1, data1)
        want = float((mpmath.sqrt(2 * mpmath.log(2)) + 1) / 2)
        assert got == pytest.approx(want, rel=1e-12)

        prof2 = profile(make_net([np.array([[1.0]]), np.array([[1.0]])],
                                 ["identity", None]), 2.0)
        pts = np.zeros((4, 2))
        pts[:, 0] = 1.0
        got2 = bounds.bound_row_l1_sqrt_depth(prof2, Dataset(points=pts))
        want2 = float(mpmath.sqrt(3 + mpmath.log(2)))
        assert got2 == pytest.approx(want2, rel=1e-12)

        for d in range(2, 11):
            for mf in (0.5, 1.0, 2.0, 3.0):
                prof = profile(make_net([np.array([[mf]])] * d,
                                        ["identity"] * (d - 1) + [None]), 2.0)
                weak = bounds.bound_frobenius_sqrt_depth_weak(prof, 1.0, 25)
                assert weak <= bounds.bound_frobenius_exp_depth(prof, 1.0, 25)
    _announce(5, "exact-constant values match 50-digit evaluation", b)


def test_criterion_06_estimator_consistency():
    with _Budget(120) as b:
        rng = np.random.default_rng(106)
        pts = rng.standard_normal((10, 3))
        data = Dataset(points=pts)
        tpl = Network(layers=(Layer(np.full((1, 3), 0.1), None),), input_dim=3)
        spec = rademacher.ClassSpec(
            template=tpl,
            balls=(matlin.BallConstraint(matlin.FROBENIUS, 1.0),))
        est = rademacher.mc_rademacher(spec, data, epsilon_samples=64,
                                       restarts=2, steps=60, seed=106)
        exact = enumerate_linear_class_value(pts)
        assert abs(est.value - exact) <= 3.0 * est.std_error

        # Frobenius-constrained ReLU class stays below the sqrt-depth bound
        m = 12
        relu_data = Dataset(points=rng.standard_normal((m, 3)))
        raw = [rng.standard_normal((3, 3)), rng.standard_normal((1, 3))]
        radii = (1.2, 0.8)
        scaled = [w * (r / matlin.matrix_norm(w, matlin.FROBENIUS))
                  for w, r in zip(raw, radii)]
        tpl2 = make_net(scaled)
        spec2 = rademacher.ClassSpec(
            template=tpl2,
            balls=tuple(matlin.BallConstraint(matlin.FROBENIUS, r) for r in radii))
        est2 = rademacher.mc_rademacher(spec2, relu_data, epsilon_samples=24,
                                        restarts=3, steps=120, seed=206)
        cap = bounds.bound_frobenius_sqrt_depth(profile(tpl2, 2.0), relu_data)
        assert est2.value <= cap
        # a dense finite sub-class, evaluated exactly, stays below it too
        cols = []
        for k in range(60):
            sub_rng = np.random.default_rng(306 + k)
            ws = [matlin.project_to_ball(sub_rng.standard_normal(w.shape) * r,
                                         matlin.BallConstraint(matlin.FROBENIUS, r))
                  for w, r in zip(scaled, radii)]
            sub = make_net(ws)
            from capnet.network import forward_batch
            cols.append(forward_batch(sub, relu_data.points)[:, 0])
        finite = rademacher.exact_rademacher(np.stack(cols, axis=1))
        assert finite.value <= cap
    _announce(6, "MC matches enumeration within 3 SE and respects the bound", b)


def test_criterion_07_contraction_harnesses():
    with _Budget(60) as b:
        rng = np.random.default_rng(107)
        for checker, tags in (
            (rademacher.check_contraction_frobenius, ("relu", "identity")),
            (rademacher.check_contraction_l1inf, ("relu", "identity", "clip1")),
        ):
            for i in range(50):
                f = rng.standard_normal((int(rng.integers(1, 4)),
                                         int(rng.integers(3, 9)),
                                         int(rng.integers(2, 4))))
                lhs, rhs = checker(f, R=float(rng.uniform(0.5, 2.0)),
                                   lam=float(rng.uniform(0.1, 0.8)),
                                   direction_samples=48, seed=107 + i,
                                   activation=tags[i % len(tags)])
                # rhs already carries the contraction step's factor 2
                assert lhs <= 2.0 * (rhs / 2.0) * (1 + 1e-9)
    _announce(7, "both contraction harnesses pass 50 instances each", b)


def test_criterion_08_union_lemma():
    with _Budget(30) as b:
        rng = np.random.default_rng(108)
        for _ in range(50):
            m = int(rng.integers(2, 11))
            r = int(rng.integers(1, 9))
            a = float(rng.uniform(0.5, 3.0))
            classes = [np.clip(rng.standard_normal((m, int(rng.integers(1, 6)))) * a,
                               -a, a) for _ in range(r)]
            lhs, rhs = rademacher.check_union_bound(classes, A=a, m=m)
            assert lhs <= max(rademacher.exact_rademacher(v).value for v in classes) \
                + 2.0 * math.sqrt(2.0) * a * math.sqrt(math.log(r)) / math.sqrt(m) + 1e-12
    _announce(8, "union lemma with the explicit 2*sqrt(2) constant, 50 instances", b)


def test_criterion_09_cover_construction():
    with _Budget(30) as b:
        for eps in (0.5, 0.25):
            cover = rademacher.build_lipschitz_cover(1.0, eps)
            assert cover.n_members <= 3 ** (math.floor(2.0 / eps) + 1)
            worst = rademacher.verify_cover(cover, trials=200, seed=109)
            assert worst <= eps * (1 + 1e-6)
    _announce(9, "cover cardinality cap and 200-function covering radius", b)


def test_criterion_10_lower_bound_demonstration():
    with _Budget(60) as b:
        rows = lowerbound.demonstrate_lower_bound(
            h_grid=(2, 4, 8), m_grid=(8, 16), p_grid=(1.0, 2.0, math.inf), seed=110)
        assert len(rows) == 18
        for row in rows:
            assert 0.2 <= row["ratio"] <= 2.0
            if row["p"] == 2.0:
                assert 0.6 <= row["scalar_value"] / row["bound_lower"] <= 1.0
    _announce(10, "construction/floor ratios inside [0.2, 2.0] (exact)", b)


def test_criterion_11_depth_independence_sweep(tmp_path, capsys):
    with _Budget(5) as b:
        out = tmp_path / "sweep.csv"
        depths = ",".join(str(d) for d in range(2, 65))
        code = main(["sweep", "--depths", depths, "--m", "16", "--product", "1",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        body = list(csv.reader(io.StringIO(out.read_text())))[1:]
        assert len(body) == 63
        ney = [float(r[1]) for r in body]
        for a, bb in zip(ney, ney[1:]):
            assert bb / a == 2.0  # exactly x2 per appended layer
        sqd = [float(r[2]) for r in body]
        for i, (a, bb) in enumerate(zip(sqd, sqd[1:])):
            d0, d1 = i + 2, i + 3
            want = (math.sqrt(2 * math.log(2) * d1) + 1) / \
                (math.sqrt(2 * math.log(2) * d0) + 1)
            assert bb / a == pytest.approx(want, rel=1e-12)
        free = [float(r[3]) for r in body]
        m = 16
        active = [v for d, v in zip(range(2, 65), free)
                  if bounds.logbar(m) ** 0.75 / m ** 0.25 < math.sqrt(d / m)]
        assert active and max(active) - min(active) < 1e-9
    _announce(11, "sweep CSV: x2 growth, sqrt-depth ratios, depth-free plateau", b)


def test_criterion_12_r_tuner_scan():
    # the closed-form cap is checked wherever it is a theorem (c <= b n);
    # every grid violation must sit in the corner where the source inequality
    # is itself false (see the frozen counterexample in test_bounds)
    with _Budget(5) as b:
        for alpha in (0.5, 1.5):
            for beta in (0.25, 1.0):
                for bb in (1.0, 10.0, 100.0):
                    for c in (1.0, 10.0, 100.0):
                        for n in (1.0, 10.0, 100.0, 1000.0):
                            for d in (1, 10, 50):
                                res = bounds.tune_r(alpha, beta, bb, c, n, d)
                                cap = min(3.0 * bb ** (alpha / (alpha + beta))
                                          / (n / c) ** (beta / (alpha + beta)),
                                          d ** alpha / n)
                                if c <= bb * n:
                                    assert res.value <= cap * (1 + 1e-12)
                                elif res.value > cap * (1 + 1e-12):
                                    assert c > bb * n  # confined to the bad corner
    _announce(12, "r-tuner scan meets the closed-form cap on its domain", b)


def test_criterion_13_cli_determinism(tmp_path, capsys, monkeypatch):
    with _Budget(60) as b:
        rng = np.random.default_rng(113)
        net = make_net([rng.standard_normal((2, 3)), rng.standard_normal((1, 2))])
        from capnet.network import save_dataset, save_network
        net_path = tmp_path / "net.json"
        data_path = tmp_path / "data.json"
        save_network(net, str(net_path))
        save_dataset(Dataset(points=rng.standard_normal((6, 3))), str(data_path))

        commands = {
            "report": ["report", "--network", str(net_path), "--data", str(data_path),
                       "--format", "csv", "--seed", "42"],
            "compress": ["compress", "--network", str(net_path), "--data",
                         str(data_path), "--r", "2", "--samples", "50",
                         "--seed", "42"],
            "rademacher": ["rademacher", "--network", str(net_path), "--data",
                           str(data_path), "--samples", "3", "--restarts", "1",
                           "--steps", "20", "--seed", "42", "--format", "csv"],
            "lowerbound": ["lowerbound", "--h-grid", "2", "--m-grid", "8",
                           "--p-grid", "1,2", "--seed", "42"],
            "sweep": ["sweep", "--depths", "2,3", "--m", "8", "--samples", "2",
                      "--restarts", "1", "--steps", "20", "--seed", "42"],
            "verify": ["verify", "--suite", "union"],
        }
        for name, argv in commands.items():
            outputs = []
            for threads in ("1", "4"):
                monkeypatch.setenv("CAPNET_THREADS", threads)
                for _ in range(2):
                    if name in ("report", "lowerbound", "sweep", "rademacher"):
                        out = tmp_path / f"{name}.out"
                        code = main(argv + ["--out", str(out)])
                        capsys.readouterr()
                        assert code == 0
                        outputs.append(out.read_bytes())
                    else:
                        code = main(argv)
                        captured = capsys.readouterr()
                        assert code == 0
                        outputs.append(captured.out.encode())
            assert all(blob == outputs[0] for blob in outputs), \
                f"{name} output varies across reruns or thread caps"
    _announce(13, "all six commands bit-identical across reruns and thread caps", b)
