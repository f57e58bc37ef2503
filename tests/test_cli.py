import argparse
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from capnet import bounds, matlin, verify
from capnet.cli import build_parser, main
from capnet.network import (Dataset, load_network, profile, save_dataset,
                            save_network)
from conftest import make_net


@pytest.fixture
def inputs(tmp_path, rng):
    net = make_net([np.eye(2), np.eye(2)])
    data = Dataset(points=np.array([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]]))
    net_path = tmp_path / "net.json"
    data_path = tmp_path / "data.json"
    save_network(net, str(net_path))
    save_dataset(data, str(data_path))
    return str(net_path), str(data_path), net, data


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_identity_net_values(self, inputs, capsys, tmp_path):
        net_path, data_path, net, data = inputs
        out = tmp_path / "report.csv"
        code, _, _ = run(["report", "--network", net_path, "--data", data_path,
                          "--format", "csv", "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["name", "value", "exact_constants", "citation"]
        byname = {r[0]: r for r in rows[1:]}
        prof = profile(net, 2.0)
        want = bounds.bound_frobenius_exp_depth(prof, data.radius, data.m)
        assert float(byname["frobenius-exp-depth"][1]) == pytest.approx(want)
        want2 = bounds.bound_frobenius_sqrt_depth(prof, data)
        assert float(byname["frobenius-sqrt-depth"][1]) == pytest.approx(want2)

    def test_missing_file_exit_2_names_path(self, capsys, tmp_path):
        bogus = str(tmp_path / "nope.json")
        code, _, err = run(["report", "--network", bogus, "--data", bogus], capsys)
        assert code == 2
        assert "nope.json" in err

    def test_csv_roundtrips_at_17_digits(self, inputs, capsys, tmp_path):
        net_path, data_path, _, _ = inputs
        out = tmp_path / "r.csv"
        run(["report", "--network", net_path, "--data", data_path,
             "--format", "csv", "--out", str(out)], capsys)
        for row in list(csv.reader(io.StringIO(out.read_text())))[1:]:
            if row[1] != "inapplicable":
                assert format(float(row[1]), ".17g") == row[1]

    def test_usage_error_exit_1(self, capsys):
        code = main(["report"])  # missing required --network
        capsys.readouterr()
        assert code == 1

    def test_bad_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"points": [[1.0]]}))
        code, _, err = run(["report", "--network", str(bad), "--data", str(data)],
                           capsys)
        assert code == 2 and "bad.json" in err

    def test_dimension_mismatch_exit_2(self, inputs, capsys, tmp_path):
        net_path, _, _, _ = inputs  # network expects dimension 2
        data3 = tmp_path / "d3.json"
        data3.write_text(json.dumps({"points": [[1.0, 0.0, 0.0]]}))
        code, _, err = run(["report", "--network", net_path, "--data", str(data3)],
                           capsys)
        assert code == 2 and "does not match" in err

    @pytest.mark.parametrize("kind", ["network", "data"])
    def test_integer_too_large_for_a_float_exit_2(self, kind, inputs, capsys, tmp_path):
        net_path, data_path, _, _ = inputs
        paths = {"network": net_path, "data": data_path}
        huge = tmp_path / "huge.json"
        if kind == "network":
            obj = {"input_dim": 2, "layers": [{"rows": 1, "cols": 2, "data": [10 ** 400, 1]}]}
        else:
            obj = {"points": [[10 ** 400, 0.0], [0.0, 1.0]]}
        huge.write_text(json.dumps(obj))
        paths[kind] = str(huge)
        code, _, err = run(["report", "--network", paths["network"],
                            "--data", paths["data"]], capsys)
        assert code == 2 and "huge.json" in err and "too large" in err

    def test_zero_layer_network_exit_2(self, inputs, capsys, tmp_path):
        _, data_path, _, _ = inputs
        zero_net = make_net([np.zeros((2, 2)), np.eye(2)])
        zp = tmp_path / "zero.json"
        save_network(zero_net, str(zp))
        code, _, err = run(["report", "--network", str(zp), "--data", data_path],
                           capsys)
        assert code == 2 and "zero layer" in err


class TestCompress:
    def test_writes_network_and_certificate(self, inputs, capsys, tmp_path):
        net_path, data_path, _, _ = inputs
        out = tmp_path / "compressed.json"
        code, stdout, _ = run(["compress", "--network", net_path, "--data", data_path,
                               "--r", "2", "--out", str(out)], capsys)
        assert code == 0
        assert "theorem_bound=" in stdout
        loaded = load_network(str(out))
        assert loaded.depth == 2
        cert = json.loads((tmp_path / "compressed.json.cert.json").read_text())
        assert set(cert) >= {"r_requested", "r_prime", "p", "lemma_bound",
                             "theorem_bound", "degenerate_zero"}

    def test_needs_b_or_data(self, inputs, capsys):
        net_path, _, _, _ = inputs
        code, _, err = run(["compress", "--network", net_path, "--r", "1"], capsys)
        assert code == 2 and "--B" in err

    def test_user_supplied_b(self, inputs, capsys):
        net_path, _, _, _ = inputs
        code, stdout, _ = run(["compress", "--network", net_path, "--r", "2",
                               "--B", "2.0"], capsys)
        assert code == 0 and "(user)" in stdout

    def test_diverged_stream_seeding_exits_4(self, inputs, capsys, monkeypatch):
        from capnet import network
        net_path, data_path, _, _ = inputs
        monkeypatch.setattr(network, "_MULT_A", network._MULT_A ^ 1)
        code, _, err = run(["compress", "--network", net_path, "--data", data_path,
                            "--r", "2"], capsys)
        assert code == 4 and "SeedSequence" in err

    def test_dimension_mismatch_exit_2(self, inputs, capsys, tmp_path):
        # the domain radius of a dataset the network cannot read certifies nothing
        net_path, _, _, _ = inputs  # network expects dimension 2
        data3 = tmp_path / "d3.json"
        data3.write_text(json.dumps({"points": [[1.0, 0.0, 0.0]]}))
        code, stdout, err = run(["compress", "--network", net_path, "--data", str(data3),
                                 "--r", "1"], capsys)
        assert code == 2 and "does not match" in err
        assert stdout == ""


class TestRademacherCmd:
    def test_structured_output(self, inputs, capsys, tmp_path, rng):
        _, data_path, _, _ = inputs
        scalar_net = make_net([rng.standard_normal((2, 2)), rng.standard_normal((1, 2))])
        net_path = tmp_path / "scalar.json"
        save_network(scalar_net, str(net_path))
        code, stdout, _ = run(["rademacher", "--network", str(net_path),
                               "--data", data_path, "--samples", "4",
                               "--restarts", "1", "--steps", "10",
                               "--format", "structured"], capsys)
        assert code == 0
        obj = json.loads(stdout)
        assert obj["method"] == "monte-carlo"
        assert obj["value"] >= 0.0

    def test_vector_valued_net_rejected(self, inputs, capsys):
        net_path, data_path, _, _ = inputs  # identity net has 2 outputs
        code, _, err = run(["rademacher", "--network", net_path,
                            "--data", data_path, "--samples", "2"], capsys)
        assert code == 2 and "scalar" in err


class TestLowerboundCmd:
    def test_csv_table(self, capsys, tmp_path):
        out = tmp_path / "lb.csv"
        code, _, _ = run(["lowerbound", "--h-grid", "2", "--m-grid", "8",
                          "--p-grid", "1,2,inf", "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["h", "m", "p", "diag_value", "scalar_value",
                           "bound_lower", "ratio"]
        assert len(rows) == 4
        for row in rows[1:]:
            assert 0.2 <= float(row[6]) <= 2.0

    def test_gamma_scales_values_not_ratio(self, capsys):
        tables = {}
        for gamma in ("1", "2"):
            code, stdout, _ = run(["lowerbound", "--h-grid", "2,4", "--m-grid", "8",
                                   "--p-grid", "1,2,inf", "--gamma", gamma], capsys)
            assert code == 0
            tables[gamma] = list(csv.reader(io.StringIO(stdout)))[1:]
        for one, two in zip(tables["1"], tables["2"]):
            assert two[:3] == one[:3]
            for col in (3, 4, 5):  # diag_value, scalar_value, bound_lower
                assert float(two[col]) == float(one[col]) / 2.0
            assert two[6] == one[6]

    def test_nonpositive_gamma_is_a_usage_error(self, capsys):
        code, _, err = run(["lowerbound", "--h-grid", "2", "--m-grid", "8",
                            "--p-grid", "2", "--gamma", "0"], capsys)
        assert code == 2 and "gamma" in err


class TestSweep:
    def test_depth_columns(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--depths", "2,3,4,8,32,64", "--m", "16",
                          "--out", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        header, body = rows[0], rows[1:]
        assert header[0] == "depth"
        ney = [float(r[1]) for r in body]
        assert ney[1] / ney[0] == 2.0  # depth 3 vs 2, exactly
        sqd = [float(r[2]) for r in body]
        want = (math.sqrt(2 * math.log(2) * 3) + 1) / (math.sqrt(2 * math.log(2) * 2) + 1)
        assert sqd[1] / sqd[0] == pytest.approx(want, rel=1e-12)
        free = [float(r[3]) for r in body]
        assert free[-1] == free[-2]  # plateau once the first branch is active

    def test_random_family_runs(self, capsys, tmp_path):
        out = tmp_path / "sweep2.csv"
        code, _, _ = run(["sweep", "--depths", "2,4", "--family", "random",
                          "--m", "8", "--out", str(out)], capsys)
        assert code == 0

    def test_depth_one_columns_near_coincide(self, capsys, tmp_path):
        out = tmp_path / "sweep1.csv"
        code, _, _ = run(["sweep", "--depths", "1", "--m", "16",
                          "--out", str(out)], capsys)
        assert code == 0
        row = list(csv.reader(io.StringIO(out.read_text())))[1]
        vals = [float(row[1]), float(row[2]), float(row[3])]
        assert max(vals) <= 8.0 * min(vals)


class TestVerifyCmd:
    def test_cover_suite_passes(self, capsys):
        code, stdout, _ = run(["verify", "--suite", "cover"], capsys)
        assert code == 0
        assert stdout.count("PASS") == 2 and "FAIL" not in stdout

    def test_union_suite_passes(self, capsys):
        code, stdout, _ = run(["verify", "--suite", "union"], capsys)
        assert code == 0 and "PASS" in stdout


class TestSvdCount:
    @pytest.mark.parametrize("argv,want", [
        (["compress", "--r", "4"], 6),  # profile, rank1_approx, the certificate's directions
        (["report"], 4),
    ])
    def test_one_svd_per_layer(self, argv, want, capsys, tmp_path, monkeypatch):
        net = verify.random_net(np.random.default_rng(0), depth=4, max_width=8,
                                scalar_output=True, input_dim=6)
        net_path, data_path = str(tmp_path / "net.json"), str(tmp_path / "data.json")
        save_network(net, net_path)
        save_dataset(Dataset(points=np.random.default_rng(5).standard_normal((32, 6))),
                     data_path)
        calls = []
        for name in ("svd", "singular_values"):
            real = getattr(matlin, name)
            monkeypatch.setattr(matlin, name,
                                lambda w, real=real: calls.append(1) or real(w))
        code, _, _ = run(argv + ["--network", net_path, "--data", data_path], capsys)
        assert code == 0
        assert len(calls) == want


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["lowerbound", "--override-Gamma", "3"],
        ["lowerbound", "--restarts", "9"],
        ["lowerbound", "--format", "structured"],
        ["report", "--samples", "5"],
        ["report", "--steps", "2"],
        ["compress", "--r", "2", "--format", "csv"],
        ["rademacher", "--gamma", "2"],
        ["sweep", "--p", "3"],
        ["verify", "--seed", "1"],
    ])
    def test_flag_a_subcommand_ignores_is_a_usage_error(self, argv, inputs, capsys):
        net_path, data_path, _, _ = inputs
        paths = {"report": ["--network", net_path, "--data", data_path],
                 "compress": ["--network", net_path, "--data", data_path],
                 "rademacher": ["--network", net_path, "--data", data_path]}
        code, out, err = run(argv[:1] + paths.get(argv[0], []) + argv[1:], capsys)
        assert code == 1 and not out
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--m", "5"],
        ["sweep", "--dim", "9"],
        ["sweep", "--B", "7"],
        ["compress", "--network", "NET", "--r", "1", "--B", "2"],
    ])
    def test_flag_that_data_overrides_is_refused(self, argv, inputs, capsys):
        net_path, data_path, _, _ = inputs
        argv = [net_path if a == "NET" else a for a in argv]
        code, out, err = run(argv + ["--data", data_path], capsys)
        assert code == 2 and not out
        assert "--data" in err


    @pytest.mark.parametrize("cmd", ["report", "lowerbound", "sweep"])
    def test_gamma_has_one_flag(self, cmd, inputs, capsys):
        net_path, data_path, _, _ = inputs
        paths = ["--network", net_path, "--data", data_path] if cmd == "report" else []
        code, out, err = run([cmd] + paths + ["--gamma-cap", "0.5"], capsys)
        assert code == 1 and not out
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ["report", "--p=-inf"],
        ["report", "--p", "0.5"],
        ["report", "--p", "nan"],
        ["lowerbound", "--p-grid", "2,-inf"],
    ])
    def test_p_outside_its_domain_is_a_usage_error(self, argv, inputs, capsys):
        net_path, data_path, _, _ = inputs
        paths = ["--network", net_path, "--data", data_path] if argv[0] == "report" else []
        code, out, err = run(argv[:1] + paths + argv[1:], capsys)
        assert code == 1 and not out
        assert "invalid" in err

    def test_readme_flag_table_matches_the_parser(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        table = dict(re.findall(r"^\| `(\w+)` +\| `(--[^`]*)` \|$", readme, re.M))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        want = {name: sorted(opt for act in sp._actions for opt in act.option_strings
                             if opt not in ("-h", "--help"))
                for name, sp in sub.choices.items()}
        assert {name: sorted(flags.split()) for name, flags in table.items()} == want


class TestOptimizedMode:
    def test_certified_inequalities_survive_python_O(self, inputs):
        # python -O strips assert statements; these checks must still fire
        net_path, data_path, net, data = inputs
        script = textwrap.dedent(f"""
            import sys
            from capnet import bounds, cli
            from capnet.errors import VerificationError
            from capnet.network import load_dataset, load_network, profile
            assert False, "assert statements must be stripped under -O"
            bounds.tune_r = lambda *a, **k: bounds.TuneResult(r_star=1, value=1e300)
            data = load_dataset({data_path!r})
            prof = profile(load_network({net_path!r}), 2.0)
            try:
                bounds.bound_frobenius_depth_free(prof, data.radius, data.m, 1.0)
            except VerificationError:
                pass
            else:
                sys.exit("bound_frobenius_depth_free accepted a scan above its cap")
            sys.exit(cli.main(["report", "--network", {net_path!r},
                               "--data", {data_path!r}]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(bounds.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "verification failed" in proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "7"])
    def test_outputs_bit_identical_across_thread_caps(self, inputs, capsys,
                                                      tmp_path, threads, monkeypatch):
        net_path, data_path, _, _ = inputs
        monkeypatch.setenv("CAPNET_THREADS", threads)
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{threads}_{tag}.csv"
            run(["report", "--network", net_path, "--data", data_path,
                 "--format", "csv", "--out", str(out), "--seed", "42"], capsys)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_reports_identical_across_env(self, inputs, capsys, tmp_path, monkeypatch):
        net_path, data_path, _, _ = inputs
        blobs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("CAPNET_THREADS", threads)
            out = tmp_path / f"sweep_{threads}.csv"
            run(["sweep", "--depths", "2,4", "--m", "8", "--samples", "2",
                 "--steps", "20", "--restarts", "1", "--out", str(out)], capsys)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestBadArgumentsExit2:
    """Arguments outside a command's domain exit 2 with a message, not a
    traceback, a false verification failure or a nan that passes."""

    @pytest.mark.parametrize("argv, words", [
        (["sweep", "--dim", "0", "--depths", "2"], "dimension"),
        (["sweep", "--product", "-1", "--depths", "2,3"], "--product"),
        (["sweep", "--product", "nan", "--depths", "2"], "--product"),
        (["sweep", "--product", "inf", "--depths", "2"], "--product"),
        (["sweep", "--B", "-1", "--depths", "2"], "radius B"),
        (["sweep", "--B", "nan", "--depths", "2"], "radius B"),
        (["sweep", "--B", "inf", "--depths", "2"], "radius B"),
    ])
    def test_sweep(self, argv, words, capsys):
        code, stdout, err = run(argv, capsys)
        assert code == 2 and words in err and "Traceback" not in err
        assert stdout == ""

    @pytest.mark.parametrize("extra, words", [
        (["--B", "nan"], "domain radius"),
        (["--B", "-1"], "domain radius"),
        (["--B", "inf"], "domain radius"),
        (["--B", "1", "--override-M", "0"], "override of M"),
        (["--B", "1", "--override-Gamma", "-2"], "override of Gamma"),
        (["--B", "1", "--override-Gamma", "nan"], "override of Gamma"),
    ])
    def test_compress(self, extra, words, inputs, capsys):
        net_path, _, _, _ = inputs
        code, stdout, err = run(["compress", "--network", net_path, "--r", "1"] + extra,
                                capsys)
        assert code == 2 and words in err and "verification failed" not in err
        assert stdout == ""


    @pytest.mark.parametrize("flag, value", [
        ("--override-Gamma", "nan"), ("--override-Gamma", "inf"),
        ("--override-M", "nan"), ("--override-M", "inf"),
        ("--override-M", "0"), ("--override-M", "-1"),
    ])
    def test_report_override(self, flag, value, inputs, capsys):
        # the same rule as compress: a what-if product must be finite and > 0
        net_path, data_path, _, _ = inputs
        code, stdout, err = run(["report", "--network", net_path, "--data", data_path,
                                 flag, value], capsys)
        name = flag.split("-")[-1]
        assert code == 2 and f"override of {name} must be finite and > 0" in err
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        ["report"],
        ["lowerbound", "--h-grid", "2", "--m-grid", "8", "--p-grid", "2"],
        ["sweep", "--depths", "2"],
    ])
    @pytest.mark.parametrize("gamma", ["inf", "0"])
    def test_gamma_must_be_finite_and_positive(self, argv, gamma, inputs, capsys):
        # an infinite margin would divide the floor to 0 and print 0 for bounds
        net_path, data_path, _, _ = inputs
        if argv[0] == "report":
            argv = argv + ["--network", net_path, "--data", data_path]
        code, stdout, err = run(argv + ["--gamma", gamma], capsys)
        assert code == 2 and "gamma must be finite and > 0" in err
        assert stdout == ""

    @pytest.mark.parametrize("argv", [
        ["rademacher", "--samples", "2", "--restarts", "0"],
        ["rademacher", "--samples", "2", "--steps", "-5"],
        ["sweep", "--depths", "2", "--samples", "2", "--restarts", "0"],
        ["sweep", "--depths", "2", "--samples", "2", "--steps", "-5"],
    ])
    def test_ascent_needs_a_restart_and_no_negative_steps(self, argv, inputs, capsys,
                                                          tmp_path, rng):
        _, data_path, _, _ = inputs
        if argv[0] == "rademacher":
            net_path = tmp_path / "scalar.json"
            save_network(make_net([rng.standard_normal((2, 2)),
                                   rng.standard_normal((1, 2))]), str(net_path))
            argv = argv[:1] + ["--network", str(net_path), "--data", data_path] + argv[1:]
        code, stdout, err = run(argv, capsys)
        assert code == 2 and "restarts >= 1 and steps >= 0" in err
        assert stdout == ""


class TestSamplesAsGiven:
    def test_rademacher_zero_samples_is_refused(self, inputs, capsys, tmp_path, rng):
        _, data_path, _, _ = inputs
        net_path = tmp_path / "scalar.json"
        save_network(make_net([rng.standard_normal((2, 2)), rng.standard_normal((1, 2))]),
                     str(net_path))
        code, _, err = run(["rademacher", "--network", str(net_path), "--data", data_path,
                            "--samples", "0"], capsys)
        assert code == 2 and "at least 2" in err

    @pytest.mark.parametrize("samples", ["0", "7"])
    def test_compress_reports_the_count_used(self, samples, inputs, capsys):
        net_path, data_path, _, _ = inputs
        code, stdout, _ = run(["compress", "--network", net_path, "--data", data_path,
                               "--r", "1", "--samples", samples], capsys)
        assert code == 0 and f"({samples} samples, seed 42)" in stdout

    def test_defaults(self):
        from capnet.cli import build_parser
        parser = build_parser()
        base = {"compress": ["--network", "n", "--r", "1"], "rademacher": ["--network", "n"],
                "lowerbound": [], "sweep": []}
        got = {cmd: parser.parse_args([cmd] + rest).samples for cmd, rest in base.items()}
        assert got == {"compress": 1000, "rademacher": 32, "lowerbound": 0, "sweep": 0}
