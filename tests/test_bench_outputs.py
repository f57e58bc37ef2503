"""Benchmark commands print exactly their recorded bytes.

The benchmark under ``perfbench/`` fails a run whose ``rademacher`` output
moved at all; these tests catch such a move in the suite, for the ascent
commands, for the analysis commands that enumerate sign vectors or run
the contraction harnesses, and for ``sweep``, whose points are sampled on
the sphere.  They only read
``perfbench/`` (the input generator, the workload definitions and the
recorded references) and writes its input files under pytest's tmp_path.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from capnet import cli
from conftest import PERFBENCH, load_perfbench


def _run_against_references(workload, entry, tmp_path, labels=None):
    """Run the workload's commands (those named in labels, if given) on input
    set entry and compare each stdout's sha256 with the recorded reference."""
    inputs, workloads = load_perfbench("inputs"), load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)[workload][str(entry)]
    net, data, seed = inputs.generate(entry)
    paths = []
    for name, obj in (("net.json", net), ("data.json", data)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
    cmds = [cmd for cmd in workloads.commands(workload, *paths, seed, str(tmp_path))
            if labels is None or cmd.label in labels]
    assert cmds
    for cmd in cmds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(cmd.argv)) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == refs[cmd.label]["sha256"], (cmd.label, out.getvalue())
    return cmds


@pytest.mark.parametrize("workload", ["ascent-schatten", "ascent-cheap-ball"])
@pytest.mark.parametrize("entry", range(8))
def test_rademacher_bytes_match_references(workload, entry, tmp_path):
    # every input set: the ascent runs all samples and restarts as one stack,
    # which must print what the per-sample loop printed
    cmds = _run_against_references(workload, entry, tmp_path)
    assert all(cmd.argv[0] == "rademacher" for cmd in cmds)


def test_enumeration_and_verify_bytes_match_references(tmp_path):
    # the commands that run the exact sign enumeration and the contraction
    # harnesses (the others of the pass write files or only read the net)
    labels = {"lowerbound", "lowerbound-m21", "verify"}
    cmds = _run_against_references("analysis", 0, tmp_path, labels)
    assert {cmd.label for cmd in cmds} == labels


@pytest.mark.parametrize("entry", range(8))
def test_sweep_bytes_match_references(entry, tmp_path):
    # sweep synthesises its points with sphere_points under the input set's
    # seed, which the benchmark's numeric tolerance would let move by an ulp
    cmds = _run_against_references("analysis", entry, tmp_path, {"sweep"})
    assert [cmd.label for cmd in cmds] == ["sweep"]


@pytest.mark.parametrize("workload", ["ascent-schatten", "ascent-cheap-ball", "analysis"])
def test_every_benchmark_flag_is_accepted(workload, tmp_path):
    workloads = load_perfbench("workloads")
    parser = cli.build_parser()
    cmds = workloads.commands(workload, "net.json", "data.json", 7, str(tmp_path))
    cmds += workloads.probe(workload, "net.json", "data.json", 7)
    for cmd in cmds:
        parser.parse_args(list(cmd.argv))  # exits on a flag the subcommand lacks
