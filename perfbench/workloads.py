"""The benchmark's workloads: which capnet commands one pass runs.

Every workload is a closed loop with one client: the commands of a pass run
in order through ``capnet.cli.main``, each after the previous one returned,
and the next pass starts when the last command of a pass has finished.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Reduced ascent sizes (the CLI defaults are 32 samples x 8 restarts x 500
# steps).  Passes are kept short so that one run cycles through the input
# pool several times: the cost of an ascent differs between input sets, and
# a median over many passes of each does not.  One restart keeps the
# ascent on its deterministic start: about half of the seeded random
# restarts begin with a negative objective and stall at the zero function
# within a few steps, which makes the cost of a pass depend several-fold on
# how many restarts happened to stall.  Restart batching therefore cannot
# show on these workloads.
SCHATTEN_ASCENT = {"p": ("2", "1.5"), "samples": 2, "restarts": 1, "steps": 20}
CHEAP_ASCENT = {"p": ("inf", "1"), "samples": 2, "restarts": 1, "steps": 250}

# CLI defaults, for the extrapolated default-settings time.
DEFAULT_SAMPLES, DEFAULT_RESTARTS, DEFAULT_STEPS = 32, 8, 500

# The extrapolated time is scaled from a probe: one short ascent per p with
# the default 8 restarts, run once after the measured passes, so that the
# random restarts that stall at the zero function weigh in as they do at the
# defaults.  2 samples is the CLI's minimum.  On one input set at p=2 a
# 15-step probe extrapolated to 20.8 min, against 18.6 min for the same
# 2 x 8 ascent run to the full 500 steps.
PROBE_SAMPLES = 2
PROBE_STEPS = {"ascent-schatten": 15, "ascent-cheap-ball": 100}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    label names the command in references and reports; argv is what
    ``capnet.cli.main`` receives; out_files are files the command writes,
    whose bytes are part of its output; steps is the number of ascent steps
    the command takes (0 for commands without an ascent).
    """

    label: str
    argv: tuple[str, ...]
    out_files: tuple[str, ...] = ()
    steps: int = 0
    p: str = ""


def _ascent(cfg: dict, net: str, data: str, seed: int,
            label: str = "rademacher") -> list[Command]:
    steps = cfg["samples"] * cfg["restarts"] * cfg["steps"]
    return [
        Command(
            label=f"{label}-p{p}",
            argv=("rademacher", "--network", net, "--data", data, "--p", p,
                  "--samples", str(cfg["samples"]), "--restarts", str(cfg["restarts"]),
                  "--steps", str(cfg["steps"]), "--seed", str(seed)),
            steps=steps, p=p,
        )
        for p in cfg["p"]
    ]


def _analysis(net: str, data: str, seed: int, workdir: str) -> list[Command]:
    base = ("--network", net, "--data", data, "--seed", str(seed))
    out = os.path.join(workdir, "compressed.json")
    return [
        Command("report-table", ("report",) + base),
        Command("report-structured", ("report",) + base + ("--format", "structured")),
        Command("report-csv", ("report",) + base + ("--format", "csv")),
        Command("compress", ("compress",) + base + ("--r", "4", "--out", out),
                out_files=(out, out + ".cert.json")),
        Command("lowerbound", ("lowerbound", "--seed", str(seed))),
        # one grid point at m = 21: 2^21 sign vectors through the chunked
        # enumeration (the default grid stops at m = 16)
        Command("lowerbound-m21", ("lowerbound", "--h-grid", "4", "--m-grid", "21",
                                   "--p-grid", "2", "--seed", str(seed))),
        Command("sweep", ("sweep", "--seed", str(seed))),
        Command("verify", ("verify", "--suite", "all")),
    ]


WORKLOADS = {
    "ascent-schatten": lambda net, data, seed, workdir: _ascent(SCHATTEN_ASCENT, net, data, seed),
    "ascent-cheap-ball": lambda net, data, seed, workdir: _ascent(CHEAP_ASCENT, net, data, seed),
    "analysis": _analysis,
}
ASCENTS = {"ascent-schatten": SCHATTEN_ASCENT, "ascent-cheap-ball": CHEAP_ASCENT}


def commands(workload: str, net: str, data: str, seed: int, workdir: str) -> list[Command]:
    return WORKLOADS[workload](net, data, seed, workdir)


def probe(workload: str, net: str, data: str, seed: int) -> list[Command]:
    """The extrapolation probe of an ascent workload (none for the others)."""
    if workload not in ASCENTS:
        return []
    cfg = dict(ASCENTS[workload], samples=PROBE_SAMPLES, restarts=DEFAULT_RESTARTS,
               steps=PROBE_STEPS[workload])
    return _ascent(cfg, net, data, seed, label="probe-rademacher")
