"""One measured run: passes of a workload, in one warm process.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the import
path.  Imports capnet, then runs passes until ``--seconds`` are used up.
Pass i runs the workload's commands in process through ``capnet.cli.main``
on the input set ``inputs.sequence(seed)[i]``, checks every command's output
against the recorded references and keeps the timings.  With ``--trace 1``
every input set is run twice, untraced and then traced, and the two runs
must produce the same bytes.  An untraced run of an ascent workload ends
with the extrapolation probe (``workloads.probe``), timed apart from the
passes.  Writes one JSON result to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import traceback
from time import perf_counter

import numpy as np

import checks
import inputs
import layers
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
# Set-up samples per untraced run, spread over the run so that a slow phase
# of the machine cannot hold all of them.
SETUP_SAMPLES = 10
SETUP_TIMEOUT = 60
SETUP_SCRIPT = (
    "import sys\n"
    "import capnet.cli\n"
    "from capnet.network import load_dataset, load_network\n"
    "load_network(sys.argv[1])\n"
    "load_dataset(sys.argv[2])\n"
)


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return []


def entry_dir(workdir: str, entry: int) -> str:
    return os.path.join(workdir, f"input-{entry:02d}")


def prepare(entry: int, workdir: str, workload: str) -> list[workloads.Command]:
    """Write the input set's files and return the pass's commands (untimed)."""
    directory = entry_dir(workdir, entry)
    net, data, cli_seed = inputs.write(entry, directory)
    return workloads.commands(workload, net, data, cli_seed, directory)


def measure_setup(directory: str) -> float:
    """Time for a fresh interpreter to import capnet.cli and load the files.

    The wait blocks in waitpid, because ``subprocess.run(timeout=...)`` polls
    with sleeps of up to 50 ms and would round every time up to that grid; a
    timer kills a child that hangs instead.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT,
                             os.path.join(directory, "net.json"),
                             os.path.join(directory, "data.json")],
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(SETUP_TIMEOUT, proc.kill)
    killer.start()
    try:
        status = proc.wait()
    finally:
        killer.cancel()
    if status != 0:
        raise RuntimeError(f"set-up child exited with status {status}")
    return perf_counter() - start


def run_command(cli, cmd: workloads.Command) -> dict:
    """Run one command in process; returns its time, exit status and output."""
    for path in cmd.out_files:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(cmd.argv))
        except Exception:  # the harness keeps going and counts the failure
            rc = None
            crash = traceback.format_exc()
        elapsed = perf_counter() - start
    blob = out.getvalue().encode()
    for path in cmd.out_files:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                blob += fh.read()
    return {"label": cmd.label, "p": cmd.p, "steps": cmd.steps, "seconds": elapsed,
            "rc": rc, "output": blob, "stderr": err.getvalue() + (crash or "")}


def run_pass(cli, cmds, tracer: Tracer | None, index: int) -> dict:
    before = loadavg()
    results = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for cmd in cmds:
            if tracer:
                tracer.request = f"{index}:{cmd.label}"
            results.append(run_command(cli, cmd))
    return {"wall_s": sum(r["seconds"] for r in results), "commands": results,
            "loadavg_before": before, "loadavg_after": loadavg()}


def check_pass(pas: dict, refs: dict) -> None:
    """Judge every command of a pass; adds 'problems', 'drift' and 'ratios'."""
    for res in pas["commands"]:
        text = res["output"].decode(errors="replace")
        problems = []
        if res["rc"] != 0:
            problems.append(f"exit status {res['rc']}: {res['stderr'].strip()[-400:]}")
        if any(line.startswith("FAIL") for line in text.splitlines()):
            problems.append("printed a FAIL line")
        ref = refs.get(res["label"])
        res["sha256"] = checks.digest(res["output"])
        if ref is None:
            problems.append("no reference output recorded")
            res["drift"], res["ratios"] = math.inf, []
        else:
            cmp = checks.compare(checks.parse(text), ref)
            problems.extend(cmp["problems"])
            res["drift"], res["ratios"] = cmp["drift"], cmp["estimate_ratios"]
            res["digest_matches"] = res["sha256"] == ref["sha256"]
        res["problems"] = problems


def summary(pas: dict, entry: int) -> dict:
    """The JSON-safe record of a checked pass."""
    return {
        "entry": entry, "wall_s": pas["wall_s"],
        "loadavg_before": pas["loadavg_before"], "loadavg_after": pas["loadavg_after"],
        "commands": [
            {k: res.get(k) for k in ("label", "p", "steps", "seconds", "rc", "sha256",
                                     "digest_matches", "drift", "ratios", "problems")}
            for res in pas["commands"]
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    from capnet import cli

    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)[args.workload]
    order = inputs.sequence(args.seed)
    tracer = Tracer() if args.trace else None

    # warm-up: the first command of the first pass, once, not timed
    run_command(cli, prepare(order[0], args.workdir, args.workload)[0])

    passes, traced, mismatches, setup = [], [], [], []
    start = perf_counter()
    i = 0
    while True:
        entry = order[i % len(order)]
        cmds = prepare(entry, args.workdir, args.workload)
        refs = references[str(entry)]
        plain = run_pass(cli, cmds, None, i)
        check_pass(plain, refs)
        passes.append(summary(plain, entry))
        if tracer is not None:
            cmds = prepare(entry, args.workdir, args.workload)
            with_trace = run_pass(cli, cmds, tracer, i)
            check_pass(with_trace, refs)
            traced.append(summary(with_trace, entry))
            for a, b in zip(plain["commands"], with_trace["commands"]):
                if a["output"] != b["output"]:
                    mismatches.append(f"pass {i} {a['label']}: traced output differs")
        i += 1
        while tracer is None and len(setup) < SETUP_SAMPLES * min(
                1.0, (perf_counter() - start) / args.seconds):
            setup.append(measure_setup(entry_dir(args.workdir, entry)))
        elapsed = perf_counter() - start
        per_pass = elapsed / i
        if elapsed + per_pass > args.seconds:
            break

    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(entry_dir(args.workdir, entry)))
    # the peak of the worker's whole life so far: warm-up, every pass and the
    # loaded references, but not the probe below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = []
    if tracer is None:
        net, data, cli_seed = inputs.write(entry, entry_dir(args.workdir, entry))
        for cmd in workloads.probe(args.workload, net, data, cli_seed):
            res = run_command(cli, cmd)
            probe.append({k: res[k] for k in ("label", "p", "steps", "seconds", "rc")})
    result = {
        "setup_s": setup,
        "passes": passes,
        "traced_passes": traced,
        "trace_mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb,
        "probe": probe,
        "machine": machine_record(),
    }
    if tracer is not None:
        result["per_layer"], result["self_check"] = layers.metrics(
            tracer, args.workload, passes, traced)
        spans_path = os.path.join(args.workdir, "spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans"] = {"path": spans_path, "count": len(tracer.spans)}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


if __name__ == "__main__":
    raise SystemExit(main())
