"""capnet benchmark: one measured run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ascent-schatten --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``ascent-schatten``, ``ascent-cheap-ball`` and ``analysis``.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones: ``wall_s`` (median seconds per pass in a warm process),
``setup_s`` (median time for a fresh interpreter to import ``capnet.cli`` and
load the network and dataset files), ``estimate_ratio`` (mean ``rademacher``
estimate over its recorded reference; 1 on ``analysis``, which has none) and
``peak_rss_mb`` (the worker's peak resident memory over its whole run, which
runs the same commands in every pass).  With ``--trace 1`` the metrics
are the per-layer ones from a traced run (see layers.py).  A full record of
the run (machine, load average, every pass, output digests, extrapolated
default-settings times) is written under ``.perfbench_run/`` and summarised
on stderr.

Exits 2 without a result when the capnet sources are missing and 3 when the
measured run itself could not finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
RUN_DIR = ".perfbench_run"
# Inputs and outputs live at one fixed relative path, because ``compress``
# prints the path it wrote and that line is part of the checked output.
WORK_DIR = os.path.join(RUN_DIR, "work")
WORKER_TIMEOUT = 150
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    # without the check git would report an enclosing repository's commit
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return {"percentile": q, "value": statistics.quantiles(values, n=100)[q - 1],
            "samples": n}


def extrapolate(probe: list) -> dict:
    """Default-settings ``capnet rademacher`` time, scaled from the probe.

    The probe runs 2 samples x the default 8 restarts x a short ascent per p
    (workloads.probe); its time per step times the default 32 x 8 x 500
    steps is not a measurement, and it is not gated.
    """
    default_steps = (workloads.DEFAULT_SAMPLES * workloads.DEFAULT_RESTARTS
                     * workloads.DEFAULT_STEPS)
    return {f"p={c['p']}": {"label": "extrapolated", "probe_steps": c["steps"],
                            "per_step_s": c["seconds"] / c["steps"],
                            "default_settings_s": c["seconds"] / c["steps"] * default_steps}
            for c in probe if c["rc"] == 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "capnet", "cli.py")):
        print("perfbench: src/capnet/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(RUN_DIR, f"{tag}.worker.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = child_env()
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", WORK_DIR, "--result", result_path]
    try:
        proc = subprocess.run(worker, env=env, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT} s", file=sys.stderr)
        return 3
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"perfbench: worker exited with status {proc.returncode}", file=sys.stderr)
        return 3
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    passes, traced = res["passes"], res["traced_passes"]
    commands = [c for pas in passes + traced for c in pas["commands"]]
    failures = [f"{c['label']}: {p}" for c in commands for p in c["problems"]]
    failed = sum(1 for c in commands if c["problems"])
    drift = max(c["drift"] for c in commands)
    ratios = [r for pas in passes for c in pas["commands"] for r in c["ratios"]]
    harness = res["trace_mismatches"] + res.get("self_check", [])
    harness += [f"{c['label']}: exit status {c['rc']}" for c in res["probe"] if c["rc"] != 0]
    walls = [p["wall_s"] for p in passes]

    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["harness.fail_ratio"] = failed / len(commands)
        metrics["harness.output_drift"] = drift
        setup = []
    else:
        setup = res["setup_s"]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            # a workload without estimates (analysis) has none that fell
            "estimate_ratio": statistics.fmean(ratios) if ratios else 1.0,
            "peak_rss_mb": res["peak_rss_mb"],
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            **res["machine"], "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "blas_thread_env": BLAS_THREADS, "git_commit": git_commit(),
        },
        "loop": "closed, one client, commands in sequence",
        "metrics": metrics,
        "wall_s_samples": len(walls),
        "wall_s_tail": tail(walls),
        "setup_s_samples": setup,
        "fail_ratio": failed / len(commands),
        "output_drift": drift,
        "extrapolated_default_settings": extrapolate(res["probe"]),
        "failures": failures,
        "harness_problems": harness,
        "passes": passes,
        "traced_passes": traced,
        "spans": res.get("spans"),
    }
    with open(os.path.join(RUN_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    digests = {}
    for pas in passes:
        for c in pas["commands"]:
            digests[f"input-{pas['entry']:02d} {c['label']}"] = c["sha256"]
    print(f"passes: {len(walls)}  wall_s per pass: "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"wall_s tail: {record['wall_s_tail'] or 'fewer than 20 passes, none'}",
          file=sys.stderr)
    print(f"fail_ratio: {record['fail_ratio']}  output_drift: {drift}", file=sys.stderr)
    for key, value in record["extrapolated_default_settings"].items():
        print(f"extrapolated default-settings rademacher {key}: "
              f"{value['default_settings_s']:.0f} s", file=sys.stderr)
    for key, value in sorted(digests.items()):
        print(f"sha256 {key}: {value}", file=sys.stderr)
    for line in failures + harness:
        print(f"problem: {line}", file=sys.stderr)

    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    for name in missing:
        print(f"problem: metric {name} was not measured", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not harness and not missing,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {d["name"]: {"value": finite(metrics.get(d["name"], 0.0)),
                                "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


def finite(value: float) -> float:
    """JSON has no infinity; an unmeasurable drift prints as the largest float."""
    return value if math.isfinite(value) else sys.float_info.max


if __name__ == "__main__":
    raise SystemExit(main())
