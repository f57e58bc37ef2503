"""Per-layer metrics of a traced run, and the check that the wrappers saw work.

Busy and self times and call counts are per traced pass (the total over the
run divided by the number of traced passes), so they compare directly with
the pass's ``wall_s``.  No layer has a queue, so ``wait_s`` is recorded as 0
rather than left out.

Each entry of ``EXPECTED`` names a metric and the workloads on which it must
be non-zero.  A zero there means a wrapper missed its target (for example a
``from ... import`` binding it did not patch), and fails the run.
"""

from __future__ import annotations

import statistics

from tracing import MODULES

SUITES = ("norms", "contraction", "union", "cover", "certificate", "lowerbound")
COMMANDS = ("report", "compress", "rademacher", "lowerbound", "sweep", "verify")
TAGS = ("schatten", "spectral", "frobenius")

ASCENT = ("ascent-schatten", "ascent-cheap-ball")
ALL = ASCENT + ("analysis",)
ANALYSIS = ("analysis",)
EXPECTED = {
    "matlin.svd.calls": ALL,
    "matlin.svd_per_step": ASCENT,
    "matlin.project_to_ball.schatten.calls": ASCENT,
    "matlin.project_to_ball.spectral.calls": ("ascent-cheap-ball",),
    "matlin.project_lp_ball.calls": ASCENT,
    "matlin.matrix_norm.calls": ALL,
    "matlin.norm_checks_per_projection": ASCENT,
    "matlin.linear_maximizer.calls": ASCENT,
    "matlin.as_matrix.calls": ALL,
    "network.load.busy_s": ALL,
    "network.profile.calls": ANALYSIS,
    "network.forward_batch.calls": ANALYSIS,
    "network.activation_batch.calls": ALL,
    "rademacher.sup_ascent.calls": ASCENT,
    "rademacher.sup_ascent.self_s": ASCENT,
    "rademacher.steps_per_s": ASCENT,
    "rademacher.mc_rademacher.busy_s": ASCENT,
    "rademacher.sign_matrix.calls": ANALYSIS,
    "rademacher.sign_matrix.rows": ANALYSIS,
    "rademacher.exact_rademacher.busy_s": ANALYSIS,
    "rademacher.contraction.busy_s": ANALYSIS,
    "rademacher.union.busy_s": ANALYSIS,
    "rademacher.cover.busy_s": ANALYSIS,
    "compress.rank1_replace.calls": ANALYSIS,
    "compress.verify_certificate.calls": ANALYSIS,
    "compress.factor_compressed.calls": ANALYSIS,
    "bounds.report_for.calls": ANALYSIS,
    "bounds.tune_r.calls": ANALYSIS,
    "lowerbound.demonstrate_lower_bound.busy_s": ANALYSIS,
    **{f"verify.suite.{s}.busy_s": ANALYSIS for s in SUITES},
    **{f"cli.{c}.busy_s": ANALYSIS for c in COMMANDS if c != "rademacher"},
    "cli.rademacher.busy_s": ASCENT,
}


def metrics(tracer, workload: str, passes: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics (name -> value) and the self-check problems."""
    n = max(1, len(traced))

    def per_pass(v):
        return v / n

    out = {}

    def pair(key, *names):
        out[f"{key}.calls"] = per_pass(tracer.calls(*names))
        out[f"{key}.busy_s"] = per_pass(tracer.busy(*names))

    svd = ("matlin.svd", "matlin.singular_values")
    pair("matlin.svd", *svd)
    steps = tracer.ascent_steps
    out["matlin.svd_per_step"] = tracer.calls(*svd) / steps if steps else 0.0
    projections = tuple(f"matlin.project_to_ball.{t}" for t in
                        TAGS + ("rows_l1_max", "rows_l2_sum"))
    for tag in TAGS:
        pair(f"matlin.project_to_ball.{tag}", f"matlin.project_to_ball.{tag}")
    for name in ("project_lp_ball", "matrix_norm", "linear_maximizer", "as_matrix"):
        pair(f"matlin.{name}", f"matlin.{name}")
    n_proj = tracer.calls(*projections)
    out["matlin.norm_checks_per_projection"] = (
        tracer.calls("matlin.matrix_norm") / n_proj if n_proj else 0.0)

    out["network.load.busy_s"] = per_pass(
        tracer.busy("network.load_network", "network.load_dataset"))
    for name in ("profile", "forward_batch", "activation_batch"):
        pair(f"network.{name}", f"network.{name}")

    pair("rademacher.sup_ascent", "rademacher.sup_ascent")
    out["rademacher.sup_ascent.self_s"] = per_pass(tracer.self_time("rademacher.sup_ascent"))
    ascent_busy = tracer.busy("rademacher.sup_ascent")
    out["rademacher.steps_per_s"] = steps / ascent_busy if ascent_busy else 0.0
    out["rademacher.mc_rademacher.busy_s"] = per_pass(tracer.busy("rademacher.mc_rademacher"))
    out["rademacher.sign_matrix.calls"] = per_pass(tracer.calls("rademacher.sign_matrix"))
    out["rademacher.sign_matrix.rows"] = per_pass(tracer.sign_rows)
    sign_busy = tracer.busy("rademacher.sign_matrix")
    out["rademacher.sign_matrix.rows_per_s"] = tracer.sign_rows / sign_busy if sign_busy else 0.0
    out["rademacher.exact_rademacher.busy_s"] = per_pass(
        tracer.busy("rademacher.exact_rademacher"))
    out["rademacher.contraction.busy_s"] = per_pass(tracer.busy(
        "rademacher.check_contraction_frobenius", "rademacher.check_contraction_l1inf"))
    out["rademacher.union.busy_s"] = per_pass(tracer.busy("rademacher.check_union_bound"))
    out["rademacher.cover.busy_s"] = per_pass(tracer.busy(
        "rademacher.build_lipschitz_cover", "rademacher.verify_cover"))

    for name in ("rank1_replace", "verify_certificate", "factor_compressed"):
        pair(f"compress.{name}", f"compress.{name}")
    for name in ("report_for", "tune_r"):
        pair(f"bounds.{name}", f"bounds.{name}")
    out["lowerbound.demonstrate_lower_bound.busy_s"] = per_pass(
        tracer.busy("lowerbound.demonstrate_lower_bound"))
    for suite in SUITES:
        out[f"verify.suite.{suite}.busy_s"] = per_pass(tracer.busy(f"verify.suite.{suite}"))
    for command in COMMANDS:
        out[f"cli.{command}.busy_s"] = per_pass(tracer.busy(f"cli.{command}"))
        out[f"cli.{command}.self_s"] = per_pass(tracer.self_time(f"cli.{command}"))
    for module in MODULES:
        out[f"{module}.errors"] = float(tracer.errors.get(module, 0))
    out["wait_s"] = 0.0

    plain = statistics.median(p["wall_s"] for p in passes)
    with_trace = statistics.median(p["wall_s"] for p in traced)
    out["trace.untraced_wall_s"] = plain
    out["trace.traced_wall_s"] = with_trace
    out["trace.overhead_s"] = with_trace - plain

    problems = [f"{name} is 0 on {workload}" for name, where in EXPECTED.items()
                if workload in where and not out[name] > 0]
    return out, problems
