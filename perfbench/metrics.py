"""Metric definitions: what each one measures and what it should move.

End-to-end metrics come from untraced rounds.  Per-layer metrics come from
traced rounds: span self times and exact counts taken around the
benchmark's own calls into each qdq layer.  A layer the workload's own
calls do not reach is filled by a probe process (and, for ``cli.*``, by one
probed CLI session), so every per-layer metric exists on every workload; a
per-layer ``note`` says which end-to-end metric it should move, on which
workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import CLI_CALL_NAMES, CODES, VERIFY_SUITES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    # "span:<name>" (self time), "count:<name>", or "run" (derived by run.py).
    source: str
    note: str  # end-to-end: what it measures; per-layer: what it should move


END_TO_END = (
    Metric("wall_s", "s", "lower", "run",
           "process start (before import qdq) to the last result, median over "
           "rounds; cli-session: sum of the nine CLI child wall times"),
    Metric("setup_s", "s", "lower", "run",
           "fresh-process import of qdq plus every concatenation and failure "
           "table the workload uses, median over rounds"),
    Metric("mc.shots_per_s", "shots/s", "higher", "run",
           "shots / time inside mc.estimate_pf (mc-*; curves: one qd6 control "
           "point after the analytic work); cli-session: shots / wall of the "
           "two `mc run` calls"),
    Metric("peak_rss_mb", "MB", "lower", "run",
           "peak RSS of the workload process (cli-session: max over CLI "
           "children), median over rounds"),
    Metric("ops_ok_frac", "ratio", "higher", "run",
           "1 - ops_failed_frac: operations (MC point, solve, CLI call) that "
           "returned and passed their check, over operations attempted"),
)

_SETUP = "setup_s on mc-10q and mc-6q"
_MC = "mc.shots_per_s on mc-10q and mc-6q; nothing on curves (not benchmarked)"

PER_LAYER = (
    Metric("import.numpy_s", "s", "lower", "span:import.numpy",
           "setup_s on every workload; wall_s on cli-session"),
    Metric("import.qdq_s", "s", "lower", "span:import.qdq",
           "setup_s on every workload; wall_s on cli-session (8 imports)"),
    *(
        Metric(f"concat.build_s.{c}", "s", "lower", f"span:concat.build.{c}",
               f"{_SETUP}; wall_s on cli-session")
        for c in CODES
    ),
    *(
        Metric(f"mc.failure_table_s.{c}", "s", "lower", f"span:mc.failure_table.{c}",
               "setup_s on mc-10q (near zero on mc-6q); wall_s on cli-session")
        for c in CODES
    ),
    Metric("mc.failure_table_entries", "count", "lower",
           "count:mc.failure_table_entries", "setup_s on mc-10q"),
    Metric("mc.estimate_pf_s", "s", "lower", "span:mc.estimate_pf", _MC),
    Metric("mc.uniforms_drawn", "count", "lower", "count:mc.uniforms_drawn", _MC),
    Metric("rng.floor_s", "s", "lower", "span:rng.floor", _MC),
    Metric("kernel.count_failures_s", "s", "lower", "span:kernel.count_failures", _MC),
    Metric("analytic.pseudothreshold_s", "s", "lower", "span:analytic.pseudothreshold",
           "wall_s on cli-session (table1, threshold); wall_s on curves"),
    Metric("analytic.code_failure_s", "s", "lower", "span:analytic.code_failure",
           "wall_s on cli-session (fidelity sweep); wall_s on curves"),
    Metric("analytic.curve_evals", "count", "lower", "count:analytic.curve_evals",
           "wall_s on cli-session; wall_s on curves"),
    Metric("analytic.solves_failed", "count", "lower", "count:analytic.solves_failed",
           "ops_ok_frac on cli-session and curves"),
    *(
        Metric(f"verify.{s}_s", "s", "lower", f"span:verify.{s}", "wall_s on cli-session")
        for s in VERIFY_SUITES
    ),
    Metric("verify.checks", "count", "higher", "count:verify.checks", "wall_s on cli-session"),
    Metric("verify.checks_failed", "count", "lower", "count:verify.checks_failed",
           "ops_ok_frac on cli-session"),
    *(
        Metric(f"cli.{call}_s", "s", "lower", f"span:cli.{call}", "wall_s on cli-session")
        for call in CLI_CALL_NAMES
    ),
    Metric("trace.overhead_s", "s", "lower", "run",
           "none: median traced wall_s minus median untraced wall_s"),
    Metric("ops_failed_frac", "ratio", "lower", "run",
           "ops_ok_frac on every workload; nonzero on cli-session and curves "
           "from the known depth-4 qd10 failures"),
)


def layer_values(spans_self: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values one traced round (or probe) provides."""
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        kind, _, key = metric.source.partition(":")
        if kind == "span" and key in spans_self:
            values[metric.name] = spans_self[key]
        elif kind == "count" and key in counts:
            values[metric.name] = counts[key]
    return values
