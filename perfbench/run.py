"""End-to-end and per-layer benchmark for qdq.

    python3 perfbench/run.py --workload mc-10q --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; needs only the source tree (``src`` goes on
PYTHONPATH) and numpy.  This process drives rounds until ``--seconds`` have
passed; each round runs the workload in fresh single-threaded child
processes, so import and set-up are paid as a user pays them.  Workloads:

* ``mc-10q``: mc.estimate_pf on qd10/dq10, depolarizing3, 4**10-entry
  failure tables; the kernel, the sampler and the table build show here.
* ``mc-6q``: the same layers on qd6/dq6 bit-flip (64-entry tables, short
  blocks), where a change tuned for long blocks shows as a regression.
* ``cli-session``: nine cold ``python -m qdq.cli`` calls, what a user waits
  for.
* ``curves``: pseudothreshold solves and code_failure sweeps over every
  curve and variant; the scalar analytic layer only.

``cli-session`` and ``curves`` are not in BENCHMARK.json: on a shared 2-vCPU
host their run-to-run spread reached the widest bound allowed.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` half of the rounds run traced and it
holds every per-layer metric instead (see metrics.py), and the spans are
written to ``perfbench/out/``.  Every operation is checked against an exact
or pinned value (checks.py); checks are not timed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

MIN_ROUNDS = 3
# Every child must be done this long after the run started, so the whole
# run, checks included, ends well inside three minutes.
CHILD_DEADLINE_S = 150.0
STOP_ROUNDS_AFTER_S = 120.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


@dataclass
class Child:
    exit: int
    stdout: str
    stderr: str
    start: float
    end: float
    rss_mb: float


@dataclass
class Round:
    traced: bool
    wall_s: float
    setup_s: float
    shots: int
    mc_s: float
    rss_mb: float
    ops: list[dict]
    spans: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    absent: dict = field(default_factory=dict)
    sweeps: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


class Runner:
    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.env.update({var: "1" for var in THREAD_VARS})

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; its own peak RSS comes from wait4."""
        timeout = max(5.0, CHILD_DEADLINE_S - (time.perf_counter() - self.started))
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            chunks: dict[str, bytes] = {}
            readers = [
                threading.Thread(target=lambda k=k, s=s: chunks.__setitem__(k, s.read()))
                for k, s in (("out", proc.stdout), ("err", proc.stderr))
            ]
            for reader in readers:
                reader.start()
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            for reader in readers:
                reader.join()
        return Child(
            exit=proc.returncode,
            stdout=chunks["out"].decode(errors="replace"),
            stderr=chunks["err"].decode(errors="replace"),
            start=start,
            end=end,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def worker(self, spec: dict, traced: bool) -> tuple[Child, dict | None]:
        child = self.spawn([str(HERE / "worker.py"), json.dumps({**spec, "trace": traced})])
        if child.exit != 0:
            sys.stderr.write(f"worker exited {child.exit}:\n{child.stderr[-2000:]}\n")
            return child, None
        return child, json.loads(child.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def _specs(workload: str, seed: int) -> dict:
    if workload in workloads.MC_GRIDS:
        return {"body": "mc", "points": workloads.mc_points(workload, seed)}
    if workload == "curves":
        return {"body": "curves", **workloads.curves_inputs(seed)}
    calls = workloads.cli_calls(seed)
    tables = sorted({(c["expect"]["code"], c["expect"]["alphabet"])
                     for c in calls if "alphabet" in c["expect"]})
    return {"calls": calls, "setup": {"body": "cli-setup", "tables": tables}}


def worker_round(runner: Runner, spec: dict, traced: bool) -> Round:
    child, res = runner.worker(spec, traced)
    if res is None:
        # Every operation of the round failed; the round is not timed.
        n_ops = len(spec["points"]) if "points" in spec else len(spec["solves"]) + 1
        return Round(traced, math.nan, math.nan, 0, math.nan, child.rss_mb,
                     [{"error": f"worker exited {child.exit}"}] * n_ops)
    return Round(
        traced=traced,
        wall_s=res["t_last"] - child.start,
        setup_s=res["setup_s"],
        shots=res["shots"],
        mc_s=res["mc_s"],
        rss_mb=child.rss_mb,
        ops=res["ops"],
        spans=res["spans"],
        counts=res["counts"],
        absent=res["absent"],
        sweeps=res.get("sweeps", []),
        facts={"numpy": res.get("numpy"), "backend": res.get("backend")},
    )


def cli_session(
    runner: Runner, calls: list[dict], tracer: Tracer
) -> tuple[list[Child], list[dict]]:
    children, ops = [], []
    for op, call in enumerate(calls):
        child = runner.spawn(["-m", "qdq.cli", *call["argv"]])
        tracer.record(f"cli.{call['name']}", child.start, child.end, op)
        children.append(child)
        ops.append({"exit": child.exit, "stdout": child.stdout, "stderr": child.stderr})
    return children, ops


def cli_round(runner: Runner, spec: dict, traced: bool) -> Round:
    tracer = Tracer(traced)
    children, ops = cli_session(runner, spec["calls"], tracer)
    mc_calls = [(c, ch) for c, ch in zip(spec["calls"], children) if "shots" in c["expect"]]
    _, setup = runner.worker(spec["setup"], False)
    return Round(
        traced=traced,
        wall_s=sum(ch.end - ch.start for ch in children),
        setup_s=setup["setup_s"] if setup else math.nan,
        shots=sum(c["expect"]["shots"] for c, _ in mc_calls),
        mc_s=sum(ch.end - ch.start for _, ch in mc_calls),
        rss_mb=max(ch.rss_mb for ch in children),
        ops=ops,
        spans=tracer.spans,
        facts={"numpy": setup.get("numpy"), "backend": setup.get("backend")} if setup else {},
    )


def run_rounds(
    runner: Runner, workload: str, spec: dict, seconds: float, trace: bool
) -> list[Round]:
    # Untimed warm-up: bytecode caches and the page cache, which users have.
    runner.spawn(["-c", "import qdq.cli"])
    rounds: list[Round] = []
    start = time.perf_counter()
    min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if time.perf_counter() - runner.started > STOP_ROUNDS_AFTER_S:
            break
        traced = trace and len(rounds) % 2 == 0
        if workload == "cli-session":
            rounds.append(cli_round(runner, spec, traced))
        else:
            rounds.append(worker_round(runner, spec, traced))
    return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(rounds: list[Round], ops_ok_frac: float) -> dict[str, float]:
    """Medians over the untraced rounds whose processes all completed."""
    rounds = [r for r in rounds if not math.isnan(r.wall_s + r.setup_s + r.mc_s)]
    if not rounds:
        raise SystemExit("perfbench: no round completed; see the worker errors above")
    return {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "mc.shots_per_s": statistics.median(r.shots / r.mc_s for r in rounds),
        "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
        "ops_ok_frac": ops_ok_frac,
    }


def _layer_keys() -> dict[str, str]:
    """Span or count name -> per-layer metric name."""
    return {m.source.partition(":")[2]: m.name for m in metrics.PER_LAYER if m.source != "run"}


def probe_spec(seed: int, want: list[str]) -> dict:
    """Small seeded inputs for the layers a workload's own calls miss: one
    qd6 MC point, the table1 solves plus dq10 printed and one solve that
    hits the known depth-4 qd10 defect, one sweep."""
    import checks

    curves = workloads.curves_inputs(seed)
    point = {**curves["canary"], "shots": 100_000}
    solves = [
        {"code": code, "variant": variant, "mu": 0.0, "depth": 1}
        for code, variant in (*((c, v) for c, v, _, _ in checks.TABLE1), ("dq10", "printed"))
    ]
    solves.append({"code": "qd10", "variant": "table", "mu": 0.4, "depth": 4})
    return {
        "body": "probe",
        "want": want,
        "mc_points": [point],
        "solves": solves,
        "sweeps": curves["sweeps"][:1],
        "suites": list(workloads.VERIFY_SUITES),
    }


def per_layer(runner: Runner, seed: int, rounds: list[Round], ops_failed_frac: float):
    """Per-layer values from traced rounds (median over them), then probes
    for every layer those rounds did not reach."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    per_round = [metrics.layer_values(self_times(r.spans), r.counts) for r in traced]
    values = {
        name: statistics.median(v[name] for v in per_round if name in v)
        for name in {n for v in per_round for n in v}
    }
    absent = {k: v for r in traced for k, v in r.absent.items()}
    probes: list[dict] = []

    keys = _layer_keys()
    missing = [key for key, name in keys.items() if name not in values]
    cli_missing = [k for k in missing if k.startswith("cli.")]
    worker_missing = [k for k in missing if not k.startswith("cli.")]
    if worker_missing:
        child, res = runner.worker(probe_spec(seed, worker_missing), True)
        if res is not None:
            found = metrics.layer_values(self_times(res["spans"]), res["counts"])
            values.update({keys[k]: found[keys[k]] for k in worker_missing if keys[k] in found})
            absent.update(res["absent"])
            probes.append({"process": "probe", "spans": res["spans"], "counts": res["counts"]})
    if cli_missing:
        tracer = Tracer(True)
        cli_session(runner, workloads.cli_calls(seed), tracer)
        values.update(metrics.layer_values(self_times(tracer.spans), {}))
        probes.append({"process": "cli-probe", "spans": tracer.spans})

    values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in untraced
    )
    values["ops_failed_frac"] = ops_failed_frac
    return values, absent, probes


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def machine_facts(rounds: list[Round]) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": next((r.facts["numpy"] for r in rounds if r.facts.get("numpy")), None),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": next((r.facts["backend"] for r in rounds if r.facts.get("backend")), None),
        "commit": "unknown (not a git checkout)",
    }
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if git.returncode == 0:
            facts["commit"] = git.stdout.strip()
    return facts


def check(workload: str, spec: dict, rounds: list[Round]):
    import checks

    if workload in workloads.MC_GRIDS:
        return checks.check_mc(workload, spec, rounds)
    if workload == "curves":
        return checks.check_curves(spec, rounds)
    return checks.check_cli(spec, rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qdq source tree under {ROOT / 'src'}; "
                         "run from a repository checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    runner = Runner(time.perf_counter())
    spec = _specs(args.workload, args.seed)
    rounds = run_rounds(runner, args.workload, spec, args.seconds, bool(args.trace))
    verdicts = check(args.workload, spec, rounds)

    tally = [v for row in verdicts.ops for v in row]
    attempted = len(tally)
    failed = tally.count("failed")
    ops_failed_frac = (failed + tally.count("known")) / attempted
    correct = failed == 0 and all(ok for _, ok, _ in verdicts.checks)

    facts = machine_facts(rounds)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={len(rounds)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for line in verdicts.notes:
        print(f"  {line}")
    for name, ok, detail in verdicts.checks:
        shown = f" ({detail})" if detail and not ok else ""
        print(f"check {'PASS' if ok else 'FAIL'} {name}{shown}")
    if verdicts.known:
        names = sorted(set(verdicts.known))
        print(f"known defect (ROADMAP item 4, counted in ops_failed_frac): {len(names)} "
              "operations fail with 'p must lie in [0, 1]' on -eps: " + "; ".join(names))
    print(f"ops: attempted={attempted} failed={failed} known-defect={tally.count('known')} "
          f"ops_failed_frac={ops_failed_frac:.6f}")

    if args.trace:
        values, absent, probes = per_layer(runner, args.seed, rounds, ops_failed_frac)
        chosen = metrics.PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "facts": facts,
                "rounds": [{"traced": r.traced, "wall_s": r.wall_s, "spans": r.spans,
                            "counts": r.counts} for r in rounds if r.traced],
                "probes": probes, "per_layer": values, "absent": absent,
            }, fh)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        for name, reason in sorted(absent.items()):
            print(f"absent: {name}: {reason}")
    else:
        values = end_to_end([r for r in rounds if not r.traced], 1.0 - ops_failed_frac)
        chosen = metrics.END_TO_END

    for m in chosen:
        shown = f"{values[m.name]:.6g}" if m.name in values else "absent"
        what = f"moves {m.note}" if args.trace else m.note
        print(f"{m.name:<32} {shown:>14} {m.unit:<8} ({m.better} is better; {what})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in chosen if m.name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
