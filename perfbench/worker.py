"""One fresh, single-threaded benchmark process.

Started by ``run.py`` as ``python perfbench/worker.py '<spec json>'`` with
``src`` on PYTHONPATH; prints one JSON line with its timestamps (from
``time.perf_counter``, which is CLOCK_MONOTONIC and so comparable with the
parent's), the outputs of every operation, and, when traced, its spans and
counts.  Bodies:

* ``mc``: setup (import, concatenations, failure tables), then
  ``mc.estimate_pf`` on every point.
* ``curves``: pseudothreshold solves and code_failure sweeps, then one MC
  control point outside the timed work.
* ``cli-setup``: the setup a CLI session relies on, nothing else.
* ``probe``: traced calls into the layers a workload's own calls missed.

Operations catch every exception: a failed MC point or solve is recorded
with its error and counted by run.py, never allowed to end the round.
"""

import importlib
import json
import sys
import time
import traceback
from contextlib import contextmanager

from spans import Tracer
from workloads import ALPHABETS, CONCATENATIONS, SWEEP_POINTS, SWEEP_STEP


def _imports(tracer: Tracer, modules: list[str]) -> None:
    with tracer.span("import.numpy"):
        importlib.import_module("numpy")
    with tracer.span("import.qdq"):
        for name in modules:
            importlib.import_module(name)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _private_probe(tracer: Tracer, layer: str, fn, span=None):
    """Call a private qdq function, as a span when ``span`` is given.  When
    the function is gone or no longer takes these arguments, whatever it
    raises, record the layer as absent instead of failing the round."""
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a private probe boundary: report, never fail
        tracer.absent[layer] = _error(exc)
        return None
    if span is not None:
        tracer.record(span, start, time.perf_counter())
    return value


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _config(point: dict):
    from qdq import mc
    from qdq.analytic import Alphabet, NoiseModel

    model = NoiseModel(point["p"], point["mu"], Alphabet(point["alphabet"]))
    return mc.SampleConfig(model, point["code"], point["shots"], point["seed"])


def _setup_tables(tracer: Tracer, pairs: list[tuple[str, str]]) -> None:
    """Build concatenations and failure tables through the public API: a
    one-shot estimate per (code, alphabet) leaves the table cached.  Traced
    rounds first call the private table function, timed as a span."""
    from qdq import concat, mc
    from qdq.analytic import Alphabet

    for code in dict.fromkeys(code for code, _ in pairs):
        with tracer.span(f"concat.build.{code}"):
            concat.concatenated(code)
    for code, alphabet in pairs:
        if tracer.enabled:
            table = _private_probe(
                tracer, "mc.failure_table",
                lambda: mc._failure_table(code, Alphabet(alphabet)),
                span=f"mc.failure_table.{code}",
            )
            if table is not None:
                tracer.count("mc.failure_table_entries", len(table))
        warm = {"code": code, "alphabet": alphabet, "p": 0.0, "mu": 0.0, "shots": 1, "seed": 0}
        mc.estimate_pf(_config(warm))


@contextmanager
def _counting_uniforms(tracer: Tracer):
    """While tracing, route ``numpy.random.default_rng`` through a generator
    that counts the floats ``Generator.random`` returns."""
    if not tracer.enabled:
        yield
        return
    import numpy as np

    real = np.random.default_rng

    class CountingGenerator:
        def __init__(self, generator):
            self._generator = generator

        def random(self, *args, **kwargs):
            out = self._generator.random(*args, **kwargs)
            tracer.count("mc.uniforms_drawn", np.size(out))
            return out

        def __getattr__(self, name):
            return getattr(self._generator, name)

    tracer.count("mc.uniforms_drawn", 0)
    np.random.default_rng = lambda *a, **k: CountingGenerator(real(*a, **k))
    try:
        yield
    finally:
        np.random.default_rng = real


def _estimate(tracer: Tracer, point: dict, op) -> tuple[dict, float]:
    from qdq import mc

    start = time.perf_counter()
    try:
        with tracer.span("mc.estimate_pf", op):
            est = mc.estimate_pf(_config(point))
    except Exception as exc:  # an operation boundary: record and go on
        return {"error": _error(exc)}, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return {
        "failures": est.failures,
        "pf_hat": est.pf_hat,
        "stderr": est.stderr,
        "shots": est.shots,
    }, elapsed


def _layer_floors(tracer: Tracer, points: list[dict], outputs: list[dict]) -> None:
    """After the timed work: per point, the bare numpy draw of the uniforms
    estimate_pf consumes today, one per qubit per shot (``rng.floor``), and
    the private kernel alone on those uniforms (``kernel.count_failures``)."""
    import numpy as np

    from qdq import concat, mc

    chunk = getattr(mc, "CHUNK_SHOTS", 1 << 16)

    def draws(point: dict, n: int):
        rng = np.random.default_rng(point["seed"])
        remaining = point["shots"]
        while remaining > 0:
            m = min(chunk, remaining)
            yield rng.random((m, n))
            remaining -= m

    def kernel(point: dict, ccode, uniforms_chunks) -> tuple[int, float]:
        from qdq import _kernels

        config = _config(point)
        marginal, conditional, starts, sizes, strides = mc._chain_arrays(config.model, ccode)
        table = mc._failure_table(point["code"], config.model.alphabet)
        failures, spent = 0, 0.0
        for uniforms in uniforms_chunks:
            start = time.perf_counter()
            failures += _kernels.count_failures(
                uniforms, starts, sizes, marginal, conditional, strides, table
            )
            spent += time.perf_counter() - start
        return failures, spent

    for op, (point, out) in enumerate(zip(points, outputs)):
        ccode = concat.concatenated(point["code"])
        n = ccode.spec.n_cc
        start = time.perf_counter()
        for _ in draws(point, n):
            pass
        tracer.record("rng.floor", start, time.perf_counter(), op)

        measured = _private_probe(
            tracer, "kernel.count_failures", lambda: kernel(point, ccode, draws(point, n))
        )
        if measured is not None:
            failures, spent = measured
            end = time.perf_counter()
            tracer.record("kernel.count_failures", end - spent, end, op)
            out["kernel_failures"] = failures


def body_mc(spec: dict, tracer: Tracer, result: dict) -> None:
    points = spec["points"]
    t_setup = time.perf_counter()
    with tracer.span("setup"):
        _imports(tracer, ["qdq.mc"])
        _setup_tables(tracer, sorted({(p["code"], p["alphabet"]) for p in points}))
    result["setup_s"] = time.perf_counter() - t_setup

    mc_s, shots = 0.0, 0
    with _counting_uniforms(tracer), tracer.span("work"):
        for op, point in enumerate(points):
            out, elapsed = _estimate(tracer, point, op)
            result["ops"].append(out)
            mc_s += elapsed
            shots += point["shots"]
    result["t_last"] = time.perf_counter()
    result["mc_s"], result["shots"] = mc_s, shots
    if tracer.enabled:
        _layer_floors(tracer, points, result["ops"])


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def _counted(tracer: Tracer, curve):
    def evaluate(p):
        tracer.count("analytic.curve_evals")
        return curve(p)

    return evaluate


def _solves(tracer: Tracer, solves: list[dict], result: dict) -> None:
    from qdq import analytic

    tracer.count("analytic.curve_evals", 0)
    tracer.count("analytic.solves_failed", 0)
    for op, solve in enumerate(solves):
        try:
            curve = analytic.failure_curve(solve["code"], solve["mu"], solve["variant"])
            if tracer.enabled:
                curve = _counted(tracer, curve)
            with tracer.span("analytic.pseudothreshold", op):
                threshold = analytic.pseudothreshold(
                    analytic.depth_recursion(curve, solve["depth"])
                )
        except Exception as exc:  # an operation boundary: record and go on
            tracer.count("analytic.solves_failed")
            result["ops"].append({"error": _error(exc)})
            continue
        result["ops"].append({"threshold": threshold})


def _sweeps(tracer: Tracer, sweeps: list[dict], result: dict) -> None:
    from qdq import analytic

    for op, sweep in enumerate(sweeps):
        with tracer.span("analytic.code_failure", op):
            pf = analytic.code_failure(sweep["code"], sweep["variant"])
            values = [pf(sweep["mu"], i * SWEEP_STEP) for i in range(SWEEP_POINTS)]
        result["sweeps"].append(
            {"first": values[0], "min": min(values), "max": max(values), "sum": sum(values)}
        )


def body_curves(spec: dict, tracer: Tracer, result: dict) -> None:
    t_setup = time.perf_counter()
    with tracer.span("setup"):
        _imports(tracer, ["qdq.analytic"])
    result["setup_s"] = time.perf_counter() - t_setup
    result["sweeps"] = []
    with tracer.span("work"):
        _solves(tracer, spec["solves"], result)
        _sweeps(tracer, spec["sweeps"], result)
    result["t_last"] = time.perf_counter()

    # Control point for mc.shots_per_s, outside the timed analytic work and
    # untraced: curves' MC layer metrics come from the probe.
    canary, untraced = spec["canary"], Tracer(False)
    _setup_tables(untraced, [(canary["code"], canary["alphabet"])])
    out, elapsed = _estimate(untraced, canary, None)
    result["ops"].append(out)
    result["mc_s"], result["shots"] = elapsed, canary["shots"]


# ---------------------------------------------------------------------------
# CLI session setup and probes
# ---------------------------------------------------------------------------


def body_cli_setup(spec: dict, tracer: Tracer, result: dict) -> None:
    t_setup = time.perf_counter()
    _imports(tracer, ["qdq.cli"])
    from qdq import concat

    for code in CONCATENATIONS:
        concat.concatenated(code)
    _setup_tables(tracer, [tuple(pair) for pair in spec["tables"]])
    result["setup_s"] = time.perf_counter() - t_setup
    result["t_last"] = time.perf_counter()


def _probe_concat(tracer: Tracer, code: str) -> None:
    from qdq import concat, stabilizer

    outer, inner, order = CONCATENATIONS[code]
    with tracer.span(f"concat.build.{code}"):
        concat.build(stabilizer.builtin(outer), stabilizer.builtin(inner), concat.Order(order))


def _probe_verify(tracer: Tracer, suite: str) -> None:
    from qdq import verify

    try:
        with tracer.span(f"verify.{suite}"):
            checks = verify.run_suites([suite])
    except ValueError as exc:  # suite renamed or removed
        tracer.absent[f"verify.{suite}"] = _error(exc)
        return
    tracer.count("verify.checks", len(checks))
    tracer.count("verify.checks_failed", sum(not ok for _, ok, _ in checks))


def body_probe(spec: dict, tracer: Tracer, result: dict) -> None:
    """Each wanted key is a span or count name from metrics.PER_LAYER."""
    want = set(spec["want"])
    _imports(tracer, ["qdq.cli"])
    tables = [(c, ALPHABETS[c]) for c in CONCATENATIONS if f"mc.failure_table.{c}" in want]
    # _setup_tables builds (and spans) the concatenation of each table's code.
    for code in CONCATENATIONS:
        if f"concat.build.{code}" in want and code not in dict(tables):
            _probe_concat(tracer, code)
    if tables:
        _setup_tables(tracer, tables)
    if want & {"mc.estimate_pf", "mc.uniforms_drawn", "rng.floor", "kernel.count_failures"}:
        points = spec["mc_points"]
        _setup_tables(Tracer(False), sorted({(p["code"], p["alphabet"]) for p in points}))
        with _counting_uniforms(tracer):
            outputs = [_estimate(tracer, point, op)[0] for op, point in enumerate(points)]
        _layer_floors(tracer, points, outputs)
    if want & {"analytic.pseudothreshold", "analytic.curve_evals", "analytic.solves_failed"}:
        _solves(tracer, spec["solves"], result)
    if "analytic.code_failure" in want:
        result["sweeps"] = []
        _sweeps(tracer, spec["sweeps"], result)
    for suite in spec["suites"]:
        if want & {f"verify.{suite}", "verify.checks", "verify.checks_failed"}:
            _probe_verify(tracer, suite)
    result["t_last"] = time.perf_counter()


BODIES = {
    "mc": body_mc,
    "curves": body_curves,
    "cli-setup": body_cli_setup,
    "probe": body_probe,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = Tracer(spec["trace"])
    result = {"ops": []}
    BODIES[spec["body"]](spec, tracer, result)
    result.update(spans=tracer.spans, counts=tracer.counts, absent=tracer.absent)
    try:
        import numpy

        result["numpy"] = numpy.__version__
        from qdq import _kernels

        result["backend"] = _kernels.active_backend()
    except (ImportError, AttributeError) as exc:
        result["backend"] = f"unknown ({_error(exc)})"
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
