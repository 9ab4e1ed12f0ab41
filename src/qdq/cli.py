"""Command-line front end.

Exit codes: 0 success, 1 internal check failure, 2 usage error.  Flags are
checked at parse time, or by the handler before any work when the check
needs other input, and a usage error exits 2 with one JSON object on
stderr.  An unrecognized argument is reported with the subcommand's usage,
like every other error in a subcommand's flags, even when it comes before
the subcommand.  All output is CSV or JSON on stdout (or --out); CSV bytes
are deterministic for fixed flags.  JSON is strict: ``mc run`` reports an
infinite z-score as null, and any other non-finite value is an exit-1
error rather than an invalid document.  A ``fidelity sweep`` of more than
``MAX_SWEEP_ROWS`` (1,000,000) rows, one per grid point pmin + i * step up
to pmax, is a usage error, and so is a ``dfs build`` group on more than
``statevec.MAX_QUBITS`` (12) qubits or printing more than ``MAX_DFS_PAIRS``
(4^10) amplitude pairs, and a ``concat build`` listing more than
``concat.MAX_CORRECTABLE`` (65,536) correctable errors.  ``threshold
--depth`` is at most ``MAX_DEPTH`` (100), ``mc run --shots`` at most
``MAX_SHOTS`` (10^9), and an ``--out`` that names a directory or a path in
a missing directory is a usage error.  So is a ``--variant`` the code's
record has no curve for.  ``verify`` takes no option but ``--out``: it
runs every suite of :data:`qdq.verify.SUITES` at its pinned parameters.
Code ids, curve variants and the variant ``table1`` reports come from
:data:`qdq.concat.REGISTRY`.  The closed-form commands import no numpy:
``dfs``, ``mc`` and ``verify`` are imported by their own handlers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from . import analytic, concat, stabilizer
from .analytic import Alphabet, NoiseModel


# Most rows one ``fidelity sweep`` may emit, one per grid point <= pmax.
MAX_SWEEP_ROWS = 1_000_000

# Most [re, im] pairs one ``dfs build`` may print: 2^n per basis vector, 2^n
# vectors over all characters.  4^10 is a 10-qubit full build, about 7 s and
# 512 MB; an 11-qubit one needs --character.
MAX_DFS_PAIRS = 4**10

# Deepest ``threshold --depth``: every depth from 1 to D is solved and printed
# in ``per_depth``, each on a rung of one ``analytic.depth_ladder``, so the
# curve evaluations grow as D, not D^2.
MAX_DEPTH = 100

# Most ``mc run --shots``: about 30 s at the 30-36 M shots/s of the
# ten-qubit codes.
MAX_SHOTS = 10**9


class _UsageError(ValueError):
    """Bad input that only a handler can detect; exits 2 like a parse error."""


def _curve(code_id: str, mu: float, variant: str) -> Callable[[float], float]:
    """p -> pf on one of the code's curves; a variant it lacks is a usage error."""
    try:
        return analytic.failure_curve(code_id, mu, variant)
    except ValueError as exc:
        raise _UsageError(f"--variant {variant}: {exc}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: object, out: Optional[str]) -> None:
    """Strict JSON: a non-finite number raises ValueError (exit 1)."""
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _code_json(code: stabilizer.StabilizerCode) -> dict:
    return {
        "name": code.name,
        "n": code.n,
        "k": code.k,
        "generators": [str(g) for g in code.generators],
        "logical_x": [str(p) for p in code.logical_x],
        "logical_z": [str(p) for p in code.logical_z],
        "passive": list(code.passive_mask),
    }


def _efficiency_json(value) -> dict:
    if isinstance(value, Fraction):
        return {"value": float(value), "exact": str(value)}
    return {"value": float(value), "exact": None}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_codes(args: argparse.Namespace) -> int:
    if args.action == "list":
        _emit_json(stabilizer.builtin_names(), args.out)
    else:
        _emit_json(_code_json(stabilizer.builtin(args.name)), args.out)
    return 0


def _cmd_concat(args: argparse.Namespace) -> int:
    outer, inner = stabilizer.builtin(args.outer), stabilizer.builtin(args.inner)
    order = concat.Order(args.order)
    count = concat.correctable_count(concat.make_spec(outer, inner, order))
    if count > concat.MAX_CORRECTABLE:
        raise _UsageError(
            f"--outer {args.outer} --inner {args.inner} --order {args.order} lists {count} "
            f"correctable errors; the cap is {concat.MAX_CORRECTABLE}"
        )
    cc = concat.build(outer, inner, order)
    phi, phi_prime = concat.hamming_efficiency(cc.equivalence, cc.code.n, cc.code.k)
    payload = _code_json(cc.code)
    payload.update(
        {
            "generator_classes": [
                {
                    "representatives": [str(r) for r in c.representatives],
                    "passive": c.passive,
                }
                for c in cc.classes
            ],
            "equivalence_class": [[str(e) for e in s] for s in cc.equivalence.values()],
            "phi": _efficiency_json(phi),
            "phi_prime": _efficiency_json(phi_prime),
        }
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_dfs(args: argparse.Namespace) -> int:
    from . import dfs, statevec

    try:
        group = dfs.AbelianErrorGroup.from_strings(args.elements.split(","))
    except ValueError as exc:
        raise _UsageError(f"--elements {args.elements}: {exc}") from None
    if group.n > statevec.MAX_QUBITS:
        raise _UsageError(f"--elements acts on {group.n} qubits; the cap is {statevec.MAX_QUBITS}")
    chars = dfs.characters(group)
    if args.character is not None and not 0 <= args.character < len(chars):
        raise _UsageError(f"--character {args.character} outside [0, {len(chars)})")
    vectors = 1 << group.n if args.character is None else (1 << group.n) // len(chars)
    if vectors << group.n > MAX_DFS_PAIRS:
        raise _UsageError(
            f"--elements: {vectors} basis vectors of {1 << group.n} amplitudes are "
            f"{vectors << group.n} pairs; the cap is {MAX_DFS_PAIRS} "
            "(--character picks one subspace)"
        )
    payload = {
        "n": group.n,
        "elements": [str(g) for g in group.elements],
        "characters": [],
    }
    for index, chi in enumerate(chars):
        if args.character is not None and index != args.character:
            continue
        basis = dfs.df_basis(chi)
        payload["characters"].append(
            {
                "index": index,
                "signs": list(chi.signs()),
                "basis": [[[a.real, a.imag] for a in vec] for vec in basis],
            }
        )
    _emit_json(payload, args.out)
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    if args.pmin > args.pmax:
        raise _UsageError(f"--pmin {args.pmin} exceeds --pmax {args.pmax}")
    # One row per grid point <= pmax, up to float division: floor(span) + 1.
    # The cap is checked first: a subnormal step makes the span infinite,
    # which math.floor cannot take.
    span = (args.pmax - args.pmin) / args.step + 1e-9
    if span >= MAX_SWEEP_ROWS:
        raise _UsageError(
            f"--step {args.step} asks for more than the cap of {MAX_SWEEP_ROWS} rows"
        )
    curve = _curve(args.code, args.mu, args.variant)
    lines = ["p,mu,pf,fe"]
    for i in range(math.floor(span) + 1):
        p = min(args.pmin + i * args.step, args.pmax)
        value = curve(p)
        fe = analytic.entanglement_fidelity(value)
        lines.append(f"{p:.6g},{args.mu:.6g},{value:.6g},{fe:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    ladder = analytic.depth_ladder(_curve(args.code, args.mu, args.variant))
    per_depth = {}
    for depth in range(1, args.depth + 1):
        thr = analytic.pseudothreshold(ladder(depth))
        per_depth[str(depth)] = "no-crossing" if thr is None else thr
    payload = {
        "code": args.code,
        "mu": args.mu,
        "variant": args.variant,
        "depth": args.depth,
        "p_thres": per_depth[str(args.depth)],
        "per_depth": per_depth,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from . import mc

    alphabet = (
        Alphabet(args.alphabet) if args.alphabet else mc.default_alphabet(args.code)
    )
    model = NoiseModel(args.p, args.mu, alphabet)
    config = mc.SampleConfig(model, args.code, args.shots, args.seed)
    analytic_pf = mc.analytic_reference(args.code, model)
    estimate = mc.estimate_pf(config)
    z = math.nan if analytic_pf is None else mc.z_score(estimate, analytic_pf)
    payload = {
        "code": args.code,
        "p": args.p,
        "mu": args.mu,
        "alphabet": alphabet.value,
        "pf_hat": estimate.pf_hat,
        "stderr": estimate.stderr,
        "shots": args.shots,
        "seed": args.seed,
        "analytic": analytic_pf,
        # nan with no analytic value (an off-record alphabet); infinite when
        # stderr is 0 and pf_hat differs from the analytic value.
        "z": z if math.isfinite(z) else None,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    checks = verify.run_suites()
    failures = 0
    lines = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        suffix = f"  ({detail})" if detail and not ok else ""
        lines.append(f"[{status}] {name}{suffix}")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    if failures:
        record = {"failed": [n for n, ok, _ in checks if not ok]}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    codes = concat.code_ids()
    payload = {"codes": codes, "e_type": [], "phi": [], "phi_prime": [], "p_thres": []}
    for cid in codes:
        rec = concat.REGISTRY[cid]
        cc = concat.concatenated(cid)
        phi, phi_prime = concat.hamming_efficiency(cc.equivalence, cc.code.n, cc.code.k)
        thr = analytic.pseudothreshold(analytic.failure_curve(cid, 0.0, rec.table_variant))
        payload["e_type"].append(rec.e_type)
        payload["phi"].append(_efficiency_json(phi))
        payload["phi_prime"].append(_efficiency_json(phi_prime))
        payload["p_thres"].append({"value": thr, "variant": rec.table_variant})
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one JSON object on stderr."""

    def error(self, message: str):  # type: ignore[override]
        record = {"error": message, "usage": self.format_usage().strip()}
        self.exit(2, json.dumps(record) + "\n")


def _parse_number(text: str, cast: Callable[[str], Any]):
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None


def _unit_interval(text: str) -> float:
    value = _parse_number(text, float)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _parse_number(text, float)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = _parse_number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_int_at_most(cap: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"must be <= {cap}, got {text}")
        return value

    return parse


def _nonnegative_int(text: str) -> int:
    value = _parse_number(text, int)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _out_path(text: str) -> str:
    """A file path whose directory exists, checked before any work runs."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no directory {parent}")
    return text


def _leaf(parser: argparse.ArgumentParser, handler: Callable, **defaults: Any) -> None:
    """Add --out and bind the handler; the leaf reports its handler's usage errors."""
    parser.add_argument(
        "--out", type=_out_path, help="write output to this path instead of stdout"
    )
    parser.set_defaults(handler=handler, parser=parser, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdq",
        description="Concatenated active/passive code construction and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    base_names = stabilizer.builtin_names()
    code_ids = concat.code_ids()
    variants = sorted({v for rec in concat.REGISTRY.values() for v in rec.curves})

    codes = sub.add_parser("codes", help="base code registry")
    codes_sub = codes.add_subparsers(dest="action", required=True)
    codes_list = codes_sub.add_parser("list", help="list built-in code names")
    _leaf(codes_list, _cmd_codes, action="list")
    codes_desc = codes_sub.add_parser("describe", help="JSON description of one code")
    codes_desc.add_argument("name", choices=base_names)
    _leaf(codes_desc, _cmd_codes, action="describe")

    conc = sub.add_parser("concat", help="build a concatenated code")
    conc_sub = conc.add_subparsers(dest="action", required=True)
    conc_build = conc_sub.add_parser("build", help="assemble and describe")
    conc_build.add_argument("--outer", required=True, choices=base_names)
    conc_build.add_argument("--inner", required=True, choices=base_names)
    conc_build.add_argument("--order", required=True, choices=["qd", "dq"])
    _leaf(conc_build, _cmd_concat)

    dfs_p = sub.add_parser("dfs", help="decoherence-free subspace construction")
    dfs_sub = dfs_p.add_subparsers(dest="action", required=True)
    dfs_build = dfs_sub.add_parser("build", help="characters and bases of a group")
    dfs_build.add_argument(
        "--elements", default="II,XX", help="comma-separated group elements"
    )
    dfs_build.add_argument("--character", type=int, default=None)
    _leaf(dfs_build, _cmd_dfs)

    fid = sub.add_parser("fidelity", help="failure/fidelity curves")
    fid_sub = fid.add_subparsers(dest="action", required=True)
    sweep = fid_sub.add_parser("sweep", help="CSV sweep over p")
    sweep.add_argument("--code", required=True, choices=code_ids)
    sweep.add_argument("--mu", type=_unit_interval, required=True)
    sweep.add_argument("--pmin", type=_unit_interval, required=True)
    sweep.add_argument("--pmax", type=_unit_interval, required=True)
    sweep.add_argument("--step", type=_positive_float, required=True)
    sweep.add_argument("--variant", default="literal", choices=variants)
    _leaf(sweep, _cmd_fidelity)

    thr = sub.add_parser("threshold", help="pseudothreshold root finding")
    thr.add_argument("--code", required=True, choices=code_ids)
    thr.add_argument("--mu", type=_unit_interval, default=0.0)
    thr.add_argument("--variant", default="literal", choices=variants)
    thr.add_argument("--depth", type=_positive_int_at_most(MAX_DEPTH), default=1)
    _leaf(thr, _cmd_threshold)

    mc_p = sub.add_parser("mc", help="Monte Carlo failure estimation")
    mc_sub = mc_p.add_subparsers(dest="action", required=True)
    run = mc_sub.add_parser("run", help="estimate and compare to the recursion")
    run.add_argument("--code", required=True, choices=code_ids)
    run.add_argument("--p", type=_unit_interval, required=True)
    run.add_argument("--mu", type=_unit_interval, required=True)
    run.add_argument("--shots", type=_positive_int_at_most(MAX_SHOTS), default=100_000)
    run.add_argument("--seed", type=_nonnegative_int, default=2024)
    run.add_argument(
        "--alphabet",
        choices=[a.value for a in Alphabet],
        default=None,
        help="defaults per code family: bitflip for 6 qubits, depolarizing3 for 10",
    )
    _leaf(run, _cmd_mc)

    ver = sub.add_parser("verify", help="run every self-check suite")
    _leaf(ver, _cmd_verify)

    tab = sub.add_parser("table1", help="summary metrics for the four codes")
    _leaf(tab, _cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.handler(args)
    except _UsageError as exc:
        args.parser.error(str(exc))
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
