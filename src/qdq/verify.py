"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns (name, ok, detail) tuples; the CLI prints one line per
check and exits nonzero when any fails.  This module is the one statement of
each acceptance contract: ``tests/test_acceptance.py`` only selects these
checks by name and times them, so a packaged install can be validated
without pytest.  Expected per-code values live in :mod:`qdq._tables`, with
the threshold tolerances pinned in ``_tables.SUMMARY``; every other
tolerance is stated once, at its check below.  The suites that cover several
codes loop over :func:`qdq.concat.code_ids`, and a registered id with no
fixture gives one failed ``<suite>.fixture-<id>`` check.  The codewords
suite composes each code's expected codewords from the base-code entries of
``_tables.CODEWORDS`` that its record names as outer and inner.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from . import _tables, analytic, concat, dfs, mc, pauli, stabilizer, statevec
from .analytic import Alphabet, NoiseModel
from .stabilizer import ErrorKind

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def _missing_fixture(
    suite: str, cid: str, *tables: str, keys: tuple[str, ...] = ()
) -> list[Check]:
    """One failed ``<suite>.fixture-<cid>`` check if a named table lacks any
    of ``keys`` (default: cid itself)."""
    keys = keys or (cid,)
    absent = [
        f"_tables.{t}" for t in tables if any(k not in getattr(_tables, t) for k in keys)
    ]
    if not absent:
        return []
    return [_check(f"{suite}.fixture-{cid}", False, f"no entry in {', '.join(absent)}")]


# ---------------------------------------------------------------------------


def suite_pauli() -> list[Check]:
    checks = []
    ok = True
    for n in (1, 2, 3):
        for phase in range(4):
            for letters in itertools.product("IXYZ", repeat=n):
                text = ("", "i", "-", "-i")[phase] + "".join(letters)
                if str(pauli.parse(text)) != text:
                    ok = False
    checks.append(_check("pauli.round-trip-exhaustive-n<=3", ok))
    checks.append(
        _check(
            "pauli.product-ZZ*XX",
            str(pauli.multiply(pauli.parse("ZZ"), pauli.parse("XX"))) == "-YY",
        )
    )
    a, b = pauli.parse("XZZXI"), pauli.parse("IXZZX")
    checks.append(_check("pauli.commutes-generators", pauli.commutes(a, b)))
    square_ok = all(
        pauli.multiply(p, p).x == 0 and pauli.multiply(p, p).z == 0
        for p in (pauli.parse(s) for s in ("X", "iY", "-ZZ", "XYZI"))
    )
    checks.append(_check("pauli.squares-to-phase", square_ok))
    return checks


def suite_stabilizer() -> list[Check]:
    checks = []
    for name in stabilizer.builtin_names():
        report = stabilizer.validate(stabilizer.builtin(name))
        checks.append(_check(f"stabilizer.validate-{name}", report.valid,
                             "; ".join(report.failures)))
    rep3 = stabilizer.builtin("repetition-3")
    checks.append(
        _check(
            "stabilizer.syndrome-rep3-XII",
            stabilizer.syndrome(rep3, pauli.parse("XII")) == (1, 1),
        )
    )
    checks.append(
        _check(
            "stabilizer.classify-rep3-XXX-logical",
            stabilizer.classify(rep3, pauli.parse("XXX")).kind is ErrorKind.LOGICAL,
        )
    )
    qd6 = concat.concatenated("qd6").code
    checks.append(
        _check(
            "stabilizer.syndrome-qd6-XIIIII",
            stabilizer.syndrome(qd6, pauli.parse("XIIIII")) == (0, 0, 0, 1, 1),
        )
    )
    return checks


def suite_dfs() -> list[Check]:
    group = dfs.AbelianErrorGroup.from_strings(["II", "XX"])
    characters = dfs.characters(group)  # plus, then minus
    projectors = [dfs.projector(chi) for chi in characters]
    checks = [
        _check(
            "dfs.projector-idempotent",
            all(np.allclose(proj @ proj, proj, atol=1e-12) for proj in projectors),
        ),
        _check(
            "dfs.projectors-resolve-identity",
            np.allclose(sum(projectors), np.eye(4), atol=1e-12),
        ),
    ]
    for label, chi, terms in zip(
        ("plus", "minus"), characters, (_tables.DFS2_TERMS, _tables.DFS2_MINUS_TERMS)
    ):
        basis = dfs.df_basis(chi)
        span_ok = len(basis) == len(terms) and all(
            statevec.states_equal_up_to_phase(got, statevec.state_from_terms(2, want))
            for got, want in zip(basis, terms)
        )
        checks.append(_check(f"dfs.{label}-basis-span", span_ok))
    # |00> is an equal superposition of one vector from each irrep.
    cross = statevec.basis_state(2, 0b00)
    checks.append(
        _check(
            "dfs.cross-irrep-not-invariant",
            not any(dfs.invariant(cross, chi) for chi in characters),
        )
    )
    code = dfs.as_stabilizer_code(characters[0])
    same = (
        code.generators == stabilizer.builtin("dfs-2").generators
        and code.passive_mask == (True,)
    )
    checks.append(_check("dfs.plus-exports-passive-code", same))
    return checks


def _string_sets(groups) -> set[frozenset[str]]:
    return {frozenset(map(str, group)) for group in groups}


def suite_concat() -> list[Check]:
    # One list per kind of check; the report lists them kind by kind.
    fixtures, counts, generators, equivalence, degeneracy, passive, efficiency = (
        [] for _ in range(7)
    )
    for cid in concat.code_ids():
        missing = _missing_fixture("concat", cid, "SUMMARY", "GENERATOR_CLASSES")
        fixtures += missing
        if missing:
            continue
        cc = concat.concatenated(cid)
        summary = _tables.SUMMARY[cid]
        n_sets, per_set = summary["sets"]
        sets = cc.equivalence.values()
        sizes = {len(s) for s in sets}
        counts.append(
            _check(
                f"concat.counts-{cid}",
                len(sets) == n_sets
                and sizes == {per_set}
                and sum(map(len, sets)) == n_sets * per_set,
                f"got {len(sets)} sets, sizes {sizes}",
            )
        )
        report = stabilizer.validate(cc.code)
        counts.append(_check(f"concat.representatives-valid-{cid}", report.valid,
                             "; ".join(report.failures)))

        fixture = _tables.GENERATOR_CLASSES[cid]
        passive_reps = [c.representatives for c in cc.classes if c.passive]
        active = [c.representatives for c in cc.classes if not c.passive]
        ok = len(passive_reps) == len(fixture["passive"])
        ok &= len(active) == len(fixture["active"])
        ok &= _string_sets(passive_reps) == _string_sets(fixture["passive"])
        ok &= {str(reps[0]) for reps in active} == {reps[0] for reps in fixture["active"]}
        # Full representative sets, unless the fixture lists only the
        # canonical representative and the class size.
        multiplicity = fixture.get("active_multiplicity")
        if multiplicity:
            ok &= all(len(reps) == multiplicity for reps in active)
        else:
            ok &= _string_sets(active) == _string_sets(fixture["active"])
            ok &= sorted(map(len, active)) == sorted(map(len, fixture["active"]))
        generators.append(_check(f"concat.generators-{cid}", ok))

        if "equivalence" in summary:
            ok = _string_sets(sets) == _string_sets(summary["equivalence"])
            equivalence.append(_check(f"concat.equivalence-{cid}", ok))

        # Generator degeneracy: same syndrome bit from every representative.
        if any(len(c.representatives) > 1 for c in cc.classes):
            errors = [e for s in sets for e in s]
            ok = all(
                len({pauli.commutes(rep, error) for rep in gclass.representatives}) == 1
                for gclass in cc.classes
                for error in errors
            )
            degeneracy.append(_check(f"concat.generator-degeneracy-{cid}", ok))

        # Passive errors are stabilizer elements, so also pairwise degenerate.
        ok = all(
            stabilizer.classify(cc.code, e).kind is ErrorKind.STABILIZER for e in cc.passive
        )
        passive.append(_check(f"concat.passive-single-set-{cid}", ok))

        phi, phip = concat.hamming_efficiency(cc.equivalence, cc.code.n, cc.code.k)
        efficiency.append(
            _check(
                f"concat.efficiency-{cid}",
                isinstance(phi, Fraction)
                and isinstance(phip, Fraction)
                and (str(phi), str(phip)) == (summary["phi"], summary["phi_prime"]),
                f"phi={phi} phi'={phip}",
            )
        )
    return fixtures + counts + generators + equivalence + degeneracy + passive + efficiency


def suite_codewords() -> list[Check]:
    checks = []
    for cid in concat.code_ids():
        record = concat.record(cid)
        missing = _missing_fixture(
            "codewords", cid, "CODEWORDS", keys=(record.outer, record.inner)
        )
        checks += missing
        if missing:
            continue
        outer, inner = (_tables.CODEWORDS[name] for name in (record.outer, record.inner))
        want0, want1 = (_concatenated_state(terms, inner) for terms in outer)
        cc = concat.concatenated(cid)
        got0, got1 = statevec.codewords(cc.code)
        ok0 = statevec.states_equal_up_to_phase(got0, want0)
        ok1 = statevec.states_equal_up_to_phase(got1, want1)
        detail = ""
        if not (ok0 and ok1):
            bad = got0 - want0 if not ok0 else got1 - want1
            detail = f"first failing amplitude index {int(np.argmax(np.abs(bad)))}"
        checks.append(_check(f"codewords.expansion-{cid}", ok0 and ok1, detail))

        ok = all(
            abs(statevec.expectation(w, rep) - 1.0) < 1e-9
            for gclass in cc.classes
            for rep in gclass.representatives
            for w in (got0, got1)
        )
        checks.append(_check(f"codewords.generator-eigenvalues-{cid}", ok))
    return checks


def _concatenated_state(outer_terms, inner_terms) -> np.ndarray:
    """Normalized sum over outer terms of coefficient times the tensor product
    of the inner codewords that the term's bits select."""
    n_inner = len(inner_terms[0][0][0])
    inner = [statevec.state_from_terms(n_inner, terms) for terms in inner_terms]
    total = sum(
        coeff * _kron(*(inner[int(b)] for b in bits)) for bits, coeff in outer_terms
    )
    return total / np.linalg.norm(total)


def _kron(*states: np.ndarray) -> np.ndarray:
    out = states[0]
    for s in states[1:]:
        out = np.kron(out, s)
    return out


def suite_kl() -> list[Check]:
    checks = []
    kl5 = statevec.codewords(stabilizer.builtin("knill-laflamme-5"))
    errors = [pauli.identity(5)] + [
        pauli.single(5, q, letter) for letter in "XYZ" for q in range(5)
    ]
    checks.append(_check("kl.five-qubit-all-single-errors",
                         len(errors) == 16 and bool(statevec.kl_check(kl5, errors))))

    rep3 = statevec.codewords(stabilizer.builtin("repetition-3"))
    flips = [pauli.identity(3)] + [pauli.single(3, q, "X") for q in range(3)]
    checks.append(_check("kl.rep3-bitflips", bool(statevec.kl_check(rep3, flips))))
    with_z = flips + [pauli.single(3, 0, "Z")]
    result = statevec.kl_check(rep3, with_z)
    checks.append(
        _check("kl.rep3-z-fails-with-witness", not result.ok and result.witness is not None)
    )
    return checks


def suite_analytic() -> list[Check]:
    checks = []
    # Exact equality pins the closed forms against a transcription typo.
    rep3_ok = all(
        analytic.standalone_pf("rep3", 0.0, p) == 3 * p**2 - 2 * p**3
        and analytic.standalone_pf("rep3", 1.0, p) == p
        for p in map(float, np.linspace(0.0, 1.0, 101))
    )
    checks.append(_check("analytic.rep3-limits", rep3_ok))

    worst = max(
        abs(
            analytic.cross_block_correlation(float(p), float(m))
            - analytic.cross_block_closed_form(float(p), float(m))
        )
        for p in np.linspace(0, 1, 21)
        for m in np.linspace(0, 1, 21)
    )
    checks.append(_check("analytic.cross-block-identity", worst < 1e-12, f"worst={worst:g}"))

    grid = np.arange(0.005, 0.5, 0.005)
    order_ok = True
    for fam in (("qd6", "dq6"), ("qd10", "dq10")):
        qd = analytic.code_failure(fam[0])
        dq = analytic.code_failure(fam[1])
        for p in grid:
            if dq(0.0, float(p)) > qd(0.0, float(p)) + 1e-12:
                order_ok = False
            if qd(0.75, float(p)) > dq(0.75, float(p)) + 1e-12:
                order_ok = False
    checks.append(_check("analytic.crossover-orderings", order_ok))

    depth = []
    for cid in concat.code_ids():
        missing = _missing_fixture("analytic", cid, "SUMMARY")
        checks += missing
        if missing:
            continue
        variant = concat.REGISTRY[cid].table_variant
        want, tol = _tables.SUMMARY[cid]["p_thres"]
        ladder = analytic.depth_ladder(analytic.failure_curve(cid, 0.0, variant))
        # A fixed point of the curve is one of every self-concatenation, and
        # below the lowest one pf(p) - p keeps its sign at every depth.
        roots = [analytic.pseudothreshold(ladder(d)) for d in (1, 2, 3, 4)]
        thr = roots[0]
        checks.append(
            _check(
                f"analytic.threshold-{cid}-{variant}",
                thr is not None and abs(thr - want) <= tol,
                f"got {thr}",
            )
        )
        ok = None not in roots and max(roots) - min(roots) < 1e-6
        ok = ok and all(abs(r - want) <= tol for r in roots)
        depth.append(_check(f"analytic.depth-invariance-{cid}", ok, f"roots {roots}"))
    printed = analytic.pseudothreshold(analytic.failure_curve("dq10", 0.0, "printed"))
    checks.append(_check("analytic.dq10-printed-no-crossing", printed is None))
    return checks + depth


def suite_mc(shots: int = 100_000, seed: int = 2024) -> list[Check]:
    checks = []
    for cid in ("qd6", "dq6"):
        worst = 0.0
        for p in (0.05, 0.1, 0.2):
            for m in (0.0, 0.5, 0.75):
                cfg = mc.SampleConfig(NoiseModel(p, m, Alphabet.BITFLIP), cid, shots, seed)
                z = mc.z_score(mc.estimate_pf(cfg), mc.analytic_reference(cid, cfg.model))
                worst = max(worst, z)
        checks.append(_check(f"mc.analytic-agreement-{cid}", worst <= 4.0, f"max z={worst:.2f}"))
    return checks


SUITES: dict[str, Callable[[], list[Check]]] = {
    "pauli": suite_pauli,
    "stabilizer": suite_stabilizer,
    "dfs": suite_dfs,
    "concat": suite_concat,
    "codewords": suite_codewords,
    "kl": suite_kl,
    "analytic": suite_analytic,
    "mc": suite_mc,
}


def run_suites(names: Optional[Iterable[str]] = None) -> list[Check]:
    """The checks of the named suites (default: all) at their pinned parameters."""
    results: list[Check] = []
    for name in list(names) if names else list(SUITES):
        if name not in SUITES:
            valid = ", ".join(SUITES)
            raise ValueError(f"unknown suite {name!r}; valid: {valid}")
        results.extend(SUITES[name]())
    return results
