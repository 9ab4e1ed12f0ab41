"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).  Tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qdq import _tables, analytic, concat, mc, pauli, stabilizer, statevec
from qdq.analytic import Alphabet, NoiseModel


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def fresh_build(code_id: str) -> tuple[concat.ConcatCode, float]:
    record = concat.REGISTRY[code_id]
    outer = stabilizer.builtin(record.outer)
    inner = stabilizer.builtin(record.inner)
    start = time.perf_counter()
    cc = concat.build(outer, inner, record.order)
    return cc, time.perf_counter() - start


def test_criterion_01_structural_counts():
    expected = {"qd6": (4, 8), "dq6": (16, 2), "qd10": (16, 32), "dq10": (256, 2)}
    ok = True
    details = []
    for code_id, (n_sets, per_set) in expected.items():
        cc, elapsed = fresh_build(code_id)
        sizes = {len(s) for s in cc.equivalence.sets}
        good = (
            len(cc.equivalence.sets) == n_sets
            and sizes == {per_set}
            and cc.equivalence.total_elements == n_sets * per_set
            and elapsed < 1.0
        )
        ok &= good
        details.append(f"{code_id}={len(cc.equivalence.sets)}x{sizes} in {elapsed:.3f}s")
    report("1 structural counts", ok, "; ".join(details))


def test_criterion_02_efficiencies_exact():
    want = {
        "qd6": (Fraction(1), Fraction(2, 5)),
        "dq6": (Fraction(1), Fraction(4, 5)),
        "qd10": (Fraction(1), Fraction(4, 9)),
        "dq10": (Fraction(1), Fraction(8, 9)),
    }
    ok = True
    for code_id, (phi_want, phip_want) in want.items():
        cc = concat.concatenated(code_id)
        phi, phip = concat.hamming_efficiency(cc.equivalence, cc.spec.n_cc, cc.spec.k_cc)
        ok &= isinstance(phi, Fraction) and phi == phi_want
        ok &= isinstance(phip, Fraction) and phip == phip_want
    report("2 Table-1 efficiencies", ok)


def test_criterion_03_pseudothresholds():
    cases = [
        ("qd6", "literal", 0.1293, 5e-4),
        ("dq6", "literal", 0.2252, 5e-4),
        ("qd10", "table", 0.0298, 1e-3),
        ("dq10", "literal", 0.0579, 1e-3),
    ]
    ok = True
    details = []
    for code_id, variant, want, tol in cases:
        start = time.perf_counter()
        got = analytic.pseudothreshold(analytic.failure_curve(code_id, 0.0, variant))
        elapsed = time.perf_counter() - start
        good = got is not None and abs(got - want) <= tol and elapsed < 1.0
        ok &= good
        details.append(f"{code_id}/{variant}={got:.4f} in {elapsed:.3f}s")
    printed = analytic.pseudothreshold(analytic.failure_curve("dq10", 0.0, "printed"))
    ok &= printed is None
    details.append(f"dq10/printed={'no-crossing' if printed is None else printed}")
    report("3 Table-1 pseudothresholds", ok, "; ".join(details))


def test_criterion_04_crossover_orderings():
    grid = np.arange(0.005, 0.5, 0.005)
    start = time.perf_counter()
    ok = True
    for qd_id, dq_id in (("qd6", "dq6"), ("qd10", "dq10")):
        qd = analytic.code_failure(qd_id)
        dq = analytic.code_failure(dq_id)
        for p in grid:
            p = float(p)
            ok &= dq(0.0, p) <= qd(0.0, p) + 1e-12
            ok &= qd(0.75, p) <= dq(0.75, p) + 1e-12
    elapsed = time.perf_counter() - start
    report("4 crossover reproduction", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_05_depth_invariance():
    curve = analytic.failure_curve("dq6", 0.0)
    roots = [
        analytic.pseudothreshold(analytic.depth_recursion(curve, depth))
        for depth in (1, 2, 3, 4)
    ]
    spread = max(roots) - min(roots)
    ok = all(r is not None for r in roots)
    ok &= spread < 1e-6
    ok &= all(abs(r - 0.2252) < 1e-3 for r in roots)
    report("5 depth invariance", ok, f"roots={roots[0]:.6f} spread={spread:.2e}")


def test_criterion_06_monte_carlo_agreement():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for code_id in ("qd6", "dq6"):
        for p in (0.05, 0.1, 0.2):
            for mu in (0.0, 0.5, 0.75):
                config = mc.SampleConfig(
                    NoiseModel(p, mu, Alphabet.BITFLIP), code_id, 1_000_000, 20240
                )
                rep = mc.compare(config, mc.analytic_reference(code_id, config.model))
                worst = max(worst, rep.z)
                ok &= rep.z <= 4.0
    elapsed = time.perf_counter() - start
    report(
        "6 Monte Carlo vs analytic",
        ok and elapsed < 60.0,
        f"max |z|={worst:.2f} over 18x1e6 shots in {elapsed:.1f}s",
    )


def test_criterion_07_generator_sets():
    ok = True
    for code_id, want_passive, want_active, mult in (
        ("qd6", 3, 2, 4),
        ("dq6", 1, 4, 1),
        ("qd10", 5, 4, 16),
        ("dq10", 1, 8, 1),
    ):
        cc = concat.concatenated(code_id)
        fixture = _tables.GENERATOR_CLASSES[code_id]
        passive = [c for c in cc.classes if c.passive]
        active = [c for c in cc.classes if not c.passive]
        ok &= len(passive) == want_passive and len(active) == want_active
        ok &= all(len(c.representatives) == mult for c in active)
        ok &= {frozenset(map(str, c.representatives)) for c in passive} == {
            frozenset(reps) for reps in fixture["passive"]
        }
        ok &= {str(c.representative) for c in active} == {
            reps[0] for reps in fixture["active"]
        }
    # Full representative sets for the six-qubit lifted classes.
    qd6_active = {
        frozenset(map(str, c.representatives))
        for c in concat.concatenated("qd6").classes
        if not c.passive
    }
    ok &= qd6_active == {
        frozenset(["ZZZZII", "-YYZZII", "-ZZYYII", "YYYYII"]),
        frozenset(["ZZIIZZ", "-YYIIZZ", "-ZZIIYY", "YYIIYY"]),
    }
    report("7 stabilizer generator sets", ok)


def test_criterion_08_codeword_verification():
    pair0 = statevec.state_from_terms(2, [("00", 1), ("11", 1)])
    pair1 = statevec.state_from_terms(2, [("01", 1), ("10", 1)])

    def kron(*xs):
        out = xs[0]
        for x in xs[1:]:
            out = np.kron(out, x)
        return out

    def qd10_expected(terms):
        total = np.zeros(1 << 10, dtype=complex)
        for bits, sign in terms:
            total += sign * kron(*(pair1 if b == "1" else pair0 for b in bits))
        return total / np.linalg.norm(total)

    w5_0 = statevec.state_from_terms(5, _tables.FIVE_QUBIT_ZERO_TERMS)
    w5_1 = statevec.state_from_terms(5, _tables.FIVE_QUBIT_ONE_TERMS)
    expected = {
        "qd6": (kron(pair0, pair0, pair0), kron(pair1, pair1, pair1)),
        "dq6": (
            statevec.state_from_terms(6, [("000000", 1), ("111111", 1)]),
            statevec.state_from_terms(6, [("000111", 1), ("111000", 1)]),
        ),
        "qd10": (
            qd10_expected(_tables.FIVE_QUBIT_ZERO_TERMS),
            qd10_expected(_tables.FIVE_QUBIT_ONE_TERMS),
        ),
        "dq10": (
            (np.kron(w5_0, w5_0) + np.kron(w5_1, w5_1)) / np.sqrt(2),
            (np.kron(w5_0, w5_1) + np.kron(w5_1, w5_0)) / np.sqrt(2),
        ),
    }
    ok = True
    for code_id, (want0, want1) in expected.items():
        got0, got1 = statevec.codewords(code_id)
        ok &= statevec.states_equal_up_to_phase(got0, want0, tol=1e-10)
        ok &= statevec.states_equal_up_to_phase(got1, want1, tol=1e-10)
        for gclass in concat.concatenated(code_id).classes:
            for rep in gclass.representatives:
                for w in (got0, got1):
                    ok &= abs(statevec.expectation(w, rep) - 1.0) < 1e-9
    report("8 codeword verification", ok)


def test_criterion_09_knill_laflamme_suite():
    kl5_words = statevec.codewords("knill-laflamme-5")
    singles = [pauli.identity(5)] + [
        pauli.single(5, q, letter) for letter in "XYZ" for q in range(5)
    ]
    ok = len(singles) == 16 and statevec.kl_check(kl5_words, singles).ok

    rep3_words = statevec.codewords("repetition-3")
    flips = [pauli.identity(3)] + [pauli.single(3, q, "X") for q in range(3)]
    ok &= statevec.kl_check(rep3_words, flips).ok
    with_z = statevec.kl_check(rep3_words, flips + [pauli.parse("ZII")])
    ok &= not with_z.ok and with_z.witness is not None
    report("9 Knill-Laflamme suite", ok)


def test_criterion_10_dfs_suite():
    from qdq import dfs

    group = dfs.AbelianErrorGroup.from_strings(["II", "XX"])
    plus, minus = dfs.characters(group)
    p_plus = dfs.projector(group, plus)
    p_minus = dfs.projector(group, minus)
    ok = np.allclose(p_plus @ p_plus, p_plus, atol=1e-12)
    ok &= np.allclose(p_minus @ p_minus, p_minus, atol=1e-12)
    ok &= np.allclose(p_plus + p_minus, np.eye(4), atol=1e-12)

    spans = {
        id(plus): [[("00", 1), ("11", 1)], [("01", 1), ("10", 1)]],
        id(minus): [[("00", 1), ("11", -1)], [("01", 1), ("10", -1)]],
    }
    for chi in (plus, minus):
        basis = dfs.df_basis(group, chi)
        want = [statevec.state_from_terms(2, t) for t in spans[id(chi)]]
        ok &= len(basis) == 2
        for got, expect in zip(basis, want):
            ok &= statevec.states_equal_up_to_phase(got, expect)

    cross = statevec.basis_state(2, 0b00)
    ok &= not statevec.dfs_invariance(cross, group, plus)
    ok &= not statevec.dfs_invariance(cross, group, minus)
    report("10 DFS suite", ok)


def test_criterion_11_cross_block_counterexample():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        for mu in np.linspace(0.0, 1.0, 21):
            enum = analytic.cross_block_correlation(float(p), float(mu))
            closed = analytic.cross_block_closed_form(float(p), float(mu))
            worst = max(worst, abs(enum - closed))
    report("11 cross-block counterexample", worst < 1e-12, f"worst diff {worst:.2e}")


def test_criterion_12_typo_regression():
    ok = True
    for p in np.linspace(0.0, 1.0, 101):
        p = float(p)
        ok &= analytic.standalone_pf("rep3", 0.0, p) == 3 * p**2 - 2 * p**3
        ok &= analytic.standalone_pf("rep3", 1.0, p) == p
    report("12 typo regression", ok)
