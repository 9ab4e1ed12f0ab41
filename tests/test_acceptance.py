"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).  Every contract is stated once, as a named
check of :mod:`qdq.verify`; expected values live in :mod:`qdq._tables`, and
the threshold tolerances are pinned in ``_tables.SUMMARY``, not here.  This
file only selects the checks of each criterion, requires every selector to
match at least one check and every match to pass, and holds the time
budgets.
"""

import fnmatch
import time

from qdq import concat, verify


def per_code(pattern: str) -> list[str]:
    return [pattern.format(cid) for cid in concat.code_ids()]


def drive(criterion, suite, selectors, budget=None):
    start = time.perf_counter()
    checks = suite()
    elapsed = time.perf_counter() - start
    problems, selected = [], 0
    for selector in selectors:
        matched = [c for c in checks if fnmatch.fnmatchcase(c[0], selector)]
        selected += len(matched)
        if not matched:
            problems.append(f"no check matches {selector!r}")
        problems += [f"{name} failed ({detail})" for name, ok, detail in matched if not ok]
    if budget is not None and elapsed >= budget:
        problems.append(f"took {elapsed:.3f}s, budget {budget}s")
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {criterion}: {status}  {selected} checks in {elapsed:.3f}s")
    assert not problems, f"{criterion}: {'; '.join(problems)}"


def test_criterion_01_structural_counts():
    concat.concatenated.cache_clear()  # the budget times uncached builds
    drive("1 structural counts", verify.suite_concat, per_code("concat.counts-{}"), 1.0)


def test_criterion_02_efficiencies_exact():
    drive("2 Table-1 efficiencies", verify.suite_concat, per_code("concat.efficiency-{}"))


def test_criterion_03_pseudothresholds():
    selectors = per_code("analytic.threshold-{}-*") + ["analytic.dq10-printed-no-crossing"]
    drive("3 Table-1 pseudothresholds", verify.suite_analytic, selectors, 1.0)


def test_criterion_04_crossover_orderings():
    drive("4 crossover reproduction", verify.suite_analytic,
          ["analytic.crossover-orderings"], 1.0)


def test_criterion_05_depth_invariance():
    drive("5 depth invariance", verify.suite_analytic, per_code("analytic.depth-invariance-{}"))


def test_criterion_06_monte_carlo_agreement():
    drive("6 Monte Carlo vs analytic",
          lambda: verify.suite_mc(shots=1_000_000, seed=20240),
          ["mc.analytic-agreement-qd6", "mc.analytic-agreement-dq6"], 60.0)


def test_criterion_07_generator_sets():
    selectors = per_code("concat.generators-{}") + ["concat.generator-degeneracy-*"]
    drive("7 stabilizer generator sets", verify.suite_concat, selectors)


def test_criterion_08_codeword_verification():
    selectors = (per_code("codewords.expansion-{}")
                 + per_code("codewords.generator-eigenvalues-{}"))
    drive("8 codeword verification", verify.suite_codewords, selectors)


def test_criterion_09_knill_laflamme_suite():
    drive("9 Knill-Laflamme suite", verify.suite_kl,
          ["kl.five-qubit-all-single-errors", "kl.rep3-bitflips",
           "kl.rep3-z-fails-with-witness"])


def test_criterion_10_dfs_suite():
    drive("10 DFS suite", verify.suite_dfs,
          ["dfs.projector-idempotent", "dfs.projectors-resolve-identity",
           "dfs.plus-basis-span", "dfs.minus-basis-span", "dfs.cross-irrep-not-invariant"])


def test_criterion_11_cross_block_counterexample():
    drive("11 cross-block counterexample", verify.suite_analytic,
          ["analytic.cross-block-identity"])


def test_criterion_12_typo_regression():
    drive("12 typo regression", verify.suite_analytic, ["analytic.rep3-limits"])
