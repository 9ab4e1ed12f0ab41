import functools
import itertools

import numpy as np
import pytest

from qdq import analytic, concat
from qdq.analytic import Alphabet, NoiseModel


def enumerate_block_failure(model: NoiseModel, size: int, correctable) -> float:
    """Oracle: exhaustive chain enumeration of all letter patterns."""
    n_letters = len(model.letter_probs)
    failure = 0.0
    for pattern in itertools.product(range(n_letters), repeat=size):
        if not correctable(pattern):
            failure += analytic.chain_probability(model, pattern)
    return failure


def rep3_correctable(pattern):
    return sum(1 for letter in pattern if letter != 0) <= 1


def dfs2_correctable(pattern):
    return pattern in ((0, 0), (1, 1))  # no error, or collective flip


def kl5_correctable(pattern):
    return sum(1 for letter in pattern if letter != 0) <= 1


GRID = [(p, mu) for p in (0.0, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0)
        for mu in (0.0, 0.25, 0.5, 0.75, 1.0)]


def test_conditional_prob_limits_and_example():
    bitflip = NoiseModel(0.1, 0.0, Alphabet.BITFLIP)
    assert analytic.conditional_prob(bitflip, 0, 0) == pytest.approx(0.9)
    assert analytic.conditional_prob(bitflip, 0, 1) == pytest.approx(0.9)

    perfect = NoiseModel(0.1, 1.0, Alphabet.BITFLIP)
    assert analytic.conditional_prob(perfect, 0, 0) == 1.0
    assert analytic.conditional_prob(perfect, 1, 0) == 0.0

    half = NoiseModel(0.1, 0.5, Alphabet.BITFLIP)
    assert analytic.conditional_prob(half, 0, 0) == pytest.approx(0.95)


def test_conditional_prob_rows_sum_to_one():
    for alphabet in Alphabet:
        model = NoiseModel(0.23, 0.41, alphabet)
        n = len(model.letter_probs)
        for j in range(n):
            total = sum(analytic.conditional_prob(model, i, j) for i in range(n))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_prob_rejects_bad_indices():
    model = NoiseModel(0.1, 0.1, Alphabet.BITFLIP)
    with pytest.raises(ValueError):
        analytic.conditional_prob(model, 2, 0)


def test_noise_model_domain():
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(0.1, 1.5)


# ---------------------------------------------------------------------------
# Stand-alone formulas against exhaustive enumeration
# ---------------------------------------------------------------------------


def test_rep3_matches_chain_enumeration():
    for p, mu in GRID:
        model = NoiseModel(p, mu, Alphabet.BITFLIP)
        oracle = enumerate_block_failure(model, 3, rep3_correctable)
        assert analytic.standalone_pf("rep3", mu, p) == pytest.approx(oracle, abs=1e-12)


def test_rep3_limits_pinned():
    """The compact closed form must keep the chain-expansion limits:
    3p^2 - 2p^3 at mu = 0 and exactly p at mu = 1."""
    for p in np.linspace(0.0, 1.0, 21):
        assert analytic.standalone_pf("rep3", 0.0, p) == pytest.approx(
            3 * p**2 - 2 * p**3, abs=1e-14
        )
        assert analytic.standalone_pf("rep3", 1.0, p) == pytest.approx(p, abs=1e-14)
    assert analytic.standalone_pf("rep3", 0.0, 0.5) == pytest.approx(0.5)
    assert analytic.standalone_pf("rep3", 1.0, 0.3) == pytest.approx(0.3)


def test_dfs2_bitflip_matches_enumeration_and_collective_limit():
    for p, mu in GRID:
        model = NoiseModel(p, mu, Alphabet.BITFLIP)
        oracle = enumerate_block_failure(model, 2, dfs2_correctable)
        got = analytic.standalone_pf("dfs2-bitflip", mu, p)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(2 * p * (1 - p) * (1 - mu), abs=1e-12)
    assert analytic.standalone_pf("dfs2-bitflip", 1.0, 0.37) == 0.0


def test_kl5_matches_chain_enumeration():
    for p, mu in GRID:
        model = NoiseModel(p, mu, Alphabet.DEPOLARIZING3)
        oracle = enumerate_block_failure(model, 5, kl5_correctable)
        assert analytic.standalone_pf("kl5", mu, p) == pytest.approx(oracle, abs=1e-12)


def test_dfs2_depolarizing3_matches_enumeration():
    for p, mu in GRID:
        model = NoiseModel(p, mu, Alphabet.DEPOLARIZING3)
        oracle = enumerate_block_failure(model, 2, dfs2_correctable)
        got = analytic.standalone_pf("dfs2-depolarizing3", mu, p)
        assert got == pytest.approx(oracle, abs=1e-12)


def test_standalone_pf_domain_and_name_errors():
    with pytest.raises(ValueError, match="rep3"):
        analytic.standalone_pf("rep4", 0.0, 0.1)
    with pytest.raises(ValueError):
        analytic.standalone_pf("rep3", 0.0, 1.2)


# ---------------------------------------------------------------------------
# Concatenated recursion
# ---------------------------------------------------------------------------


def test_concat_pf_single_layer_is_standalone():
    layer = analytic.formula("kl5")
    for p, mu in GRID:
        assert analytic.concat_pf([layer], mu, p) == analytic.standalone_pf(
            "kl5", mu, p
        )


def test_concat_pf_empty_layers_rejected():
    with pytest.raises(ValueError):
        analytic.concat_pf([], 0.0, 0.1)


def test_qd6_dq6_point_values():
    assert analytic.code_failure("qd6")(0.0, 0.1) == pytest.approx(0.085536, abs=1e-12)
    assert analytic.code_failure("dq6")(0.0, 0.1) == pytest.approx(0.054432, abs=1e-12)


def test_two_layer_recursions_match_explicit_polynomials():
    rng = np.random.default_rng(123)
    qd6 = analytic.code_failure("qd6")
    dq6 = analytic.code_failure("dq6")
    qd10 = analytic.code_failure("qd10")
    dq10 = analytic.code_failure("dq10")
    for _ in range(100):
        mu, p = rng.random(2)
        q = 2 * p * (1 - p) * (1 - mu)
        assert qd6(mu, p) == pytest.approx(3 * q**2 * (1 - q) + q**3, abs=1e-12)
        r = analytic.standalone_pf("rep3", mu, p)
        assert dq6(mu, p) == pytest.approx(2 * r * (1 - r), abs=1e-12)
        qq = analytic.standalone_pf("dfs2-depolarizing3", mu, p)
        assert qd10(mu, p) == pytest.approx(
            1 - (1 - qq) ** 5 - 5 * qq * (1 - qq) ** 4, abs=1e-12
        )
        rr = analytic.standalone_pf("kl5", mu, p)
        assert dq10(mu, p) == pytest.approx(
            1 - (1 - rr) ** 2 - rr**2 / 9, abs=1e-12
        )


def test_dq10_printed_variant():
    printed = analytic.code_failure("dq10", "printed")
    rr = analytic.standalone_pf("kl5", 0.3, 0.2)
    assert printed(0.3, 0.2) == pytest.approx((2 / 3) * rr * (1 - rr), abs=1e-12)


def test_qd10_table_variant_uses_two_letter_inner():
    table = analytic.code_failure("qd10", "table")
    q = 2 * 0.1 * 0.9
    assert table(0.0, 0.1) == pytest.approx(
        1 - (1 - q) ** 5 - 5 * q * (1 - q) ** 4, abs=1e-12
    )


def test_entanglement_fidelity():
    assert analytic.entanglement_fidelity(0.0) == 1.0
    qd6 = analytic.code_failure("qd6")
    dq6 = analytic.code_failure("dq6")
    assert analytic.entanglement_fidelity(qd6(0.75, 0.1)) == pytest.approx(
        0.99410725, abs=1e-8
    )
    assert analytic.entanglement_fidelity(dq6(0.75, 0.1)) == pytest.approx(
        0.8272405, abs=1e-7
    )
    with pytest.raises(ValueError):
        analytic.entanglement_fidelity(1.5)


def test_failure_probabilities_bounded_and_monotone():
    for cid in concat.code_ids():
        pf = analytic.code_failure(cid)
        values = []
        for p in np.arange(0.0, 0.5001, 0.01):
            for mu in (0.0, 0.3, 0.7, 1.0):
                v = pf(mu, float(p))
                assert -1e-12 <= v <= 1 + 1e-12
            values.append(pf(0.0, float(p)))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_fidelity_ordering_flips_with_correlation():
    grid = np.arange(0.005, 0.5, 0.005)
    for qd_id, dq_id in (("qd6", "dq6"), ("qd10", "dq10")):
        qd = analytic.code_failure(qd_id)
        dq = analytic.code_failure(dq_id)
        for p in grid:
            p = float(p)
            assert dq(0.0, p) <= qd(0.0, p) + 1e-12
            assert qd(0.75, p) <= dq(0.75, p) + 1e-12


# ---------------------------------------------------------------------------
# Cross-block correlation
# ---------------------------------------------------------------------------


def test_cross_block_limits():
    for p in (0.0, 0.2, 0.5, 0.9):
        got = analytic.cross_block_correlation(p, 0.0)
        assert got == pytest.approx((1 - p) ** 2 + p**2, abs=1e-12)
        assert analytic.cross_block_correlation(p, 1.0) == pytest.approx(1.0)


def test_cross_block_closed_form_matches_enumeration_grid():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        for mu in np.linspace(0.0, 1.0, 21):
            a = analytic.cross_block_correlation(float(p), float(mu))
            b = analytic.cross_block_closed_form(float(p), float(mu))
            worst = max(worst, abs(a - b))
    assert worst < 1e-12


def test_cross_block_midpoint_value():
    got = analytic.cross_block_correlation(0.2, 0.5)
    assert got == pytest.approx(0.7128 / 0.84, abs=1e-12)


# ---------------------------------------------------------------------------
# Pseudothresholds
# ---------------------------------------------------------------------------


def test_pseudothresholds_match_reference_values():
    cases = [
        ("qd6", "literal", 0.1293, 5e-4),
        ("dq6", "literal", 0.2252, 5e-4),
        ("qd10", "literal", 0.0298, 1e-3),
        ("qd10", "table", 0.0298, 1e-3),
        ("dq10", "literal", 0.0579, 1e-3),
    ]
    for cid, variant, want, tol in cases:
        curve = analytic.failure_curve(cid, 0.0, variant)
        got = analytic.pseudothreshold(curve)
        assert got is not None and abs(got - want) <= tol, (cid, variant, got)


def test_pseudothreshold_no_crossing_cases():
    assert analytic.pseudothreshold(lambda p: p**2) is None
    printed = analytic.failure_curve("dq10", 0.0, "printed")
    assert analytic.pseudothreshold(printed) is None


def test_pseudothreshold_root_is_fixed_point():
    curve = analytic.failure_curve("dq6", 0.0)
    root = analytic.pseudothreshold(curve)
    assert abs(curve(root) - root) < 1e-8


def test_depth_recursion_basics():
    curve = analytic.failure_curve("dq6", 0.0)
    assert analytic.depth_recursion(curve, 1)(0.1) == curve(0.1)
    with pytest.raises(ValueError):
        analytic.depth_recursion(curve, 0)
    # The located root carries ~1e-9 bisection error, which composition
    # amplifies by the curve slope per level.
    root = analytic.pseudothreshold(curve)
    for depth in (2, 3, 4):
        composed = analytic.depth_recursion(curve, depth)
        assert composed(root) == pytest.approx(root, abs=1e-7)


def test_depth_crossings_agree():
    curve = analytic.failure_curve("dq6", 0.0)
    roots = [
        analytic.pseudothreshold(analytic.depth_recursion(curve, d))
        for d in (1, 2, 3, 4)
    ]
    assert all(r is not None for r in roots)
    assert max(roots) - min(roots) < 1e-6
    assert abs(roots[0] - 0.2252) < 1e-3


def test_pseudothreshold_is_the_lowest_crossing():
    # pf(p) - p is -0.021 at 0.05, +0.004 at 0.12 and -0.009 at 0.48: the
    # code helps only below the first crossing.
    curve = analytic.failure_curve("qd10", 0.4, "table")
    root = analytic.pseudothreshold(curve)
    assert root is not None and 0.11 < root < 0.12
    assert abs(curve(root) - root) <= 1e-9


SCAN = [i * analytic.GRID_STEP for i in range(1, round(analytic.UPPER / analytic.GRID_STEP))]
# Every distinct curve: a variant a record does not override is its literal one.
CURVES = [
    (cid, variant)
    for cid in concat.code_ids()
    for variant in analytic.VARIANTS
    if variant == "literal" or variant in concat.REGISTRY[cid].variant_layers
]


@pytest.mark.parametrize("code_id, variant", CURVES)
def test_no_sign_change_below_the_returned_root(code_id, variant):
    for mu in np.linspace(0.0, 1.0, 21):
        curve = analytic.failure_curve(code_id, float(mu), variant)
        for depth in (1, 2):
            # Cached, so the scan below rereads the solver's grid values.
            composed = functools.lru_cache(None)(analytic.depth_recursion(curve, depth))
            root = analytic.pseudothreshold(composed)
            first = composed(SCAN[0]) - SCAN[0] < 0.0
            assert root is None or first, (mu, depth, root)
            below = [p for p in SCAN if root is None or p < root]
            assert all((composed(p) - p < 0.0) == first for p in below), (mu, depth)
