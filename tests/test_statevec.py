import itertools

import numpy as np
import pytest

from qdq import _tables, concat, pauli, stabilizer, statevec


def kron(*states):
    out = states[0]
    for s in states[1:]:
        out = np.kron(out, s)
    return out


PAIR0 = statevec.state_from_terms(2, [("00", 1), ("11", 1)])
PAIR1 = statevec.state_from_terms(2, [("01", 1), ("10", 1)])


def test_apply_pauli_matches_matrix():
    rng = np.random.default_rng(1)
    for text in ("XZ", "iYI", "-ZY", "XX"):
        p = pauli.parse(text)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        direct = statevec.apply_pauli(p, state)
        dense = statevec.pauli_matrix(p) @ state
        assert np.allclose(direct, dense, atol=1e-12)


def test_apply_pauli_acts_on_matrix_columns():
    rng = np.random.default_rng(2)
    p = pauli.parse("-iXYZ")
    block = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    got = statevec.apply_pauli(p, block)
    for col in range(3):
        assert np.allclose(got[:, col], statevec.apply_pauli(p, block[:, col]), atol=1e-12)
    assert np.allclose(got, statevec.pauli_matrix(p) @ block, atol=1e-12)


def test_pauli_matrix_singles():
    assert np.allclose(statevec.pauli_matrix(pauli.parse("X")), [[0, 1], [1, 0]])
    assert np.allclose(
        statevec.pauli_matrix(pauli.parse("Y")), [[0, -1j], [1j, 0]]
    )
    assert np.allclose(statevec.pauli_matrix(pauli.parse("Z")), [[1, 0], [0, -1]])


# ---------------------------------------------------------------------------
# Codewords
# ---------------------------------------------------------------------------


def base(name):
    return statevec.codewords(stabilizer.builtin(name))


def concatenated(code_id):
    return statevec.codewords(concat.concatenated(code_id).code)


def test_qd6_circuit_matches_printed_expansion():
    w0, w1 = concatenated("qd6")
    assert np.allclose(w0, kron(PAIR0, PAIR0, PAIR0), atol=1e-10)
    assert np.allclose(w1, kron(PAIR1, PAIR1, PAIR1), atol=1e-10)


def test_dq6_circuit_matches_printed_expansion():
    w0, w1 = concatenated("dq6")
    want0 = statevec.state_from_terms(6, [("000000", 1), ("111111", 1)])
    want1 = statevec.state_from_terms(6, [("000111", 1), ("111000", 1)])
    assert np.allclose(w0, want0, atol=1e-10)
    assert np.allclose(w1, want1, atol=1e-10)


def test_base_encoders():
    r0, r1 = base("repetition-3")
    assert np.allclose(r0, statevec.basis_state(3, 0b000))
    assert np.allclose(r1, statevec.basis_state(3, 0b111))
    d0, d1 = base("dfs-2")
    assert statevec.states_equal_up_to_phase(d0, PAIR0)
    assert statevec.states_equal_up_to_phase(d1, PAIR1)


def test_five_qubit_codewords_match_fixture():
    w0, w1 = base("knill-laflamme-5")
    fx0 = statevec.state_from_terms(5, _tables.FIVE_QUBIT_ZERO_TERMS)
    fx1 = statevec.state_from_terms(5, _tables.FIVE_QUBIT_ONE_TERMS)
    assert statevec.states_equal_up_to_phase(w0, fx0)
    assert statevec.states_equal_up_to_phase(w1, fx1)
    code = stabilizer.builtin("knill-laflamme-5")
    for g in code.generators:
        for w in (w0, w1):
            assert abs(statevec.expectation(w, g) - 1.0) < 1e-10
    assert abs(statevec.expectation(w0, code.logical_z[0]) - 1.0) < 1e-10
    assert abs(statevec.expectation(w1, code.logical_z[0]) + 1.0) < 1e-10


def test_five_qubit_one_sign_erratum_breaks_stabilization():
    """Regression: flipping the |11010> coefficient back to -1 must violate
    the XZZXI eigenvalue equation (it pairs |11010> with |01000>)."""
    terms = [t for t in _tables.FIVE_QUBIT_ONE_TERMS if t[0] != "11010"]
    terms.append(_tables.FIVE_QUBIT_ONE_SIGN_ERRATUM)
    bad = statevec.state_from_terms(5, terms)
    code = stabilizer.builtin("knill-laflamme-5")
    values = [statevec.expectation(bad, g).real for g in code.generators]
    assert all(v < 1.0 - 1e-6 for v in values)


def test_qd10_codewords_match_blockwise_fixture():
    got0, got1 = concatenated("qd10")

    def build(terms):
        total = np.zeros(1 << 10, dtype=complex)
        for bits, sign in terms:
            total += sign * kron(*(PAIR1 if b == "1" else PAIR0 for b in bits))
        return total / np.linalg.norm(total)

    assert statevec.states_equal_up_to_phase(got0, build(_tables.FIVE_QUBIT_ZERO_TERMS))
    assert statevec.states_equal_up_to_phase(got1, build(_tables.FIVE_QUBIT_ONE_TERMS))


def test_dq10_codewords_match_tensor_fixture():
    got0, got1 = concatenated("dq10")
    w0 = statevec.state_from_terms(5, _tables.FIVE_QUBIT_ZERO_TERMS)
    w1 = statevec.state_from_terms(5, _tables.FIVE_QUBIT_ONE_TERMS)
    want0 = (np.kron(w0, w0) + np.kron(w1, w1)) / np.sqrt(2)
    want1 = (np.kron(w0, w1) + np.kron(w1, w0)) / np.sqrt(2)
    assert statevec.states_equal_up_to_phase(got0, want0)
    assert statevec.states_equal_up_to_phase(got1, want1)


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_every_generator_representative_fixes_codewords(code_id):
    cc = concat.concatenated(code_id)
    w0, w1 = concatenated(code_id)
    for gclass in cc.classes:
        for rep in gclass.representatives:
            for w in (w0, w1):
                assert abs(statevec.expectation(w, rep) - 1.0) < 1e-10, str(rep)


def test_expectation_examples():
    w0, _ = concatenated("qd6")
    assert abs(statevec.expectation(w0, pauli.parse("XXIIII")) - 1.0) < 1e-12
    assert abs(statevec.expectation(statevec.basis_state(1, 0), pauli.parse("Z")) - 1.0) < 1e-12
    # A block-level logical flip maps |0>_L to an orthogonal state.
    assert abs(statevec.expectation(w0, pauli.parse("XIIIII"))) < 1e-12


@pytest.mark.parametrize("code_id", ["qd6", "dq6"])
def test_degenerate_pairs_act_identically_on_codewords(code_id):
    cc = concat.concatenated(code_id)
    w0, w1 = concatenated(code_id)
    for members in cc.equivalence.values():
        images0 = [statevec.apply_pauli(e, w0) for e in members]
        images1 = [statevec.apply_pauli(e, w1) for e in members]
        for i, j in itertools.combinations(range(len(members)), 2):
            overlap = np.vdot(images0[i], images0[j])
            assert abs(abs(overlap) - 1.0) < 1e-10
            sign = overlap / abs(overlap)
            assert np.allclose(images0[i], sign * images0[j], atol=1e-10)
            assert np.allclose(images1[i], sign * images1[j], atol=1e-10)


def test_logical_operators_act_correctly_on_concatenated_codewords():
    for code_id in ("qd6", "dq6", "qd10", "dq10"):
        cc = concat.concatenated(code_id)
        w0, w1 = concatenated(code_id)
        flipped = statevec.apply_pauli(cc.code.logical_x[0], w0)
        assert statevec.states_equal_up_to_phase(flipped, w1)
        assert abs(statevec.expectation(w0, cc.code.logical_z[0]) - 1.0) < 1e-9
        assert abs(statevec.expectation(w1, cc.code.logical_z[0]) + 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Correctability conditions
# ---------------------------------------------------------------------------


def test_kl_check_five_qubit_all_singles():
    words = base("knill-laflamme-5")
    errors = [pauli.identity(5)] + [
        pauli.single(5, q, letter) for letter in "XYZ" for q in range(5)
    ]
    assert statevec.kl_check(words, errors).ok


def test_kl_check_rep3():
    words = base("repetition-3")
    flips = [pauli.identity(3)] + [pauli.single(3, q, "X") for q in range(3)]
    assert statevec.kl_check(words, flips).ok
    result = statevec.kl_check(words, flips + [pauli.parse("ZII")])
    assert not result.ok
    m, n, i, j, got, want = result.witness
    # Z1 distinguishes the codewords through a diagonal mismatch:
    # <000|Z1|000> = +1 while <111|Z1|111> = -1.
    assert (i, j) == (0, 0)
    assert abs(got - want) > 1e-9


def test_kl_check_equivalence_sets_are_correctable():
    for code_id in ("qd6", "dq6"):
        cc = concat.concatenated(code_id)
        words = concatenated(code_id)
        errors = [e for s in cc.equivalence.values() for e in s]
        assert len(errors) == 32
        assert statevec.kl_check(words, errors).ok


@pytest.mark.parametrize("code_id", concat.code_ids())
def test_kl_check_decoder_table_corrections(code_id):
    corrections = list(concat.concatenated(code_id).table.values())
    assert statevec.kl_check(concatenated(code_id), corrections).ok


def test_codewords_project_onto_a_non_diagonal_logical_z():
    # Phase-flip repetition code: |0...0> is not a Z_bar eigenstate here.
    phase_flip = stabilizer.StabilizerCode(
        "phase-flip", 3, 1, (pauli.parse("XXI"), pauli.parse("IXX")),
        (pauli.parse("ZZZ"),), (pauli.parse("XXX"),), (False, False)
    )
    w0, w1 = statevec.codewords(phase_flip)
    plus = np.full(8, 8 ** -0.5)
    minus = plus * np.array([(-1) ** bin(i).count("1") for i in range(8)])
    assert np.allclose(w0, plus, atol=1e-12)
    assert np.allclose(w1, minus, atol=1e-12)


def test_codewords_reject_codes_without_one_logical_qubit():
    code = stabilizer.builtin("repetition-3")
    two = stabilizer.StabilizerCode(
        "two", 2, 2, (), (pauli.parse("XI"), pauli.parse("IX")),
        (pauli.parse("ZI"), pauli.parse("IZ")), ()
    )
    with pytest.raises(ValueError, match="k = 1"):
        statevec.codewords(two)
    flipped = stabilizer.StabilizerCode(
        "flipped", 3, 1, (pauli.parse("-ZZI"), code.generators[1]),
        code.logical_x, code.logical_z, (False, False)
    )
    with pytest.raises(ValueError, match="no support"):
        statevec.codewords(flipped)


def test_kl_check_rejects_non_orthonormal():
    w0, _ = base("repetition-3")
    with pytest.raises(ValueError, match="orthogonal"):
        statevec.kl_check((w0, w0), [pauli.identity(3)])

