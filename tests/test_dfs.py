import contextlib
import hashlib
import io
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qdq import cli, dfs, pauli, stabilizer, statevec

# sha256 of `qdq dfs build --elements ELEMENTS [--character INDEX]` stdout.
BUILD_PINS = {
    ("II,XX", None): "c761c7a217ef4ed0019cb5e015bdf8d98158f6bf9aa16c9b4395b3e6b5ce38a3",
    ("II,YY", None): "ee889b7381aebcec046bd6c7354d4ffd9f8ab04546178e17627d228e3d8ff3ae",
    ("IIII,XXXX,ZZZZ,YYYY", None):
        "114eba605758bd6fca4867df340bba7282714fd6dd9bfee8d9803978ed65326f",
    ("IIII,XXXX,ZZZZ,YYYY", 3):
        "18cfac16d4c45a5dde3d9498ee21915f1ce9416f7e527c12eadfd25f80c58323",
    ("IIIIII,XXXXXX,ZZZZII,YYYYXX", 2):
        "25da2faa3eab29f741982c01245e0393328d80d392e0718ae87a17e11790903e",
    ("III,ZZI,IZZ,ZIZ", None): "1d44b410255fa3cdb18324463f95218cd87fe8cfda12f972aef21b843c6d2ef1",
}


@pytest.fixture(scope="module")
def flip_group():
    return dfs.AbelianErrorGroup.from_strings(["II", "XX"])


@pytest.fixture(scope="module")
def flip_chars(flip_group):
    return dfs.characters(flip_group)


def test_characters_of_collective_flip_group(flip_chars):
    assert len(flip_chars) == 2
    plus, minus = flip_chars
    assert plus.signs() == (1, 1)
    assert minus.signs() == (1, -1)


def test_characters_trivial_group():
    group = dfs.AbelianErrorGroup.from_strings(["III"])
    chars = dfs.characters(group)
    assert len(chars) == 1
    assert chars[0].signs() == (1,)


@st.composite
def abelian_groups(draw, max_rank=6):
    """Sign-free Abelian groups on n <= 6 qubits from at most max_rank drawn generators.

    A drawn Pauli joins the generators only if the group it generates with
    them is one ``AbelianErrorGroup.from_strings`` accepts.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    group = dfs.AbelianErrorGroup.from_strings(["I" * n])
    for x, z in draw(st.lists(st.tuples(masks, masks), max_size=min(n, max_rank))):
        keys = {(e.x, e.z) for e in group.elements}
        keys |= {(e.x ^ x, e.z ^ z) for e in group.elements}
        texts = sorted(pauli.format_pauli(pauli.PauliString(n, *key, 0)) for key in keys)
        try:
            group = dfs.AbelianErrorGroup.from_strings(texts)
        except ValueError:
            pass
    return group


def _group(elements):
    return dfs.AbelianErrorGroup.from_strings(elements.split(","))


def _brute_force_characters(group):
    """Oracle: every +/-1 assignment respecting chi(gh) = chi(g)chi(h)."""
    elems = group.elements
    valid = []
    for signs in itertools.product((1, -1), repeat=len(elems)):
        table = {(e.x, e.z): s for e, s in zip(elems, signs)}
        ok = all(
            table[
                (lambda prod: (prod.x, prod.z))(pauli.multiply(a, b))
            ] == table[(a.x, a.z)] * table[(b.x, b.z)]
            for a in elems
            for b in elems
        )
        if ok:
            valid.append(signs)
    return set(valid)


@given(
    group=abelian_groups(max_rank=3),
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
)
@example(group=_group("IIII,XXII,IIXX,XXXX"), pairs=[(1, 2), (3, 3)])
def test_characters_klein_four_group_match_brute_force(group, pairs):
    chars = dfs.characters(group)
    elems = group.elements
    assert len(chars) == len(elems) <= 8
    assert {c.signs() for c in chars} == _brute_force_characters(group)
    assert chars[0].signs() == (1,) * len(elems)
    for chi in chars:
        for i, j in pairs:
            a, b = elems[i % len(elems)], elems[j % len(elems)]
            assert chi.value(a) * chi.value(b) == chi.value(pauli.multiply(a, b))


def test_group_validation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="leaves the element set"):
        dfs.AbelianErrorGroup.from_strings(["IIII", "XXII", "IIXX", "XIXI"])
    with pytest.raises(ValueError, match="phase"):
        dfs.AbelianErrorGroup.from_strings(["II", "XX", "ZZ", "YY"])
    with pytest.raises(ValueError, match="anticommute"):
        dfs.AbelianErrorGroup.from_strings(["II", "XI", "ZI", "YI"])
    with pytest.raises(ValueError, match="identity"):
        dfs.AbelianErrorGroup.from_strings(["XX"])
    with pytest.raises(ValueError, match="power of 2"):
        dfs.AbelianErrorGroup.from_strings(["III", "XXI", "IXX"])


def test_from_strings_rejects_no_elements():
    # No element gives no qubit count; the identity is missing either way.
    with pytest.raises(ValueError, match="identity"):
        dfs.AbelianErrorGroup.from_strings([])


def test_direct_construction_validates():
    xi, zi, yi = (pauli.parse(t) for t in ("XI", "ZI", "YI"))
    with pytest.raises(ValueError, match="anticommute"):
        dfs.AbelianErrorGroup(2, (pauli.identity(2), xi, zi, yi))
    with pytest.raises(ValueError, match="identity"):
        dfs.AbelianErrorGroup(2, (xi,))
    with pytest.raises(ValueError, match="does not act on 3 qubits"):
        dfs.AbelianErrorGroup(3, (pauli.identity(2), pauli.parse("XX")))


def _big_group_texts():
    """Z_0..Z_7, XX on qubits 8-9 and on 10-11: 1,024 elements on 12 qubits."""
    n = 12
    generators = [(0, 1 << q) for q in range(8)] + [(0b11 << 8, 0), (0b11 << 10, 0)]
    keys = [(0, 0)]
    for gx, gz in generators:
        keys += [(x ^ gx, z ^ gz) for x, z in keys]
    return [pauli.format_pauli(pauli.PauliString(n, x, z)) for x, z in keys]


def test_group_is_checked_from_generators_only(monkeypatch):
    calls = []
    multiply = pauli.multiply

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(pauli, "multiply", counted)
    group = dfs.AbelianErrorGroup.from_strings(_big_group_texts())
    chars = dfs.characters(group)
    assert len(group.elements) == len(chars) == 1024
    assert len(calls) <= len(group.elements) - 1
    assert len(group.generators) == 10

    def refuse(group):
        raise AssertionError("group validated again")

    klein = dfs.AbelianErrorGroup.from_strings(["IIII", "XXII", "IIXX", "XXXX"])
    monkeypatch.setattr(dfs, "validate_group", refuse)
    for chi in dfs.characters(klein):
        assert len(dfs.df_basis(chi)) == 4
        assert dfs.as_stabilizer_code(chi).k == 2


def _pairwise_closure_accepts(n, elements):
    """Reference: the element-by-element check, every pair multiplied."""
    keys = {(e.x, e.z) for e in elements}
    if len(keys) != len(elements) or (0, 0) not in keys or len(keys) & (len(keys) - 1):
        return False
    if any(e.n != n or e.phase for e in elements):
        return False
    for a, b in itertools.combinations(elements, 2):
        product = pauli.multiply(a, b)
        if not pauli.commutes(a, b) or (product.x, product.z) not in keys or product.phase:
            return False
    return True


@st.composite
def element_lists(draw):
    """The span of drawn commuting Paulis on n <= 4 qubits, stored sign-free
    (its products may still carry a phase), then mutated: up to two elements
    dropped, one sign flipped, up to two arbitrary Paulis added, shuffled."""
    n = draw(st.integers(min_value=1, max_value=4))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    paulis = st.builds(lambda x, z: pauli.PauliString(n, x, z), masks, masks)
    keys = [(0, 0)]
    generators = []
    for p in draw(st.lists(paulis, max_size=n)):
        if all(pauli.commutes(p, g) for g in generators) and (p.x, p.z) not in keys:
            generators.append(p)
            keys += [(x ^ p.x, z ^ p.z) for x, z in keys]
    elements = [pauli.PauliString(n, x, z) for x, z in keys]
    indices = st.integers(min_value=0, max_value=len(elements) - 1)
    dropped = draw(st.sets(indices, max_size=2))
    flipped = draw(st.sets(indices, max_size=1))
    elements = [
        pauli.PauliString(n, e.x, e.z, 2 if i in flipped else 0)
        for i, e in enumerate(elements)
        if i not in dropped
    ]
    elements += draw(st.lists(paulis, max_size=2))
    return n, draw(st.permutations(elements))


@given(case=element_lists())
@example(case=(2, [pauli.parse(t) for t in ("II", "XX", "ZZ", "YY")]))  # XX*ZZ = -YY
@example(case=(2, [pauli.parse(t) for t in ("II", "XX", "ZZ", "-YY")]))  # a signed element
@example(case=(2, [pauli.parse(t) for t in ("XX", "II", "IX", "XI")]))
@example(case=(2, [pauli.parse(t) for t in ("II", "XI", "IX", "XX", "ZZ")]))
@example(case=(1, []))
def test_validation_agrees_with_pairwise_closure(case):
    n, elements = case
    try:
        dfs.AbelianErrorGroup(n, tuple(elements))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _pairwise_closure_accepts(n, elements)


def test_projector_matches_half_sum(flip_chars):
    plus, minus = flip_chars
    eye = np.eye(4)
    xx = statevec.pauli_matrix(pauli.parse("XX"))
    assert np.allclose(dfs.projector(plus), (eye + xx) / 2)
    assert np.allclose(dfs.projector(minus), (eye - xx) / 2)


def test_projector_idempotent_hermitian_resolution(flip_chars):
    total = np.zeros((4, 4), dtype=complex)
    for chi in flip_chars:
        proj = dfs.projector(chi)
        assert np.allclose(proj @ proj, proj, atol=1e-12)
        assert np.allclose(proj, proj.conj().T, atol=1e-12)
        total += proj
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_projector_trivial_group_is_identity():
    group = dfs.AbelianErrorGroup.from_strings(["II"])
    chi = dfs.characters(group)[0]
    assert np.allclose(dfs.projector(chi), np.eye(4))


def test_minus_projector_annihilates_plus_state(flip_chars):
    state = statevec.state_from_terms(2, [("00", 1), ("11", 1)])
    minus = dfs.projector(flip_chars[1])
    assert np.allclose(minus @ state, 0.0, atol=1e-12)


def test_df_basis_spans(flip_chars):
    plus, minus = flip_chars
    b_plus = dfs.df_basis(plus)
    b_minus = dfs.df_basis(minus)
    want_plus = [
        statevec.state_from_terms(2, [("00", 1), ("11", 1)]),
        statevec.state_from_terms(2, [("01", 1), ("10", 1)]),
    ]
    want_minus = [
        statevec.state_from_terms(2, [("00", 1), ("11", -1)]),
        statevec.state_from_terms(2, [("01", 1), ("10", -1)]),
    ]
    for got, want in zip(b_plus, want_plus):
        assert statevec.states_equal_up_to_phase(got, want)
    for got, want in zip(b_minus, want_minus):
        assert statevec.states_equal_up_to_phase(got, want)


def test_df_basis_trivial_group_gives_computational_basis():
    group = dfs.AbelianErrorGroup.from_strings(["II"])
    chi = dfs.characters(group)[0]
    basis = dfs.df_basis(chi)
    assert len(basis) == 4
    for i, vec in enumerate(basis):
        assert np.allclose(vec, statevec.basis_state(2, i))
        assert dfs.invariant(vec, chi)


def test_basis_states_are_character_eigenvectors(flip_group, flip_chars):
    for chi in flip_chars:
        for vec in dfs.df_basis(chi):
            for g in flip_group.elements:
                assert np.allclose(
                    statevec.apply_pauli(g, vec), chi.value(g) * vec, atol=1e-10
                )


def test_superposition_closure_and_cross_irrep_failure(flip_chars):
    plus = flip_chars[0]
    b0, b1 = dfs.df_basis(plus)
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        combo = alpha * b0 + beta * b1
        combo /= np.linalg.norm(combo)
        assert dfs.invariant(combo, plus)
    cross = statevec.state_from_terms(2, [("00", 1)])  # (|00>+|11>) + (|00>-|11>)
    assert not dfs.invariant(cross, plus)


def test_value_rejects_an_element_outside_the_group(flip_chars):
    for text in ("ZZ", "XI", "XXI", "-XX"):
        with pytest.raises(ValueError, match=f"{text} is not in the group"):
            flip_chars[1].value(pauli.parse(text))
    # IZ's packed row equals X's on one qubit; only the width tells them apart.
    chi = dfs.characters(dfs.AbelianErrorGroup.from_strings(["I", "X"]))[1]
    assert chi.value(pauli.parse("X")) == -1
    with pytest.raises(ValueError, match="IZ is not in the group"):
        chi.value(pauli.parse("IZ"))


def test_as_stabilizer_code_plus_matches_builtin(flip_chars):
    code = dfs.as_stabilizer_code(flip_chars[0])
    builtin = stabilizer.builtin("dfs-2")
    assert code.n == builtin.n and code.k == builtin.k
    assert code.generators == builtin.generators
    assert code.logical_x == builtin.logical_x
    assert code.logical_z == builtin.logical_z
    assert code.passive_mask == builtin.passive_mask
    assert stabilizer.validate(code).valid


def test_as_stabilizer_code_minus_carries_sign(flip_chars):
    code = dfs.as_stabilizer_code(flip_chars[1])
    assert [str(g) for g in code.generators] == ["-XX"]
    assert code.passive_mask == (True,)
    assert code.k == 1
    # The minus-character basis states sit at +1 of the signed generator.
    for vec in dfs.df_basis(flip_chars[1]):
        assert abs(statevec.expectation(vec, code.generators[0]) - 1.0) < 1e-10
    assert stabilizer.validate(code).valid


def test_as_stabilizer_code_trivial_group():
    group = dfs.AbelianErrorGroup.from_strings(["II"])
    chi = dfs.characters(group)[0]
    code = dfs.as_stabilizer_code(chi)
    assert code.n == 2 and code.k == 2
    assert code.generators == ()
    assert stabilizer.validate(code).valid


def test_as_stabilizer_code_rejects_rank_without_whole_qubit():
    group = dfs.AbelianErrorGroup.from_strings(["I", "Z"])
    chi = dfs.characters(group)[0]
    with pytest.raises(ValueError, match="whole qubits"):
        dfs.as_stabilizer_code(chi)


def test_projector_capacity_guard():
    big = dfs.AbelianErrorGroup(
        13, (pauli.identity(13), pauli.parse("X" * 13))
    )
    chi = dfs.characters(big)[0]
    with pytest.raises(ValueError, match="capped"):
        dfs.projector(chi)


def _gram_schmidt_basis(chi, tol=1e-10):
    """Reference: orthonormalize the dense projector's columns in index order."""
    proj = dfs.projector(chi)
    basis = []
    for index in range(proj.shape[0]):
        vec = proj[:, index].copy()
        for b in basis:
            vec -= np.vdot(b, vec) * b
        norm = np.linalg.norm(vec)
        if norm > tol:
            basis.append(vec / norm)
    return basis


@given(group=abelian_groups())
@example(group=_group("II,XX"))
@example(group=_group("IIII,XXII,IIXX,XXXX"))
@example(group=_group("IIII,ZZZZ,XXXX,YYYY"))
@example(group=_group("III,ZZI,IZZ,ZIZ"))
@example(group=_group("I,Z"))
@example(group=_group("II"))
def test_df_basis_matches_gram_schmidt_reference(group):
    n = group.n
    r = len(group.elements).bit_length() - 1
    for chi in dfs.characters(group):
        basis = dfs.df_basis(chi)
        reference = _gram_schmidt_basis(chi)
        assert len(basis) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(basis, reference))
        rank = round(np.trace(dfs.projector(chi)).real)
        assert len(basis) == 2 ** (n - r) == rank
        assert all(dfs.invariant(vec, chi) for vec in basis)
        if n - r >= 1:
            code = dfs.as_stabilizer_code(chi)
            assert code.k == n - r
            assert stabilizer.validate(code).valid
        else:
            with pytest.raises(ValueError, match="whole qubits"):
                dfs.as_stabilizer_code(chi)


def test_df_basis_projects_only_surviving_orbits(monkeypatch):
    calls = []
    project = statevec.project

    def counted(state, generators):
        calls.append(1)
        return project(state, generators)

    monkeypatch.setattr(statevec, "project", counted)
    group = dfs.AbelianErrorGroup.from_strings(_big_group_texts())
    chars = dfs.characters(group)
    for index in (0, 777):
        calls.clear()
        basis = dfs.df_basis(chars[index])
        assert len(basis) == len(calls) == 4
        assert all(dfs.invariant(vec, chars[index]) for vec in basis)


@pytest.mark.parametrize("elements, character", list(BUILD_PINS))
def test_build_bytes_are_pinned(elements, character):
    argv = ["dfs", "build", "--elements", elements]
    if character is not None:
        argv += ["--character", str(character)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BUILD_PINS[elements, character]


def test_full_build_over_pair_cap_exits_two_before_building(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        cli.main(["dfs", "build", "--elements", ",".join(_big_group_texts())])
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "--character" in json.loads(captured.err)["error"]


def test_build_path_never_builds_a_dense_matrix(monkeypatch, capsys):
    def dense(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(dfs, "projector", dense)
    monkeypatch.setattr(statevec, "pauli_matrix", dense)
    n = 12
    group = dfs.AbelianErrorGroup.from_strings(["I" * n, "X" * n, "Y" * n, "Z" * n])
    chars = dfs.characters(group)
    for chi in (chars[0], chars[-1]):
        basis = dfs.df_basis(chi)
        assert len(basis) == 1024
        for vec in (basis[0], basis[511], basis[-1]):
            assert dfs.invariant(vec, chi)
        del basis
    code = dfs.as_stabilizer_code(chars[0])
    assert code.k == 10
    assert stabilizer.validate(code).valid
    assert cli.main(["dfs", "build", "--elements", "II,XX"]) == 0
    assert '"characters"' in capsys.readouterr().out
