import contextlib
import functools
import hashlib
import io
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qdq import _tables, cli, concat, dfs, pauli, stabilizer, statevec
from qdq.concat import Order

# sha256 of `qdq concat build --outer OUTER --inner INNER --order ORDER` stdout,
# for every built-in triple under the correctable-error cap.
CONCAT_PINS = {
    ("dfs-2", "dfs-2", "qd"): "cb94dc49c2029bd743bacf5010f277263e293a060def9af986e547bc3f126923",
    ("dfs-2", "dfs-2", "dq"): "76052f8e7e40cfd09d56c2371d84803f4e7f5ba3d91d8f27abd1c434d7e1d018",
    ("dfs-2", "knill-laflamme-5", "qd"): "0c4bbd189b6fe9710a16b7d25242f1eeaf64690bff295503d3d6df451b339752",
    ("dfs-2", "knill-laflamme-5", "dq"): "0abd29a1e0378024dd6df1de59dfed264aab5618ae72428e9ef20522ca47c807",
    ("dfs-2", "repetition-3", "qd"): "8a8c6e55afa81f3cbb2be049de06297bbf66233e6e3905f8cfff6e8e5af9148b",
    ("dfs-2", "repetition-3", "dq"): "03cd2207ab1a3841ea8f6083e8bf991c3c0fab246df056cf64387100869af7aa",
    ("knill-laflamme-5", "dfs-2", "qd"): "552ca782c5896b34ad1a2030ed9f67fe78f8b319ec2560c414ee2bf43724b7fd",
    ("knill-laflamme-5", "dfs-2", "dq"): "5e09bc0cb27c4c16a9c24061832d4bcc54c66bd60e245562fc76886da66d2caf",
    ("knill-laflamme-5", "repetition-3", "qd"): "a627f9a0a4c3f77db3e63f71390c6791a020993a5974b1a379951c93b5b681f0",
    ("knill-laflamme-5", "repetition-3", "dq"): "8b057f2fd43a82733ab17a8d55b0488aca9834260ac657d55435b8528a824b37",
    ("repetition-3", "dfs-2", "qd"): "59487043e89af12359182ea6672250e18cdb5bca96d3b3fa8137b24b0eed9d07",
    ("repetition-3", "dfs-2", "dq"): "475c11ebf4881a6279c3d8d41794ab5dae095bb7eec741e2e0b9bf83979b8b7f",
    ("repetition-3", "knill-laflamme-5", "qd"): "7ed2d1bc6dacf0c6cf548dbaae11d25c6ff4d69dac7b030db0ce367dfcba2ae8",
    ("repetition-3", "knill-laflamme-5", "dq"): "d96caf8db82e5796ffa5e84032484e63a9eb56f9b742d52e0b097089be6d3c00",
    ("repetition-3", "repetition-3", "qd"): "75b3852a23cfaae367e91987fc95d238a506491ea229aef75176ba0370f10206",
    ("repetition-3", "repetition-3", "dq"): "9206af3932d7d0e41652294483fdfd2869e6fe163a1a4fb17e55a7594e9fcbbf",
}

# Every character of four collective groups, exported as an outer code.
SIGNED_OUTER = [
    dfs.as_stabilizer_code(chi)
    for elements in (["II", "XX"], ["II", "YY"], ["II", "ZZ"], ["III", "ZZI", "IZZ", "ZIZ"])
    for chi in dfs.characters(dfs.AbelianErrorGroup.from_strings(elements))
]
SIGNED_BUILDS = [
    (outer, inner, order)
    for outer in SIGNED_OUTER
    for inner in stabilizer.builtin_names()
    for order in Order
    if concat.correctable_count(concat.make_spec(outer, stabilizer.builtin(inner), order)) <= 4096
]


def test_lift_logical_dfs2():
    dfs2 = stabilizer.builtin("dfs-2")
    lifts = {
        label: [str(p) for p in concat.lift_logical(dfs2, label)]
        for label in "IXYZ"
    }
    assert lifts["I"] == ["II", "XX"]
    assert lifts["X"] == ["XI", "IX"]
    assert lifts["Y"] == ["YZ", "ZY"]
    assert lifts["Z"] == ["ZZ", "-YY"]


def test_lift_logical_rep3_x_has_four_realizations_acting_identically():
    rep3 = stabilizer.builtin("repetition-3")
    lifts = concat.lift_logical(rep3, "X")
    assert len(lifts) == 4
    assert str(lifts[0]) == "XXX"
    w0, w1 = statevec.codewords(rep3)
    for op in lifts:
        # Every realization is exactly the logical flip on the code space.
        assert np.allclose(statevec.apply_pauli(op, w0), w1, atol=1e-12)
        assert np.allclose(statevec.apply_pauli(op, w1), w0, atol=1e-12)


def test_lift_logical_realizations_act_identically_dfs2():
    dfs2 = stabilizer.builtin("dfs-2")
    w0, w1 = statevec.codewords(dfs2)
    for label in "IXYZ":
        ops = concat.lift_logical(dfs2, label)
        for w in (w0, w1):
            images = [statevec.apply_pauli(op, w) for op in ops]
            for img in images[1:]:
                assert np.allclose(img, images[0], atol=1e-12)


def test_lift_expands_only_the_named_letters_and_keeps_the_sign():
    dfs2 = stabilizer.builtin("dfs-2")
    assert [str(p) for p in concat.lift(dfs2, pauli.parse("-XI"))] == ["-XIII"]
    assert [str(p) for p in concat.lift(dfs2, pauli.parse("-XI"), "X")] == ["-XIII", "-IXII"]
    assert [str(p) for p in concat.lift(dfs2, pauli.parse("XI"), "IX")] == [
        "XIII", "XIXX", "IXII", "IXXX"
    ]


def test_lift_logical_requires_k1():
    trivial = stabilizer.StabilizerCode(
        "t", 2, 2, (), (pauli.parse("XI"), pauli.parse("IX")),
        (pauli.parse("ZI"), pauli.parse("IZ")), ()
    )
    with pytest.raises(ValueError, match="k=1"):
        concat.lift_logical(trivial, "X")


# ---------------------------------------------------------------------------
# Generator classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_generator_class_structure_matches_reference(code_id):
    cc = concat.concatenated(code_id)
    fixture = _tables.GENERATOR_CLASSES[code_id]
    built_passive = [c for c in cc.classes if c.passive]
    built_active = [c for c in cc.classes if not c.passive]
    assert {frozenset(map(str, c.representatives)) for c in built_passive} == {
        frozenset(reps) for reps in fixture["passive"]
    }
    assert {str(c.representative) for c in built_active} == {
        reps[0] for reps in fixture["active"]
    }
    expected_mult = fixture.get("active_multiplicity", None)
    if expected_mult:
        assert all(len(c.representatives) == expected_mult for c in built_active)


def test_qd6_active_class_representatives_exact():
    cc = concat.concatenated("qd6")
    active = [c for c in cc.classes if not c.passive]
    got = {frozenset(map(str, c.representatives)) for c in active}
    assert got == {
        frozenset(["ZZZZII", "-YYZZII", "-ZZYYII", "YYYYII"]),
        frozenset(["ZZIIZZ", "-YYIIZZ", "-ZZIIYY", "YYIIYY"]),
    }


def test_dq_lifted_class_is_single_representative():
    for code_id, passive_rep in (("dq6", "XXXXXX"), ("dq10", "XXXXXXXXXX")):
        cc = concat.concatenated(code_id)
        passive = [c for c in cc.classes if c.passive]
        assert len(passive) == 1
        assert [str(p) for p in passive[0].representatives] == [passive_rep]


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_one_representative_per_class_validates(code_id):
    cc = concat.concatenated(code_id)
    report = stabilizer.validate(cc.code)
    assert report.valid, report.failures
    assert len(cc.classes) == cc.code.n - cc.code.k


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_generator_degeneracy_same_syndrome_on_all_correctable_errors(code_id):
    cc = concat.concatenated(code_id)
    errors = [e for s in cc.equivalence.values() for e in s]
    for gclass in cc.classes:
        for error in errors:
            bits = {pauli.commutes(rep, error) for rep in gclass.representatives}
            assert len(bits) == 1, (str(gclass.representative), str(error))


def test_class_representatives_have_plus_phase_leading():
    for code_id in ("qd6", "dq6", "qd10", "dq10"):
        cc = concat.concatenated(code_id)
        for gclass in cc.classes:
            assert gclass.representative.phase == 0


# ---------------------------------------------------------------------------
# Equivalence classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "code_id,n_sets,per_set",
    [("qd6", 4, 8), ("dq6", 16, 2), ("qd10", 16, 32), ("dq10", 256, 2)],
)
def test_equivalence_class_counts(code_id, n_sets, per_set):
    eq = concat.concatenated(code_id).equivalence
    assert len(eq) == n_sets
    assert {len(s) for s in eq.values()} == {per_set}
    assert sum(map(len, eq.values())) == n_sets * per_set
    # Disjointness across sets (modulo phase).
    seen = set()
    for members in eq.values():
        for e in members:
            key = (e.x, e.z)
            assert key not in seen
            seen.add(key)


def test_equivalence_sets_qd6_match_printed_listing():
    eq = concat.concatenated("qd6").equivalence
    got = {frozenset(map(str, s)) for s in eq.values()}
    want = {frozenset(s) for s in _tables.EQUIV_SETS_QD6}
    assert got == want


def test_equivalence_sets_dq6_match_printed_listing():
    eq = concat.concatenated("dq6").equivalence
    got = {frozenset(map(str, s)) for s in eq.values()}
    want = {frozenset(s) for s in _tables.EQUIV_SETS_DQ6}
    assert got == want


def test_equivalence_qd10_contains_signed_realizations():
    eq = concat.concatenated("qd10").equivalence
    texts = {frozenset(map(str, s)) for s in eq.values()}
    with_z = next(s for s in texts if "ZZIIIIIIII" in s)
    assert "-YYIIIIIIII" in with_z
    assert len(with_z) == 32


def test_within_set_degenerate_across_sets_not():
    for code_id in ("qd6", "dq6"):
        cc = concat.concatenated(code_id)
        sets = cc.equivalence.values()
        for members in sets:
            for a, b in itertools.combinations(members, 2):
                assert stabilizer.are_degenerate(cc.code, a, b)
        for s1, s2 in itertools.combinations(sets, 2):
            for a in s1:
                for b in s2:
                    assert not stabilizer.are_degenerate(cc.code, a, b)


def test_cross_set_non_degeneracy_sampled_ten_qubit():
    rng = np.random.default_rng(17)
    for code_id in ("qd10", "dq10"):
        cc = concat.concatenated(code_id)
        sets = list(cc.equivalence.values())
        for _ in range(1000):
            i, j = rng.integers(0, len(sets), size=2)
            a = sets[i][rng.integers(0, len(sets[i]))]
            b = sets[j][rng.integers(0, len(sets[j]))]
            assert stabilizer.are_degenerate(cc.code, a, b) == (i == j)


# ---------------------------------------------------------------------------
# Efficiencies, decoder tables, passive sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "code_id,phi,phi_prime",
    [
        ("qd6", Fraction(1), Fraction(2, 5)),
        ("dq6", Fraction(1), Fraction(4, 5)),
        ("qd10", Fraction(1), Fraction(4, 9)),
        ("dq10", Fraction(1), Fraction(8, 9)),
    ],
)
def test_hamming_efficiencies_exact(code_id, phi, phi_prime):
    cc = concat.concatenated(code_id)
    got_phi, got_phi_prime = concat.hamming_efficiency(
        cc.equivalence, cc.code.n, cc.code.k
    )
    assert isinstance(got_phi, Fraction) and got_phi == phi
    assert isinstance(got_phi_prime, Fraction) and got_phi_prime == phi_prime


def test_hamming_efficiency_trivial_case():
    eq = {(0,): (pauli.identity(2),)}
    phi, phi_prime = concat.hamming_efficiency(eq, 2, 1)
    assert phi == 0 and phi_prime == 0


@pytest.mark.parametrize(
    "code_id,entries", [("qd6", 4), ("dq6", 16), ("qd10", 16), ("dq10", 256)]
)
def test_decoder_table_sizes_and_zero_entry(code_id, entries):
    cc = concat.concatenated(code_id)
    assert len(cc.table) == entries
    zero = (0,) * len(cc.code.generators)
    assert cc.table[zero] == pauli.identity(cc.spec.n_cc)


@pytest.mark.parametrize("outer, inner, order", sorted(CONCAT_PINS))
def test_partition_is_keyed_by_each_members_syndrome(outer, inner, order):
    spec = concat.make_spec(stabilizer.builtin(outer), stabilizer.builtin(inner), order)
    cc = concat.build(spec.outer, spec.inner, spec.order)
    for key, members in cc.equivalence.items():
        assert all(stabilizer.syndrome(cc.code, m) == key for m in members)
        assert cc.table[key] == min(members, key=str)
    assert cc.table.keys() == cc.equivalence.keys()
    assert cc.passive is cc.equivalence[(0,) * len(cc.code.generators)]
    assert sum(map(len, cc.equivalence.values())) == concat.correctable_count(spec)


def test_key_by_syndrome_rejects_a_split_set_and_a_shared_syndrome():
    code = stabilizer.builtin("repetition-3")
    ident, x0 = pauli.parse("III"), pauli.parse("XII")
    with pytest.raises(RuntimeError, match="spans syndromes"):
        concat.key_by_syndrome(code, ((ident, x0),))
    with pytest.raises(RuntimeError, match="collision"):
        concat.key_by_syndrome(code, ((ident,), (x0,), (pauli.parse("IXX"),)))


def test_passive_sets():
    qd6 = concat.concatenated("qd6")
    got = {str(p) for p in qd6.passive}
    assert got == set(_tables.EQUIV_SETS_QD6[0])

    dq6 = concat.concatenated("dq6")
    assert {str(p) for p in dq6.passive} == {"IIIIII", "XXXXXX"}

    dq10 = concat.concatenated("dq10")
    assert {str(p) for p in dq10.passive} == {"I" * 10, "X" * 10}

    qd10 = concat.concatenated("qd10")
    assert len(qd10.passive) == 32
    for p in qd10.passive:
        assert set(p.letters) <= {"I", "X"}


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_passive_set_is_single_equivalence_set_of_stabilizer_errors(code_id):
    cc = concat.concatenated(code_id)
    matches = [s for s in cc.equivalence.values() if set(s) == set(cc.passive)]
    assert len(matches) == 1
    for error in cc.passive:
        kind = stabilizer.classify(cc.code, error).kind
        assert kind is stabilizer.ErrorKind.STABILIZER
    # Generated by the passive generator classes alone.
    passive_code = stabilizer.StabilizerCode(
        "passive-part",
        cc.spec.n_cc,
        cc.spec.n_cc - sum(c.passive for c in cc.classes),
        tuple(c.representative for c in cc.classes if c.passive),
        (),
        (),
        tuple(True for c in cc.classes if c.passive),
    )
    generated = {
        (e.x, e.z) for e in stabilizer.stabilizer_group(passive_code)
    }
    assert {(e.x, e.z) for e in cc.passive} == generated


def test_build_rejects_k2_inner():
    outer = stabilizer.builtin("repetition-3")
    inner = stabilizer.StabilizerCode(
        "k2", 4, 2, (pauli.parse("XXXX"), pauli.parse("ZZZZ")),
        (pauli.parse("XIXI"), pauli.parse("IXXI")),
        (pauli.parse("ZIZI"), pauli.parse("IZZI")), (False, False)
    )
    with pytest.raises(ValueError, match="k=1"):
        concat.make_spec(outer, inner, Order.QD)
    # A k=3 outer code would give n=8, k=3 with one logical pair.
    flip = dfs.AbelianErrorGroup.from_strings(["IIII", "XXXX"])
    outer = dfs.as_stabilizer_code(dfs.characters(flip)[0])
    assert outer.k == 3
    with pytest.raises(ValueError, match="k=1"):
        concat.make_spec(outer, stabilizer.builtin("dfs-2"), Order.QD)


@pytest.mark.parametrize("outer, inner, order", sorted(CONCAT_PINS))
def test_build_bytes_are_pinned(outer, inner, order):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["concat", "build", "--outer", outer, "--inner", inner,
                         "--order", order]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CONCAT_PINS[outer, inner, order]


def test_every_buildable_builtin_triple_is_pinned():
    names = stabilizer.builtin_names()
    buildable = {
        (outer, inner, order.value)
        for outer, inner, order in itertools.product(names, names, Order)
        if concat.correctable_count(concat.make_spec(
            stabilizer.builtin(outer), stabilizer.builtin(inner), order)) <= concat.MAX_CORRECTABLE
    }
    assert buildable == set(CONCAT_PINS)


@pytest.mark.parametrize(
    "outer, inner, order", SIGNED_BUILDS,
    ids=[f"{','.join(map(str, o.generators))}-{i}-{order.value}" for o, i, order in SIGNED_BUILDS],
)
def test_signed_outer_code_lifts_with_its_signs(outer, inner, order):
    # A -XX outer generator must lift to the -1 eigenspace of the lifted XX,
    # not the +1 character's code.
    inner = stabilizer.builtin(inner)
    cc = concat.build(outer, inner, order)
    for g in outer.generators:
        canonical = (concat.lift_logical(inner, letter)[0] for letter in g.letters)
        signed = functools.reduce(pauli.tensor, canonical, pauli.PauliString(0, 0, 0, g.phase))
        assert stabilizer.group_element_phase(cc.code, signed) == 0, str(signed)
    for e in cc.passive:
        assert stabilizer.group_element_phase(cc.code, e) == 0, str(e)


def test_registry_rejects_unknown_ids():
    with pytest.raises(ValueError, match="qd6"):
        concat.concatenated("qd7")


@pytest.mark.parametrize("order", list(Order))
@pytest.mark.parametrize(
    "outer, inner",
    [
        pair
        for pair in itertools.product(stabilizer.builtin_names(), repeat=2)
        if pair != ("knill-laflamme-5", "knill-laflamme-5")
    ],
)
def test_correctable_count_matches_enumeration(outer, inner, order):
    spec = concat.make_spec(stabilizer.builtin(outer), stabilizer.builtin(inner), order)
    count = concat.correctable_count(spec)
    assert count == sum(map(len, concat.equivalence_classes(spec)))
    assert count <= concat.MAX_CORRECTABLE

