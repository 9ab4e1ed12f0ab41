import dataclasses
import gc
import itertools
import weakref

import pytest

from qdq import concat, dfs, pauli, stabilizer
from qdq.stabilizer import ErrorKind


def _group_by_products(code) -> set[tuple[int, int]]:
    """Independent membership oracle: enumerate every subset product."""
    elements = {(0, 0)}
    for size in range(1, len(code.generators) + 1):
        for combo in itertools.combinations(code.generators, size):
            prod = pauli.identity(code.n)
            for g in combo:
                prod = pauli.multiply(prod, g)
            elements.add((prod.x, prod.z))
    return elements


def test_builtins_are_valid():
    for name in stabilizer.builtin_names():
        report = stabilizer.validate(stabilizer.builtin(name))
        assert report.valid, report.failures


def test_builtin_contents():
    rep3 = stabilizer.builtin("repetition-3")
    assert (rep3.n, rep3.k) == (3, 1)
    assert [str(g) for g in rep3.generators] == ["ZZI", "ZIZ"]
    assert str(rep3.logical_x[0]) == "XXX" and str(rep3.logical_z[0]) == "ZII"

    dfs2 = stabilizer.builtin("dfs-2")
    assert (dfs2.n, dfs2.k) == (2, 1)
    assert [str(g) for g in dfs2.generators] == ["XX"]
    assert dfs2.passive_mask == (True,)
    assert str(dfs2.logical_x[0]) == "XI" and str(dfs2.logical_z[0]) == "ZZ"

    kl5 = stabilizer.builtin("knill-laflamme-5")
    assert (kl5.n, kl5.k) == (5, 1)
    assert [str(g) for g in kl5.generators] == ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]


def test_builtin_unknown_name_lists_valid():
    with pytest.raises(ValueError, match="repetition-3"):
        stabilizer.builtin("nope")


def test_validate_flags_anticommuting_pair():
    bad = stabilizer.StabilizerCode(
        name="bad",
        n=2,
        k=0,
        generators=(pauli.parse("XI"), pauli.parse("ZI")),
        logical_x=(),
        logical_z=(),
        passive_mask=(False, False),
    )
    report = stabilizer.validate(bad)
    assert not report.valid
    assert report.failures == ("generator[0] and generator[1] anticommute: XI vs ZI",)


def test_validate_flags_a_logical_inside_the_group():
    rep3 = stabilizer.builtin("repetition-3")
    bad = dataclasses.replace(rep3, logical_z=(pauli.parse("ZZI"),))
    report = stabilizer.validate(bad)
    assert report.failures == ("logical_x[0] and logical_z[0] commute: XXX vs ZZI",)


def test_validate_flags_dependent_generators():
    bad = stabilizer.StabilizerCode(
        name="dep",
        n=3,
        k=0,
        generators=(pauli.parse("ZZI"), pauli.parse("ZIZ"), pauli.parse("IZZ")),
        logical_x=(),
        logical_z=(),
        passive_mask=(False,) * 3,
    )
    report = stabilizer.validate(bad)
    assert any("dependent" in f for f in report.failures)


def test_syndrome_examples():
    rep3 = stabilizer.builtin("repetition-3")
    assert stabilizer.syndrome(rep3, pauli.parse("XII")) == (1, 1)
    assert stabilizer.syndrome(rep3, pauli.parse("III")) == (0, 0)

    qd6 = concat.concatenated("qd6").code
    assert stabilizer.syndrome(qd6, pauli.parse("XIIIII")) == (0, 0, 0, 1, 1)
    assert stabilizer.syndrome(qd6, pauli.identity(6)) == (0,) * 5


def test_check_word_examples():
    rep3 = stabilizer.builtin("repetition-3")
    # Syndrome (1, 1), then X_bar = XXX commutes and Z_bar = ZII anticommutes.
    x = pauli.parse("XII")
    assert stabilizer.check_word(rep3, x.x, x.z) == 0b1011
    z = pauli.parse("ZII")
    assert stabilizer.check_word(rep3, z.x, z.z) == 0b0100
    two = stabilizer.StabilizerCode(
        "two", 2, 2, (), (pauli.parse("XI"), pauli.parse("IX")),
        (pauli.parse("ZI"), pauli.parse("IZ")), ()
    )
    with pytest.raises(ValueError, match="k = 1"):
        stabilizer.check_word(two, 0, 0)


def test_syndrome_dimension_mismatch():
    rep3 = stabilizer.builtin("repetition-3")
    with pytest.raises(ValueError):
        stabilizer.syndrome(rep3, pauli.parse("XX"))


def test_classify_examples():
    qd6 = concat.concatenated("qd6").code
    assert stabilizer.classify(qd6, pauli.parse("XXIIXX")) is ErrorKind.STABILIZER

    rep3 = stabilizer.builtin("repetition-3")
    assert stabilizer.classify(rep3, pauli.parse("XXX")) is ErrorKind.LOGICAL
    assert stabilizer.syndrome(rep3, pauli.parse("XXX")) == (0, 0)
    assert stabilizer.classify(rep3, pauli.identity(3)) is ErrorKind.STABILIZER
    assert stabilizer.classify(rep3, pauli.parse("XII")) is ErrorKind.DETECTABLE


def test_classify_with_decoder_table():
    cc = concat.concatenated("qd6")
    for text, decodable in (("XIIIII", True), ("ZIIIII", False)):
        error = pauli.parse(text)
        assert stabilizer.classify(cc.code, error) is ErrorKind.DETECTABLE
        assert (stabilizer.syndrome(cc.code, error) in cc.table) == decodable


def test_classify_membership_matches_product_enumeration():
    codes = [stabilizer.builtin(n) for n in stabilizer.builtin_names()]
    for code in codes:
        group = _group_by_products(code)
        errors = [pauli.identity(code.n)] + [
            pauli.single(code.n, q, letter)
            for q in range(code.n)
            for letter in "XYZ"
        ]
        if code.name == "dfs-2":
            errors.append(pauli.parse("XX"))
        for err in errors:
            expected = (err.x, err.z) in group
            got = stabilizer.classify(code, err) is ErrorKind.STABILIZER
            assert got == expected, (code.name, str(err))


@pytest.mark.parametrize("code_id", concat.code_ids())
def test_classify_on_each_registry_code(code_id):
    cc = concat.concatenated(code_id)
    code, identity = cc.code, pauli.identity(cc.code.n)
    for error in (identity, *cc.passive):
        assert stabilizer.classify(code, error) is ErrorKind.STABILIZER, str(error)
    for logical in (code.logical_x[0], code.logical_z[0]):
        assert stabilizer.classify(code, logical) is ErrorKind.LOGICAL, str(logical)
    assert cc.table[(0,) * len(code.generators)] == identity
    for correction in cc.table.values():
        if correction != identity:
            assert stabilizer.classify(code, correction) is ErrorKind.DETECTABLE, str(correction)


def _degenerate(code, a, b):
    return stabilizer.classify(code, pauli.multiply(a, b)) is ErrorKind.STABILIZER


def test_are_degenerate_examples():
    qd6 = concat.concatenated("qd6").code
    assert _degenerate(qd6, pauli.parse("XIIIII"), pauli.parse("IXIIII"))
    p = pauli.parse("XIXIXI")
    assert _degenerate(qd6, p, p)

    dq6 = concat.concatenated("dq6").code
    assert not _degenerate(dq6, pauli.parse("XIIIII"), pauli.parse("IXIIII"))


def test_degeneracy_is_equivalence_relation_on_weight_two_errors():
    """Reflexive/symmetric/transitive over all weight <= 2 errors, both
    six-qubit codes."""
    errors = [pauli.identity(6)]
    for q in range(6):
        for letter in "XYZ":
            errors.append(pauli.single(6, q, letter))
    for q1, q2 in itertools.combinations(range(6), 2):
        for l1 in "XYZ":
            for l2 in "XYZ":
                e = pauli.multiply(pauli.single(6, q1, l1), pauli.single(6, q2, l2))
                errors.append(e)

    for cid in ("qd6", "dq6"):
        code = concat.concatenated(cid).code
        deg = {
            (i, j): _degenerate(code, a, b)
            for (i, a), (j, b) in itertools.product(enumerate(errors), repeat=2)
        }
        for i in range(len(errors)):
            assert deg[i, i]
        for i, j in itertools.combinations(range(len(errors)), 2):
            assert deg[i, j] == deg[j, i]
            if deg[i, j]:
                for m in range(len(errors)):
                    assert deg[i, m] == deg[j, m]


def test_rep3_syndromes_injective_on_correctable_set():
    rep3 = stabilizer.builtin("repetition-3")
    syndromes = [
        stabilizer.syndrome(rep3, pauli.parse(e))
        for e in ("III", "XII", "IXI", "IIX")
    ]
    assert len(set(syndromes)) == 4


def test_group_element_phase_diagnostic():
    qd6 = concat.concatenated("qd6").code
    # XXIIII * ZZZZII = -YYZZII exactly, so the signed string is literally a
    # group element while the unsigned one matches only up to -1.
    minus = pauli.parse("-YYZZII")
    assert stabilizer.classify(qd6, minus) is ErrorKind.STABILIZER
    assert stabilizer.group_element_phase(qd6, minus) == 0
    assert stabilizer.group_element_phase(qd6, pauli.parse("YYZZII")) == 2
    assert stabilizer.group_element_phase(qd6, pauli.parse("XXIIII")) == 0
    assert stabilizer.group_element_phase(qd6, pauli.parse("ZZIIII")) is None


def test_row_lookup_checks_the_error_length():
    code = stabilizer.StabilizerCode(
        "zi", 2, 1, (pauli.parse("ZI"),), (pauli.parse("IX"),), (pauli.parse("IZ"),), (False,)
    )
    assert stabilizer.group_element_phase(code, pauli.parse("ZI")) == 0
    for lookup in (stabilizer.group_element_phase, stabilizer.classify):
        with pytest.raises(ValueError, match="acts on 1 qubits, code has 2"):
            lookup(code, pauli.parse("Z"))


def test_dropped_code_leaves_nothing_alive():
    generator = pauli.parse("ZZI")
    code = stabilizer.StabilizerCode(
        "rep", 3, 1, (generator, pauli.parse("ZIZ")),
        (pauli.parse("XXX"),), (pauli.parse("ZII"),), (False, False),
    )
    assert stabilizer.validate(code).valid
    assert stabilizer.classify(code, pauli.parse("IZZ")) is ErrorKind.STABILIZER
    alive = weakref.ref(generator)
    del code, generator
    gc.collect()
    assert alive() is None


def test_structure_comes_without_group_walk_or_candidate_search(monkeypatch):
    codes = [stabilizer.builtin(name) for name in stabilizer.builtin_names()]
    codes += [concat.concatenated(cid).code for cid in concat.code_ids()]
    kl5 = stabilizer.builtin("knill-laflamme-5")
    spec = concat.make_spec(kl5, kl5, concat.Order.QD)
    codes.append(concat.concatenated_code(spec, concat.build_generators(spec)))
    flip = dfs.AbelianErrorGroup.from_strings(["II", "XX"])
    n = 12
    collective = dfs.AbelianErrorGroup.from_strings(["I" * n, "X" * n, "Y" * n, "Z" * n])
    exports = [*dfs.characters(flip), dfs.characters(collective)[0]]

    def refuse(*args, **kwargs):
        raise AssertionError("group walk or candidate search")

    monkeypatch.setattr(stabilizer, "stabilizer_group", refuse)
    for code in codes:
        assert stabilizer.validate(code).valid, code.name
    # Single-qubit candidate products were the old logical search.
    monkeypatch.setattr(pauli, "single", refuse)
    for chi in exports:
        code = dfs.as_stabilizer_code(chi)
        assert stabilizer.validate(code).valid
