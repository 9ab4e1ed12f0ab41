import itertools

import pytest

from qdq import pauli

# Hand-worked single-qubit multiplication table (row * column).
SINGLE_QUBIT_PRODUCTS = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "iZ", ("X", "Z"): "-iY",
    ("Y", "I"): "Y", ("Y", "X"): "-iZ", ("Y", "Y"): "I", ("Y", "Z"): "iX",
    ("Z", "I"): "Z", ("Z", "X"): "iY", ("Z", "Y"): "-iX", ("Z", "Z"): "I",
}


def test_parse_examples():
    p = pauli.parse("XIIXII")
    assert p.x == 0b001001 and p.z == 0
    assert p.phase == 0

    ident = pauli.parse("IIIIII")
    assert ident.x == 0 and ident.z == 0 and ident.phase == 0

    m = pauli.parse("-YY")
    assert m.x == 0b11 and m.z == 0b11 and m.phase == 2


@pytest.mark.parametrize("text,phase", [("iX", 1), ("-iZ", 3), ("+Y", 0), ("-X", 2)])
def test_parse_sign_prefixes(text, phase):
    assert pauli.parse(text).phase == phase


def test_parse_rejects_bad_character_with_position():
    with pytest.raises(ValueError, match="position 2"):
        pauli.parse("XIQZ")
    with pytest.raises(ValueError, match="position 3"):
        pauli.parse("-iXA")
    with pytest.raises(ValueError):
        pauli.parse("")


def test_round_trip_exhaustive_up_to_three_qubits():
    for n in (1, 2, 3):
        for phase_prefix in ("", "i", "-", "-i"):
            for letters in itertools.product("IXYZ", repeat=n):
                text = phase_prefix + "".join(letters)
                assert str(pauli.parse(text)) == text


def test_single_qubit_multiplication_table():
    for (a, b), want in SINGLE_QUBIT_PRODUCTS.items():
        got = pauli.multiply(pauli.parse(a), pauli.parse(b))
        assert str(got) == want, f"{a}*{b}"


def test_multiply_examples():
    assert str(pauli.multiply(pauli.parse("ZZ"), pauli.parse("XX"))) == "-YY"
    assert str(pauli.multiply(pauli.parse("X"), pauli.parse("Z"))) == "-iY"
    p = pauli.parse("iXYZ")
    assert pauli.multiply(p, pauli.identity(3)) == p
    assert pauli.multiply(pauli.identity(3), p) == p


def test_multiply_associative_exhaustive_single_qubit():
    ops = [pauli.parse(s) for s in "IXYZ"]
    for a, b, c in itertools.product(ops, repeat=3):
        left = pauli.multiply(pauli.multiply(a, b), c)
        right = pauli.multiply(a, pauli.multiply(b, c))
        assert left == right


def test_multiply_self_gives_phase_only():
    for text in ("X", "iY", "-ZZ", "XYZI", "-iYXZY"):
        p = pauli.parse(text)
        sq = pauli.multiply(p, p)
        assert sq.x == 0 and sq.z == 0


def test_multiply_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        pauli.multiply(pauli.parse("XX"), pauli.parse("X"))


def _commutes_by_letters(a: str, b: str) -> bool:
    clashes = sum(
        1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y
    )
    return clashes % 2 == 0


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("XZZXI", "IXZZX", True),
        ("X", "Z", False),
        ("XXXXXX", "ZZIIII", True),
    ],
)
def test_commutes_examples(a, b, want):
    assert pauli.commutes(pauli.parse(a), pauli.parse(b)) is want
    assert _commutes_by_letters(a, b) is want


def test_commutes_matches_letter_oracle_exhaustive_two_qubits():
    for a in itertools.product("IXYZ", repeat=2):
        for b in itertools.product("IXYZ", repeat=2):
            sa, sb = "".join(a), "".join(b)
            assert pauli.commutes(pauli.parse(sa), pauli.parse(sb)) == _commutes_by_letters(sa, sb)


def test_commutes_symmetric_and_phase_independent():
    a = pauli.parse("XYZI")
    b = pauli.parse("ZZXY")
    for pa in range(4):
        for pb in range(4):
            ap = pauli.PauliString(4, a.x, a.z, pa)
            bp = pauli.PauliString(4, b.x, b.z, pb)
            assert pauli.commutes(ap, bp) == pauli.commutes(bp, ap)
            assert pauli.commutes(ap, bp) == pauli.commutes(a, b)


def test_product_order_swaps_iff_commuting():
    for a in itertools.product("IXYZ", repeat=2):
        for b in itertools.product("IXYZ", repeat=2):
            pa, pb = pauli.parse("".join(a)), pauli.parse("".join(b))
            ab = pauli.multiply(pa, pb)
            ba = pauli.multiply(pb, pa)
            assert (ab.x, ab.z) == (ba.x, ba.z)
            assert (ab == ba) == pauli.commutes(pa, pb)


def test_tensor():
    assert str(pauli.tensor(pauli.parse("XX"), pauli.parse("II"))) == "XXII"
    assert str(pauli.tensor(pauli.parse("I"), pauli.parse("X"))) == "IX"
    assert str(pauli.tensor(pauli.parse("-Y"), pauli.parse("Y"))) == "-YY"


def test_embed_places_block():
    p = pauli.embed(pauli.parse("-YY"), 2, 6)
    assert str(p) == "-IIYYII"


def test_single_and_letter_access():
    p = pauli.single(4, 2, "Y")
    assert str(p) == "IIYI"
    assert p.letters[2] == "Y" and p.letters[0] == "I"
    with pytest.raises(ValueError):
        pauli.single(4, 4, "X")
    with pytest.raises(ValueError):
        pauli.single(4, 0, "Q")
