"""Property tests: invariants checked on drawn inputs, not spot values."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qdq import _kernels, analytic, concat, mc, pauli, stabilizer

unit = st.floats(min_value=0.0, max_value=1.0)


@pytest.mark.parametrize(
    "code_id, variant",
    [(cid, variant) for cid in concat.code_ids() for variant in concat.REGISTRY[cid].curves],
)
@given(p=unit, mu=unit)
@example(p=0.001, mu=0.4)  # qd10/table at depth 4 once raised on a -1.1e-16 layer
def test_depth_recursion_stays_a_probability(code_id, variant, p, mu):
    curve = analytic.failure_curve(code_id, mu, variant)
    for depth in (1, 2, 3, 4):
        value = analytic.depth_recursion(curve, depth)(p)
        assert 0.0 <= value <= 1.0, (depth, value)


@pytest.mark.parametrize("code_id", concat.code_ids())
@given(data=st.data())
def test_decode_is_invariant_under_stabilizer_elements(code_id, data):
    ccode = concat.concatenated(code_id)
    n = ccode.spec.n_cc
    # Low-weight errors, so both decode outcomes occur.
    letters = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ")), max_size=3)
    )
    error = pauli.identity(n)
    for q, letter in letters:
        error = pauli.multiply(error, pauli.single(n, q, letter))
    gens = ccode.code.generators
    subset = data.draw(st.integers(min_value=0, max_value=(1 << len(gens)) - 1))
    element = pauli.identity(n)
    for i, g in enumerate(gens):
        if (subset >> i) & 1:
            element = pauli.multiply(element, g)
    shifted = pauli.multiply(element, error)
    assert mc.decode_shot(ccode, shifted) == mc.decode_shot(ccode, error)


GRID_STEP = 1e-3


@given(
    root=st.floats(min_value=2 * GRID_STEP, max_value=0.45),
    slope=st.floats(min_value=0.01, max_value=10.0),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_pseudothreshold_finds_a_known_root(root, slope, sign):
    c = sign * slope

    def curve(p):
        return p + c * (p - root) * (1.0 - p)

    got = analytic.pseudothreshold(curve)
    assert got is not None and abs(got - root) <= 1e-8


@given(
    a=st.floats(min_value=2 * GRID_STEP, max_value=0.4),
    gap=st.floats(min_value=2 * GRID_STEP, max_value=0.08),
    slope=st.floats(min_value=0.01, max_value=10.0),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_pseudothreshold_returns_the_lower_of_two_crossings(a, gap, slope, sign):
    b = a + gap
    c = sign * slope

    def curve(p):
        return p + c * (p - a) * (p - b) * (1.0 - p)

    got = analytic.pseudothreshold(curve)
    assert got is not None and abs(got - a) <= 1e-8


def pauli_strings(n):
    bits = st.integers(min_value=0, max_value=(1 << n) - 1)
    return st.builds(pauli.PauliString, st.just(n), bits, bits, st.integers(0, 3))


def same_length(count):
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(*[pauli_strings(n)] * count)
    )


@given(same_length(3))
def test_multiply_is_associative(triple):
    a, b, c = triple
    left = pauli.multiply(pauli.multiply(a, b), c)
    assert left == pauli.multiply(a, pauli.multiply(b, c))


@given(same_length(1))
def test_square_is_phase_only(single):
    (p,) = single
    square = pauli.multiply(p, p)
    assert (square.x, square.z) == (0, 0)


@given(same_length(2), st.integers(0, 3))
def test_commutes_is_symmetric_and_ignores_phase(pair, phase):
    a, b = pair
    assert pauli.commutes(a, b) == pauli.commutes(b, a)
    assert pauli.commutes(replace(a, phase=phase), b) == pauli.commutes(a, b)


@given(same_length(2))
def test_products_commute_up_to_the_sign_commutes_sets(pair):
    a, b = pair
    ab, ba = pauli.multiply(a, b), pauli.multiply(b, a)
    assert (ab.x, ab.z) == (ba.x, ba.z)
    assert (ab.phase - ba.phase) % 4 == (0 if pauli.commutes(a, b) else 2)


# The block-class stream: one uniform per block, read as a class by the
# kernel and as a letter pattern by the reference sampler.
edge_or_unit = st.one_of(st.sampled_from((0.0, 1.0)), unit)
BLOCK_CODES = [
    (inner, alphabet)
    for inner in ("dfs-2", "repetition-3", "knill-laflamme-5")
    for alphabet in analytic.Alphabet
]


def _stream(inner_name, alphabet, p, mu):
    inner = stabilizer.builtin(inner_name)
    model = analytic.NoiseModel(p, mu, alphabet)
    classes = mc._block_classes(inner, alphabet)
    pattern_cdf = mc._pattern_cdf(model, inner)
    return model, classes, pattern_cdf, pattern_cdf[classes.ends - 1]


def _uniforms(data, cdf, size=None):
    """Uniforms in [0, 1), CDF thresholds among them."""
    edges = [float(t) for t in cdf if t < 1.0]
    draw = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    if edges:
        draw = st.one_of(draw, st.sampled_from(edges))
    bounds = {"min_size": size, "max_size": size} if size else {"min_size": 1, "max_size": 20}
    return np.array(data.draw(st.lists(draw, **bounds)))


class _GivenUniforms:
    """Stands in for a numpy Generator whose next draw is known."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == len(self.values)
        return self.values


@pytest.mark.parametrize("alphabet", list(analytic.Alphabet))
@pytest.mark.parametrize("code_id", concat.code_ids())
@given(p=edge_or_unit, mu=edge_or_unit, data=st.data())
def test_class_of_uniform_is_class_of_its_sampled_pattern(code_id, alphabet, p, mu, data):
    ccode = concat.concatenated(code_id)
    model = analytic.NoiseModel(p, mu, alphabet)
    classes = mc._block_classes(ccode.spec.inner, alphabet)
    class_cdf = mc._chain_arrays(model, ccode)[0]
    blocks = ccode.spec.blocks
    u = _uniforms(data, mc._pattern_cdf(model, ccode.spec.inner), size=len(blocks))
    error = mc.sample_error(model, ccode, _GivenUniforms(u))
    class_of = dict(zip(zip(classes.x.tolist(), classes.z.tolist()), classes.classes.tolist()))
    mask = (1 << ccode.spec.inner.n) - 1
    sampled = [class_of[(error.x >> b[0]) & mask, (error.z >> b[0]) & mask] for b in blocks]
    assert sampled == _kernels.site_classes(u, class_cdf).tolist()


def _assert_three_lookups_agree(u, thresholds):
    expected = _kernels.search(u, thresholds)
    assert np.array_equal(_kernels.compare_sum(u, thresholds), expected)
    assert np.array_equal(_kernels.indexed_search(u, thresholds), expected)


@pytest.mark.parametrize("inner_name, alphabet", BLOCK_CODES)
@given(p=edge_or_unit, mu=edge_or_unit, data=st.data())
def test_compare_sum_equals_searchsorted(inner_name, alphabet, p, mu, data):
    *_, class_cdf = _stream(inner_name, alphabet, p, mu)
    u = _uniforms(data, class_cdf)
    thresholds = class_cdf[:-1]
    _assert_three_lookups_agree(u, thresholds)
    if u.size % 2 == 0:
        _assert_three_lookups_agree(u.reshape(-1, 2), thresholds)


# Synthetic class CDFs: thresholds on and off the 2**-12 guide-cell edges,
# repeated (zero-probability classes), at 1.0 and past it.
CELL = 2.0**-12
ABOVE_ONE = float(np.nextafter(1.0, 2.0))
BELOW_ONE = float(np.nextafter(1.0, 0.0))
cell_edge = st.integers(0, 1 << 12).map(lambda c: c * CELL)
threshold = st.one_of(unit, cell_edge, st.sampled_from((0.0, 1.0, ABOVE_ONE)))
below_one = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
uniform = st.one_of(below_one, cell_edge.filter(lambda x: x < 1.0),
                    st.sampled_from((0.0, BELOW_ONE)))


@given(
    thresholds=st.lists(threshold, min_size=1, max_size=255).map(sorted),
    u=st.lists(uniform, min_size=1, max_size=40),
)
@example(thresholds=[0.0, CELL, 2 * CELL, 100 * CELL, 4095 * CELL],
         u=[0.0, CELL, 2 * CELL, 0.5, 4095 * CELL, BELOW_ONE])
@example(thresholds=[0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0],
         u=[0.0, 0.25, float(np.nextafter(0.25, 0.0)), 0.5, BELOW_ONE])
@example(thresholds=[0.3, 1.0, ABOVE_ONE, ABOVE_ONE],
         u=[0.0, 0.3, float(np.nextafter(0.3, 0.0)), BELOW_ONE])
@example(thresholds=[(1 + 2 * k) * CELL / 2 for k in range(255)],
         u=[k * CELL / 2 for k in range(512)])
def test_indexed_search_equals_searchsorted_on_synthetic_cdfs(thresholds, u):
    thresholds = np.array(thresholds)
    below = thresholds[thresholds < 1.0]
    # Every threshold below 1, and its neighbour just under it, as a uniform.
    u = np.concatenate([u, below, np.nextafter(below, 0.0)])
    _assert_three_lookups_agree(u, thresholds)
    rows = u[: u.size - u.size % 3].reshape(-1, 3)
    _assert_three_lookups_agree(rows, thresholds)
    class_cdf = np.append(thresholds, 1.0)
    assert np.array_equal(_kernels.site_classes(rows, class_cdf),
                          _kernels.search(rows, thresholds))


def test_class_cdfs_fit_in_uint8():
    u = np.random.default_rng(0).random(10_000)
    for thresholds in (np.arange(1, 256) / 256, np.sort(np.random.default_rng(1).random(255))):
        class_cdf = np.append(thresholds, 1.0)
        assert class_cdf.size == 256
        classes = _kernels.site_classes(u, class_cdf)
        assert np.array_equal(classes, _kernels.search(u, thresholds))
        assert classes.max() == 255
    with pytest.raises(ValueError, match="256"):
        _kernels.site_classes(u, np.append(np.arange(1, 257) / 257, 1.0))


@pytest.mark.parametrize("inner_name, alphabet", BLOCK_CODES)
@given(p=edge_or_unit, mu=edge_or_unit)
def test_pattern_cdf_steps_are_chain_probabilities(inner_name, alphabet, p, mu):
    model, classes, pattern_cdf, _ = _stream(inner_name, alphabet, p, mu)
    steps = np.diff(pattern_cdf, prepend=0.0)
    for letters, step in zip(classes.letters.tolist(), steps):
        assert abs(step - analytic.chain_probability(model, letters)) <= 1e-15


CHECK_WORD_CODES = ["repetition-3", "dfs-2", "knill-laflamme-5", *concat.code_ids()]


def _check_word_code(name):
    if name in concat.REGISTRY:
        return concat.concatenated(name).code
    return stabilizer.builtin(name)


@pytest.mark.parametrize("name", CHECK_WORD_CODES)
@given(data=st.data())
def test_equal_check_words_iff_degenerate(name, data):
    code = _check_word_code(name)
    a = data.draw(pauli_strings(code.n))
    # b is a times a drawn stabilizer element, times a drawn Pauli or not,
    # so both degenerate and non-degenerate pairs occur.
    subset = data.draw(st.integers(min_value=0, max_value=(1 << len(code.generators)) - 1))
    b = a
    for i, g in enumerate(code.generators):
        if (subset >> i) & 1:
            b = pauli.multiply(b, g)
    if data.draw(st.booleans()):
        b = pauli.multiply(b, data.draw(pauli_strings(code.n)))
    word_a, word_b = (int(mc._check_words(code, p.x, p.z)) for p in (a, b))
    assert (word_a == word_b) == stabilizer.are_degenerate(code, a, b)


MINUS_I = "-I (or +/-i I) lies in the generated group"


def _closure_has_minus_identity(gens) -> bool:
    """Reference: close the set under products, squares included, and look
    for a bit-trivial element with a nonzero phase."""
    elements = set(gens)
    frontier = list(gens)
    while frontier:
        a = frontier.pop()
        for b in list(elements):
            for product in (pauli.multiply(a, b), pauli.multiply(b, a)):
                if product not in elements:
                    elements.add(product)
                    frontier.append(product)
    return any(e.x == 0 and e.z == 0 and e.phase != 0 for e in elements)


@st.composite
def commuting_generators(draw):
    """Up to 2n mutually commuting Paulis on n <= 4 qubits, phases 0-3;
    repeats and dependent rows are kept, since they carry the relations."""
    n = draw(st.integers(min_value=1, max_value=4))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    drawn = draw(st.lists(st.tuples(masks, masks, st.integers(0, 3)), max_size=2 * n))
    gens: list[pauli.PauliString] = []
    for x, z, phase in drawn:
        p = pauli.PauliString(n, x, z, phase)
        if all(pauli.commutes(p, g) for g in gens):
            gens.append(p)
    return [pauli.format_pauli(g) for g in gens]


@given(texts=commuting_generators())
@example(texts=["XX", "ZZ", "YY"])  # XX * ZZ = -YY
@example(texts=["XX", "ZZ", "-YY"])
@example(texts=["iXX"])  # (iXX)**2 = -I, though iXX is the only non-identity element
def test_validate_finds_minus_identity_exactly_when_the_closure_does(texts):
    gens = tuple(pauli.parse(t) for t in texts)
    n = gens[0].n if gens else 1
    code = stabilizer.StabilizerCode(
        "drawn", n, 0, gens, (), (), (False,) * len(gens)
    )
    flagged = MINUS_I in stabilizer.validate(code).failures
    assert flagged == _closure_has_minus_identity(gens)
