import functools
import hashlib
import math

import numpy as np
import pytest

from qdq import _kernels, analytic, concat, mc, pauli, stabilizer
from qdq.analytic import Alphabet, NoiseModel
from qdq.stabilizer import ErrorKind


def cfg(code_id="qd6", p=0.1, mu=0.0, shots=10_000, seed=7, alphabet=None):
    alphabet = alphabet or mc.default_alphabet(code_id)
    return mc.SampleConfig(NoiseModel(p, mu, alphabet), code_id, shots, seed)


def test_reproducible_bit_for_bit():
    a = mc.estimate_pf(cfg(seed=123))
    b = mc.estimate_pf(cfg(seed=123))
    assert a.failures == b.failures and a.pf_hat == b.pf_hat
    c = mc.estimate_pf(cfg(seed=124))
    assert c.failures != a.failures or c.pf_hat != a.pf_hat


def test_chunking_does_not_change_the_stream(monkeypatch):
    baseline = mc.estimate_pf(cfg(shots=30_000, seed=5))
    monkeypatch.setattr(mc, "CHUNK_SHOTS", 7_001)
    rechunked = mc.estimate_pf(cfg(shots=30_000, seed=5))
    assert rechunked.failures == baseline.failures


def test_fast_path_matches_reference_path_shot_for_shot():
    for code_id, alphabet in (
        ("qd6", Alphabet.BITFLIP),
        ("dq6", Alphabet.BITFLIP),
        ("qd10", Alphabet.DEPOLARIZING3),
        ("dq10", Alphabet.DEPOLARIZING3),
    ):
        config = cfg(code_id=code_id, p=0.2, mu=0.5, shots=2_000, seed=31,
                     alphabet=alphabet)
        fast = mc.estimate_pf(config)
        slow = mc.estimate_pf_reference(config)
        assert fast.failures == slow.failures, code_id


def _pattern_error(index, n, n_letters):
    """The Pauli of letter pattern ``index`` = sum_q letter_q * L**q."""
    letters = []
    for _ in range(n):
        index, letter = divmod(index, n_letters)
        letters.append("IXYZ"[letter])
    return pauli.parse("".join(letters))


_LETTER_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))


@functools.lru_cache(maxsize=None)
def _pattern_reference_table(code_id, alphabet):
    """fail[index] over all L**n letter patterns, index = sum_q letter_q * L**q.

    The per-qubit form of the failure table: syndrome and symplectic key
    (x << n) | z are GF(2)-linear in the error, so over all patterns each
    is the XOR outer product of n per-qubit tables of L entries.
    """
    ccode = concat.concatenated(code_id)
    n = ccode.spec.n_cc
    n_letters = 2 if alphabet is Alphabet.BITFLIP else 4
    gens = ccode.code.generators

    syn = np.zeros(1, dtype=np.uint16)
    key = np.zeros(1, dtype=np.uint32)
    for q in reversed(range(n)):
        syn_q = np.zeros(n_letters, dtype=np.uint16)
        key_q = np.zeros(n_letters, dtype=np.uint32)
        for letter, (xb, zb) in enumerate(_LETTER_XZ[:n_letters]):
            for i, g in enumerate(gens):
                bit = (xb & (g.z >> q)) ^ (zb & (g.x >> q))
                syn_q[letter] |= (bit & 1) << i
            key_q[letter] = (xb << (n + q)) | (zb << q)
        syn = (syn[:, None] ^ syn_q[None, :]).ravel()
        key = (key[:, None] ^ key_q[None, :]).ravel()

    n_syn = 1 << len(gens)
    corr_key = np.zeros(n_syn, dtype=np.uint32)
    known = np.zeros(n_syn, dtype=bool)
    for syndrome, correction in ccode.table.items():
        s = sum(b << i for i, b in enumerate(syndrome))
        corr_key[s] = (correction.x << n) | correction.z
        known[s] = True

    stab_lookup = np.zeros(1 << (2 * n), dtype=bool)
    for element in stabilizer.stabilizer_group(ccode.code):
        stab_lookup[(element.x << n) | element.z] = True

    key ^= corr_key[syn]
    return ~(known[syn] & stab_lookup[key])


def _local_classes(code_id, alphabet):
    """Class of every block-local pattern, by local index."""
    inner = concat.concatenated(code_id).spec.inner
    classes = mc._block_classes(inner, alphabet)
    n_letters = 2 if alphabet is Alphabet.BITFLIP else 4
    local = classes.letters @ (n_letters ** np.arange(inner.n))
    by_local = np.empty(local.size, dtype=np.int64)
    by_local[local] = classes.classes
    return by_local


def _class_index(code_id, alphabet, indices):
    """Class-tuple index sum_b class_b * C**b of each letter pattern."""
    ccode = concat.concatenated(code_id)
    by_local = _local_classes(code_id, alphabet)
    n_classes = int(by_local.max()) + 1
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros_like(indices)
    for b in range(len(ccode.spec.blocks)):
        local = (indices // by_local.size**b) % by_local.size
        out += by_local[local] * n_classes**b
    return out


def _assert_table_matches_decoder(code_id, alphabet, indices):
    ccode = concat.concatenated(code_id)
    table = mc._failure_table(code_id, alphabet)
    reference = _pattern_reference_table(code_id, alphabet)
    n_letters = 2 if alphabet is Alphabet.BITFLIP else 4
    for index, class_index in zip(indices, _class_index(code_id, alphabet, indices)):
        error = _pattern_error(int(index), ccode.spec.n_cc, n_letters)
        decoded = mc.decode_shot(ccode, error)
        assert bool(table[class_index]) == bool(reference[index]) == decoded, (
            code_id, str(error))


@pytest.mark.parametrize("alphabet", [Alphabet.BITFLIP, Alphabet.DEPOLARIZING3])
@pytest.mark.parametrize("code_id", ["qd6", "dq6"])
def test_failure_table_matches_reference_decoder_on_every_pattern(code_id, alphabet):
    size = (2 if alphabet is Alphabet.BITFLIP else 4) ** 6
    _assert_table_matches_decoder(code_id, alphabet, range(size))


@pytest.mark.parametrize("code_id", ["qd10", "dq10"])
def test_failure_table_matches_reference_decoder_on_sample(code_id):
    size = 4**10
    sample = np.random.default_rng(41).choice(size, 4096, replace=False)
    indices = np.concatenate(([0, size - 1], sample))
    _assert_table_matches_decoder(code_id, Alphabet.DEPOLARIZING3, indices)


@pytest.mark.parametrize(
    "code_id, alphabet, classes, entries",
    [
        ("qd6", Alphabet.BITFLIP, 2, 8),
        ("dq6", Alphabet.BITFLIP, 8, 64),
        ("qd10", Alphabet.DEPOLARIZING3, 8, 32_768),
        ("dq10", Alphabet.DEPOLARIZING3, 64, 4_096),
    ],
)
def test_block_class_counts_and_table_sizes(code_id, alphabet, classes, entries):
    assert int(_local_classes(code_id, alphabet).max()) + 1 == classes
    table = mc._failure_table(code_id, alphabet)
    assert table.dtype == np.uint8 and table.shape == (entries,)


# sha256 of each whole failure table and of its inner block's class array,
# as built by a coset search over the inner stabilizer group, independently
# of check words.
TABLE_PINS = {
    ("qd6", Alphabet.BITFLIP): (
        "6fa1038404fd3fb9f6fa7e8318b3d45d28e2fbf9ade453fd11f455fc2c3d710b",
        "b64c0d4ec2af5aba75d0e38754bd4da29669e6bd54220441f3710964fdb4ece3",
    ),
    ("qd6", Alphabet.DEPOLARIZING3): (
        "06b1844f202069810073bdbe5695ea96e54f518174fb21e103adde27f99aa943",
        "09d1783e2a3311e81f60edd47c3ebe657c93b01c95d9c015985f477801b119b9",
    ),
    ("dq6", Alphabet.BITFLIP): (
        "083d6ba49b8ce57767aa3dc4707ed93df58b739b1279af01881b103bf93a7252",
        "fece8d601cd4c9020e24f9e4a47feedefb2bceff5e9798d8056aea8700052eaa",
    ),
    ("dq6", Alphabet.DEPOLARIZING3): (
        "c97e564468e3692e70986689786a9969bc816cecae71b5011fbd686834860cf7",
        "517b3f4836cf18b811d6f8a417ae7b3c3799ec5451bc9b7c6894c35f75de7ec7",
    ),
    ("qd10", Alphabet.BITFLIP): (
        "9c7c7bba2e608e2a1897d59eeaca18e114cc7494f166b8b65a20adbdba11be80",
        "b64c0d4ec2af5aba75d0e38754bd4da29669e6bd54220441f3710964fdb4ece3",
    ),
    ("qd10", Alphabet.DEPOLARIZING3): (
        "5b9306e6a94765221acf09db7319028533bd982c96b5fd01f7c1b5ba66bf96d5",
        "09d1783e2a3311e81f60edd47c3ebe657c93b01c95d9c015985f477801b119b9",
    ),
    ("dq10", Alphabet.BITFLIP): (
        "b919401a7e79d713915bcaa7888c580a147565b5088886661455e43620c8c0a5",
        "bcc9bcfc670935c6018dc26a74956a373b655f8930dd55ab074d816d7d233780",
    ),
    ("dq10", Alphabet.DEPOLARIZING3): (
        "1462876cbcb4bd29707d76aae170ef74c5ea1685b885b12c67d3ace10df1f3a8",
        "6f9a04216ce84ed3a2ef19a2010723c498d866f2bb5d6eda67ea1bd16782bfd8",
    ),
}


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("code_id, alphabet", list(TABLE_PINS))
def test_whole_tables_are_pinned(code_id, alphabet):
    inner = concat.concatenated(code_id).spec.inner
    table = mc._failure_table(code_id, alphabet)
    classes = mc._block_classes(inner, alphabet).classes
    assert (table.dtype, classes.dtype) == (np.uint8, np.int64)
    assert (_sha256(table), _sha256(classes)) == TABLE_PINS[code_id, alphabet]


def test_tables_build_without_the_stabilizer_group(monkeypatch):
    for code_id in concat.code_ids():
        concat.concatenated(code_id)

    def refuse(code):
        raise AssertionError(f"stabilizer_group({code.name}) called")

    monkeypatch.setattr(stabilizer, "stabilizer_group", refuse)
    mc._block_classes.cache_clear()
    mc._failure_table.cache_clear()
    try:
        for code_id, alphabet in TABLE_PINS:
            assert _sha256(mc._failure_table(code_id, alphabet)) == TABLE_PINS[code_id, alphabet][0]
    finally:
        mc._block_classes.cache_clear()
        mc._failure_table.cache_clear()


def _block_pattern_law(model, block_size):
    """Chain law of one block's patterns, by local index (qubit 0 fastest)."""
    n_letters = len(model.letter_probs)
    law = np.empty(n_letters**block_size)
    for index in range(law.size):
        letters = [(index // n_letters**q) % n_letters for q in range(block_size)]
        law[index] = analytic.chain_probability(model, letters)
    return law


def _product(block_laws):
    """Law over all tuples, block 0 varying fastest."""
    law = np.ones(1)
    for block_law in reversed(block_laws):
        law = np.kron(law, block_law)
    return law


def _exact_pf_by_classes(code_id, model):
    ccode = concat.concatenated(code_id)
    pattern_law = _block_pattern_law(model, ccode.spec.inner.n)
    class_law = np.bincount(_local_classes(code_id, model.alphabet), weights=pattern_law)
    law = _product([class_law] * len(ccode.spec.blocks))
    return float(law @ mc._failure_table(code_id, model.alphabet))


def _exact_pf_by_patterns(code_id, model):
    ccode = concat.concatenated(code_id)
    pattern_law = _block_pattern_law(model, ccode.spec.inner.n)
    law = _product([pattern_law] * len(ccode.spec.blocks))
    return float(law @ _pattern_reference_table(code_id, model.alphabet))


@pytest.mark.parametrize("alphabet", [Alphabet.BITFLIP, Alphabet.DEPOLARIZING3])
@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_block_class_law_gives_the_exact_pattern_failure_probability(code_id, alphabet):
    for p in (0.0, 0.01, 0.05, 0.2, 0.5, 1.0):
        for mu in (0.0, 0.5, 1.0):
            model = NoiseModel(p, mu, alphabet)
            by_classes = _exact_pf_by_classes(code_id, model)
            by_patterns = _exact_pf_by_patterns(code_id, model)
            assert abs(by_classes - by_patterns) <= 1e-12, (p, mu)


def test_exact_block_law_pins():
    model = NoiseModel(0.05, 0.5, Alphabet.DEPOLARIZING3)
    assert round(_exact_pf_by_classes("dq10", model), 6) == 0.123752
    assert round(_exact_pf_by_classes("qd10", model), 6) == 0.160222


@pytest.mark.parametrize("code_id", ["qd10", "dq10"])
def test_ten_qubit_estimate_agrees_with_exact_block_law(code_id):
    config = cfg(code_id=code_id, p=0.05, mu=0.5, shots=200_000, seed=2024)
    z = mc.z_score(mc.estimate_pf(config), _exact_pf_by_classes(code_id, config.model))
    assert z <= 4.0, z


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_benchmark_probe_calls_keep_working(code_id):
    # The private calls perfbench's traced rounds make, with its argument shapes.
    alphabet = mc.default_alphabet(code_id)
    table = mc._failure_table(code_id, alphabet)
    assert isinstance(len(table), int)
    ccode = concat.concatenated(code_id)
    model = NoiseModel(0.05, 0.5, alphabet)
    marginal, conditional, starts, sizes, strides = mc._chain_arrays(model, ccode)
    rng = np.random.default_rng(1)
    for m in (1, 1_000, mc.CHUNK_SHOTS):
        uniforms = rng.random((m, ccode.spec.n_cc))
        failures = _kernels.count_failures(
            uniforms, starts, sizes, marginal, conditional, strides, table
        )
        assert isinstance(failures, int) and 0 <= failures <= m


def _reference_count_failures(uniforms, block_starts, cum_marginal, strides, fail_table):
    """The per-column kernel: one column at a time, a sum of comparisons for
    at most 16 classes and np.searchsorted above."""
    thresholds = cum_marginal[:-1]
    index = np.zeros(uniforms.shape[0], dtype=np.intp)
    for column, stride in zip(block_starts.tolist(), strides.tolist()):
        u = np.ascontiguousarray(uniforms[:, column])
        if cum_marginal.shape[0] > 16:
            site = np.searchsorted(thresholds, u, side="right")
        else:
            site = np.zeros(u.shape[0], dtype=np.uint8)
            for t in thresholds:
                site += u >= t
        index += site * np.intp(stride)
    return int(np.count_nonzero(fail_table[index]))


@pytest.mark.parametrize("alphabet", [Alphabet.BITFLIP, Alphabet.DEPOLARIZING3])
@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_kernel_matches_per_column_reference(code_id, alphabet):
    ccode = concat.concatenated(code_id)
    table = mc._failure_table(code_id, alphabet)
    rng = np.random.default_rng(3)
    for p in (0.0, 0.01, 0.05, 0.2, 0.5, 1.0):
        for mu in (0.0, 0.5, 1.0):
            marginal, conditional, starts, sizes, strides = mc._chain_arrays(
                NoiseModel(p, mu, alphabet), ccode
            )
            edges = marginal[marginal < 1.0]
            # The estimator's (m, B) draw and the benchmark probe's (m, n_cc),
            # read at the leading columns and at the last ones, reversed.
            for width in (starts.size, ccode.spec.n_cc):
                for m in (1, 7_001, mc.CHUNK_SHOTS):
                    uniforms = rng.random((m, width))
                    head = uniforms.reshape(-1)[: edges.size]
                    head[:] = edges[: head.size]
                    for columns in (starts, width - 1 - starts):
                        fast = _kernels.count_failures(
                            uniforms, columns, sizes, marginal, conditional, strides, table
                        )
                        slow = _reference_count_failures(
                            uniforms, columns, marginal, strides, table
                        )
                        assert fast == slow, (p, mu, width, m, columns)


# estimate_pf(...).failures at 200,000 shots, seed 2024, for
# (p, mu) = (0.05, 0.5) and (0.1, 0): a faster kernel must not move them.
STREAM_PINS = {
    ("qd6", Alphabet.BITFLIP): (1_284, 17_075),
    ("dq6", Alphabet.BITFLIP): (14_963, 10_940),
    ("qd10", Alphabet.DEPOLARIZING3): (31_597, 101_457),
    ("dq10", Alphabet.DEPOLARIZING3): (24_601, 30_276),
}


@pytest.mark.parametrize("code_id, alphabet", list(STREAM_PINS))
def test_failure_counts_are_pinned(code_id, alphabet):
    counts = tuple(
        mc.estimate_pf(cfg(code_id=code_id, p=p, mu=mu, shots=200_000, seed=2024,
                           alphabet=alphabet)).failures
        for p, mu in ((0.05, 0.5), (0.1, 0.0))
    )
    assert counts == STREAM_PINS[code_id, alphabet]


@pytest.mark.parametrize("alphabet", [Alphabet.BITFLIP, Alphabet.DEPOLARIZING3])
@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_single_noiseless_shot_does_not_fail(code_id, alphabet):
    # The table-warming call perfbench makes during setup.
    est = mc.estimate_pf(cfg(code_id=code_id, p=0.0, mu=0.0, shots=1, seed=0,
                             alphabet=alphabet))
    assert (est.failures, est.pf_hat, est.stderr, est.shots) == (0, 0.0, 0.0, 1)


@pytest.mark.parametrize("code_id", ["qd6", "dq6", "qd10", "dq10"])
def test_full_correlation_depolarizing_matches_reference(code_id):
    config = cfg(code_id=code_id, p=0.3, mu=1.0, shots=1_500, seed=19,
                 alphabet=Alphabet.DEPOLARIZING3)
    fast = mc.estimate_pf(config)
    assert fast.failures == mc.estimate_pf_reference(config).failures
    assert 0 < fast.failures < config.shots


def test_rechunking_keeps_ten_qubit_counts(monkeypatch):
    def failures(shots, chunk):
        monkeypatch.setattr(mc, "CHUNK_SHOTS", chunk)
        return mc.estimate_pf(cfg(code_id="dq10", p=0.1, mu=0.5, shots=shots,
                                  seed=5, alphabet=Alphabet.DEPOLARIZING3)).failures

    baseline = failures(40_000, mc.CHUNK_SHOTS)
    for chunk in (7_001, 1 << 16):
        assert failures(40_000, chunk) == baseline, chunk
    assert failures(300, 1) == failures(300, 1 << 16)


def test_zero_error_rate_gives_zero_exactly():
    est = mc.estimate_pf(cfg(p=0.0, shots=5_000))
    assert est.pf_hat == 0.0 and est.stderr == 0.0


def test_perfect_correlation_blocks_are_letter_uniform():
    ccode = concat.concatenated("dq6")
    model = NoiseModel(0.4, 1.0, Alphabet.BITFLIP)
    rng = np.random.default_rng(11)
    for _ in range(200):
        err = mc.sample_error(model, ccode, rng)
        for block in ccode.spec.blocks:
            letters = {err.letters[q] for q in block}
            assert len(letters) == 1


def test_independent_marginals_within_three_sigma():
    ccode = concat.concatenated("qd6")
    model = NoiseModel(0.3, 0.0, Alphabet.BITFLIP)
    rng = np.random.default_rng(13)
    shots = 20_000
    counts = np.zeros(6)
    for _ in range(shots):
        err = mc.sample_error(model, ccode, rng)
        for q in range(6):
            counts[q] += err.letters[q] == "X"
    sigma = math.sqrt(0.3 * 0.7 / shots)
    for q in range(6):
        assert abs(counts[q] / shots - 0.3) < 3 * sigma + 1e-9


def test_pair_block_collective_flip_probability():
    # P(XX on a 2-qubit block) = p * p_(1|1) = 0.3 * (0.5*0.3 + 0.5) = 0.195.
    ccode = concat.concatenated("qd6")
    model = NoiseModel(0.3, 0.5, Alphabet.BITFLIP)
    rng = np.random.default_rng(17)
    shots = 20_000
    hits = 0
    for _ in range(shots):
        err = mc.sample_error(model, ccode, rng)
        hits += err.letters[:2] == "XX"
    want = 0.195
    sigma = math.sqrt(want * (1 - want) / shots)
    assert abs(hits / shots - want) < 3 * sigma


def test_agreement_grid_six_qubit():
    for code_id in ("qd6", "dq6"):
        for p in (0.05, 0.1, 0.2):
            for mu in (0.0, 0.5, 0.75):
                config = cfg(code_id=code_id, p=p, mu=mu, shots=100_000, seed=2024)
                reference = mc.analytic_reference(code_id, config.model)
                z = mc.z_score(mc.estimate_pf(config), reference)
                assert z <= 4.0, (code_id, p, mu, z)


def test_z_score_arithmetic():
    estimate = mc.MCEstimate(pf_hat=0.5, stderr=0.05, shots=100, seed=0, failures=50)
    assert mc.z_score(estimate, 0.4) == pytest.approx(2.0)
    assert math.isnan(mc.z_score(estimate, math.nan))
    exact = mc.MCEstimate(pf_hat=0.0, stderr=0.0, shots=10, seed=0, failures=0)
    assert mc.z_score(exact, 0.0) == 0.0
    assert mc.z_score(exact, 0.1) == math.inf


def test_corrected_residual_never_detectable():
    for code_id, alphabet in (
        ("qd6", Alphabet.DEPOLARIZING3),  # beyond the designed letters
        ("dq6", Alphabet.BITFLIP),
        ("dq10", Alphabet.DEPOLARIZING3),
    ):
        ccode = concat.concatenated(code_id)
        model = NoiseModel(0.3, 0.2, alphabet)
        rng = np.random.default_rng(23)
        for _ in range(400):
            error = mc.sample_error(model, ccode, rng)
            syn = stabilizer.syndrome(ccode.code, error)
            correction = ccode.table.get(syn)
            if correction is None:
                continue  # unseen syndrome: counted as failure by contract
            residual = pauli.multiply(correction, error)
            kind = stabilizer.classify(ccode.code, residual)
            assert kind in (ErrorKind.STABILIZER, ErrorKind.LOGICAL)


def test_unseen_syndromes_fail_for_off_alphabet_errors():
    # Z letters on the collective-flip pairs fall outside the designed
    # correction set, so the failure rate exceeds the two-letter recursion.
    config = cfg(code_id="qd6", p=0.2, mu=0.0, shots=50_000, seed=3,
                 alphabet=Alphabet.DEPOLARIZING3)
    est = mc.estimate_pf(config)
    bitflip_pf = mc.analytic_reference("qd6", NoiseModel(0.2, 0.0, Alphabet.BITFLIP))
    assert est.pf_hat > bitflip_pf


def test_analytic_reference_only_on_the_record_alphabet():
    assert mc.analytic_reference("qd6", NoiseModel(0.1, 0.5, Alphabet.BITFLIP)) > 0.0
    assert mc.analytic_reference("qd6", NoiseModel(0.1, 0.5, Alphabet.DEPOLARIZING3)) is None
    assert mc.analytic_reference("qd10", NoiseModel(0.1, 0.5, Alphabet.BITFLIP)) is None


def test_mu_one_dq6_under_innermost_block_reading():
    # Blocks are independent even at mu = 1, so exactly-one-collective-flip
    # events fail; the closed-form per-block recursion stays exact.
    config = cfg(code_id="dq6", p=0.3, mu=1.0, shots=100_000, seed=8)
    assert mc.z_score(mc.estimate_pf(config), mc.analytic_reference("dq6", config.model)) <= 4.0
    assert mc.analytic_reference("dq6", config.model) == pytest.approx(
        2 * 0.3 * 0.7, abs=1e-12
    )


def test_config_validation():
    with pytest.raises(ValueError):
        mc.SampleConfig(NoiseModel(0.1, 0.0), "qd6", 0, 1)
    with pytest.raises(ValueError):
        mc.SampleConfig(NoiseModel(0.1, 0.0), "qd7", 10, 1)
