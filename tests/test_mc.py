import math

import numpy as np
import pytest

from qdq import concat, mc, pauli, stabilizer
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


def _assert_table_matches_decoder(code_id, alphabet, indices):
    ccode = concat.concatenated(code_id)
    table = mc._failure_table(code_id, alphabet)
    n_letters = 2 if alphabet is Alphabet.BITFLIP else 4
    assert table.shape == (n_letters**ccode.spec.n_cc,)
    for index in indices:
        error = _pattern_error(int(index), ccode.spec.n_cc, n_letters)
        assert bool(table[index]) == mc.decode_shot(ccode, error), (code_id, str(error))


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
            letters = {err.letter(q) for q in block}
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
            counts[q] += err.letter(q) == "X"
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
        hits += err.letter(0) == "X" and err.letter(1) == "X"
    want = 0.195
    sigma = math.sqrt(want * (1 - want) / shots)
    assert abs(hits / shots - want) < 3 * sigma


def test_agreement_grid_six_qubit():
    for code_id in ("qd6", "dq6"):
        for p in (0.05, 0.1, 0.2):
            for mu in (0.0, 0.5, 0.75):
                config = cfg(code_id=code_id, p=p, mu=mu, shots=100_000, seed=2024)
                report = mc.compare(config, mc.analytic_reference(code_id, config.model))
                assert report.z <= 4.0, (code_id, p, mu, report.z)
                assert not report.flagged


def test_comparator_flags_wrong_value():
    config = cfg(p=0.1, mu=0.0, shots=100_000, seed=1)
    report = mc.compare(config, 0.5)
    assert report.flagged and report.z > 4.0


def test_comparator_not_flagged_below_shot_floor():
    config = cfg(p=0.1, mu=0.0, shots=10_000, seed=1)
    report = mc.compare(config, 0.5)
    assert report.z > 4.0 and not report.flagged


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
            kind = stabilizer.classify(ccode.code, residual).kind
            assert kind in (ErrorKind.STABILIZER, ErrorKind.LOGICAL)


def test_unseen_syndromes_fail_for_off_alphabet_errors():
    # Z letters on the collective-flip pairs fall outside the designed
    # correction set, so the failure rate exceeds the two-letter recursion.
    config = cfg(code_id="qd6", p=0.2, mu=0.0, shots=50_000, seed=3,
                 alphabet=Alphabet.DEPOLARIZING3)
    est = mc.estimate_pf(config)
    bitflip_pf = mc.analytic_reference("qd6", NoiseModel(0.2, 0.0, Alphabet.BITFLIP))
    assert est.pf_hat > bitflip_pf


def test_mu_one_dq6_under_innermost_block_reading():
    # Blocks are independent even at mu = 1, so exactly-one-collective-flip
    # events fail; the closed-form per-block recursion stays exact.
    config = cfg(code_id="dq6", p=0.3, mu=1.0, shots=100_000, seed=8)
    report = mc.compare(config, mc.analytic_reference("dq6", config.model))
    assert report.z <= 4.0
    assert mc.analytic_reference("dq6", config.model) == pytest.approx(
        2 * 0.3 * 0.7, abs=1e-12
    )


def test_config_validation():
    with pytest.raises(ValueError):
        mc.SampleConfig(NoiseModel(0.1, 0.0), "qd6", 0, 1)
    with pytest.raises(ValueError):
        mc.SampleConfig(NoiseModel(0.1, 0.0), "qd7", 10, 1)
