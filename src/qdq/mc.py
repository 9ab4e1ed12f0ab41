"""Monte Carlo oracle for the concatenated decoders.

Per shot: sample a correlated Pauli error blockwise, decode it through the
syndrome table, and classify the corrected residual; a shot fails when the
residual is a logical operator or the syndrome is absent from the table
(errors outside the correctable alphabet genuinely defeat the code and are
counted, not raised).

Correlation lives inside the innermost blocks only (two-qubit pairs for QD,
three- or five-qubit rows for DQ); blocks are independent.  A reading in
which the correlation spans whole physical rows regardless of blocking
would behave differently near mu = 1 for DQ codes - that reading is
documented here but not modelled.

The estimator reproduces the closed-form recursion exactly for the
six-qubit codes under bit-flip noise.  For the ten-qubit codes the two
quantities deliberately differ: the recursion treats every non-collective
block error as one correctable outer error, whereas the table decoder only
handles the designed correctable set, so e.g. a lone IZ inside a
collective-flip pair lands on an unlisted syndrome and counts as a failure.
The reported z-score against the recursion is informational there.

The per-error decode outcome is precomputed into a lookup table over all
L^n letter patterns, built as XOR outer products of per-qubit syndrome and
symplectic-key tables, so sampling is one numpy kernel
(:func:`qdq._kernels.count_failures`) that turns uniforms into letters and
walks the table.  The slow per-shot reference path (sample_error + decoder
+ classify) is kept for cross-checking and must agree shot-for-shot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, analytic, concat, pauli, stabilizer
from .analytic import Alphabet, NoiseModel
from .concat import ConcatCode, concatenated
from .pauli import PauliString
from .stabilizer import ErrorKind

# Shots per kernel call.  The failure count does not depend on it; 2**14 was
# the fastest of 2**13 .. 2**16 for both code families (2-vCPU x86 host).
CHUNK_SHOTS = 1 << 14

# Letter index -> (x bit, z bit); order I, X, Y, Z.
_LETTER_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))


def default_alphabet(code_id: str) -> Alphabet:
    """The letter alphabet named by the code's registry record."""
    return Alphabet(concat.record(code_id).alphabet)


@dataclass(frozen=True)
class SampleConfig:
    model: NoiseModel
    code_id: str
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        concat.record(self.code_id)  # raises ValueError for an unregistered id


@dataclass(frozen=True)
class MCEstimate:
    pf_hat: float
    stderr: float
    shots: int
    seed: int
    failures: int


@dataclass(frozen=True)
class AgreementReport:
    estimate: MCEstimate
    analytic: float
    z: float
    flagged: bool


# ---------------------------------------------------------------------------
# Failure lookup table
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _failure_table(code_id: str, alphabet: Alphabet) -> np.ndarray:
    """fail[index] over all letter patterns, index = sum_q letter_q * L**q.

    The syndrome and the symplectic key (x << n) | z of an error are
    GF(2)-linear in it, so over all L**n patterns each is the XOR outer
    product of n per-qubit tables of L entries.  Folding from qubit n-1
    down to qubit 0 leaves qubit 0 varying fastest, matching the index.
    """
    ccode = concatenated(code_id)
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
    return (~(known[syn] & stab_lookup[key])).view(np.uint8)


def _chain_arrays(model: NoiseModel, ccode: ConcatCode):
    probs = np.asarray(model.letter_probs, dtype=np.float64)
    n_letters = probs.shape[0]
    cum_marginal = np.cumsum(probs)
    conditional = np.empty((n_letters, n_letters), dtype=np.float64)
    for j in range(n_letters):
        for i in range(n_letters):
            conditional[j, i] = analytic.conditional_prob(model, i, j)
    cum_conditional = np.cumsum(conditional, axis=1)
    blocks = ccode.spec.blocks
    block_starts = np.asarray([b[0] for b in blocks], dtype=np.int64)
    block_sizes = np.asarray([len(b) for b in blocks], dtype=np.int64)
    strides = np.asarray(
        [n_letters**q for q in range(ccode.spec.n_cc)], dtype=np.int64
    )
    return cum_marginal, cum_conditional, block_starts, block_sizes, strides


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _letters_from_uniforms(
    uniforms: np.ndarray, cum_marginal, cum_conditional, blocks
) -> list[int]:
    n_letters = cum_marginal.shape[0]
    letters = [0] * uniforms.shape[0]
    for block in blocks:
        prev = 0
        for offset, q in enumerate(block):
            row = cum_marginal if offset == 0 else cum_conditional[prev]
            letter = 0
            for t in range(n_letters - 1):
                if uniforms[q] >= row[t]:
                    letter += 1
            letters[q] = letter
            prev = letter
    return letters


def sample_error(
    model: NoiseModel, ccode: ConcatCode, rng: np.random.Generator
) -> PauliString:
    """Reference sampler: one correlated error, one uniform per qubit."""
    cum_marginal, cum_conditional, *_ = _chain_arrays(model, ccode)
    uniforms = rng.random(ccode.spec.n_cc)
    letters = _letters_from_uniforms(
        uniforms, cum_marginal, cum_conditional, ccode.spec.blocks
    )
    x = z = 0
    for q, letter in enumerate(letters):
        xb, zb = _LETTER_XZ[letter]
        x |= xb << q
        z |= zb << q
    return PauliString(ccode.spec.n_cc, x, z, 0)


def decode_shot(ccode: ConcatCode, error: PauliString) -> bool:
    """Reference decode: True when the shot fails."""
    syn = stabilizer.syndrome(ccode.code, error)
    correction = ccode.table.get(syn)
    if correction is None:
        return True
    residual = pauli.multiply(correction, error)
    kind = stabilizer.classify(ccode.code, residual).kind
    if kind is ErrorKind.DETECTABLE:
        raise RuntimeError(f"corrected residual {residual} is detectable")
    return kind is ErrorKind.LOGICAL


def estimate_pf(config: SampleConfig) -> MCEstimate:
    """Failure fraction with binomial standard error.

    Deterministic given (seed, config): uniforms are consumed qubit-major
    within each shot regardless of chunking.
    """
    ccode = concatenated(config.code_id)
    fail_table = _failure_table(config.code_id, config.model.alphabet)
    cum_marginal, cum_conditional, block_starts, block_sizes, strides = _chain_arrays(
        config.model, ccode
    )
    rng = np.random.default_rng(config.seed)
    n = ccode.spec.n_cc
    failures = 0
    remaining = config.shots
    while remaining > 0:
        m = min(CHUNK_SHOTS, remaining)
        uniforms = rng.random((m, n))
        failures += _kernels.count_failures(
            uniforms,
            block_starts,
            block_sizes,
            cum_marginal,
            cum_conditional,
            strides,
            fail_table,
        )
        remaining -= m
    pf_hat = failures / config.shots
    stderr = math.sqrt(pf_hat * (1.0 - pf_hat) / config.shots)
    return MCEstimate(
        pf_hat=pf_hat,
        stderr=stderr,
        shots=config.shots,
        seed=config.seed,
        failures=failures,
    )


def estimate_pf_reference(config: SampleConfig) -> MCEstimate:
    """Slow per-shot path; must agree with :func:`estimate_pf` shot-for-shot."""
    ccode = concatenated(config.code_id)
    rng = np.random.default_rng(config.seed)
    failures = 0
    for _ in range(config.shots):
        error = sample_error(config.model, ccode, rng)
        failures += decode_shot(ccode, error)
    pf_hat = failures / config.shots
    stderr = math.sqrt(pf_hat * (1.0 - pf_hat) / config.shots)
    return MCEstimate(pf_hat, stderr, config.shots, config.seed, failures)


def compare(
    config: SampleConfig,
    analytic_pf: float,
    estimate: Optional[MCEstimate] = None,
) -> AgreementReport:
    """z-score of the estimate against an analytic value; flagged when
    z > 4 with at least 1e5 shots."""
    if estimate is None:
        estimate = estimate_pf(config)
    if estimate.stderr == 0.0:
        z = 0.0 if estimate.pf_hat == analytic_pf else math.inf
    else:
        z = abs(estimate.pf_hat - analytic_pf) / estimate.stderr
    return AgreementReport(
        estimate=estimate,
        analytic=analytic_pf,
        z=z,
        flagged=z > 4.0 and config.shots >= 100_000,
    )


def analytic_reference(code_id: str, model: NoiseModel) -> float:
    """The matching closed-form failure probability for an MC config."""
    return analytic.code_failure(code_id)(model.mu, model.p)
