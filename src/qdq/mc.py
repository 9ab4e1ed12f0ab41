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

The decoder sees a block only through its class, a coset of the inner
code's stabilizer group among the block's L^b letter patterns: errors that
differ by inner stabilizers decode alike.  Classes and failures both come
from :func:`qdq.stabilizer.check_word`, an error's anticommutation bits
with a k = 1 code's generators and logical X and Z: a GF(2)-linear map
whose kernel is the stabilizer group.  A block's class is its inner word,
the pair (inner syndrome, inner logical class).  Each shot draws one
uniform per block and turns it into that block's class by inverse CDF over
the class law; the class tuple indexes a failure table over all C^B
tuples, folded from the words of each class's representative.  Sampling is
one numpy kernel (:func:`qdq._kernels.count_failures`).  The class CDF is
the pattern CDF, with patterns sorted by class, read at each class's last
pattern, so the slow per-shot reference path (sample_error, which draws a
real letter pattern from the same uniform, then decode_shot) must agree
with the kernel shot-for-shot.

The estimator reproduces the closed-form recursion exactly for the
six-qubit codes under bit-flip noise.  For the ten-qubit codes the two
quantities deliberately differ: the recursion treats every non-collective
block error as one correctable outer error, whereas the table decoder only
handles the designed correctable set, so e.g. a lone IZ inside a
collective-flip pair lands on an unlisted syndrome and counts as a failure.
There the exact value is the class law over all class tuples dotted with
the failure table; the tests gate the estimate against it, and the
:func:`z_score` against the recursion measures the gap between the two
quantities.
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

# Shots per kernel call.  The failure count does not depend on it; with one
# uniform per block, 2**14 and 2**15 were the fastest of 2**12 .. 2**16 for
# both code families (2-vCPU x86 host).
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


# ---------------------------------------------------------------------------
# Block classes and the failure lookup table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BlockClasses:
    """One block's L**b letter patterns, sorted (stably) by class.

    ``x[i]`` and ``z[i]`` are the block-local bits of the i-th sorted
    pattern, ``letters[i]`` its letters (qubit 0 first), ``classes[i]`` its
    class, and ``ends[c]`` one past the last pattern of class c.  Classes
    are numbered by their lowest pattern index, so the identity is class 0;
    a class's first pattern is its representative.
    """

    letters: np.ndarray
    x: np.ndarray
    z: np.ndarray
    classes: np.ndarray
    ends: np.ndarray


@functools.lru_cache(maxsize=None)
def _block_classes(inner: stabilizer.StabilizerCode, alphabet: Alphabet) -> _BlockClasses:
    """Cosets of the inner stabilizer group among one block's patterns.

    Pattern index i = sum_q letter_q * L**q.  A pattern's label is its
    inner check word, the pair (inner syndrome, inner logical class), which
    patterns share iff they differ by an inner stabilizer (inner k = 1).
    """
    b = inner.n
    n_letters = 2 if alphabet is Alphabet.BITFLIP else 4
    index = np.arange(n_letters**b)
    letters = np.stack([(index // n_letters**q) % n_letters for q in range(b)], axis=1)
    x_bit = np.array([xb for xb, _ in _LETTER_XZ], dtype=np.int64)
    z_bit = np.array([zb for _, zb in _LETTER_XZ], dtype=np.int64)
    weights = np.int64(1) << np.arange(b, dtype=np.int64)
    x = x_bit[letters] @ weights
    z = z_bit[letters] @ weights

    words = [stabilizer.check_word(inner, xi, zi) for xi, zi in zip(x.tolist(), z.tolist())]
    _, first, inverse = np.unique(words, return_index=True, return_inverse=True)
    number = np.empty(first.size, dtype=np.int64)
    number[np.argsort(first)] = np.arange(first.size)
    classes = number[inverse]

    order = np.argsort(classes, kind="stable")
    return _BlockClasses(
        letters=letters[order],
        x=x[order],
        z=z[order],
        classes=classes[order],
        ends=np.cumsum(np.bincount(classes)),
    )


@functools.lru_cache(maxsize=128)
def _pattern_cdf(model: NoiseModel, inner: stabilizer.StabilizerCode) -> np.ndarray:
    """Cumulative chain law over one block's class-sorted patterns.

    Each step is the pattern's :func:`qdq.analytic.chain_probability`,
    multiplied in the same order, so the class CDF read from it at the class
    ends and this CDF place every uniform in the same class.
    """
    letters = _block_classes(inner, model.alphabet).letters
    n_letters = len(model.letter_probs)
    conditional = np.array(
        [[analytic.conditional_prob(model, i, j) for j in range(n_letters)]
         for i in range(n_letters)]
    )
    law = np.asarray(model.letter_probs)[letters[:, 0]]
    for q in range(1, letters.shape[1]):
        law = law * conditional[letters[:, q], letters[:, q - 1]]
    return np.cumsum(law)


@functools.lru_cache(maxsize=None)
def _failure_table(code_id: str, alphabet: Alphabet) -> np.ndarray:
    """fail[index] over all class tuples, index = sum_b class_b * C**b.

    The concatenated code's check word (k = 1) is GF(2)-linear in the
    error, so over all C**B class tuples it is the XOR outer product of B
    per-block tables of C words, one per class representative.  A
    representative stands for its whole class: the other patterns differ
    from it by inner stabilizers, which are stabilizers of the concatenated
    code too.  A shot decodes correctly iff the correction listed for its
    syndrome times the error is a stabilizer, that is iff its word is the
    word of a listed correction.  Folding from block B-1 down to block 0
    leaves block 0 varying fastest, matching the index.
    """
    ccode = concatenated(code_id)
    code = ccode.code
    classes = _block_classes(ccode.spec.inner, alphabet)
    starts = np.concatenate(([0], classes.ends[:-1]))
    reps = list(zip(classes.x[starts].tolist(), classes.z[starts].tolist()))

    word = np.zeros(1, dtype=np.int64)
    for block in reversed(ccode.spec.blocks):
        shift = block[0]
        word_b = np.array([stabilizer.check_word(code, x << shift, z << shift) for x, z in reps])
        word = (word[:, None] ^ word_b[None, :]).ravel()

    correct = np.zeros(1 << (len(code.generators) + 2), dtype=bool)
    correct[[stabilizer.check_word(code, c.x, c.z) for c in ccode.table.values()]] = True
    return (~correct[word]).view(np.uint8)


def _chain_arrays(model: NoiseModel, ccode: ConcatCode):
    """The kernel's inputs: each block is one site whose letter is its class.

    Blocks are independent, so every conditional row is the class CDF
    itself and every site's uniform is its own column of the (shots, B)
    draw.  Returns (cum_marginal, cum_conditional, block_starts,
    block_sizes, strides) in the kernel's positional order.
    """
    classes = _block_classes(ccode.spec.inner, model.alphabet)
    cum_class = _pattern_cdf(model, ccode.spec.inner)[classes.ends - 1]
    n_classes, n_blocks = cum_class.size, len(ccode.spec.blocks)
    cum_conditional = np.tile(cum_class, (n_classes, 1))
    block_starts = np.arange(n_blocks, dtype=np.int64)
    block_sizes = np.ones(n_blocks, dtype=np.int64)
    strides = n_classes ** np.arange(n_blocks, dtype=np.int64)
    return cum_class, cum_conditional, block_starts, block_sizes, strides


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_error(
    model: NoiseModel, ccode: ConcatCode, rng: np.random.Generator
) -> PauliString:
    """Reference sampler: one correlated error, one uniform per block.

    Each uniform picks a letter pattern by inverse CDF over the block's
    class-sorted pattern law, the same stream :func:`estimate_pf` reads
    only as classes.
    """
    classes = _block_classes(ccode.spec.inner, model.alphabet)
    cdf = _pattern_cdf(model, ccode.spec.inner)
    uniforms = rng.random(len(ccode.spec.blocks))
    picks = np.searchsorted(cdf[:-1], uniforms, side="right")
    x = z = 0
    for block, pick in zip(ccode.spec.blocks, picks.tolist()):
        x |= int(classes.x[pick]) << block[0]
        z |= int(classes.z[pick]) << block[0]
    return PauliString(ccode.spec.n_cc, x, z, 0)


def decode_shot(ccode: ConcatCode, error: PauliString) -> bool:
    """Reference decode: True when the shot fails."""
    syn = stabilizer.syndrome(ccode.code, error)
    correction = ccode.table.get(syn)
    if correction is None:
        return True
    residual = pauli.multiply(correction, error)
    kind = stabilizer.classify(ccode.code, residual)
    if kind is ErrorKind.DETECTABLE:
        raise RuntimeError(f"corrected residual {residual} is detectable")
    return kind is ErrorKind.LOGICAL


def estimate_pf(config: SampleConfig) -> MCEstimate:
    """Failure fraction with binomial standard error.

    Deterministic given (seed, config): each shot consumes one uniform per
    block, block 0 first, regardless of chunking.
    """
    ccode = concatenated(config.code_id)
    fail_table = _failure_table(config.code_id, config.model.alphabet)
    cum_marginal, cum_conditional, block_starts, block_sizes, strides = _chain_arrays(
        config.model, ccode
    )
    rng = np.random.default_rng(config.seed)
    n_blocks = len(ccode.spec.blocks)
    failures = 0
    remaining = config.shots
    # One buffer for every chunk's draw: the same stream, no per-chunk array.
    buffer = np.empty((min(CHUNK_SHOTS, remaining), n_blocks))
    while remaining > 0:
        m = min(CHUNK_SHOTS, remaining)
        uniforms = rng.random(out=buffer[:m])
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


def z_score(estimate: MCEstimate, reference: float) -> float:
    """|pf_hat - reference| / stderr; with stderr 0, 0.0 on a match and
    inf otherwise."""
    if estimate.stderr == 0.0:
        return 0.0 if estimate.pf_hat == reference else math.inf
    return abs(estimate.pf_hat - reference) / estimate.stderr


def analytic_reference(code_id: str, model: NoiseModel) -> Optional[float]:
    """The matching closed-form failure probability for an MC config, or
    None off the record's alphabet, which the recursion does not describe."""
    if model.alphabet is not default_alphabet(code_id):
        return None
    return analytic.code_failure(code_id)(model.mu, model.p)
