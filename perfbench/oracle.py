"""Exact decoder-failure probability, independent of ``qdq.mc``.

Blocks are independent, so the law of a whole letter pattern is the product
over blocks of the per-block chain distributions
(``analytic.chain_probability``).  The exact failure probability is that law
dotted with a failure table over all L**n patterns, built here from the
concatenation's stabilizer code, decoder table and stabilizer group alone:
a pattern fails when its syndrome is not in the table or the corrected
residual is not a stabilizer (modulo phase).  Used by the checks, never
timed.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from qdq import analytic, concat, stabilizer
from qdq.analytic import NoiseModel

# Letter index -> (x bit, z bit): I, X, Y, Z.
_X_BIT = np.array([0, 1, 1, 0], dtype=np.int64)
_Z_BIT = np.array([0, 0, 1, 1], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _letters(code_id: str, n_letters: int) -> tuple[np.ndarray, ...]:
    """Letter of qubit q in pattern index i = sum_q letter_q * L**q."""
    n = concat.concatenated(code_id).spec.n_cc
    index = np.arange(n_letters**n, dtype=np.int64)
    return tuple(((index // n_letters**q) % n_letters).astype(np.int8) for q in range(n))


@functools.lru_cache(maxsize=None)
def failure_table(code_id: str, n_letters: int) -> np.ndarray:
    ccode = concat.concatenated(code_id)
    code, n = ccode.code, ccode.spec.n_cc
    x = np.zeros(n_letters**n, dtype=np.int64)
    z = np.zeros_like(x)
    for q, letter in enumerate(_letters(code_id, n_letters)):
        x |= _X_BIT[letter] << q
        z |= _Z_BIT[letter] << q

    syndrome = np.zeros_like(x)
    for i, g in enumerate(code.generators):
        anti = np.bitwise_count(x & g.z) + np.bitwise_count(z & g.x)
        syndrome |= (anti.astype(np.int64) & 1) << i

    keys = np.array([sum(b << i for i, b in enumerate(s)) for s in ccode.table])
    order = np.argsort(keys)
    keys = keys[order]
    corr_x = np.array([c.x for c in ccode.table.values()], dtype=np.int64)[order]
    corr_z = np.array([c.z for c in ccode.table.values()], dtype=np.int64)[order]
    slot = np.minimum(np.searchsorted(keys, syndrome), keys.size - 1)
    known = keys[slot] == syndrome

    residual = ((x ^ corr_x[slot]) << n) | (z ^ corr_z[slot])
    group = np.array([(e.x << n) | e.z for e in stabilizer.stabilizer_group(code)])
    return ~(known & np.isin(residual, group))


def pattern_law(code_id: str, model: NoiseModel) -> np.ndarray:
    """Probability of every letter pattern: product of block distributions."""
    n_letters = len(model.letter_probs)
    letters = _letters(code_id, n_letters)
    law = np.ones(letters[0].size)
    for block in concat.concatenated(code_id).spec.blocks:
        dist = np.array(
            [
                analytic.chain_probability(model, pattern)
                for pattern in itertools.product(range(n_letters), repeat=len(block))
            ]
        )
        # itertools.product puts the block's first qubit most significant.
        sub = np.zeros(letters[0].size, dtype=np.int64)
        for q in block:
            sub = sub * n_letters + letters[q]
        law *= dist[sub]
    return law


def exact_pf(code_id: str, model: NoiseModel) -> float:
    n_letters = len(model.letter_probs)
    return float(pattern_law(code_id, model) @ failure_table(code_id, n_letters))
