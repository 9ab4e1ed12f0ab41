"""Hot sampling/decoding kernel: one vectorized numpy walk over a chunk.

The kernel consumes one uniform variate per qubit per shot from a
pre-generated (shots, n) array, so its failure count depends only on the
uniforms, never on how the caller chunks them.

A "letter" is an index into the noise alphabet (0 = no error).  Each shot
walks the blocks left to right; within a block the first qubit samples the
marginal and each later qubit the conditional row of its predecessor.  A
letter is the number of cumulative thresholds of its row that the uniform
reaches, summed as L-1 one-dimensional comparisons (the conditional
thresholds are gathered per shot from contiguous columns).  The resulting
base-L index is looked up in a precomputed failure table.
"""

from __future__ import annotations

import numpy as np


def count_failures(
    uniforms: np.ndarray,
    block_starts: np.ndarray,
    block_sizes: np.ndarray,
    cum_marginal: np.ndarray,
    cum_conditional: np.ndarray,
    strides: np.ndarray,
    fail_table: np.ndarray,
) -> int:
    """Number of failing shots in one chunk of uniforms (rows are shots)."""
    n_letters = cum_marginal.shape[0]
    columns = uniforms.T.copy()
    thresholds = [
        np.ascontiguousarray(cum_conditional[:, t]) for t in range(n_letters - 1)
    ]
    index = np.zeros(uniforms.shape[0], dtype=np.intp)
    for start, size in zip(block_starts.tolist(), block_sizes.tolist()):
        for q in range(start, start + size):
            u = columns[q]
            if q == start:
                letter = (u >= cum_marginal[0]).astype(np.intp)
                for t in range(1, n_letters - 1):
                    letter += u >= cum_marginal[t]
            else:
                letter = (u >= thresholds[0][prev]).astype(np.intp)
                for t in range(1, n_letters - 1):
                    letter += u >= thresholds[t][prev]
            index += letter * int(strides[q])
            prev = letter
    return int(np.count_nonzero(fail_table[index]))
