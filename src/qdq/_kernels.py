"""Hot sampling/decoding kernel: one vectorized numpy pass over a chunk.

Each site is one independent block whose letter is its class (a coset of
the inner stabilizer group, see :mod:`qdq.mc`).  The kernel reads one
uniform per site per shot, from the column of a pre-generated (shots, *)
array that ``block_starts`` names, so its failure count depends only on the
uniforms, never on how the caller chunks them.

A site's class is the number of class-CDF thresholds (``cum_marginal``
without its last entry) that its uniform reaches.  Few classes count it as
a sum of one-dimensional comparisons; many classes binary-search with
``np.searchsorted(side="right")``, which gives the same count on a sorted
CDF.  The base-C index sum_b class_b * strides[b] is looked up in a
precomputed failure table over all class tuples.

The positional signature (``block_sizes`` all ones; ``cum_conditional``,
whose rows equal ``cum_marginal`` for independent blocks, unread) is held
for perfbench's private kernel probe until ROADMAP item 1 replaces it.
"""

from __future__ import annotations

import numpy as np

# Most classes counted by comparisons; more are binary-searched.  On a
# 2-vCPU x86 host, chunks of 2**14 shots, ns per shot for comparisons vs
# search: 16 classes x 3 sites 22 vs 42, 64 classes x 2 sites 61 vs 38.
_COMPARE_MAX_CLASSES = 16


def compare_sum(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Thresholds (fewer than 256) each uniform reaches, one comparison each."""
    site = np.zeros(u.shape[0], dtype=np.uint8)
    for t in thresholds:
        site += u >= t
    return site


def search(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Thresholds each uniform reaches, by binary search of a sorted CDF."""
    return np.searchsorted(thresholds, u, side="right")


def site_classes(u: np.ndarray, cum_marginal: np.ndarray) -> np.ndarray:
    """Class of each uniform: how many of the CDF's thresholds it reaches."""
    count = search if cum_marginal.shape[0] > _COMPARE_MAX_CLASSES else compare_sum
    return count(u, cum_marginal[:-1])


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
    if np.any(block_sizes != 1):
        raise ValueError("every site is one block: block_sizes must all be 1")
    index = np.zeros(uniforms.shape[0], dtype=np.intp)
    for column, stride in zip(block_starts.tolist(), strides.tolist()):
        u = np.ascontiguousarray(uniforms[:, column])
        index += site_classes(u, cum_marginal) * np.intp(stride)
    return int(np.count_nonzero(fail_table[index]))
