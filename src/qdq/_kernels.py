"""Hot sampling/decoding kernel: one vectorized numpy pass over a chunk.

Each site is one independent block whose letter is its class (a coset of
the inner stabilizer group, see :mod:`qdq.mc`).  The kernel reads one
uniform per site per shot, from the column of a pre-generated (shots, *)
array that ``block_starts`` names, so its failure count depends only on the
uniforms, never on how the caller chunks them.

A site's class is the number of class-CDF thresholds (``cum_marginal``
without its last entry) that its uniform reaches, found for the whole
(shots, sites) chunk at once.  Few classes count it as a sum of
comparisons, one pass over the chunk per threshold.  Many classes use
indexed search (a guide table, Chen & Asau 1974): [0, 1) is cut into
``_CELLS`` equal cells, a cell that no threshold lies strictly inside gives
its class by one table read, and only uniforms in the other cells are
binary-searched with ``np.searchsorted(side="right")``.  Both give the
same count as the binary search on a sorted CDF.  The base-C index
sum_b class_b * C**b is looked up in a precomputed failure table over all
class tuples.

The positional signature (``block_sizes`` all ones; ``cum_conditional``,
whose rows equal ``cum_marginal`` for independent blocks, unread) is held
for perfbench's private kernel probe until ROADMAP item 18 removes it.
That probe passes (shots, n_cc) uniforms, of which only the ``block_starts``
columns are read.
"""

from __future__ import annotations

import functools

import numpy as np

# Most classes counted by comparisons; more use indexed search.  On a
# 2-vCPU x86 host, random class CDFs, (2**14, 4) chunks, ns per uniform
# for comparisons vs indexed search (binary search alone: 10 to 50):
# 2 classes 0.2 vs 7, 8 classes 1.3 vs 6-8, 16 classes 2.6 vs 6-7,
# 32 classes 5-7 vs 6-10, 64 classes 11-13 vs 7-9.
_COMPARE_MAX_CLASSES = 16
# Indexed-search cells: a power of two, so (u * _CELLS).astype(intp) is the
# exact floor.  At most C - 1 of them hold a threshold and need the binary
# search (63 of 4096, 1.5 %, on dq10).  Same host, whole dq10 kernel, ns
# per uniform: 2**8 cells 15-21, 2**10 7-10, 2**12 4-6, 2**14 3.5-5.7.
_CELLS = 1 << 12
# Classes are stored as uint8; the largest marks a guide cell to search.
_MAX_CLASSES = 256
_UNSURE = _MAX_CLASSES - 1


def compare_sum(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Thresholds (fewer than 256) each uniform reaches, one comparison each."""
    site = np.zeros(u.shape, dtype=np.uint8)
    reached = np.empty(u.shape, dtype=bool)
    for t in thresholds:
        np.greater_equal(u, t, out=reached)
        site += reached.view(np.uint8)
    return site


def search(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Thresholds each uniform reaches, by binary search of a sorted CDF."""
    return np.searchsorted(thresholds, u, side="right")


@functools.lru_cache(maxsize=32)
def _guide(threshold_bytes: bytes) -> np.ndarray:
    """Indexed-search table of a sorted threshold list, given as its bytes.

    Entry c is the number of thresholds t <= c / _CELLS, which is the class
    of every uniform in cell c unless a threshold lies strictly inside the
    cell; such cells hold ``_UNSURE`` and are searched.  A cell whose count
    is itself ``_UNSURE`` is searched too, exactly, only more slowly.
    Thresholds >= 1 (a zero-probability tail, or ``cumsum`` rounding past
    1) are never reached and are left out.  t * _CELLS is exact, so ceil
    and floor place each threshold without rounding.
    """
    t = np.frombuffer(threshold_bytes)
    scaled = t[t < 1.0] * _CELLS
    first_cell = np.ceil(scaled).astype(np.intp)
    guide = np.cumsum(np.bincount(first_cell, minlength=_CELLS + 1)[:_CELLS]).astype(np.uint8)
    inside = scaled != np.floor(scaled)
    guide[np.floor(scaled[inside]).astype(np.intp)] = _UNSURE
    guide.flags.writeable = False
    return guide


def indexed_search(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Thresholds (fewer than 256, sorted) each uniform in [0, 1) reaches."""
    guide = _guide(np.ascontiguousarray(thresholds, dtype=np.float64).tobytes())
    site = guide[(u * _CELLS).astype(np.intp)]
    unsure = site == _UNSURE
    if unsure.any():
        site[unsure] = search(u[unsure], thresholds)
    return site


def site_classes(u: np.ndarray, cum_marginal: np.ndarray) -> np.ndarray:
    """Class of each uniform (any shape): how many CDF thresholds it reaches."""
    n_classes = cum_marginal.shape[0]
    if n_classes > _MAX_CLASSES:
        raise ValueError(f"at most {_MAX_CLASSES} classes fit in uint8, got {n_classes}")
    count = indexed_search if n_classes > _COMPARE_MAX_CLASSES else compare_sum
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
    n_sites, n_classes = block_starts.shape[0], cum_marginal.shape[0]
    if strides.tolist() != [n_classes**b for b in range(n_sites)]:
        raise ValueError("strides must be powers of the class count, site 0 first")
    # Every pass below wants one contiguous (shots, sites) array: on a
    # strided view numpy iterates rows of n_sites elements, several times
    # slower than a copy.  The estimator's own (shots, sites) draw is used
    # as it is; the benchmark probe's wider draw is copied once.
    if block_starts.tolist() == list(range(n_sites)):
        u = np.ascontiguousarray(uniforms[:, :n_sites])
    else:
        u = uniforms.take(block_starts, axis=1)
    site = site_classes(u, cum_marginal)
    # Horner's rule from the last site down: sum_b class_b * n_classes**b.
    index = site[:, -1].astype(np.intp)
    for b in range(n_sites - 2, -1, -1):
        index *= n_classes
        index += site[:, b]
    return int(np.count_nonzero(fail_table[index]))
