"""Dense statevector engine for desk-scale states (n <= 12).

Basis convention: qubit 0 is the most significant index bit, so the ket
|000111> is amplitude index 0b000111.  One stabilizer projection (:func:`project`)
builds the codewords of every code and the bases of :func:`qdq.dfs.df_basis`;
hand-entered expansions in :mod:`qdq._tables` are the codewords' reference.
The checks compare at fixed tolerances: 1e-9 for the Knill-Laflamme matrix
elements, 1e-10 for equality up to phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .pauli import PauliString
from .stabilizer import StabilizerCode

MAX_QUBITS = 12


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def basis_state(n: int, index: int) -> np.ndarray:
    _check_size(n)
    if not 0 <= index < (1 << n):
        raise ValueError(f"basis index {index} out of range for n={n}")
    state = np.zeros(1 << n, dtype=np.complex128)
    state[index] = 1.0
    return state


def _check_size(n: int) -> None:
    if n > MAX_QUBITS:
        raise ValueError(f"dense engine capped at {MAX_QUBITS} qubits, got {n}")


# ---------------------------------------------------------------------------
# Pauli action on states
# ---------------------------------------------------------------------------


def index_masks(p: PauliString) -> tuple[int, int]:
    """Bit-reverse the qubit-indexed masks into amplitude-index masks."""
    xm = zm = 0
    for q in range(p.n):
        bit = p.n - 1 - q
        xm |= ((p.x >> q) & 1) << bit
        zm |= ((p.z >> q) & 1) << bit
    return xm, zm


def apply_pauli(p: PauliString, state: np.ndarray) -> np.ndarray:
    """P acting along axis 0: P|state> for a vector, P @ state for a matrix.

    Bit-indexed application, never a dense matrix product.
    """
    if state.shape[:1] != (1 << p.n,):
        raise ValueError(f"state dimension {state.shape} does not match n={p.n}")
    xm, zm = index_masks(p)
    src = np.arange(1 << p.n) ^ xm  # row j of the result comes from row j ^ xm
    scale = 1j ** ((p.phase + (p.x & p.z).bit_count()) % 4)
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zm) & 1).astype(np.float64)
    return (scale * signs).reshape((-1,) + (1,) * (state.ndim - 1)) * state[src]


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the operator."""
    _check_size(p.n)
    return apply_pauli(p, np.eye(1 << p.n))


def expectation(state: np.ndarray, p: PauliString) -> complex:
    """<state| P |state>."""
    return complex(np.vdot(state, apply_pauli(p, state)))


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """|<a|b>| >= (1 - 1e-10) |a| |b|."""
    overlap = abs(np.vdot(a, b))
    return overlap >= (1.0 - 1e-10) * np.linalg.norm(a) * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# Correctability checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KLResult:
    ok: bool
    witness: Optional[tuple] = None  # (m, n, i, j, value, expected)

    def __bool__(self) -> bool:
        return self.ok


def kl_check(codewords: Sequence[np.ndarray], errors: Sequence[PauliString]) -> KLResult:
    """Matrix-element correctability conditions for a pair of codewords.

    Requires <w_i|E_m^+ E_n|w_j> = 0 for i != j and equal diagonals, for
    every error pair, each to 1e-9.  Returns the first violating
    (m, n, i, j) witness.
    """
    if len(codewords) != 2:
        raise ValueError("exactly two codewords expected")
    w0, w1 = codewords
    for w in (w0, w1):
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("codewords must be normalized")
    if abs(np.vdot(w0, w1)) > 1e-9:
        raise ValueError("codewords must be orthogonal")

    images = [(apply_pauli(e, w0), apply_pauli(e, w1)) for e in errors]
    for m in range(len(errors)):
        for n in range(len(errors)):
            cross = np.vdot(images[m][0], images[n][1])
            if abs(cross) > 1e-9:
                return KLResult(False, (m, n, 0, 1, complex(cross), 0.0))
            d0 = np.vdot(images[m][0], images[n][0])
            d1 = np.vdot(images[m][1], images[n][1])
            if abs(d0 - d1) > 1e-9:
                return KLResult(False, (m, n, 0, 0, complex(d0), complex(d1)))
    return KLResult(True)


# ---------------------------------------------------------------------------
# Projections and codewords
# ---------------------------------------------------------------------------


def project(state: np.ndarray, generators: Iterable[PauliString]) -> np.ndarray:
    """prod_j (1 + g_j)/2 |state>: onto the joint +1 eigenspace of commuting g_j."""
    for g in generators:
        state = (state + apply_pauli(g, state)) / 2.0
    return state


def codewords(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    """Logical |0>, |1> statevectors of a one-logical-qubit stabilizer code.

    |0...0> is projected onto the +1 eigenspace of every generator and of
    Z_bar and normalized; the logical one is X_bar applied to it.
    """
    if code.k != 1:
        raise ValueError(f"codewords need k = 1, got k = {code.k} for {code.name}")
    state = project(basis_state(code.n, 0), (*code.generators, code.logical_z[0]))
    norm = np.linalg.norm(state)
    if norm < 1e-12:
        raise ValueError(f"|0...0> has no support on the code space of {code.name}")
    w0 = state / norm
    return w0, apply_pauli(code.logical_x[0], w0)


def state_from_terms(n: int, terms: Iterable[tuple[str, float]]) -> np.ndarray:
    """Normalized state from (bitstring, coefficient) pairs."""
    state = np.zeros(1 << n, dtype=np.complex128)
    for bits, coeff in terms:
        state[int(bits, 2)] += coeff
    return state / np.linalg.norm(state)
