"""Exact Pauli-string algebra over the binary symplectic representation.

An n-qubit Pauli operator is stored as two packed bit masks (bit q of ``x``
and ``z`` holds the X and Z component on qubit q, qubit 0 = leftmost letter
in the text form) together with a global phase exponent ``phase`` meaning
``i**phase``.  The per-qubit convention is Y = i*X*Z, which makes the letter
form round-trip through :func:`parse`/:func:`format` without spurious signs.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

_PHASE_PREFIX = ("", "i", "-", "-i")
_SIGN_PREFIXES = (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0))
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """i**phase times the product over qubits of i**(x_q z_q) X^x_q Z^z_q."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("qubit count must be non-negative")
        mask = (1 << self.n) - 1
        if not 0 <= self.x <= mask:
            raise ValueError(f"x mask {self.x:#x} out of range for n={self.n}")
        if not 0 <= self.z <= mask:
            raise ValueError(f"z mask {self.z:#x} out of range for n={self.n}")
        if self.phase not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent {self.phase} not in 0..3")

    @property
    def letters(self) -> str:
        """Letter form without the sign prefix."""
        return "".join(
            _BITS_LETTER[(self.x >> q) & 1, (self.z >> q) & 1] for q in range(self.n)
        )

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def single(n: int, q: int, letter: str) -> PauliString:
    """Weight-1 operator with ``letter`` on qubit q and identity elsewhere."""
    if letter not in _LETTER_BITS:
        raise ValueError(f"unknown Pauli letter {letter!r}")
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for n={n}")
    xb, zb = _LETTER_BITS[letter]
    return PauliString(n, xb << q, zb << q)


def parse(text: str) -> PauliString:
    """Parse an optional sign prefix ("+", "-", "i", "-i") plus I/X/Y/Z letters."""
    phase = 0
    body = text
    for prefix, exponent in _SIGN_PREFIXES:
        if text.startswith(prefix):
            phase = exponent
            body = text[len(prefix) :]
            break
    offset = len(text) - len(body)
    if not body:
        raise ValueError(f"empty Pauli string in {text!r}")
    x = z = 0
    for q, ch in enumerate(body):
        try:
            xb, zb = _LETTER_BITS[ch]
        except KeyError:
            raise ValueError(
                f"invalid Pauli character {ch!r} at position {offset + q} in {text!r}"
            ) from None
        x |= xb << q
        z |= zb << q
    return PauliString(len(body), x, z, phase)


def format_pauli(p: PauliString) -> str:
    return _PHASE_PREFIX[p.phase] + p.letters


def _check_lengths(a: PauliString, b: PauliString) -> None:
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n} qubits")


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact operator product a*b, including the accumulated phase."""
    _check_lengths(a, b)
    x = a.x ^ b.x
    z = a.z ^ b.z
    # Phase bookkeeping for the i**(x_q z_q) X^x Z^z normal form: commuting
    # b's X past a's Z contributes (-1) per overlapping bit.
    phase = (
        a.phase
        + b.phase
        + (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return PauliString(a.n, x, z, phase)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the symplectic inner product a.x*b.z + a.z*b.x vanishes mod 2."""
    _check_lengths(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def tensor(a: PauliString, b: PauliString) -> PauliString:
    """Concatenation a (x) b; a occupies the leading qubits."""
    return PauliString(
        a.n + b.n,
        a.x | (b.x << a.n),
        a.z | (b.z << a.n),
        (a.phase + b.phase) % 4,
    )


def embed(p: PauliString, offset: int, n_total: int) -> PauliString:
    """Place p on qubits offset..offset+p.n-1 of an n_total-qubit register."""
    if offset < 0 or offset + p.n > n_total:
        raise ValueError(f"cannot embed {p.n} qubits at offset {offset} into {n_total}")
    return PauliString(n_total, p.x << offset, p.z << offset, p.phase)
