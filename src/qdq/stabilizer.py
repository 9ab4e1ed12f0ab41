"""Stabilizer codes: validation, syndromes, check words, classification.

A code is held as its generator list plus logical operator representatives
and a per-generator passive mask (a passive generator is itself a corrected
error and needs no measurement).  Group structure is GF(2) linear algebra
over packed (x | z) rows (:class:`RowSpace`); only :func:`stabilizer_group`
lists the 2**r elements, for callers that need them.  :func:`classify`
returns an error's :class:`ErrorKind`, deciding group membership modulo
phase: E_a E_b = -S acts on codewords exactly like S up to a global phase,
so a and b are degenerate iff ``classify(code, multiply(a, b))`` is
STABILIZER.  :func:`group_element_phase` reports the exact phase separately.

:func:`validate` checks every commutation relation in one pass over the
pairs of ``[generators, logical_x, logical_z]``: ``logical_x[i]`` and
``logical_z[i]`` must anticommute and every other pair must commute.  A
logical inside the stabilizer group would commute with its partner, so the
pass needs no membership test.  It finds -I with :func:`group_element_phase`:
for commuting generators, -I (or +/-i I) lies in the group iff a generator
has phase +/-i or differs in phase from the product its bits decompose into.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import pauli
from .pauli import PauliString


class ErrorKind(str, enum.Enum):
    STABILIZER = "stabilizer"
    DETECTABLE = "detectable"
    LOGICAL = "logical"


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class StabilizerCode:
    """[[n, k]] code: generators, logical representatives, passive mask."""

    name: str
    n: int
    k: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]
    passive_mask: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.passive_mask) != len(self.generators):
            raise ValueError("passive mask length must match generator count")

    @functools.cached_property
    def row_space(self) -> RowSpace:
        return RowSpace(row(g) for g in self.generators)


# ---------------------------------------------------------------------------
# GF(2) row spaces over packed (x | z) rows
# ---------------------------------------------------------------------------


def row(p: PauliString) -> int:
    """Packed symplectic row: the x bits above the z bits."""
    return (p.x << p.n) | p.z


class RowSpace:
    """Echelonized GF(2) span of symplectic rows, with combination tracking."""

    def __init__(self, rows: Iterable[int]):
        # Each basis entry is (pivot_bit, row, combo) where combo records
        # which input rows were folded in.
        self.basis: list[tuple[int, int, int]] = []
        self.n_rows = 0
        for row in rows:
            self.add(row)

    def add(self, row: int) -> bool:
        """Fold in one row; returns True if it enlarged the span."""
        combo = 1 << self.n_rows
        self.n_rows += 1
        row, combo = self._reduce(row, combo)
        if row == 0:
            return False
        self.basis.append((row.bit_length() - 1, row, combo))
        self.basis.sort(reverse=True)
        return True

    def _reduce(self, row: int, combo: int) -> tuple[int, int]:
        for pivot, brow, bcombo in self.basis:
            if (row >> pivot) & 1:
                row ^= brow
                combo ^= bcombo
        return row, combo

    @property
    def rank(self) -> int:
        return len(self.basis)

    def decompose(self, row: int) -> Optional[int]:
        """Bit mask over input rows whose XOR equals ``row``, or None."""
        reduced, combo = self._reduce(row, 0)
        return combo if reduced == 0 else None


def _decompose(code: StabilizerCode, error: PauliString) -> Optional[int]:
    """Generator bit mask whose product has the error's bits, or None."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return code.row_space.decompose(row(error))


def group_element_phase(code: StabilizerCode, error: PauliString) -> Optional[int]:
    """Exact phase exponent of error relative to the matching group element.

    Returns e such that error = i**e * S where S is the product of
    generators with the same bit pattern, or None if the bits are not in
    the group.  e == 0 means the error literally is a stabilizer element.
    """
    combo = _decompose(code, error)
    if combo is None:
        return None
    product = pauli.identity(code.n)
    for i, g in enumerate(code.generators):
        if (combo >> i) & 1:
            product = pauli.multiply(product, g)
    return (error.phase - product.phase) % 4


def stabilizer_group(code: StabilizerCode) -> tuple[PauliString, ...]:
    """All 2**len(generators) group elements with exact phases."""
    elements = [pauli.identity(code.n)]
    for g in code.generators:
        elements += [pauli.multiply(e, g) for e in elements]
    return tuple(elements)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def _anticommutes(x: int, z: int, check: PauliString) -> int:
    """1 iff the error with bits (x, z) anticommutes with check, else 0."""
    return ((x & check.z) ^ (z & check.x)).bit_count() & 1


def syndrome(code: StabilizerCode, error: PauliString) -> tuple[int, ...]:
    """Bit i is 1 iff the error anticommutes with generators[i]."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return tuple(_anticommutes(error.x, error.z, g) for g in code.generators)


def check_word(code: StabilizerCode, x: int, z: int) -> int:
    """The check word of the error with bits (x, z): bit i is whether it
    anticommutes with generator i, the next two bits with logical X and Z.

    GF(2)-linear in the error; for k = 1 its kernel is exactly the stabilizer
    group (mod phase), so errors share a word iff they differ by a stabilizer.
    Its low r bits are the :func:`syndrome`.
    """
    if code.k != 1:
        raise ValueError(f"check words need k = 1, {code.name} has k = {code.k}")
    word = 0
    for i, check in enumerate((*code.generators, code.logical_x[0], code.logical_z[0])):
        word |= _anticommutes(x, z, check) << i
    return word


def classify(code: StabilizerCode, error: PauliString) -> ErrorKind:
    """DETECTABLE if any syndrome bit is set, else STABILIZER when the error
    lies in the group (modulo phase), else LOGICAL."""
    if any(syndrome(code, error)):
        return ErrorKind.DETECTABLE
    if _decompose(code, error) is not None:
        return ErrorKind.STABILIZER
    return ErrorKind.LOGICAL


def validate(code: StabilizerCode) -> ValidationReport:
    """Check every structural invariant; failures name the offending parts."""
    failures: list[str] = []
    gens = code.generators

    space = code.row_space
    if space.rank != len(gens):
        failures.append(
            f"generators are dependent: rank {space.rank} < {len(gens)} rows"
        )
    if len(gens) != code.n - code.k:
        failures.append(
            f"generator count {len(gens)} does not equal n-k = {code.n - code.k}"
        )

    # A phase +/-i generator squares to -I.  Otherwise every bit-trivial
    # product is a product of the relations "dependent generator times the
    # product its bits decompose into", so one of them carries any -I.
    if any(g.phase % 2 or group_element_phase(code, g) for g in gens):
        failures.append("-I (or +/-i I) lies in the generated group")

    operators = []
    for label, ops in (
        ("generator", gens),
        ("logical_x", code.logical_x),
        ("logical_z", code.logical_z),
    ):
        if label != "generator" and len(ops) != code.k:
            failures.append(f"{label} has {len(ops)} entries, expected k={code.k}")
        operators += [(label, i, op) for i, op in enumerate(ops)]

    for (la, i, a), (lb, j, b) in itertools.combinations(operators, 2):
        partners = (la, lb) == ("logical_x", "logical_z") and i == j
        if pauli.commutes(a, b) == partners:
            rel = "commute" if partners else "anticommute"
            failures.append(f"{la}[{i}] and {lb}[{j}] {rel}: {a} vs {b}")

    return ValidationReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Built-in codes
# ---------------------------------------------------------------------------


def _code(
    name: str,
    generators: list[str],
    logical_x: list[str],
    logical_z: list[str],
    passive: list[bool],
) -> StabilizerCode:
    gens = tuple(pauli.parse(g) for g in generators)
    n = gens[0].n if gens else len(logical_x[0])
    # Every builtin has one logical qubit.  k is stated, not derived as n - r,
    # so that validate's generator-count check still tests the list.
    return StabilizerCode(
        name=name,
        n=n,
        k=1,
        generators=gens,
        logical_x=tuple(pauli.parse(s) for s in logical_x),
        logical_z=tuple(pauli.parse(s) for s in logical_z),
        passive_mask=tuple(passive),
    )


_BUILTINS = {
    # Three-qubit bit-flip repetition code.
    "repetition-3": lambda: _code(
        "repetition-3", ["ZZI", "ZIZ"], ["XXX"], ["ZII"], [False, False]
    ),
    # Five-qubit code correcting an arbitrary single-qubit error.
    "knill-laflamme-5": lambda: _code(
        "knill-laflamme-5",
        ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
        ["XXXXX"],
        ["ZZZZZ"],
        [False] * 4,
    ),
    # Two-qubit subspace immune to collective bit flips; its lone generator
    # is itself the corrected error, hence passive.
    "dfs-2": lambda: _code("dfs-2", ["XX"], ["XI"], ["ZZ"], [True]),
}


def builtin(name: str) -> StabilizerCode:
    try:
        builder = _BUILTINS[name]
    except KeyError:
        valid = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown code {name!r}; valid names: {valid}") from None
    return builder()


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def logical_y(code: StabilizerCode) -> PauliString:
    """Canonical logical Y representative of logical qubit 0, i * X_bar * Z_bar."""
    product = pauli.multiply(code.logical_x[0], code.logical_z[0])
    return PauliString(product.n, product.x, product.z, (product.phase + 1) % 4)
