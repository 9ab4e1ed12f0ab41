"""Decoherence-free subspaces of Abelian Pauli error groups.

Supported groups are elementary Abelian 2-groups stored phase-free; every
sign lives in the characters, each kept as its r signs on the generators
(flip bits): chi(e) is the parity of the flipped generators in e's
decomposition.  chi's subspace is the +1 space of the r signed generators
chi(g)*g, of dimension 2^(n-r); it is exported as a fully passive stabilizer
code, and its basis is projected from one basis state per surviving X-orbit,
with the dense :func:`projector` kept only as the reference.  Each function
of a subspace takes its character alone: a character knows its group.
Characters, orbits and logical pairs (symplectic Gram-Schmidt,
:func:`_complete_logicals`) are GF(2) linear algebra over packed rows, with
no search over elements.
A group is validated once, when it is built, from its r generators.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pauli, statevec
from .pauli import PauliString
from .stabilizer import RowSpace, StabilizerCode, row


@dataclass(frozen=True)
class AbelianErrorGroup:
    """Mutually commuting, phase-free Pauli errors closed under products."""

    n: int
    elements: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        validate_group(self)

    @staticmethod
    def from_strings(texts: Sequence[str]) -> "AbelianErrorGroup":
        elements = tuple(pauli.parse(t) for t in texts)
        if not elements:
            raise ValueError("group must contain the identity; got no elements")
        return AbelianErrorGroup(elements[0].n, elements)

    @functools.cached_property
    def generators(self) -> tuple[PauliString, ...]:
        """Each element independent of the earlier ones, in element order."""
        space = RowSpace([])
        return tuple(e for e in self.elements if space.add(row(e)))

    @functools.cached_property
    def row_space(self) -> RowSpace:
        return RowSpace(row(g) for g in self.generators)


def validate_group(group: AbelianErrorGroup) -> None:
    """Raise ValueError on any structural violation; run at construction.

    Past the per-element checks, only the 2^r generator products a*g are
    built, one multiply each.  An odd phase means a and g anticommute; if all
    are phase-free elements, the distinct elements are their span, so closed.
    """
    elems = group.elements
    keys = {(e.x, e.z) for e in elems}
    if len(keys) != len(elems):
        raise ValueError("group elements are not distinct")
    if (0, 0) not in keys:
        raise ValueError("group must contain the identity")
    if len(elems) & (len(elems) - 1):
        raise ValueError(f"group order {len(elems)} is not a power of 2")
    for e in elems:
        if e.n != group.n:
            raise ValueError(f"element {e} does not act on {group.n} qubits")
        if e.phase != 0:
            raise ValueError(f"element {e} carries a phase; store elements sign-free")
    products = [pauli.identity(group.n)]
    for g in group.generators:
        for a in list(products):
            product = pauli.multiply(a, g)
            if product.phase % 2:
                raise ValueError(f"elements {a} and {g} anticommute")
            if (product.x, product.z) not in keys:
                raise ValueError(f"product {a}*{g} leaves the element set")
            if product.phase != 0:
                raise ValueError(
                    f"product {a}*{g} = {product} picks up a phase; "
                    "not a valid sign-free error group"
                )
            products.append(product)


@dataclass(frozen=True)
class Character:
    """Sign character of a group: bit i of ``flips`` means chi(generators[i]) = -1."""

    group: AbelianErrorGroup
    flips: int

    def value(self, element: PauliString) -> int:
        """chi(element); ValueError unless element is a phase-free group element."""
        combo = self.group.row_space.decompose(row(element))
        if combo is None or element.n != self.group.n or element.phase:
            raise ValueError(f"{element} is not in the group")
        return (-1) ** (combo & self.flips).bit_count()

    def signs(self) -> tuple[int, ...]:
        return tuple(self.value(g) for g in self.group.elements)

    @property
    def signed_generators(self) -> tuple[PauliString, ...]:
        """chi(g)*g = i**(1 - chi(g)) g over the generators; their +1 space is chi's."""
        return tuple(
            PauliString(g.n, g.x, g.z, 2 * (self.flips >> i & 1))
            for i, g in enumerate(self.group.generators)
        )


def characters(group: AbelianErrorGroup) -> list[Character]:
    """All 2^r sign characters, generator 0's sign slowest: the trivial one first."""
    sign_tuples = itertools.product((1, -1), repeat=len(group.generators))
    return [Character(group, sum(1 << i for i, s in enumerate(t) if s < 0)) for t in sign_tuples]


def projector(chi: Character) -> np.ndarray:
    """(1/|G|) sum_g chi(g) g as a dense matrix: the reference for df_basis."""
    elements = chi.group.elements
    return sum(chi.value(g) * statevec.pauli_matrix(g) for g in elements) / len(elements)


def invariant(state: np.ndarray, chi: Character) -> bool:
    """True iff g|state> = chi(g)|state>, to 1e-10 per amplitude, for every
    element g of chi's group."""
    return all(
        np.max(np.abs(statevec.apply_pauli(g, state) - chi.value(g) * state)) <= 1e-10
        for g in chi.group.elements
    )


def df_basis(chi: Character) -> list[np.ndarray]:
    """Orthonormal basis of chi's subspace, without a dense matrix.

    P g = chi(g) P, so P|i> is proportional across the X-orbit {i ^ xmask(g)}
    and orbits have disjoint support: the basis is P|i>, normalized, for each
    orbit's least index i, ascending, with P|i> != 0.  Over the echelonized
    generator rows (xmask | zmask), i is least iff it has no X pivot bit, and
    P|i> != 0 iff chi(h) = (-1)^|i & h| on each X-free row h.
    """
    n = chi.group.n
    space = RowSpace((xm << n) | zm for xm, zm in map(statevec.index_masks, chi.group.generators))
    index = np.arange(1 << n)
    keep = index & (sum(1 << pivot for pivot, _, _ in space.basis) >> n) == 0
    for pivot, h, combo in space.basis:
        if pivot < n:
            keep &= np.bitwise_count(index & h) % 2 == (combo & chi.flips).bit_count() % 2
    signed = chi.signed_generators
    images = (statevec.project(statevec.basis_state(n, i), signed) for i in np.flatnonzero(keep))
    return [image / np.linalg.norm(image) for image in images]


def as_stabilizer_code(chi: Character) -> StabilizerCode:
    """Export the subspace as a fully passive stabilizer code.

    Generators are chi(g)*g over a generating set; the range, of dimension
    2^k with k = n - (generator count), must hold at least one whole qubit.
    """
    n = chi.group.n
    signed = chi.signed_generators
    k = n - len(signed)
    if k < 1:
        raise ValueError(
            f"character range has dimension {1 << k}; cannot host whole qubits"
        )
    logical_x, logical_z = _complete_logicals(n, signed)
    return StabilizerCode(
        name=f"dfs-{n}" if signed else f"trivial-{n}",
        n=n,
        k=k,
        generators=signed,
        logical_x=tuple(logical_x),
        logical_z=tuple(logical_z),
        passive_mask=(True,) * len(signed),
    )


def _complete_logicals(
    n: int, generators: tuple[PauliString, ...]
) -> tuple[list[PauliString], list[PauliString]]:
    """Logical pairs by symplectic Gram-Schmidt; generators must be independent.

    Candidates are the 2n single-qubit Paulis, X_0..X_{n-1} then
    Z_0..Z_{n-1}.  Each generator takes the first candidate it anticommutes
    with as its partner, and every other candidate that anticommutes with it
    is multiplied by that partner; the partners are dropped, and what is
    left spans the normalizer.  Those are paired in order: the first left
    candidate is an X_bar, the first later one anticommuting with it its
    Z_bar, and the rest become w + <w,z>x + <w,x>z so that they commute with
    both.  A candidate left with no partner is a stabilizer and is dropped.
    Only the two-qubit collective-flip representatives XI / ZZ (the ``dfs-2``
    builtin) are pinned; the others are whatever this order yields.
    """
    mask = (1 << n) - 1

    def anticommute(a: int, b: int) -> int:
        return (((a >> n) & b) ^ (a & (b >> n))).bit_count() & 1

    rows = [1 << (n + q) for q in range(n)] + [1 << q for q in range(n)]
    for g in map(row, generators):
        partner = next(r for r in rows if anticommute(g, r))
        rows.remove(partner)
        rows = [r ^ partner if anticommute(g, r) else r for r in rows]
    logical_x: list[PauliString] = []
    logical_z: list[PauliString] = []
    while rows:
        x = rows.pop(0)
        z = next((r for r in rows if anticommute(x, r)), None)
        if z is None:
            continue
        rows.remove(z)
        rows = [
            r ^ (x if anticommute(r, z) else 0) ^ (z if anticommute(r, x) else 0)
            for r in rows
        ]
        logical_x.append(PauliString(n, x >> n, x & mask))
        logical_z.append(PauliString(n, z >> n, z & mask))
    return logical_x, logical_z
