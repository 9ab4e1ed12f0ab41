"""Two-level code concatenation in both orders (QD and DQ).

QD puts the actively corrected code outside and the passive subspace code
inside; DQ is the reverse.  The construction yields, per trait:

* blockwise generator classes (one copy of each inner generator per block),
* lifted generator classes (outer generators encoded through the inner
  code's logical operations, degenerate when the inner code is passive),
* the error degeneracy equivalence class partitioning all correctable
  errors into mutually degenerate sets,
* a syndrome-keyed decoder table with one entry per set.

Structural assembly supports inner codes with k = 1; size arithmetic is
general.  :func:`correctable_count` gives the equivalence class's size
before any product is formed; the CLI refuses a build above
:data:`MAX_CORRECTABLE`.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import pauli, stabilizer
from .pauli import PauliString
from .stabilizer import StabilizerCode


class Order(str, enum.Enum):
    QD = "qd"  # active outer, passive inner
    DQ = "dq"  # passive outer, active inner


@dataclass(frozen=True)
class ConcatSpec:
    outer: StabilizerCode
    inner: StabilizerCode
    order: Order
    blocks: tuple[tuple[int, ...], ...]
    n_cc: int
    k_cc: int


@dataclass(frozen=True)
class GeneratorClass:
    """Degenerate generator representatives; all give identical syndromes
    on every correctable error.  The canonical lift comes first."""

    representatives: tuple[PauliString, ...]
    passive: bool

    @property
    def representative(self) -> PauliString:
        return self.representatives[0]


@dataclass(frozen=True)
class EquivalenceClass:
    """Disjoint sets of correctable errors, mutually degenerate within
    each set and non-degenerate across sets."""

    sets: tuple[tuple[PauliString, ...], ...]

    @property
    def total_elements(self) -> int:
        return sum(len(s) for s in self.sets)


def concat_size(n_o: int, k_o: int, n_i: int, k_i: int) -> tuple[int, int]:
    """Concatenated parameters: [[n_o n_i / k_i, k_o]] when k_i divides n_o,
    else [[n_o n_i, k_o k_i]]."""
    for label, value in (("n_o", n_o), ("k_o", k_o), ("n_i", n_i), ("k_i", k_i)):
        if value <= 0:
            raise ValueError(f"{label} must be positive, got {value}")
    if k_o > n_o or k_i > n_i:
        raise ValueError("logical qubit count cannot exceed physical count")
    if n_o % k_i == 0:
        return (n_o * n_i) // k_i, k_o
    return n_o * n_i, k_o * k_i


def make_spec(outer: StabilizerCode, inner: StabilizerCode, order: Order) -> ConcatSpec:
    n_cc, k_cc = concat_size(outer.n, outer.k, inner.n, inner.k)
    if inner.k != 1:
        raise ValueError("structural assembly supports inner codes with k=1 only")
    blocks = tuple(
        tuple(range(b * inner.n, (b + 1) * inner.n)) for b in range(outer.n)
    )
    return ConcatSpec(outer, inner, Order(order), blocks, n_cc, k_cc)


# ---------------------------------------------------------------------------
# Logical lifting
# ---------------------------------------------------------------------------


def _canonical_letter_op(inner: StabilizerCode, label: str) -> PauliString:
    if label == "I":
        return pauli.identity(inner.n)
    if label == "X":
        return inner.logical_x[0]
    if label == "Z":
        return inner.logical_z[0]
    if label == "Y":
        return stabilizer.logical_y(inner)
    raise ValueError(f"unknown logical label {label!r}")


def lift_logical(inner: StabilizerCode, label: str) -> tuple[PauliString, ...]:
    """All physical realizations of one logical operation on the inner code:
    the canonical representative times every stabilizer group element, exact
    phases included and the canonical representative first."""
    if inner.k != 1:
        raise ValueError("logical lifting supports k=1 inner codes only")
    canonical = _canonical_letter_op(inner, label)
    rest = sorted(
        (
            pauli.multiply(canonical, s)
            for s in stabilizer.stabilizer_group(inner)
            if (s.x, s.z) != (0, 0)
        ),
        key=str,
    )
    return (canonical, *rest)


def _blockwise_products(per_block) -> tuple[PauliString, ...]:
    """Tensor product of every combination of one factor per block."""
    return tuple(
        functools.reduce(pauli.tensor, combo, pauli.identity(0))
        for combo in itertools.product(*per_block)
    )


def canonical_lift(inner: StabilizerCode, outer_op: PauliString) -> PauliString:
    """Encode an outer-code operator blockwise via canonical inner logicals."""
    lifted = pauli.identity(0)
    for q in range(outer_op.n):
        lifted = pauli.tensor(lifted, _canonical_letter_op(inner, outer_op.letter(q)))
    return PauliString(lifted.n, lifted.x, lifted.z, (lifted.phase + outer_op.phase) % 4)


# ---------------------------------------------------------------------------
# Generator classes
# ---------------------------------------------------------------------------


def build_generators(spec: ConcatSpec) -> tuple[GeneratorClass, ...]:
    """Blockwise inner generators first, then lifted outer generators.

    Lifted classes expand over the inner logical multiplicity only when the
    inner code is fully passive: multiplicity partners differ by inner
    stabilizer elements, and only passive ones commute with every
    correctable error, which the degeneracy contract requires.
    """
    inner, outer = spec.inner, spec.outer
    classes: list[GeneratorClass] = []
    for block in spec.blocks:
        for gi, g in enumerate(inner.generators):
            rep = pauli.embed(g, block[0], spec.n_cc)
            classes.append(GeneratorClass((rep,), passive=inner.passive_mask[gi]))

    expand = bool(inner.generators) and all(inner.passive_mask)
    for gi, g in enumerate(outer.generators):
        per_block = []
        for q in range(outer.n):
            label = g.letter(q)
            if label == "I" or not expand:
                per_block.append((_canonical_letter_op(inner, label),))
            else:
                per_block.append(lift_logical(inner, label))
        reps = _blockwise_products(per_block)
        classes.append(GeneratorClass(reps, passive=outer.passive_mask[gi]))
    return tuple(classes)


def concatenated_code(spec: ConcatSpec, classes: tuple[GeneratorClass, ...]) -> StabilizerCode:
    """One representative per generator class, with lifted logicals."""
    name = f"{spec.order.value}{spec.n_cc}"
    return StabilizerCode(
        name=name,
        n=spec.n_cc,
        k=spec.k_cc,
        generators=tuple(c.representative for c in classes),
        logical_x=(canonical_lift(spec.inner, spec.outer.logical_x[0]),),
        logical_z=(canonical_lift(spec.inner, spec.outer.logical_z[0]),),
        passive_mask=tuple(c.passive for c in classes),
    )


# ---------------------------------------------------------------------------
# Correctable errors and equivalence classes
# ---------------------------------------------------------------------------


def correctable_errors(code: StabilizerCode) -> tuple[PauliString, ...]:
    """Identity plus the weight-1 errors the lookup decoder handles.

    Weight-1 errors are scanned letter-major (all X, all Y, all Z); an error
    enters the set iff its syndrome is nonzero and not already claimed.
    """
    errors = [pauli.identity(code.n)]
    seen = {stabilizer.syndrome(code, errors[0])}
    for letter in "XYZ":
        for q in range(code.n):
            err = pauli.single(code.n, q, letter)
            syn = stabilizer.syndrome(code, err)
            if any(syn) and syn not in seen:
                seen.add(syn)
                errors.append(err)
    return tuple(errors)


def equivalence_classes(spec: ConcatSpec) -> EquivalenceClass:
    """Partition of the concatenated code's correctable errors.

    QD: one set per outer-correctable error, expanded through the full
    logical multiplicity of the inner code on every block.  DQ: one set per
    combination of inner-correctable errors across blocks, paired with its
    image under each nontrivial passively corrected outer operation.
    """
    inner, outer = spec.inner, spec.outer
    sets: list[tuple[PauliString, ...]] = []
    if spec.order is Order.QD:
        for outer_err in correctable_errors(outer):
            per_block = [lift_logical(inner, outer_err.letter(q)) for q in range(outer.n)]
            sets.append(_blockwise_products(per_block))
    else:
        partners = [
            canonical_lift(inner, s)
            for s in stabilizer.stabilizer_group(outer)
            if (s.x, s.z) != (0, 0)
        ]
        for op in _blockwise_products([correctable_errors(inner)] * outer.n):
            sets.append((op, *(pauli.multiply(p, op) for p in partners)))
    return EquivalenceClass(tuple(sets))


# Most correctable errors ``concat build`` enumerates.  The other built-in
# pairs need at most 16,384; knill-laflamme-5 with itself needs 16,777,216 in
# either order, minutes and gigabytes.
MAX_CORRECTABLE = 65_536


def correctable_count(spec: ConcatSpec) -> int:
    """``equivalence_classes(spec).total_elements``, without forming a product.

    QD: each outer-correctable error's set lifts every block through all
    2^r_inner realizations.  DQ: each tuple of inner-correctable errors is
    paired with its images under the 2^r_outer - 1 nontrivial outer stabilizers.
    """
    if spec.order is Order.QD:
        return len(correctable_errors(spec.outer)) << (len(spec.inner.generators) * spec.outer.n)
    return len(correctable_errors(spec.inner)) ** spec.outer.n << len(spec.outer.generators)


Efficiency = Union[Fraction, float]


def hamming_efficiency(
    eq_class: EquivalenceClass, n: int, k: int
) -> tuple[Efficiency, Efficiency]:
    """(phi, phi_prime): log2 of total correctable errors / of set count,
    each divided by n - k; exact rationals for power-of-two counts."""
    if not eq_class.sets:
        raise ValueError("equivalence class is empty")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")

    def log_ratio(count: int) -> Efficiency:
        if count & (count - 1) == 0:
            return Fraction(count.bit_length() - 1, n - k)
        return math.log2(count) / (n - k)

    return log_ratio(eq_class.total_elements), log_ratio(len(eq_class.sets))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decoder_table(
    code: StabilizerCode, eq_class: EquivalenceClass
) -> dict[tuple[int, ...], PauliString]:
    """One entry per equivalence set, keyed by the set's common syndrome and
    valued by its lexicographically first element."""
    table: dict[tuple[int, ...], PauliString] = {}
    for members in eq_class.sets:
        syndromes = {stabilizer.syndrome(code, m) for m in members}
        if len(syndromes) != 1:
            raise RuntimeError(
                f"set {tuple(map(str, members))} spans syndromes {syndromes}"
            )
        key = next(iter(syndromes))
        if key in table:
            raise RuntimeError(f"syndrome collision across sets at {key}")
        table[key] = min(members, key=str)
    return table


def passive_set(
    eq_class: EquivalenceClass, code: StabilizerCode
) -> tuple[PauliString, ...]:
    """The unique all-zero-syndrome set; every element is a stabilizer error."""
    for members in eq_class.sets:
        if not any(stabilizer.syndrome(code, members[0])):
            return members
    raise RuntimeError("no zero-syndrome set found")


# ---------------------------------------------------------------------------
# Assembled concatenations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcatCode:
    """Spec plus every derived structure, built once per code id."""

    code_id: str
    spec: ConcatSpec
    classes: tuple[GeneratorClass, ...]
    code: StabilizerCode
    equivalence: EquivalenceClass
    table: dict[tuple[int, ...], PauliString]
    passive: tuple[PauliString, ...]


@dataclass(frozen=True)
class Concatenation:
    """One registered concatenation: how it is built, its Monte Carlo letter
    alphabet, its ``table1`` row, and its curves, each variant's formula
    names outer first: ``literal`` always, ``table_variant`` one of them."""

    outer: str
    inner: str
    order: Order
    alphabet: str
    e_type: str
    curves: dict[str, tuple[str, ...]]
    table_variant: str = "literal"


REGISTRY: dict[str, Concatenation] = {
    "qd6": Concatenation("repetition-3", "dfs-2", Order.QD, "bitflip", "X,XX",
                         {"literal": ("rep3", "dfs2-bitflip")}),
    "dq6": Concatenation("dfs-2", "repetition-3", Order.DQ, "bitflip", "X,XX",
                         {"literal": ("dfs2-bitflip", "rep3")}),
    # The two-letter inner form reproduces the tabulated threshold digits.
    "qd10": Concatenation(
        "knill-laflamme-5", "dfs-2", Order.QD, "depolarizing3", "X,Y,Z,XX",
        {"literal": ("kl5", "dfs2-depolarizing3"), "table": ("kl5", "dfs2-bitflip")}, "table",
    ),
    # The printed outer form never crosses the identity line on (0, 0.5).
    "dq10": Concatenation(
        "dfs-2", "knill-laflamme-5", Order.DQ, "depolarizing3", "X,Y,Z,XX",
        {"literal": ("dfs2-depolarizing3", "kl5"), "printed": ("dfs2-printed", "kl5")},
    ),
}


def code_ids() -> list[str]:
    return list(REGISTRY)


def record(code_id: str) -> Concatenation:
    try:
        return REGISTRY[code_id]
    except KeyError:
        valid = ", ".join(REGISTRY)
        raise ValueError(f"unknown code id {code_id!r}; valid ids: {valid}") from None


def build(outer: StabilizerCode, inner: StabilizerCode, order: Order) -> ConcatCode:
    spec = make_spec(outer, inner, order)
    classes = build_generators(spec)
    code = concatenated_code(spec, classes)
    eq_class = equivalence_classes(spec)
    table = decoder_table(code, eq_class)
    return ConcatCode(
        code_id=code.name,
        spec=spec,
        classes=classes,
        code=code,
        equivalence=eq_class,
        table=table,
        passive=passive_set(eq_class, code),
    )


@functools.lru_cache(maxsize=None)
def concatenated(code_id: str) -> ConcatCode:
    rec = record(code_id)
    return build(stabilizer.builtin(rec.outer), stabilizer.builtin(rec.inner), rec.order)
