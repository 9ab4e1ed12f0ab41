"""Two-level code concatenation in both orders (QD and DQ).

QD puts the actively corrected code outside and the passive subspace code
inside; DQ is the reverse.  The construction yields, per trait:

* blockwise generator classes (one copy of each inner generator per block),
* lifted generator classes (outer generators encoded through the inner
  code's logical operations, degenerate when the inner code is passive),
* one partition of all correctable errors into mutually degenerate sets,
  keyed by each set's common syndrome; the decoder table takes one
  correction per key and the passive (measurement-free) set is the one
  under the zero syndrome.

Every lifted operator is an image under :func:`lift`, which carries the
outer operator's sign, so any k = 1 code can be the outer code, a signed
character's ``dfs.as_stabilizer_code(chi)`` included.  Structural assembly
supports outer and inner codes with k = 1; size arithmetic is general.
:func:`correctable_count` gives the partition's size before any
product is formed; the CLI refuses a build above :data:`MAX_CORRECTABLE`.
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
    if outer.k != 1 or inner.k != 1:
        raise ValueError("structural assembly supports outer and inner codes with k=1 only")
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


def lift(
    inner: StabilizerCode, outer_op: PauliString, expand: str = ""
) -> tuple[PauliString, ...]:
    """Blockwise images of an outer operator through the inner logicals,
    each carrying ``outer_op``'s phase and the canonical image first.

    A block whose letter is in ``expand`` takes every realization of that
    letter (:func:`lift_logical`); any other block takes the canonical one.
    """
    per_block = [
        lift_logical(inner, letter) if letter in expand else (_canonical_letter_op(inner, letter),)
        for letter in outer_op.letters
    ]
    sign = PauliString(0, 0, 0, outer_op.phase)
    return tuple(
        functools.reduce(pauli.tensor, combo, sign) for combo in itertools.product(*per_block)
    )


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

    expand = "XYZ" if inner.generators and all(inner.passive_mask) else ""
    for gi, g in enumerate(outer.generators):
        classes.append(GeneratorClass(lift(inner, g, expand), passive=outer.passive_mask[gi]))
    return tuple(classes)


def concatenated_code(spec: ConcatSpec, classes: tuple[GeneratorClass, ...]) -> StabilizerCode:
    """One representative per generator class, with lifted logicals."""
    name = f"{spec.order.value}{spec.n_cc}"
    return StabilizerCode(
        name=name,
        n=spec.n_cc,
        k=spec.k_cc,
        generators=tuple(c.representative for c in classes),
        logical_x=lift(spec.inner, spec.outer.logical_x[0]),
        logical_z=lift(spec.inner, spec.outer.logical_z[0]),
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


def equivalence_classes(spec: ConcatSpec) -> tuple[tuple[PauliString, ...], ...]:
    """The concatenated code's correctable errors in mutually degenerate sets.

    QD: one set per outer-correctable error, expanded through the full
    logical multiplicity of the inner code on every block.  DQ: one set per
    combination of inner-correctable errors across blocks, paired with its
    image under each nontrivial passively corrected outer operation.
    """
    inner, outer = spec.inner, spec.outer
    if spec.order is Order.QD:
        return tuple(lift(inner, e, "IXYZ") for e in correctable_errors(outer))
    # stabilizer_group lists the identity first.
    partners = [lift(inner, s)[0] for s in stabilizer.stabilizer_group(outer)[1:]]
    sets = []
    for combo in itertools.product(correctable_errors(inner), repeat=outer.n):
        op = functools.reduce(pauli.tensor, combo, pauli.identity(0))
        sets.append((op, *(pauli.multiply(p, op) for p in partners)))
    return tuple(sets)


Partition = dict[tuple[int, ...], tuple[PauliString, ...]]


def key_by_syndrome(
    code: StabilizerCode, sets: tuple[tuple[PauliString, ...], ...]
) -> Partition:
    """Each set under the syndrome all its members share, in the given order;
    a set spanning two syndromes, or two sets sharing one, is an error."""
    partition: Partition = {}
    for members in sets:
        syndromes = {stabilizer.syndrome(code, m) for m in members}
        if len(syndromes) != 1:
            raise RuntimeError(
                f"set {tuple(map(str, members))} spans syndromes {syndromes}"
            )
        (key,) = syndromes
        if key in partition:
            raise RuntimeError(f"syndrome collision across sets at {key}")
        partition[key] = members
    return partition


# Most correctable errors ``concat build`` enumerates.  The other built-in
# pairs need at most 16,384; knill-laflamme-5 with itself needs 16,777,216 in
# either order, minutes and gigabytes.
MAX_CORRECTABLE = 65_536


def correctable_count(spec: ConcatSpec) -> int:
    """``sum(map(len, equivalence_classes(spec)))``, without forming a product.

    QD: each outer-correctable error's set lifts every block through all
    2^r_inner realizations.  DQ: each tuple of inner-correctable errors is
    paired with its images under the 2^r_outer - 1 nontrivial outer stabilizers.
    """
    if spec.order is Order.QD:
        return len(correctable_errors(spec.outer)) << (len(spec.inner.generators) * spec.outer.n)
    return len(correctable_errors(spec.inner)) ** spec.outer.n << len(spec.outer.generators)


Efficiency = Union[Fraction, float]


def hamming_efficiency(
    equivalence: Partition, n: int, k: int
) -> tuple[Efficiency, Efficiency]:
    """(phi, phi_prime): log2 of total correctable errors / of set count,
    each divided by n - k; exact rationals for power-of-two counts."""
    sets = equivalence.values()
    if not sets:
        raise ValueError("equivalence partition is empty")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")

    def log_ratio(count: int) -> Efficiency:
        if count & (count - 1) == 0:
            return Fraction(count.bit_length() - 1, n - k)
        return math.log2(count) / (n - k)

    return log_ratio(sum(map(len, sets))), log_ratio(len(sets))


# ---------------------------------------------------------------------------
# Assembled concatenations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcatCode:
    """Spec plus every derived structure, built once per code id.

    ``equivalence`` maps each syndrome to its set of degenerate correctable
    errors; ``table`` holds each set's first element by ``str`` and
    ``passive`` is the set under the zero syndrome."""

    spec: ConcatSpec
    classes: tuple[GeneratorClass, ...]
    code: StabilizerCode
    equivalence: Partition
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
    equivalence = key_by_syndrome(code, equivalence_classes(spec))
    return ConcatCode(
        spec=spec,
        classes=classes,
        code=code,
        equivalence=equivalence,
        table={s: min(members, key=str) for s, members in equivalence.items()},
        passive=equivalence[(0,) * len(code.generators)],
    )


@functools.lru_cache(maxsize=None)
def concatenated(code_id: str) -> ConcatCode:
    rec = record(code_id)
    return build(stabilizer.builtin(rec.outer), stabilizer.builtin(rec.inner), rec.order)
