"""Closed-form failure probabilities under hybrid independent-correlated noise.

Within each innermost block, letters follow a first-order chain: the first
qubit draws from the marginal (p_0 = 1-p, then p or p/3 per error letter)
and each later qubit from p_(i|j) = (1-mu) p_i + mu delta_ij.  Blocks are
independent, so a concatenation's failure probability recurses: innermost
layer at (mu, p), every outer layer at (0, inner result).

The three-qubit repetition formula is implemented as the chain expansion
(3p^2 - 2p^3)(1-mu)^2 + p mu (2-mu); its mu=0 and mu=1 limits are pinned by
regression tests.  A code's curves are the layer lists, by variant name,
of its :data:`qdq.concat.REGISTRY` record: ``literal`` for every code, with
the four-letter subspace failure 1 - (1-p)a - (p/3)((p/3)(1-mu) + mu) as
the inner/outer layer; ``printed`` for dq10, the simplified (2/3) r (1-r)
outer form, which never crosses the identity line on (0, 0.5); and
``table`` for qd10, the two-letter subspace failure 2p(1-p)(1-mu) as the
inner layer, matching the tabulated threshold digits.

The pseudothreshold of a curve is its lowest crossing pf(p) = p, below which
encoding helps: :func:`pseudothreshold` finds it as the first sign change of
one upward scan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import concat


class Alphabet(str, enum.Enum):
    BITFLIP = "bitflip"  # letters I, X with probabilities 1-p, p
    DEPOLARIZING3 = "depolarizing3"  # letters I, X, Y, Z with 1-p, p/3 x3


@dataclass(frozen=True)
class NoiseModel:
    p: float
    mu: float
    alphabet: Alphabet = Alphabet.BITFLIP

    def __post_init__(self) -> None:
        _check_unit("p", self.p)
        _check_unit("mu", self.mu)

    @property
    def letter_probs(self) -> tuple[float, ...]:
        if self.alphabet is Alphabet.BITFLIP:
            return (1.0 - self.p, self.p)
        return (1.0 - self.p, self.p / 3.0, self.p / 3.0, self.p / 3.0)


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def conditional_prob(model: NoiseModel, i: int, j: int) -> float:
    """p_(i|j) = (1-mu) p_i + mu delta_ij; rows sum to 1 over i."""
    probs = model.letter_probs
    if not (0 <= i < len(probs) and 0 <= j < len(probs)):
        raise ValueError(f"letter indices ({i}, {j}) invalid for {model.alphabet}")
    return (1.0 - model.mu) * probs[i] + (model.mu if i == j else 0.0)


def chain_probability(model: NoiseModel, letters: Sequence[int]) -> float:
    """Probability of one within-block letter pattern under the chain."""
    probs = model.letter_probs
    total = probs[letters[0]]
    for prev, cur in zip(letters, letters[1:]):
        total *= conditional_prob(model, cur, prev)
    return total


# ---------------------------------------------------------------------------
# Stand-alone code failure probabilities
# ---------------------------------------------------------------------------


def _pf_rep3(mu: float, p: float) -> float:
    # Chain expansion over the four corrected patterns III, XII, IXI, IIX.
    return (3 * p**2 - 2 * p**3) * (1 - mu) ** 2 + p * mu * (2 - mu)


def _pf_dfs2_bitflip(mu: float, p: float) -> float:
    return 2 * p * (1 - p) * (1 - mu)


def _pf_dfs2_printed(mu: float, p: float) -> float:
    # Outer-layer form only: it ignores mu, which is 0 on outer layers.
    return (2.0 / 3.0) * p * (1.0 - p)


def _pf_kl5(mu: float, p: float) -> float:
    a = (1 - p) * (1 - mu) + mu
    return (
        1
        - 3 * (1 - p) ** 2 * p * (1 - mu) ** 2 * a**2
        - 2 * (1 - p) * p * (1 - mu) * a**3
        - (1 - p) * a**4
    )


def _pf_dfs2_depolarizing3(mu: float, p: float) -> float:
    a = (1 - p) * (1 - mu) + mu
    return 1 - (1 - p) * a - (p / 3) * ((p / 3) * (1 - mu) + mu)


_STANDALONE = {
    "rep3": _pf_rep3,
    "dfs2-bitflip": _pf_dfs2_bitflip,
    "kl5": _pf_kl5,
    "dfs2-depolarizing3": _pf_dfs2_depolarizing3,
    "dfs2-printed": _pf_dfs2_printed,
}


def standalone_pf(code_id: str, mu: float, p: float) -> float:
    fn = formula(code_id)
    _check_unit("p", p)
    _check_unit("mu", mu)
    return fn(mu, p)


def formula(code_id: str) -> Callable[[float, float], float]:
    """The stand-alone (mu, p) -> failure probability formula of a base code."""
    if code_id not in _STANDALONE:
        valid = ", ".join(_STANDALONE)
        raise ValueError(f"unknown formula {code_id!r}; valid: {valid}")
    return _STANDALONE[code_id]


def _snap_unit(value: float) -> float:
    # Formulas that cancel, such as kl5's 1 - sum(success terms), can land a
    # few ulps outside [0, 1] (-1.1e-16 at p ~ 3e-9); further out still raises.
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"layer output must lie in [0, 1], got {value}")
    return min(max(value, 0.0), 1.0)


def concat_pf(layers: Sequence[Callable[[float, float], float]], mu: float, p: float) -> float:
    """Recursive failure probability; innermost layer listed last."""
    if not layers:
        raise ValueError("at least one layer required")
    _check_unit("p", p)
    _check_unit("mu", mu)
    result = _snap_unit(layers[-1](mu, p))
    for layer in reversed(layers[:-1]):
        result = _snap_unit(layer(0.0, result))
    return result


# ---------------------------------------------------------------------------
# Concatenated code curves and variants
# ---------------------------------------------------------------------------


def code_failure(code_id: str, variant: str = "literal") -> Callable[[float, float], float]:
    """(mu, p) -> failure probability of one of the code's curves."""
    curves = concat.record(code_id).curves
    if variant not in curves:
        raise ValueError(f"{code_id} has no variant {variant!r}; valid: {', '.join(curves)}")
    layers = [formula(name) for name in curves[variant]]
    return lambda mu, p: concat_pf(layers, mu, p)


def entanglement_fidelity(pf: float) -> float:
    _check_unit("pf", pf)
    return 1.0 - pf


# ---------------------------------------------------------------------------
# Cross-block correlation counterexample
# ---------------------------------------------------------------------------


def cross_block_correlation(p: float, mu: float) -> float:
    """P(block 1 error is collective | block 2 error is collective) for two
    adjacent two-qubit blocks on one four-qubit chain, by exhaustive
    enumeration of the 16 letter patterns."""
    model = NoiseModel(p, mu, Alphabet.BITFLIP)
    joint = 0.0
    marginal = 0.0
    for pattern in range(16):
        letters = [(pattern >> b) & 1 for b in range(4)]
        prob = chain_probability(model, letters)
        if letters[2] == letters[3]:
            marginal += prob
            if letters[0] == letters[1]:
                joint += prob
    return joint / marginal


def cross_block_closed_form(p: float, mu: float) -> float:
    """Closed-form counterpart of :func:`cross_block_correlation`; agreement
    to 1e-12 is a pinned check."""
    numerator = 1 - (1 - p) * p * (1 - mu) * (
        4 - 4 * p * (mu - 1) ** 2 + 4 * p**2 * (mu - 1) ** 2 + (mu - 1) * mu
    )
    denominator = ((1 - mu) * (1 - p) + mu) * (1 - p) + ((1 - mu) * p + mu) * p
    return numerator / denominator


# ---------------------------------------------------------------------------
# Pseudothreshold machinery
# ---------------------------------------------------------------------------

GRID_STEP = 1e-3  # the scan lattice: p = GRID_STEP, 2 GRID_STEP, ... < UPPER
BISECT_TOL = 1e-9  # bracket width at which bisection stops
UPPER = 0.5

NO_CROSSING = None  # sentinel meaning pf(p) - p keeps one sign on the grid


def pseudothreshold(pf_curve: Callable[[float], float]) -> Optional[float]:
    """Lowest root of pf(p) = p in (0, UPPER), or None when no crossing.

    pf(p) - p is scanned upward on the GRID_STEP lattice and the scan stops
    at the first grid point where it is zero, which is returned, or at the
    first sign change, whose bracket is bisected down to BISECT_TOL.  On
    every registered curve pf(p) < p below the root it returns.
    """
    gap = lambda p: pf_curve(p) - p
    lo, g_lo = GRID_STEP, gap(GRID_STEP)
    if g_lo == 0.0:
        return lo
    for i in range(2, round(UPPER / GRID_STEP)):
        hi = i * GRID_STEP
        g_hi = gap(hi)
        if g_hi == 0.0:
            return hi
        if (g_hi < 0.0) != (g_lo < 0.0):
            break
        lo, g_lo = hi, g_hi
    else:
        return NO_CROSSING
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def depth_ladder(code_pf: Callable[[float], float]) -> Callable[[int], Callable[[float], float]]:
    """depth -> code_pf composed depth times; fixed points are preserved.  The
    depths share each point's iterates, so depths 1 ... D cost D calls a point."""
    iterates: dict[float, list[float]] = {}

    def at_depth(depth: int) -> Callable[[float], float]:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")

        def composed(p: float) -> float:
            chain = iterates.setdefault(p, [p])
            while len(chain) <= depth:
                chain.append(code_pf(chain[-1]))
            return chain[depth]

        return composed

    return at_depth


def depth_recursion(code_pf: Callable[[float], float], depth: int) -> Callable[[float], float]:
    """code_pf composed depth times: one rung of :func:`depth_ladder`."""
    return depth_ladder(code_pf)(depth)


def failure_curve(
    code_id: str, mu: float, variant: str = "literal"
) -> Callable[[float], float]:
    """p -> failure probability at fixed correlation strength."""
    pf = code_failure(code_id, variant)
    return lambda p: pf(mu, p)
