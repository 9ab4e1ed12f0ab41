"""Hand-entered reference tables the construction code must reproduce.

These are fixtures, not inputs: the builders derive everything from the
base codes, and the :mod:`qdq.verify` suites compare against the expansions
below (set equality, ordering-free).  Per-code entries are keyed by code id,
except ``CODEWORDS``, which is keyed by base-code name; a registered id with
no entry (or whose outer or inner code has none) fails its suite's
``fixture-<id>`` check.  The threshold tolerances are pinned in ``SUMMARY``,
not in the test files.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Expected generator structure, per concatenated code: blockwise classes are
# single-representative; lifted classes list every degenerate representative.
# --------------------------------------------------------------------------

GENERATOR_CLASSES = {
    "qd6": {
        "passive": [["XXIIII"], ["IIXXII"], ["IIIIXX"]],
        "active": [
            ["ZZZZII", "-YYZZII", "-ZZYYII", "YYYYII"],
            ["ZZIIZZ", "-YYIIZZ", "-ZZIIYY", "YYIIYY"],
        ],
    },
    "dq6": {
        "passive": [["XXXXXX"]],
        "active": [["ZZIIII"], ["ZIZIII"], ["IIIZZI"], ["IIIZIZ"]],
    },
    "qd10": {
        "passive": [
            ["XXIIIIIIII"],
            ["IIXXIIIIII"],
            ["IIIIXXIIII"],
            ["IIIIIIXXII"],
            ["IIIIIIIIXX"],
        ],
        # Canonical representative only; each class has 16 degenerate
        # representatives (two realizations per non-identity letter).
        "active": [
            ["XIZZZZXIII"],
            ["IIXIZZZZXI"],
            ["XIIIXIZZZZ"],
            ["ZZXIIIXIZZ"],
        ],
        "active_multiplicity": 16,
    },
    "dq10": {
        "passive": [["XXXXXXXXXX"]],
        "active": [
            ["XZZXIIIIII"],
            ["IXZZXIIIII"],
            ["XIXZZIIIII"],
            ["ZXIXZIIIII"],
            ["IIIIIXZZXI"],
            ["IIIIIIXZZX"],
            ["IIIIIXIXZZ"],
            ["IIIIIZXIXZ"],
        ],
    },
}

# --------------------------------------------------------------------------
# Full error degeneracy equivalence classes for the six-qubit codes.
# --------------------------------------------------------------------------

EQUIV_SETS_QD6 = [
    [
        "IIIIII", "IIIIXX", "IIXXII", "IIXXXX",
        "XXXXXX", "XXIIII", "XXIIXX", "XXXXII",
    ],
    [
        "XIIIII", "XIIIXX", "XIXXII", "XIXXXX",
        "IXIIII", "IXIIXX", "IXXXII", "IXXXXX",
    ],
    [
        "IIXIII", "IIXIXX", "IIIXII", "IIIXXX",
        "XXXIII", "XXXIXX", "XXIXII", "XXIXXX",
    ],
    [
        "IIIIXI", "IIIIIX", "IIXXXI", "IIXXIX",
        "XXIIXI", "XXIIIX", "XXXXXI", "XXXXIX",
    ],
]

EQUIV_SETS_DQ6 = [
    ["XIIXII", "IXXIXX"],
    ["XIIIXI", "IXXXIX"],
    ["XIIIIX", "IXXXXI"],
    ["XIIIII", "IXXXXX"],
    ["IIXXII", "XXIIXX"],
    ["IIXIXI", "XXIXIX"],
    ["IIXIIX", "XXIXXI"],
    ["IIXIII", "XXIXXX"],
    ["IXIXII", "XIXIXX"],
    ["IXIIXI", "XIXXIX"],
    ["IXIIIX", "XIXXXI"],
    ["IXIIII", "XIXXXX"],
    ["IIIXII", "XXXIXX"],
    ["IIIIXI", "XXXXIX"],
    ["IIIIIX", "XXXXXI"],
    ["IIIIII", "XXXXXX"],
]

# --------------------------------------------------------------------------
# Five-qubit codeword expansions (coefficients of 1/4).  The logical one is
# the all-X image of the logical zero, so its sign pattern must mirror the
# zero's: the eigenvalue equation of the generator XZZXI pairs |11010> with
# |01000> through a -1 matrix element, forcing c(11010) = -c(01000) = +1.
# FIVE_QUBIT_ONE_SIGN_ERRATUM records the one sign variant that breaks
# this constraint; the regression tests keep it from creeping back in.
# --------------------------------------------------------------------------

FIVE_QUBIT_ZERO_TERMS = [
    ("00000", 1), ("10010", 1), ("01001", 1), ("10100", 1),
    ("01010", 1), ("11011", -1), ("00110", -1), ("11000", -1),
    ("11101", -1), ("00011", -1), ("11110", -1), ("01111", -1),
    ("10001", -1), ("01100", -1), ("10111", -1), ("00101", 1),
]

FIVE_QUBIT_ONE_TERMS = [
    ("11111", 1), ("01101", 1), ("10110", 1), ("01011", 1),
    ("10101", 1), ("00100", -1), ("11001", -1), ("00111", -1),
    ("00010", -1), ("11100", -1), ("00001", -1), ("10000", -1),
    ("01110", -1), ("10011", -1), ("01000", -1), ("11010", 1),
]

FIVE_QUBIT_ONE_SIGN_ERRATUM = ("11010", -1)

# --------------------------------------------------------------------------
# Logical |0>, |1> of each base code as (bitstring, coefficient) terms, keyed
# by base-code name.  A concatenation's expected codewords are composed from
# its record's outer and inner entries: bit b of an outer term becomes the
# inner code's |b>.  DFS2_MINUS_TERMS spans the other character of the
# collective group {II, XX}.
# --------------------------------------------------------------------------

REP3_TERMS = ([("000", 1)], [("111", 1)])
DFS2_TERMS = ([("00", 1), ("11", 1)], [("01", 1), ("10", 1)])
DFS2_MINUS_TERMS = ([("00", 1), ("11", -1)], [("01", 1), ("10", -1)])
FIVE_QUBIT_TERMS = (FIVE_QUBIT_ZERO_TERMS, FIVE_QUBIT_ONE_TERMS)

CODEWORDS = {
    "repetition-3": REP3_TERMS,
    "dfs-2": DFS2_TERMS,
    "knill-laflamme-5": FIVE_QUBIT_TERMS,
}

# --------------------------------------------------------------------------
# Summary of each concatenated code: equivalence-set count and set size,
# Hamming efficiencies phi and phi', the tabulated pseudothreshold of its
# table1 variant with the tolerance it is checked to, and, for the six-qubit
# codes, the full equivalence sets.
# --------------------------------------------------------------------------

SUMMARY = {
    "qd6": {"sets": (4, 8), "phi": "1", "phi_prime": "2/5", "p_thres": (0.1293, 5e-4),
            "equivalence": EQUIV_SETS_QD6},
    "dq6": {"sets": (16, 2), "phi": "1", "phi_prime": "4/5", "p_thres": (0.2252, 5e-4),
            "equivalence": EQUIV_SETS_DQ6},
    "qd10": {"sets": (16, 32), "phi": "1", "phi_prime": "4/9", "p_thres": (0.0298, 1e-3)},
    "dq10": {"sets": (256, 2), "phi": "1", "phi_prime": "8/9", "p_thres": (0.0579, 1e-3)},
}
