"""Workload inputs, generated from the workload seed.

The seed picks Monte Carlo seeds, solve order, sweep correlations and the
CLI arguments that have no pinned expected value; the grids themselves are
the repository's own (agreement grid, table1 codes, mu = linspace(0, 1, 21))
so every result has an exact or pinned value to be checked against.  Only
the generated inputs reach qdq.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc-10q", "mc-6q", "curves", "cli-session")

# Public builtin names behind each concatenation, as `qdq concat build` takes them.
CONCATENATIONS = {
    "qd6": ("repetition-3", "dfs-2", "qd"),
    "dq6": ("dfs-2", "repetition-3", "dq"),
    "qd10": ("knill-laflamme-5", "dfs-2", "qd"),
    "dq10": ("dfs-2", "knill-laflamme-5", "dq"),
}
CODES = tuple(CONCATENATIONS)
# Each code's MC noise alphabet: bit flips for six qubits, depolarizing for ten.
ALPHABETS = {"qd6": "bitflip", "dq6": "bitflip", "qd10": "depolarizing3", "dq10": "depolarizing3"}

# Every curve and variant the CLI exposes (qd10 and dq10 each have two).
CURVES = (
    ("qd6", "literal"),
    ("dq6", "literal"),
    ("qd10", "literal"),
    ("qd10", "table"),
    ("dq10", "literal"),
    ("dq10", "printed"),
)
# Bit-for-bit the values of np.linspace(0, 1, 21): i * (1/20).
CURVE_MUS = tuple(i * (1.0 / 20) for i in range(21))
CURVE_DEPTHS = (1, 2, 3, 4)
SWEEP_STEP = 0.001
SWEEP_POINTS = 501  # p = 0 .. 0.5, as `fidelity sweep --step 0.001`
SWEEPS_PER_CURVE = 4

MC_GRIDS = {
    # Ten-qubit codes: 4-letter alphabet, 2- and 5-qubit blocks, 4**10 tables.
    "mc-10q": {
        "codes": ("qd10", "dq10"),
        "alphabet": "depolarizing3",
        "ps": (0.01, 0.05, 0.1),
        "mus": (0.0, 0.5),
        "shots": 250_000,
    },
    # Six-qubit codes on the repository's agreement grid: 64-entry tables.
    "mc-6q": {
        "codes": ("qd6", "dq6"),
        "alphabet": "bitflip",
        "ps": (0.05, 0.1, 0.2),
        "mus": (0.0, 0.5, 0.75),
        "shots": 1_000_000,
    },
}
CANARY_SHOTS = 2_000_000
CLI_MC_SHOTS = 100_000


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def mc_points(workload: str, seed: int) -> list[dict]:
    grid = MC_GRIDS[workload]
    rng = _rng(workload, seed)
    return [
        {
            "code": code,
            "alphabet": grid["alphabet"],
            "p": p,
            "mu": mu,
            "shots": grid["shots"],
            "seed": _mc_seed(rng),
        }
        for code in grid["codes"]
        for p in grid["ps"]
        for mu in grid["mus"]
    ]


def curves_inputs(seed: int) -> dict:
    rng = _rng("curves", seed)
    solves = [
        {"code": code, "variant": variant, "mu": mu, "depth": depth}
        for code, variant in CURVES
        for mu in CURVE_MUS
        for depth in CURVE_DEPTHS
    ]
    rng.shuffle(solves)
    sweeps = [
        {"code": code, "variant": variant, "mu": round(rng.uniform(0.0, 1.0), 3)}
        for code, variant in CURVES
        for _ in range(SWEEPS_PER_CURVE)
    ]
    grid = MC_GRIDS["mc-6q"]
    canary = {
        "code": "qd6",
        "alphabet": "bitflip",
        "p": rng.choice(grid["ps"]),
        "mu": rng.choice(grid["mus"]),
        "shots": CANARY_SHOTS,
        "seed": _mc_seed(rng),
    }
    return {"solves": solves, "sweeps": sweeps, "canary": canary}


def cli_calls(seed: int) -> list[dict]:
    """The nine cold CLI calls of one session, in the order a user might
    type them."""
    rng = _rng("cli-session", seed)
    sweep_code = rng.choice(CODES)
    sweep_mu = round(rng.uniform(0.0, 1.0), 2)
    build_code = rng.choice(CODES)
    outer, inner, order = CONCATENATIONS[build_code]
    calls = [
        ("table1", ["table1"], {}),
        ("threshold_dq10", ["threshold", "--code", "dq10", "--depth", "4"],
         {"code": "dq10", "variant": "literal", "mu": 0.0, "depth": 4}),
        ("threshold_qd6", ["threshold", "--code", "qd6", "--depth", "4"],
         {"code": "qd6", "variant": "literal", "mu": 0.0, "depth": 4}),
        # Exits 1 today: a layer returns -eps at depth 4 (ROADMAP item 4).
        ("threshold_qd10_table",
         ["threshold", "--code", "qd10", "--variant", "table", "--mu", "0.4", "--depth", "4"],
         {"code": "qd10", "variant": "table", "mu": 0.4, "depth": 4}),
        ("fidelity_sweep",
         ["fidelity", "sweep", "--code", sweep_code, "--mu", str(sweep_mu),
          "--pmin", "0", "--pmax", "0.5", "--step", str(SWEEP_STEP)],
         {"code": sweep_code, "mu": sweep_mu}),
        ("concat_build",
         ["concat", "build", "--outer", outer, "--inner", inner, "--order", order],
         {"code": build_code}),
        ("verify", ["verify"], {}),
    ]
    for code, p, mu in (("dq10", 0.05, 0.5), ("qd6", 0.1, 0.5)):
        mc_seed = _mc_seed(rng)
        calls.append(
            (f"mc_run_{code}",
             ["mc", "run", "--code", code, "--p", str(p), "--mu", str(mu),
              "--shots", str(CLI_MC_SHOTS), "--seed", str(mc_seed)],
             {"code": code, "p": p, "mu": mu, "shots": CLI_MC_SHOTS,
              "alphabet": ALPHABETS[code]})
        )
    return [{"name": n, "argv": argv, "expect": expect} for n, argv, expect in calls]


CLI_CALL_NAMES = tuple(call["name"] for call in cli_calls(0))
VERIFY_SUITES = ("pauli", "stabilizer", "dfs", "concat", "codewords", "kl", "analytic", "mc")
