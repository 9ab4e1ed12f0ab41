"""Argv grammar fuzzer: every drawn command line keeps the CLI's exit contract.

Each example is one in-process ``cli.main`` call on a drawn argv: a known or
unknown command, each flag absent, given a valid value or given an odd one
(0, 1, nan, inf, -0, 1e308, huge integers, empty strings, unknown names),
in any order, with an ``--out`` that is absent, a file under ``tmp_path``, a
directory, a path in a missing directory or the empty string.  Flags that
size the work stay small, apart from the over-cap ``--depth 101`` and
``--shots 1000000001``, which must exit before any work.
"""

import contextlib
import io
import json
import re
import time

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qdq import cli, concat, stabilizer, verify
from qdq.analytic import Alphabet

WALL_S = 5.0

ODD = ["0", "1", "-0", "nan", "inf", "1e308", "-1", "", "bogus", "1" + "0" * 30, "9" * 5000]
UNIT = ["0", "0.05", "0.3", "1"]
CODES = [*concat.code_ids(), "qd7"]
BASE = [*stabilizer.builtin_names(), "nope"]
VARIANTS = [*sorted({v for rec in concat.REGISTRY.values() for v in rec.curves}), "bogus"]
SHOTS = ["1", "10", "100", str(cli.MAX_SHOTS + 1)]
# The 15-qubit pairs take about 0.5 s to build; knill-laflamme-5 twice is
# over the correctable-error cap and exits at once.
PAIRS = [(o, i) for o in stabilizer.builtin_names() for i in stabilizer.builtin_names()
         if {o, i} != {"knill-laflamme-5", "repetition-3"}]

# Command words -> flag -> valid values.
GRAMMAR = {
    ("codes", "list"): {},
    ("codes", "describe"): {},
    ("concat", "build"): {"--order": ["qd", "dq"]},
    ("dfs", "build"): {
        "--elements": ["II,XX", "XX", "ZZ,XX", "XX,ZZ,YY", "XY,YX", "XX,XYZ", "IQ", ",",
                       "I" * 13 + "," + "X" * 13],
        "--character": ["0", "1", "3"],
    },
    ("fidelity", "sweep"): {
        "--code": CODES, "--mu": UNIT, "--pmin": UNIT, "--pmax": UNIT,
        "--step": ["0.05", "0.25", "1e-9"], "--variant": VARIANTS,
    },
    ("threshold",): {
        "--code": CODES, "--mu": UNIT, "--variant": VARIANTS,
        "--depth": ["1", "2", "3", str(cli.MAX_DEPTH + 1)],
    },
    ("mc", "run"): {
        "--code": CODES, "--p": UNIT, "--mu": UNIT, "--shots": SHOTS,
        "--seed": ["0", "7", "1" + "0" * 30], "--alphabet": [a.value for a in Alphabet],
    },
    ("verify",): {"--suite": [*verify.SUITES, "bogus"], "--code": CODES, "--shots": SHOTS},
    ("table1",): {},
}
BROKEN = [[], ["bogus"], ["mc"], ["codes", "describe"], ["fidelity", "sweep", "--help-me"]]


@st.composite
def flag_value(draw, valid):
    """Absent one time in 16, odd one time in 16, valid otherwise."""
    roll = draw(st.integers(0, 15))
    if roll == 0:
        return None
    return draw(st.sampled_from(ODD if roll == 1 else valid))


@st.composite
def command_lines(draw):
    """(argv without --out, the kind of --out to add)."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(BROKEN)), None
    words = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = dict(GRAMMAR[words])
    argv = list(words)
    options = []
    if words == ("codes", "describe"):
        argv.append(draw(st.sampled_from([*BASE, ""])))
    if words == ("concat", "build"):
        outer, inner = draw(st.sampled_from(PAIRS))
        flags.update({"--outer": [outer], "--inner": [inner]})
    for name, valid in flags.items():
        value = draw(flag_value(valid))
        if value is not None:
            options.append([name, value])
    if draw(st.integers(0, 9)) == 0:
        # An unknown flag, a --flag=value form, or a flag missing its value.
        options.append([draw(st.sampled_from(["--bogus", "--code=qd6", "--depth"]))])
    for option in draw(st.permutations(options)):
        argv += option
    out = draw(st.sampled_from([None] * 8 + ["file", "directory", "missing", "empty"]))
    return argv, out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _check_output(argv, text):
    if argv[0] == "verify":
        last = text.splitlines()[-1]
        assert re.fullmatch(r"(\d+)/\1 checks passed", last), last
    elif argv[0] == "fidelity":
        assert text.startswith("p,mu,pf,fe\n"), text[:80]
    else:
        json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=command_lines())
def test_every_command_line_keeps_the_exit_contract(tmp_path, line):
    argv, out = line
    target = tmp_path / "out.txt"
    target.unlink(missing_ok=True)
    where = {"file": str(target), "directory": str(tmp_path),
             "missing": str(tmp_path / "absent" / "x.json"), "empty": ""}
    if out is not None:
        argv = argv + ["--out", where[out]]

    code, stdout, stderr, elapsed = _run(argv)
    event(f"{' '.join(argv[:1])} exit {code}")

    assert code in (0, 1, 2), (argv, code)
    assert elapsed < WALL_S, (argv, elapsed)
    if code == 0:
        assert stderr == "", (argv, stderr)
        if out == "file":
            assert stdout == ""
            stdout = target.read_text()
        _check_output(argv, stdout)
        return
    lines = stderr.splitlines()
    assert len(lines) == 1 and stderr.endswith("\n"), (argv, stderr)
    record = json.loads(lines[0], parse_constant=_reject_constant)
    assert isinstance(record, dict), (argv, record)
    if argv[:1] == ["verify"] and code == 1:
        # A failing verify prints its report, then exits 1.
        assert list(record) == ["failed"] and record["failed"], (argv, record)
        if out != "file":
            assert stdout.splitlines()[-1].endswith("checks passed"), (argv, stdout)
    else:
        assert stdout == "", (argv, stdout)
