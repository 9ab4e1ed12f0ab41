import json
import time

import pytest

from qdq import analytic, cli, concat, mc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_codes_list_and_describe(capsys):
    names = run_json(capsys, "codes", "list")
    assert names == ["dfs-2", "knill-laflamme-5", "repetition-3"]
    desc = run_json(capsys, "codes", "describe", "dfs-2")
    assert desc["n"] == 2 and desc["k"] == 1
    assert desc["generators"] == ["XX"] and desc["passive"] == [True]
    assert desc["logical_x"] == ["XI"] and desc["logical_z"] == ["ZZ"]


def test_codes_describe_unknown_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["codes", "describe", "nope"])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert "error" in json.loads(captured.err)


def test_concat_build_qd6(capsys):
    payload = run_json(
        capsys, "concat", "build", "--outer", "repetition-3",
        "--inner", "dfs-2", "--order", "qd",
    )
    assert payload["n"] == 6 and payload["k"] == 1
    assert len(payload["generator_classes"]) == 5
    assert sum(c["passive"] for c in payload["generator_classes"]) == 3
    assert len(payload["equivalence_class"]) == 4
    assert payload["phi"] == {"value": 1.0, "exact": "1"}
    assert payload["phi_prime"] == {"value": 0.4, "exact": "2/5"}


@pytest.mark.parametrize("order", ["qd", "dq"])
def test_concat_build_over_cap_exits_two_fast(capsys, order):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        cli.main(["concat", "build", "--outer", "knill-laflamme-5",
                  "--inner", "knill-laflamme-5", "--order", order])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "16777216" in json.loads(captured.err)["error"]


def test_dfs_build_default_group(capsys):
    payload = run_json(capsys, "dfs", "build")
    assert payload["elements"] == ["II", "XX"]
    assert len(payload["characters"]) == 2
    signs = [c["signs"] for c in payload["characters"]]
    assert signs == [[1, 1], [1, -1]]
    basis = payload["characters"][0]["basis"]
    assert len(basis) == 2 and len(basis[0]) == 4


def test_fidelity_sweep_contract(capsys):
    code, out = run(
        capsys, "fidelity", "sweep", "--code", "dq6", "--mu", "0",
        "--pmin", "0", "--pmax", "0.5", "--step", "0.01",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,mu,pf,fe"
    assert len(lines) == 52  # header + 51 grid points
    row = dict(zip(("p", "mu", "pf", "fe"), lines[11].split(",")))
    assert row["p"] == "0.1" and row["fe"] == "0.945568"


@pytest.mark.parametrize(
    "pmin, pmax, step, grid",
    [("0", "0.1", "0.06", ["0", "0.06"]), ("0.9", "1.0", "0.15", ["0.9"])],
)
def test_fidelity_sweep_stops_at_the_last_point_below_pmax(capsys, pmin, pmax, step, grid):
    code, out = run(
        capsys, "fidelity", "sweep", "--code", "dq6", "--mu", "0",
        "--pmin", pmin, "--pmax", pmax, "--step", step,
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == grid


def test_fidelity_sweep_cap_counts_the_rows_it_prints(capsys, monkeypatch):
    # (0.9 - 0) / step is 99.00000000000001: 100 grid points, exactly the cap.
    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 100)
    code, out = run(
        capsys, *SWEEP, "--pmin", "0", "--pmax", "0.9", "--step", "0.00909090909090909",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 100


def test_fidelity_sweep_deterministic_bytes(capsys):
    args = ("fidelity", "sweep", "--code", "qd10", "--mu", "0.75",
            "--pmin", "0", "--pmax", "0.2", "--step", "0.005")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_threshold_depth_four(capsys):
    payload = run_json(capsys, "threshold", "--code", "dq6", "--depth", "4")
    values = [payload["per_depth"][str(d)] for d in (1, 2, 3, 4)]
    for v in values:
        assert abs(v - 0.2252) < 1e-3
    assert max(values) - min(values) < 1e-6
    assert payload["p_thres"] == values[-1]


def test_threshold_depth_four_qd10_table_has_a_root(capsys):
    # The depth-4 recursion passes inner p ~ 3e-9 to the five-qubit layer,
    # whose 1 - sum(success terms) rounds to -1.1e-16 there.
    payload = run_json(
        capsys, "threshold", "--code", "qd10", "--variant", "table",
        "--mu", "0.4", "--depth", "4",
    )
    assert payload["p_thres"] == pytest.approx(0.113183, abs=1e-6)
    assert payload["per_depth"]["4"] == payload["p_thres"]


def test_threshold_depth_two_qd10_table_keeps_the_depth_one_root(capsys):
    # f(p) > 0.5 above p ~ 0.1, so f(f(p)) crosses the identity again near
    # 0.483; the lowest crossing is the depth-1 root.
    payload = run_json(
        capsys, "threshold", "--code", "qd10", "--variant", "table", "--depth", "2"
    )
    assert payload["per_depth"] == {"1": 0.029879956722259522, "2": 0.029879956722259522}


def test_threshold_printed_dq10_reports_no_crossing(capsys):
    payload = run_json(
        capsys, "threshold", "--code", "dq10", "--variant", "printed"
    )
    assert payload["p_thres"] == "no-crossing"


@pytest.mark.parametrize("code_id", concat.code_ids())
def test_threshold_per_depth_equals_each_depth_solved_alone(capsys, code_id):
    # The ladder's shared iterates are the float steps of a plain composition.
    for variant in concat.REGISTRY[code_id].curves:
        for mu in (0.0, 0.4, 0.75):
            payload = run_json(capsys, "threshold", "--code", code_id, "--variant", variant,
                               "--mu", str(mu), "--depth", "6")
            base = analytic.failure_curve(code_id, mu, variant)
            for depth in range(1, 7):

                def composed(p, depth=depth):
                    for _ in range(depth):
                        p = base(p)
                    return p

                thr = analytic.pseudothreshold(composed)
                want = "no-crossing" if thr is None else thr
                assert payload["per_depth"][str(depth)] == want, (variant, mu, depth)


def test_threshold_ladder_evaluations_grow_with_depth_not_its_square(capsys, monkeypatch):
    calls = 0
    failure_curve = analytic.failure_curve

    def counting(*args):
        curve = failure_curve(*args)

        def counted(p):
            nonlocal calls
            calls += 1
            return curve(p)

        return counted

    monkeypatch.setattr(cli.analytic, "failure_curve", counting)
    payload = run_json(capsys, "threshold", "--code", "dq6", "--depth", "100")
    assert len(payload["per_depth"]) == 100
    # Solving each depth on its own composed curve made 1,242,300 calls.
    assert 0 < calls <= 30_000, calls


def test_table1_contract(capsys):
    payload = run_json(capsys, "table1")
    assert payload["codes"] == ["qd6", "dq6", "qd10", "dq10"]
    assert payload["e_type"] == ["X,XX", "X,XX", "X,Y,Z,XX", "X,Y,Z,XX"]
    assert [e["value"] for e in payload["phi"]] == [1.0, 1.0, 1.0, 1.0]
    assert [e["exact"] for e in payload["phi_prime"]] == ["2/5", "4/5", "4/9", "8/9"]
    want = (0.1293, 0.2252, 0.0298, 0.0579)
    tol = (5e-4, 5e-4, 1e-3, 1e-3)
    for entry, w, t in zip(payload["p_thres"], want, tol):
        assert abs(entry["value"] - w) <= t


def test_mc_run_smoke(capsys):
    payload = run_json(
        capsys, "mc", "run", "--code", "qd6", "--p", "0.1", "--mu", "0",
        "--shots", "20000", "--seed", "5",
    )
    for key in ("pf_hat", "stderr", "shots", "seed", "analytic", "z"):
        assert key in payload
    assert payload["shots"] == 20000 and payload["seed"] == 5
    assert payload["alphabet"] == "bitflip"
    assert payload["z"] <= 6.0


def test_mc_run_estimate_is_pinned(capsys):
    payload = run_json(
        capsys, "mc", "run", "--code", "dq10", "--p", "0.05", "--mu", "0.5",
        "--shots", "100000", "--seed", "7",
    )
    assert payload["pf_hat"] == 0.12214


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_mc_run_emits_strict_json_when_z_is_infinite(capsys):
    # One shot: stderr is 0 and pf_hat differs from the analytic value.
    code, out = run(
        capsys, "mc", "run", "--code", "qd10", "--p", "0.3", "--mu", "0",
        "--shots", "1", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["stderr"] == 0.0 and payload["pf_hat"] != payload["analytic"]
    assert payload["z"] is None


def test_mc_run_off_the_record_alphabet_has_no_analytic_value(capsys):
    payload = run_json(
        capsys, "mc", "run", "--code", "qd6", "--p", "0.1", "--mu", "0.5",
        "--alphabet", "depolarizing3", "--shots", "2000", "--seed", "7",
    )
    assert payload["alphabet"] == "depolarizing3" and payload["pf_hat"] > 0.0
    assert payload["analytic"] is None and payload["z"] is None


def test_non_finite_json_value_is_an_exit_one_error(capsys, monkeypatch):
    monkeypatch.setattr(mc, "analytic_reference", lambda code_id, model: float("nan"))
    code = cli.main(["mc", "run", "--code", "qd6", "--p", "0.1", "--mu", "0",
                     "--shots", "100", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error" in json.loads(captured.err, parse_constant=_reject_constant)


@pytest.mark.parametrize("flag, value", [("--suite", "mc"), ("--code", "qd6"), ("--shots", "500")])
def test_verify_takes_no_suite_code_or_shots(capsys, flag, value):
    # verify runs every check at its pinned parameters; nothing can shrink it.
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", flag, value])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert flag in json.loads(captured.err)["error"]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["fidelity", "sweep", "--code", "bogus", "--mu", "0",
                  "--pmin", "0", "--pmax", "0.1", "--step", "0.01"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["unknown-command"])
    assert err.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out = run(
        capsys, "fidelity", "sweep", "--code", "dq6", "--mu", "0",
        "--pmin", "0", "--pmax", "0.05", "--step", "0.01", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("p,mu,pf,fe\n")


SWEEP = ("fidelity", "sweep", "--code", "dq6", "--mu", "0")
MC_RUN = ("mc", "run", "--code", "qd6", "--mu", "0")
CONCAT_BUILD = ("concat", "build", "--order", "qd")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (SWEEP + ("--pmin", "0", "--pmax", "0.5", "--step", "0"), "--step"),
        (SWEEP + ("--pmin", "0", "--pmax", "0.5", "--step", "-0.1"), "--step"),
        (SWEEP + ("--pmin", "0", "--pmax", "0.5", "--step", "inf"), "--step"),
        (SWEEP + ("--pmin", "0", "--pmax", "0.5", "--step", "nan"), "--step"),
        (SWEEP + ("--pmin", "0.3", "--pmax", "0.1", "--step", "0.1"), "--pmin"),
        (("threshold", "--code", "dq6", "--depth", "0"), "--depth"),
        (MC_RUN + ("--p", "1.5"), "--p"),
        (MC_RUN + ("--p", "0.1", "--shots", "many"), "--shots"),
        (CONCAT_BUILD + ("--outer", "nope", "--inner", "dfs-2"), "--outer"),
        (CONCAT_BUILD + ("--outer", "dfs-2", "--inner", "nope"), "--inner"),
        (("dfs", "build", "--character", "7"), "--character"),
        (("dfs", "build", "--elements", "QQ"), "--elements"),
        (("dfs", "build", "--elements", "XX,ZZ,XY"), "--elements"),
        (("dfs", "build", "--elements", "I" * 13 + "," + "X" * 13), "--elements"),
        # Checked before any curve is evaluated, so no large sweep starts.
        (SWEEP + ("--pmin", "0", "--pmax", "0.5", "--step", "1e-9"), "--step"),
        # A subnormal step makes the row count infinite.
        (SWEEP + ("--pmin", "0", "--pmax", "1", "--step", "5e-324"), "--step"),
        (("threshold", "--code", "qd6", "--variant", "printed"), "--variant"),
        (SWEEP + ("--pmin", "0", "--pmax", "0.1", "--step", "0.01", "--variant", "table"),
         "--variant"),
        (("dfs", "build", "--elements", "I" * 11 + "," + "X" * 11), "--elements"),
        (CONCAT_BUILD + ("--outer", "knill-laflamme-5", "--inner", "knill-laflamme-5"), "--outer"),
    ],
    ids=["step-zero", "step-negative", "step-inf", "step-nan", "pmin-above-pmax", "depth-zero",
         "p-above-one", "shots-not-integer",
         "concat-unknown-outer", "concat-unknown-inner", "dfs-character-out-of-range",
         "dfs-elements-bad-letter", "dfs-elements-no-identity",
         "dfs-elements-over-qubit-cap", "sweep-rows-over-cap", "sweep-rows-infinite",
         "threshold-variant-missing",
         "sweep-variant-missing", "dfs-pairs-over-cap", "concat-over-cap"],
)
def test_bad_flag_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    record = json.loads(captured.err)
    assert flag in record["error"]
    # Parse-time and handler-raised errors alike show the subcommand's usage.
    subcommand = " ".join(arg for arg in argv[:2] if not arg.startswith("-"))
    assert record["usage"].startswith(f"usage: qdq {subcommand} ")


OUT_COMMANDS = [
    ("codes", "list"),
    ("codes", "describe", "dfs-2"),
    CONCAT_BUILD + ("--outer", "repetition-3", "--inner", "dfs-2"),
    ("dfs", "build"),
    SWEEP + ("--pmin", "0", "--pmax", "0.1", "--step", "0.01"),
    ("threshold", "--code", "dq6"),
    MC_RUN + ("--p", "0.1", "--shots", "10"),
    ("verify",),
    ("table1",),
]


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv, where):
    target = {"missing-directory": tmp_path / "absent" / "x.json", "directory": tmp_path,
              "empty": ""}[where]
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv) + ["--out", str(target)])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "--out" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("threshold", "--code", "dq6", "--depth", str(cli.MAX_DEPTH + 1)), "--depth"),
        (MC_RUN + ("--p", "0.1", "--shots", str(cli.MAX_SHOTS + 1)), "--shots"),
        (MC_RUN + ("--p", "0.1", "--shots", "100000000000000"), "--shots"),
    ],
    ids=["depth", "mc-shots", "mc-shots-huge"],
)
def test_work_over_cap_is_a_usage_error_before_any_work(capsys, argv, flag):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert flag in json.loads(captured.err)["error"]


def test_work_caps_admit_their_own_value():
    parser = cli.build_parser()
    depth = parser.parse_args(["threshold", "--code", "dq6", "--depth", str(cli.MAX_DEPTH)])
    assert depth.depth == cli.MAX_DEPTH
    args = parser.parse_args(list(MC_RUN) + ["--p", "0.1", "--shots", str(cli.MAX_SHOTS)])
    assert args.shots == cli.MAX_SHOTS


def test_out_that_fails_at_write_time_is_an_exit_one_json_error(tmp_path, capsys):
    # The link passes the parse-time check; opening it finds no directory.
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "absent" / "x.json")
    code = cli.main(["codes", "list", "--out", str(link)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error" in json.loads(captured.err)
