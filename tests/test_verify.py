"""Guards on ``qdq.verify`` itself: a wrong fixture fails exactly the check
that reads it, a missing fixture is a failed check, and names are unique."""

import dataclasses
import hashlib
import json

import pytest

from qdq import _tables, cli, concat, verify


# sha256 of `qdq verify` stdout: one line per check, 65 of them passing, and
# the tally.  A check that disappears or is renamed changes it.
VERIFY_PIN = "694a2e60685947879e895ed58148fb7fb6f82bc42fc3b9d0ae10ebe207bc4c96"


def _threshold_checks(cid):
    return {
        f"analytic.threshold-{cid}-{concat.REGISTRY[cid].table_variant}",
        f"analytic.depth-invariance-{cid}",
    }


def _outer(cid):
    return concat.REGISTRY[cid].outer


def _expansions_built_on_outer(cid):
    base = _outer(cid)
    return {f"codewords.expansion-{c}" for c, record in concat.REGISTRY.items()
            if base in (record.outer, record.inner)}


def _own(cid):
    return cid


# field: (fixture table, cid -> fixture key, entry -> entry with that field
# wrong, cid -> failing checks).  CODEWORDS is keyed by base code, so the
# codewords case corrupts the outer base code of ``cid`` and fails every code
# built on that base.  A swap would go unseen where the outer code is
# symmetric under it (dq6, dq10); a superposed logical zero is wrong in every
# order.
WRONG = {
    "sets": ("SUMMARY", _own, lambda e: {**e, "sets": (e["sets"][0] + 1, e["sets"][1])},
             lambda cid: {f"concat.counts-{cid}"}),
    "phi": ("SUMMARY", _own, lambda e: {**e, "phi": "1/2"},
            lambda cid: {f"concat.efficiency-{cid}"}),
    "phi_prime": ("SUMMARY", _own, lambda e: {**e, "phi_prime": "1/3"},
                  lambda cid: {f"concat.efficiency-{cid}"}),
    "p_thres": ("SUMMARY", _own,
                lambda e: {**e, "p_thres": (e["p_thres"][0] + 0.01, e["p_thres"][1])},
                _threshold_checks),
    "generator_classes": ("GENERATOR_CLASSES", _own,
                          lambda e: {**e, "passive": e["passive"][:-1]},
                          lambda cid: {f"concat.generators-{cid}"}),
    "codewords": ("CODEWORDS", _outer, lambda e: (e[0] + e[1], e[1]),
                  _expansions_built_on_outer),
}

# The mc suite reads no fixture.
FIXTURE_READERS = [name for name in verify.SUITES if name != "mc"]


@pytest.mark.parametrize("field", WRONG)
@pytest.mark.parametrize("cid", concat.code_ids())
def test_a_wrong_fixture_fails_exactly_its_check(monkeypatch, cid, field):
    table, key, corrupt, expected = WRONG[field]
    fixtures = getattr(_tables, table)
    monkeypatch.setitem(fixtures, key(cid), corrupt(fixtures[key(cid)]))
    failed = {name for name, ok, _ in verify.run_suites(FIXTURE_READERS) if not ok}
    assert failed == expected(cid)


def test_a_base_code_without_codewords_fails_every_code_built_on_it(monkeypatch):
    monkeypatch.delitem(_tables.CODEWORDS, "repetition-3")
    failed = {name for name, ok, _ in verify.run_suites(["codewords"]) if not ok}
    assert failed == {"codewords.fixture-qd6", "codewords.fixture-dq6"}


def test_a_registered_id_without_fixtures_fails_its_fixture_checks(monkeypatch, capsys):
    monkeypatch.setitem(concat.REGISTRY, "qd6x", concat.REGISTRY["qd6"])
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["failed"] == [
        "concat.fixture-qd6x", "analytic.fixture-qd6x"
    ]


@pytest.mark.parametrize("cid", concat.code_ids())
def test_a_passive_set_of_detectable_errors_fails_its_check(monkeypatch, cid):
    # A nonzero-syndrome set is still pairwise degenerate and still one of
    # the sets; only its errors' kind tells it from the passive set.
    built = concat.concatenated

    def with_wrong_passive(code_id):
        cc = built(code_id)
        if code_id != cid:
            return cc
        syndrome = next(s for s in cc.equivalence if any(s))
        return dataclasses.replace(cc, passive=cc.equivalence[syndrome])

    monkeypatch.setattr(concat, "concatenated", with_wrong_passive)
    failed = {name for name, ok, _ in verify.run_suites(["concat"]) if not ok}
    assert failed == {f"concat.passive-single-set-{cid}"}


def test_each_suite_alone_gives_its_slice_of_the_full_report():
    # The per-suite path that the benchmark probes time.
    full = verify.run_suites()
    parts = {name: verify.run_suites([name]) for name in verify.SUITES}
    assert [check for part in parts.values() for check in part] == full
    for name, part in parts.items():
        assert part and all(check[0].startswith(f"{name}.") for check in part), name


def test_an_unknown_suite_names_the_valid_ones():
    with pytest.raises(ValueError, match="valid: " + ", ".join(verify.SUITES)):
        verify.run_suites(["bogus"])


def test_check_names_are_unique_and_all_pass():
    checks = verify.run_suites()
    names = [name for name, _, _ in checks]
    assert len(names) == len(set(names))
    assert [name for name, ok, _ in checks if not ok] == []


def test_verify_report_bytes_are_pinned(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n65/65 checks passed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PIN
