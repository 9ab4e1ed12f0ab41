"""A concatenation is defined by its registry record and nothing else."""

import pytest

from qdq import _tables, analytic, cli, concat, mc
from qdq.analytic import NoiseModel


@pytest.fixture
def qd6_copy(monkeypatch):
    monkeypatch.setitem(concat.REGISTRY, "qd6x", concat.REGISTRY["qd6"])
    return "qd6x"


def test_record_alone_defines_the_curves(qd6_copy):
    for variant in analytic.VARIANTS:
        copy = analytic.code_failure(qd6_copy, variant)
        original = analytic.code_failure("qd6", variant)
        for mu, p in ((0.0, 0.1), (0.5, 0.2), (1.0, 0.3)):
            assert copy(mu, p) == original(mu, p)


def test_record_alone_defines_monte_carlo(qd6_copy):
    assert mc.default_alphabet(qd6_copy) is mc.default_alphabet("qd6")
    model = NoiseModel(0.1, 0.5, mc.default_alphabet("qd6"))
    copy = mc.estimate_pf(mc.SampleConfig(model, qd6_copy, 20_000, 9))
    original = mc.estimate_pf(mc.SampleConfig(model, "qd6", 20_000, 9))
    assert copy.failures == original.failures


def test_record_alone_is_a_cli_code(qd6_copy, capsys):
    assert cli.main(["threshold", "--code", qd6_copy]) == 0
    got = capsys.readouterr().out
    assert cli.main(["threshold", "--code", "qd6"]) == 0
    want = capsys.readouterr().out
    assert got.replace(qd6_copy, "qd6") == want


def test_record_and_its_fixtures_alone_pass_verify(qd6_copy, monkeypatch, capsys):
    for table in (_tables.SUMMARY, _tables.GENERATOR_CLASSES):
        monkeypatch.setitem(table, qd6_copy, table["qd6"])
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    for check in ("expansion", "generator-eigenvalues"):
        assert f"[PASS] codewords.{check}-{qd6_copy}" in out.splitlines()


def test_every_record_names_known_formulas_and_variants():
    for cid in concat.code_ids():
        record = concat.REGISTRY[cid]
        assert set(record.variant_layers) <= set(analytic.VARIANTS), cid
        assert record.table_variant in analytic.VARIANTS, cid
        for layers in (record.layers, *record.variant_layers.values()):
            assert layers and all(analytic.formula(name) for name in layers), cid


def test_unknown_id_is_rejected_everywhere():
    for call in (
        lambda: analytic.code_failure("qd7"),
        lambda: mc.default_alphabet("qd7"),
        lambda: mc.SampleConfig(NoiseModel(0.1, 0.0), "qd7", 10, 0),
    ):
        with pytest.raises(ValueError, match="qd6"):
            call()
