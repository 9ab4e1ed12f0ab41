"""Each code's own curves: pinned CLI bytes, the alias pairs that exit 2,
and the closed-form commands that run without numpy.

The pins are sha256 digests of stdout; every valid output keeps its bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import qdq
from qdq import analytic, cli, concat

THRESHOLD_PINS = {
    ("qd6", "literal", 0.0, 1): "fa9127cb0cf78bb87773e857bf6f438c9d07ff8f728d3b849f6e0aaf8b001934",
    ("qd6", "literal", 0.0, 4): "152f314d23921eb434f46ccb313543281d8265dbed820b20d02a0da75a55029f",
    ("qd6", "literal", 0.0, 100): "9cf60833d68eb165b397b076d234f1443a2cbafff99cc69be92e269acfaa679e",
    ("qd6", "literal", 0.4, 1): "f2c7c30f7b1ba89f311e9e3bc0fde27073f3f94737e85a0da62ada391abb9e6b",
    ("qd6", "literal", 0.4, 4): "e8f5b02fea8aa050dbe6e6818a16f84b7ecec03eda2476827129c152fdb3ac57",
    ("qd6", "literal", 0.4, 100): "2c751edb906842cb9eaaead7bbdc45a410e18b36968b036cf90b6dd32512dc48",
    ("qd6", "literal", 0.75, 1): "0b2f7cb1b0715207b4bf3f2eebd45393ad022a78fde8d6b4204d2091df78b3b5",
    ("qd6", "literal", 0.75, 4): "a498b10d0129371d6a37090265f827ff1c55bd6f390c48dfb959855db5eec6a5",
    ("qd6", "literal", 0.75, 100): "1b106cf539c96854c079e0e9c4d94c9601fbf39fa81e8bdae91e07253d816c42",
    ("dq6", "literal", 0.0, 1): "e27e9918206a1b9440f518dc43c1fec606e86587f26b48854c55738c99e04e5b",
    ("dq6", "literal", 0.0, 4): "ecf3985df7dab453ee73bddcdfbd1333e906356f6c91ba0cf325d8cc98a5914e",
    ("dq6", "literal", 0.0, 100): "a60ce4ae4d78b87f73686213758e7e8e16a53e531bc362cb3f1ecadb3e749b00",
    ("dq6", "literal", 0.4, 1): "160e05064e4ffb234a479f8f91c440cf662effc8039361b9e81817ff50784365",
    ("dq6", "literal", 0.4, 4): "831070209e12e7c779d8e48d8a5e29abce82d0acf37e119ae83338fc2f6dd95b",
    ("dq6", "literal", 0.4, 100): "7dc6a4a4451fc03f32f582e79147f88a3a88158302077b336f07109c1380877b",
    ("dq6", "literal", 0.75, 1): "89401d1c872cfab1b42e3ab4204d224b3de917405dc0abfafee7e995ca7a3f6a",
    ("dq6", "literal", 0.75, 4): "350b2dbbd5a5b3e99df03d809c5b734f5cdf16c874b296968167479404af91c6",
    ("dq6", "literal", 0.75, 100): "a49e15609c6bc6a7725e567113e59c882883fde39813e3f7f7c0c7e017dc792b",
    ("qd10", "literal", 0.0, 1): "2652a8d42be71fc0d58c6ebccac4f38ac3e2b2c0a6e44c3dd2f0666c4cb2c98b",
    ("qd10", "literal", 0.0, 4): "0266a7b28ecb0e60486741e885b0c75154fd2767364b1a17a9516f398db09559",
    ("qd10", "literal", 0.0, 100): "1c9ba6298b6107cd6621fa41ff30733c647915add737f66810715a64a807797f",
    ("qd10", "literal", 0.4, 1): "071e1b5938cd2add565739e7044bffc98ffb0d6ab8f02b86f609cd9b22b61dd0",
    ("qd10", "literal", 0.4, 4): "942098f842e4cd4919b547bcd2ea8f70a7a3aab272b222343c12e462e5e0b13f",
    ("qd10", "literal", 0.4, 100): "f8024be76748dfb0fd112405549f1a928c7ae581c74eed1e30740a1647500460",
    ("qd10", "literal", 0.75, 1): "b86dacae52ac2d38acf265959e1be9f7efab81e98c31402244e4d79aba58d3ff",
    ("qd10", "literal", 0.75, 4): "b9a8086ed307d91233bad17260597e1c640b30841e2d057d56f130ada0599397",
    ("qd10", "literal", 0.75, 100): "da58b1b8d1d9dfbf2eb6ceb6d4a0fa1b411bea9e3c789f256404abb7d7cf058b",
    ("qd10", "table", 0.0, 1): "9b0f51ca1adb040e0d2fb3f86ec610653645f6a6c0e26e68e417eaa990fc97cb",
    ("qd10", "table", 0.0, 4): "5b996f9c9e9a97c635f650109d32ccb8c21eec8b7c0b202a8b118699af1452a5",
    ("qd10", "table", 0.0, 100): "0f75018f75e77d8e94f011a60f3ea49602b300099508091dd68a27596ad04e29",
    ("qd10", "table", 0.4, 1): "ecdef4ee54444d4ad4232b1bcb4423e647825f883415d0fbf5d3255a295d9899",
    ("qd10", "table", 0.4, 4): "c38e47baf634caa5b4d68249d70edb99d134e511d909fc3bc078aeab3b1e8a20",
    ("qd10", "table", 0.4, 100): "fa8771c525de235ad84d3f547f9391d41d3d14d39b6607bdffb55ec30e080703",
    ("qd10", "table", 0.75, 1): "16a6e1c0b0ac7b30ab62547c6dbb64c11afd18c4699ca6bd1cc4dbf21f67ce9b",
    ("qd10", "table", 0.75, 4): "92d209e989ddcc0c00bebffde971d756c1d33a5645a8bf7da5e109df9834c76c",
    ("qd10", "table", 0.75, 100): "b5d606fe09cc50cef26b0b113c7d6e6bd35b9b0f0cb89d990786c47071f95a04",
    ("dq10", "literal", 0.0, 1): "afa2778635a5c67a43b625f9b1442a21be6a9cbc5c230f3464d7d4b83e5bd20b",
    ("dq10", "literal", 0.0, 4): "4edc2653836dc2c03d22fc27adb0f1109d5931852ddc655e5e1f305e1f2a02b3",
    ("dq10", "literal", 0.0, 100): "502d0c5532f1812ab8d18eb81be12ce139d3d3f9f986ef306a6ad59002998579",
    ("dq10", "literal", 0.4, 1): "cf9d4a26d441b1ac4438cb08b12ebc88abe35a70de375aa36f8a6d7b1f26180f",
    ("dq10", "literal", 0.4, 4): "f055680dbc2f96c420b7524c4ef020a3e70f24c45b005bc2d2ee8a7b7c254d53",
    ("dq10", "literal", 0.4, 100): "cfdf8482255aa31a100f60bc7d4ee7ce53f11e9439320bce2b0467f053687ddc",
    ("dq10", "literal", 0.75, 1): "a243fb8c8c7d2c773547fb8cd7d3bc3e2a574cc5cf1f97a9a609b86722ea7b8b",
    ("dq10", "literal", 0.75, 4): "d2c89114dd408fa7face57651c4c172c38ebef0a0ac132907d8294933974c34e",
    ("dq10", "literal", 0.75, 100): "4ed9641627425a083146b32987823e74c973d96421100fa8d653805b4bd808d3",
    ("dq10", "printed", 0.0, 1): "cf500b1247c90b9f851120145935a3bade990d905b83a046e1d951a22166b475",
    ("dq10", "printed", 0.0, 4): "e9770e11b714c7017ead90110060d39e34cad6757657203122f94f2c99b54e3e",
    ("dq10", "printed", 0.0, 100): "34e709c2139b9a524a5e555ba3e8243a990b4543a32deb934451aa2f476041af",
    ("dq10", "printed", 0.4, 1): "8e6ca29e984358e38cedb2878e9b293bbf001ae0282de5de11fdca515367c802",
    ("dq10", "printed", 0.4, 4): "94650003c1d15f2e89cd70db7008a6055311b50d32758b46cf437d264966655b",
    ("dq10", "printed", 0.4, 100): "fb33f0c1d7a5eab35af4d1915e84ed10c4ef815f0e043e9bdca0e82113ca45c9",
    ("dq10", "printed", 0.75, 1): "0b1344863f383a5114e7a32f2011e66e85bf06dfb6c649d1fe34aecf2005c498",
    ("dq10", "printed", 0.75, 4): "67a382bee143897b80eeb2e35d886088b60771291523b4a131a5747e156ca2ef",
    ("dq10", "printed", 0.75, 100): "af1fe5fa04deb7f8329ad513ddef7879e159e44dd1427703b551c50a2ca1dfcc",
}
SWEEP_PINS = {
    ("qd6", "literal"): "12f3530ff91445fd65e7f31b03d0d3501bcd4c00107a4717c3ee6e7fa7fd798c",
    ("dq6", "literal"): "b5f165021f5b78e9c5ff2efcb086bd52dfadfe7122d29ba641e1f8019a04427c",
    ("qd10", "literal"): "d9346a911caea6d606200ff4e056c06df54855676237f39a870817986ea05f8c",
    ("qd10", "table"): "3474b85f792752e8e96d8bf498ecb0ea72d5ed4e9c400d528560d91215ce5178",
    ("dq10", "literal"): "f117983a5eb58f8a7223a37b765efc2202b28166dfd56e9b25078a0497d14a36",
    ("dq10", "printed"): "d57bfcf3987d1d9ee08dc367cce39295e57378e1bbb9a3179e1d8a27cf227f61",
}


SWEEP = ["--mu", "0.4", "--pmin", "0", "--pmax", "0.5", "--step", "0.01"]

# (code, variant) pairs that no record lists: before, each printed the
# literal curve under the other variant's name.
ALIASES = [
    (cid, variant)
    for cid in concat.code_ids()
    for variant in ("literal", "printed", "table")
    if variant not in concat.REGISTRY[cid].curves
]

# The closed-form commands, which must not import numpy, and their stdout.
NUMPY_FREE = {
    ("table1",): "d31fd5be350f2f49ca9140e59bfd8dc7a12d35a8b35eaf844e6b46a9aa60a2b9",
    ("threshold", "--code", "qd6"):
        "fa9127cb0cf78bb87773e857bf6f438c9d07ff8f728d3b849f6e0aaf8b001934",
    ("fidelity", "sweep", "--code", "dq6", "--mu", "0", "--pmin", "0", "--pmax", "0.5",
     "--step", "0.01"): "35cef48fe7787520a909efe4b953f2ccedeb1a985961f3fa9072a9628844a7da",
    ("codes", "describe", "dfs-2"):
        "264ce57adf365e682eff24001e2b1aff74feef8ff2dd74119dccf2beaf1e2b6d",
    ("concat", "build", "--outer", "repetition-3", "--inner", "dfs-2", "--order", "qd"):
        "59487043e89af12359182ea6672250e18cdb5bca96d3b3fa8137b24b0eed9d07",
}


def _stdout_sha(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_record_lists_exactly_its_own_curves():
    assert {cid: sorted(rec.curves) for cid, rec in concat.REGISTRY.items()} == {
        "qd6": ["literal"],
        "dq6": ["literal"],
        "qd10": ["literal", "table"],
        "dq10": ["literal", "printed"],
    }
    pairs = {(cid, v) for cid, rec in concat.REGISTRY.items() for v in rec.curves}
    assert pairs == {(cid, v) for cid, v, *_ in THRESHOLD_PINS} == set(SWEEP_PINS)
    assert len(ALIASES) == 6


@pytest.mark.parametrize("code_id, variant, mu, depth", sorted(THRESHOLD_PINS))
def test_threshold_bytes_are_pinned(code_id, variant, mu, depth):
    argv = ["threshold", "--code", code_id, "--variant", variant,
            "--mu", str(mu), "--depth", str(depth)]
    assert _stdout_sha(argv) == THRESHOLD_PINS[code_id, variant, mu, depth]


@pytest.mark.parametrize("code_id, variant", sorted(SWEEP_PINS))
def test_fidelity_sweep_bytes_are_pinned(code_id, variant):
    argv = ["fidelity", "sweep", "--code", code_id, "--variant", variant, *SWEEP]
    assert _stdout_sha(argv) == SWEEP_PINS[code_id, variant]


@pytest.mark.parametrize("code_id, variant", ALIASES)
@pytest.mark.parametrize("command", [["threshold"], ["fidelity", "sweep", *SWEEP]])
def test_a_variant_the_code_lacks_is_a_usage_error(capsys, command, code_id, variant):
    with pytest.raises(SystemExit) as err:
        cli.main([*command, "--code", code_id, "--variant", variant])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]
    assert variant in message
    assert ", ".join(concat.REGISTRY[code_id].curves) in message
    with pytest.raises(ValueError, match="valid: literal"):
        analytic.code_failure(code_id, variant)


def test_variant_choices_are_the_records_curve_names(capsys):
    with pytest.raises(SystemExit):
        cli.main(["threshold", "--help"])
    assert "{literal,printed,table}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", sorted(NUMPY_FREE))
def test_closed_form_commands_do_not_import_numpy(argv):
    src = os.path.dirname(os.path.dirname(qdq.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    script = (
        "import sys\n"
        "from qdq import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stderr.write('numpy' if 'numpy' in sys.modules else 'no numpy')\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stderr.decode() == "no numpy"
    assert hashlib.sha256(run.stdout).hexdigest() == NUMPY_FREE[argv]
