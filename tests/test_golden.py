"""Golden bytes: canonical keys, compiled problems and CLI output must not drift.

Key bytes may change only with a noted format bump, and the CLI documents
are part of the interface; the compiled problems of the fixture instance
pin each variant's initial model and action relations as built.  The key
and CLI digests below were taken from the engine before its relation
tables moved to integer rows, the compiled-problem digests from the
engine whose frame closures still ran on name pairs, and the SAT digest
from the compiler that still built each delete action by hand; a change
that alters any of them has to say so and print the new ones with
``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from epiplan.action import action_to_json
from epiplan.bisim import canonical_key
from epiplan.cli import main
from epiplan.formula import parse
from epiplan.kripke import state_to_json
from epiplan.pcp import make_instance
from epiplan.problem import problem_to_json
from epiplan.reduction import Variant, module, reduce_instance, sat_to_ep
from epiplan.suites import random_state

WORDS = [("", ""), ("0", "1"), ("01", "0"), ("1", "101"), ("110", "01"), ("0101", "0101")]
# the fixture instance of test_cli.py and its K1 witness
BLOCKS = [["1", "101"], ["10", "00"], ["011", "11"]]
PLANS = {
    "two": "ad_1,ad_3",
    "three": "ad_2,ad_1,ad_3",
    "witness": "ad_1,ad_3,ad_2,ad_3,next_stage,"
    + ",".join(f"remove_{b}" for b in reversed("101110011")),
}
# a three-variable CNF for the SAT compiler
SAT_FORMULA = "(p | q | !r) & (!p | r) & (!q | !r)"

FAMILY_SHA256 = "3b182930a9a6b8bad34d55fee2855dbc245acbc78b50281f469d68439e3be018"
RANDOM_SHA256 = "1bdfc73a4ac25a4e34c33345b7a893d047c9c976219f8ca53bc57be3365255db"
REDUCE_SHA256 = {
    'K1': '999b1f7f0218120aaa0ee55393996f2b3f82a66e9c7fd7c28661803f43e591ae',
    'KTB1': '449f3d8dc918b678f6eddf0ad5001243b006314335355a9535e18eb6d112b981',
    'MultiS5': 'ac4a9de6d097a9ec2e62df599ef1a0a4ef10dc23a4f2ec195d99db6f28865816',
    'S4_1': '153c05a6f4ecd5bd9a729eb921bdd68d958c7b7f2daadfb474c6ef35277926f7',
}
SAT_SHA256 = "9bbf2bcb0e17c3a71e84c644a1e02315099ec64ee8ce513433a71881d3413c95"
CLI_SHA256 = {
    'apply K1 three': 'f58426c789cff036b8f665a055a47427ac17d1e365859ad9d6db60f91b6136bd',
    'apply K1 two': '595f4f50f0f58b3a132ba02ae31ca23ed7ac5e79c89d1975e49c5d046c353cb1',
    'apply K1 witness': '9431479f52c4d2a88883f1080ade583997869a518f0448fc7b2b317c6af9992a',
    'apply KTB1 three': '69e0f60cf5f29895605c298044325124fcb15f4ef118a7dcb44ebe72142dbab1',
    'apply KTB1 two': '93af24eb9b5f6a727a643d3daf551e965a2ec40f9a78627694d832d6a439e788',
    'apply KTB1 witness': '5f74639c3df54a8fb8f38145ef0d36be26a22631ba70c2a41d1c29032f05df78',
    'apply MultiS5 three': 'acaef8d9f9c80f4d8d073c08bbbdc506be1a9da244fa11991e6db8869cae0be7',
    'apply MultiS5 two': 'e3dc48fa7045f4df022ce8ddbfc09877f0a42f49972636b9c82dcd11a76b00f0',
    'apply MultiS5 witness': 'd8ddfd21aeec9dcc2637acef7c9e6f6d51e32ddb10533c752743d12b82f13dde',
    'apply S4_1 three': '3fddd2a232902b2bf9ed2c227481a350787dceb54d0e43bae55516c058c782c8',
    'apply S4_1 two': 'bef57375880214c4b249a6196a61c77fc1ccc24cc0ed46a540fab6d59679ca44',
    'apply S4_1 witness': '9b103b47b98ed32e61e0b88904e992ad10851725fb38dc1d3d51e37454e79d5a',
    'minimize K1': '282d2087d7aa3d1947513d71550a33300dd5249f3935620edf6586ef926c144a',
    'minimize KTB1': 'fc591151a126dbf1425cb52205c771a7dfbf600ab46c911580d91543fc01d685',
    'minimize MultiS5': 'a6b6174ae16b6dbf463660e681090c671115ee650dd6b15e547c935b906fded6',
    'minimize S4_1': '6e10fea548818dc560ad77f052d9bdf40ea881f7a3c948b88fa58966f625f2a3',
    'minimize sI': '282d2087d7aa3d1947513d71550a33300dd5249f3935620edf6586ef926c144a',
    'update K1': '95157b6ef988912b7a8b83a36397a698c63ba84c240d52de38d1e259c7464607',
    'update KTB1': '65e6589fade703db8a1b1138a5695f1920b65806ad763b5d19d0a22ff162d264',
    'update MultiS5': '7c61b69f3d231a3b1d7ec5af38369bf243e1a63e576474b2468c492fa903319b',
    'update S4_1': 'e533efac2d949447b76323e8df7486d46e7a0e2c6e1618d17bdc480af65aa6b0',
}


def family_digest() -> str:
    h = hashlib.sha256()
    for variant in Variant:
        mod = module(variant)
        for qa, qb in WORDS:
            for flavor in mod.FLAVORS:
                h.update(canonical_key(mod.family(qa, qb, flavor)))
    return h.hexdigest()


def random_digest() -> str:
    h = hashlib.sha256()
    for seed in range(50):
        h.update(canonical_key(random_state(random.Random(seed))))
    return h.hexdigest()


def reduce_digests() -> dict[str, str]:
    """Per variant, the digest of the compiled fixture problem's canonical JSON."""
    out = {}
    for variant in Variant:
        doc = problem_to_json(reduce_instance(make_instance(BLOCKS), variant))
        text = json.dumps(doc, sort_keys=True)
        out[variant.value] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def sat_digest() -> str:
    """The digest of the compiled SAT problem's canonical JSON."""
    doc = problem_to_json(sat_to_ep(parse(SAT_FORMULA)))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


def cli_outputs() -> dict[str, str]:
    """stdout of minimize, update --minimize and apply --minimize per variant."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        state = tmp / "sI.json"
        state.write_text(json.dumps(state_to_json(module(Variant.K1).initial_state())))
        docs["minimize sI"] = _stdout("minimize", "--state", state)
        for variant in Variant:
            problem = reduce_instance(make_instance(BLOCKS), variant)
            prob = tmp / "prob.json"
            prob.write_text(json.dumps(problem_to_json(problem)))
            init = tmp / "init.json"
            init.write_text(json.dumps(state_to_json(problem.initial)))
            act = tmp / "ad_1.json"
            act.write_text(json.dumps(action_to_json(problem.actions["ad_1"])))
            v = variant.value
            docs[f"minimize {v}"] = _stdout("minimize", "--state", init)
            docs[f"update {v}"] = _stdout(
                "update", "--state", init, "--action", act, "--minimize"
            )
            for label, plan in PLANS.items():
                docs[f"apply {v} {label}"] = _stdout(
                    "apply", "--problem", prob, "--plan", plan, "--minimize"
                )
    return docs


def cli_digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in cli_outputs().items()
    }


def test_canonical_key_bytes_are_pinned():
    assert family_digest() == FAMILY_SHA256
    assert random_digest() == RANDOM_SHA256


def test_compiled_problems_are_pinned():
    assert reduce_digests() == REDUCE_SHA256
    assert sat_digest() == SAT_SHA256


def test_minimized_cli_output_is_pinned():
    actual = cli_digests()
    assert sorted(actual) == sorted(CLI_SHA256)
    for name, digest in CLI_SHA256.items():
        assert actual[name] == digest, name


if __name__ == "__main__":
    print(f"FAMILY_SHA256 = {family_digest()!r}")
    print(f"RANDOM_SHA256 = {random_digest()!r}")
    print("REDUCE_SHA256 = {")
    for name, digest in sorted(reduce_digests().items()):
        print(f"    {name!r}: {digest!r},")
    print("}")
    print(f"SAT_SHA256 = {sat_digest()!r}")
    print("CLI_SHA256 = {")
    for name, digest in sorted(cli_digests().items()):
        print(f"    {name!r}: {digest!r},")
    print("}")
