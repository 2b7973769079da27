import json

import pytest

from epiplan.cli import main
from epiplan.kripke import state_from_json, state_to_json
from epiplan.reduction import Variant, module


@pytest.fixture()
def fixtures(tmp_path):
    paths = {}
    state = module(Variant.K1).initial_state()
    paths["state"] = tmp_path / "sI.json"
    paths["state"].write_text(json.dumps(state_to_json(state)))
    paths["pcp"] = tmp_path / "b.json"
    paths["pcp"].write_text(json.dumps({"blocks": [["1", "101"], ["10", "00"], ["011", "11"]]}))
    paths["easy"] = tmp_path / "easy.json"
    paths["easy"].write_text(json.dumps({"blocks": [["01", "01"]]}))
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_check(capsys, fixtures):
    code, doc = run(capsys, "check", "--state", fixtures["state"], "--formula", "<K> empty")
    assert code == 0 and doc == {"result": True}
    code, doc = run(capsys, "check", "--state", fixtures["state"], "--formula", "K empty")
    assert code == 1 and doc == {"result": False}
    code, doc = run(
        capsys, "check", "--state", fixtures["state"], "--formula", "0 & a", "--world", "w_{0,a}"
    )
    assert code == 0


def test_reduce_and_round_trip(capsys, fixtures):
    code, doc = run(capsys, "reduce", "--pcp", fixtures["pcp"], "--variant", "K1")
    assert code == 0
    assert len(doc["actions"]) == 6
    assert doc["logic"] == "K"
    # canonical output is a fixpoint of write-read-write
    problem_path = fixtures["tmp"] / "prob.json"
    problem_path.write_text(json.dumps(doc))
    from epiplan.problem import problem_from_json, problem_to_json

    assert problem_to_json(problem_from_json(doc)) == doc


def test_verify_and_apply(capsys, fixtures):
    code, doc = run(capsys, "reduce", "--pcp", fixtures["pcp"], "--variant", "K1")
    assert code == 0
    problem_path = fixtures["tmp"] / "prob.json"
    problem_path.write_text(json.dumps(doc))
    witness = "ad_1,ad_3,ad_2,ad_3,next_stage," + ",".join(
        f"remove_{b}" for b in reversed("101110011")
    )
    code, doc = run(capsys, "verify", "--problem", problem_path, "--plan", witness)
    assert code == 0 and doc == {"valid": True}
    code, doc = run(capsys, "apply", "--problem", problem_path, "--plan", "remove_0")
    assert code == 1 and doc["failure_at"] == 0


def test_solve_pcp_match_decoding(capsys, fixtures):
    code, doc = run(
        capsys,
        "solve-pcp", "--pcp", fixtures["easy"], "--variant", "K1",
        "--max-depth", "6", "--max-nodes", "5000",
    )
    assert code == 0
    assert doc["match"] == [1]
    assert doc["word"] == "01"


def test_solve_pcp_bound_exit_code(capsys, fixtures):
    code, doc = run(
        capsys,
        "solve-pcp", "--pcp", fixtures["pcp"], "--variant", "K1",
        "--max-depth", "3", "--max-nodes", "50",
    )
    assert code == 2 and doc["outcome"] == "bound_reached"


def test_minimize_round_trip(capsys, fixtures):
    code, doc = run(capsys, "minimize", "--state", fixtures["state"])
    assert code == 0
    key = doc.pop("key")
    assert len(key) > 0
    assert state_to_json(state_from_json(doc)) == doc


def test_bisim_command(capsys, fixtures, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(state_to_json(module(Variant.K1).family("", "", "loop"))))
    code, doc = run(capsys, "bisim", "--state1", fixtures["state"], "--state2", other)
    assert code == 1 and doc == {"bisimilar": False}
    code, doc = run(capsys, "bisim", "--state1", fixtures["state"], "--state2", fixtures["state"])
    assert code == 0


def test_sat2ep(capsys):
    code, doc = run(capsys, "sat2ep", "--formula", "p & !q", "--solve")
    assert code == 0 and doc["plan"] == ["delete_q"]
    code, doc = run(capsys, "sat2ep", "--formula", "p & !p", "--solve")
    assert code == 1


def test_verify_lemmas_seeded(capsys):
    code, doc = run(capsys, "verify-lemmas", "--suite", "k1", "--cases", "5", "--seed", "3")
    assert code == 0
    assert doc[0]["suite"] == "k1_lemmas" and doc[0]["ok"]


def test_verify_lemmas_cases_sets_each_suites_size(capsys, monkeypatch):
    import inspect

    from epiplan import suites

    for runner, size_arg in suites.SUITES.values():
        assert size_arg in inspect.signature(runner).parameters
    runner, size_arg = suites.SUITES["k1"]
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return runner(**kwargs)

    monkeypatch.setitem(suites.SUITES, "k1", (spy, size_arg))
    code, doc = run(capsys, "verify-lemmas", "--suite", "k1", "--cases", "2")
    assert code == 0 and doc[0]["ok"]
    assert calls == [{"seed": suites.DEFAULT_SEED, "pairs": 2}]
    assert doc[0]["cases"] == runner(pairs=2).cases


def test_input_error_exit_code(capsys, tmp_path):
    code = main(["check", "--state", str(tmp_path / "missing.json"), "--formula", "p"])
    capsys.readouterr()
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check", "--state", str(bad), "--formula", "p"])
    capsys.readouterr()
    assert code == 3
