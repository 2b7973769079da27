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


def test_apply_minimizes_the_final_state_once(capsys, fixtures, monkeypatch):
    from epiplan import bisim

    code, doc = run(capsys, "reduce", "--pcp", fixtures["pcp"], "--variant", "K1")
    problem_path = fixtures["tmp"] / "prob.json"
    problem_path.write_text(json.dumps(doc))
    calls = []
    original = bisim._minimize

    def counted(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(bisim, "_minimize", counted)
    keys = set()
    for flags in (["--minimize"], []):
        calls.clear()
        code, doc = run(capsys, "apply", "--problem", problem_path, "--plan", "ad_1,ad_3", *flags)
        assert code == 0 and len(calls) == 1, flags
        keys.add(doc["key"])
    assert len(keys) == 1


def test_plan_stats_report_memo_hits(capsys, fixtures):
    code, doc = run(capsys, "reduce", "--pcp", fixtures["pcp"], "--variant", "K1")
    problem_path = fixtures["tmp"] / "prob.json"
    problem_path.write_text(json.dumps(doc))
    argv = ["--verbose", "plan", "--problem", problem_path, "--max-depth", "4", "--max-nodes", "60"]
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    stats = json.loads(captured.out)["stats"]
    assert code == 2 and set(stats) == {"nodes", "dedup_hits", "depth", "memo_hits", "stop_reason"}
    assert stats["memo_hits"] <= stats["dedup_hits"]
    assert f"memo_hits={stats['memo_hits']}" in captured.err
    assert f"stop_reason={stats['stop_reason']!r}" in captured.err


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


def test_search_budget_flags(capsys, fixtures):
    from epiplan.cli import build_parser

    for command in (["plan", "--problem", "p.json"], ["solve-pcp", "--pcp", "b.json",
                                                        "--variant", "K1"]):
        args = build_parser().parse_args(command)
        assert (args.max_depth, args.max_nodes) == (20, 100000), command
    for flags in (["--max-depth", "-1"], ["--max-nodes", "0"]):
        code = main(["solve-pcp", "--pcp", str(fixtures["easy"]), "--variant", "K1", *flags])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", flags
        assert captured.err.startswith("error: search budget needs max_depth >= 0")


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


@pytest.mark.parametrize("suite,cases", [("k1", "0"), ("engine", "0"), ("theorem", "-3")])
def test_verify_lemmas_rejects_cases_below_one(capsys, suite, cases):
    code = main(["verify-lemmas", "--suite", suite, "--cases", cases])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error:") and "--cases" in captured.err


def test_input_error_exit_code(capsys, tmp_path):
    code = main(["check", "--state", str(tmp_path / "missing.json"), "--formula", "p"])
    capsys.readouterr()
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check", "--state", str(bad), "--formula", "p"])
    capsys.readouterr()
    assert code == 3
    good = {"agents": 1, "worlds": ["a"], "relations": [[]], "designated": "a"}
    for doc in ({**good, "relations": 5}, {**good, "designated": ["a"]}, [1, 2]):
        bad.write_text(json.dumps(doc))
        code = main(["minimize", "--state", str(bad)])
        assert code == 3 and capsys.readouterr().err.startswith("error:")
    bad.write_text(json.dumps(good))
    assert main(["minimize", "--state", str(bad)]) == 0


def test_plan_with_a_missing_agent_exits_3(capsys, tmp_path):
    from epiplan.action import make_action
    from epiplan.formula import parse, true_
    from epiplan.frames import profile
    from epiplan.kripke import EpistemicState, make_model
    from epiplan.problem import PlanningProblem, problem_to_json

    state = EpistemicState(make_model(["w"], 1, [{("w", "w")}], {"w": {"p"}}), "w")
    hidden = make_action(["e", "f"], 1, [{("e", "e"), ("f", "f")}],
                         {"e": true_(), "f": parse("K{2} p")}, "e")
    path = tmp_path / "problem.json"
    for goal, actions in (("!p & K{3} q", {}), ("p & K{3} q", {}), ("q", {"a": hidden})):
        problem = PlanningProblem(state, actions, parse(goal), profile("K"))
        path.write_text(json.dumps(problem_to_json(problem)))
        code = main(["plan", "--problem", str(path), "--max-depth", "3", "--max-nodes", "10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", goal
        assert captured.err.startswith("error:") and "names agent" in captured.err


def test_check_with_a_missing_agent_exits_3(capsys, tmp_path):
    from epiplan.kripke import EpistemicState, make_model

    state = EpistemicState(make_model(["w"], 1, [{("w", "w")}], {"w": {"p"}}), "w")
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(state)))
    for text in ("p | K{3} q", "!p & K{3} q", "p | <K{1}> p"):
        for where in ([], ["--world", "w"]):
            code = main(["check", "--state", str(path), *where, "--formula", text])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", (text, where)
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_agent_count_must_match_the_relation_count(capsys, tmp_path):
    from epiplan.action import make_action
    from epiplan.formula import true_
    from epiplan.kripke import make_model

    state = {"agents": 1, "worlds": ["w"], "relations": [[["w", "w"]]], "designated": "w"}
    action = {"agents": 1, "events": ["e"], "relations": [[["e", "e"]]],
              "pre": {"e": {"op": "not", "arg": {"op": "false"}}}, "designated": "e"}
    state_path, action_path = tmp_path / "state.json", tmp_path / "action.json"
    action_path.write_text(json.dumps(action))
    for count in (0, 2):
        message = f"expected {count} relations, got 1"
        with pytest.raises(ValueError, match=message):
            make_model(["w"], count, [{("w", "w")}], {})
        with pytest.raises(ValueError, match=message):
            make_action(["e"], count, [{("e", "e")}], {"e": true_()}, "e")
        state_path.write_text(json.dumps({**state, "agents": count}))
        for argv in (["check", "--state", state_path, "--formula", "true"],
                     ["update", "--state", state_path, "--action", action_path]):
            code = main([str(a) for a in argv])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            assert captured.err == f"error: {message}\n", argv
        state_path.write_text(json.dumps(state))
        action_path.write_text(json.dumps({**action, "agents": count}))
        code = main(["update", "--state", str(state_path), "--action", str(action_path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == f"error: {message}\n"
        action_path.write_text(json.dumps(action))
    assert main(["update", "--state", str(state_path), "--action", str(action_path)]) == 0


# --- malformed documents ------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# objects keyed by data rather than by field name, and optional fields
_MAPS = {"valuation", "pre", "actions", "meta"}
_OPTIONAL = {"valuation", "depth_bound", "meta"}
_WRONG = (None, 7, "x", [7], {"x": 7}, True)


def _fixture_docs() -> dict:
    from epiplan.action import action_to_json
    from epiplan.pcp import make_instance
    from epiplan.problem import problem_to_json
    from epiplan.reduction import reduce_instance

    problem = reduce_instance(make_instance([["1", "101"], ["10", "00"], ["011", "11"]]),
                              Variant.K1)
    return {
        "state": state_to_json(problem.initial),
        "action": action_to_json(problem.actions["ad_1"]),
        "problem": problem_to_json(problem),
    }


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict) and not (path and path[-1] == "meta"):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _manglings(doc) -> list:
    """Every edit that leaves ``doc`` malformed: (path, key to drop) or (path, new value)."""
    out = [((), root) for root in ([1, 2], 5, "x", None)]
    for path, value in _nodes(doc):
        if isinstance(value, dict) and not (path and path[-1] in _MAPS):
            out += [(path, ("drop", key)) for key in value if key not in _OPTIONAL]
        if path:
            out += [
                (path, ("set", wrong)) for wrong in _WRONG
                if type(wrong) is not type(value)
                and not (wrong is None and path[-1] == "depth_bound")
            ]
    return out


def _mangled(doc, edit):
    path, change = edit
    if not path and not isinstance(change, tuple):
        return change
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1] if change[0] == "set" else path:
        parent = parent[step]
    if change[0] == "drop":
        del parent[change[1]]
    else:
        parent[path[-1]] = change[1]
    return doc


_DOCS = _fixture_docs()
_EDITS = {name: _manglings(doc) for name, doc in _DOCS.items()}
_COMMANDS = {
    "check": ("state", ["check", "--state", "{state}", "--formula", "<K> empty"]),
    "minimize": ("state", ["minimize", "--state", "{state}"]),
    "update state": ("state", ["update", "--state", "{state}", "--action", "{action}"]),
    "update action": ("action", ["update", "--state", "{state}", "--action", "{action}"]),
    "plan": ("problem", ["plan", "--problem", "{problem}", "--max-depth", "2",
                         "--max-nodes", "20"]),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_documents_exit_3_without_traceback(data):
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    target, argv = _COMMANDS[command]
    edit = data.draw(st.sampled_from(_EDITS[target]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in _DOCS.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(_mangled(doc, edit) if name == target else doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    assert code == 3, (command, edit)
    assert err.getvalue().startswith("error:"), (command, edit, err.getvalue())


def test_input_nested_too_deeply_exits_3_without_traceback(capsys, tmp_path):
    arrays = tmp_path / "arrays.json"
    arrays.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["minimize", "--state", str(arrays)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    problem = json.loads(json.dumps(_DOCS["problem"]))
    for _ in range(500):
        problem["goal"] = {"op": "not", "arg": problem["goal"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["plan", "--problem", str(path), "--max-depth", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_to_json(module(Variant.K1).initial_state())))
    for text in ("!" * 5000 + "p", "(" * 5000 + "p" + ")" * 5000):
        for argv in (["check", "--state", str(state)], ["sat2ep"]):
            assert main(argv + ["--formula", text]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
    # 490 nested K parse and evaluate (one stack frame per modal level):
    # K{0}^490 p holds iff every world 490 agent-0 steps away satisfies p
    initial = module(Variant.K1).initial_state()
    model, world = initial.model, initial.designated
    frontier = {world}
    for _ in range(490):
        frontier = {v for u, v in model.relations[0] if u in frontier}
    expected = all("p" in model.valuations[model.index_of(v)] for v in frontier)
    assert expected is False
    for where in ([], ["--world", world]):
        argv = ["check", "--state", str(state), *where, "--formula", "K{0}" * 490 + "p"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"result": expected} and captured.err == ""
