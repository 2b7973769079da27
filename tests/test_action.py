import pytest

from epiplan import errors
from epiplan.action import (
    FailureAt,
    action_from_json,
    action_to_json,
    applicable,
    apply_plan,
    keeps_state,
    make_action,
    product_update,
)
from epiplan.bisim import bisimilar
from epiplan.formula import (Know, evaluate_at, extension_mask, know, parse, prop, subformulas,
                             to_text)
from epiplan.kripke import EpistemicState, make_model
from epiplan.pcp import make_instance
from epiplan.reduction import k1


def test_make_action_validation():
    pre = {"e": prop("p")}
    a = make_action(["e"], 1, [{("e", "e")}], pre, "e")
    assert a.preconditions == (prop("p"),) and a.designated == "e"
    with pytest.raises(errors.DepthExceeded):
        make_action(["e"], 1, [set()], {"e": know(0, know(0, prop("p")))}, "e")
    with pytest.raises(errors.DanglingEventRef):
        make_action(["e"], 1, [set()], pre, "missing")
    with pytest.raises(errors.DanglingEventRef):
        make_action(["e"], 1, [{("e", "f")}], pre, "e")
    with pytest.raises(errors.DanglingEventRef):
        make_action(["e", "f"], 1, [set()], pre, "e")


def test_next_stage_shape():
    nx = k1.next_stage()
    assert nx.events == ("e_nx",)
    assert nx.relations[0] == frozenset({("e_nx", "e_nx")})
    from epiplan.formula import modal_depth

    assert modal_depth(nx.preconditions[0]) == 1


def test_applicability_examples():
    s = k1.initial_state()
    ad1 = k1.add_block(1, ("1", "101"))
    assert applicable(s, ad1)
    assert not applicable(s, k1.remove_symbol("0"))
    # after the stage switch neither add-block nor the switch applies
    plain = k1.family("10", "0", "plain")
    assert not applicable(plain, ad1)
    assert not applicable(plain, k1.next_stage())


def test_precondition_of_any_depth_gets_its_mask():
    # K p holds at u only (v lacks p and sees itself; w sees v), and so does
    # every deeper K...K p
    m = make_model(["u", "v", "w"], 1, [{("u", "u"), ("v", "v"), ("w", "v")}],
                   {"u": {"p"}, "w": {"p"}})
    s = EpistemicState(m, "u")
    deep = prop("p")
    for _ in range(50_000):
        deep = know(0, deep)
    shallow = know(0, know(0, prop("p")))
    pre = {"deep": deep, "shallow": shallow}
    deep_first = make_action(["deep", "shallow"], 1, [set()], pre, "deep", depth_bound=None)
    shallow_first = make_action(["deep", "shallow"], 1, [set()], pre, "shallow", depth_bound=None)
    assert applicable(s, deep_first)
    assert extension_mask(m, deep) == 0b001
    assert product_update(s, shallow_first).model.worlds == ("(u,deep)", "(u,shallow)")
    # and prints, as text and as JSON, without recursing
    assert to_text(deep) == "K{0} " * 50_000 + "p"
    doc = action_to_json(deep_first)["pre"]["deep"]
    for _ in range(50_000):
        assert doc.keys() == {"op", "agent", "arg"} and (doc["op"], doc["agent"]) == ("know", 0)
        doc = doc["arg"]
    assert doc == {"op": "prop", "name": "p"}
    # the masks the model memoized on the way agree with pointwise evaluation
    for f in (prop("p"), know(0, prop("p")), shallow, parse("!K p & p"), parse("<K> !p")):
        expected = sum(1 << i for i, w in enumerate(m.worlds) if evaluate_at(s, w, f))
        assert extension_mask(m, f) == expected, f
    kept = make_action(["e"], 1, [{("e", "e")}], {"e": know(0, prop("p"))}, "e")
    assert product_update(s, kept).model.worlds == ("(u,e)",)


def test_agent_mismatch():
    from epiplan.reduction import multi

    for entry in (applicable, keeps_state, product_update):
        with pytest.raises(errors.AgentMismatch) as raised:
            entry(k1.initial_state(), multi.next_stage())
        assert str(raised.value) == "state has 1 agent(s), action has 2", entry


def test_applicable_checks_every_agent_of_the_designated_precondition():
    # the precondition is false at every world, but it names agent 3 of a
    # 1-agent state: its extension mask, which applicable reads, cannot be built
    s = k1.initial_state()
    bad = make_action(["e"], 1, [set()], {"e": parse("false & K{3} p")}, "e")
    with pytest.raises(errors.UnknownAgent):
        applicable(s, bad)
    with pytest.raises(errors.UnknownAgent):
        product_update(s, bad)


def test_product_update_not_applicable():
    with pytest.raises(errors.NotApplicable):
        product_update(k1.initial_state(), k1.remove_symbol("0"))


def test_product_update_world_order_and_valuation():
    s = k1.family("", "", "loop")
    p = product_update(s, k1.add_block(1, ("1", "")))
    # pair names and inherited valuations
    assert p.designated == "(w_root,e_s)"
    assert p.model.valuations[p.model.index_of("(w_root,e_s)")] == frozenset({"root"})
    # worlds are ordered by (world order, event order)
    firsts = [w for w in p.model.worlds if w.startswith("(w_root")]
    assert firsts == ["(w_root,e_s)"]


def test_product_update_shares_the_rows_of_repeated_masks():
    from epiplan.reduction import sat_to_ep

    # the sat_to_ep hub frame is total: every world has one successor mask
    problem = sat_to_ep(parse("p | q | r"))
    s = product_update(problem.initial, problem.actions["delete_q"])
    (row,) = s.model.rows
    assert row == ((0, 1, 2),) * 3 and all(succ is row[0] for succ in row)
    assert s.model.masks()[2] == (True,)
    # on a path every mask is distinct: no row is shared
    path = make_model(["a", "b", "c"], 1, [{("a", "b"), ("b", "c")}], {})
    assert path.masks()[2] == (False,)


def test_a_model_gets_its_formula_memo_on_first_use():
    # the memo keeps the formula evaluated and each Know its program met,
    # here both of them; the walk over the subformulas never ran
    f = parse("K{0} (a & !b) | <K{0}> c")
    parts: dict = {}
    for g in subformulas(f, parts):
        parts[g] = None
    kept = {g for g in parts if isinstance(g, Know)} | {f}
    action = make_action(["e", "g"], 1, [{("e", "g"), ("g", "e")}],
                         {"e": prop("a"), "g": prop("b")}, "e")
    model = make_model(["u", "v"], 1, [{("u", "v"), ("v", "u")}], {"u": {"a"}, "v": {"b"}})
    for _ in range(2):  # a model from make_model, then a product
        assert model._memo is None
        mask = extension_mask(model, f)
        memo = model.formula_memo()
        assert memo is model._memo and memo.keys() == kept
        assert f._order is None
        assert extension_mask(model, f) == mask and model.formula_memo() is memo
        model = product_update(EpistemicState.at(model, 0), action).model


def test_apply_plan():
    inst = make_instance([("1", "101"), ("10", "00"), ("011", "11")])
    actions = k1.build_actions(inst)
    s = k1.initial_state()
    assert apply_plan(s, actions, []) == s
    result = apply_plan(s, actions, ["remove_0"])
    assert result == FailureAt(0, "remove_0")
    with pytest.raises(errors.UnknownActionName):
        apply_plan(s, actions, ["fly"])
    # full witness plan reaches a goal state
    from epiplan.formula import evaluate

    plan = ["ad_1", "ad_3", "ad_2", "ad_3", "next_stage"] + ["remove_" + b for b in reversed("101110011")]
    assert len(plan) == 14
    final = apply_plan(s, actions, plan, minimize=True)
    assert not isinstance(final, FailureAt)
    assert evaluate(final, k1.goal)


def test_apply_plan_minimize_is_transparent():
    inst = make_instance([("1", "101"), ("10", "00")])
    actions = k1.build_actions(inst)
    s = k1.initial_state()
    plan = ["ad_1", "ad_2", "next_stage"]
    a = apply_plan(s, actions, plan, minimize=False)
    b = apply_plan(s, actions, plan, minimize=True)
    assert bisimilar(a, b)


def test_action_json_round_trip():
    ad = k1.add_block(2, ("10", "00"))
    doc = action_to_json(ad)
    back = action_from_json(doc)
    assert action_to_json(back) == doc
    s = k1.family("1", "0", "loop")
    assert bisimilar(product_update(s, ad), product_update(s, back))
