import pytest

from epiplan import errors
from epiplan.formula import parse, true_
from epiplan.frames import profile
from epiplan.pcp import make_instance
from epiplan.planner import (
    BoundReached,
    NoPlanExhausted,
    PlanFound,
    SearchBudget,
    bfs_plan,
    s5_single_agent_plan,
    verify_plan,
)
from epiplan.problem import PlanningProblem, validate_problem
from epiplan.reduction import Variant, match_to_plan, reduce_instance, sat_to_ep

EASY = make_instance([("01", "01")])
UNSOLVABLE = make_instance([("0", "1")])
EXAMPLE = make_instance([("1", "101"), ("10", "00"), ("011", "11")])


def budget(depth=8, nodes=20000):
    return SearchBudget(max_depth=depth, max_nodes=nodes)


def test_trivial_goal_found_at_depth_zero():
    problem = reduce_instance(EASY, Variant.K1)
    trivial = PlanningProblem(problem.initial, problem.actions, true_(), problem.logic)
    outcome = bfs_plan(trivial, budget())
    assert isinstance(outcome, PlanFound) and outcome.plan == ()


def test_plan_found_and_verified():
    problem = reduce_instance(EASY, Variant.K1)
    outcome = bfs_plan(problem, budget())
    assert isinstance(outcome, PlanFound)
    assert outcome.plan == ("ad_1", "next_stage", "remove_1", "remove_0")
    assert verify_plan(problem, outcome.plan)


def test_unsolvable_instance_never_finds_a_plan():
    # the add actions stay applicable forever, so the reachable space is
    # infinite: the search must stop at a bound, never with a plan
    problem = reduce_instance(UNSOLVABLE, Variant.K1)
    outcome = bfs_plan(problem, SearchBudget(max_depth=16, max_nodes=3000))
    assert isinstance(outcome, BoundReached)


def test_finite_space_exhausts():
    problem = sat_to_ep(parse("p & !p"))
    outcome = bfs_plan(problem, SearchBudget(max_depth=10, max_nodes=10000))
    assert isinstance(outcome, NoPlanExhausted)


def test_bound_reached_is_distinguished():
    problem = reduce_instance(UNSOLVABLE, Variant.K1)
    outcome = bfs_plan(problem, SearchBudget(max_depth=2, max_nodes=100000))
    assert isinstance(outcome, BoundReached)
    outcome = bfs_plan(problem, SearchBudget(max_depth=30, max_nodes=5))
    assert isinstance(outcome, BoundReached)


def test_budget_bounds_name_what_they_need():
    # the edges are legal: a depth-0 search tests only the start state
    outcome = bfs_plan(reduce_instance(UNSOLVABLE, Variant.K1), SearchBudget(0, 1))
    assert isinstance(outcome, BoundReached) and outcome.stats.stop_reason == "depth"
    assert (outcome.stats.depth, outcome.stats.nodes) == (0, 1)
    for depth, nodes in ((-1, 1), (0, 0)):
        with pytest.raises(ValueError, match=f"max_depth >= 0 and max_nodes >= 1, "
                                             f"got max_depth={depth}, max_nodes={nodes}"):
            SearchBudget(depth, nodes)


def test_monotone_in_depth():
    problem = reduce_instance(EASY, Variant.K1)
    for depth in (4, 5, 7, 10):
        outcome = bfs_plan(problem, budget(depth=depth))
        assert isinstance(outcome, PlanFound) and len(outcome.plan) == 4


def test_verify_plan_examples():
    problem = reduce_instance(EASY, Variant.K1)
    plan = match_to_plan(EASY, (1,), Variant.K1)
    assert verify_plan(problem, plan)
    assert not verify_plan(problem, plan[:-1])
    assert not verify_plan(problem, ["remove_0"])
    with pytest.raises(errors.UnknownActionName):
        verify_plan(problem, ["fly"])


def _valuation_classes(valuations, succ):
    """A refinement that is too coarse: the valuation classes alone."""
    ids = {v: r for r, v in enumerate(sorted(set(valuations), key=sorted))}
    return [ids[v] for v in valuations], len(ids)


def _one_round(valuations, succ):
    """A refinement stopped after its first round."""
    block, _ = _valuation_classes(valuations, succ)
    sigs = [(block[i], *(tuple(sorted({block[j] for j in row[i]})) for row in succ))
            for i in range(len(valuations))]
    ids = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
    return [ids[sig] for sig in sigs], len(ids)


@pytest.mark.parametrize("refine", [_valuation_classes, _one_round])
def test_a_broken_refinement_raises_and_never_verifies_a_plan(monkeypatch, refine):
    # ("ad_1", "next_stage") is no plan on EXAMPLE, but an uncertified
    # search on the valuation classes finds it for every variant.  Each
    # search must raise on its first merged partition, and verify_plan
    # raise or answer False, never True.
    from epiplan import bisim

    plan = ("ad_1", "next_stage")
    problems = [reduce_instance(EXAMPLE, variant) for variant in Variant]
    assert not any(verify_plan(problem, plan) for problem in problems)
    monkeypatch.setattr(bisim, "_canonical_refine", refine)
    verdicts = []
    for problem in problems:
        with pytest.raises(AssertionError, match="^quotient certificate"):
            bfs_plan(problem, budget(depth=12, nodes=3000))
        try:
            verdicts.append(verify_plan(problem, plan))
        except AssertionError as exc:
            verdicts.append(str(exc).split(":")[0])
    assert set(verdicts) <= {False, "quotient certificate"} and "quotient certificate" in verdicts


def test_validate_problem_rejects_deep_preconditions():
    from epiplan.action import make_action
    from epiplan.formula import know, prop
    from epiplan.kripke import EpistemicState, make_model

    m = make_model(["w"], 1, [{("w", "w")}], {})
    deep = make_action(
        ["e"], 1, [{("e", "e")}], {"e": know(0, know(0, prop("p")))}, "e", depth_bound=None
    )
    problem = PlanningProblem(EpistemicState(m, "w"), {"a": deep}, true_(), profile("K"))
    with pytest.raises(errors.InvalidProblem):
        validate_problem(problem)


def test_validate_problem_rejects_frame_violations():
    problem = reduce_instance(EASY, Variant.K1)
    wrong = PlanningProblem(problem.initial, problem.actions, problem.goal, profile("S5"))
    with pytest.raises(errors.InvalidProblem):
        validate_problem(wrong)


def test_s5_solver_guards():
    problem = reduce_instance(EASY, Variant.MULTI_S5)
    with pytest.raises(errors.NotSingleAgent):
        s5_single_agent_plan(problem)
    k_problem = reduce_instance(EASY, Variant.K1)
    with pytest.raises(errors.NotEuclidean):
        s5_single_agent_plan(k_problem)


def test_s5_solver_terminates_without_bound_reached():
    outcome = s5_single_agent_plan(sat_to_ep(parse("p & !p")))
    assert isinstance(outcome, NoPlanExhausted)


def test_bfs_agrees_with_s5_solver_on_small_sat_instances():
    import random

    from epiplan.suites import random_propositional

    rng = random.Random(41)
    for _ in range(25):
        variables = [f"v{i}" for i in range(rng.randint(1, 4))]
        problem = sat_to_ep(random_propositional(rng, variables))
        fast = s5_single_agent_plan(problem)
        slow = bfs_plan(problem, SearchBudget(max_depth=6, max_nodes=10000))
        assert isinstance(fast, PlanFound) == isinstance(slow, PlanFound)


def test_stats_and_outcome_json():
    problem = reduce_instance(EASY, Variant.K1)
    outcome = bfs_plan(problem, budget())
    doc = outcome.to_json()
    assert doc["outcome"] == "plan_found"
    assert doc["stats"]["nodes"] >= 1
    assert outcome.exit_code == 0
    assert NoPlanExhausted(outcome.stats).exit_code == 1
    assert BoundReached(outcome.stats).exit_code == 2


def test_stop_reason_names_what_ended_the_search(monkeypatch):
    from epiplan import planner

    problem = reduce_instance(EASY, Variant.K1)
    trivial = PlanningProblem(problem.initial, problem.actions, true_(), problem.logic)
    assert bfs_plan(trivial, budget()).stats.stop_reason == "goal"
    assert bfs_plan(problem, budget()).stats.stop_reason == "goal"
    exhausted = bfs_plan(sat_to_ep(parse("p & !p")), budget())
    assert isinstance(exhausted, NoPlanExhausted) and exhausted.stats.stop_reason == "exhausted"
    unsolvable = reduce_instance(UNSOLVABLE, Variant.K1)
    by_depth = bfs_plan(unsolvable, SearchBudget(max_depth=2, max_nodes=100000))
    assert by_depth.stats.stop_reason == "depth" and by_depth.stats.nodes < 100000
    by_nodes = bfs_plan(unsolvable, SearchBudget(max_depth=30, max_nodes=5))
    assert by_nodes.stats.stop_reason == "nodes" and by_nodes.stats.depth < 30
    assert by_nodes.to_json()["stats"]["stop_reason"] == "nodes"
    # The S5 solver's depth cut is the state-space diameter, so a depth stop
    # there is exhaustion.  Without reflexivity the cut is reached: u's
    # cluster {v} empties out under `cut`, a new state at depth 1, the cut.
    from epiplan.action import make_action
    from epiplan.formula import false_
    from epiplan.frames import FrameCondition, custom_profile
    from epiplan.kripke import EpistemicState, make_model

    model = make_model(["u", "v"], 1, [{("u", "v"), ("v", "v")}], {"u": {"p"}, "v": {"p"}})
    cut = make_action(["e", "f"], 1, [{("e", "f"), ("f", "f")}],
                      {"e": true_(), "f": false_()}, "e")
    problem = PlanningProblem(EpistemicState(model, "u"), {"cut": cut}, false_(),
                              custom_profile([FrameCondition.EUCLIDEAN]))
    inner = []
    original = planner._bfs

    def spy(*args, **kw):
        result = original(*args, **kw)
        inner.append((type(result), result.stats.stop_reason, result.stats.nodes))
        return result

    monkeypatch.setattr(planner, "_bfs", spy)
    outcome = s5_single_agent_plan(problem)
    assert inner == [(BoundReached, "depth", 2)]
    assert isinstance(outcome, NoPlanExhausted) and outcome.stats.stop_reason == "exhausted"


def _one_world_problem(goal, actions=None):
    from epiplan.kripke import EpistemicState, make_model

    m = make_model(["w"], 1, [{("w", "w")}], {"w": {"p"}})
    return PlanningProblem(EpistemicState(m, "w"), actions or {}, goal, profile("K"))


def test_goals_naming_a_missing_agent_are_invalid_whatever_the_order():
    # the evaluator short-circuits, so before validation `!p & K{3} q` gave
    # NoPlanExhausted and `p & K{3} q` raised UnknownAgent
    for goal in ("!p & K{3} q", "p & K{3} q", "p | <K{1}> q"):
        with pytest.raises(errors.InvalidProblem, match="the goal names agent"):
            bfs_plan(_one_world_problem(parse(goal)), SearchBudget(3, 10))


def test_preconditions_naming_a_missing_agent_are_invalid_on_any_event():
    from epiplan.action import make_action

    rel = [{("e", "e"), ("f", "f")}]
    for pre in ({"e": true_(), "f": parse("K{1} p")}, {"e": parse("!K{2} p"), "f": true_()}):
        action = make_action(["e", "f"], 1, rel, pre, "e")
        problem = _one_world_problem(parse("q"), {"a": action})
        with pytest.raises(errors.InvalidProblem, match="action 'a' event"):
            bfs_plan(problem, SearchBudget(3, 10))


def test_agent_check_is_immediate_on_shared_dags():
    from epiplan.formula import And, know, prop

    # 80 levels of `f & f`: 81 distinct nodes but 2**80 paths, so a check
    # that walked the tree would never finish
    f = know(0, prop("p"))
    for _ in range(80):
        f = And(f, f)
    validate_problem(_one_world_problem(f))
    with pytest.raises(errors.InvalidProblem, match="agent 5"):
        validate_problem(_one_world_problem(And(f, know(5, prop("p")))))


def test_s5_solver_rejects_a_goal_naming_a_missing_agent():
    from epiplan.formula import and_

    problem = sat_to_ep(parse("p | q"))
    wrong = PlanningProblem(
        problem.initial, problem.actions, and_(problem.goal, parse("K{3} p")), problem.logic
    )
    with pytest.raises(errors.InvalidProblem, match="agent 3"):
        s5_single_agent_plan(wrong)


def _counted_calls(monkeypatch, *names):
    """Count the planner's calls to each named function, in a dict by name."""
    from epiplan import planner

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(planner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(planner, name, counted)
    return calls


def _counted_keeps_state(monkeypatch, kept):
    """Replace ``planner.keeps_state`` by a wrapper that appends each answer to ``kept``."""
    from epiplan import planner

    def keeps_state(*args, _original=planner.keeps_state):
        kept.append(_original(*args))
        return kept[-1]

    monkeypatch.setattr(planner, "keeps_state", keeps_state)


def test_dedup_hits_memo_hits_and_kept_children_are_counted(monkeypatch):
    from epiplan import bisim, planner
    from epiplan.action import make_action

    calls = _counted_calls(monkeypatch, "minimize_with_key", "product_update")
    # the planner re-exports ``bisimilar`` for the benchmark's tracer; neither
    # that name nor ``bisim.bisimilar`` may be called by a search
    compared = []
    monkeypatch.setattr(bisim, "bisimilar", lambda *args: compared.append(args))
    monkeypatch.setattr(planner, "bisimilar", bisim.bisimilar)
    kept = []
    _counted_keeps_state(monkeypatch, kept)
    # "copy" doubles the world into a bisimilar but larger product (a dedup
    # hit found by its key); "id" keeps the start state exactly (a memo hit),
    # so the search builds no product for it: each child is built or kept
    copy = make_action(
        ["e", "f"], 1, [{("e", "e"), ("e", "f"), ("f", "f")}], {"e": true_(), "f": true_()}, "e"
    )
    ident = make_action(["e"], 1, [{("e", "e")}], {"e": true_()}, "e")
    problem = _one_world_problem(parse("q"), {"copy": copy, "id": ident})
    outcome = bfs_plan(problem, SearchBudget(2, 10))
    assert isinstance(outcome, NoPlanExhausted)
    assert (outcome.stats.nodes, outcome.stats.dedup_hits) == (1, 2)
    assert (calls["product_update"], kept.count(True)) == (1, 1)
    memo_hits = calls["product_update"] + kept.count(True) - (calls["minimize_with_key"] - 1)
    assert memo_hits == outcome.stats.memo_hits == 1
    assert outcome.to_json()["stats"]["memo_hits"] == 1
    assert compared == []


def test_searches_build_no_world_names(monkeypatch):
    from epiplan import kripke
    from epiplan.action import apply_plan

    built = []
    original = kripke._Names.build

    def counted(self, source):
        built.append(len(self.picks))
        return original(self, source)

    monkeypatch.setattr(kripke._Names, "build", counted)
    for variant in Variant:
        problem = reduce_instance(EASY, variant)
        outcome = bfs_plan(problem, budget(depth=4, nodes=300))
        assert outcome.stats.nodes > 1
    assert isinstance(s5_single_agent_plan(sat_to_ep(parse("(p | q) & (!p | !q)"))), PlanFound)
    assert built == []
    # names are built once read: one level per update of the plan
    problem = reduce_instance(EASY, Variant.K1)
    plan = bfs_plan(problem, budget()).plan
    final = apply_plan(problem.initial, problem.actions, list(plan))
    assert built == []
    assert final.designated.startswith("((((")
    assert len(built) == len(plan)


def test_kept_states_change_no_count_plan_or_key(monkeypatch):
    # with the shortcut off, every child is built and minimized; the stats,
    # plans and final keys must be those of the search that keeps states
    from epiplan import planner

    formulas = ("(p | q) & (!p | !q)", "p & !p", "(a | b | c) & (!a | !b) & (!b | !c) & (!a | !c)",
                "(a | !b) & (b | !c) & (c | !a) & (!a | !b | !c)")

    def pcp_searches():
        return [bfs_plan(reduce_instance(EXAMPLE, variant), budget(depth=6, nodes=300)).to_json()
                for variant in Variant]

    def sat_searches():
        return [s5_single_agent_plan(sat_to_ep(parse(f))).to_json() for f in formulas]

    kept = []
    _counted_keeps_state(monkeypatch, kept)
    pcp = pcp_searches()
    kept_on_pcp = kept.count(True)
    sat = sat_searches()
    assert kept_on_pcp > 0 and kept.count(True) > kept_on_pcp
    monkeypatch.setattr(planner, "keeps_state", lambda state, action: False)
    assert (pcp_searches(), sat_searches()) == (pcp, sat)


def test_a_search_with_only_the_identity_action_builds_no_product(monkeypatch):
    from epiplan.action import make_action

    calls = _counted_calls(monkeypatch, "minimize_with_key", "product_update")
    problem = reduce_instance(EXAMPLE, Variant.MULTI_S5)
    agents = problem.initial.model.agents
    ident = make_action(["e"], agents, [{("e", "e")}] * agents, {"e": true_()}, "e")
    outcome = bfs_plan(PlanningProblem(problem.initial, {"id": ident}, problem.goal, problem.logic),
                       budget(depth=3, nodes=10))
    assert isinstance(outcome, NoPlanExhausted)
    assert (outcome.stats.nodes, outcome.stats.dedup_hits, outcome.stats.memo_hits) == (1, 1, 1)
    assert calls == {"minimize_with_key": 1, "product_update": 0}


def test_a_kept_state_missing_the_memo_is_stored_there(monkeypatch):
    # "cut" leaves the designated world alone with no edge: the child is the
    # generated part of its product, so its own identity is not in the memo;
    # at the child all three actions keep it, the first misses the memo and
    # stores the child's key, and the other two hit
    from epiplan import planner
    from epiplan.action import make_action
    from epiplan.kripke import EpistemicState, make_model

    m = make_model(["u", "v"], 1, [{("u", "v")}], {"u": {"p"}, "v": {"q"}})
    cut = make_action(["e", "f"], 1, [{("e", "e")}], {"e": parse("p"), "f": parse("q")}, "e")
    ident = make_action(["e"], 1, [{("e", "e")}], {"e": true_()}, "e")
    problem = PlanningProblem(EpistemicState(m, "u"), {"cut": cut, "id": ident, "id2": ident},
                              parse("r"), profile("K"))
    kept = []
    _counted_keeps_state(monkeypatch, kept)
    outcome = bfs_plan(problem, budget(depth=3, nodes=10))
    assert kept == [False, True, True, True, True, True]
    assert vars(outcome.stats) == {"nodes": 2, "dedup_hits": 5, "depth": 1, "memo_hits": 4,
                                   "stop_reason": "exhausted"}
    monkeypatch.setattr(planner, "keeps_state", lambda state, action: False)
    assert bfs_plan(problem, budget(depth=3, nodes=10)).stats == outcome.stats


def test_final_key_is_the_canonical_key_of_the_replayed_plan():
    # the last steps of each variant's witness plan on EXAMPLE, searched for
    # from the state the plan reaches before them, and a start state that is
    # the goal; the key must be the printed bytes, not the in-search key
    from epiplan.action import apply_plan
    from epiplan.bisim import canonical_key
    from epiplan.pcp import brute_force_match

    match = brute_force_match(EXAMPLE, 4)
    problems = []
    for variant in Variant:
        problem = reduce_instance(EXAMPLE, variant)
        plan = match_to_plan(EXAMPLE, match, variant)
        start = apply_plan(problem.initial, problem.actions, list(plan[:-5]), minimize=True)
        problems.append(PlanningProblem(start, problem.actions, problem.goal, problem.logic))
    easy = reduce_instance(EASY, Variant.K1)
    problems.append(easy)
    problems.append(PlanningProblem(easy.initial, easy.actions, true_(), easy.logic))
    for problem in problems:
        outcome = bfs_plan(problem, budget(depth=5, nodes=2000))
        assert isinstance(outcome, PlanFound)
        final = apply_plan(problem.initial, problem.actions, list(outcome.plan), minimize=True)
        assert type(outcome.final_key) is bytes
        assert outcome.final_key == canonical_key(final)
        assert outcome.to_json()["final_key"] == canonical_key(final).hex()
    assert [len(bfs_plan(p, budget(depth=5)).plan) for p in problems] == [5, 5, 5, 5, 4, 0]


def test_search_memory_grows_linearly_with_the_node_budget():
    # an unsatisfiable formula over 12 variables: every state has at most 13
    # worlds, so what the search keeps per node is bounded.  Four times the
    # nodes may take at most twice the traced peak per node, 8 times the
    # peak, and a peak quadratic in the nodes would take 16 times.  An
    # untraced run first fills the process's caches, so that neither peak
    # counts them.  It also fills the interpreter's free lists of small
    # tuples and lists, and what a traced run takes from those is not
    # traced: they serve a larger share of a smaller search.  That is why
    # the peak per node still rises (636, 837, 1 290 and 1 319 B at 125,
    # 250, 500 and 1 000 nodes); with the free lists emptied before tracing
    # it falls (2 000, 1 904, 1 757 and 1 720 B).
    import tracemalloc

    problem = sat_to_ep(parse("p & !p & (" + " | ".join(f"x{i}" for i in range(12)) + ")"))
    bfs_plan(problem, budget(depth=14, nodes=250))
    peaks = []
    for nodes in (250, 1000):
        tracemalloc.start()
        try:
            outcome = bfs_plan(problem, budget(depth=14, nodes=nodes))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, BoundReached) and outcome.stats.stop_reason == "nodes"
    assert peaks[1] <= 2 * 4 * peaks[0], peaks
