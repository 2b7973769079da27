"""Compiler-level checks: counts, named formulas, oracles, witnesses, failure."""
import gc
import json
import random
from collections import Counter

import pytest

from epiplan import errors, formula, reduction
from epiplan.action import FailureAt, action_to_json, applicable, apply_plan, product_update
from epiplan.bisim import bisimilar, canonical_key
from epiplan.formula import (
    FalseF,
    Formula,
    Not,
    Prop,
    and_,
    diamond,
    evaluate,
    false_,
    implies,
    know,
    not_,
    or_,
    parse,
    prop,
    propositions,
    true_,
)
from epiplan.frames import PROFILES, FrameCondition, closure, satisfies
from epiplan.kripke import EpistemicState, KripkeModel, _Names, state_to_json
from epiplan.pcp import brute_force_match, make_instance, matched_word
from epiplan.planner import BoundReached, SearchBudget, bfs_plan
from epiplan.problem import problem_from_json, problem_to_json, validate_problem
from epiplan.reduction import (
    Variant,
    match_to_plan,
    module,
    plan_match_prefix,
    reduce_instance,
    sat_to_ep,
)
from epiplan.reduction.common import with_empty
from epiplan.suites import random_state

EXAMPLE = make_instance([("1", "101"), ("10", "00"), ("011", "11")])


def test_action_counts():
    assert len(reduce_instance(EXAMPLE, Variant.K1).actions) == 6          # n + 1 + 2
    assert len(reduce_instance(EXAMPLE, Variant.MULTI_S5).actions) == 7    # n + 1 + 3
    assert len(reduce_instance(EXAMPLE, Variant.KTB1).actions) == 8        # n + 1 + 4
    assert len(reduce_instance(EXAMPLE, Variant.S4_1).actions) == 7        # n + 1 + 3


def test_k1_goal_formula():
    goal = module(Variant.K1).goal
    tail = and_(or_(prop("a"), prop("b")), know(0, not_(or_(prop("0"), prop("1")))))
    failed = and_(or_(prop("a"), prop("b")), know(0, not_(prop("ntF"))))
    assert goal == and_(know(0, not_(prop("empty"))), know(0, and_(tail, not_(failed))))


def test_named_formulas():
    k1, multi, ktb = module(Variant.K1), module(Variant.MULTI_S5), module(Variant.KTB1)
    assert k1.failed == and_(or_(prop("a"), prop("b")), know(0, not_(prop("ntF"))))
    assert k1.loop_marker("a") == and_(prop("a"), diamond(0, prop("lp")))
    assert module(Variant.S4_1).nxt("#") == or_(prop("0"), prop("1"))
    assert ktb.nxt("0") == prop("#1")
    assert multi.ag1 == parse("root | 0 | 1")
    with pytest.raises(ValueError):
        ktb.nxt("7")
    with pytest.raises(ValueError):
        multi.tail(7)
    with pytest.raises(ValueError):
        k1.loop_marker("c")


@pytest.mark.parametrize("variant,symbols", [
    (Variant.K1, ("#", "a", "7")),
    (Variant.MULTI_S5, ("#1", "a", "7")),
    (Variant.KTB1, ("#", "a", "7")),
    (Variant.S4_1, ("#2", "a", "7")),
])
def test_remove_symbol_rejects_symbols_outside_the_alphabet(variant, symbols):
    mod = module(variant)
    for symbol in symbols:
        with pytest.raises(ValueError, match="no removal symbol"):
            mod.remove_symbol(symbol)
    assert mod.remove_symbol.cache_info().currsize <= len(mod.REMOVAL_ALPHABET)


def test_instance_independent_parts_are_built_once():
    for variant in Variant:
        mod = module(variant)
        assert mod.next_stage() is mod.next_stage(), variant
        assert mod.initial_state() is mod.initial_state(), variant
        for s in mod.REMOVAL_ALPHABET:
            assert mod.remove_symbol(s) is mod.remove_symbol(s), (variant, s)
        problem = reduce_instance(EXAMPLE, variant)
        assert problem.initial is mod.initial_state()
        assert problem.goal is mod.goal, variant
        assert problem.actions["next_stage"] is mod.next_stage()


def test_searches_leave_compiled_problems_unchanged():
    other = make_instance([("0", "01"), ("110", "1")])
    for variant in Variant:
        mod = module(variant)
        before = json.dumps(problem_to_json(reduce_instance(EXAMPLE, variant)), sort_keys=True)
        bfs_plan(reduce_instance(other, variant), SearchBudget(max_depth=5, max_nodes=80))
        after = json.dumps(problem_to_json(reduce_instance(EXAMPLE, variant)), sort_keys=True)
        assert before == after, variant
        # the shared parts still equal fresh builds, whatever ran before
        assert state_to_json(mod.initial_state()) == state_to_json(mod.initial_state.__wrapped__())
        assert action_to_json(mod.next_stage()) == action_to_json(mod.next_stage.__wrapped__())
        for s in mod.REMOVAL_ALPHABET:
            assert action_to_json(mod.remove_symbol(s)) == action_to_json(
                mod.remove_symbol.__wrapped__(s)), (variant, s)


def test_shared_start_state_memo_stays_bounded():
    # The start model's memo holds one mask per precondition subformula
    # evaluated on it; the preconditions come from a finite family per
    # variant, so more instances add no entries once it is covered.
    rng = random.Random(7)

    def word():
        return "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))

    instances = [make_instance([(word(), word()) for _ in range(rng.randint(1, 3))])
                 for _ in range(20)]
    for variant in Variant:
        mod = module(variant)
        sizes = []
        for inst in instances:
            bfs_plan(reduce_instance(inst, variant), SearchBudget(max_depth=2, max_nodes=40))
            sizes.append(len(mod.initial_state().model.formula_memo()))
        assert 0 < sizes[9] == sizes[19], (variant, sizes)


def test_oracle_flavors():
    k1 = module(Variant.K1)
    s = k1.family("", "", "plain")
    assert set(s.model.worlds) == {"w_root", "w_a", "w_b", "w_ntF"}
    loop = k1.family("10", "0", "loop")
    chain_a = [w for w in loop.model.worlds if w.startswith("w_{a,")]
    chain_b = [w for w in loop.model.worlds if w.startswith("w_{b,")]
    assert len(chain_a) == 2 and len(chain_b) == 1
    with pytest.raises(errors.IllegalFlavor):
        k1.family("", "", "minus_hash1")
    with pytest.raises(errors.IllegalFlavor):
        module(Variant.MULTI_S5).family("", "", "minus_hash2")
    with pytest.raises(ValueError):
        k1.family("12", "", "plain")


@pytest.mark.parametrize("variant,hits", [
    (Variant.K1, 10), (Variant.MULTI_S5, 183), (Variant.KTB1, 68), (Variant.S4_1, 39),
])
def test_bounded_search_counts_on_the_example(variant, hits):
    # Pins the search from each compiled start state: a change to a
    # compiler, the product update or dedup moves these counts.
    outcome = bfs_plan(reduce_instance(EXAMPLE, variant), SearchBudget(max_depth=6, max_nodes=300))
    assert isinstance(outcome, BoundReached)
    assert (outcome.stats.nodes, outcome.stats.depth) == (300, 5)
    assert (outcome.stats.dedup_hits, outcome.stats.memo_hits) == (hits, hits)


def test_initial_state_not_bisimilar_to_empty_loop_family():
    for variant in Variant:
        mod = module(variant)
        assert not bisimilar(mod.initial_state(), mod.family("", "", "loop"))


@pytest.mark.parametrize("variant", list(Variant))
def test_witness_plan_reaches_goal(variant):
    match = brute_force_match(EXAMPLE, 4)
    plan = match_to_plan(EXAMPLE, match, variant)
    problem = reduce_instance(EXAMPLE, variant)
    validate_problem(problem)
    final = apply_plan(problem.initial, problem.actions, plan, minimize=True)
    assert not isinstance(final, FailureAt)
    assert evaluate(final, problem.goal)


def test_witness_plan_lengths():
    match = brute_force_match(EXAMPLE, 4)
    assert match == (1, 3, 2, 3)  # matched word 101110011

    def removals(*separators):
        return [f"remove_{s}" for bit in "110011101" for s in (*separators, bit)]

    adds = ["ad_1", "ad_3", "ad_2", "ad_3", "next_stage"]
    assert match_to_plan(EXAMPLE, match, Variant.K1) == tuple(adds + removals())
    assert match_to_plan(EXAMPLE, match, Variant.MULTI_S5) == tuple(adds + removals("#"))
    assert match_to_plan(EXAMPLE, match, Variant.KTB1) == tuple(adds + removals("#2", "#1"))
    assert match_to_plan(EXAMPLE, match, Variant.S4_1) == tuple(
        ["ad_3", "ad_2", "ad_3", "ad_1", "next_stage"] + removals("#")
    )
    assert [len(match_to_plan(EXAMPLE, match, v)) for v in Variant] == [14, 23, 32, 23]
    with pytest.raises(errors.NotAMatch):
        match_to_plan(EXAMPLE, (1, 2), Variant.K1)


def test_dropping_last_removal_misses_goal():
    match = brute_force_match(EXAMPLE, 4)
    plan = match_to_plan(EXAMPLE, match, Variant.K1)
    problem = reduce_instance(EXAMPLE, Variant.K1)
    final = apply_plan(problem.initial, problem.actions, plan[:-1], minimize=True)
    assert not isinstance(final, FailureAt)
    assert not evaluate(final, problem.goal)


def test_plan_match_prefix():
    match = brute_force_match(EXAMPLE, 4)
    for variant in Variant:
        plan = match_to_plan(EXAMPLE, match, variant)
        assert plan_match_prefix(plan, variant) == match
    with pytest.raises(errors.NotAMatch):
        plan_match_prefix(["next_stage"], Variant.K1)


def test_failed_state_check_examples():
    for variant in Variant:
        mod = module(variant)
        clean = mod.family("10", "0", "plain")
        assert not mod.failed_state(clean)
        # first-stage states violate the stage clause at the root
        assert not mod.failed_state(mod.family("10", "0", "loop"))
        # both rows end in 0 (and, where there are separators, a separator
        # is pending), so removing a 1 is wrong
        wrong = mod.remove_symbol("1")
        assert applicable(clean, wrong)
        product = product_update(clean, wrong)
        assert mod.failed_state(product), variant
        # the check reads no world name, so none is built
        assert type(product.model._worlds) is _Names, variant


@pytest.mark.parametrize("variant", list(Variant))
def test_failure_absorption_per_variant(variant):
    from epiplan.suites import run_failure_absorption

    report = run_failure_absorption(cases=25, variant=variant)
    assert report.ok, report.failures[:5]


def test_frames_validated_for_closed_variants():
    for variant, name in [
        (Variant.MULTI_S5, "S5"),
        (Variant.KTB1, "KTB"),
        (Variant.S4_1, "S4"),
    ]:
        problem = reduce_instance(EXAMPLE, variant)
        assert satisfies(problem.initial.model, PROFILES[name])
        validate_problem(problem)


def _forced_by_w_empty(state, profile_name):
    """``common.with_empty`` derived by hand for presets of reflexivity,
    symmetry and transitivity: ``w_empty`` joins the root's agent-0 row and
    gets, under reflexivity, its self-loops; under transitivity, an agent-0
    edge from every world that sees the root; under symmetry, the edges
    back."""
    conds = PROFILES[profile_name]
    model = state.model
    root, n = state.designated_index, len(model.valuations)
    loop = (n,) if FrameCondition.REFLEXIVE in conds else ()
    rows = [[*row, loop] for row in model.rows]
    seers = [root]
    if FrameCondition.TRANSITIVE in conds:
        seers = [u for u, succ in enumerate(model.rows[0]) if u == root or root in succ]
    for u in seers:
        rows[0][u] += (n,)
    if FrameCondition.SYMMETRIC in conds:
        rows[0][n] = (*seers, *loop)
    grown = KripkeModel(model.worlds + ("w_empty",), tuple(map(tuple, rows)),
                        model.valuations + (frozenset({"empty"}),))
    return EpistemicState.at(grown, root)


def test_start_state_adds_only_what_w_empty_forces():
    for variant in Variant:
        mod = module(variant)
        start = mod.initial_state()
        assert start == _forced_by_w_empty(mod.family("", "", "loop"), mod.PROFILE_NAME)
        assert start.designated == "w_root" and start.model.worlds[-1] == "w_empty"
    # any state that meets a preset, pointed anywhere
    rng = random.Random(5)
    for _ in range(300):
        name = rng.choice(sorted(PROFILES))
        s = random_state(rng, agents=rng.randint(1, 3), max_worlds=6)
        closed = EpistemicState.at(closure(s.model, PROFILES[name]), s.designated_index)
        grown = with_empty(closed, name)
        assert grown == _forced_by_w_empty(closed, name), name
        assert satisfies(grown.model, PROFILES[name])
        # no edge between the old worlds is added
        n = len(closed.model.valuations)
        old = tuple(tuple(tuple(j for j in succ if j < n) for succ in row[:n])
                    for row in grown.model.rows)
        assert old == closed.model.rows, name


def test_problem_json_round_trip():
    problem = reduce_instance(EXAMPLE, Variant.K1)
    doc = problem_to_json(problem)
    again = problem_to_json(problem_from_json(doc))
    assert again == doc


def test_sat_to_ep_structure():
    problem = sat_to_ep(parse("p & !q"))
    assert set(problem.initial.model.worlds) == {"0", "p", "q"}
    assert problem.initial.designated == "0"
    assert sorted(problem.actions) == ["delete_p", "delete_q"]
    assert satisfies(problem.initial.model, PROFILES["S5"])
    with pytest.raises(errors.InvalidProblem):
        sat_to_ep(parse("K p"))


def test_sat_to_ep_examples():
    from epiplan.planner import NoPlanExhausted, PlanFound, s5_single_agent_plan

    assert s5_single_agent_plan(sat_to_ep(parse("p & q"))).plan == ()
    assert s5_single_agent_plan(sat_to_ep(parse("p & !q"))).plan == ("delete_q",)
    assert isinstance(s5_single_agent_plan(sat_to_ep(parse("p & !p"))), NoPlanExhausted)


def _reference_goal(f: Formula) -> Formula:
    """``p`` -> ``<K> p`` by plain recursion over the tree, with no memo."""
    if isinstance(f, Prop):
        return diamond(0, f)
    if isinstance(f, Not):
        return not_(_reference_goal(f.sub))
    if isinstance(f, FalseF):
        return f
    return and_(_reference_goal(f.left), _reference_goal(f.right))


def _shared_formula(rng: random.Random, steps: int) -> Formula:
    """A random propositional formula whose parts are drawn from a growing
    pool, so subformulas are shared; double negations, ``true`` and
    ``false`` occur."""
    pool = [prop(name) for name in "abcd"] + [true_(), false_()]
    for _ in range(steps):
        x, y, pick = rng.choice(pool), rng.choice(pool), rng.random()
        if pick < 0.25:
            pool.append(not_(not_(x)))
        elif pick < 0.4:
            pool.append(not_(x))
        elif pick < 0.7:
            pool.append(and_(x, y))
        elif pick < 0.9:
            pool.append(or_(x, y))
        else:
            pool.append(implies(x, y))
    return pool[-1]


def test_sat_goal_and_variables_match_a_recursive_reference():
    for seed in range(300):
        rng = random.Random(seed)
        phi = _shared_formula(rng, rng.randint(1, 12))
        problem = sat_to_ep(phi)
        assert problem.goal is _reference_goal(phi), seed
        assert problem.meta["variables"] == sorted(propositions(phi)), seed


def test_sat_compiles_a_deep_chain_and_a_shared_dag():
    # a 50 000-deep left-nested conjunction: the walk uses no recursion
    atoms = [prop(f"c{k}") for k in range(7)]
    phi, goal = atoms[0], diamond(0, atoms[0])
    for k in range(1, 50_000):
        atom = atoms[k % 7]
        phi, goal = and_(phi, atom), and_(goal, diamond(0, atom))
    problem = sat_to_ep(phi)
    assert problem.goal is goal
    assert problem.meta["variables"] == sorted(a.name for a in atoms)
    # 400 levels, 2**400 leaves as a tree: the walk maps each distinct node once
    phi, goal = prop("p"), diamond(0, prop("p"))
    for k in range(400):
        if k % 2:
            phi, goal = and_(phi, not_(not_(phi))), and_(goal, not_(not_(goal)))
        else:
            phi, goal = and_(phi, phi), and_(goal, goal)
    problem = sat_to_ep(phi)
    assert problem.goal is goal
    assert problem.meta["variables"] == ["p"]


def _every_key(roots) -> set[tuple]:
    """The intern-table keys of every node reached from ``roots``."""
    keys, stack = set(), list(roots)
    while stack:
        cls, fields = stack.pop().__reduce__()
        key = (cls, *fields)
        if key not in keys:
            keys.add(key)
            stack += [x for x in key[1:] if isinstance(x, Formula)]
    return keys


def test_sat_to_ep_builds_each_new_node_once(monkeypatch):
    # the intern table gains exactly the goal and precondition nodes that
    # were not live, and each of them is built once: a walk that builds a
    # node, drops it and builds it again fails here
    phi = parse("(bc_a | !bc_b | bc_c) & (!bc_a | bc_d | !bc_c) & (bc_b | !bc_d) & !(bc_e & bc_a)"
                " & (bc_e | bc_c | bc_d) & !!bc_b")
    table, real = formula._INTERN, formula._interned
    built = Counter()

    def counting(key):
        fresh = table.get(key, lambda: None)() is None
        node = real(key)
        if fresh:
            built[key] += 1
        return node

    enabled = gc.isenabled()
    gc.disable()
    try:
        before = {key for key, entry in list(table.items()) if entry() is not None}
        monkeypatch.setattr(formula, "_interned", counting)
        problem = sat_to_ep(phi)
        monkeypatch.undo()
        added = set(table) - before
    finally:
        if enabled:
            gc.enable()
    formulas = [problem.goal] + [pre for a in problem.actions.values() for pre in a.preconditions]
    expected = _every_key(formulas) - before
    assert len(expected) > 40
    assert added == expected
    assert built == Counter(dict.fromkeys(expected, 1))


def test_keys_of_lemma_pairs_coincide():
    mod = module(Variant.K1)
    s = mod.family("10", "0", "loop")
    grown = product_update(s, mod.add_block(1, ("1", "101")))
    target = mod.family("101", "0101", "loop")
    assert canonical_key(grown) == canonical_key(target)


# The compiler-module attributes every variant defines (see the reduction
# docstring); the bench tracer patches the six compile entry points by name.
VARIANT_INTERFACE = (
    "AGENTS", "PROFILE_NAME", "FLAVORS", "REMOVAL_ALPHABET", "PREPENDS_BLOCKS",
    "REMOVALS_NEED_BOTH_ROWS", "initial_state", "family", "add_block", "next_stage",
    "remove_symbol", "build_actions", "goal", "failed_state",
)


def test_variant_interface_and_seeded_suite_sizes():
    from epiplan import suites

    for name in VARIANT_INTERFACE:
        assert f"``{name}" in reduction.__doc__, name
    for variant in Variant:
        mod = module(variant)
        missing = [name for name in VARIANT_INTERFACE if not hasattr(mod, name)]
        assert not missing, (variant, missing)
        assert mod.PROFILE_NAME in PROFILES
        assert mod.REMOVAL_ALPHABET[:2] == ("0", "1")
        for s in mod.REMOVAL_ALPHABET[2:]:
            assert "minus_hash" + s[1:] in mod.FLAVORS, (variant, s)
    # Case counts at seed 1 change when a suite draws from its RNG in a
    # different order; the benchmark's recorded counts rest on them.
    sizes = {name: getattr(suites, name)(seed=1, pairs=1).cases
             for name in ("run_k1_lemmas", "run_multi_lemmas", "run_ktb_lemmas", "run_s4_lemmas")}
    assert sizes == {"run_k1_lemmas": 3, "run_multi_lemmas": 6,
                     "run_ktb_lemmas": 6, "run_s4_lemmas": 6}
    for variant in Variant:
        report = suites.run_failure_absorption(seed=1, cases=10, variant=variant)
        assert report.ok and report.cases == 50, (variant, report.to_json())


@pytest.mark.parametrize("name,pairs,cap", [
    ("run_k1_lemmas", 200, 6), ("run_multi_lemmas", 200, 6),
    ("run_ktb_lemmas", 100, 4), ("run_s4_lemmas", 100, 4),
])
def test_lemma_suites_default_pairs_and_word_caps(monkeypatch, name, pairs, cap):
    # The acceptance criteria run each lemma suite at its default size; a
    # pair's words are drawn up to the variant's cap, the instance's
    # blocks up to the instance cap.
    import inspect

    from epiplan import suites

    runner = getattr(suites, name)
    assert inspect.signature(runner).parameters["pairs"].default == pairs
    caps = []
    draw = suites._random_word
    monkeypatch.setattr(suites, "_random_word", lambda rng, n: caps.append(n) or draw(rng, n))
    assert runner(seed=1, pairs=2).ok
    assert set(caps) == {suites._INSTANCE_WORD, cap}
