"""Differential tests against slow references that share no engine code.

The references read only a model's ``worlds``, ``relations`` pairs and
``valuations``, a state's ``designated`` world and an action's public
fields; they never touch the integer successor rows, the bitmasks, the
refinement or the reachability walk that the engine runs on.  Models store
only the rows, so ``relations`` is a view derived from them; the JSON test
checks that view against the pair sets a model is built from, and the
frame-condition reference reads those input pair sets, not the view.  The
JSON round trips ride on the same random states.

``ref_search`` checks the whole search loop: it runs the planner's
breadth-first search on these references alone, over plain ``RefModel``
values, with bisimilarity by pair elimination in place of keys, and must
give the same verdict, plan and counts as ``bfs_plan``.

``ref_failed_state`` walks the compilers' failed-removal witness paths
over names, by ``ref_eval`` at each world; the compilers walk bitmasks.

One reference does read rows: ``ref_refine`` is the plain round-by-round
refinement (every world re-signed every round, stop on a round that splits
nothing), kept to pin the engine's exact block numbering and key bytes,
not just its partition: on random states, on every state a bounded search
of each compiled example minimizes, and on valuations whose names sort
differently from their encoded bytes.
"""
from __future__ import annotations

import functools
import itertools
import json
import pickle
import random
import re
import struct
from collections import deque
from dataclasses import replace
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from epiplan.action import (
    action_from_json,
    action_to_json,
    applicable,
    keeps_state,
    make_action,
    product_update,
)
from epiplan import planner
from epiplan.bisim import (_canonical_refine, _certify, _valuation_code, bisimilar,
                           canonical_key, minimize_with_key, quotient)
from epiplan.formula import (And, FalseF, Formula, Know, Not, Prop, and_, conj, diamond, disj,
                             evaluate, evaluate_at, extension_mask, know, not_, or_, parse, prop,
                             to_text)
from epiplan.frames import FrameCondition, closure, profile, satisfies
from epiplan.kripke import (
    EpistemicState,
    KripkeModel,
    generated_submodel,
    make_model,
    state_from_json,
    state_to_json,
)
from epiplan.pcp import make_instance
from epiplan.planner import SearchBudget, bfs_plan, s5_single_agent_plan
from epiplan.problem import PlanningProblem
from epiplan.reduction import Variant, module, reduce_instance, sat_to_ep
from epiplan.reduction.common import announcement
from epiplan.suites import mutate_bisimilar, random_action, random_formula, random_state

seeds = st.integers(0, 2**32 - 1)
agent_counts = st.integers(0, 3)


def _successors(model, agent, world):
    return {v for (u, v) in model.relations[agent] if u == world}


def _valuation(model, world):
    return model.valuations[model.worlds.index(world)]


def ref_eval(model, world, f) -> bool:
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Prop):
        return f.name in _valuation(model, world)
    if isinstance(f, Not):
        return not ref_eval(model, world, f.sub)
    if isinstance(f, And):
        return ref_eval(model, world, f.left) and ref_eval(model, world, f.right)
    assert isinstance(f, Know)
    return all(ref_eval(model, v, f.sub) for v in _successors(model, f.agent, world))


def ref_bisimulation(m1, m2) -> set:
    """The greatest bisimulation between two models, by pair elimination."""
    succ1 = [{w: _successors(m1, a, w) for w in m1.worlds} for a in range(m1.agents)]
    succ2 = [{w: _successors(m2, a, w) for w in m2.worlds} for a in range(m2.agents)]
    z = {
        (u, v) for u in m1.worlds for v in m2.worlds
        if _valuation(m1, u) == _valuation(m2, v)
    }
    changed = True
    while changed:
        changed = False
        for u, v in list(z):
            forth = all(
                any((u2, v2) in z for v2 in s2[v]) for s1, s2 in zip(succ1, succ2) for u2 in s1[u]
            )
            back = all(
                any((u2, v2) in z for u2 in s1[u]) for s1, s2 in zip(succ1, succ2) for v2 in s2[v]
            )
            if not (forth and back):
                z.discard((u, v))
                changed = True
    return z


def ref_bisimilar(s1, s2) -> bool:
    return (s1.designated, s2.designated) in ref_bisimulation(s1.model, s2.model)


def ref_generated(state):
    """(worlds, relations, valuations) of the part reachable from the designated world."""
    model = state.model
    pairs = model.relations
    succ: dict = {}
    for rel in pairs:
        for u, v in rel:
            succ.setdefault(u, []).append(v)
    reach, frontier = {state.designated}, [state.designated]
    while frontier:
        for v in succ.get(frontier.pop(), ()):
            if v not in reach:
                reach.add(v)
                frontier.append(v)
    worlds = tuple(w for w in model.worlds if w in reach)
    relations = tuple(
        frozenset((u, v) for u, v in rel if u in reach and v in reach) for rel in pairs
    )
    return worlds, relations, tuple(_valuation(model, w) for w in worlds)


def ref_product(state, action):
    """(worlds, relations, valuations, designated) of the product update."""
    model = state.model
    pre = dict(zip(action.events, action.preconditions))
    pairs = [(u, e) for u in model.worlds for e in action.events if ref_eval(model, u, pre[e])]
    name = {p: f"({p[0]},{p[1]})" for p in pairs}
    relations = tuple(
        frozenset(
            (name[(u, e)], name[(v, f)]) for (u, e) in pairs for (v, f) in pairs
            if (u, v) in rel and (e, f) in event_rel
        )
        for rel, event_rel in zip(model.relations, action.relations)
    )
    worlds = tuple(name[p] for p in pairs)
    vals = tuple(_valuation(model, u) for u, _ in pairs)
    return worlds, relations, vals, name[(state.designated, action.designated)]


class RefModel(NamedTuple):
    """A model as the references read it: names, name-pair relations, valuations."""

    worlds: tuple
    agents: int
    relations: tuple
    valuations: tuple


class RefState(NamedTuple):
    model: RefModel
    designated: str


def ref_contract(state) -> RefState:
    """The generated part, each class of the greatest bisimulation merged into its first world."""
    worlds, relations, vals = ref_generated(state)
    part = RefModel(worlds, state.model.agents, relations, vals)
    alike = ref_bisimulation(part, part)
    first = {w: next(v for v in worlds if (v, w) in alike) for w in worlds}
    kept = tuple(w for w in worlds if first[w] == w)
    rels = tuple(frozenset((first[u], first[v]) for u, v in rel) for rel in relations)
    kept_vals = tuple(_valuation(part, w) for w in kept)
    return RefState(RefModel(kept, part.agents, rels, kept_vals), first[state.designated])


def _ref_seen(state, visited) -> bool:
    """Linear-scan dedup; two contracted states can be bisimilar only at equal size."""
    size = len(state.model.worlds)
    return any(
        len(v.model.worlds) == size and ref_bisimilar(state, v) for v in visited
    )


def ref_search(start, actions, goal, max_depth, max_nodes) -> tuple:
    """The planner's breadth-first search on reference operations.

    Applicability and goals by ``ref_eval``, successors by ``ref_product``,
    dedup by ``ref_bisimilar`` against every state seen so far.  Actions are
    expanded in sorted name order and the goal is checked on new nodes, with
    the planner's budget rules.  Returns (outcome, plan, nodes, dedup hits,
    depth); the plan is None unless one was found.
    """
    start = ref_contract(start)
    nodes, dedup, depth = 1, 0, 0
    if ref_eval(start.model, start.designated, goal):
        return "PlanFound", (), nodes, dedup, depth
    visited, queue, truncated = [start], deque([(start, ())]), False
    while queue:
        state, plan = queue.popleft()
        depth = max(depth, len(plan))
        if len(plan) >= max_depth:
            truncated = True
            continue
        for name in sorted(actions):
            action = actions[name]
            pre = dict(zip(action.events, action.preconditions))[action.designated]
            if not ref_eval(state.model, state.designated, pre):
                continue
            worlds, relations, vals, designated = ref_product(state, action)
            product = RefModel(worlds, state.model.agents, relations, vals)
            child, child_plan = ref_contract(RefState(product, designated)), plan + (name,)
            if _ref_seen(child, visited):
                dedup += 1
                continue
            nodes += 1
            depth = max(depth, len(child_plan))
            if ref_eval(child.model, child.designated, goal):
                return "PlanFound", child_plan, nodes, dedup, depth
            visited.append(child)
            if nodes >= max_nodes:
                return "BoundReached", None, nodes, dedup, depth
            queue.append((child, child_plan))
    return ("BoundReached" if truncated else "NoPlanExhausted"), None, nodes, dedup, depth


def _summary(outcome) -> tuple:
    stats = outcome.stats
    plan = getattr(outcome, "plan", None)
    return type(outcome).__name__, plan, stats.nodes, stats.dedup_hits, stats.depth


def ref_failed_state(variant: Variant, state) -> bool:
    """The compilers' failed-removal walks over names, by ``ref_eval`` at each world.

    Once the root has left stage one, a walk starts at the root's agent-0
    successors other than the root.  S4_1 fails when one of them is
    ``damaged``.  The others start at those on a branch: K1 and KTB1 follow
    agent 0 through ``symb`` worlds to a ``failed`` one; MultiS5 alternates
    agents from agent 1, an ``ag1`` world stepping only to ``ag2`` worlds
    and vice versa, to a marked world that sees no ``ntF`` world under the
    agent the walk would take next.
    """
    mod = module(variant)
    m = state.model
    model = RefModel(m.worlds, m.agents, m.relations, m.valuations)
    root = state.designated
    if not ref_eval(model, root, and_(prop("root"), know(0, not_(prop("stg1"))))):
        return False
    below = _successors(model, 0, root) - {root}
    if variant is Variant.S4_1:
        return any(ref_eval(model, w, mod.damaged) for w in below)
    frontier = {w for w in below if ref_eval(model, w, or_(prop("a"), prop("b")))}
    if variant is not Variant.MULTI_S5:
        seen = set(frontier)
        while frontier:
            if any(ref_eval(model, w, mod.failed) for w in frontier):
                return True
            frontier = {v for w in frontier for v in _successors(model, 0, w)
                        if v not in seen and ref_eval(model, v, mod.symb)}
            seen |= frontier
        return False
    agent, seen = 1, {(w, 1) for w in frontier}
    while frontier:
        for w in frontier:
            marked = any(ref_eval(model, w, prop(p)) for p in ("a", "b", "0", "1", "#"))
            if marked and ref_eval(model, w, know(agent, not_(prop("ntF")))):
                return True
        step = set()
        for w in frontier:
            one, two = ref_eval(model, w, mod.ag1), ref_eval(model, w, mod.ag2)
            step |= {v for v in _successors(model, agent, w)
                     if not (one and not ref_eval(model, v, mod.ag2))
                     and not (two and not ref_eval(model, v, mod.ag1))}
        agent = 1 - agent
        frontier = {v for v in step if (v, agent) not in seen}
        seen |= {(v, agent) for v in frontier}
    return False


def ref_refine(valuations, rows) -> tuple[list[int], int]:
    """Canonical block ids by full rounds: each world's signature is its block
    and, per agent, the bitmask of its successors' blocks; blocks are renumbered
    in sorted signature order until a round splits nothing."""
    vals = [tuple(sorted(v)) for v in valuations]
    first = {v: r for r, v in enumerate(sorted(set(vals)))}
    block = [first[v] for v in vals]
    while True:
        sigs = [
            (block[i], *(sum({1 << block[j] for j in row[i]}) for row in rows))
            for i in range(len(vals))
        ]
        number = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        renumbered = [number[sig] for sig in sigs]
        if len(number) == len(set(block)):
            return renumbered, len(number)
        block = renumbered


def _ref_minimized(state):
    """``ref_refine`` on the part reachable over pairs: its worlds, valuations
    and rows, the block ids and count, and each block's first world."""
    worlds, relations, vals = ref_generated(state)
    rows = make_model(worlds, state.model.agents, relations, dict(zip(worlds, vals))).rows
    block, count = ref_refine(vals, rows)
    first = {}
    for i, b in enumerate(block):
        first.setdefault(b, i)
    return worlds, vals, rows, block, count, first


def ref_key(state) -> bytes:
    """The key layout of ``minimize_with_key``, packed field by field from
    ``ref_refine`` on the part reachable over pairs."""
    worlds, vals, rows, block, count, first = _ref_minimized(state)
    out = struct.pack(">III", state.model.agents, count, block[worlds.index(state.designated)])
    for b in range(count):
        i = first[b]
        names = sorted(vals[i])
        out += struct.pack(">I", len(names))
        for name in names:
            raw = name.encode("utf-8")
            out += struct.pack(">I", len(raw)) + raw
        for row in rows:
            ranks = sorted({block[j] for j in row[i]})
            out += struct.pack(">I", len(ranks))
            for r in ranks:
                out += struct.pack(">I", r)
    return out


def ref_search_key(state, table) -> tuple:
    """The in-search key layout of ``minimize_with_key`` with ``table``: the
    designated block, the table's id of each block's valuation (one byte
    each when all of them fit, else a tuple), and one int whose fields,
    ``count`` bits each, hold per block and agent the set of successor
    blocks; field ``f = block * agents + agent`` sits ``f`` fields below
    the top one."""
    worlds, vals, rows, block, count, first = _ref_minimized(state)
    fields = count * len(rows)
    masks = 0
    for b in range(count):
        for a, row in enumerate(rows):
            for r in {block[j] for j in row[first[b]]}:
                masks += 1 << ((fields - 1 - (b * len(rows) + a)) * count + r)
    vids = [table[frozenset(vals[first[b]])] for b in range(count)]
    vids = bytes(vids) if all(v < 256 for v in vids) else tuple(vids)
    return block[worlds.index(state.designated)], vids, masks


def _assert_keys_match(keys, canonical) -> int:
    """In-search keys are equal exactly where canonical keys are: each maps to
    one of the other, both ways.  Returns the number of distinct keys."""
    by_key, by_canonical = {}, {}
    for key, canon in zip(keys, canonical, strict=True):
        assert by_key.setdefault(key, canon) == canon, key
        assert by_canonical.setdefault(canon, key) == key, key
    return len(by_key)


def _union(m1, m2) -> KripkeModel:
    """The disjoint union of two models, the second's indices after the first's."""
    off = len(m1.worlds)
    rows = tuple(
        r1 + tuple(tuple(j + off for j in succ) for succ in r2) for r1, r2 in zip(m1.rows, m2.rows)
    )
    worlds = tuple(f"l{w}" for w in m1.worlds) + tuple(f"r{w}" for w in m2.worlds)
    return KripkeModel(worlds, rows, m1.valuations + m2.valuations)


def ref_holds(worlds, pairs, cond) -> bool:
    """Whether one relation, given as name pairs, meets one frame condition."""
    if cond is FrameCondition.REFLEXIVE:
        return all((w, w) in pairs for w in worlds)
    if cond is FrameCondition.SYMMETRIC:
        return all((v, u) in pairs for u, v in pairs)
    if cond is FrameCondition.TRANSITIVE:
        return all((u, x) in pairs for u, v in pairs for w, x in pairs if v == w)
    assert cond is FrameCondition.EUCLIDEAN
    return all((v, x) in pairs for u, v in pairs for w, x in pairs if u == w)


def ref_close(worlds, pairs, conds) -> frozenset:
    """The least superset of ``pairs`` meeting ``conds``: add what each demands until stable."""
    rel = set(pairs)
    while True:
        need = set()
        if FrameCondition.REFLEXIVE in conds:
            need |= {(w, w) for w in worlds}
        if FrameCondition.SYMMETRIC in conds:
            need |= {(v, u) for u, v in rel}
        if FrameCondition.TRANSITIVE in conds:
            need |= {(u, x) for u, v in rel for w, x in rel if v == w}
        if FrameCondition.EUCLIDEAN in conds:
            need |= {(v, x) for u, v in rel for w, x in rel if u == w}
        if need <= rel:
            return frozenset(rel)
        rel |= need


CONDITION_SETS = [
    frozenset(c) for k in range(len(FrameCondition) + 1)
    for c in itertools.combinations(FrameCondition, k)
]


def _pair_sets(rng: random.Random, agents: int) -> tuple[list[str], tuple[frozenset, ...]]:
    """Random world names and one random pair set per agent over them."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 5))]
    density = rng.random()
    return worlds, tuple(
        frozenset((u, v) for u in worlds for v in worlds if rng.random() < density)
        for _ in range(agents)
    )


def _state(rng: random.Random, agents: int) -> EpistemicState:
    """A random state, half the time the product of one with a random action."""
    state = random_state(rng, agents=agents, max_worlds=6)
    if rng.random() < 0.5:
        action = random_action(rng, agents)
        if applicable(state, action):
            state = product_update(state, action)
    return state


def _near(rng: random.Random, state: EpistemicState) -> EpistemicState:
    """A bisimilar copy, sometimes with one edge dropped (then maybe not bisimilar)."""
    other = mutate_bisimilar(rng, state)
    m = other.model
    rels = [set(rel) for rel in m.relations]
    if rng.random() < 0.5 and any(rels):
        rel = rng.choice([r for r in rels if r])
        rel.discard(rng.choice(sorted(rel)))
    return EpistemicState(make_model(m.worlds, m.agents, rels, dict(zip(m.worlds, m.valuations))),
                          other.designated)


@settings(max_examples=300, deadline=None)
@given(seeds, agent_counts)
def test_bisimilar_and_key_equality_match_pair_elimination(seed, agents):
    rng = random.Random(seed)
    s1 = _state(rng, agents)
    s2 = _near(rng, s1) if rng.random() < 0.7 else _state(rng, agents)
    expected = ref_bisimilar(s1, s2)
    assert bisimilar(s1, s2) == expected
    assert (canonical_key(s1) == canonical_key(s2)) == expected


@settings(max_examples=200, deadline=None)
@given(seeds, agent_counts)
def test_quotient_is_a_minimal_bisimilar_idempotent_state(seed, agents):
    rng = random.Random(seed)
    s = _state(rng, agents)
    action = random_action(rng, agents)
    if rng.random() < 0.5 and applicable(s, action):
        s = product_update(s, action)
    q, (minimized, _) = quotient(s), minimize_with_key(s)
    # read before the state's own names, so they are built through the recipes
    names = (q.model.worlds, q.designated, minimized.model.worlds, minimized.designated)
    assert names[:2] == names[2:]
    assert ref_bisimilar(s, q)
    assert quotient(q) == q
    assert minimized == q
    assert ref_generated(q)[0] == q.model.worlds
    same = ref_bisimulation(q.model, q.model)
    assert all(u == v for u, v in same)
    # each block is named by its first world, and blocks keep that world's order
    reachable = ref_generated(s)[0]
    alike = ref_bisimulation(s.model, s.model)
    firsts = tuple(
        w for k, w in enumerate(reachable) if not any((v, w) in alike for v in reachable[:k])
    )
    assert names[0] == firsts
    assert (names[1], s.designated) in alike


def _certified(vals, rows, block) -> bool:
    """Whether ``_certify`` accepts the map ``block``, each block represented by its first world."""
    try:
        _certify(vals, rows, block, [block.index(b) for b in range(max(block) + 1)])
    except AssertionError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(seeds, agent_counts)
def test_the_certificate_accepts_a_map_iff_its_blocks_are_bisimilar(seed, agents):
    # on the part reachable over pairs: the refinement's map, and every map
    # merging two of its blocks of equal valuation, a strict coarsening of
    # the coarsest bisimulation that the certificate must reject
    s = _state(random.Random(seed), agents)
    worlds, relations, vals = ref_generated(s)
    model = make_model(worlds, s.model.agents, relations, dict(zip(worlds, vals)))
    vals, rows = model.valuations, model.rows
    alike = ref_bisimulation(model, model)
    block, count = _canonical_refine(vals, rows)
    maps = [block] + [
        [b1 if b == b2 else b - (b > b2) for b in block]
        for b1, b2 in itertools.combinations(range(count), 2)
        if vals[block.index(b1)] == vals[block.index(b2)]
    ]
    for k, coarse in enumerate(maps):
        bisimilar_blocks = all(
            (worlds[i], worlds[j]) in alike
            for i, j in itertools.combinations(range(len(worlds)), 2) if coarse[i] == coarse[j]
        )
        assert _certified(vals, rows, coarse) == bisimilar_blocks == (k == 0), (k, coarse)


@settings(max_examples=200, deadline=None)
@given(seeds, agent_counts)
def test_generated_submodel_matches_a_walk_over_pairs(seed, agents):
    s = _state(random.Random(seed), agents)
    g = generated_submodel(s)
    assert (g.model.worlds, g.model.relations, g.model.valuations) == ref_generated(s)
    assert g.designated == s.designated


@functools.cache
def _compiled_multi_s5() -> PlanningProblem:
    return reduce_instance(make_instance([("1", "101"), ("10", "00")]), Variant.MULTI_S5)


def _update_source(rng: random.Random, agents: int):
    """A start state and a draw of actions for it.

    Half the time a random state under random actions; otherwise a state
    whose successor masks repeat, so the update shares rows: every relation
    total, the ``sat_to_ep`` initial state (one agent) or a compiled MultiS5
    state, the last two under their own actions.
    """
    kind = rng.randrange(6)
    if kind < 3:
        state = random_state(rng, agents=agents, max_worlds=6)
        if kind == 2:
            m = state.model
            total = frozenset(itertools.product(m.worlds, m.worlds))
            state = EpistemicState(
                make_model(m.worlds, agents, [total] * agents, dict(zip(m.worlds, m.valuations))),
                state.designated)
        return state, lambda: random_action(rng, agents, max_events=5)
    if kind < 5:
        problem = sat_to_ep(random_formula(rng, 3, 0))
    else:
        problem = _compiled_multi_s5()
    names = sorted(problem.actions)
    return problem.initial, lambda: problem.actions[rng.choice(names)]


@settings(max_examples=200, deadline=None)
@given(seeds, agent_counts)
def test_product_update_matches_the_pairwise_product(seed, agents):
    rng = random.Random(seed)
    state, draw = _update_source(rng, agents)
    # a chain of updates with no name read, one or two actions per state: the
    # later ones read the masks that the earlier ones left in the model's memo
    steps = []
    for _ in range(rng.randint(2, 4)):
        for _ in range(rng.randint(1, 2)):
            action = draw()
            ok = applicable(state, action)
            steps.append((state, action, ok, product_update(state, action) if ok else None))
        state = next((p for _, _, ok, p in reversed(steps) if ok), state)
    # names are read only now, built through every level of the chain at once;
    # a pickled copy carries the unbuilt recipe and builds the same names
    copy = pickle.loads(pickle.dumps(state))
    assert (copy.model.worlds, copy.designated) == (state.model.worlds, state.designated)
    assert copy == state
    for s, action, ok, p in steps:
        pre = dict(zip(action.events, action.preconditions))[action.designated]
        assert ok == ref_eval(s.model, s.designated, pre)
        if ok:
            assert (p.model.worlds, p.model.relations, p.model.valuations, p.designated) == (
                ref_product(s, action)
            )
            # the same state built from its names
            m = p.model
            named = EpistemicState(
                make_model(m.worlds, m.agents, m.relations, dict(zip(m.worlds, m.valuations))),
                p.designated)
            assert named == p and hash(named) == hash(p)
            assert state_to_json(named) == state_to_json(p)


def ref_kept(state, action):
    """The state renamed ``u -> (u,e_u)``, in ``ref_product``'s form, and the event counts.

    ``e_u`` is the one event whose precondition holds at ``u``; the renamed
    state is None when some world satisfies no event or several.  The counts
    are, per world, how many events' preconditions hold there.
    """
    model = state.model
    pre = dict(zip(action.events, action.preconditions))
    events = {u: [e for e in action.events if ref_eval(model, u, pre[e])] for u in model.worlds}
    counts = [len(events[u]) for u in model.worlds]
    if set(counts) - {1}:
        return None, counts
    name = {u: f"({u},{events[u][0]})" for u in model.worlds}
    worlds = tuple(name[u] for u in model.worlds)
    relations = tuple(frozenset((name[u], name[v]) for u, v in rel) for rel in model.relations)
    return (worlds, relations, model.valuations, name[state.designated]), counts


def _partition_action(rng: random.Random, state):
    """An action whose events split the worlds, one event each, over a relation missing edges.

    Event ``i`` takes the worlds that fail the tests of the events before it
    and pass its own; the last event takes the rest.  Each agent's event
    relation is total but for a few dropped edges, so the product is the
    state renamed exactly when no edge of the state runs along a dropped
    one.  Now and then one precondition is redrawn at random, so that a
    world satisfies no event, or two; or it is made a copy of another
    event's precondition that holds at as many worlds (not at the
    designated one), so that some worlds satisfy two events, others none,
    and the counts still sum to the world count.  The designated event is one whose precondition holds at the
    state's designated world, if there is one.
    """
    model = state.model
    agents = model.agents
    count = rng.randint(1, 4)
    events = [f"e{i}" for i in range(count)]
    tests = [random_formula(rng, 1, agents) for _ in range(count - 1)]
    pre = {e: conj(*[not_(t) for t in tests[:i]], *tests[i:i + 1]) for i, e in enumerate(events)}
    size = {e: sum(ref_eval(model, u, pre[e]) for u in model.worlds) for e in events}
    twins = [(e, f) for e in events for f in events if e != f and size[e] == size[f] > 0
             and not ref_eval(model, state.designated, pre[f])]
    draw = rng.random()
    if draw < 0.3 and twins:
        e, f = rng.choice(twins)
        pre[f] = pre[e]
    elif draw < 0.45:
        pre[rng.choice(events)] = random_formula(rng, 1, agents)
    total = list(itertools.product(events, events))
    rels = [set(total) - set(rng.sample(total, rng.randint(0, min(2, len(total)))))
            for _ in range(agents)]
    holding = [e for e in events if ref_eval(model, state.designated, pre[e])]
    return make_action(events, agents, rels, pre, rng.choice(holding or events))


def test_keeps_state_iff_the_pairwise_product_is_the_state_renamed():
    # both directions at once: for an applicable action, keeps_state is True
    # exactly when every world satisfies one event and the product is the
    # state renamed; the states chain, so later ones are products and kept states
    seen = {"kept": 0, "edge dropped": 0, "not one event each": 0, "sum is the world count": 0}
    for seed in range(400):
        rng = random.Random(seed)
        state, draw = _update_source(rng, seed % 4)
        for _ in range(rng.randint(2, 4)):
            model = state.model
            action = draw() if rng.random() < 0.4 else _partition_action(rng, state)
            pre = dict(zip(action.events, action.preconditions))[action.designated]
            if not ref_eval(model, state.designated, pre):
                continue
            renamed, counts = ref_kept(state, action)
            expected = bool(renamed) and ref_product(state, action) == renamed
            assert keeps_state(state, action) == expected, seed
            seen["kept"] += expected
            seen["edge dropped"] += bool(renamed) and not expected
            seen["not one event each"] += not renamed
            seen["sum is the world count"] += not renamed and sum(counts) == len(counts)
            state = product_update(state, action)
    assert min(seen.values()) >= 20, seen


@settings(max_examples=300, deadline=None)
@given(seeds, st.integers(1, 3))
def test_bfs_plan_matches_a_reference_search(seed, agents):
    rng = random.Random(seed)
    start = random_state(rng, agents=agents, max_worlds=4, edge_p=0.5)
    actions = {
        f"a{k}": random_action(rng, agents, max_events=5) for k in range(rng.randint(1, 4))
    }
    goal = and_(random_formula(rng, 1, agents), random_formula(rng, 1, agents))
    max_depth, max_nodes = rng.randint(0, 3), rng.randint(1, 12)
    problem = PlanningProblem(start, actions, goal, profile("K"))
    outcome = bfs_plan(problem, SearchBudget(max_depth, max_nodes))
    assert _summary(outcome) == ref_search(start, actions, goal, max_depth, max_nodes)


def test_compiled_searches_match_the_reference_search():
    inst = make_instance([("1", "101"), ("10", "00"), ("011", "11")])
    for variant in Variant:
        problem = reduce_instance(inst, variant)
        outcome = bfs_plan(problem, SearchBudget(max_depth=4, max_nodes=20))
        expected = ref_search(problem.initial, problem.actions, problem.goal, 4, 20)
        assert _summary(outcome) == expected, variant


def test_unsatisfiable_sat_instance_is_exhausted_as_in_the_reference_search():
    phi = parse("(p | q) & (p | !q) & (!p | q | r) & (!p | !q) & (!p | !r)")
    problem = sat_to_ep(phi)
    outcome = s5_single_agent_plan(problem)
    start = ref_contract(problem.initial)
    bound = len(start.model.worlds)
    expected = ref_search(start, problem.actions, problem.goal, bound, 10**9)
    # the depth cutoff is the state space's diameter, so a cut frontier is exhausted too
    assert expected[0] in ("NoPlanExhausted", "BoundReached")
    assert _summary(outcome) == ("NoPlanExhausted", *expected[1:])


def _identity_action(agents: int):
    """One event, precondition true, reflexive for every agent: a product equal to its state."""
    return make_action(["e"], agents, [{("e", "e")}] * agents, {"e": parse("true")}, "e")


def test_searches_with_an_identity_action_match_the_reference_search():
    # the identity's product has its state's rows, valuations and designated
    # index, so the search takes it from its memo of built products
    inst = make_instance([("1", "101"), ("10", "00"), ("011", "11")])
    for variant in Variant:
        problem = reduce_instance(inst, variant)
        actions = {**problem.actions, "id": _identity_action(problem.initial.model.agents)}
        outcome = bfs_plan(replace(problem, actions=actions), SearchBudget(3, 20))
        expected = ref_search(problem.initial, actions, problem.goal, 3, 20)
        assert _summary(outcome) == expected, variant
    for seed in range(40):
        rng = random.Random(seed)
        agents = rng.randint(1, 3)
        start = random_state(rng, agents=agents, max_worlds=4, edge_p=0.5)
        actions = {"a": random_action(rng, agents, max_events=4), "id": _identity_action(agents)}
        goal = and_(random_formula(rng, 1, agents), random_formula(rng, 1, agents))
        outcome = bfs_plan(PlanningProblem(start, actions, goal, profile("K")), SearchBudget(3, 12))
        assert _summary(outcome) == ref_search(start, actions, goal, 3, 12), seed


def _two_action_search(state, actions) -> tuple:
    """Engine and reference summaries of a depth-1 search with an unreachable goal."""
    goal = parse("false")
    outcome = bfs_plan(PlanningProblem(state, actions, goal, profile("K")), SearchBudget(1, 10))
    return _summary(outcome), ref_search(state, actions, goal, 1, 10)


def test_products_differing_only_in_the_designated_world_are_both_nodes():
    # both products: worlds (w,e1) -> (w,e2) with valuation {p}; "b" points
    # at the dead end (w,e2), "c" at (w,e1), which sees it: not bisimilar
    state = EpistemicState(make_model(["w"], 1, [{("w", "w")}], {"w": {"p"}}), "w")
    rel = [{("e1", "e2")}]
    pre = {"e1": parse("true"), "e2": parse("true")}
    actions = {"b": make_action(["e1", "e2"], 1, rel, pre, "e2"),
               "c": make_action(["e1", "e2"], 1, rel, pre, "e1")}
    engine, expected = _two_action_search(state, actions)
    assert engine == expected == ("BoundReached", None, 3, 0, 1)


def test_products_differing_only_in_valuations_are_both_nodes():
    # both products: worlds 0 -> 1, 1 -> 1, designated 0, valuation {p} at 0;
    # world 1 holds q after "b" and r after "c"
    model = make_model(["u", "v", "w"], 1, [{("u", "v"), ("u", "w"), ("v", "v"), ("w", "w")}],
                       {"u": {"p"}, "v": {"q"}, "w": {"r"}})
    rel = [{("e", "f"), ("f", "f")}]
    actions = {name: make_action(["e", "f"], 1, rel, {"e": parse("p"), "f": parse(atom)}, "e")
               for name, atom in (("b", "q"), ("c", "r"))}
    engine, expected = _two_action_search(EpistemicState(model, "u"), actions)
    assert engine == expected == ("BoundReached", None, 3, 0, 1)


def test_chained_bisimilar_mutations_stay_bisimilar():
    for seed in range(200):
        rng = random.Random(seed)
        s = random_state(rng, agents=1, max_worlds=3)
        mutated = s
        for _ in range(3):
            mutated = mutate_bisimilar(rng, mutated)
            assert ref_bisimilar(s, mutated), seed


def _random_cnf(rng: random.Random, names) -> Formula:
    """A CNF over ``names``; clauses and literals may be empty or repeat."""
    return conj(*(
        disj(*(prop(v) if rng.random() < 0.5 else not_(prop(v))
               for v in rng.choices(names, k=rng.randint(0, 3))))
        for _ in range(rng.randint(0, 8))
    ))


def _shared_atoms_formula(rng: random.Random, agents: int) -> Formula:
    """A Boolean combination over a few modal atoms, each met many times.

    Atoms recur at the top and nested under another ``K``, as in
    ``K{0} p & K{1} K{0} p``, so one atom is met at the queried world and
    at its successors in one evaluation.
    """
    atoms: list[Formula] = []
    for _ in range(rng.randint(1, 3)):
        sub = rng.choice(atoms) if atoms and rng.random() < 0.4 else random_formula(rng, 1, agents)
        atoms.append((know if rng.random() < 0.5 else diamond)(rng.randrange(agents), sub))
    pool = atoms + [know(rng.randrange(agents), rng.choice(atoms)) for _ in range(2)]

    def combine(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(pool)
        pick = rng.random()
        if pick < 0.3:
            return not_(combine(depth - 1))
        if pick < 0.65:
            return and_(combine(depth - 1), combine(depth - 1))
        return or_(combine(depth - 1), combine(depth - 1))

    return combine(5)


def _tree_parts(f: Formula) -> set[Formula]:
    """``f`` and every subformula of it, by a plain tree walk."""
    if isinstance(f, (Not, Know)):
        return {f} | _tree_parts(f.sub)
    if isinstance(f, And):
        return {f} | _tree_parts(f.left) | _tree_parts(f.right)
    return {f}


@settings(max_examples=200, deadline=None)
@given(seeds, agent_counts)
def test_evaluation_matches_reference_at_every_world(seed, agents):
    rng = random.Random(seed)
    s = _state(rng, agents)
    formulas = [random_formula(rng, 4, agents)]
    if agents:
        # one evaluate_at call meets each atom at the queried world and below a K
        formulas += [_shared_atoms_formula(rng, agents), sat_to_ep(_random_cnf(rng, "pqr")).goal]
    other = _state(rng, agents).model
    for f in formulas:
        mask = extension_mask(s.model, f)
        for i, w in enumerate(s.model.worlds):
            expected = ref_eval(s.model, w, f)
            assert evaluate_at(s, w, f) == expected
            assert bool(mask >> i & 1) == expected
        # a copy of the model whose memo already holds some of f's proper
        # subformulas, then a second model: both walk the order f keeps
        # on its node since the first call
        parts = sorted(_tree_parts(f) - {f}, key=to_text)
        partial = KripkeModel(s.model.worlds, s.model.rows, s.model.valuations)
        for g in rng.sample(parts, rng.randint(0, len(parts))):
            extension_mask(partial, g)
        for model in (partial, other):
            mask = extension_mask(model, f)
            for i, w in enumerate(model.worlds):
                assert bool(mask >> i & 1) == ref_eval(model, w, f)


def test_a_modal_atom_kept_at_the_queried_world_is_not_read_below_it():
    # K{0} p holds at u and fails at v, u's only agent-1 successor
    model = make_model(["u", "v"], 2, [{("u", "u"), ("v", "v")}, {("u", "v")}], {"u": {"p"}})
    state = EpistemicState(model, "u")
    for f in (parse("!K{1} K{0} p & K{0} p"), parse("K{0} p & !K{1} K{0} p")):
        assert evaluate(state, f) is True


# every shape the pointwise programs fuse: K and <K> of a literal, double
# negations, negated atoms, chains nested either way (negated, with repeated
# or shared links), a K met at the queried world and below another K, and
# operands over several agents
_FUSED_SHAPES = (
    "K{0} p", "K{1} !p", "<K{0}> p", "<K{2}> !q", "K{0} !!p", "<K{1}> !!!r", "K{0} false",
    "<K{1}> true", "!p", "!!p", "!!!q", "!!K{2} r",
    "((p & !q) & K{0} r) & <K{1}> !p",
    "p & (!q & (K{0} r & <K{1}> !p))",
    "!!(p & q) & !!(!r & K{2} !p)",
    "!((p & <K{0}> q) & (!r & K{1} q))",
    "p & p & !!p & q",
    "(p & q) & !(p & q)",
    "!(p & q) & ((p & q) | r)",
    "K{0} p & K{1} K{0} p",
    "!K{1} K{0} p & K{0} p",
    "<K{0}> q & K{2} <K{0}> q & !<K{0}> q",
    "K{0} (p & K{1} q)",
    "<K{2}> (K{0} p | <K{1}> !r)",
    "K{1} (<K{0}> p & K{2} !q) | K{0} (K{2} !p & !r)",
)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_fused_pointwise_checks_match_the_reference_at_every_world(seed):
    s = _state(random.Random(seed), 3)
    for text in _FUSED_SHAPES:
        f = parse(text)
        mask = extension_mask(s.model, f)
        for i, w in enumerate(s.model.worlds):
            expected = ref_eval(s.model, w, f)
            assert evaluate_at(s, w, f) is expected, (text, w)
            assert bool(mask >> i & 1) == expected, (text, w)


def _tree_possibilify(f: Formula) -> Formula:
    """``p`` -> ``<K> p`` by a plain tree walk: every occurrence rebuilt."""
    if isinstance(f, Prop):
        return Not(Know(0, Not(f)))
    if isinstance(f, Not):
        return Not(_tree_possibilify(f.sub))
    if isinstance(f, And):
        return And(_tree_possibilify(f.left), _tree_possibilify(f.right))
    assert isinstance(f, FalseF)
    return f


def test_sat_goal_is_the_tree_walk_goal_on_random_cnfs():
    names = [f"x{k}" for k in range(1, 8)]
    for seed in range(200):
        rng = random.Random(seed)
        phi = _random_cnf(rng, names)
        problem = sat_to_ep(phi)
        assert problem.goal is _tree_possibilify(phi), seed
        assert problem.meta["variables"] == sorted(set(re.findall(r"x\d", to_text(phi)))), seed


@settings(max_examples=200, deadline=None)
@given(seeds, agent_counts)
def test_frame_conditions_and_closure_match_checks_on_input_pairs(seed, agents):
    rng = random.Random(seed)
    worlds, pairs = _pair_sets(rng, agents)
    # the random relations, and the same relations closed under every
    # condition set, so that each condition is met as well as missed; the
    # closure runs on them as a model's frame and as an event model's
    inputs = [pairs]
    model = make_model(worlds, agents, pairs, {})
    action = make_action(worlds, agents, pairs, {e: FalseF() for e in worlds}, worlds[-1])
    for conds in CONDITION_SETS:
        closed = tuple(ref_close(worlds, rel, conds) for rel in pairs)
        assert closure(model, conds).relations == closed
        closed_action = closure(action, conds)
        assert closed_action.relations == closed
        assert replace(closed_action, rows=action.rows) == action
        inputs.append(closed)
    for rels in inputs:
        model = make_model(worlds, agents, rels, {})
        holds = {c: all(ref_holds(worlds, rel, c) for rel in rels) for c in FrameCondition}
        for conds in CONDITION_SETS:
            assert satisfies(model, conds) == all(holds[c] for c in conds), (rels, conds)


@settings(max_examples=200, deadline=None)
@given(seeds, agent_counts)
def test_json_round_trips_keep_documents_and_keys(seed, agents):
    rng = random.Random(seed)
    s = _state(rng, agents)
    doc = state_to_json(s)
    back = state_from_json(json.loads(json.dumps(doc)))
    assert state_to_json(back) == doc
    assert canonical_key(back) == canonical_key(s)
    action = action_to_json(random_action(rng, agents))
    assert action_to_json(action_from_json(json.loads(json.dumps(action)))) == action
    # models and actions store successor rows; their ``relations`` view gives
    # back the pair sets they were built from, whatever order those came in
    worlds, pairs = _pair_sets(rng, agents)
    model = make_model(worlds, agents, pairs, {})
    assert model.relations == pairs
    shuffled = [rng.sample(sorted(rel), len(rel)) for rel in pairs]
    again = make_model(worlds, agents, shuffled, {})
    assert again == model and hash(again) == hash(model)
    pre = {e: FalseF() for e in worlds}
    assert make_action(worlds, agents, shuffled, pre, worlds[0]).relations == pairs


def _check_union(s1, s2) -> bool:
    """The joint refinement ``bisimilar`` runs on two generated parts, against
    ``ref_refine`` on their union; returns whether the two states are bisimilar."""
    g1, g2 = generated_submodel(s1).model, generated_submodel(s2).model
    u = _union(g1, g2)
    block, count = _canonical_refine(u.valuations, u.rows)
    assert (block, count) == ref_refine(u.valuations, u.rows)
    start1, start2 = g1.index_of(s1.designated), g2.index_of(s2.designated)
    same = block[start1] == block[len(g1.worlds) + start2]
    assert bisimilar(s1, s2) == same
    return same


@settings(max_examples=300, deadline=None)
@given(seeds, agent_counts)
def test_refinement_numbering_and_key_bytes_match_full_rounds(seed, agents):
    rng = random.Random(seed)
    s = _state(rng, agents)
    # non-minimal copies: each bisimilar mutation may duplicate a world
    padded = s
    for _ in range(rng.randint(1, 3)):
        padded = mutate_bisimilar(rng, padded)
    other = _near(rng, s) if rng.random() < 0.5 else _state(rng, agents)
    # a state whose model also holds worlds it cannot reach
    stray = EpistemicState(_union(s.model, other.model), f"l{s.designated}")
    for state in (s, padded, other, stray):
        m = state.model
        assert _canonical_refine(m.valuations, m.rows) == ref_refine(m.valuations, m.rows)
        g = generated_submodel(state).model
        assert _canonical_refine(g.valuations, g.rows) == ref_refine(g.valuations, g.rows)
        assert minimize_with_key(state)[1] == ref_key(state)
    for s1, s2 in ((s, padded), (s, other), (padded, stray)):
        _check_union(s1, s2)


def _searched(monkeypatch, search) -> tuple[list, list, dict]:
    """Run ``search()`` and return every state it minimized, the key it got
    for each, and the one valuation table all those calls shared."""
    calls = []

    def spy(state, table):
        result = minimize_with_key(state, table)
        calls.append((state, table, result[1]))
        return result

    monkeypatch.setattr(planner, "minimize_with_key", spy)
    search()
    monkeypatch.undo()
    table = calls[0][1]
    assert all(t is table for _, t, _ in calls)
    return [state for state, _, _ in calls], [key for _, _, key in calls], table


def _check_search_keys(states, keys, table) -> tuple[int, int]:
    """Check a search's in-search keys against the canonical keys, with more
    states keyed through the same table: every fifth state's quotient, and
    every seventh state pointed at each world of its model.  Each state's
    key is built again, now that the table holds every id the search made.
    Returns the number of keyed states and of distinct keys."""
    more = [quotient(s) for s in states[::5]]
    more += [EpistemicState.at(s.model, i) for s in states[::7]
             for i in range(len(s.model.valuations))]
    keys = keys + [minimize_with_key(s, table)[1] for s in more]
    states = states + more
    assert [minimize_with_key(s, table)[1] for s in states] == keys
    return len(keys), _assert_keys_match(keys, [canonical_key(s) for s in states])


def test_compiled_search_states_match_full_rounds(monkeypatch):
    # every state a bounded search on each compiled example minimizes; the
    # S4_1 search minimizes states whose partition is not discrete
    inst = make_instance([("1", "101"), ("10", "00"), ("011", "11")])
    for variant in Variant:
        problem = reduce_instance(inst, variant)
        states, keys, table = _searched(
            monkeypatch, lambda: bfs_plan(problem, SearchBudget(max_depth=5, max_nodes=80)))
        assert len(states) >= 80, variant
        merged = 0
        for state, key in zip(states, keys):
            g = generated_submodel(state).model
            block, count = _canonical_refine(g.valuations, g.rows)
            assert (block, count) == ref_refine(g.valuations, g.rows), variant
            merged += count < len(g.worlds)
            assert minimize_with_key(state)[1] == ref_key(state), variant
            assert key == ref_search_key(state, table), variant
        keyed, distinct = _check_search_keys(states, keys, table)
        assert 1 < distinct < keyed, variant
        # pairs of search states, and each state with its own quotient
        pairs = list(zip(states, states[1:])) + [(s, quotient(s)) for s in states[::5]]
        hits = sum(_check_union(s1, s2) for s1, s2 in pairs)
        assert 0 < hits < len(pairs), variant
        if variant is Variant.S4_1:
            assert merged, "some search state is not minimal"


def test_sat_search_keys_match_canonical_keys(monkeypatch):
    for text in ("(p | q) & (!p | !q)", "p & !p", "(a | b | c) & (!a | !b) & (!b | !c)",
                 "(a | !b) & (b | !c) & (c | !a) & (!a | !b | !c)"):
        problem = sat_to_ep(parse(text))
        states, keys, table = _searched(monkeypatch, lambda: s5_single_agent_plan(problem))
        for state, key in zip(states, keys):
            assert key == ref_search_key(state, table), text
        keyed, distinct = _check_search_keys(states, keys, table)
        assert 1 < distinct < keyed, text


def test_search_keys_past_256_valuations_keep_their_encoding(monkeypatch):
    # a root that sees 300 leaves, one valuation each, and an announcement
    # per leaf that removes it: one search numbers 301 valuations
    leaves = [frozenset({f"p{k}"}) for k in range(300)]
    start = _leaves(leaves)
    actions = {f"drop{k}": announcement(f"drop{k}", not_(prop(f"p{k}")), 1) for k in range(300)}
    problem = PlanningProblem(start, actions, parse("q"), profile("K"))
    states, keys, table = _searched(monkeypatch, lambda: bfs_plan(problem, SearchBudget(2, 40)))
    assert len(table) == 301 and len(states) >= 40
    # small states keyed before and after the table grows past 256 ids
    small = [module(variant).initial_state() for variant in Variant]
    fresh: dict = {}
    before = [minimize_with_key(s, fresh)[1] for s in small]
    assert len(fresh) < 256
    grown = [minimize_with_key(s, fresh)[1] for s in states]
    assert len(fresh) > 256
    assert [minimize_with_key(s, fresh)[1] for s in small] == before
    assert {type(key[1]) for key in before} == {bytes}
    assert {type(key[1]) for key in grown} == {tuple}
    # with either table, the keys split the states as the canonical keys do
    canonical = [canonical_key(s) for s in states + small]
    assert _assert_keys_match(grown + before, canonical) == len(canonical)
    keyed, distinct = _check_search_keys(states + small, keys + [
        minimize_with_key(s, table)[1] for s in small], table)
    assert 1 < distinct < keyed


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))


def test_failed_state_matches_the_reference_walks():
    # seeded random plan walks from each variant's start state, about every
    # other state replaced by its quotient; both verdicts must occur
    for variant in Variant:
        mod = module(variant)
        verdicts = {True: 0, False: 0}
        for seed in range(60):
            rng = random.Random(seed)
            inst = make_instance([(_word(rng), _word(rng)) for _ in range(rng.randint(1, 3))])
            actions = mod.build_actions(inst)
            names = sorted(actions)
            state = mod.initial_state()
            for step in range(12):
                options = [name for name in names if applicable(state, actions[name])]
                if not options:
                    break
                state = product_update(state, actions[rng.choice(options)])
                if rng.random() < 0.5:
                    state = quotient(state)
                verdict = mod.failed_state(state)
                assert verdict == ref_failed_state(variant, state), (variant, seed, step)
                verdicts[verdict] += 1
        assert all(verdicts.values()), (variant, verdicts)


def _root_state(rng: random.Random, agents: int) -> EpistemicState:
    """A random state at a world valued ``{root}``: each other world has an
    optional branch letter and an optional chain symbol or ``stg1``, and most
    of them see the one ``ntF`` world, so that walks pass worlds that have
    not failed."""
    worlds = [f"w{k}" for k in range(rng.randint(2, 7))] + ["ntF"]
    marks = ("0", "1", "#", "#1", "#2", "stg1", "-", "-")
    val = {w: [x for x in (rng.choice("ab-"), rng.choice(marks)) if x != "-"] for w in worlds}
    val["w0"], val["ntF"] = ["root"], ["ntF"]
    rels = [{(u, v) for u in worlds for v in worlds if rng.random() < 0.3}
            | {(u, "ntF") for u in worlds[1:-1] if rng.random() < 0.6} for _ in range(agents)]
    return EpistemicState(make_model(worlds, agents, rels, val), "w0")


def test_failed_state_matches_the_reference_walks_on_random_states():
    # shapes no plan reaches, with random edges and self-loops
    for variant in Variant:
        mod = module(variant)
        verdicts = {True: 0, False: 0}
        rng = random.Random(7)
        for case in range(500):
            state = _root_state(rng, mod.AGENTS)
            verdict = mod.failed_state(state)
            assert verdict == ref_failed_state(variant, state), (variant, case)
            verdicts[verdict] += 1
        assert all(verdicts.values()), (variant, verdicts)


def _leaves(valuations) -> EpistemicState:
    """A root (valuation ``{r}``) that sees one leaf per valuation, in order."""
    worlds = ["root"] + [f"l{k}" for k in range(len(valuations))]
    rows = ((tuple(range(1, len(worlds))),) + ((),) * len(valuations),)
    return EpistemicState(KripkeModel(tuple(worlds), rows, (frozenset({"r"}), *valuations)), "root")


def test_valuation_codes_give_reference_key_bytes():
    # names whose sorted order differs from the order of their encoded bytes
    # (count and length prefixes first), non-ASCII ones among them
    odd = [{"ab"}, {"b"}, {"a", "c"}, {"é"}, {"z", "日本"}, {"\U0001F600"}, {"e\u0301"}, set()]
    s = _leaves([frozenset(v) for v in odd])
    m = s.model
    assert _canonical_refine(m.valuations, m.rows) == ref_refine(m.valuations, m.rows)
    assert minimize_with_key(s)[1] == ref_key(s)
    # equal valuations held by distinct set objects share one block
    twins = [frozenset(["p", "ü"]), frozenset(["ü", "p"]), frozenset(["q"])]
    assert twins[0] == twins[1] and twins[0] is not twins[1]
    s = _leaves(twins)
    q, key = minimize_with_key(s)
    assert key == ref_key(s) and len(q.model.worlds) == 3
    # fresh sets, each freed before the next is made, whose ids may repeat
    for k in range(200):
        s = _leaves([frozenset({f"v{k}"}), frozenset({f"v{k}", "é" * (k % 3)})])
        assert minimize_with_key(s)[1] == ref_key(s), k
    # more distinct valuations in one state than the memo keeps
    bound = _valuation_code.cache_info().maxsize
    s = _leaves([frozenset({f"p{k:05}", "ñ" * (k % 4)}) for k in range(bound + 50)])
    assert minimize_with_key(s)[1] == ref_key(s)
    assert _valuation_code.cache_info().currsize <= bound
