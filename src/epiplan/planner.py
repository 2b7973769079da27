"""Bounded plan-existence search over bisimulation-canonical states.

The general problem is undecidable, so the breadth-first search takes
explicit depth/node budgets and reports BoundReached when it stops for a
budget rather than because the reachable quotient space was exhausted;
callers must never read "not found within bounds" as "no plan".  Every
outcome carries the search's ``SearchStats``, and a BoundReached carries
nothing else: the depth and node count in its JSON are ``stats.depth``
(the deepest node reached, recorded when the node is queued) and
``stats.nodes``.

For a single agent whose relation is (at least) Euclidean the problem is
decidable: actions can only shrink the state up to bisimulation, so plans
longer than the minimized initial state's world count are redundant and
the search below is complete.

A search dedups on in-search keys: ``minimize_with_key`` with the
search's own valuation table (see ``bisim``), which numbers each
valuation the search meets.  Two such keys are equal iff the canonical
keys of the states are, so dedup, counts and plans are those of a search
on canonical keys; the keys are cheaper to build and smaller, and they
mean nothing outside the search.  ``visited`` is a set of these keys and
holds no state; the product memo maps identities to them.
``PlanFound.final_key`` is the printed canonical key: one
``canonical_key`` call on the goal state (the start state when it is the
goal), made once, when the search ends.

Equal keys imply bisimilar states, which is what makes dedup, and so any
NoPlanExhausted, sound: a key serializes the state's quotient, and
``bisim`` certifies every quotient that merges worlds (the map world ->
block is checked to be a bounded morphism) and raises when it is not.
The search itself never calls ``bisimilar``.

Each search keeps a memo from a product's raw identity, the triple
``(rows, valuations, designated index)``, to its in-search key, and a
product already in the memo is counted as a dedup hit
(``SearchStats.memo_hits`` counts these) without being minimized again.
This is sound because ``minimize_with_key`` is a pure function of that
triple: it reads no world name, and the agent count is ``len(rows)``.
Every key the search computes is in ``visited`` before the next child is
built, so a memo hit is always a dedup hit.  The memo compares whole
tuples, never a digest.  It holds two BFS layers: the entries made while
expanding the nodes of the current depth and those of the previous one
(the start state counts as made at depth 0); when the popped depth grows,
the older layer is dropped.  Eviction changes no count, plan or key: a
hit is a dedup hit either way, and a miss recomputes the same key.  So
the memo's memory follows the products minimized in the last two layers
(each entry keeps that product's rows and valuations alive), not every
product the search built.

An applicable action that keeps the state (``action.keeps_state``: each
world satisfies exactly one event's precondition and every edge
survives) has a product with the state's own rows, valuations and
designated index, only renamed; the search then builds neither the
product nor its quotient, and takes the state's identity for the memo
lookup.  The identities are equal, so the lookup hits or misses as the
built product's would, and on a miss minimizing the state gives the
product's key: ``minimize_with_key`` is a function of the identity.
The state's key is in ``visited``, so a kept child is always a dedup
hit.  Counts, plans and keys are those of a search that builds every
product.

The loop reads no world name: states point at their designated world by
index, and product and quotient names are built only if read.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .action import FailureAt, applicable, apply_plan, keeps_state, product_update
from . import bisim
from .bisim import canonical_key, minimize_with_key, quotient
from .errors import NotEuclidean, NotSingleAgent
from .formula import evaluate
from .frames import FrameCondition, satisfies
from .kripke import EpistemicState
from .problem import PlanningProblem, validate_problem

__all__ = [
    "SearchBudget",
    "SearchStats",
    "PlanFound",
    "NoPlanExhausted",
    "BoundReached",
    "SearchOutcome",
    "bfs_plan",
    "verify_plan",
    "s5_single_agent_plan",
]

# Not called here: ``bench/tracer.py`` wraps ``epiplan.planner.bisimilar``
# by name (``TARGETS``), and that name must resolve.
bisimilar = bisim.bisimilar


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int
    max_nodes: int

    def __post_init__(self):
        if self.max_depth < 0 or self.max_nodes < 1:
            raise ValueError(f"search budget needs max_depth >= 0 and max_nodes >= 1, "
                             f"got max_depth={self.max_depth}, max_nodes={self.max_nodes}")


@dataclass
class SearchStats:
    """Search counts; ``memo_hits`` are the dedup hits the product memo served.

    ``stop_reason`` says why the search ended: ``"goal"`` (a goal state was
    found), ``"exhausted"`` (no state was left to expand), ``"depth"`` (the
    depth budget cut the frontier) or ``"nodes"`` (the node budget ran out).
    """

    nodes: int = 0
    dedup_hits: int = 0
    depth: int = 0
    memo_hits: int = 0
    stop_reason: str = ""


@dataclass(frozen=True)
class PlanFound:
    plan: tuple[str, ...]
    final_key: bytes
    stats: SearchStats

    exit_code = 0

    def to_json(self) -> dict:
        return {
            "outcome": "plan_found",
            "plan": list(self.plan),
            "final_key": self.final_key.hex(),
            "stats": vars(self.stats),
        }


@dataclass(frozen=True)
class NoPlanExhausted:
    stats: SearchStats

    exit_code = 1

    def to_json(self) -> dict:
        return {"outcome": "no_plan_exhausted", "stats": vars(self.stats)}


@dataclass(frozen=True)
class BoundReached:
    stats: SearchStats

    exit_code = 2

    def to_json(self) -> dict:
        return {
            "outcome": "bound_reached",
            "depth": self.stats.depth,
            "nodes": self.stats.nodes,
            "stats": vars(self.stats),
        }


SearchOutcome = PlanFound | NoPlanExhausted | BoundReached


def _identity(state: EpistemicState) -> tuple:
    """What ``minimize_with_key`` reads of a state: rows, valuations, designated index."""
    model = state.model
    return model.rows, model.valuations, state.designated_index


def _bfs(
    start: EpistemicState,
    actions,
    goal,
    max_depth: int,
    max_nodes: int,
) -> SearchOutcome:
    stats = SearchStats(nodes=1)
    table: dict = {}
    start, start_key = minimize_with_key(start, table)
    if evaluate(start, goal):
        stats.stop_reason = "goal"
        return PlanFound((), canonical_key(start), stats)
    names = sorted(actions)
    visited = {start_key}
    # the product memo by layer: entries made expanding the popped depth, and the one before
    keys, older_keys, layer = {_identity(start): start_key}, {}, 0
    queue: deque[tuple[EpistemicState, tuple[str, ...]]] = deque([(start, ())])
    truncated = False
    while queue:
        state, plan = queue.popleft()
        if len(plan) >= max_depth:
            truncated = True
            continue
        if len(plan) != layer:
            keys, older_keys, layer = {}, keys, len(plan)
        for name in names:
            action = actions[name]
            if not applicable(state, action):
                continue
            # a kept state is its own product, renamed: no product is built
            product = state if keeps_state(state, action) else product_update(state, action)
            identity = _identity(product)
            key = keys.get(identity) or older_keys.get(identity)
            if key is None:
                child, key = minimize_with_key(product, table)
                keys[identity] = key
            else:
                child = product
                stats.memo_hits += 1
            if key in visited:
                stats.dedup_hits += 1
                continue
            child_plan = plan + (name,)
            stats.nodes += 1
            stats.depth = max(stats.depth, len(child_plan))
            if evaluate(child, goal):
                stats.stop_reason = "goal"
                return PlanFound(child_plan, canonical_key(child), stats)
            visited.add(key)
            if stats.nodes >= max_nodes:
                stats.stop_reason = "nodes"
                return BoundReached(stats)
            queue.append((child, child_plan))
    if truncated:
        stats.stop_reason = "depth"
        return BoundReached(stats)
    stats.stop_reason = "exhausted"
    return NoPlanExhausted(stats)


def bfs_plan(problem: PlanningProblem, budget: SearchBudget) -> SearchOutcome:
    """Breadth-first plan search, deterministic in action-name order.

    Child states are generated in sorted action order and deduplicated by
    canonical key, so a PlanFound outcome carries the shortest plan and,
    among those, the lexicographically least.  Preconditions beyond modal
    depth 1 are refused.
    """
    validate_problem(problem)
    return _bfs(problem.initial, problem.actions, problem.goal, budget.max_depth, budget.max_nodes)


def verify_plan(problem: PlanningProblem, plan) -> bool:
    """Whether the plan applies from the initial state and reaches the goal.

    The problem is validated first, as ``bfs_plan`` does, so an instance
    the search refuses raises InvalidProblem here too.  Each replay step
    is minimized, so a wrong quotient raises (see ``bisim``) rather than
    passing as a verdict on the plan.
    """
    validate_problem(problem)
    result = apply_plan(problem.initial, problem.actions, list(plan), minimize=True)
    if isinstance(result, FailureAt):
        return False
    return evaluate(result, problem.goal)


def s5_single_agent_plan(problem: PlanningProblem) -> SearchOutcome:
    """Complete decision procedure for one agent with a Euclidean relation.

    Up to bisimulation every applicable action only deletes worlds here,
    so it suffices to search plans no longer than the minimized initial
    state's world count; the result is always PlanFound or
    NoPlanExhausted, never BoundReached.
    """
    if problem.initial.model.agents != 1:
        raise NotSingleAgent(
            f"expected a single agent, got {problem.initial.model.agents}"
        )
    conds = problem.logic.conditions
    euclidean_ok = FrameCondition.EUCLIDEAN in conds or {
        FrameCondition.SYMMETRIC,
        FrameCondition.TRANSITIVE,
    } <= conds
    if not euclidean_ok:
        raise NotEuclidean("logic profile does not guarantee a Euclidean relation")
    if not satisfies(problem.initial.model, [FrameCondition.EUCLIDEAN]):
        raise NotEuclidean("initial model's relation is not Euclidean")
    validate_problem(problem)
    start = quotient(problem.initial)
    bound = len(start.model.valuations)
    outcome = _bfs(
        start,
        problem.actions,
        problem.goal,
        max_depth=bound,
        max_nodes=10**9,
    )
    if isinstance(outcome, BoundReached):
        # The depth cutoff equals the state-space diameter, so hitting it
        # with an unexplored frontier still means exhaustion.  It is reached
        # only without reflexivity: the designated world then need not lie
        # in its own cluster, so the cluster can lose every valuation and
        # empty out, and every update after that gives a bisimilar state.
        outcome.stats.stop_reason = "exhausted"
        return NoPlanExhausted(outcome.stats)
    return outcome
