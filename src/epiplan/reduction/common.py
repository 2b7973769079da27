"""Shared machinery for the instance compilers."""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from ..action import EventModel
from ..formula import Formula, and_, diamond, evaluate_at, know, not_, or_, prop
from ..frames import PROFILES, FrameCondition
from ..kripke import EpistemicState, KripkeModel, Pair
from ..pcp import PcpInstance


def cliques(*groups: Iterable[str]) -> set[Pair]:
    """All ordered pairs (including self-loops) inside each group."""
    out: set[Pair] = set()
    for group in groups:
        members = list(group)
        for u in members:
            for v in members:
                out.add((u, v))
    return out


def with_empty(state: EpistemicState, profile_name: str) -> EpistemicState:
    """The start state: ``state`` plus ``w_empty``, the "nothing applied yet" marker.

    ``w_empty`` (valuation ``{empty}``) is appended after the other worlds
    and joins the designated world's agent-0 row.  ``state`` already meets
    ``PROFILES[profile_name]``, a preset built from reflexivity, symmetry
    and transitivity, so only what the new edge forces is added: under
    reflexivity ``w_empty``'s self-loops; under transitivity an agent-0
    edge to ``w_empty`` from every world that sees the designated one;
    under symmetry the edges back.  That puts ``w_empty`` into the
    designated world's class wherever the frames are symmetric.
    """
    conds = PROFILES[profile_name]
    model = state.model
    root, n = state.designated_index, len(model.valuations)
    loop = (n,) if FrameCondition.REFLEXIVE in conds else ()
    rows = [[*row, loop] for row in model.rows]
    first = rows[0]
    seers = [root]
    if FrameCondition.TRANSITIVE in conds:
        seers = [u for u, succ in enumerate(model.rows[0]) if u == root or root in succ]
    for u in seers:
        first[u] += (n,)
    if FrameCondition.SYMMETRIC in conds:
        first[n] = (*seers, *loop)
    grown = KripkeModel(model.worlds + ("w_empty",), model.agents, tuple(map(tuple, rows)),
                        model.valuations + (frozenset({"empty"}),))
    return EpistemicState.at(grown, root)


def _e(*parts: str) -> str:
    """An event name: ``e_p`` for one part, ``e_{p,q,...}`` for several."""
    return "e_" + (parts[0] if len(parts) == 1 else "{" + ",".join(parts) + "}")


@cache
def loop_marker(x: str) -> Formula:
    """A world of branch ``x`` that sees the loop marker ``lp``."""
    if x not in ("a", "b"):
        raise ValueError(f"loop_marker takes branch a or b; got {x!r}")
    return and_(prop(x), diamond(0, prop("lp")))


def action_table(inst: PcpInstance, add_block: Callable, next_stage: Callable,
                 remove_symbol: Callable, alphabet: Iterable[str]) -> dict[str, EventModel]:
    """A compiler's actions: ``ad_i`` per block, ``next_stage``, ``remove_s`` per symbol."""
    actions = {f"ad_{i}": add_block(i, block) for i, block in enumerate(inst.blocks, start=1)}
    actions["next_stage"] = next_stage()
    for s in alphabet:
        actions[f"remove_{s}"] = remove_symbol(s)
    return actions


def chain_failed_state(state: EpistemicState, failed: Formula, symb: Formula) -> bool:
    """Witness-path check for a failed removal on single-agent chains.

    Once the root has left stage one, looks for a path from the designated
    world: first a branch world other than the root, then ``symb`` worlds,
    ending in a world where ``failed`` holds.
    """
    model = state.model
    root = state.designated
    if not evaluate_at(state, root, and_(prop("root"), know(0, not_(prop("stg1"))))):
        return False
    branch = or_(prop("a"), prop("b"))
    frontier = [w for w in model.successors(0, root)
                if w != root and evaluate_at(state, w, branch)]
    seen = set(frontier)
    while frontier:
        for w in frontier:
            if evaluate_at(state, w, failed):
                return True
        step = []
        for w in frontier:
            for v in model.successors(0, w):
                if v not in seen and evaluate_at(state, v, symb):
                    seen.add(v)
                    step.append(v)
        frontier = step
    return False
