"""Shared machinery for the instance compilers."""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from ..action import EventModel, make_action
from ..errors import IllegalFlavor
from ..formula import Formula, and_, diamond, evaluate, extension_mask, know, not_, or_, prop
from ..frames import PROFILES, _bits, closure
from ..kripke import EpistemicState, KripkeModel, Pair
from ..pcp import PcpInstance, check_words


def cliques(*groups: Iterable[str]) -> set[Pair]:
    """All ordered pairs (including self-loops) inside each group."""
    out: set[Pair] = set()
    for group in groups:
        members = list(group)
        for u in members:
            for v in members:
                out.add((u, v))
    return out


def family_words(variant: str, flavors: tuple[str, ...], flavor: str,
                 qa: str, qb: str) -> dict[str, str]:
    """A ``family`` call's words by branch, once ``flavor`` and both words are checked."""
    if flavor not in flavors:
        raise IllegalFlavor(f"variant {variant} has no flavor {flavor!r}")
    check_words(qa, qb)
    return {"a": qa, "b": qb}


def with_empty(state: EpistemicState, profile_name: str) -> EpistemicState:
    """The start state: ``state`` plus ``w_empty``, the "nothing applied yet" marker.

    ``w_empty`` (valuation ``{empty}``) is appended after the other worlds
    and joins the designated world's agent-0 row; the grown model is then
    closed under ``PROFILES[profile_name]``, which puts ``w_empty`` into the
    designated world's class wherever the frames are symmetric.  Each
    compiler builds its start state once per process (``initial_state`` is
    cached), so the full closure costs nothing per call.
    """
    model = state.model
    root, n = state.designated_index, len(model.valuations)
    rows = [[*row, ()] for row in model.rows]
    rows[0][root] += (n,)
    grown = KripkeModel(model.worlds + ("w_empty",), tuple(map(tuple, rows)),
                        model.valuations + (frozenset({"empty"}),))
    return EpistemicState.at(closure(grown, PROFILES[profile_name]), root)


def _e(*parts: str) -> str:
    """An event name: ``e_p`` for one part, ``e_{p,q,...}`` for several."""
    return "e_" + (parts[0] if len(parts) == 1 else "{" + ",".join(parts) + "}")


@cache
def loop_marker(x: str) -> Formula:
    """A world of branch ``x`` that sees the loop marker ``lp``."""
    if x not in ("a", "b"):
        raise ValueError(f"loop_marker takes branch a or b; got {x!r}")
    return and_(prop(x), diamond(0, prop("lp")))


def announcement(name: str, pre: Formula, agents: int) -> EventModel:
    """A public announcement of ``pre``: one event ``name`` that every agent sees."""
    loop = {(name, name)}
    return make_action([name], agents, [loop] * agents, {name: pre}, name)


def removal(d: str, main: Formula, fail: Formula, keep: Formula, keep_name: str,
            profile_name: str) -> EventModel:
    """The single-agent removal of symbol ``d``.

    Event ``e^d`` (designated, precondition ``main``) sees itself,
    ``e^d_fail`` (``fail``) and ``e^d_<keep_name>`` (``keep``); the
    relation is then closed under ``PROFILES[profile_name]``.
    """
    events = (f"e^{d}", f"e^{d}_fail", f"e^{d}_{keep_name}")
    edges = {(events[0], e) for e in events}
    action = make_action(events, 1, [edges], dict(zip(events, (main, fail, keep))), events[0])
    return closure(action, PROFILES[profile_name])


def action_table(inst: PcpInstance, add_block: Callable, next_stage: Callable,
                 remove_symbol: Callable, alphabet: Iterable[str]) -> dict[str, EventModel]:
    """A compiler's actions: ``ad_i`` per block, ``next_stage``, ``remove_s`` per symbol."""
    actions = {f"ad_{i}": add_block(i, block) for i, block in enumerate(inst.blocks, start=1)}
    actions["next_stage"] = next_stage()
    for s in alphabet:
        actions[f"remove_{s}"] = remove_symbol(s)
    return actions


# built once, so its pointwise program is compiled once per process
stage_one_left = and_(prop("root"), know(0, not_(prop("stg1"))))


def left_stage_one(state: EpistemicState) -> bool:
    """Whether the designated world is the root and sees no stage-one marker."""
    return evaluate(state, stage_one_left)


def chain_failed_state(state: EpistemicState, failed: Formula, symb: Formula) -> bool:
    """Witness-path check for a failed removal on single-agent chains.

    Once the root has left stage one, looks for an agent-0 path from the
    designated world: first a branch world other than the root, then
    ``symb`` worlds, ending in a world where ``failed`` holds.  Each
    frontier is a bitmask over world indices.
    """
    if not left_stage_one(state):
        return False
    model = state.model
    root = state.designated_index
    succ = model.masks()[1][0]
    failed_worlds, symb_worlds = extension_mask(model, failed), extension_mask(model, symb)
    frontier = succ[root] & extension_mask(model, or_(prop("a"), prop("b"))) & ~(1 << root)
    seen = frontier
    while frontier:
        if frontier & failed_worlds:
            return True
        step = 0
        for i in _bits(frontier):
            step |= succ[i]
        frontier = step & symb_worlds & ~seen
        seen |= frontier
    return False
