"""Frame conditions, relational closures, and named logic profiles."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from .errors import strings
from .kripke import KripkeModel, Pair, make_model


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


def close_relation(
    pairs: Iterable[Pair], worlds: Iterable[str], conds: Iterable[FrameCondition]
) -> frozenset[Pair]:
    """Least superset of ``pairs`` satisfying all of ``conds`` jointly.

    Interacting conditions (e.g. symmetric + transitive) are iterated to a
    joint fixpoint.
    """
    conds = set(conds)
    rel = set(tuple(p) for p in pairs)
    world_list = list(worlds)
    if FrameCondition.REFLEXIVE in conds:
        rel.update((w, w) for w in world_list)
    while True:
        added = set()
        if FrameCondition.SYMMETRIC in conds:
            added.update((v, u) for (u, v) in rel if (v, u) not in rel)
        if FrameCondition.TRANSITIVE in conds or FrameCondition.EUCLIDEAN in conds:
            succ: dict[str, set[str]] = {}
            for u, v in rel:
                succ.setdefault(u, set()).add(v)
            if FrameCondition.TRANSITIVE in conds:
                for u, vs in succ.items():
                    for v in vs:
                        for w in succ.get(v, ()):
                            if (u, w) not in rel:
                                added.add((u, w))
            if FrameCondition.EUCLIDEAN in conds:
                for vs in succ.values():
                    for v in vs:
                        for w in vs:
                            if (v, w) not in rel:
                                added.add((v, w))
        if not added:
            return frozenset(rel)
        rel.update(added)


def closure(model: KripkeModel, conds: Iterable[FrameCondition]) -> KripkeModel:
    """Close every agent's relation; worlds and valuation are unchanged."""
    conds = set(conds)
    rels = [close_relation(rel, model.worlds, conds) for rel in model.relations]
    return make_model(model.worlds, model.agents, rels, model.valuation)


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


def satisfies(model: KripkeModel, conds: Iterable[FrameCondition]) -> bool:
    """Whether every agent's relation satisfies every condition."""
    return all(
        _satisfies_one(rows, masks, cond)
        for cond in conds
        for rows, masks in zip(model.rows, model.masks()[1])
    )
