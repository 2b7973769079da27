"""Event models, applicability, product update, and plan application.

An event model is a pointed Kripke frame whose events carry precondition
formulas.  Applying one to an epistemic state (the product update) keeps
exactly the world/event pairs whose world satisfies the event's
precondition; there are no postconditions, so valuations are inherited
from the source world unchanged.
Event models store successor rows like Kripke models; their name pairs
``relations`` are a derived view, and the product update reads rows only.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from . import bisim
from .errors import (
    AgentMismatch,
    DanglingEventRef,
    DepthExceeded,
    NotApplicable,
    UnknownActionName,
    field_of,
    shaped,
    string_pairs,
    strings,
)
from .formula import (
    And,
    FalseF,
    Formula,
    Know,
    Not,
    Prop,
    _eval,
    extension_mask,
    formula_from_json,
    formula_to_json,
    modal_depth,
)
from .kripke import EpistemicState, KripkeModel, Pair, Rows, _pair_view, _successor_rows

__all__ = [
    "EventModel",
    "make_action",
    "applicable",
    "product_update",
    "apply_plan",
    "FailureAt",
    "Separability",
    "is_separable",
    "action_to_json",
    "action_from_json",
]


@dataclass(frozen=True)
class EventModel:
    """A pointed event frame with per-event preconditions.

    ``preconditions[i]`` belongs to ``events[i]``, and ``rows[a][i]`` holds
    the indices of agent ``a``'s successors of ``events[i]``, as in a
    Kripke model.  ``depth_bound`` caps the modal depth of every
    precondition (``None`` means unbounded); the planner requires bound 1.
    """

    events: tuple[str, ...]
    agents: int
    rows: Rows
    preconditions: tuple[Formula, ...]
    designated: str
    depth_bound: int | None = 1

    def __post_init__(self):
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.events)})

    @property
    def relations(self) -> tuple[frozenset[Pair], ...]:
        """Per agent, the relation as event-name pairs (derived afresh on each access)."""
        return _pair_view(self.events, self.rows)

    def __contains__(self, event: str) -> bool:
        return event in self._index

    def pre(self, event: str) -> Formula:
        return self.preconditions[self._index[event]]


def make_action(
    events: Iterable[str],
    agent_count: int,
    relations: Iterable[Iterable[Pair]],
    pre: Mapping[str, Formula],
    designated: str,
    depth_bound: int | None = 1,
) -> EventModel:
    """Validate and build an event model.

    Rejects dangling event references and any precondition whose modal
    depth exceeds ``depth_bound``.
    """
    event_list = tuple(events)
    index = {e: i for i, e in enumerate(event_list)}
    if len(index) != len(event_list):
        raise DanglingEventRef("duplicate event identifiers")
    rows = _successor_rows(index, relations, agent_count, DanglingEventRef, "event")
    if designated not in index:
        raise DanglingEventRef(f"designated event {designated!r} not in event list")
    for e in pre:
        if e not in index:
            raise DanglingEventRef(f"precondition given for unknown event {e!r}")
    pres = []
    for e in event_list:
        if e not in pre:
            raise DanglingEventRef(f"missing precondition for event {e!r}")
        f = pre[e]
        if depth_bound is not None:
            depth = modal_depth(f)
            if depth > depth_bound:
                raise DepthExceeded(e, depth, depth_bound)
        pres.append(f)
    return EventModel(event_list, agent_count, rows, tuple(pres), designated, depth_bound)


def _same_agents(state: EpistemicState, action: EventModel) -> KripkeModel:
    if state.model.agents != action.agents:
        raise AgentMismatch(
            f"state has {state.model.agents} agent(s), action has {action.agents}"
        )
    return state.model


def applicable(state: EpistemicState, action: EventModel) -> bool:
    """Whether the action's designated precondition holds at the state."""
    model = _same_agents(state, action)
    return _eval(model, model.index_of(state.designated), action.pre(action.designated))


def product_update(state: EpistemicState, action: EventModel) -> EpistemicState:
    """The product of a state with an applicable action.

    Worlds are the pairs ``(u, e)`` with ``u`` satisfying ``pre(e)``,
    ordered by (world order, event order); a pair relates to another under
    an agent when both components do; valuations are inherited from the
    world component.
    """
    model = _same_agents(state, action)
    cache: dict = {}
    holds = [extension_mask(model, pre, cache) for pre in action.preconditions]
    events, m = action.events, len(action.events)
    u0, e0 = model.index_of(state.designated), action._index[action.designated]
    if not holds[e0] >> u0 & 1:
        raise NotApplicable(f"designated precondition fails at {state.designated!r}")
    # slot[i * m + e] is the product index of (worlds[i], events[e]), or -1
    slot = [-1] * (len(model.worlds) * m)
    pairs, worlds, vals = [], [], []
    for i, u in enumerate(model.worlds):
        for e in range(m):
            if holds[e] >> i & 1:
                slot[i * m + e] = len(pairs)
                pairs.append((i, e))
                worlds.append(f"({u},{events[e]})")
                vals.append(model.valuations[i])
    rows = tuple(
        tuple(
            tuple(k for j in world_row[i] for f in event_row[e] if (k := slot[j * m + f]) >= 0)
            for i, e in pairs
        )
        for world_row, event_row in zip(model.rows, action.rows)
    )
    new_model = KripkeModel(tuple(worlds), model.agents, rows, tuple(vals))
    return EpistemicState(new_model, worlds[slot[u0 * m + e0]])


@dataclass(frozen=True)
class FailureAt:
    """Reported by apply_plan: the first plan step that was inapplicable."""

    index: int
    action: str


def apply_plan(
    state: EpistemicState,
    actions: Mapping[str, EventModel],
    plan: Sequence[str],
    minimize: bool = False,
) -> EpistemicState | FailureAt:
    """Left fold of product updates over the plan.

    With ``minimize`` the state is quotiented by bisimulation after each
    step, which preserves applicability and goal truth.
    """
    for name in plan:
        if name not in actions:
            raise UnknownActionName(f"plan mentions unknown action {name!r}")
    current = state
    for i, name in enumerate(plan):
        action = actions[name]
        if not applicable(current, action):
            return FailureAt(i, name)
        current = product_update(current, action)
        if minimize:
            current = bisim.quotient(current)
    return current


class Separability(Enum):
    SEPARABLE = "separable"
    NOT_SEPARABLE = "not_separable"
    UNKNOWN = "unknown"


def _prop_abstract(f: Formula, atoms: dict[Formula, int]) -> tuple:
    """Formula over integers: propositions and Know-subtrees become atoms."""
    if isinstance(f, FalseF):
        return ("const", False)
    if isinstance(f, (Prop, Know)):
        if f not in atoms:
            atoms[f] = len(atoms)
        return ("atom", atoms[f])
    if isinstance(f, Not):
        return ("not", _prop_abstract(f.sub, atoms))
    if isinstance(f, And):
        return ("and", _prop_abstract(f.left, atoms), _prop_abstract(f.right, atoms))
    raise TypeError(f"not a formula: {f!r}")


def _abstract_eval(tree: tuple, assignment: int) -> bool:
    tag = tree[0]
    if tag == "const":
        return tree[1]
    if tag == "atom":
        return bool(assignment >> tree[1] & 1)
    if tag == "not":
        return not _abstract_eval(tree[1], assignment)
    return _abstract_eval(tree[1], assignment) and _abstract_eval(tree[2], assignment)


def _jointly_sat_abstract(f: Formula, g: Formula) -> bool:
    atoms: dict[Formula, int] = {}
    tf, tg = _prop_abstract(f, atoms), _prop_abstract(g, atoms)
    if len(atoms) > 22:
        return True  # too many atoms to enumerate; treat as possibly-sat
    return any(
        _abstract_eval(tf, m) and _abstract_eval(tg, m) for m in range(1 << len(atoms))
    )


def is_separable(actions: Mapping[str, EventModel]) -> Separability:
    """Best-effort check that no two actions can apply to the same state.

    Compares the designated-event preconditions pairwise on their
    propositional cores (knowledge subformulas abstracted to fresh atoms).
    A contradictory core proves the pair incompatible; a satisfiable core
    is conclusive only when no knowledge operators are involved or the two
    preconditions are syntactically identical.  Anything else is UNKNOWN.
    """
    pres = [actions[name].pre(actions[name].designated) for name in sorted(actions)]
    verdict = Separability.SEPARABLE
    for i in range(len(pres)):
        for j in range(i + 1, len(pres)):
            f, g = pres[i], pres[j]
            if not _jointly_sat_abstract(f, g):
                continue
            if f == g or (modal_depth(f) == 0 and modal_depth(g) == 0):
                return Separability.NOT_SEPARABLE
            verdict = Separability.UNKNOWN
    return verdict


# --- JSON encoding -------------------------------------------------------


def action_to_json(action: EventModel) -> dict[str, Any]:
    return {
        "agents": action.agents,
        "events": sorted(action.events),
        "relations": [sorted([u, v] for (u, v) in rel) for rel in action.relations],
        "pre": {e: formula_to_json(action.pre(e)) for e in action.events},
        "designated": action.designated,
        "depth_bound": action.depth_bound,
    }


def action_from_json(doc: Mapping[str, Any]) -> EventModel:
    pre = field_of(doc, "pre", dict, "action")
    depth_bound = doc.get("depth_bound")
    if depth_bound is not None:
        shaped(depth_bound, int, "action 'depth_bound'")
    return make_action(
        strings(field_of(doc, "events", list, "action"), "action events"),
        field_of(doc, "agents", int, "action"),
        [string_pairs(r, "action relation") for r in field_of(doc, "relations", list, "action")],
        {e: formula_from_json(f) for e, f in pre.items()},
        field_of(doc, "designated", str, "action"),
        depth_bound,
    )
