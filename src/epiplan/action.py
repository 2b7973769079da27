"""Event models, applicability, product update, and plan application.

An event model is a pointed Kripke frame whose events carry precondition
formulas.  Applying one to an epistemic state (the product update) keeps
exactly the world/event pairs whose world satisfies the event's
precondition; there are no postconditions, so valuations are inherited
from the source world unchanged.
Event models store successor rows like Kripke models, and the
designated event by index, as states store their world; their name
pairs ``relations``, their agent count and the designated event's name
are derived views, and the product update reads indices and rows only.
The precondition of ``events[i]`` is ``preconditions[i]``.

Both ``applicable`` and ``product_update`` evaluate preconditions as
extension masks (``formula.extension_mask``), memoized in the state's
model, which makes its memo on the first precondition evaluated on it
(``KripkeModel.formula_memo``): at one search node, every action's test
and update share each subformula's mask.  Each precondition walks its
subformulas in an order computed once and kept on the formula node.
The update then visits only the world/event pairs it keeps, taken from
the set bits of those masks, never all of them.  Goal checks
(``formula.evaluate``) stay pointwise: they need one world, and there
the short-circuiting check compiled once per formula beats building full
masks.

Both read the designated world and event by index.  The product's world
names ``"(u,e)"`` are a recipe over the state's names (``kripke._Names``),
built only if something reads them.  Under an agent whose successor
masks repeat (the repeats view of ``KripkeModel.masks``), two kept pairs
``(i, e)`` and ``(i', e)`` with equal masks have equal successor rows, so
the update builds that row once and shares the tuple.

With no postconditions an update can only drop world/event pairs or copy
worlds.  ``keeps_state`` tells, from the same masks and no product, when
it does neither: each world keeps exactly one pair and every edge, and
the product is the state itself under the names ``"(u,e)"``.  The search
skips such updates.
"""
from __future__ import annotations

from dataclasses import dataclass
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
from .formula import Formula, extension_mask, formula_from_json, formula_to_json, modal_depth
from .kripke import (EpistemicState, KripkeModel, Pair, Rows, _pair_view, _successor_rows,
                     derived_model)

__all__ = [
    "EventModel",
    "make_action",
    "applicable",
    "product_update",
    "keeps_state",
    "apply_plan",
    "FailureAt",
    "action_to_json",
    "action_from_json",
]


@dataclass(frozen=True)
class EventModel:
    """A pointed event frame with per-event preconditions.

    ``preconditions[i]`` belongs to ``events[i]``, and ``rows[a][i]`` holds
    the indices of agent ``a``'s successors of ``events[i]``, as in a
    Kripke model; ``agents`` is ``len(rows)``.  The designated event is
    ``events[designated_index]``.  ``depth_bound`` caps the modal depth of
    every precondition (``None`` means unbounded); the planner requires
    bound 1.
    """

    events: tuple[str, ...]
    rows: Rows
    preconditions: tuple[Formula, ...]
    designated_index: int
    depth_bound: int | None = 1

    @property
    def agents(self) -> int:
        return len(self.rows)

    @property
    def designated(self) -> str:
        return self.events[self.designated_index]

    @property
    def relations(self) -> tuple[frozenset[Pair], ...]:
        """Per agent, the relation as event-name pairs (derived afresh on each access)."""
        return _pair_view(self.events, self.rows)


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
    return EventModel(event_list, rows, tuple(pres), index[designated], depth_bound)


def _same_agents(state: EpistemicState, action: EventModel) -> KripkeModel:
    if state.model.agents != action.agents:
        raise AgentMismatch(
            f"state has {state.model.agents} agent(s), action has {action.agents}"
        )
    return state.model


def applicable(state: EpistemicState, action: EventModel) -> bool:
    """Whether the action's designated precondition holds at the state.

    This reads one bit of the precondition's extension mask, so it checks
    every agent the precondition names (``UnknownAgent``) and leaves the
    masks in the model's memo for the product update.
    """
    model = _same_agents(state, action)
    mask = extension_mask(model, action.preconditions[action.designated_index])
    return bool(mask >> state.designated_index & 1)


def product_update(state: EpistemicState, action: EventModel) -> EpistemicState:
    """The product of a state with an applicable action.

    Worlds are the pairs ``(u, e)`` with ``u`` satisfying ``e``'s precondition,
    ordered by (world order, event order); a pair relates to another under
    an agent when both components do; valuations are inherited from the
    world component.  Only kept pairs are visited: they are read off the
    set bits of each precondition's mask, and the successors of ``(i, e)``
    under agent ``a`` off the set bits of ``succ_masks[a][i] & holds[f]``
    for each successor event ``f`` of ``e``; those depend on ``i`` only
    through its mask, so where masks repeat one row serves every pair
    with the same (mask, event).
    """
    model = _same_agents(state, action)
    holds = [extension_mask(model, pre) for pre in action.preconditions]
    m = len(action.events)
    u0, e0 = state.designated_index, action.designated_index
    if not holds[e0] >> u0 & 1:
        raise NotApplicable(f"designated precondition fails at {state.designated!r}")
    # kept pairs as codes i * m + e, ascending: world order, then event order;
    # slot[code] is the product index of a kept pair (other entries unread)
    codes = []
    for e, mask in enumerate(holds):
        while mask:
            low = mask & -mask
            codes.append((low.bit_length() - 1) * m + e)
            mask ^= low
    codes.sort()
    slot = [0] * (len(model.valuations) * m)
    for k, code in enumerate(codes):
        slot[code] = k
    pairs = [divmod(code, m) for code in codes]
    _, all_succ_masks, all_repeats = model.masks()
    rows = []
    for succ_masks, event_row, repeats in zip(all_succ_masks, action.rows, all_repeats):
        row = []
        shared = {} if repeats else None
        for i, e in pairs:
            succ = succ_masks[i]
            if shared is not None:
                out = shared.get((succ, e))
                if out is not None:
                    row.append(out)
                    continue
            out = []
            for f in event_row[e]:
                kept = succ & holds[f]
                while kept:
                    low = kept & -kept
                    out.append(slot[(low.bit_length() - 1) * m + f])
                    kept ^= low
            out.sort()
            out = tuple(out)
            if shared is not None:
                shared[succ, e] = out
            row.append(out)
        rows.append(tuple(row))
    valuations = model.valuations
    vals = tuple([valuations[i] for i, _ in pairs])
    new_model = derived_model(model, pairs, tuple(rows), vals, action.events)
    return EpistemicState.at(new_model, slot[u0 * m + e0])


def keeps_state(state: EpistemicState, action: EventModel) -> bool:
    """Whether an applicable action's product is the state itself, renamed.

    The action must be applicable at the state (``applicable``); this
    does not test it again.  Exact, and read off the precondition masks in
    the model's memo (the ones ``product_update`` reads) and the model's
    successor masks, with no product built.  True when:

    - the masks' popcounts sum to the world count, and no world lies in
      two masks, so their union is every world and each world ``i`` keeps
      exactly one pair ``(i, e_i)``; as the action is applicable, the
      designated world's pair then has the designated event;
    - under every agent, each world's successor mask lies inside the
      union of ``holds[f]`` over ``e_i``'s successor events ``f``, so
      every edge of the state survives.

    Then the product's world ``k`` is the pair ``(k, e_k)``: kept pairs
    are ordered by world first.  It has the state's rows, valuations
    (there are no postconditions) and designated index; only its names
    ``"(u,e_u)"`` differ.  The popcount sum comes first: it is the cheap
    test that most products which grow or shrink the state fail.
    """
    model = _same_agents(state, action)
    holds = [extension_mask(model, pre) for pre in action.preconditions]
    n = len(model.valuations)
    if sum([mask.bit_count() for mask in holds]) != n:
        return False
    seen = 0
    for mask in holds:
        if mask & seen:
            return False
        seen |= mask
    full = (1 << n) - 1
    _, all_succ_masks, _ = model.masks()
    for succ_masks, event_row in zip(all_succ_masks, action.rows):
        for e, mask in enumerate(holds):
            allowed = 0
            for f in event_row[e]:
                allowed |= holds[f]
            dropped = full ^ allowed
            if not dropped:
                continue
            while mask:
                low = mask & -mask
                if succ_masks[low.bit_length() - 1] & dropped:
                    return False
                mask ^= low
    return True


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
    step: that keeps applicability and goal truth, and bounds state size.
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


# --- JSON encoding -------------------------------------------------------


def action_to_json(action: EventModel) -> dict[str, Any]:
    return {
        "agents": action.agents,
        "events": sorted(action.events),
        "relations": [sorted([u, v] for (u, v) in rel) for rel in action.relations],
        "pre": {e: formula_to_json(f) for e, f in zip(action.events, action.preconditions)},
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
