"""The plan-existence problem instance: initial state, actions, goal, logic."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .action import EventModel, action_from_json, action_to_json
from .errors import InvalidProblem, field_of, shaped
from .formula import Formula, formula_from_json, formula_to_json, modal_depth
from .frames import LogicProfile, profile_from_json, profile_to_json, satisfies
from .kripke import EpistemicState, state_from_json, state_to_json


@dataclass(frozen=True)
class PlanningProblem:
    """Initial state + named action set + goal formula + logic profile."""

    initial: EpistemicState
    actions: Mapping[str, EventModel]
    goal: Formula
    logic: LogicProfile
    meta: Mapping[str, Any] = field(default_factory=dict)


def validate_problem(problem: PlanningProblem) -> None:
    """Raise InvalidProblem unless the instance is well formed.

    Checks: action names resolve to event models over the same agent count
    as the initial state; the goal and every precondition name only agents
    of the initial state; every precondition has modal depth at most 1;
    the initial model and every action frame satisfy the logic profile's
    frame conditions.
    """
    agents = problem.initial.model.agents
    if problem.goal.max_agent >= agents:
        raise InvalidProblem(
            f"the goal names agent {problem.goal.max_agent}, initial state has {agents} agent(s)"
        )
    for name, action in problem.actions.items():
        if action.agents != agents:
            raise InvalidProblem(
                f"action {name!r} has {action.agents} agent(s), initial state has {agents}"
            )
        for e, pre in zip(action.events, action.preconditions):
            if pre.max_agent >= agents:
                raise InvalidProblem(
                    f"action {name!r} event {e!r} names agent {pre.max_agent}, "
                    f"initial state has {agents} agent(s)"
                )
            depth = modal_depth(pre)
            if depth > 1:
                raise InvalidProblem(
                    f"action {name!r} event {e!r} has precondition depth {depth} > 1"
                )
    conds = problem.logic.conditions
    if not satisfies(problem.initial.model, conds):
        raise InvalidProblem("initial model violates the logic profile's frame conditions")
    for name, action in problem.actions.items():
        if not satisfies(action, conds):
            raise InvalidProblem(
                f"action {name!r} violates the logic profile's frame conditions"
            )


def problem_to_json(problem: PlanningProblem) -> dict[str, Any]:
    doc = {
        "initial": state_to_json(problem.initial),
        "actions": {name: action_to_json(a) for name, a in problem.actions.items()},
        "goal": formula_to_json(problem.goal),
        "logic": profile_to_json(problem.logic),
    }
    if problem.meta:
        doc["meta"] = dict(problem.meta)
    return doc


def problem_from_json(doc: Mapping[str, Any]) -> PlanningProblem:
    actions = field_of(doc, "actions", dict, "problem")
    return PlanningProblem(
        initial=state_from_json(field_of(doc, "initial", dict, "problem")),
        actions={name: action_from_json(a) for name, a in actions.items()},
        goal=formula_from_json(field_of(doc, "goal", dict, "problem")),
        logic=profile_from_json(field_of(doc, "logic", None, "problem")),
        meta=dict(shaped(doc.get("meta", {}), dict, "problem 'meta'")),
    )
