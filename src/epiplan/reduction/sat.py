"""Propositional satisfiability as a single-agent S5 planning problem."""
from __future__ import annotations

from ..errors import InvalidProblem
from ..formula import (
    And,
    FalseF,
    Formula,
    Not,
    Prop,
    diamond,
    modal_depth,
    not_,
    propositions,
    subformulas,
)
from ..frames import profile
from ..kripke import EpistemicState, make_model
from ..problem import PlanningProblem
from .common import announcement

_HUB = "0"


def _possibilify(f: Formula) -> Formula:
    """Replace every proposition p with <K> p, building each distinct node once."""
    done: dict[Formula, Formula] = {}
    for g in subformulas(f, done):
        t = type(g)
        if t is Prop:
            done[g] = diamond(0, g)
        elif t is Not:
            done[g] = Not(done[g.sub])
        elif t is And:
            done[g] = And(done[g.left], done[g.right])
        elif t is FalseF:
            done[g] = g
        else:
            raise TypeError(f"not a propositional formula: {g!r}")
    return done[f]


def sat_to_ep(phi: Formula) -> PlanningProblem:
    """Compile a propositional formula into an S5 plan-existence instance.

    One world per variable plus a hub world, totally connected; deleting
    variable worlds picks a falsifying set, and the goal reads each
    variable p as <K> p (the p-world is still considered possible).
    """
    if modal_depth(phi) != 0:
        raise InvalidProblem("sat_to_ep needs a propositional formula")
    variables = sorted(propositions(phi))
    if _HUB in variables:
        raise InvalidProblem(f"variable name {_HUB!r} collides with the hub world")
    worlds = [_HUB] + variables
    total = {(u, v) for u in worlds for v in worlds}
    model = make_model(worlds, 1, [total], {p: {p} for p in variables})
    initial = EpistemicState(model, _HUB)
    actions = {f"delete_{p}": announcement(f"delete_{p}", not_(Prop(p)), 1) for p in variables}
    return PlanningProblem(
        initial=initial,
        actions=actions,
        goal=_possibilify(phi),
        logic=profile("S5"),
        meta={"kind": "sat", "variables": variables},
    )
