"""Propositional satisfiability as a single-agent S5 planning problem."""
from __future__ import annotations

from ..errors import InvalidProblem
from ..formula import And, FalseF, Formula, Not, Prop, diamond, modal_depth, not_
from ..frames import profile
from ..kripke import EpistemicState, make_model
from ..problem import PlanningProblem
from .common import announcement

_HUB = "0"


def _possibilify(f: Formula) -> tuple[Formula, list[str]]:
    """``f`` with every proposition p replaced by <K> p, and its variable names.

    One post-order walk on an explicit stack, so any depth is handled: each
    distinct node is mapped once, after its children, and each proposition
    met gives its name.
    """
    done: dict[Formula, Formula] = {}
    names: list[str] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g in done:
            continue
        t = type(g)
        if t is Not:
            sub = done.get(g.sub)
            if sub is None:
                stack += (g, g.sub)
                continue
            done[g] = Not(sub)
        elif t is And:
            left, right = done.get(g.left), done.get(g.right)
            if left is None or right is None:
                stack += (g, g.right, g.left)
                continue
            done[g] = And(left, right)
        elif t is Prop:
            names.append(g.name)
            done[g] = diamond(0, g)
        elif t is FalseF:
            done[g] = g
        else:
            raise TypeError(f"not a propositional formula: {g!r}")
    return done[f], names


def sat_to_ep(phi: Formula) -> PlanningProblem:
    """Compile a propositional formula into an S5 plan-existence instance.

    One world per variable plus a hub world, totally connected; deleting
    variable worlds picks a falsifying set, and the goal reads each
    variable p as <K> p (the p-world is still considered possible).  The
    goal and the variable names come from one walk over ``phi``
    (``_possibilify``), which builds each new goal node once.
    """
    if modal_depth(phi) != 0:
        raise InvalidProblem("sat_to_ep needs a propositional formula")
    goal, variables = _possibilify(phi)
    variables.sort()
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
        goal=goal,
        logic=profile("S5"),
        meta={"kind": "sat", "variables": variables},
    )
