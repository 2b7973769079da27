"""Compilers from correspondence-problem instances to planning problems.

One submodule per logic variant; this package front-ends them behind a
single Variant enum.  The named state families (``oracle_state``) are the
test oracles the lemma suites compare product updates against.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

from ..errors import NotAMatch, UnknownActionName
from ..formula import Formula
from ..frames import profile
from ..kripke import EpistemicState
from ..pcp import Match, PcpInstance, instance_to_json, matched_word
from ..problem import PlanningProblem
from . import k1, ktb, multi, s4
from .sat import sat_to_ep

__all__ = [
    "Variant",
    "reduce_instance",
    "oracle_state",
    "shorthand",
    "match_to_plan",
    "plan_match_prefix",
    "failed_state_check",
    "sat_to_ep",
]


class Variant(Enum):
    K1 = "K1"
    MULTI_S5 = "MultiS5"
    KTB1 = "KTB1"
    S4_1 = "S4_1"


_MODULES = {
    Variant.K1: k1,
    Variant.MULTI_S5: multi,
    Variant.KTB1: ktb,
    Variant.S4_1: s4,
}


def module(variant: Variant):
    return _MODULES[variant]


def reduce_instance(inst: PcpInstance, variant: Variant) -> PlanningProblem:
    """Compile an instance into the variant's plan-existence problem."""
    mod = _MODULES[variant]
    return PlanningProblem(
        initial=mod.initial_state(),
        actions=mod.build_actions(inst),
        goal=mod.goal(),
        logic=profile(mod.PROFILE_NAME),
        meta={"variant": variant.value, "pcp": instance_to_json(inst)},
    )


def oracle_state(variant: Variant, qa: str, qb: str, flavor: str) -> EpistemicState:
    """The variant's named block-sequence state (a literal model)."""
    return _MODULES[variant].family(qa, qb, flavor)


def shorthand(variant: Variant, name: str, arg: str | None = None) -> Formula:
    return _MODULES[variant].shorthand(name, arg)


def match_to_plan(inst: PcpInstance, match: Sequence[int], variant: Variant) -> tuple[str, ...]:
    """The witness plan for a match: add blocks, switch stage, remove."""
    word = matched_word(inst, match)  # raises NotAMatch on bad input
    return tuple(_MODULES[variant].match_plan(inst, match, word))


def plan_match_prefix(plan: Sequence[str], variant: Variant = Variant.K1) -> Match:
    """Recover the index sequence from a plan's add-block prefix.

    A variant whose compiler prepends blocks (``PREPENDS_BLOCKS``) plays
    the match backwards, so its prefix is reversed here.
    """
    out = []
    for name in plan:
        if not name.startswith("ad_"):
            break
        try:
            out.append(int(name[3:]))
        except ValueError:
            raise UnknownActionName(f"malformed add-block action name {name!r}") from None
    if not out:
        raise NotAMatch("plan has no add-block prefix")
    if _MODULES[variant].PREPENDS_BLOCKS:
        out.reverse()
    return tuple(out)


def failed_state_check(state: EpistemicState, variant: Variant) -> bool:
    """Whether the state carries a witness path for a failed removal."""
    return _MODULES[variant].failed_state(state)
