"""Compilers from correspondence-problem instances to planning problems.

One submodule per logic variant, reached through ``module(variant)``.  A
variant's compiler module is its whole spec; every one defines

- ``AGENTS``, ``PROFILE_NAME`` (a key of ``frames.PROFILES``) and
  ``FLAVORS``, the flavors its ``family`` accepts;
- ``REMOVAL_ALPHABET``: the bits ``"0", "1"``, then the separators that
  follow each bit on a chain, in chain order.  A separator ``s`` has the
  family flavor ``"minus_hash" + s[1:]``: the state whose chain ends lost
  the separators from ``s`` on;
- ``PREPENDS_BLOCKS``: whether ``add_block`` splices a block in front of
  the stored word rather than after it;
- ``REMOVALS_NEED_BOTH_ROWS``: whether a removal applies only while both
  rows still hold symbols;
- ``family(qa, qb, flavor)`` (the named block-sequence states the lemma
  suites compare product updates against), ``initial_state()``,
  ``add_block(index, block)``, ``next_stage()``, ``remove_symbol(s)``
  and ``build_actions(inst)``;
- ``goal``, the goal formula;
- ``failed_state(state)``, the witness-path check for a failed removal.
  It runs on extension masks (``formula.extension_mask``) and successor
  masks (``model.masks()``), each frontier one integer over world
  indices, behind the shared guard ``common.left_stage_one``; it reads
  no world name.

``initial_state()`` is derived, not built: ``common.with_empty`` adds the
``w_empty`` marker ("nothing applied yet") to ``family("", "", "loop")``,
the empty-word stage-one state, joins it to the root's agent-0 row and
closes the grown model under ``PROFILE_NAME``'s frame conditions.
The named formulas (``symb``, ``last``, ``failed``, ..., ``goal``) are
module values built at import, each after the values it uses; only
those that take an argument are functions.  Two shapes in ``common`` build the
instance-independent actions: ``announcement``, one event every agent
sees (each ``next_stage()``, the MultiS5 removals and ``sat_to_ep``'s
``delete_p``), and ``removal``, the K1, KTB1 and S4_1 removals (``e^d``
seeing itself, ``e^d_fail`` and a keep event, closed under the profile).

Only the add-block actions depend on the instance.  Everything else is
built once per process: the named formulas at import, and through
``functools.cache`` ``loop_marker(x)``, ``nxt(d)``, MultiS5's
``tail(i)``, ``next_stage()``, ``remove_symbol(s)`` for each ``s`` in
``REMOVAL_ALPHABET`` (any other symbol raises ``ValueError``) and
``initial_state()``.  Each call returns the same object.
``initial_state()`` is one shared, immutable state; its model's lazy
masks and subformula memo are pure functions of the model.  Under the
compiled actions the memo stays bounded: every precondition comes from
a finite family per variant, and no block index enters one.
``family``, ``add_block``, ``build_actions`` and ``sat_to_ep`` build
afresh on every call.

Witness plans and the suites' removal phases are derived from these
constants, so no code outside a compiler module tests which variant it
runs.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

from ..errors import NotAMatch, UnknownActionName
from ..frames import profile
from ..pcp import Match, PcpInstance, instance_to_json, matched_word
from ..problem import PlanningProblem
from . import k1, ktb, multi, s4
from .sat import sat_to_ep

__all__ = [
    "Variant",
    "module",
    "reduce_instance",
    "match_to_plan",
    "plan_match_prefix",
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
    """The compiler module that is the variant's spec."""
    return _MODULES[variant]


def reduce_instance(inst: PcpInstance, variant: Variant) -> PlanningProblem:
    """Compile an instance into the variant's plan-existence problem."""
    mod = _MODULES[variant]
    return PlanningProblem(
        initial=mod.initial_state(),
        actions=mod.build_actions(inst),
        goal=mod.goal,
        logic=profile(mod.PROFILE_NAME),
        meta={"variant": variant.value, "pcp": instance_to_json(inst)},
    )


def match_to_plan(inst: PcpInstance, match: Sequence[int], variant: Variant) -> tuple[str, ...]:
    """The witness plan for a match: add blocks, switch stage, remove.

    The blocks are added in match order, or backwards when the compiler
    prepends them, so that the stored word reads front to back.  The
    removals then eat the word from its last symbol: for each symbol its
    trailing separators, last first, and then the bit itself.
    """
    word = matched_word(inst, match)  # raises NotAMatch on bad input
    mod = _MODULES[variant]
    adds = [f"ad_{i}" for i in match]
    if mod.PREPENDS_BLOCKS:
        adds.reverse()
    separators = [f"remove_{s}" for s in reversed(mod.REMOVAL_ALPHABET[2:])]
    removals = [name for bit in reversed(word) for name in (*separators, f"remove_{bit}")]
    return (*adds, "next_stage", *removals)


def plan_match_prefix(plan: Sequence[str], variant: Variant) -> Match:
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
