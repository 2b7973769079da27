"""Single-agent compiler for reflexive+transitive frames (profile S4).

The loop worlds come first here: root -> loop -> chain -> w_x, so adding
a block splices its symbols between the loop and the existing chain (the
stored word grows at the front).  Under transitivity every world sees its
whole downstream set, which changes the bookkeeping:

- no w_ntF / w_end copies exist; a chain world is the removable tail
  exactly when nothing of the expected next kind is visible below it;
- a failed removal strands the offending tail as a world that can no
  longer see any branch terminus (symb & K !term below), which keeps the
  goal's K !symb conjunct false forever;
- removals apply only while both branches still carry symbols, which the
  root can see directly (<K>(symb & a) etc.), so one branch can never be
  stripped past the other (REMOVALS_NEED_BOTH_ROWS).

Witness plans (reduction.match_to_plan) therefore apply the add-block
actions in reverse match order (PREPENDS_BLOCKS), so that the stored
word equals the match's concatenation read front to back and the
removal suffix is identical to the other variants.
"""
from __future__ import annotations

from functools import cache

from ..action import EventModel, make_action
from ..formula import Formula, and_, conj, diamond, disj, extension_mask, know, not_, or_, prop
from ..frames import PROFILES, closure
from ..kripke import EpistemicState, make_model, restrict
from ..pcp import PcpInstance
from .common import (
    _e,
    action_table,
    announcement,
    family_words,
    left_stage_one,
    loop_marker,
    removal,
    with_empty,
)

AGENTS = 1
PROFILE_NAME = "S4"
REMOVAL_ALPHABET = ("0", "1", "#")
REMOVALS_NEED_BOTH_ROWS = True
PREPENDS_BLOCKS = True
FLAVORS = ("plain", "loop", "minus_hash")

_P = {name: prop(name) for name in ("0", "1", "#", "a", "b", "root", "stg1", "empty", "lp")}


@cache
def nxt(d: str) -> Formula:
    if d in ("0", "1"):
        return _P["#"]
    if d in ("#", "a", "b"):
        return or_(_P["0"], _P["1"])
    raise ValueError(f"nxt takes one of 0, 1, #, a, b; got {d!r}")


symb = disj(_P["0"], _P["1"], _P["#"])
tail = and_(symb, disj(*(and_(_P[d], know(0, not_(nxt(d)))) for d in ("0", "1", "#"))))
# a branch terminus: branch-labelled but not a chain symbol
term = and_(or_(_P["a"], _P["b"]), not_(symb))
# a chain symbol that can no longer see any branch terminus
damaged = and_(symb, know(0, not_(term)))
goal = conj(know(0, not_(_P["empty"])), know(0, not_(_P["stg1"])), know(0, not_(symb)))


def _w(*parts: str) -> str:
    if len(parts) == 1:
        return f"w_{parts[0]}"
    if len(parts) == 2 and parts[0] in ("0", "1", "#"):
        return f"w_{parts[0]}({parts[1]})"
    return "w_{" + ",".join(parts) + "}"


@cache
def initial_state() -> EpistemicState:
    return with_empty(family("", "", "loop"), PROFILE_NAME)


def family(qa: str, qb: str, flavor: str) -> EpistemicState:
    words = family_words("S4_1", FLAVORS, flavor, qa, qb)
    worlds = [_w("root"), _w("a"), _w("b")]
    val: dict[str, set[str]] = {_w("root"): {"root"}, _w("a"): {"a"}, _w("b"): {"b"}}
    edges: set[tuple[str, str]] = set()
    chain_of: dict[str, list[str]] = {}
    for x in "ab":
        q = words[x]
        edges.add((_w("root"), _w(x)))
        chain: list[str] = []
        for j in range(1, len(q) + 1):
            bit, hsh = _w(x, str(j)), _w(x, str(j), "#")
            worlds.extend([bit, hsh])
            val[bit] = {q[j - 1], x}
            val[hsh] = {"#", x}
            edges.add((_w("root"), bit))
            edges.add((bit, hsh))
            edges.add((hsh, _w(x)))
            if chain:
                edges.add((chain[-1], bit))
            chain.extend([bit, hsh])
        chain_of[x] = chain
    if flavor == "loop":
        worlds.extend([_w("stg1"), _w("lp")])
        val[_w("stg1")] = {"stg1"}
        val[_w("lp")] = {"lp"}
        edges.add((_w("root"), _w("stg1")))
        for x in "ab":
            q = words[x]
            group = {}
            for p in ("0", "1", "#"):
                w = _w(p, x)
                worlds.append(w)
                val[w] = {p, x}
                group[p] = w
            for bt in "01":
                edges.add((_w("root"), group[bt]))
                edges.update({(group[bt], group["#"]), (group["#"], group[bt])})
                edges.add((group[bt], _w("lp")))
            edges.add((group["#"], _w("lp")))
            edges.add((group["#"], _w(x)))
            if q:
                edges.add((group["#"], chain_of[x][0]))
    model = closure(make_model(worlds, AGENTS, [edges], val), PROFILES[PROFILE_NAME])
    if flavor == "minus_hash":
        drop = {chain_of[x][-1] for x in "ab" if words[x]}
        model = restrict(model, [w for w in model.worlds if w not in drop])
    return EpistemicState(model, _w("root"))


def add_block(index: int, block: tuple[str, str]) -> EventModel:
    words = {"a": block[0], "b": block[1]}
    events = [_e("s"), _e("st")]
    pre: dict[str, Formula] = {
        _e("s"): and_(_P["root"], diamond(0, _P["stg1"])),
        _e("st"): _P["stg1"],
    }
    edges: set[tuple[str, str]] = set()
    for x in "ab":
        word = words[x]
        ex, e01 = _e(x), _e("01", x)
        events.extend([ex, e01])
        pre[ex] = and_(_P[x], not_(loop_marker(x)))
        pre[e01] = or_(loop_marker(x), _P["lp"])
        edges.update({(_e("s"), _e("st")), (_e("s"), ex), (_e("s"), e01)})
        edges.add((e01, ex))
        prev = e01
        for j in range(1, len(word) + 1):
            bit, hsh = _e(x, str(j)), _e(x, str(j), "#")
            events.extend([bit, hsh])
            pre[bit] = and_(prop(word[j - 1]), loop_marker(x))
            pre[hsh] = and_(_P["#"], loop_marker(x))
            edges.update({(prev, bit), (bit, hsh), (bit, ex)})
            prev = hsh
        edges.add((prev, ex))
    return closure(make_action(events, AGENTS, [edges], pre, _e("s")), PROFILES[PROFILE_NAME])


@cache
def next_stage() -> EventModel:
    pre = or_(
        conj(not_(_P["stg1"]), know(0, not_(_P["empty"])), diamond(0, _P["stg1"])),
        and_(or_(_P["a"], _P["b"]), know(0, not_(_P["lp"]))),
    )
    return announcement("e_nx", pre, AGENTS)


@cache
def remove_symbol(d: str) -> EventModel:
    if d not in REMOVAL_ALPHABET:
        raise ValueError(f"variant S4_1 has no removal symbol {d!r}")
    return removal(
        d,
        main=or_(
            conj(
                _P["root"],
                know(0, not_(_P["stg1"])),
                diamond(0, and_(symb, _P["a"])),
                diamond(0, and_(symb, _P["b"])),
            ),
            and_(symb, not_(tail)),
        ),
        fail=or_(and_(tail, not_(_P[d])), damaged),
        keep=term,
        keep_name="term",
        profile_name=PROFILE_NAME,
    )


def build_actions(inst: PcpInstance) -> dict[str, EventModel]:
    return action_table(inst, add_block, next_stage, remove_symbol, REMOVAL_ALPHABET)


def failed_state(state: EpistemicState) -> bool:
    """Once the root has left stage one, whether it sees a ``damaged`` world other than itself."""
    if not left_stage_one(state):
        return False
    model = state.model
    root = state.designated_index
    return bool(model.masks()[1][0][root] & ~(1 << root) & extension_mask(model, damaged))
