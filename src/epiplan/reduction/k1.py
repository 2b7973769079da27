"""Single-agent compiler for unrestricted frames (logic profile K).

Encoding summary: the instance's candidate block sequence lives in two
chains hanging off w_root (one per row); the loop worlds w_{bt,x} let the
add-block actions splice new symbols onto the chain ends.  Auxiliary
worlds track bookkeeping facts a depth-1 precondition can see: w_empty
(nothing applied yet), w_stg1 (still in the adding stage), w_end (chain
end), w_ntF (no failed removal yet), w_lp (loop membership).

Chain worlds carry both their bit and their branch letter in the
valuation; the branch letter is what lets stage-two preconditions and the
goal recognize chain worlds as part of a row.
"""
from __future__ import annotations

from functools import cache

from ..action import EventModel, make_action
from ..formula import Formula, and_, diamond, know, not_, or_, prop
from ..kripke import EpistemicState, make_model
from ..pcp import PcpInstance
from .common import (
    _e,
    action_table,
    announcement,
    chain_failed_state,
    family_words,
    loop_marker,
    removal,
    with_empty,
)

AGENTS = 1
PROFILE_NAME = "K"
REMOVAL_ALPHABET = ("0", "1")
REMOVALS_NEED_BOTH_ROWS = False
PREPENDS_BLOCKS = False
FLAVORS = ("plain", "loop")

_P = {name: prop(name) for name in ("0", "1", "a", "b", "root", "stg1", "empty", "end", "ntF", "lp")}


def _w(*parts: str) -> str:
    return "w_" + (parts[0] if len(parts) == 1 else "{" + ",".join(parts) + "}")


symb = or_(_P["0"], _P["1"])
tail = and_(or_(_P["a"], _P["b"]), know(0, not_(symb)))
last = and_(diamond(0, _P["end"]), know(0, not_(_P["lp"])))
failed = and_(or_(_P["a"], _P["b"]), know(0, not_(_P["ntF"])))
goal = and_(know(0, not_(_P["empty"])), know(0, and_(tail, not_(failed))))


@cache
def initial_state() -> EpistemicState:
    return with_empty(family("", "", "loop"), PROFILE_NAME)


def family(qa: str, qb: str, flavor: str) -> EpistemicState:
    """The named block-sequence states: ``plain`` or ``loop``."""
    words = family_words("K1", FLAVORS, flavor, qa, qb)
    worlds = [_w("root"), _w("a"), _w("b"), _w("ntF")]
    val: dict[str, set[str]] = {w: {w[2:]} for w in worlds}
    edges: set[tuple[str, str]] = set()
    for x in "ab":
        q = words[x]
        chain = [_w(x, str(j)) for j in range(1, len(q) + 1)]
        worlds.extend(chain)
        for j, w in enumerate(chain):
            val[w] = {q[j], x}
            edges.add((w, _w("ntF")))
        edges.add((_w("root"), _w(x)))
        edges.add((_w(x), _w("ntF")))
        if chain:
            edges.add((_w(x), chain[0]))
            for u, v in zip(chain, chain[1:]):
                edges.add((u, v))
    if flavor == "loop":
        extra = [_w("stg1")]
        for x in "ab":
            extra.extend([_w("0", x), _w("1", x)])
        extra.extend([_w("end"), _w("lp")])
        worlds.extend(extra)
        val[_w("stg1")] = {"stg1"}
        val[_w("end")] = {"end"}
        val[_w("lp")] = {"lp"}
        edges.add((_w("root"), _w("stg1")))
        for x in "ab":
            q = words[x]
            for bt in "01":
                loop = _w(bt, x)
                val[loop] = {bt, x}
                edges.update({(loop, _w("ntF")), (loop, _w("end")), (loop, _w("lp"))})
                edges.update({(_w("0", x), loop), (_w("1", x), loop)})
            anchor = _w(x, str(len(q))) if q else _w(x)
            edges.update({(anchor, _w("0", x)), (anchor, _w("1", x)), (anchor, _w("end"))})
    model = make_model(worlds, AGENTS, [edges], val)
    return EpistemicState(model, _w("root"))


def add_block(index: int, block: tuple[str, str]) -> EventModel:
    """The action that appends block ``index`` to both chains."""
    words = {"a": block[0], "b": block[1]}
    events = [_e("s"), _e("st"), _e("a"), _e("a", "lst"), _e("b"), _e("b", "lst"),
              _e("end"), _e("ntF"), _e("lp"), _e("01", "a"), _e("01", "b")]
    pre: dict[str, Formula] = {
        _e("s"): and_(_P["root"], diamond(0, _P["stg1"])),
        _e("st"): _P["stg1"],
        _e("end"): _P["end"],
        _e("ntF"): _P["ntF"],
        # w_lp survives through a dedicated event so that only the loop
        # worlds keep seeing it; folding it into e_{01,x} would hand the
        # fresh chain end an lp successor and merge it into the loop.
        _e("lp"): _P["lp"],
    }
    edges: set[tuple[str, str]] = set()
    for x in "ab":
        ex, elst, e01 = _e(x), _e(x, "lst"), _e("01", x)
        pre[ex] = and_(_P[x], not_(last))
        pre[elst] = and_(_P[x], last)
        pre[e01] = loop_marker(x)
        edges.update({(_e("s"), _e("st")), (_e("s"), ex), (_e("s"), elst)})
        edges.update({(ex, ex), (ex, _e("ntF")), (ex, elst), (elst, _e("ntF"))})
        edges.update({(e01, e01), (e01, _e("end")), (e01, _e("ntF")), (e01, _e("lp"))})
        word = words[x]
        chain = [_e(x, str(j)) for j in range(1, len(word) + 1)]
        events.extend(chain)
        for j, ev in enumerate(chain):
            pre[ev] = and_(prop(word[j]), loop_marker(x))
            edges.add((ev, _e("ntF")))
        if chain:
            edges.add((elst, chain[0]))
            for u, v in zip(chain, chain[1:]):
                edges.add((u, v))
            edges.update({(chain[-1], _e("end")), (chain[-1], e01)})
        else:
            edges.update({(elst, e01), (elst, _e("end"))})
    return make_action(events, AGENTS, [edges], pre, _e("s"))


@cache
def next_stage() -> EventModel:
    pre = or_(
        or_(
            and_(know(0, not_(_P["empty"])), diamond(0, _P["stg1"])),
            and_(or_(_P["a"], _P["b"]), know(0, not_(_P["lp"]))),
        ),
        _P["ntF"],
    )
    return announcement("e_nx", pre, AGENTS)


@cache
def remove_symbol(bt: str) -> EventModel:
    """Stage-two action deleting bit ``bt`` from both chain ends."""
    if bt not in REMOVAL_ALPHABET:
        raise ValueError(f"variant K1 has no removal symbol {bt!r}")
    return removal(
        bt,
        main=or_(
            and_(_P["root"], know(0, not_(_P["stg1"]))),
            and_(or_(_P["a"], _P["b"]), not_(tail)),
        ),
        fail=or_(and_(tail, not_(_P[bt])), failed),
        keep=_P["ntF"],
        keep_name="ntF",
        profile_name=PROFILE_NAME,
    )


def build_actions(inst: PcpInstance) -> dict[str, EventModel]:
    return action_table(inst, add_block, next_stage, remove_symbol, REMOVAL_ALPHABET)


def failed_state(state: EpistemicState) -> bool:
    return chain_failed_state(state, failed, symb)
