"""Single-agent compiler for reflexive+symmetric frames (profile KTB).

Two separator symbols #1/#2 follow every chain bit so the undirected
chain keeps an orientation: the neighborhood of a symbol determines what
may legally come next (nxt below).  Every relation here is passed through
the reflexive-symmetric closure.

The stage-two machinery (next_stage, the removal actions, the goal) is a
transcription in the same style as the other variants, adjusted for
reflexivity: formulas that must not hold at a world can no longer be
falsified by that world simply lacking successors, so the root/branch
guards are explicit.  The chain-end bookkeeping worlds w_end(x) are part
of the loop-flavor family here, attached at the last #2 world.
"""
from __future__ import annotations

from functools import cache

from ..action import EventModel, make_action
from ..formula import Formula, and_, conj, diamond, disj, know, not_, or_, prop
from ..frames import PROFILES, closure
from ..kripke import EpistemicState, make_model, restrict
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
PROFILE_NAME = "KTB"
REMOVAL_ALPHABET = ("0", "1", "#1", "#2")
REMOVALS_NEED_BOTH_ROWS = False
PREPENDS_BLOCKS = False
FLAVORS = ("plain", "loop", "minus_hash1", "minus_hash2")

_P = {
    name: prop(name)
    for name in ("0", "1", "#1", "#2", "a", "b", "root", "stg1", "empty", "end", "ntF", "lp")
}


@cache
def nxt(d: str) -> Formula:
    if d in ("0", "1"):
        return _P["#1"]
    if d == "#1":
        return _P["#2"]
    if d in ("#2", "a", "b"):
        return or_(_P["0"], _P["1"])
    raise ValueError(f"nxt takes one of 0, 1, #1, #2, a, b; got {d!r}")


symb = disj(_P["0"], _P["1"], _P["#1"], _P["#2"])
# The extra !end guard is required under reflexivity: an end world can
# reach itself, so <K> end alone would mark it as a chain end.
last = conj(not_(_P["end"]), diamond(0, _P["end"]), know(0, not_(_P["lp"])))
tail = and_(
    or_(_P["a"], _P["b"]),
    disj(
        and_(not_(symb), know(0, not_(nxt("a")))),
        *(and_(_P[d], know(0, not_(nxt(d)))) for d in ("0", "1", "#1", "#2")),
    ),
)
failed = and_(or_(_P["a"], _P["b"]), know(0, not_(_P["ntF"])))
goal = and_(know(0, not_(_P["empty"])), know(0, and_(or_(_P["root"], tail), not_(failed))))


def _w(*parts: str) -> str:
    if len(parts) == 1:
        return f"w_{parts[0]}"
    if len(parts) == 2:
        return f"w_{parts[0]}({parts[1]})"
    return "w_{" + ",".join(parts) + "}"


@cache
def initial_state() -> EpistemicState:
    return with_empty(family("", "", "loop"), PROFILE_NAME)


def family(qa: str, qb: str, flavor: str) -> EpistemicState:
    words = family_words("KTB1", FLAVORS, flavor, qa, qb)
    worlds = [_w("root"), _w("a"), _w("b"), _w("ntF", "a"), _w("ntF", "b")]
    val: dict[str, set[str]] = {
        _w("root"): {"root"},
        _w("a"): {"a"},
        _w("b"): {"b"},
        _w("ntF", "a"): {"ntF", "a"},
        _w("ntF", "b"): {"ntF", "b"},
    }
    edges: set[tuple[str, str]] = set()
    last_cells: dict[str, list[str]] = {}
    for x in "ab":
        q = words[x]
        ntf = _w("ntF", x)
        edges.add((_w("root"), _w(x)))
        edges.add((_w(x), ntf))
        prev = _w(x)
        cells: list[str] = []
        for j in range(1, len(q) + 1):
            bit, h1, h2 = _w(x, str(j)), _w(x, str(j), "#1"), _w(x, str(j), "#2")
            worlds.extend([bit, h1, h2])
            val[bit] = {q[j - 1], x}
            val[h1] = {"#1", x}
            val[h2] = {"#2", x}
            edges.update({(prev, bit), (bit, h1), (h1, h2)})
            edges.update({(bit, ntf), (h1, ntf), (h2, ntf)})
            prev = h2
            cells = [bit, h1, h2]
        last_cells[x] = cells
    if flavor == "loop":
        worlds.append(_w("stg1"))
        val[_w("stg1")] = {"stg1"}
        edges.add((_w("root"), _w("stg1")))
        worlds.append(_w("lp"))
        val[_w("lp")] = {"lp"}
        for x in "ab":
            q = words[x]
            group = {}
            for p in ("0", "1", "#1", "#2", "end"):
                w = _w(p, x)
                worlds.append(w)
                val[w] = {p, x}
                group[p] = w
            ntf = _w("ntF", x)
            for bt in "01":
                edges.update({(group[bt], group["#1"]), (group["#2"], group[bt])})
                edges.update({(group[bt], ntf), (group[bt], _w("lp"))})
            edges.add((group["#1"], group["#2"]))
            edges.update({(group["#1"], ntf), (group["#2"], ntf)})
            edges.update({(group["#1"], _w("lp")), (group["#2"], _w("lp"))})
            edges.add((group["#2"], group["end"]))
            anchor = last_cells[x][2] if q else _w(x)
            edges.update({(anchor, group["0"]), (anchor, group["1"]), (anchor, group["end"])})
    model = closure(make_model(worlds, AGENTS, [edges], val), PROFILES[PROFILE_NAME])
    if flavor in ("minus_hash1", "minus_hash2"):
        # each chain's last cell is [bit, #1, #2]; drop its separators from #k on
        k = int(flavor[-1])
        drop = {w for x in "ab" for w in last_cells[x][k:]}
        model = restrict(model, [w for w in model.worlds if w not in drop])
    return EpistemicState(model, _w("root"))


def add_block(index: int, block: tuple[str, str]) -> EventModel:
    words = {"a": block[0], "b": block[1]}
    events = [_e("s"), _e("st"), _e("end"), _e("ntF"), _e("lp")]
    pre: dict[str, Formula] = {
        _e("s"): and_(_P["root"], diamond(0, _P["stg1"])),
        _e("st"): _P["stg1"],
        _e("end"): _P["end"],
        _e("ntF"): _P["ntF"],
        # Dedicated carrier for w_lp, as in the K-variant action: only the
        # loop event may reach it.
        _e("lp"): _P["lp"],
    }
    edges: set[tuple[str, str]] = set()
    for x in "ab":
        word = words[x]
        ex, elst = _e(x), _e(x, "lst")
        e01, ehh = _e("01", x), _e("##", x)
        events.extend([ex, elst, e01, ehh])
        pre[ex] = conj(_P[x], not_(_P["ntF"]), not_(_P["end"]), know(0, not_(_P["lp"])),
                       not_(last))
        pre[elst] = and_(_P[x], last)
        # Two loop carriers: the chain-end attach may only reach the bit
        # loop worlds, so the separator loop worlds ride separately.
        pre[e01] = and_(or_(_P["0"], _P["1"]), loop_marker(x))
        pre[ehh] = and_(or_(_P["#1"], _P["#2"]), loop_marker(x))
        edges.update({(_e("s"), _e("st")), (_e("s"), ex), (_e("s"), elst)})
        edges.update({(ex, ex), (ex, _e("ntF")), (ex, elst), (elst, _e("ntF"))})
        edges.update({(e01, ehh), (e01, _e("ntF")), (e01, _e("lp"))})
        edges.update({(ehh, ehh), (ehh, _e("ntF")), (ehh, _e("lp")), (ehh, _e("end"))})
        prev = elst
        for j in range(1, len(word) + 1):
            bit, h1, h2 = _e(x, str(j)), _e(x, str(j), "#1"), _e(x, str(j), "#2")
            events.extend([bit, h1, h2])
            pre[bit] = and_(prop(word[j - 1]), loop_marker(x))
            pre[h1] = and_(_P["#1"], loop_marker(x))
            pre[h2] = and_(_P["#2"], loop_marker(x))
            edges.update({(prev, bit), (bit, h1), (h1, h2)})
            edges.update({(bit, _e("ntF")), (h1, _e("ntF")), (h2, _e("ntF"))})
            prev = h2
        if word:
            edges.update({(prev, e01), (prev, _e("end"))})
        else:
            edges.update({(elst, e01), (elst, _e("end"))})
    return closure(make_action(events, AGENTS, [edges], pre, _e("s")), PROFILES[PROFILE_NAME])


@cache
def next_stage() -> EventModel:
    pre = or_(
        conj(_P["root"], know(0, not_(_P["empty"])), diamond(0, _P["stg1"])),
        conj(or_(_P["a"], _P["b"]), not_(_P["end"]), know(0, not_(_P["lp"]))),
    )
    return announcement("e_nx", pre, AGENTS)


@cache
def remove_symbol(d: str) -> EventModel:
    if d not in REMOVAL_ALPHABET:
        raise ValueError(f"variant KTB1 has no removal symbol {d!r}")
    return removal(
        d,
        main=or_(
            and_(_P["root"], know(0, not_(_P["stg1"]))),
            conj(or_(_P["a"], _P["b"]), not_(_P["ntF"]), not_(tail)),
        ),
        fail=or_(conj(tail, not_(_P[d]), not_(_P["ntF"])), failed),
        keep=_P["ntF"],
        keep_name="ntF",
        profile_name=PROFILE_NAME,
    )


def build_actions(inst: PcpInstance) -> dict[str, EventModel]:
    return action_table(inst, add_block, next_stage, remove_symbol, REMOVAL_ALPHABET)


def failed_state(state: EpistemicState) -> bool:
    return chain_failed_state(state, failed, symb)
