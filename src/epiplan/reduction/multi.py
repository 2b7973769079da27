"""Two-agent compiler for equivalence-relation frames (profile S5).

Both agents' relations are unions of disjoint cliques (every world not in
a listed clique is its own singleton class).  The cliques are symmetric
and transitive already, so each frame is closed under ``KT`` only, which
adds the singleton classes' self-loops; only the start state puts
w_empty into the root's agent-0 clique, as S5 forces.  The chain
alternates the two agents' cliques with '#' separator worlds so every
block symbol sits an even number of clique-hops from the root.
Auxiliary worlds (w_ntF, w_end) are duplicated per chain position
because under equivalence relations a shared copy would glue unrelated
cliques together.

Agent 0 here plays the role of the relation that owns the root clique;
agent 1 owns the branch cliques.
"""
from __future__ import annotations

from functools import cache

from ..action import EventModel, make_action
from ..formula import Formula, and_, conj, diamond, disj, extension_mask, know, not_, or_, prop
from ..frames import PROFILES, _bits, closure
from ..kripke import EpistemicState, make_model, restrict
from ..pcp import PcpInstance
from .common import (
    _e,
    action_table,
    announcement,
    cliques,
    family_words,
    left_stage_one,
    with_empty,
)

AGENTS = 2
PROFILE_NAME = "S5"
REMOVAL_ALPHABET = ("0", "1", "#")
REMOVALS_NEED_BOTH_ROWS = False
PREPENDS_BLOCKS = False
FLAVORS = ("plain", "loop", "minus_hash")

_P = {name: prop(name) for name in ("0", "1", "#", "a", "b", "root", "stg1", "empty", "end", "ntF")}


ag1 = disj(_P["root"], _P["0"], _P["1"])
ag2 = and_(or_(_P["a"], _P["b"]), not_(disj(_P["0"], _P["1"], _P["ntF"], _P["end"])))
symb = disj(_P["0"], _P["1"], _P["#"])
last = and_(ag2, diamond(1, _P["end"]))


@cache
def tail(i: int) -> Formula:
    if i == 1:
        return and_(ag1, know(0, not_(ag2)))
    if i == 2:
        return and_(ag2, know(1, not_(ag1)))
    raise ValueError("tail takes argument 1 or 2")


goal = and_(
    know(0, not_(_P["empty"])),
    know(0, or_(not_(or_(_P["a"], _P["b"])), and_(tail(2), diamond(1, _P["ntF"])))),
)


def _w(*parts: str) -> str:
    if len(parts) == 1:
        return f"w_{parts[0]}"
    return f"w_{parts[0]}({','.join(parts[1:])})"


@cache
def initial_state() -> EpistemicState:
    return with_empty(family("", "", "loop"), PROFILE_NAME)


def _chain_names(x: str, q: str):
    bits = [_w(x, str(j)) for j in range(1, len(q) + 1)]
    hashes = [_w(x, str(j), "#") for j in range(1, len(q) + 1)]
    ntf_bits = [_w("ntF", x, str(j)) for j in range(1, len(q) + 1)]
    ntf_hashes = [_w("ntF", x, str(j), "#") for j in range(1, len(q) + 1)]
    return bits, hashes, ntf_bits, ntf_hashes


def family(qa: str, qb: str, flavor: str) -> EpistemicState:
    words = family_words("MultiS5", FLAVORS, flavor, qa, qb)
    worlds = [_w("root"), _w("a"), _w("b"), _w("ntF", "a"), _w("ntF", "b")]
    val: dict[str, set[str]] = {
        _w("root"): {"root"},
        _w("a"): {"a"},
        _w("b"): {"b"},
        _w("ntF", "a"): {"ntF", "a"},
        _w("ntF", "b"): {"ntF", "b"},
    }
    r1 = cliques([_w("root"), _w("a"), _w("b")])
    r2: set = set()
    names = {}
    for x in "ab":
        q = words[x]
        bits, hashes, ntf_bits, ntf_hashes = _chain_names(x, q)
        names[x] = (bits, hashes, ntf_bits, ntf_hashes)
        for j in range(len(q)):
            worlds.extend([bits[j], hashes[j], ntf_bits[j], ntf_hashes[j]])
            val[bits[j]] = {q[j], x}
            val[hashes[j]] = {"#", x}
            val[ntf_bits[j]] = {"ntF", x}
            val[ntf_hashes[j]] = {"ntF", x}
            r1 |= cliques([bits[j], hashes[j], ntf_bits[j]])
        head = {_w(x), _w("ntF", x)}
        if q:
            head.add(bits[0])
        r2 |= cliques(head)
        for j in range(len(q) - 1):
            r2 |= cliques([hashes[j], bits[j + 1], ntf_hashes[j]])
        if q:
            r2 |= cliques([hashes[-1], ntf_hashes[-1]])
    if flavor == "loop":
        worlds.append(_w("stg1"))
        val[_w("stg1")] = {"stg1"}
        r1 |= cliques([_w("root"), _w("stg1"), _w("a"), _w("b")])
        r2 |= cliques([_w("stg1")])
        for x in "ab":
            q = words[x]
            fresh = []
            for p in ("0", "1", "#", "end"):
                w = _w(p, x)
                worlds.append(w)
                val[w] = {p, x}
                fresh.append(w)
            ntf_tail = names[x][3][-1] if q else _w("ntF", x)
            tl = fresh + [ntf_tail]
            r1 |= cliques(tl)
            anchor = names[x][1][-1] if q else _w(x)
            r2 |= cliques(tl + [anchor])
    model = closure(make_model(worlds, AGENTS, [r1, r2], val), PROFILES["KT"])
    if flavor == "minus_hash":
        drop = {names[x][1][-1] for x in "ab" if words[x]}
        model = restrict(model, [w for w in model.worlds if w not in drop])
    return EpistemicState(model, _w("root"))


def add_block(index: int, block: tuple[str, str]) -> EventModel:
    words = {"a": block[0], "b": block[1]}
    events = [_e("s"), _e("st")]
    pre: dict[str, Formula] = {
        _e("s"): and_(_P["root"], diamond(0, _P["stg1"])),
        _e("st"): _P["stg1"],
    }
    r1 = cliques([_e("s"), _e("st"), _e("a"), _e("b"), "e_a^eps", "e_b^eps"])
    r2 = cliques([_e("s")], [_e("st")])
    for x in "ab":
        word = words[x]
        ex, eps = _e(x), f"e_{x}^eps"
        elst, esmb, etl = _e(x, "lst"), _e(x, "smb"), _e(x, "{}")
        n1, n2, nlst = f"e_ntF^{{{x},1}}", f"e_ntF^{{{x},2}}", f"e_ntF^{{{x},lst}}"
        events.extend([ex, eps, elst, esmb, etl, n1, n2, nlst])
        pre[ex] = conj(_P[x], ag2, not_(_P["#"]), not_(last))
        pre[eps] = conj(_P[x], ag2, not_(_P["#"]), last, know(0, not_(_P["end"])))
        pre[elst] = conj(_P[x], _P["#"], last, know(0, not_(_P["end"])))
        pre[esmb] = conj(_P[x], symb, not_(last))
        pre[etl] = conj(_P[x], diamond(0, _P["end"]), disj(symb, _P["ntF"], _P["end"]))
        pre[n1] = conj(_P[x], _P["ntF"], know(0, not_(_P["end"])))
        pre[n2] = conj(_P[x], _P["ntF"], know(0, not_(_P["end"])))
        pre[nlst] = conj(_P[x], _P["ntF"], diamond(0, _P["end"]))
        bits = [_e(x, str(j)) for j in range(1, len(word) + 1)]
        hashes = [_e(x, str(j), "#") for j in range(1, len(word) + 1)]
        ntf_bits = [f"e_ntF({x},{j})" for j in range(1, len(word) + 1)]
        ntf_hashes = [f"e_ntF({x},{j},#)" for j in range(1, len(word))]
        events.extend(bits + hashes + ntf_bits + ntf_hashes)
        for j in range(len(word)):
            pre[bits[j]] = conj(_P[x], prop(word[j]), diamond(0, _P["end"]))
            pre[hashes[j]] = conj(_P[x], _P["#"], diamond(0, _P["end"]))
            pre[ntf_bits[j]] = conj(_P[x], _P["ntF"], diamond(0, _P["end"]))
            r1 |= cliques([bits[j], hashes[j], ntf_bits[j]])
        for j in range(len(word) - 1):
            pre[ntf_hashes[j]] = conj(_P[x], _P["ntF"], diamond(0, _P["end"]))
            r2 |= cliques([bits[j + 1], hashes[j], ntf_hashes[j]])
        # n1 rides along with the symbol events so that carried-over chain
        # worlds keep their ntF companions in the first relation.
        r1 |= cliques([esmb, elst, n1])
        r2 |= cliques([ex, n1, esmb])
        second = [eps, elst, n2, nlst] + ([bits[0]] if word else [etl])
        r2 |= cliques(second)
        if word:
            r2 |= cliques([hashes[-1], etl])
        else:
            # With an empty block word the chain-end bookkeeping world keeps
            # both of its roles, so its two carrier events must share the
            # first-relation clique with the tail events.
            r1 |= cliques([nlst, etl])
    return closure(make_action(events, AGENTS, [r1, r2], pre, _e("s")), PROFILES["KT"])


@cache
def next_stage() -> EventModel:
    pre = or_(
        conj(
            or_(not_(_P["root"]), and_(know(0, not_(_P["empty"])), diamond(0, _P["stg1"]))),
            not_(_P["stg1"]),
            not_(and_(diamond(0, _P["0"]), diamond(0, _P["1"]))),
        ),
        _P["ntF"],
    )
    return announcement("e_nx", pre, AGENTS)


@cache
def remove_symbol(bt: str) -> EventModel:
    if bt not in REMOVAL_ALPHABET:
        raise ValueError(f"variant MultiS5 has no removal symbol {bt!r}")
    pre = disj(
        and_(_P["root"], know(0, not_(_P["stg1"]))),
        and_(
            _P["ntF"],
            or_(
                and_(diamond(0, ag1), diamond(0, ag2)),
                and_(diamond(1, ag1), diamond(1, ag2)),
            ),
        ),
        and_(ag1, not_(conj(tail(1), _P[bt], diamond(0, _P["ntF"])))),
        and_(ag2, not_(conj(tail(2), _P[bt], diamond(1, _P["ntF"])))),
    )
    return announcement(f"e^{bt}", pre, AGENTS)


def build_actions(inst: PcpInstance) -> dict[str, EventModel]:
    return action_table(inst, add_block, next_stage, remove_symbol, REMOVAL_ALPHABET)


def failed_state(state: EpistemicState) -> bool:
    """Alternating-clique witness path for a failed removal.

    Once the root has left stage one, the path starts at the root's agent-0
    successors on a branch, other than the root, and then alternates the
    two agents' relations from agent 1; an ``ag1`` world steps only to
    ``ag2`` worlds and vice versa.  It ends in a marked world that sees no
    w_ntF copy under the agent whose clique would continue the
    alternation.  Each frontier is a bitmask over world indices, with one
    ``seen`` mask per agent.
    """
    if not left_stage_one(state):
        return False
    model = state.model
    root = state.designated_index
    succ = model.masks()[1]
    marked = extension_mask(model, disj(*(_P[p] for p in ("a", "b", "0", "1", "#"))))
    one, two = extension_mask(model, ag1), extension_mask(model, ag2)
    frontier = succ[0][root] & extension_mask(model, or_(_P["a"], _P["b"])) & ~(1 << root)
    agent, seen = 1, [0, frontier]
    while frontier:
        if frontier & marked & extension_mask(model, know(agent, not_(_P["ntF"]))):
            return True
        step = 0
        for i in _bits(frontier):
            bit = 1 << i
            step |= succ[agent][i] & (two if one & bit else -1) & (one if two & bit else -1)
        agent = 1 - agent
        frontier = step & ~seen[agent]
        seen[agent] |= frontier
    return False
