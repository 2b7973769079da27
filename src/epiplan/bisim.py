"""Coarsest bisimulations, quotients, and canonical state fingerprints.

The refinement starts from valuation classes and splits blocks by their
worlds' per-agent sets of successor blocks until a round splits nothing.
Everything runs on the models' integer successor rows
(``KripkeModel.rows``, the one stored relation), restricted to the
generated part by ``kripke.generated_part``; successor-block sets are
packed into bitmask integers, and one function turns the refinement into
the rows of the quotient state that ``quotient`` and
``minimize_with_key`` return.  No name pair is built, and no name read:
the designated world is an index, and the quotient's world names (each
block's first world) are a recipe over the state's, built only if read.
When the partition is discrete, as it is for most search products, the
quotient is the generated part's own state, built by
``kripke.part_state`` from the rows ``generated_part`` induced.

Every partition that merges worlds is certified before anything is built
from it, by a check that reads only the block map and the generated part
and shares no code with the refinement (a certifying algorithm in the
sense of McConnell, Mehlhorn, Näher & Schweitzer, 2011): every world has
its block representative's valuation, and under each agent every world's
successors hit the same set of blocks as its representative's.  Then
world -> block is a bounded morphism (Blackburn, de Rijke & Venema,
*Modal Logic*, §2.1) onto the quotient, so every state is bisimilar to its
quotient, which both keys serialize; equal keys therefore mean bisimilar
states, whatever the refinement did.  The check is linear in the part's
edges.  A failed condition raises ``AssertionError`` naming it: a wrong
partition is an engine fault, never a verdict.  A discrete partition is
not checked, as its quotient is the generated part itself.  ``bisimilar``
builds no quotient and is not certified.

Block numbering is canonical: ids follow the order of the signatures
themselves (not of first occurrence), so the final numbering depends
only on the isomorphism class of the reachable model.  That is what
makes ``canonical_key`` collision-free: equal keys hold exactly for
bisimilar states, because bisimilar states have isomorphic minimized
generated submodels and the key serializes that minimized model in
canonical block order.

A world's signature is its block id, then per agent the bitmask of its
successors' blocks.  Sorting all signatures orders worlds by old block
first, so the pieces of a block take consecutive ids, in the old blocks'
order, and within a block the pieces follow their masks.  Refinement
therefore goes block by block, with the worlds kept grouped by block in
id order: a block of two or more worlds is grouped by its worlds' masks,
and its pieces are numbered in sorted-mask order after the pieces of all
lower blocks.  That gives the ids of one sort over all signatures, with
no sort across blocks.  A singleton block keeps its place and is not
signed; refinement stops when a round splits no block or every block is
a singleton, where a further round would renumber nothing.

Each distinct valuation has a sort key (its sorted names) and key bytes
(length-prefixed UTF-8), both from ``_valuation_code``, a memo by value
that keeps at most 4 096 sets; the first blocks and the key read it.

A minimized state has two encodings, both from ``minimize_with_key``.
The canonical bytes are what ``canonical_key``, ``PlanFound.final_key``
and the CLI print: they are the same in every process, so the printed
bytes and the golden digests stay fixed.  The in-search key is what the
search dedups on: the designated block, an id per block's valuation from
a table the search owns, and the successor-block bitmasks packed into
one int.  It needs no sort, no packing and no valuation bytes, and two
keys made with one table are equal iff the canonical bytes are; outside
its table it means nothing.
"""
from __future__ import annotations

import functools
import struct

from .errors import AgentMismatch
from .kripke import EpistemicState, derived_model, generated_part, part_state

__all__ = [
    "quotient",
    "bisimilar",
    "canonical_key",
    "minimize_with_key",
]


@functools.lru_cache(maxsize=4096)
def _valuation_code(val: frozenset[str]) -> tuple[tuple[str, ...], bytes]:
    """A valuation's sort key (its names, sorted) and its key bytes.

    The bytes are the name count, then per name its UTF-8 length and
    bytes, counts as big-endian 4-byte ints.  Memoized by value, so equal
    sets held by distinct objects share an entry; at most 4 096 sets are
    kept, and an evicted one is encoded again.
    """
    names = tuple(sorted(val))
    out = [struct.pack(">I", len(names))]
    for name in names:
        raw = name.encode("utf-8")
        out += (struct.pack(">I", len(raw)), raw)
    return names, b"".join(out)


def _canonical_refine(valuations, succ) -> tuple[list[int], int]:
    """Refine to the coarsest autobisimulation with canonical block ids.

    ``valuations`` are per-index proposition sets, ``succ`` per-agent
    integer successor rows.  Returns (block id per index, block count);
    ids are ordered by signature value, so they are independent of world
    naming and ordering.  A world's per-agent masks are packed into one
    int, agent 0's highest, each as wide as the block count, so the ints
    compare as the tuples of masks do.
    """
    n = len(valuations)
    classes: dict = {}
    for i, v in enumerate(valuations):
        classes.setdefault(v, []).append(i)
    blocks = [classes[v] for v in sorted(classes, key=lambda v: _valuation_code(v)[0])]
    rank = [0] * n
    while True:
        for r, members in enumerate(blocks):
            for i in members:
                rank[i] = r
        if len(blocks) == n:
            break
        bit = [1 << r for r in rank]
        width = len(blocks)
        split = []
        for members in blocks:
            if len(members) == 1:
                split.append(members)
                continue
            pieces: dict = {}
            for i in members:
                sig = 0
                for row in succ:
                    sig <<= width
                    for j in row[i]:
                        sig |= bit[j]
                pieces.setdefault(sig, []).append(i)
            if len(pieces) == 1:
                split.append(members)
            else:
                split += [pieces[sig] for sig in sorted(pieces)]
        if len(split) == len(blocks):
            break
        blocks = split
    return rank, len(blocks)


def _minimize(state: EpistemicState):
    """The generated part, its canonical blocks, and each block's first world.

    A partition that merges worlds is certified by ``_certify`` first.
    """
    part = generated_part(state)
    _, vals, rows, _ = part
    block, count = _canonical_refine(vals, rows)
    rep = [0] * count
    for i in reversed(range(len(vals))):
        rep[block[i]] = i
    if count < len(vals):
        _certify(vals, rows, block, rep)
    return part, block, count, rep


def _certify(vals, rows, block, rep) -> None:
    """Raise AssertionError unless world -> block is a bounded morphism onto the quotient.

    ``block`` maps each world to its block and ``rep`` each block to its
    first world.  Checked: every world has its representative's valuation,
    and per agent every world's successors hit the same set of blocks as
    its representative's successors.  A representative agrees with itself,
    so only the other worlds are read, each with its representative's
    successor blocks, made once per block.  Reads nothing of the refinement
    but its output, and raises explicitly, so ``python -O`` keeps the check.
    """
    get = block.__getitem__
    hit = [None] * len(rep)
    for i, b in enumerate(block):
        r = rep[b]
        if r == i:
            continue
        if vals[i] != vals[r]:
            raise AssertionError(
                f"quotient certificate: world {i} and its block's representative {r} "
                f"differ in valuation"
            )
        if hit[b] is None:
            hit[b] = [set(map(get, row[r])) for row in rows]
        for agent, (row, blocks) in enumerate(zip(rows, hit[b])):
            if set(map(get, row[i])) != blocks:
                raise AssertionError(
                    f"quotient certificate: under agent {agent}, world {i} and its block's "
                    f"representative {r} have successors in different blocks"
                )


def _quotient_state(state: EpistemicState, minimized) -> EpistemicState:
    """The quotient named by each block's first world, blocks in first-world order.

    A discrete partition makes the quotient the generated part itself
    (``kripke.part_state``).  Names are a recipe over the state's names,
    built on first read (see ``kripke``).
    """
    part, block, count, rep = minimized
    kept, vals, rows, start = part
    if count == len(kept):
        return part_state(state, part)
    reps = sorted(rep)
    pos = {block[i]: k for k, i in enumerate(reps)}
    quotient_rows = tuple(
        tuple(tuple(sorted({pos[block[j]] for j in row[i]})) for i in reps) for row in rows
    )
    quotient_vals = tuple([vals[i] for i in reps])
    return EpistemicState.at(
        derived_model(state.model, [kept[i] for i in reps], quotient_rows, quotient_vals),
        pos[block[start]],
    )


def quotient(state: EpistemicState) -> EpistemicState:
    """Generated submodel quotiented by its coarsest bisimulation.

    The result is bisimilar to the input, idempotent, and uses the first
    world (in world order) of each block as the block's name.
    """
    return _quotient_state(state, _minimize(state))


def minimize_with_key(
    state: EpistemicState, table: dict | None = None
) -> tuple[EpistemicState, bytes | tuple]:
    """Quotient the state and fingerprint the result in one pass.

    Without ``table`` the key is the canonical bytes: agents, block count,
    designated block, then per block in canonical order its sorted
    valuation (length-prefixed UTF-8) and, per agent, its sorted
    successor-block ids as fixed-width big-endian ints.  These are the
    bytes ``canonical_key`` and the CLI print, equal across processes.

    With ``table``, a dict from valuation to id that one search owns, the
    key is the in-search key ``(designated block, valuation ids, masks)``:
    the ids of the blocks' valuations in canonical block order (a valuation
    new to the table gets the next id), as ``bytes`` when every one of
    them is below 256 and as a tuple otherwise, and one int packing, per
    block in canonical order and per agent, the bitmask of its successor
    blocks, each as wide as the block count, block 0's agent 0 highest.
    Two states keyed with one table get equal keys iff their canonical
    keys are equal: the ids stand for the valuations one to one, the ids'
    count is the block count and so fixes the width, and the agent count
    is the same throughout a search.  The encoding depends on the key's
    own ids only, never on the table's size, so a key built again after
    the table grew is the same value.  The search dedups on these keys,
    which are cheaper to build and smaller than the bytes; they mean
    nothing outside their table, so nothing prints them.
    """
    minimized = _minimize(state)
    if table is not None:
        return _quotient_state(state, minimized), _search_key(minimized, table)
    (_, vals, rows, start), block, count, rep = minimized
    get = block.__getitem__
    discrete = count == len(vals)
    ints = [state.model.agents, count, block[start]]
    ends = []
    for i in rep:
        for row in rows:
            # a discrete block map is injective: no successor block repeats
            ranks = sorted(map(get, row[i]) if discrete else set(map(get, row[i])))
            ints.append(len(ranks))
            ints += ranks
        ends.append(4 * len(ints))
    packed = struct.pack(f">{len(ints)}I", *ints)
    out, at = [packed[:12]], 12
    for i, end in zip(rep, ends):
        out += (_valuation_code(vals[i])[1], packed[at:end])
        at = end
    return _quotient_state(state, minimized), b"".join(out)


def _search_key(minimized, table: dict) -> tuple:
    """The in-search key of a ``_minimize`` result (see ``minimize_with_key``)."""
    (_, vals, rows, start), block, count, rep = minimized
    bit = [1 << b for b in block]
    get = bit.__getitem__
    masks = 0
    if count == len(vals):
        # a discrete block map is injective: no successor block repeats
        for i in rep:
            for row in rows:
                masks = masks << count | sum(map(get, row[i]))
    else:
        for i in rep:
            for row in rows:
                masks = masks << count | sum(set(map(get, row[i])))
    ids = [table.setdefault(vals[i], len(table)) for i in rep]
    # one byte per id when every id of this key fits; bytes never equal a tuple
    try:
        vids = bytes(ids)
    except ValueError:
        vids = tuple(ids)
    return block[start], vids, masks


def canonical_key(state: EpistemicState) -> bytes:
    """Bisimulation-invariant fingerprint; equal keys iff bisimilar states."""
    return minimize_with_key(state)[1]


def bisimilar(s1: EpistemicState, s2: EpistemicState) -> bool:
    """Whether the two pointed states are bisimilar.

    Refines the disjoint union of the two generated parts jointly: the
    second part's indices follow the first's.
    """
    if s1.model.agents != s2.model.agents:
        raise AgentMismatch(
            f"agent counts differ: {s1.model.agents} vs {s2.model.agents}"
        )
    kept1, vals1, rows1, start1 = generated_part(s1)
    _, vals2, rows2, start2 = generated_part(s2)
    off = len(kept1)
    rows = [
        row1 + tuple(tuple(j + off for j in succ) for succ in row2)
        for row1, row2 in zip(rows1, rows2)
    ]
    block, _ = _canonical_refine(list(vals1) + list(vals2), rows)
    return block[start1] == block[off + start2]
