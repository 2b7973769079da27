"""Coarsest bisimulations, quotients, and canonical state fingerprints.

The refinement is round-by-round splitting: start from valuation classes
and split each block by its worlds' per-agent sets of successor blocks
until a round splits nothing.  Everything runs on the models' integer
successor rows (``KripkeModel.rows``, the one stored relation),
restricted to the generated part by ``kripke.generated_part``;
successor-block sets are packed into bitmask integers, and one function
turns the refinement into the rows of the quotient state that
``quotient`` and ``minimize_with_key`` return.  No name pair is built,
and no name read: the designated world is an index, and the quotient's
world names (each block's first world) are a recipe over the state's,
built only if read.  When the partition is discrete, as it is for most
search products, the quotient is the generated part's own state, built
by ``kripke.part_state`` from the rows ``generated_part`` induced.

Block numbering is canonical: each round renumbers blocks by sorting the
signatures themselves (not by first occurrence), so the final numbering
depends only on the isomorphism class of the reachable model.  That is
what makes ``canonical_key`` collision-free: equal keys hold exactly for
bisimilar states, because bisimilar states have isomorphic minimized
generated submodels and the key serializes that minimized model in
canonical block order.

A signature starts with the world's block id, so a round sorts worlds by
their old block first.  Hence a singleton block stays one block whatever
its successors, and its signature is its id alone (one id's signatures
still share a shape, so the sort is unchanged); and after a round that
leaves every block a singleton, the next would renumber nothing, so
refinement stops there.  Neither shortcut changes any block id.
"""
from __future__ import annotations

import struct

from .errors import AgentMismatch
from .kripke import EpistemicState, derived_model, generated_part, part_state

__all__ = [
    "quotient",
    "bisimilar",
    "canonical_key",
    "minimize_with_key",
]


def _canonical_refine(valuations, succ) -> tuple[list[int], int]:
    """Refine to the coarsest autobisimulation with canonical block ids.

    ``valuations`` are per-index proposition sets, ``succ`` per-agent
    integer successor rows.  Returns (block id per index, block count);
    ids are ordered by signature value, so they are independent of world
    naming and ordering.
    """
    n = len(valuations)
    first = {v: r for r, v in enumerate(sorted(set(valuations), key=sorted))}
    rank = [first[v] for v in valuations]
    count = len(first)
    while count < n:
        size = [0] * count
        for r in rank:
            size[r] += 1
        sigs = []
        for i, r in enumerate(rank):
            if size[r] == 1:
                sigs.append((r,))
                continue
            entry = [r]
            for row in succ:
                m = 0
                for j in row[i]:
                    m |= 1 << rank[j]
                entry.append(m)
            sigs.append(tuple(entry))
        by_sig = {s: r for r, s in enumerate(sorted(set(sigs)))}
        if len(by_sig) == count:
            break
        rank, count = [by_sig[s] for s in sigs], len(by_sig)
    return rank, count


def _minimize(state: EpistemicState):
    """The generated part, its canonical blocks, and each block's first world."""
    part = generated_part(state)
    _, vals, rows, _ = part
    block, count = _canonical_refine(vals, rows)
    rep = [0] * count
    for i in reversed(range(len(vals))):
        rep[block[i]] = i
    return part, block, count, rep


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


def minimize_with_key(state: EpistemicState) -> tuple[EpistemicState, bytes]:
    """Quotient the state and fingerprint the result in one pass.

    Key layout: agents, block count, designated block, then per block in
    canonical order its sorted valuation (length-prefixed UTF-8) and, per
    agent, its sorted successor-block ids as fixed-width big-endian ints.
    """
    minimized = _minimize(state)
    (_, vals, rows, start), block, count, rep = minimized
    pack, get = struct.pack, block.__getitem__
    discrete = count == len(vals)
    encoded = {}
    out = bytearray(pack(">III", state.model.agents, count, block[start]))
    for i in rep:
        val = vals[i]
        if val not in encoded:
            names = [p.encode("utf-8") for p in sorted(val)]
            encoded[val] = pack(">I", len(names)) + b"".join(
                [pack(">I", len(raw)) + raw for raw in names])
        out += encoded[val]
        ints = []
        for row in rows:
            # a discrete block map is injective: no successor block repeats
            ranks = sorted(map(get, row[i]) if discrete else set(map(get, row[i])))
            ints.append(len(ranks))
            ints += ranks
        out += pack(f">{len(ints)}I", *ints)
    return _quotient_state(state, minimized), bytes(out)


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
