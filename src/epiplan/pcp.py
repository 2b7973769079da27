"""Correspondence-problem instances and the bounded match oracle.

The oracle is a breadth-first search over partial index sequences that
tracks only the unmatched overhang of the longer row; two partial
sequences with the same overhang have identical futures, so states are
deduplicated on (side, overhang).  That keeps the search polynomial in
the number of distinct overhangs instead of exponential in the bound.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .errors import NotAMatch, field_of, string_pairs

Match = tuple[int, ...]


@dataclass(frozen=True)
class PcpInstance:
    """A nonempty list of word pairs over the alphabet {0,1}."""

    blocks: tuple[tuple[str, str], ...]

    @property
    def size(self) -> int:
        return len(self.blocks)


def check_words(*words: str) -> None:
    """ValueError unless every word is over the alphabet {0,1}."""
    for word in words:
        if any(c not in "01" for c in word):
            raise ValueError(f"word {word!r} is not over the alphabet {{0,1}}")


def make_instance(blocks: Iterable[Sequence[str]]) -> PcpInstance:
    out = []
    for pair in blocks:
        a, b = pair
        check_words(a, b)
        out.append((a, b))
    if not out:
        raise ValueError("an instance needs at least one block")
    return PcpInstance(tuple(out))


def matched_word(inst: PcpInstance, match: Sequence[int]) -> str:
    """The common concatenation of a match; NotAMatch otherwise."""
    if not match:
        raise NotAMatch("a match must be a nonempty index sequence")
    for i in match:
        if not 1 <= i <= inst.size:
            raise NotAMatch(f"index {i} out of range 1..{inst.size}")
    top = "".join(inst.blocks[i - 1][0] for i in match)
    bottom = "".join(inst.blocks[i - 1][1] for i in match)
    if top != bottom:
        raise NotAMatch(f"rows differ: {top!r} vs {bottom!r}")
    return top


def brute_force_match(inst: PcpInstance, max_len: int) -> Match | None:
    """Shortest match of length <= max_len, ties broken lexicographically.

    Returns None when no such match exists.  Deterministic: repeated calls
    return the identical sequence.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    # state: (side, overhang) where side "t"/"b" marks which row is longer.
    visited: set[tuple[str, str]] = set()
    queue: deque[tuple[str, str, tuple[int, ...]]] = deque([("t", "", ())])
    while queue:
        side, over, seq = queue.popleft()
        if len(seq) >= max_len:
            continue
        for i, (a, b) in enumerate(inst.blocks, start=1):
            if side == "t":
                top, bottom = over + a, b
            else:
                top, bottom = a, over + b
            if top.startswith(bottom):
                new = ("t", top[len(bottom):])
            elif bottom.startswith(top):
                new = ("b", bottom[len(top):])
            else:
                continue
            if not new[1]:
                return seq + (i,)
            if new not in visited:
                visited.add(new)
                queue.append((new[0], new[1], seq + (i,)))
    return None


def instance_to_json(inst: PcpInstance) -> dict[str, Any]:
    return {"blocks": [[a, b] for a, b in inst.blocks]}


def instance_from_json(doc: Mapping[str, Any]) -> PcpInstance:
    blocks = field_of(doc, "blocks", list, "instance")
    return make_instance(string_pairs(blocks, "instance blocks"))
