"""Kripke models and pointed epistemic states.

Models are immutable after construction; every transformation returns a
fresh value, so states can be shared freely (e.g. between search
branches).  World iteration order is the construction order, which keeps
all downstream operations deterministic.

A model stores its relation once, as integer rows: ``rows[a][i]`` holds
the indices of agent ``a``'s successors of ``worlds[i]``, ascending.
Names serve the boundary (JSON, CLI): ``_successor_rows`` turns name
pairs into rows and ``_pair_view`` derives the ``relations`` pairs back
(for event models too); ``reachable_rows`` is the one reachability walk
and ``masks()`` derives bitmask rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .errors import DanglingWorldRef, DuplicateWorld, UnknownWorld
from .errors import field_of, shaped, string_pairs, strings

Pair = tuple[str, str]
Rows = tuple[tuple[tuple[int, ...], ...], ...]


def _successor_rows(index: Mapping[str, int], relations: Iterable[Iterable[Pair]], count: int,
                    dangling: type[Exception] = DanglingWorldRef, kind: str = "world") -> Rows:
    """``count`` relations of name pairs over ``index`` as rows, successor indices ascending."""
    rows = []
    for rel in relations:
        table: list[set[int]] = [set() for _ in index]
        for u, v in rel:
            if u not in index or v not in index:
                raise dangling(f"relation pair ({u!r}, {v!r}) references unknown {kind}")
            table[index[u]].add(index[v])
        rows.append(tuple(tuple(sorted(succ)) for succ in table))
    if len(rows) != count:
        raise ValueError(f"expected {count} relations, got {len(rows)}")
    return tuple(rows)


def _induced_rows(rows: Rows, kept: Sequence[int]) -> Rows:
    """The rows of the part induced by ``kept`` (ascending), renumbered from 0."""
    new = {i: k for k, i in enumerate(kept)}
    return tuple(tuple(tuple(new[j] for j in row[i] if j in new) for i in kept) for row in rows)


def _pair_view(names: Sequence[str], rows: Rows) -> tuple[frozenset[Pair], ...]:
    """Per relation, the name pairs ``(names[i], names[j])`` for ``j`` in ``row[i]``."""
    return tuple(frozenset((names[i], names[j]) for i, succ in enumerate(row) for j in succ)
                 for row in rows)


@dataclass(frozen=True)
class KripkeModel:
    """A finite Kripke model: worlds, per-agent successor rows, valuation.

    ``rows[a][i]`` holds the successor indices of ``worlds[i]`` under
    agent ``a`` in ascending order, and ``valuations[i]`` the proposition
    set of ``worlds[i]``.  Use :func:`make_model` to build a model from
    name pairs; it validates and normalizes the input.
    """

    worlds: tuple[str, ...]
    agents: int
    rows: Rows
    valuations: tuple[frozenset[str], ...]
    _index: dict = field(init=False, compare=False, repr=False, default=None)
    _masks: tuple = field(init=False, compare=False, repr=False, default=None)
    _memo: dict = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.worlds)})

    @property
    def relations(self) -> tuple[frozenset[Pair], ...]:
        """Per agent, the relation as name pairs (derived afresh on each access)."""
        return _pair_view(self.worlds, self.rows)

    def __contains__(self, world: str) -> bool:
        return world in self._index

    def valuation_of(self, world: str) -> frozenset[str]:
        return self.valuations[self._index[world]]

    def successors(self, agent: int, world: str) -> tuple[str, ...]:
        """Successors of ``world`` under agent ``agent``, in world order."""
        worlds = self.worlds
        return tuple(worlds[j] for j in self.rows[agent][self._index[world]])

    def index_of(self, world: str) -> int:
        return self._index[world]

    def masks(self):
        """Bitmask view for batch evaluation: (prop masks, successor masks).

        ``prop_masks[p]`` has bit i set when worlds[i] satisfies p;
        ``succ_masks[a][i]`` ORs ``1 << j`` over ``rows[a][i]``.  Built
        lazily and cached.  Next to them the model keeps ``_memo``, the
        extension mask of each subformula evaluated on it so far (filled
        by ``formula.extension_mask``); it lives and dies with the model,
        so every action tried at one search node shares it.
        """
        cached = self._masks
        if cached is None:
            prop_masks: dict[str, int] = {}
            for i, val in enumerate(self.valuations):
                bit = 1 << i
                for p in val:
                    prop_masks[p] = prop_masks.get(p, 0) | bit
            succ_masks = [[sum(1 << j for j in succ) for succ in row] for row in self.rows]
            cached = (prop_masks, succ_masks)
            object.__setattr__(self, "_masks", cached)
        return cached

    @property
    def valuation(self) -> dict[str, frozenset[str]]:
        """Valuation as a mapping (a fresh dict each call)."""
        return {w: v for w, v in zip(self.worlds, self.valuations)}


def reachable_rows(model: KripkeModel, start: int) -> tuple[Sequence[int], Rows]:
    """Indices reachable from ``start`` (in world order) and the rows they induce.

    Reachability is over the union of all agents' relations, reflexively
    and transitively.  When every world is reachable the result is
    ``range(n)`` and ``model.rows`` itself.
    """
    n = len(model.worlds)
    rows = model.rows
    seen = [False] * n
    seen[start] = True
    stack = [start]
    while stack:
        i = stack.pop()
        for row in rows:
            for j in row[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    if all(seen):
        return range(n), rows
    kept = [i for i in range(n) if seen[i]]
    return kept, _induced_rows(rows, kept)


def _submodel(model: KripkeModel, kept: Sequence[int], rows: Rows) -> KripkeModel:
    worlds, vals = model.worlds, model.valuations
    return KripkeModel(
        tuple(worlds[i] for i in kept), model.agents, rows, tuple(vals[i] for i in kept)
    )


def make_model(
    worlds: Iterable[str],
    agent_count: int,
    relations: Iterable[Iterable[Pair]],
    valuation: Mapping[str, Iterable[str]],
) -> KripkeModel:
    """Validate and build a model.

    ``relations`` has one pair collection per agent; ``valuation`` may omit
    worlds with an empty proposition set.  World order is preserved.
    """
    world_list = tuple(worlds)
    index: dict[str, int] = {}
    for w in world_list:
        if w in index:
            raise DuplicateWorld(f"duplicate world {w!r}")
        index[w] = len(index)
    if agent_count < 0:
        raise ValueError("agent count must be non-negative")
    rows = _successor_rows(index, relations, agent_count)
    for w in valuation:
        if w not in index:
            raise DanglingWorldRef(f"valuation references unknown world {w!r}")
    vals = tuple(frozenset(valuation.get(w, ())) for w in world_list)
    return KripkeModel(world_list, agent_count, rows, vals)


@dataclass(frozen=True)
class EpistemicState:
    """A pointed model: a Kripke model plus its designated (actual) world."""

    model: KripkeModel
    designated: str

    def __post_init__(self):
        if self.designated not in self.model:
            raise UnknownWorld(f"designated world {self.designated!r} not in model")


def pointed(model: KripkeModel, designated: str) -> EpistemicState:
    return EpistemicState(model, designated)


def restrict(model: KripkeModel, keep: Iterable[str]) -> KripkeModel:
    """Induced submodel on ``keep`` (relations and valuation restricted)."""
    keep_set = set(keep)
    for w in keep_set:
        if w not in model:
            raise DanglingWorldRef(f"cannot keep unknown world {w!r}")
    kept = [i for i, w in enumerate(model.worlds) if w in keep_set]
    return _submodel(model, kept, _induced_rows(model.rows, kept))


def generated_submodel(state: EpistemicState) -> EpistemicState:
    """Restrict to worlds reachable from the designated world.

    Reachability is over the union of all agents' relations, reflexively
    and transitively; the designated world is preserved.
    """
    model = state.model
    kept, rows = reachable_rows(model, model.index_of(state.designated))
    if len(kept) == len(model.worlds):
        return state
    return EpistemicState(_submodel(model, kept, rows), state.designated)


# --- JSON encoding -------------------------------------------------------


def model_to_json(model: KripkeModel) -> dict[str, Any]:
    """Canonical JSON form: arrays sorted, empty valuations omitted."""
    return {
        "agents": model.agents,
        "worlds": sorted(model.worlds),
        "relations": [sorted([u, v] for (u, v) in rel) for rel in model.relations],
        "valuation": {
            w: sorted(v) for w, v in zip(model.worlds, model.valuations) if v
        },
    }


def model_from_json(doc: Mapping[str, Any]) -> KripkeModel:
    worlds = strings(field_of(doc, "worlds", list, "model"), "model worlds")
    relations = [
        string_pairs(rel, "model relation") for rel in field_of(doc, "relations", list, "model")
    ]
    valuation = shaped(doc.get("valuation", {}), dict, "model valuation")
    return make_model(
        worlds,
        field_of(doc, "agents", int, "model"),
        relations,
        {w: strings(props, f"valuation of {w!r}") for w, props in valuation.items()},
    )


def state_to_json(state: EpistemicState) -> dict[str, Any]:
    doc = model_to_json(state.model)
    doc["designated"] = state.designated
    return doc


def state_from_json(doc: Mapping[str, Any]) -> EpistemicState:
    return EpistemicState(model_from_json(doc), field_of(doc, "designated", str, "state"))
