"""Kripke models and pointed epistemic states.

Models are immutable after construction; every transformation returns a
fresh value, so states can be shared freely (e.g. between search
branches).  World iteration order is the construction order, which keeps
all downstream operations deterministic.

A model stores its relation once, as integer rows: ``rows[a][i]`` holds
the indices of agent ``a``'s successors of ``worlds[i]``, ascending; the
agent count is the number of rows and is stored nowhere else.
Names serve the boundary (JSON, CLI): ``_successor_rows`` turns name
pairs into rows and ``_pair_view`` derives the ``relations`` pairs back
(for event models too); ``generated_part`` is the one reachability walk
and generated-part routine (``part_state`` builds its state) and
``successor_masks`` turns a row into bitmasks.

The engine reads no name.  A state points at its designated world by
index, and a model made from another one (a product, a quotient, a
generated part) gets its world names from a ``_Names`` recipe that
builds them on first read of ``worlds``: a search that never prints a
state never builds its names.  The name index of a model is built on its
first name lookup.

A model owns its derived views, which live and die with it: ``masks()``
builds its bitmask views in one cached slot, and ``formula_memo()``
makes, on the first formula evaluated on the model, the memo that
``formula.extension_mask`` fills: the mask of each formula evaluated on
the model and of each ``K`` subformula its program evaluated (of every
subformula, for a formula too deep for a program), so every action tried
at one search node shares them.  A model no formula is evaluated on gets
no memo.
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


def successor_masks(row: Sequence[Sequence[int]]) -> list[int]:
    """One agent's successor row as bitmasks: entry i ORs ``1 << j`` over ``row[i]``."""
    return [sum(1 << j for j in succ) for succ in row]


class _Names:
    """The world names of a derived model, built on first read.

    ``source`` holds the names of the model derived from: a tuple, or a
    ``_Names`` of its own.  World k of the derived model is named
    ``source[picks[k]]``, or, when ``events`` is given, ``"(u,e)"`` for the
    pair ``picks[k] = (i, f)`` with ``u = source[i]`` and ``e = events[f]``.
    A recipe holds only names and indices, never the source model, so the
    source's rows, masks and formula memo are freed with it.
    """

    __slots__ = ("source", "picks", "events", "names")

    def __init__(self, source, picks: Sequence, events: Sequence[str] | None = None):
        self.source, self.picks, self.events, self.names = source, picks, events, None

    def build(self, source: tuple[str, ...]) -> tuple[str, ...]:
        """The names over the built ``source`` names."""
        if self.events is None:
            return tuple([source[i] for i in self.picks])
        events = self.events
        return tuple([f"({source[i]},{events[e]})" for i, e in self.picks])

    def resolve(self) -> tuple[str, ...]:
        """The names, building each level of the recipe chain not yet built.

        A loop, not recursion: the chain grows by a level per update of a
        plan, and a plan may be longer than the recursion limit.
        """
        pending, names = [], self
        while type(names) is _Names and names.names is None:
            pending.append(names)
            names = names.source
        if type(names) is _Names:
            names = names.names
        for level in reversed(pending):
            names = level.names = level.build(names)
            level.source = level.picks = level.events = None
        return names


@dataclass(frozen=True, eq=False, repr=False)
class KripkeModel:
    """A finite Kripke model: worlds, per-agent successor rows, valuation.

    ``rows[a][i]`` holds the successor indices of ``worlds[i]`` under
    agent ``a`` in ascending order, and ``valuations[i]`` the proposition
    set of ``worlds[i]``; ``len(valuations)`` is the world count, read
    without the names, and ``agents``, the agent count, is ``len(rows)``.
    Use :func:`make_model` to build a model from name pairs; it validates
    and normalizes the input.  The first argument is the tuple of world
    names, or, for models the engine derives, a ``_Names`` recipe that
    ``worlds`` builds on first read.  Equality and hashing are by worlds,
    rows and valuations, as for a plain record; the hash leaves the names
    out, so it builds none.
    """

    _worlds: tuple[str, ...] | _Names
    rows: Rows
    valuations: tuple[frozenset[str], ...]
    _index: dict = field(init=False, default=None)
    _masks: tuple = field(init=False, default=None)
    _memo: dict = field(init=False, default=None)

    @property
    def agents(self) -> int:
        return len(self.rows)

    @property
    def worlds(self) -> tuple[str, ...]:
        names = self._worlds
        if type(names) is _Names:
            names = names.resolve()
            object.__setattr__(self, "_worlds", names)
        return names

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows == other.rows and self.valuations == other.valuations
                and self.worlds == other.worlds)

    def __hash__(self):
        return hash((self.rows, self.valuations))

    def __repr__(self):
        return (f"KripkeModel(worlds={self.worlds!r}, agents={self.agents!r}, "
                f"rows={self.rows!r}, valuations={self.valuations!r})")

    @property
    def relations(self) -> tuple[frozenset[Pair], ...]:
        """Per agent, the relation as name pairs (derived afresh on each access)."""
        return _pair_view(self.worlds, self.rows)

    def _names_index(self) -> dict[str, int]:
        index = self._index
        if index is None:
            index = {w: i for i, w in enumerate(self.worlds)}
            object.__setattr__(self, "_index", index)
        return index

    def __contains__(self, world: str) -> bool:
        return world in self._names_index()

    def index_of(self, world: str) -> int:
        return self._names_index()[world]

    def formula_memo(self) -> dict:
        """The extension masks of the formulas evaluated on this model; made on first use."""
        memo = self._memo
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        return memo

    def masks(self):
        """Bitmask views for batch evaluation: (prop masks, successor masks, repeats).

        ``prop_masks[p]`` has bit i set when worlds[i] satisfies p;
        ``succ_masks[a]`` is ``successor_masks(rows[a])``; ``repeats[a]``
        is true when agent ``a``'s successor masks repeat across the
        worlds: at most half as many distinct masks as worlds occur, as in
        S5 cliques, where every world of a clique has the clique's mask.
        ``action.product_update`` then builds one successor row per
        (mask, event) and shares it.  With fewer repeats, such as the empty
        masks of a tree's leaves, the lookups cost more than the rows they
        save.  Built lazily and cached.
        """
        cached = self._masks
        if cached is None:
            prop_masks: dict[str, int] = {}
            for i, val in enumerate(self.valuations):
                bit = 1 << i
                for p in val:
                    prop_masks[p] = prop_masks.get(p, 0) | bit
            succ_masks = [successor_masks(row) for row in self.rows]
            repeats = tuple(2 * len(set(succ)) <= len(succ) for succ in succ_masks)
            cached = (prop_masks, succ_masks, repeats)
            object.__setattr__(self, "_masks", cached)
        return cached


def derived_model(source: KripkeModel, picks: Sequence, rows: Rows,
                  valuations: tuple[frozenset[str], ...],
                  events: Sequence[str] | None = None) -> KripkeModel:
    """A model with ``source``'s agents whose names come from ``source``'s on first read.

    World k is named ``source.worlds[picks[k]]``, or ``"(u,e)"`` for a pair
    ``picks[k] = (i, f)`` when ``events`` names the events (see ``_Names``).
    """
    return KripkeModel(_Names(source._worlds, picks, events), rows, valuations)


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
    return KripkeModel(world_list, rows, vals)


@dataclass(frozen=True, init=False, repr=False)
class EpistemicState:
    """A pointed model: a Kripke model plus its designated (actual) world.

    The state stores the designated world's index, ``designated_index``,
    which is all the engine reads; ``designated``, the world's name, is
    read from the model's names.  ``EpistemicState(model, name)`` checks
    the name; ``EpistemicState.at(model, index)`` is the engine's
    constructor and checks nothing.  Equality and hashing are by model and
    designated index, which within one model is the same as by name.
    """

    model: KripkeModel
    designated_index: int

    def __init__(self, model: KripkeModel, designated: str):
        if designated not in model:
            raise UnknownWorld(f"designated world {designated!r} not in model")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "designated_index", model.index_of(designated))

    @classmethod
    def at(cls, model: KripkeModel, index: int) -> EpistemicState:
        """The state of ``model`` pointed at its world ``index``."""
        state = object.__new__(cls)
        object.__setattr__(state, "model", model)
        object.__setattr__(state, "designated_index", index)
        return state

    @property
    def designated(self) -> str:
        return self.model.worlds[self.designated_index]

    def __repr__(self):
        return f"EpistemicState(model={self.model!r}, designated={self.designated!r})"


def restrict(model: KripkeModel, keep: Iterable[str]) -> KripkeModel:
    """Induced submodel on ``keep`` (relations and valuation restricted)."""
    keep_set = set(keep)
    for w in keep_set:
        if w not in model:
            raise DanglingWorldRef(f"cannot keep unknown world {w!r}")
    kept = [i for i, w in enumerate(model.worlds) if w in keep_set]
    return derived_model(model, kept, _induced_rows(model.rows, kept),
                         tuple([model.valuations[i] for i in kept]))


def generated_part(state: EpistemicState):
    """Kept indices, valuations, rows and start index of the designated world's generated part.

    The part holds the worlds reachable from the designated world over the
    union of all agents' relations, reflexively and transitively; kept
    indices are in world order.  The walk stops once every world has been
    seen; the part is then ``range(n)`` with the model's own valuations
    and rows.
    """
    model = state.model
    start = state.designated_index
    rows, vals = model.rows, model.valuations
    n = len(vals)
    seen = [False] * n
    seen[start] = True
    stack = [start]
    unseen = n - 1
    while stack and unseen:
        i = stack.pop()
        for row in rows:
            for j in row[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
                    unseen -= 1
    if not unseen:
        return range(n), vals, rows, start
    kept = [i for i in range(n) if seen[i]]
    # the part is closed under successors, so every successor of a kept world is kept
    new = [0] * n
    for k, i in enumerate(kept):
        new[i] = k
    part_rows = tuple([tuple([tuple([new[j] for j in row[i]]) for i in kept]) for row in rows])
    return kept, tuple([vals[i] for i in kept]), part_rows, new[start]


def part_state(state: EpistemicState, part) -> EpistemicState:
    """The state of ``part``, a ``generated_part(state)``: ``state`` itself when it is whole."""
    kept, vals, rows, start = part
    if len(kept) == len(state.model.valuations):
        return state
    return EpistemicState.at(derived_model(state.model, kept, rows, vals), start)


def generated_submodel(state: EpistemicState) -> EpistemicState:
    """Restrict to worlds reachable from the designated world, which is kept."""
    return part_state(state, generated_part(state))


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
