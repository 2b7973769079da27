"""Modal-formula AST, evaluation semantics, and the text syntax.

The AST has exactly five node kinds: falsum, proposition, negation,
conjunction, and the knowledge box.  Everything else (``true``,
disjunction, implication, the dual diamond) is sugar that desugars to
those five at construction time, so structural equality is equality up
to desugaring.

Concrete syntax::

    false | true | ident | !f | f & g | f | g | f -> g
    K{i} f | <K{i}> f          (K f abbreviates K{0} f)

with precedence ``!`` > ``&`` > ``|`` > ``->`` and parentheses.
Identifiers are nonempty runs of ``[A-Za-z0-9_#]``; ``#``, ``#1`` and
``#2`` are legal proposition names.

Two evaluators serve two needs, and each compiles a formula once into
nested closures kept on the node.  ``extension_mask`` computes the set of
worlds where a formula holds, as a bitmask memoized per model; the
product update and the applicability tests read those.  Its mask program
pushes negations in, runs a conjunction chain as one loop that stops at
0, and computes a ``K`` or ``<K>`` in one C-level pass over the agent's
successor masks.  ``evaluate`` and ``evaluate_at`` answer at one world, as
goal checks need.  Their pointwise program tests a ``K`` or ``<K>`` of a
literal in one loop over the successors' valuations, walks a conjunction
chain as one loop, drops double negations and tests ``!p`` inline.  A
formula nested too deeply for a program to be built or run is answered by
``extension_mask``'s walk over its subformulas, which handles any depth.
"""
from __future__ import annotations

import operator
import re
from itertools import compress
import threading
import weakref
from typing import TYPE_CHECKING, Any, Container, Iterator

from .errors import FormulaSyntaxError, MalformedDocument, UnknownAgent, UnknownWorld, field_of

if TYPE_CHECKING:
    from .kripke import EpistemicState, KripkeModel


# Hash-consing (Filliatre & Conchon, "Type-safe modular hash-consing", 2006):
# every node is interned by its kind and fields, so structurally equal
# formulas are one object and equality is identity.  That makes the
# identity hash ``object`` gives a valid hash: O(1), computed in C without
# a call back into Python, and never part of a pickle.  The modal depth and
# the highest agent named (-1 for none) are computed once, from the
# children's stored values, when a node is built; the pointwise program that
# ``evaluate`` runs, the mask program that ``extension_mask`` runs and the
# post-order its fallback walks start as ``None`` and are filled on first use.
# The table holds its nodes weakly, so a formula nobody references is
# freed.  A new node enters the table by one ``dict.setdefault``, which the
# interpreter runs atomically, so of two threads racing to add a key one
# wins and the other sees the winner's entry.  The lock is taken only where
# an entry is replaced or removed: when the key already holds another entry
# (the winner's, or a dead one whose removal is still pending), and in
# ``_forget``.  So threads building the same node get one object.  The lock
# is re-entrant, so ``_forget``, which runs wherever a node happens to die,
# cannot deadlock even if that is inside a locked block of the same thread.
class _Entry(weakref.ref):
    """A table entry: a weak reference to a node that knows its key."""

    __slots__ = ("key",)


_INTERN: dict[tuple, _Entry] = {}
_INTERN_LOCK = threading.RLock()


def _missing() -> None:
    """The table's default: calling it, like calling a dead entry, gives None."""


def _forget(entry: _Entry) -> None:
    with _INTERN_LOCK:
        if _INTERN.get(entry.key) is entry:
            del _INTERN[entry.key]


class Formula:
    """Base class of all formula nodes.

    Nodes are immutable and hash-consed: building a node equal to a live
    one returns that node, so ``==`` is ``is`` and ``hash`` is O(1).
    ``depth`` is the stored modal depth and ``max_agent`` the highest
    ``K{i}`` agent in the formula, -1 if it has none.  ``_program`` holds
    the pointwise check once ``evaluate`` has needed it, ``_mask_program``
    the mask program once ``extension_mask`` has, and ``_order`` the
    proper subformulas in post-order once ``extension_mask`` has walked
    them, for a formula too deep for its mask program (all ``None``
    before).  The pointwise check holds no node, the mask program only
    the proper ``Know`` subformulas whose masks it keeps in a model's
    memo, and the order only proper subformulas; none holds the node
    itself, so a node is in no reference cycle and dies with its last
    reference.
    Pickling and copying rebuild through the constructor from the
    subclass's fields, so they return the interned node.
    """

    __slots__ = ("depth", "max_agent", "_order", "_program", "_mask_program", "__weakref__")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, slot) for slot in type(self).__slots__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{to_text(self)}>"


class FalseF(Formula):
    __slots__ = ()

    def __new__(cls) -> FalseF:
        return _interned((cls,))


class Prop(Formula):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Prop:
        return _interned((cls, name))


class Not(Formula):
    __slots__ = ("sub",)
    sub: Formula

    def __new__(cls, sub: Formula) -> Not:
        return _interned((cls, sub))


class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> And:
        return _interned((cls, left, right))


class Know(Formula):
    __slots__ = ("agent", "sub")
    agent: int
    sub: Formula

    def __new__(cls, agent: int, sub: Formula) -> Know:
        # True == 1, so a bool agent would intern as the node for agent 1.
        agent = operator.index(agent)
        if agent < 0:
            raise ValueError("agent index must be non-negative")
        return _interned((cls, agent, sub))


def _interned(key: tuple) -> Formula:
    """The live node of class ``key[0]`` with fields ``key[1:]``; built on a miss.

    Each kind writes its slots through descriptor setters bound once below
    and takes ``depth`` and ``max_agent`` from its own children.
    """
    node = _INTERN.get(key, _missing)()
    if node is not None:
        return node
    cls = key[0]
    node = _new(cls)
    if cls is Not:
        sub = key[1]
        _set_not_sub(node, sub)
        _set_depth(node, sub.depth)
        _set_max_agent(node, sub.max_agent)
    elif cls is And:
        left, right = key[1], key[2]
        _set_left(node, left)
        _set_right(node, right)
        a, b = left.depth, right.depth
        _set_depth(node, a if a > b else b)
        a, b = left.max_agent, right.max_agent
        _set_max_agent(node, a if a > b else b)
    elif cls is Know:
        agent, sub = key[1], key[2]
        _set_agent(node, agent)
        _set_know_sub(node, sub)
        _set_depth(node, sub.depth + 1)
        top = sub.max_agent
        _set_max_agent(node, agent if agent > top else top)
    else:
        if cls is Prop:
            _set_name(node, key[1])
        _set_depth(node, 0)
        _set_max_agent(node, -1)
    _set_order(node, None)
    _set_program(node, None)
    _set_mask_program(node, None)
    entry = _Entry(node, _forget)
    entry.key = key
    held = _INTERN.setdefault(key, entry)
    if held is not entry:
        with _INTERN_LOCK:
            won = _INTERN.get(key, _missing)()
            if won is not None:
                return won
            _INTERN[key] = entry
    return node


_new = object.__new__
_set_depth = Formula.depth.__set__
_set_max_agent = Formula.max_agent.__set__
_set_order = Formula._order.__set__
_set_program = Formula._program.__set__
_set_mask_program = Formula._mask_program.__set__
_set_name = Prop.name.__set__
_set_not_sub = Not.sub.__set__
_set_left = And.left.__set__
_set_right = And.right.__set__
_set_agent = Know.agent.__set__
_set_know_sub = Know.sub.__set__


_PROP_NAME = re.compile(r"[A-Za-z0-9_#]+\Z")
_RESERVED = {"false", "true", "K"}

_FALSE = FalseF()


def false_() -> Formula:
    return _FALSE


def prop(name: str) -> Formula:
    if not _PROP_NAME.match(name) or name in _RESERVED:
        raise ValueError(f"illegal proposition name {name!r}")
    return Prop(name)


def not_(f: Formula) -> Formula:
    return Not(f)


def and_(left: Formula, right: Formula) -> Formula:
    return And(left, right)


def know(agent: int, f: Formula) -> Formula:
    return Know(agent, f)


def true_() -> Formula:
    return Not(_FALSE)


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return or_(Not(left), right)


def diamond(agent: int, f: Formula) -> Formula:
    """The dual of the knowledge box: "considers f possible"."""
    return Not(know(agent, Not(f)))


def conj(*fs: Formula) -> Formula:
    """Left-nested conjunction; empty conjunction is true."""
    if not fs:
        return true_()
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def disj(*fs: Formula) -> Formula:
    """Left-nested disjunction; empty disjunction is false."""
    if not fs:
        return _FALSE
    out = fs[0]
    for f in fs[1:]:
        out = or_(out, f)
    return out


def modal_depth(f: Formula) -> int:
    """Maximum nesting of knowledge operators in ``f`` (stored on the node)."""
    return f.depth


def subformulas(f: Formula, done: Container[Formula]) -> Iterator[Formula]:
    """Each distinct subformula of ``f`` not in ``done``, each after its children.

    The caller puts every yielded node into ``done`` before it takes the
    next one; a node in ``done`` is not yielded and the walk does not
    descend below it.  The stack is explicit, so any depth is walked.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        if g in done:
            continue
        t = type(g)
        if t is And:
            if g.left not in done or g.right not in done:
                stack += (g, g.right, g.left)
                continue
        elif (t is Not or t is Know) and g.sub not in done:
            stack += (g, g.sub)
            continue
        yield g


def propositions(f: Formula) -> frozenset[str]:
    """All proposition names mentioned in ``f``."""
    seen: set[Formula] = set()
    for g in subformulas(f, seen):
        seen.add(g)
    return frozenset(g.name for g in seen if type(g) is Prop)


# --- pointwise evaluation --------------------------------------------------
#
# A formula's pointwise check is compiled once, on its first pointwise
# evaluation, into nested closures (Feeley & Lapalme, "Using closures for
# code generation", Computer Languages 12(1), 1987) and kept on the node
# (``Formula._program``).  A check is called as ``check(valuations, rows,
# i, memo)`` and answers at world ``i``.  Negations are pushed into the
# checks, so ``!!f`` is ``f`` and ``!p`` is one test; a conjunction chain is
# one loop over its conjuncts; and a ``K``/``<K>`` whose operand is a
# literal tests the successors' valuations in one loop, with no call per
# successor.  ``memo`` is a list made per evaluation: slot ``k`` keeps the
# value at the queried world of the ``k``-th ``Know`` met there; checks
# built below a ``Know``, where the world changes, never read it.  The
# closures hold names, agents, slot numbers and other closures, never a
# node, so a node still dies with its last reference.


def _true(vals, rows, i, memo) -> bool:
    return True


def _false(vals, rows, i, memo) -> bool:
    return False


def _has(name: str):
    def check(vals, rows, i, memo):
        return name in vals[i]
    return check


def _lacks(name: str):
    def check(vals, rows, i, memo):
        return name not in vals[i]
    return check


def _not(sub):
    def check(vals, rows, i, memo):
        return not sub(vals, rows, i, memo)
    return check


def _all(parts: tuple):
    def check(vals, rows, i, memo):
        for part in parts:
            if not part(vals, rows, i, memo):
                return False
        return True
    return check


def _not_all(parts: tuple):
    def check(vals, rows, i, memo):
        for part in parts:
            if not part(vals, rows, i, memo):
                return True
        return False
    return check


def _know(agent: int, sub):
    def check(vals, rows, i, memo):
        for j in rows[agent][i]:
            if not sub(vals, rows, j, None):
                return False
        return True
    return check


def _know_has(agent: int, name: str):
    def check(vals, rows, i, memo):
        for j in rows[agent][i]:
            if name not in vals[j]:
                return False
        return True
    return check


def _know_lacks(agent: int, name: str):
    def check(vals, rows, i, memo):
        for j in rows[agent][i]:
            if name in vals[j]:
                return False
        return True
    return check


def _kept(slot: int, sub):
    def check(vals, rows, i, memo):
        value = memo[slot]
        if value is None:
            value = memo[slot] = sub(vals, rows, i, memo)
        return value
    return check


def _kept_not(slot: int, sub):
    def check(vals, rows, i, memo):
        value = memo[slot]
        if value is None:
            value = memo[slot] = sub(vals, rows, i, memo)
        return not value
    return check


class _Chains:
    """What both program builders share: the conjuncts of a conjunction chain.

    Each ``And`` is walked into a chain at most once besides being its own
    chain's root, so with each (node, polarity) built once a build is
    linear in the distinct subformulas.
    """

    def __init__(self) -> None:
        self.walked: set[Formula] = set()

    def conjuncts(self, g: And) -> dict[Formula, None]:
        """The conjuncts of the chain below ``g``, left to right, each once."""
        parts: dict[Formula, None] = {}
        stack = [g.right, g.left]
        while stack:
            h = stack.pop()
            while type(h) is Not and type(h.sub) is Not:
                h = h.sub.sub
            if type(h) is And and h not in self.walked:
                self.walked.add(h)
                stack += (h.right, h.left)
            else:
                parts[h] = None
        return parts


class _Builder(_Chains):
    """One program build: its checks, and the memo slot of each ``Know`` at the queried world.

    Checks are keyed by node, polarity and whether they answer at the
    queried world, and each key is built once.  The build recurses, so a
    formula nested too deeply raises ``RecursionError``.  The builder
    holds nodes; the checks it returns do not.
    """

    def __init__(self) -> None:
        super().__init__()
        self.built: dict[tuple, Any] = {}
        self.slots: dict[Formula, int] = {}

    def build(self, g: Formula, negated: bool, top: bool):
        while type(g) is Not:
            g, negated = g.sub, not negated
        key = (g, negated, top)
        check = self.built.get(key)
        if check is None:
            check = self.built[key] = self.make(g, negated, top)
        return check

    def make(self, g: Formula, negated: bool, top: bool):
        t = type(g)
        if t is Prop:
            return _lacks(g.name) if negated else _has(g.name)
        if t is And:
            checks = tuple([self.build(h, False, top) for h in self.conjuncts(g)])
            return _not_all(checks) if negated else _all(checks)
        if t is Know:
            sub, flipped = g.sub, False
            while type(sub) is Not:
                sub, flipped = sub.sub, not flipped
            if type(sub) is Prop:
                check = (_know_lacks if flipped else _know_has)(g.agent, sub.name)
            else:
                check = _know(g.agent, self.build(sub, flipped, False))
            if top:
                slot = self.slots.setdefault(g, len(self.slots))
                return _kept_not(slot, check) if negated else _kept(slot, check)
            return _not(check) if negated else check
        if t is FalseF:
            return _true if negated else _false
        raise TypeError(f"not a formula: {g!r}")


def _compile(f: Formula) -> tuple:
    """``f``'s program: its check and the size of the memo a call passes it."""
    builder = _Builder()
    return builder.build(f, False, True), len(builder.slots)


# the program kept by a formula nested too deeply to build: it is answered
# from its extension mask from then on
_TOO_DEEP = (None, 0)


def _check_agents(model: KripkeModel, f: Formula) -> None:
    if f.max_agent >= model.agents:
        raise UnknownAgent(f"agent {f.max_agent} out of range: model has {model.agents} agent(s)")


def evaluate(state: EpistemicState, f: Formula) -> bool:
    """Truth of ``f`` at the designated world of ``state`` (see ``evaluate_at``)."""
    return _evaluate(state.model, state.designated_index, f)


def evaluate_at(state: EpistemicState, world: str, f: Formula) -> bool:
    """Truth of ``f`` at an arbitrary world of ``state``'s model.

    Runs ``f``'s program, compiled on its first pointwise evaluation and
    kept on the node: a short-circuit check that tests a ``K`` or ``<K>``
    of a literal in one loop over the successors' valuations, walks a
    conjunction chain as one loop, and evaluates each distinct ``Know``
    node at ``world`` once per call.  Sound because a node is one formula
    (nodes are hash-consed) and a ``Know``'s value at a world depends only
    on the model, the world and the node; below a ``Know`` the check keeps
    nothing.  The agents ``f`` names are checked first (``UnknownAgent``),
    so the answer never depends on where the check stops.  A formula
    nested too deeply for its program to be built or run is answered from
    its extension mask (``extension_mask``), whose walk handles any depth.
    """
    if world not in state.model:
        raise UnknownWorld(f"world {world!r} not in model")
    return _evaluate(state.model, state.model.index_of(world), f)


def _evaluate(model: KripkeModel, i: int, f: Formula) -> bool:
    _check_agents(model, f)
    program = f._program
    if program is None:
        try:
            program = _compile(f)
        except RecursionError:
            program = _TOO_DEEP
        object.__setattr__(f, "_program", program)
    check, size = program
    if check is not None:
        try:
            return check(model.valuations, model.rows, i, [None] * size)
        except RecursionError:
            pass
    return bool(extension_mask(model, f) >> i & 1)


# --- extension masks -------------------------------------------------------
#
# A formula's mask program is compiled once, on its first miss in a model's
# memo, into nested closures like the pointwise checks and kept on the node
# (``Formula._mask_program``).  A program is called as ``mask(prop_masks,
# succ_masks, full, bits, memo)`` with the model's views (``KripkeModel.masks``),
# the mask of every world, ``bits[i] == 1 << i`` for at least every world,
# and the model's memo, and returns the mask of the worlds where its formula
# holds.  Negations are pushed in, so ``!p`` is one ``full ^ prop_mask``; a
# conjunction chain is one loop that stops at 0; and a ``K``/``<K>`` is one
# C-level pass over the agent's successor masks that picks the worlds with a
# successor in the operand's failing mask.  Each ``Know`` met below the root
# keeps its mask in the memo, keyed by its node, so formulas evaluated on one
# model share it; the closure of such a ``Know`` holds that node, a proper
# subformula of the root, and no closure holds the root, so a node is still
# in no reference cycle.


def _mask_none(pm, sm, full, bits, memo) -> int:
    return 0


def _mask_full(pm, sm, full, bits, memo) -> int:
    return full


def _mask_has(name: str):
    def mask(pm, sm, full, bits, memo):
        return pm.get(name, 0)
    return mask


def _mask_lacks(name: str):
    def mask(pm, sm, full, bits, memo):
        return full ^ pm.get(name, 0)
    return mask


def _mask_all(parts: tuple):
    def mask(pm, sm, full, bits, memo):
        out = full
        for part in parts:
            out &= part(pm, sm, full, bits, memo)
            if not out:
                return 0
        return out
    return mask


def _mask_not_all(parts: tuple):
    def mask(pm, sm, full, bits, memo):
        out = full
        for part in parts:
            out &= part(pm, sm, full, bits, memo)
            if not out:
                return full
        return full ^ out
    return mask


# A ``K{a} f`` program is given the program of ``!f``; the worlds with an
# ``a``-successor in that mask are those of ``!K{a} f``, picked by ``compress``.
def _mask_box(agent: int, fails):
    def mask(pm, sm, full, bits, memo):
        return full ^ sum(compress(bits, map(fails(pm, sm, full, bits, memo).__and__, sm[agent])))
    return mask


def _mask_kept(node: Know, fails):
    agent = node.agent

    def mask(pm, sm, full, bits, memo):
        out = memo.get(node)
        if out is None:
            out = memo[node] = full ^ sum(
                compress(bits, map(fails(pm, sm, full, bits, memo).__and__, sm[agent])))
        return out
    return mask


def _mask_kept_not(node: Know, fails):
    agent = node.agent

    def mask(pm, sm, full, bits, memo):
        out = memo.get(node)
        if out is None:
            out = memo[node] = full ^ sum(
                compress(bits, map(fails(pm, sm, full, bits, memo).__and__, sm[agent])))
        return full ^ out
    return mask


class _MaskBuilder(_Chains):
    """One mask program build for the root ``root``.

    Programs are keyed by node and polarity, and each key is built once.
    Every ``Know`` but the root keeps its mask in the memo; the root's is
    kept by ``extension_mask``.  The build recurses, so a formula nested
    too deeply raises ``RecursionError``.
    """

    def __init__(self, root: Formula) -> None:
        super().__init__()
        self.root = root
        self.built: dict[tuple, Any] = {}

    def build(self, g: Formula, negated: bool):
        while type(g) is Not:
            g, negated = g.sub, not negated
        key = (g, negated)
        program = self.built.get(key)
        if program is None:
            program = self.built[key] = self.make(g, negated)
        return program

    def make(self, g: Formula, negated: bool):
        t = type(g)
        if t is Prop:
            return _mask_lacks(g.name) if negated else _mask_has(g.name)
        if t is And:
            parts = tuple([self.build(h, False) for h in self.conjuncts(g)])
            return _mask_not_all(parts) if negated else _mask_all(parts)
        if t is Know:
            fails = self.build(g.sub, True)
            if g is self.root:
                return _mask_box(g.agent, fails)
            return _mask_kept_not(g, fails) if negated else _mask_kept(g, fails)
        if t is FalseF:
            return _mask_full if negated else _mask_none
        raise TypeError(f"not a formula: {g!r}")


# the mask program kept by a formula nested too deeply to build: its masks
# come from the walk over its subformulas from then on
def _mask_too_deep(pm, sm, full, bits, memo) -> int:
    raise RecursionError


_BITS: tuple[int, ...] = ()


def _bits(n: int) -> tuple[int, ...]:
    """``1 << i`` for every ``i < n`` at least; one shared tuple, replaced when it is too short."""
    global _BITS
    bits = _BITS
    if len(bits) < n:
        bits = _BITS = tuple([1 << i for i in range(max(n, 2 * len(bits)))])
    return bits


def extension_mask(model: KripkeModel, f: Formula) -> int:
    """Satisfying worlds of ``f`` as a bitmask over world indices.

    Masks are kept in the model's memo (``KripkeModel.formula_memo``),
    made on the first miss on that model.  A miss checks the agents ``f``
    names (``UnknownAgent``) and runs ``f``'s mask program, compiled on the
    first miss on any model and kept on the node (``Formula._mask_program``).
    The memo then holds ``f`` and each ``Know`` the program evaluated, so
    every call on one model, such as the applicability tests and product
    updates of all actions at one search node, computes each of those once
    (sound as in ``evaluate_at``: a node is one formula).
    A formula nested too deeply for its program to be built or run is
    answered by a walk over its proper subformulas in post-order, children
    first, then ``f``, skipping the nodes the memo holds and adding the
    rest; that order is built by ``subformulas`` on the first walk and kept
    on the node (``Formula._order``), and it walks any depth.  ``evaluate``
    comes here only for a formula nested too deeply for its pointwise
    program.
    """
    memo = model._memo
    if memo is None:
        memo = model.formula_memo()
    else:
        hit = memo.get(f)
        if hit is not None:
            return hit
    _check_agents(model, f)
    program = f._mask_program
    if program is None:
        try:
            program = _MaskBuilder(f).build(f, False)
        except RecursionError:
            program = _mask_too_deep
        object.__setattr__(f, "_mask_program", program)
    prop_masks, succ_masks, _ = model.masks()
    n = len(model.valuations)
    full = (1 << n) - 1
    try:
        out = memo[f] = program(prop_masks, succ_masks, full, _bits(n), memo)
        return out
    except RecursionError:
        pass
    order = f._order
    if order is None:
        done: dict[Formula, None] = {}
        for g in subformulas(f, done):
            done[g] = None
        done.popitem()  # f itself, yielded last: the node must not hold itself
        order = tuple(done)
        object.__setattr__(f, "_order", order)
    for g in (*order, f):
        if g in memo:
            continue
        t = type(g)
        if t is Prop:
            out = prop_masks.get(g.name, 0)
        elif t is Not:
            out = full & ~memo[g.sub]
        elif t is And:
            out = memo[g.left] & memo[g.right]
        elif t is Know:
            outside = ~memo[g.sub]
            out = sum(1 << i for i, succ in enumerate(succ_masks[g.agent]) if not succ & outside)
        elif t is FalseF:
            out = 0
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = out
    return memo[f]


# --- text syntax ---------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|[()!&|<>{}]|[A-Za-z0-9_#]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def next(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        self.next()

    def parse(self) -> Formula:
        f = self.implies()
        if self.peek() != "":
            raise FormulaSyntaxError(f"unexpected trailing {self.peek()!r}", self.pos())
        return f

    def implies(self) -> Formula:
        left = self.or_()
        if self.peek() == "->":
            self.next()
            return implies(left, self.implies())
        return left

    def or_(self) -> Formula:
        out = self.and_()
        while self.peek() == "|":
            self.next()
            out = or_(out, self.and_())
        return out

    def and_(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def agent(self) -> int:
        if self.peek() != "{":
            return 0
        self.next()
        tok, pos = self.tokens[self.i][0], self.pos()
        if not tok.isdigit():
            raise FormulaSyntaxError("expected agent index", pos)
        self.next()
        self.expect("}")
        return int(tok)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.next()
            return Not(self.unary())
        if tok == "K":
            self.next()
            return Know(self.agent(), self.unary())
        if tok == "<":
            self.next()
            self.expect("K")
            i = self.agent()
            self.expect(">")
            return diamond(i, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok, pos = self.peek(), self.pos()
        if tok == "(":
            self.next()
            f = self.implies()
            self.expect(")")
            return f
        if tok == "false":
            self.next()
            return _FALSE
        if tok == "true":
            self.next()
            return true_()
        if _PROP_NAME.match(tok) and tok not in _RESERVED:
            self.next()
            return Prop(tok)
        raise FormulaSyntaxError(f"expected a formula, found {tok!r}", pos)


def parse(text: str) -> Formula:
    """Parse the text syntax; raises FormulaSyntaxError with a position.

    Text nested too deeply to read is a syntax error too.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise FormulaSyntaxError("formula is nested too deeply", parser.pos()) from None


_PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def to_text(f: Formula) -> str:
    """Render ``f``; ``parse(to_text(f))`` is structurally ``f``.

    A fold over ``subformulas`` gives each node its precedence and its text
    as a template of strings and child nodes; a loop then writes the
    templates out from ``f``.  Neither step recurses, so any depth is
    printed, in time and memory linear in the text.  The printable duals
    (``true``, ``|``, ``<K{i}>``) are re-sugared; parsing desugars them back
    to the identical tree.
    """
    done: dict[Formula, tuple[tuple, int]] = {}

    def at(g: Formula, minimum: int) -> tuple:
        return ("(", g, ")") if done[g][1] < minimum else (g,)

    for g in subformulas(f, done):
        t = type(g)
        if t is FalseF:
            out = ("false",), _PREC_ATOM
        elif t is Prop:
            out = (g.name,), _PREC_ATOM
        elif t is Know:
            out = (f"K{{{g.agent}}} ", *at(g.sub, _PREC_UNARY)), _PREC_UNARY
        elif t is And:
            out = (*at(g.left, _PREC_AND), " & ", *at(g.right, _PREC_AND + 1)), _PREC_AND
        elif t is not Not:
            raise TypeError(f"not a formula: {g!r}")
        elif type(g.sub) is FalseF:
            out = ("true",), _PREC_ATOM
        elif type(g.sub) is Know and type(g.sub.sub) is Not:
            out = (f"<K{{{g.sub.agent}}}> ", *at(g.sub.sub.sub, _PREC_UNARY)), _PREC_UNARY
        elif type(g.sub) is And and type(g.sub.left) is Not and type(g.sub.right) is Not:
            left, right = g.sub.left.sub, g.sub.right.sub
            out = (*at(left, _PREC_OR), " | ", *at(right, _PREC_OR + 1)), _PREC_OR
        else:
            out = ("!", *at(g.sub, _PREC_UNARY)), _PREC_UNARY
        done[g] = out
    pieces, stack = [], [f]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            pieces.append(piece)
        else:
            stack += reversed(done[piece][0])
    return "".join(pieces)


# --- JSON encoding -------------------------------------------------------


def formula_to_json(f: Formula) -> dict[str, Any]:
    """The document of ``f``, a fold over ``subformulas``, so any depth is encoded.

    A subformula that occurs more than once is one dict object at each of
    its places; callers serialize the document and do not change it.
    ``json`` can neither write nor read a document nested deeper than the
    recursion limit; the CLI never builds such a formula.
    """
    done: dict[Formula, dict[str, Any]] = {}
    for g in subformulas(f, done):
        t = type(g)
        if t is FalseF:
            doc = {"op": "false"}
        elif t is Prop:
            doc = {"op": "prop", "name": g.name}
        elif t is Not:
            doc = {"op": "not", "arg": done[g.sub]}
        elif t is And:
            doc = {"op": "and", "left": done[g.left], "right": done[g.right]}
        elif t is Know:
            doc = {"op": "know", "agent": g.agent, "arg": done[g.sub]}
        else:
            raise TypeError(f"not a formula: {g!r}")
        done[g] = doc
    return done[f]


def formula_from_json(doc: dict[str, Any]) -> Formula:
    """The formula a document encodes; nesting too deep to read is malformed.

    Like ``json``, this reader recurses: it rejects a document nested deeper
    than the recursion limit, even one ``formula_to_json`` made.  The CLI
    never builds such a formula.
    """
    try:
        return _formula_from_json(doc)
    except RecursionError:
        raise MalformedDocument("formula is nested too deeply") from None


def _formula_from_json(doc: dict[str, Any]) -> Formula:
    op = field_of(doc, "op", str, "formula")

    def sub(key: str) -> Formula:
        return _formula_from_json(field_of(doc, key, dict, f"{op!r} formula"))

    if op == "false":
        return _FALSE
    if op == "prop":
        return prop(field_of(doc, "name", str, "'prop' formula"))
    if op == "not":
        return Not(sub("arg"))
    if op == "and":
        return And(sub("left"), sub("right"))
    if op == "know":
        return know(field_of(doc, "agent", int, "'know' formula"), sub("arg"))
    raise ValueError(f"unknown formula op {op!r}")
