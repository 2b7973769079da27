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

Two evaluators serve two needs.  ``extension_mask`` computes the set of
worlds where a formula holds, as a bitmask memoized per model; the
product update and the applicability tests read those.  ``evaluate`` and
``evaluate_at`` answer at one world, as goal checks need: each formula's
pointwise check is compiled once, on its first pointwise evaluation, into
nested closures kept on the node.  The program tests a ``K`` or ``<K>`` of
a literal in one loop over the successors' valuations, walks a
conjunction chain as one loop, drops double negations and tests ``!p``
inline.  A formula nested too deeply for its program to be built or run
is answered from its extension mask, which walks any depth.
"""
from __future__ import annotations

import operator
import re
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
# children's stored values, when a node is built; the post-order that
# ``extension_mask`` walks and the pointwise program that ``evaluate`` runs
# start as ``None`` and are filled on first use.
# The table holds its nodes weakly, so a formula nobody references is
# freed.  Every change to the table is made under the lock, so threads
# building the same node get one object.  The lock is re-entrant, so
# ``_forget``, which runs wherever a node happens to die, cannot deadlock
# even if that is inside a locked block of the same thread.
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


def _interned(key: tuple) -> Formula:
    """The live node of class ``key[0]`` with fields ``key[1:]``; built on a miss."""
    node = _INTERN.get(key, _missing)()
    if node is not None:
        return node
    cls, fields = key[0], key[1:]
    node = object.__new__(cls)
    for slot, value in zip(cls.__slots__, fields):
        object.__setattr__(node, slot, value)
    depth, top = 0, -1
    for f in fields:
        if isinstance(f, Formula):
            depth, top = max(depth, f.depth), max(top, f.max_agent)
    if cls is Know:
        depth, top = depth + 1, max(top, fields[0])
    object.__setattr__(node, "depth", depth)
    object.__setattr__(node, "max_agent", top)
    object.__setattr__(node, "_order", None)
    object.__setattr__(node, "_program", None)
    entry = _Entry(node, _forget)
    entry.key = key
    with _INTERN_LOCK:
        won = _INTERN.get(key, _missing)()
        if won is not None:
            return won
        _INTERN[key] = entry
    return node


class Formula:
    """Base class of all formula nodes.

    Nodes are immutable and hash-consed: building a node equal to a live
    one returns that node, so ``==`` is ``is`` and ``hash`` is O(1).
    ``depth`` is the stored modal depth and ``max_agent`` the highest
    ``K{i}`` agent in the formula, -1 if it has none.  ``_order`` holds
    the proper subformulas in post-order once ``extension_mask`` has
    needed them, and ``_program`` the pointwise check once ``evaluate``
    has (both ``None`` before).  Neither holds the node itself, and the
    program holds no node at all, so a node is in no reference cycle and
    dies with its last reference.
    Pickling and copying rebuild through the constructor from the
    subclass's fields, so they return the interned node.
    """

    __slots__ = ("depth", "max_agent", "_order", "_program", "__weakref__")

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


class _Builder:
    """One program build: its checks, and the memo slot of each ``Know`` at the queried world.

    Checks are keyed by node, polarity and whether they answer at the
    queried world.  Each key is built once, and each ``And`` is walked
    into a chain at most once besides being its own chain's root, so a
    build is linear in the distinct subformulas.  It recurses, so a
    formula nested too deeply raises ``RecursionError``.  The builder
    holds nodes; the checks it returns do not.
    """

    def __init__(self) -> None:
        self.built: dict[tuple, Any] = {}
        self.walked: set[Formula] = set()
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
            # the conjuncts of the chain below g, left to right, each once
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
            checks = tuple([self.build(h, False, top) for h in parts])
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
    its extension mask (``extension_mask``), which walks any depth.
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


def extension_mask(model: KripkeModel, f: Formula) -> int:
    """Satisfying worlds of ``f`` as a bitmask over world indices.

    Masks are kept in the model's memo (``KripkeModel.formula_memo``),
    made on the first miss on that model, so every call on one model,
    such as the applicability tests and product updates of all actions at
    one search node, computes each distinct subformula once (sound as in
    ``evaluate_at``: a node is one formula).  A miss checks the agents
    ``f`` names (``UnknownAgent``), then walks ``f``'s proper subformulas
    in post-order, children first, and ``f`` last, skipping the nodes the
    memo holds.  That order is built by ``subformulas`` on the first miss
    with ``f`` as root and kept on the node (``Formula._order``), so every
    later model reuses it.  ``evaluate`` comes here only for a formula
    nested too deeply for its compiled program: for one world the
    short-circuit program is faster than full masks.  Such a deep goal
    adds its subformulas to the model's memo, as a precondition does.
    """
    memo = model._memo
    if memo is None:
        memo = model.formula_memo()
    else:
        hit = memo.get(f)
        if hit is not None:
            return hit
    _check_agents(model, f)
    order = f._order
    if order is None:
        done: dict[Formula, None] = {}
        for g in subformulas(f, done):
            done[g] = None
        done.popitem()  # f itself, yielded last: the node must not hold itself
        order = tuple(done)
        object.__setattr__(f, "_order", order)
    prop_masks, succ_masks, _ = model.masks()
    full = (1 << len(model.valuations)) - 1
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
