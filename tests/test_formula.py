import contextlib
import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epiplan
from epiplan import errors
from epiplan import formula as formula_module
from epiplan.formula import (
    And,
    FalseF,
    Know,
    Not,
    Prop,
    and_,
    conj,
    diamond,
    evaluate,
    evaluate_at,
    extension_mask,
    false_,
    formula_from_json,
    formula_to_json,
    implies,
    know,
    modal_depth,
    not_,
    or_,
    parse,
    prop,
    propositions,
    subformulas,
    to_text,
    true_,
)
from epiplan.kripke import EpistemicState, make_model
from epiplan.reduction import k1
from epiplan.suites import random_formula


def test_desugaring():
    assert true_() == Not(FalseF())
    assert or_(prop("a"), prop("b")) == Not(And(Not(Prop("a")), Not(Prop("b"))))
    assert diamond(0, prop("p")) == Not(Know(0, Not(Prop("p"))))
    assert implies(prop("a"), prop("b")) == or_(not_(prop("a")), prop("b"))


def test_proposition_names():
    for name in ("#", "#1", "#2", "ntF", "0"):
        assert prop(name) == Prop(name)
    for bad in ("", "a b", "true", "K", "p-q"):
        with pytest.raises(ValueError):
            prop(bad)


def test_modal_depth():
    assert modal_depth(prop("p")) == 0
    assert modal_depth(know(0, and_(prop("p"), diamond(0, prop("q"))))) == 2
    # the add-block trigger precondition has depth exactly 1
    pre = and_(prop("root"), diamond(0, prop("stg1")))
    assert modal_depth(pre) == 1
    assert modal_depth(diamond(1, know(0, prop("p")))) == 1 + modal_depth(know(0, prop("p")))


def test_parse_examples():
    assert parse("K{0} !stg1") == Know(0, Not(Prop("stg1")))
    assert parse("<K{0}> empty") == diamond(0, prop("empty"))
    assert parse("(a | b) & K{0} !symb_marker") == and_(
        or_(prop("a"), prop("b")), know(0, not_(prop("symb_marker")))
    )
    # single-agent shorthand and precedence
    assert parse("K p") == know(0, prop("p"))
    assert parse("a & b | c") == or_(and_(prop("a"), prop("b")), prop("c"))
    assert parse("a -> b -> c") == implies(prop("a"), implies(prop("b"), prop("c")))
    assert parse("!a & b") == and_(not_(prop("a")), prop("b"))


def test_parse_errors_carry_positions():
    with pytest.raises(errors.FormulaSyntaxError) as info:
        parse("a & ")
    assert info.value.position == 4
    with pytest.raises(errors.FormulaSyntaxError):
        parse("K{x} p")
    with pytest.raises(errors.FormulaSyntaxError):
        parse("(a | b")


@pytest.mark.parametrize(
    "text",
    [
        "false",
        "true",
        "a",
        "#1",
        "!a",
        "a & b & c",
        "a | (b & c)",
        "K{0} (a -> b)",
        "<K{1}> !lp",
        "K{0} !stg1 & root",
        "a -> b",
    ],
)
def test_round_trip(text):
    f = parse(text)
    assert parse(to_text(f)) == f


def test_round_trip_random():
    import random

    from epiplan.suites import random_formula

    rng = random.Random(5)
    for _ in range(300):
        f = random_formula(rng, 3, 2)
        assert parse(to_text(f)) == f


def test_evaluate_on_initial_state():
    s = k1.initial_state()
    assert evaluate(s, parse("<K> empty"))
    assert evaluate(s, true_())
    assert evaluate(s, parse("K !0"))
    assert evaluate_at(s, "w_empty", prop("empty"))
    assert evaluate_at(s, "w_{0,a}", parse("0 & a"))
    with pytest.raises(errors.UnknownWorld):
        evaluate_at(s, "w_z", prop("empty"))


def test_unknown_agent():
    m = make_model(["w"], 1, [set()], {})
    s = EpistemicState(m, "w")
    with pytest.raises(errors.UnknownAgent):
        evaluate(s, know(3, prop("p")))


def test_unknown_agent_raises_where_the_walk_would_stop_before_it():
    # each formula's truth is settled before the walk reaches the missing agent
    s = EpistemicState(make_model(["w"], 1, [{("w", "w")}], {"w": {"p"}}), "w")
    for text in ("p | K{3} q", "!p & K{3} q", "p | <K{1}> p"):
        with pytest.raises(errors.UnknownAgent):
            evaluate(s, parse(text))
        with pytest.raises(errors.UnknownAgent):
            evaluate_at(s, "w", parse(text))


def test_formulas_of_any_depth_are_evaluated():
    # reflexive worlds, so the walk goes down every one of the 50 000 levels;
    # the chain of p holds at w only, and w is not world 0
    model = make_model(["v", "w"], 1, [{("v", "v"), ("w", "w")}], {"w": {"p"}})
    s = EpistemicState(model, "w")
    true_chain, false_chain = prop("p"), prop("q")
    for _ in range(50_000):
        true_chain, false_chain = know(0, true_chain), know(0, false_chain)
    for f, value in ((true_chain, True), (false_chain, False)):
        assert evaluate(s, f) is value
        assert evaluate_at(s, "w", f) is value
        assert evaluate_at(s, "v", f) is False


def test_json_round_trip():
    f = parse("K{1} (a -> !b) & <K{0}> #1")
    assert formula_from_json(formula_to_json(f)) == f


# --- hash-consing ----------------------------------------------------------

formulas = st.one_of(
    st.builds(random_formula, st.randoms(use_true_random=False),
              st.integers(0, 5), st.integers(0, 3)),
    st.sampled_from([false_(), true_(), diamond(2, false_())]),
)


def _rebuild(f, false, atom, neg, conjunction, box):
    """``f`` built again from its leaves, with fresh copies of the names."""
    if isinstance(f, FalseF):
        return false()
    if isinstance(f, Prop):
        return atom("".join(f.name))
    if isinstance(f, Not):
        return neg(_rebuild(f.sub, false, atom, neg, conjunction, box))
    if isinstance(f, And):
        return conjunction(_rebuild(f.left, false, atom, neg, conjunction, box),
                           _rebuild(f.right, false, atom, neg, conjunction, box))
    return box(f.agent, _rebuild(f.sub, false, atom, neg, conjunction, box))


def _reference_depth(f) -> int:
    if isinstance(f, Know):
        return 1 + _reference_depth(f.sub)
    if isinstance(f, Not):
        return _reference_depth(f.sub)
    if isinstance(f, And):
        return max(_reference_depth(f.left), _reference_depth(f.right))
    return 0


def _reference_max_agent(f) -> int:
    if isinstance(f, Know):
        return max(f.agent, _reference_max_agent(f.sub))
    if isinstance(f, Not):
        return _reference_max_agent(f.sub)
    if isinstance(f, And):
        return max(_reference_max_agent(f.left), _reference_max_agent(f.right))
    return -1


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_every_route_returns_the_interned_node(f):
    assert _rebuild(f, FalseF, Prop, Not, And, Know) is f
    assert _rebuild(f, false_, prop, not_, and_, know) is f
    assert parse(to_text(f)) is f
    assert formula_from_json(json.loads(json.dumps(formula_to_json(f)))) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_stored_depth_matches_reference(f):
    assert modal_depth(f) == f.depth == _reference_depth(f)


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_stored_max_agent_matches_reference(f):
    assert f.max_agent == _reference_max_agent(f)


def _children(f):
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, (Not, Know)):
        return (f.sub,)
    return ()


def _reference_subformulas(f, done=frozenset()):
    """Every node reached from ``f`` without entering a node in ``done``."""
    if f in done:
        return set()
    return {f}.union(*(_reference_subformulas(c, done) for c in _children(f)))


def _reference_propositions(f):
    if isinstance(f, Prop):
        return {f.name}
    return set().union(*map(_reference_propositions, _children(f)))


@settings(max_examples=200, deadline=None)
@given(formulas, st.data())
def test_subformulas_yields_each_node_once_after_its_children(f, data):
    every = sorted(_reference_subformulas(f), key=to_text)
    done = set(data.draw(st.lists(st.sampled_from(every))))
    given_done = frozenset(done)
    walked = []
    for g in subformulas(f, done):
        assert g not in done
        assert all(c in done for c in _children(g)), g
        done.add(g)
        walked.append(g)
    assert len(walked) == len(set(walked))
    assert set(walked) == _reference_subformulas(f, given_done)


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_propositions_matches_reference(f):
    assert propositions(f) == _reference_propositions(f)


def _reference_text(f, minimum=0):
    """The recursive printer: re-sugared duals, parentheses by precedence."""
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Know):
        return f"K{{{f.agent}}} {_reference_text(f.sub, 3)}"
    if isinstance(f, And):
        text = f"{_reference_text(f.left, 2)} & {_reference_text(f.right, 3)}"
        return f"({text})" if minimum > 2 else text
    sub = f.sub
    if isinstance(sub, FalseF):
        return "true"
    if isinstance(sub, Know) and isinstance(sub.sub, Not):
        return f"<K{{{sub.agent}}}> {_reference_text(sub.sub.sub, 3)}"
    if isinstance(sub, And) and isinstance(sub.left, Not) and isinstance(sub.right, Not):
        text = f"{_reference_text(sub.left.sub, 1)} | {_reference_text(sub.right.sub, 2)}"
        return f"({text})" if minimum > 1 else text
    return f"!{_reference_text(sub, 3)}"


def _reference_json(f):
    if isinstance(f, FalseF):
        return {"op": "false"}
    if isinstance(f, Prop):
        return {"op": "prop", "name": f.name}
    if isinstance(f, Not):
        return {"op": "not", "arg": _reference_json(f.sub)}
    if isinstance(f, And):
        return {"op": "and", "left": _reference_json(f.left), "right": _reference_json(f.right)}
    return {"op": "know", "agent": f.agent, "arg": _reference_json(f.sub)}


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_printers_match_recursive_references(f):
    assert to_text(f) == _reference_text(f)
    assert repr(f) == f"<{_reference_text(f)}>"
    doc = formula_to_json(f)
    assert doc == _reference_json(f)
    assert json.dumps(doc) == json.dumps(_reference_json(f))


@contextlib.contextmanager
def _recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_printers_take_formulas_of_any_depth():
    # every printed shape, cycled 1 000 times: far past the recursion limit
    wraps = (not_, lambda g: know(0, g), lambda g: and_(g, prop("q")),
             lambda g: or_(prop("r"), g), lambda g: diamond(1, g))
    chain = prop("p")
    for i in range(5000):
        chain = wraps[i % len(wraps)](chain)
    text, doc = to_text(chain), formula_to_json(chain)
    assert repr(chain) == f"<{text}>"
    with _recursion_limit(20_000):
        assert text == _reference_text(chain)
        assert doc == _reference_json(chain)


def test_negative_agents_are_rejected_at_construction():
    for build in (lambda: Know(-1, prop("p")), lambda: know(-1, prop("p")),
                  lambda: formula_from_json({"op": "know", "agent": -2,
                                             "arg": {"op": "false"}})):
        with pytest.raises(ValueError, match="non-negative"):
            build()


def test_nodes_reject_attribute_changes():
    p = prop("p")
    nodes = [false_(), p, not_(p), and_(p, p), know(1, p)]
    for node in nodes:
        names = [*type(node).__slots__, "depth", "max_agent", "_order", "_program", "_mask_program",
                 "extra"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(node, name, p)
            with pytest.raises(AttributeError):
                delattr(node, name)
    assert nodes[4].agent == 1 and nodes[4].sub is p and nodes[4].depth == 1
    assert nodes[4].max_agent == 1 and p.max_agent == -1


def test_bool_agent_interns_as_an_int():
    f = Know(True, prop("p"))
    assert f is know(1, prop("p"))
    assert type(f.agent) is int and parse(to_text(f)) is f


def test_unreferenced_nodes_leave_the_intern_table():
    f = know(1, and_(prop("gc_probe_a"), not_(prop("gc_probe_b"))))
    probe = weakref.ref(f)
    del f
    gc.collect()
    assert probe() is None
    assert (Prop, "gc_probe_a") not in formula_module._INTERN
    assert (Prop, "gc_probe_b") not in formula_module._INTERN
    g = know(1, and_(prop("gc_probe_a"), not_(prop("gc_probe_b"))))
    assert modal_depth(g) == 1 and parse(to_text(g)) is g


def test_the_cached_order_makes_no_reference_cycle():
    # the order a node keeps holds its proper subformulas only, so with the
    # collector off the node still dies with its last reference
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = make_model(["u", "v"], 1, [{("u", "v"), ("v", "v")}], {"v": {"order_probe_a"}})
        f = know(0, and_(prop("order_probe_a"), not_(prop("order_probe_b"))))
        assert extension_mask(model, f) == 0b11
        probe = weakref.ref(f)
        del model, f
        assert probe() is None
    finally:
        if enabled:
            gc.enable()


def test_a_compiled_node_dies_with_its_last_reference():
    # the program a node keeps holds closures over names, agents and slots,
    # never a node, so with the collector off the node still dies with its
    # last reference and leaves the intern table
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = make_model(["u", "v"], 2, [{("u", "v"), ("v", "v")}, {("u", "u")}],
                           {"v": {"program_probe_a"}})
        state = EpistemicState(model, "u")
        a, b = prop("program_probe_a"), prop("program_probe_b")
        nested = know(1, know(0, and_(not_(a), not_(b))))
        f = and_(and_(know(0, a), diamond(1, not_(b))), not_(nested))
        assert evaluate(state, f) is True
        assert f._program is not None
        probe = weakref.ref(f)
        del state, model, f, a, b, nested
        assert probe() is None
        assert (Prop, "program_probe_a") not in formula_module._INTERN
        assert (Prop, "program_probe_b") not in formula_module._INTERN
    finally:
        if enabled:
            gc.enable()


def test_a_conjunction_shared_in_its_own_chain_is_checked_once_per_node():
    # 2**400 conjuncts as a tree, 401 nodes as a DAG: the program walks each
    # node once, in its build and in its check
    model = make_model(["u", "v"], 1, [{("u", "v")}], {"u": {"p"}, "v": {"q"}})
    state = EpistemicState(model, "u")
    for atom, value in ((prop("p"), True), (know(0, prop("q")), True), (prop("q"), False)):
        f = atom
        for k in range(400):
            f = and_(f, not_(not_(f))) if k % 2 else and_(f, f)
        assert evaluate(state, f) is value
        assert evaluate_at(state, "v", f) is bool(extension_mask(model, f) >> 1 & 1)


def test_pickle_from_a_process_with_another_hash_seed():
    text = "K{1} (a -> !b) & <K{0}> #1 | c"
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(Path(epiplan.__file__).parents[1])}
    code = ("import pickle, sys; from epiplan.formula import parse; "
            f"sys.stdout.buffer.write(pickle.dumps((hash('a'), parse({text!r}))))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True, timeout=120).stdout
    their_hash, f = pickle.loads(out)
    assert their_hash != hash("a")  # string hashes really differ between the processes
    g = parse(text)
    assert f is g
    assert {f: "found"}[g] == "found"
    assert {g: "found"}[f] == "found"


class _CountingLock:
    """A stand-in for the intern lock that counts how often it is taken."""

    def __init__(self, lock):
        self.lock, self.taken = lock, 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_a_dead_entry_is_replaced_by_one_fresh_node(monkeypatch):
    table = formula_module._INTERN
    key = (Prop, "planted_probe")
    assert key not in table

    class Gone:
        pass

    gone = Gone()
    dead = formula_module._Entry(gone)
    dead.key = key
    del gone
    assert dead() is None
    real, made = formula_module._Entry, []

    def counting(*args):
        made.append(real(*args))
        return made[-1]

    lock = _CountingLock(formula_module._INTERN_LOCK)
    monkeypatch.setattr(formula_module, "_Entry", counting)
    monkeypatch.setattr(formula_module, "_INTERN_LOCK", lock)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # an absent key is added without the lock
        other = prop("unplanted_probe")
        assert lock.taken == 0 and len(made) == 1
        assert table[(Prop, "unplanted_probe")] is made[0] and made[0]() is other
        # a key holding a dead entry takes the locked fallback once
        table[key] = dead
        node = prop("planted_probe")
        assert lock.taken == 1 and len(made) == 2
        assert table[key] is made[1] and made[1]() is node
        assert node.name == "planted_probe" and node.depth == 0 and node.max_agent == -1
        assert prop("planted_probe") is node and len(made) == 2 and lock.taken == 1
    finally:
        if table.get(key) is dead:
            del table[key]
        if enabled:
            gc.enable()


def test_fresh_nodes_of_every_kind_start_with_empty_caches():
    table = formula_module._INTERN
    a = prop("fresh_cache_probe")
    nodes = [a, not_(a), and_(a, not_(a)), know(2, a)]
    # the live ``false`` is shared and may be compiled; take its entry out
    # for a moment to build a fresh one
    live = table.pop((FalseF,))
    try:
        fresh_false = FalseF()
    finally:
        table[(FalseF,)] = live
    assert fresh_false is not false_()
    for node in [fresh_false, *nodes]:
        assert (node._order, node._program, node._mask_program) == (None, None, None), node
    assert [n.depth for n in nodes] == [0, 0, 0, 1]
    assert [n.max_agent for n in nodes] == [-1, -1, -1, 2]


def test_threads_racing_to_build_a_formula_get_one_object():
    threads, results = 4, []
    barrier = threading.Barrier(threads, timeout=60)

    def build():
        barrier.wait()
        results.append(conj(*(
            know(j % 2, or_(prop(f"race_{j}"), not_(prop(f"race_{j + 1}"))))
            for j in range(300)
        )))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == threads
    assert all(r is results[0] for r in results)
