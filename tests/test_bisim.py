import random

import pytest

from epiplan import errors
from epiplan.bisim import (
    bisimilar,
    canonical_key,
    minimize_with_key,
    quotient,
)
from epiplan.formula import evaluate
from epiplan.kripke import EpistemicState, generated_submodel, make_model
from epiplan.reduction import k1
from epiplan.suites import mutate_bisimilar, random_formula, random_state


def _pointed(model):
    return [EpistemicState(model, w) for w in model.worlds]


def test_total_uniform_model_collapses():
    worlds = ["w0", "w1", "w2"]
    total = {(u, v) for u in worlds for v in worlds}
    m = make_model(worlds, 1, [total], {w: ["p"] for w in worlds})
    assert len({canonical_key(s) for s in _pointed(m)}) == 1
    q = quotient(EpistemicState(m, "w0"))
    assert len(q.model.worlds) == 1


def test_discrete_model_stays_discrete():
    m = make_model(["w0", "w1"], 1, [set()], {"w0": ["p"], "w1": ["q"]})
    assert not bisimilar(*_pointed(m))
    linked = make_model(["w0", "w1"], 1, [{("w0", "w1")}], {"w0": ["p"], "w1": ["q"]})
    assert quotient(EpistemicState(linked, "w0")).model == linked


def test_branch_worlds_split_by_valuation():
    s = k1.family("", "", "plain")
    assert not bisimilar(EpistemicState(s.model, "w_a"), EpistemicState(s.model, "w_b"))
    assert len(quotient(s).model.worlds) == 4
    assert len({canonical_key(p) for p in _pointed(s.model)}) == 4


def test_quotient_of_initial_state_keeps_all_worlds():
    q = quotient(k1.initial_state())
    assert len(q.model.worlds) == 12


def test_quotient_merges_duplicates():
    m = make_model(
        ["w0", "d1", "d2", "t"],
        1,
        [{("w0", "d1"), ("w0", "d2"), ("d1", "t"), ("d2", "t")}],
        {"d1": ["p"], "d2": ["p"]},
    )
    q = quotient(EpistemicState(m, "w0"))
    assert len(q.model.worlds) == 3


def test_quotient_idempotent_and_bisimilar():
    rng = random.Random(9)
    for _ in range(100):
        s = random_state(rng)
        q = quotient(s)
        assert bisimilar(q, s)
        q2 = quotient(q)
        assert q2.model == q.model and q2.designated == q.designated


def test_bisimilar_examples():
    s = k1.initial_state()
    assert bisimilar(s, s)
    assert not bisimilar(s, k1.family("", "", "loop"))
    with pytest.raises(errors.AgentMismatch):
        from epiplan.reduction import multi

        bisimilar(s, multi.initial_state())


def test_key_matches_quotient_and_separates():
    s = k1.family("10", "0", "loop")
    assert canonical_key(s) == canonical_key(quotient(s))
    assert canonical_key(s) != canonical_key(k1.family("10", "1", "loop"))
    assert canonical_key(k1.initial_state()) != canonical_key(k1.family("", "", "loop"))


def test_key_equality_iff_bisimilar_randomized():
    rng = random.Random(12)
    for _ in range(400):
        s1 = random_state(rng)
        s2 = mutate_bisimilar(rng, s1) if rng.random() < 0.5 else random_state(rng)
        assert (canonical_key(s1) == canonical_key(s2)) == bisimilar(s1, s2)


def test_modal_invariance_of_bisimilar_states():
    rng = random.Random(13)
    for _ in range(200):
        s1 = random_state(rng)
        s2 = mutate_bisimilar(rng, s1)
        f = random_formula(rng, 3, s1.model.agents)
        assert evaluate(s1, f) == evaluate(s2, f)


def test_refinement_fixpoint_is_stable():
    rng = random.Random(14)
    for _ in range(100):
        s = random_state(rng)
        q = quotient(s)
        m, qm = s.model, q.model
        # each block is named by a quotient world; keys name the blocks
        block = {canonical_key(p): p.designated for p in _pointed(qm)}
        assert len(block) == len(qm.worlds)
        reachable = generated_submodel(s).model.worlds
        of = {w: block[canonical_key(EpistemicState(m, w))] for w in reachable}
        assert of[s.designated] == q.designated
        # one more refinement round: every world of a block has the block's
        # valuation and, per agent, exactly the block's successor blocks
        rel, qrel = m.relations, qm.relations
        for w, b in of.items():
            assert m.valuations[m.index_of(w)] == qm.valuations[qm.index_of(b)]
            for a in range(m.agents):
                assert {of[v] for u, v in rel[a] if u == w} == {v for u, v in qrel[a] if u == b}


def test_minimize_with_key_consistency():
    rng = random.Random(15)
    for _ in range(100):
        s = random_state(rng)
        q, key = minimize_with_key(s)
        assert key == canonical_key(s)
        assert bisimilar(q, s)


def test_the_certificate_rejects_a_too_coarse_map_and_accepts_the_true_one():
    from epiplan.bisim import _canonical_refine, _certify

    # each map merges two worlds that one condition alone tells apart: their
    # valuations, or their successor blocks under agent 1 (agent 0 has no
    # edges), one way round or the other
    cases = [
        (make_model(["w0", "w1", "w2"], 1, [set()], {"w1": ["p"]}), [0, 0, 1], "valuation"),
        (make_model(["u0", "u1", "t"], 2, [set(), {("u0", "t"), ("t", "u1")}], {"t": ["q"]}),
         [0, 0, 1], "agent 1, world 1"),
        (make_model(["u0", "t", "u1"], 2, [set(), {("u1", "t")}], {"t": ["q"]}),
         [0, 1, 0], "agent 1, world 2"),
    ]
    for model, coarse, condition in cases:
        vals, rows = model.valuations, model.rows
        rep = [coarse.index(b) for b in range(max(coarse) + 1)]
        with pytest.raises(AssertionError, match=f"^quotient certificate: .*{condition}"):
            _certify(vals, rows, coarse, rep)
        block, count = _canonical_refine(vals, rows)
        _certify(vals, rows, block, [block.index(b) for b in range(count)])
