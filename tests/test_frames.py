import random

from epiplan.frames import (
    PROFILES,
    FrameCondition,
    closure,
    custom_profile,
    profile,
    profile_from_json,
    profile_to_json,
    satisfies,
)
from epiplan.kripke import make_model
from epiplan.suites import random_model

R, T, S, E = (
    FrameCondition.REFLEXIVE,
    FrameCondition.TRANSITIVE,
    FrameCondition.SYMMETRIC,
    FrameCondition.EUCLIDEAN,
)


def test_presets():
    assert profile("K").conditions == frozenset()
    assert profile("KT").conditions == {R}
    assert profile("KTB").conditions == {R, S}
    assert profile("S4").conditions == {R, T}
    assert profile("S5").conditions == {R, S, T}


def test_profile_json():
    assert profile_to_json(profile("S5")) == "S5"
    p = custom_profile([E])
    assert profile_from_json(profile_to_json(p)).conditions == {E}


def test_identity_relation_satisfies_everything():
    worlds = ["w0", "w1"]
    m = make_model(worlds, 1, [{(w, w) for w in worlds}], {})
    assert satisfies(m, [R, T, S, E])


def test_symmetry_violation():
    m = make_model(["a", "b"], 1, [{("a", "b")}], {})
    assert not satisfies(m, [S])
    assert satisfies(closure(m, [S]), [S])


def test_transitive_chain_gains_shortcut():
    m = make_model(["a", "b", "c"], 1, [{("a", "b"), ("b", "c")}], {})
    closed = closure(m, [T])
    assert ("a", "c") in closed.relations[0]


def test_euclidean_closure():
    m = make_model(["a", "b", "c"], 1, [{("a", "b"), ("a", "c")}], {})
    rel = closure(m, [E]).relations[0]
    assert ("b", "c") in rel and ("c", "b") in rel and ("b", "b") in rel


def test_multi_initial_state_is_equivalence():
    from epiplan.reduction import multi

    assert satisfies(multi.initial_state().model, PROFILES["S5"])


def test_closure_properties_randomized():
    rng = random.Random(21)
    for _ in range(150):
        conds = {c for c in FrameCondition if rng.random() < 0.5}
        m = random_model(rng, max_worlds=5)
        closed = closure(m, conds)
        assert satisfies(closed, conds)
        assert closure(closed, conds).relations == closed.relations
        assert all(a <= b for a, b in zip(m.relations, closed.relations))


def test_closure_monotone():
    rng = random.Random(23)
    for _ in range(60):
        conds = {c for c in FrameCondition if rng.random() < 0.5}
        big = random_model(rng, max_worlds=5)
        small_rels = [
            {p for p in rel if rng.random() < 0.6} for rel in big.relations
        ]
        valuation = dict(zip(big.worlds, big.valuations))
        small = make_model(big.worlds, big.agents, small_rels, valuation)
        c_small, c_big = closure(small, conds), closure(big, conds)
        assert all(a <= b for a, b in zip(c_small.relations, c_big.relations))


def test_joint_fixpoint_of_interacting_closures():
    rng = random.Random(22)
    for _ in range(80):
        m = random_model(rng, max_worlds=5)
        joint = closure(m, [S, T])
        # alternating the single-condition closures reaches the same fixpoint
        alt = m
        for _ in range(8):
            alt = closure(closure(alt, [S]), [T])
        assert joint.relations == alt.relations
