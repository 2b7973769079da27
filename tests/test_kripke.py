import pytest

from epiplan import errors
from epiplan.formula import evaluate
from epiplan.kripke import (
    EpistemicState,
    generated_part,
    generated_submodel,
    make_model,
    model_from_json,
    model_to_json,
    restrict,
    state_from_json,
    state_to_json,
)
from epiplan.reduction import k1


def test_empty_model_is_legal():
    m = make_model([], 1, [set()], {})
    assert m.worlds == ()


def test_models_are_equal_by_worlds_rows_and_valuations():
    def build(agents, relations, valuation=None):
        return make_model(["w", "v"], agents, relations, valuation or {})

    m = build(1, [{("w", "v")}])
    assert m == build(1, [{("w", "v")}]) and hash(m) == hash(build(1, [{("w", "v")}]))
    assert m.agents == 1 and build(0, []).agents == 0
    for other in (build(1, [{("v", "w")}]), build(2, [{("w", "v")}, set()]), build(0, []),
                  build(1, [{("w", "v")}], {"w": ["p"]})):
        assert m != other


def test_initial_state_has_twelve_worlds():
    s = k1.initial_state()
    assert len(s.model.worlds) == 12
    assert s.designated == "w_root"


def test_validation_errors():
    with pytest.raises(errors.DanglingWorldRef):
        make_model(["w1"], 1, [{("w1", "w_z")}], {})
    with pytest.raises(errors.DuplicateWorld):
        make_model(["w1", "w1"], 1, [set()], {})
    with pytest.raises(errors.DanglingWorldRef):
        make_model(["w1"], 1, [set()], {"w_z": ["p"]})
    with pytest.raises(errors.UnknownWorld):
        EpistemicState(make_model(["w1"], 1, [set()], {}), "w2")


def test_valuation_total_with_empty_default():
    m = make_model(["w1", "w2"], 1, [set()], {"w1": ["p"]})
    assert m.valuations[m.index_of("w2")] == frozenset()


def test_restrict():
    m = k1.initial_state().model
    assert restrict(m, m.worlds) == m
    assert restrict(m, []).worlds == ()
    small = restrict(m, ["w_root", "w_a", "w_ntF"])
    assert small.worlds == ("w_root", "w_a", "w_ntF")
    assert ("w_a", "w_ntF") in small.relations[0]
    assert ("w_root", "w_b") not in small.relations[0]
    with pytest.raises(errors.DanglingWorldRef):
        restrict(m, ["w_z"])


def test_generated_submodel():
    m = make_model(
        ["w1", "w2", "iso"],
        1,
        [{("w1", "w2")}],
        {"iso": ["p"]},
    )
    g = generated_submodel(EpistemicState(m, "w1"))
    assert g.model.worlds == ("w1", "w2")
    assert generated_submodel(g) == g
    # the initial state is already generated
    s = k1.initial_state()
    assert generated_submodel(s) == s


def test_generated_part_stops_once_every_world_is_seen():
    def part(model, start):
        return generated_part(EpistemicState.at(model, start))

    # a chain: the walk finds the last world on the last edge it reads
    chain = make_model(["a", "b", "c", "d"], 1, [{("a", "b"), ("b", "c"), ("c", "d")}],
                       {"c": ["p"]})
    kept, vals, rows, start = part(chain, 0)
    assert kept == range(4) and vals is chain.valuations and rows is chain.rows and start == 0
    # the last world is found under the second agent, from the last world popped
    two = make_model(["a", "b", "c"], 2, [{("a", "b"), ("b", "a")}, {("b", "c")}], {})
    kept, vals, rows, start = part(two, 0)
    assert kept == range(3) and vals is two.valuations and rows is two.rows and start == 0
    # one world, no edge
    alone = make_model(["a"], 1, [set()], {})
    kept, vals, rows, start = part(alone, 0)
    assert kept == range(1) and vals is alone.valuations and rows is alone.rows and start == 0
    # a partial walk keeps its induced rows
    kept, vals, rows, start = part(chain, 2)
    assert list(kept) == [2, 3] and rows == (((1,), ()),)
    assert vals == (frozenset({"p"}), frozenset()) and start == 0
    kept, vals, rows, start = part(two, 1)
    assert list(kept) == [0, 1, 2] and rows is two.rows and start == 1
    side = make_model(["a", "b", "c", "d"], 2, [{("a", "c"), ("c", "c")}, {("c", "a"), ("b", "d")}], {})
    kept, vals, rows, start = part(side, 2)
    assert list(kept) == [0, 2] and rows == (((1,), (1,)), ((), (0,))) and start == 1


def test_generated_submodel_preserves_evaluation():
    import random

    from epiplan.suites import random_formula, random_state

    rng = random.Random(3)
    for _ in range(200):
        s = random_state(rng)
        g = generated_submodel(s)
        f = random_formula(rng, 3, s.model.agents)
        assert evaluate(s, f) == evaluate(g, f)


def test_restrict_nesting():
    import random

    from epiplan.suites import random_model

    rng = random.Random(4)
    for _ in range(100):
        m = random_model(rng)
        worlds = list(m.worlds)
        keep1 = {w for w in worlds if rng.random() < 0.7}
        keep2 = {w for w in worlds if rng.random() < 0.7}
        both = keep1 & keep2
        assert restrict(m, both) == restrict(restrict(m, keep1), both)


def test_json_round_trip_is_fixpoint():
    s = k1.initial_state()
    doc = state_to_json(s)
    again = state_to_json(state_from_json(doc))
    assert again == doc
    mdoc = model_to_json(s.model)
    assert model_to_json(model_from_json(mdoc)) == mdoc
