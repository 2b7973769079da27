"""The benchmark tracer wraps engine functions by name; every name must resolve,
and every layer of the search loop must be reached through a traced name."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _tracer_module()
    missing = [(module, attr) for module, attr, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracer.TARGETS and not missing, missing


def test_traced_searches_reach_every_search_layer():
    # a search loop that stops calling a traced name would leave its layer's
    # spans empty; searches are called through module attributes, as the
    # benchmark's workloads call them, so the wrappers see them
    from epiplan import planner, reduction
    from epiplan.formula import parse
    from epiplan.pcp import make_instance

    tracer_module = _tracer_module()
    inst = make_instance([("1", "101"), ("10", "00"), ("011", "11")])
    searches = [
        lambda variant=variant: planner.bfs_plan(reduction.reduce_instance(inst, variant),
                                                 planner.SearchBudget(max_depth=4, max_nodes=60))
        for variant in reduction.Variant
    ]
    sat = parse("(a | b | c) & (!a | !b) & (!b | !c)")
    searches.append(lambda: planner.s5_single_agent_plan(reduction.sat_to_ep(sat)))
    layers = (tracer_module.SEARCH, tracer_module.APPLICABLE, tracer_module.UPDATE,
              tracer_module.MINIMIZE, tracer_module.EVALUATE)
    for search in searches:
        untraced = search().to_json()
        tracer = tracer_module.Tracer()
        with tracer.installed():
            traced = search().to_json()
        assert traced == untraced
        spans = Counter(tracer.names[i] for i in tracer.name)
        assert spans[tracer_module.SEARCH] == 1, spans
        assert all(spans[layer] > 0 for layer in layers), spans
