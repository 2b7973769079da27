"""The benchmark's committed counts pin search behaviour: the first ops of each
workload at the default seed must give the counts in ``bench/counts.json``.

The same run pins the whole outcome of every counted search op: one SHA-256
over the sorted-key ``to_json()`` of the ``pcp-search`` and ``sat-s5`` ops, in
op order.  The counts leave out the plan, ``final_key``, ``memo_hits``,
``depth`` and ``stop_reason``; the digest covers them, so a change to any of
them, intended or not, fails here.  Every plan found is replayed with
``verify_plan``."""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the 52 pcp-search and 30 sat-s5 ops of bench/counts.py at its default seed
SEARCH_OPS = 82
OUTCOME_DIGEST = "023af9cee5015d3284b96a8f2d88ce3492aa857f79e5499501757d35b45c1f50"


def test_deterministic_counts_match_the_committed_counts(monkeypatch):
    # counts.py imports the workloads from its own directory and puts src/ on
    # the path; this test imports them first, so it puts both there too, and
    # every path change is undone after the test
    monkeypatch.setattr(sys, "path", [str(BENCH), str(BENCH.parent / "src"), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_counts", BENCH / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    import workloads
    from epiplan import planner

    # every result counts.py counts, in op order, taken as it is counted
    results = []
    count = workloads.counts

    def counted(res):
        results.append(res)
        return count(res)

    monkeypatch.setattr(workloads, "counts", counted)
    assert counts.render(counts.deterministic_counts()) == counts.COUNTS_FILE.read_text()
    searches = [res for res in results
                if isinstance(getattr(res, "outcome", None), planner.SearchOutcome)]
    assert len(searches) == SEARCH_OPS
    for res in searches:
        if isinstance(res.outcome, planner.PlanFound):
            assert planner.verify_plan(res.problem, res.outcome.plan), res.outcome.plan
    doc = json.dumps([res.outcome.to_json() for res in searches], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == OUTCOME_DIGEST
