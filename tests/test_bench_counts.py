"""The benchmark's committed counts pin search behaviour: the first ops of each
workload at the default seed must give the counts in ``bench/counts.json``."""
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_deterministic_counts_match_the_committed_counts(monkeypatch):
    # counts.py imports the workloads from its own directory and puts src/ on
    # the path; both path changes are undone after the test
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_counts", BENCH / "counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    assert counts.render(counts.deterministic_counts()) == counts.COUNTS_FILE.read_text()
