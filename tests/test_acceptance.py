"""Acceptance criteria, one test per criterion.

Each test runs the corresponding randomized suite at its stated size,
prints a single pass/fail line (run pytest with -s to see them live),
and enforces the stated runtime budget.
"""
import pytest

from epiplan import suites
from epiplan.reduction import Variant


def _criterion(number: int, label: str, report, limit_seconds: float) -> None:
    status = "PASS" if report.ok and report.seconds < limit_seconds else "FAIL"
    print(
        f"{status} criterion {number}: {label} "
        f"({report.cases} checks, {report.seconds:.1f}s / limit {limit_seconds:.0f}s)"
    )
    for failure in report.failures[:10]:
        print(f"     {failure}")
    assert report.ok, f"criterion {number} failed: {report.failures[:5]}"
    assert report.seconds < limit_seconds, (
        f"criterion {number} exceeded its runtime budget: {report.seconds:.1f}s"
    )


def test_criterion_1_k1_lemma_suite():
    report = suites.run_k1_lemmas(pairs=200)
    _criterion(1, "single-agent K lemma suite", report, 60)


def test_criterion_2_multi_lemma_suite():
    report = suites.run_multi_lemmas(pairs=200)
    _criterion(2, "two-agent S5 lemma suite with frame validation", report, 60)


def test_criterion_3_ktb_and_s4_lemma_suites():
    ktb = suites.run_ktb_lemmas(pairs=100)
    _criterion(3, "reflexive-symmetric lemma suite", ktb, 60)
    s4 = suites.run_s4_lemmas(pairs=100)
    _criterion(3, "reflexive-transitive lemma suite", s4, 60)


def test_criterion_4_theorem_correspondence():
    report = suites.run_theorem_k1(instances=20)
    _criterion(4, "match existence agrees with bounded plan search", report, 300)


def test_criterion_5_failure_absorption():
    report = suites.run_failure_absorption(cases=100, variant=Variant.K1)
    _criterion(5, "wrong removals flag failure and stay failed", report, 60)


def test_criterion_6_plan_shape():
    report = suites.run_plan_shape(walks=500)
    _criterion(6, "random walks keep the two-phase plan form", report, 60)


def test_criterion_7_engine_properties():
    report = suites.run_engine_properties(rounds=1600)
    assert report.cases >= 10000, "engine property suite must exceed 10000 checks"
    _criterion(7, "bisimulation/frame/key engine properties", report, 120)


def test_criterion_8_s5_decidability():
    report = suites.run_sat_agreement(formulas=200)
    _criterion(8, "complete S5 search agrees with truth tables", report, 60)
