"""Command line front end.

Exit codes: 0 success / true / plan found; 1 false / exhausted without a
plan; 2 search bound reached (the undecidable cases must never report
"bound hit" as "no plan"); 3 input or usage error.  Results go to stdout
as canonical JSON (sorted keys, LF line endings); --verbose adds a human
trace on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import suites
from .action import FailureAt, action_from_json, apply_plan, applicable, product_update
from .bisim import bisimilar, minimize_with_key
from .errors import EngineError, MalformedDocument
from .formula import evaluate, evaluate_at, parse
from .kripke import state_from_json, state_to_json
from .pcp import instance_from_json, matched_word
from .planner import (
    PlanFound,
    SearchBudget,
    bfs_plan,
    s5_single_agent_plan,
    verify_plan,
)
from .problem import problem_from_json, problem_to_json
from .reduction import (
    Variant,
    plan_match_prefix,
    reduce_instance,
    sat_to_ep,
)


def _emit(doc: Any) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _trace(args, message: str) -> None:
    if args.verbose:
        sys.stderr.write(message + "\n")


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise MalformedDocument(f"{path}: JSON is nested too deeply") from None


def _parse_plan(text: str) -> list[str]:
    return [step for step in text.split(",") if step]


def _budget(args) -> SearchBudget:
    return SearchBudget(max_depth=args.max_depth, max_nodes=args.max_nodes,
                        paranoid_bisim_check=args.paranoid)


def cmd_check(args) -> int:
    state = state_from_json(_load(args.state))
    formula = parse(args.formula)
    if args.world is not None:
        result = evaluate_at(state, args.world, formula)
    else:
        result = evaluate(state, formula)
    _emit({"result": result})
    return 0 if result else 1


def _keyed(state, minimize: bool) -> dict[str, Any]:
    """The state's JSON (its minimized form under ``minimize``) with its canonical key."""
    small, key = minimize_with_key(state)
    doc = state_to_json(small if minimize else state)
    doc["key"] = key.hex()
    return doc


def cmd_update(args) -> int:
    state = state_from_json(_load(args.state))
    action = action_from_json(_load(args.action))
    if not applicable(state, action):
        _emit({"applicable": False})
        return 1
    _emit(_keyed(product_update(state, action), args.minimize))
    return 0


def cmd_apply(args) -> int:
    problem = problem_from_json(_load(args.problem))
    state = state_from_json(_load(args.state)) if args.state else problem.initial
    plan = _parse_plan(args.plan)
    result = apply_plan(state, problem.actions, plan)
    if isinstance(result, FailureAt):
        _emit({"failure_at": result.index, "action": result.action})
        return 1
    _emit(_keyed(result, args.minimize))
    return 0


def cmd_bisim(args) -> int:
    s1 = state_from_json(_load(args.state1))
    s2 = state_from_json(_load(args.state2))
    result = bisimilar(s1, s2)
    _emit({"bisimilar": result})
    return 0 if result else 1


def cmd_minimize(args) -> int:
    _emit(_keyed(state_from_json(_load(args.state)), True))
    return 0


def cmd_reduce(args) -> int:
    inst = instance_from_json(_load(args.pcp))
    problem = reduce_instance(inst, Variant(args.variant))
    _emit(problem_to_json(problem))
    return 0


def cmd_plan(args) -> int:
    problem = problem_from_json(_load(args.problem))
    outcome = bfs_plan(problem, _budget(args))
    _trace(args, f"search stats: {outcome.stats}")
    _emit(outcome.to_json())
    return outcome.exit_code


def cmd_verify(args) -> int:
    problem = problem_from_json(_load(args.problem))
    plan = _parse_plan(args.plan)
    result = verify_plan(problem, plan)
    _emit({"valid": result})
    return 0 if result else 1


def cmd_solve_pcp(args) -> int:
    inst = instance_from_json(_load(args.pcp))
    variant = Variant(args.variant)
    problem = reduce_instance(inst, variant)
    outcome = bfs_plan(problem, _budget(args))
    doc = outcome.to_json()
    if isinstance(outcome, PlanFound):
        match = plan_match_prefix(outcome.plan, variant)
        doc["match"] = list(match)
        doc["word"] = matched_word(inst, match)
    _emit(doc)
    return outcome.exit_code


def cmd_sat2ep(args) -> int:
    phi = parse(args.formula)
    problem = sat_to_ep(phi)
    if args.solve:
        outcome = s5_single_agent_plan(problem)
        _emit(outcome.to_json())
        return outcome.exit_code
    _emit(problem_to_json(problem))
    return 0


def cmd_verify_lemmas(args) -> int:
    if args.cases is not None and args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        runner, size_arg = suites.SUITES[name]
        kwargs = {"seed": args.seed}
        if args.cases is not None:
            kwargs[size_arg] = args.cases
        report = runner(**kwargs)
        reports.append(report)
        status = "ok" if report.ok else "FAILED"
        sys.stderr.write(
            f"{status:6s} {report.name} ({report.cases} checks, {report.seconds:.1f}s)\n"
        )
        for failure in report.failures[:10]:
            sys.stderr.write(f"       {failure}\n")
    _emit([r.to_json() for r in reports])
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiplan",
        description="Epistemic-state model checking, product update, and plan search.",
    )
    parser.add_argument("--verbose", action="store_true", help="trace to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="model-check a formula on a state")
    p.add_argument("--state", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world", help="evaluate at this world instead of the designated one")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("update", help="apply one action to a state")
    p.add_argument("--state", required=True)
    p.add_argument("--action", required=True)
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser("apply", help="apply a plan from a problem's action set")
    p.add_argument("--problem", required=True)
    p.add_argument("--plan", required=True, help="comma-separated action names")
    p.add_argument("--state", help="start here instead of the problem's initial state")
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("bisim", help="compare two states up to bisimilarity")
    p.add_argument("--state1", required=True)
    p.add_argument("--state2", required=True)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("minimize", help="quotient a state by bisimulation")
    p.add_argument("--state", required=True)
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("reduce", help="compile a correspondence instance to a problem")
    p.add_argument("--pcp", required=True)
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    p.set_defaults(fn=cmd_reduce)

    def add_budget(p):
        p.add_argument("--max-depth", type=int, default=20)
        p.add_argument("--max-nodes", type=int, default=100000)
        p.add_argument("--paranoid", action="store_true")

    p = sub.add_parser("plan", help="bounded breadth-first plan search")
    p.add_argument("--problem", required=True)
    add_budget(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("verify", help="check a plan against a problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--plan", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve-pcp", help="reduce, search, and recover the match")
    p.add_argument("--pcp", required=True)
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    add_budget(p)
    p.set_defaults(fn=cmd_solve_pcp)

    p = sub.add_parser("sat2ep", help="compile a propositional formula to a problem")
    p.add_argument("--formula", required=True)
    p.add_argument("--solve", action="store_true", help="run the complete S5 search")
    p.set_defaults(fn=cmd_sat2ep)

    p = sub.add_parser("verify-lemmas", help="run a randomized invariant suite")
    p.add_argument("--suite", default="all", choices=["all", *sorted(suites.SUITES)])
    p.add_argument("--seed", type=int, default=suites.DEFAULT_SEED)
    p.add_argument("--cases", type=int, default=None, help="override the suite size")
    p.set_defaults(fn=cmd_verify_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (EngineError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
