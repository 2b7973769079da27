"""Randomized verification suites.

Each suite draws its cases from a seeded RNG, exercises one family of
engine or compiler invariants, and returns a SuiteReport.  The command
line front end (verify-lemmas) and the acceptance tests both run these,
so a green suite here is exactly what the acceptance criteria measure.

The four lemma suites, ``run_k1_lemmas``, ``run_multi_lemmas``,
``run_ktb_lemmas`` and ``run_s4_lemmas``, are one schema run per variant
from ``_LEMMA_SUITES``: K1 and MultiS5 check 200 pairs of words of up to
6 symbols by default, KTB1 and S4_1 100 pairs of up to 4 symbols.  Each
takes ``seed`` and ``pairs``; the word length is fixed per variant.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .action import EventModel, applicable, make_action, product_update
from .bisim import bisimilar, canonical_key, quotient
from .formula import (
    And,
    FalseF,
    Formula,
    Not,
    Prop,
    and_,
    evaluate,
    know,
    not_,
    or_,
    prop,
    propositions,
)
from .frames import PROFILES, FrameCondition, closure, satisfies
from .kripke import EpistemicState, KripkeModel, make_model
from .pcp import PcpInstance, brute_force_match, make_instance
from .planner import PlanFound, SearchBudget, bfs_plan, s5_single_agent_plan, verify_plan
from .reduction import (
    Variant,
    match_to_plan,
    module,
    reduce_instance,
    sat_to_ep,
)

DEFAULT_SEED = 20240 + 817


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.cases += 1
        if not condition:
            self.failures.append(message)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "ok": self.ok,
            "cases": self.cases,
            "failures": self.failures[:20],
            "seconds": round(self.seconds, 3),
        }


def _timed(fn: Callable[[SuiteReport, random.Random], None], name: str, seed: int) -> SuiteReport:
    report = SuiteReport(name)
    rng = random.Random(seed)
    start = time.time()
    fn(report, rng)
    report.seconds = time.time() - start
    return report


# Random instances have 1 to _INSTANCE_BLOCKS blocks, each word at most
# _INSTANCE_WORD symbols long.
_INSTANCE_BLOCKS = 3
_INSTANCE_WORD = 3


def _random_instance(rng: random.Random) -> PcpInstance:
    blocks = [(_random_word(rng, _INSTANCE_WORD), _random_word(rng, _INSTANCE_WORD))
              for _ in range(rng.randint(1, _INSTANCE_BLOCKS))]
    return make_instance(blocks)


def _random_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


# --- state-transformation lemma schemas -----------------------------------


# Per variant: the suite's name, its default number of pairs and the
# longest word a pair's chains start from.
_LEMMA_SUITES = {
    Variant.K1: ("k1_lemmas", 200, 6),
    Variant.MULTI_S5: ("multi_lemmas", 200, 6),
    Variant.KTB1: ("ktb_lemmas", 100, 4),
    Variant.S4_1: ("s4_lemmas", 100, 4),
}


def _lemma_schema(report: SuiteReport, rng: random.Random, variant: Variant,
                  pairs: int) -> None:
    mod = module(variant)
    max_word = _LEMMA_SUITES[variant][2]
    profile_conds = PROFILES[mod.PROFILE_NAME]
    initial = mod.initial_state()
    separators = list(reversed(mod.REMOVAL_ALPHABET[2:]))

    def validate(state, label):
        if profile_conds:
            report.check(
                satisfies(state.model, profile_conds),
                f"{variant.value}: {label} violates the frame conditions",
            )

    for trial in range(pairs):
        inst = _random_instance(rng)
        qa, qb = _random_word(rng, max_word), _random_word(rng, max_word)
        loop = mod.family(qa, qb, "loop")
        validate(loop, f"loop({qa},{qb})")
        # adding a block extends both chains
        for i, (wa, wb) in enumerate(inst.blocks, start=1):
            action = mod.add_block(i, (wa, wb))
            grown = product_update(loop, action)
            target = (
                mod.family(wa + qa, wb + qb, "loop")
                if mod.PREPENDS_BLOCKS
                else mod.family(qa + wa, qb + wb, "loop")
            )
            report.check(
                bisimilar(grown, target),
                f"{variant.value}: adding block {i} to ({qa},{qb}) missed its target",
            )
            validate(grown, f"loop({qa},{qb}) x ad_{i}")
        # the first block behaves the same from the initial state
        i = rng.randrange(inst.size) + 1
        wa, wb = inst.blocks[i - 1]
        action = mod.add_block(i, (wa, wb))
        report.check(
            bisimilar(product_update(initial, action), mod.family(wa, wb, "loop")),
            f"{variant.value}: first block {i} from the initial state missed its target",
        )
        # stage transition drops the loop machinery
        nx = mod.next_stage()
        if not applicable(loop, nx):
            report.check(False, f"{variant.value}: stage transition inapplicable on ({qa},{qb})")
        else:
            switched = product_update(loop, nx)
            validate(switched, f"loop({qa},{qb}) x next_stage")
            report.check(
                bisimilar(switched, mod.family(qa, qb, "plain")),
                f"{variant.value}: stage transition on ({qa},{qb}) missed its target",
            )
        # successful removal phases strip one trailing bit
        if qa and qb:
            bt = rng.choice("01")
            state = mod.family(qa + bt, qb + bt, "plain")
            validate(state, f"plain({qa + bt},{qb + bt})")
            # the chain ends lose their separators, last first, then the bit
            phases = [(s, mod.family(qa + bt, qb + bt, "minus_hash" + s[1:])) for s in separators]
            phases.append((bt, mod.family(qa, qb, "plain")))
            for symbol, target in phases:
                name = f"remove_{symbol}"
                action = mod.remove_symbol(symbol)
                if not applicable(state, action):
                    report.check(False, f"{variant.value}: {name} inapplicable on a clean state")
                    break
                state = product_update(state, action)
                validate(state, f"after {name}")
                report.check(
                    bisimilar(state, target),
                    f"{variant.value}: {name} on ({qa + bt},{qb + bt}) missed its target",
                )
                state = target


def _lemma_runner(variant: Variant) -> Callable[..., SuiteReport]:
    """The runner of ``variant``'s lemma suite: ``run(seed=DEFAULT_SEED, pairs=<default>)``."""
    name, default_pairs, _ = _LEMMA_SUITES[variant]

    def run(seed: int = DEFAULT_SEED, pairs: int = default_pairs) -> SuiteReport:
        return _timed(lambda r, g: _lemma_schema(r, g, variant, pairs), name, seed)

    return run


run_k1_lemmas = _lemma_runner(Variant.K1)
run_multi_lemmas = _lemma_runner(Variant.MULTI_S5)
run_ktb_lemmas = _lemma_runner(Variant.KTB1)
run_s4_lemmas = _lemma_runner(Variant.S4_1)


# --- failure absorption ----------------------------------------------------


def _failure_absorption(report: SuiteReport, rng: random.Random, variant: Variant,
                        cases: int) -> None:
    mod = module(variant)
    alphabet = mod.REMOVAL_ALPHABET
    inst = make_instance([("0", "0"), ("1", "1")])
    actions = mod.build_actions(inst)
    goal = mod.goal
    for trial in range(cases):
        qa = _random_word(rng, 3)
        qb = _random_word(rng, 3)
        if mod.REMOVALS_NEED_BOTH_ROWS:
            # a removal on a single-sided chain is then inapplicable, which
            # is a dead end rather than a failed state; keep both sides busy
            qa = qa or rng.choice("01")
            qb = qb or rng.choice("01")
        state = mod.family(qa, qb, "plain")
        # pick a removal that is guaranteed wrong for this state: a bit
        # while a separator is pending or, without separators, a bit that
        # matches no tail.
        if len(alphabet) > 2:
            wrong = rng.choice(alphabet[:-1])
        elif not qa or not qb:
            wrong = rng.choice("01")
        elif qa[-1] != "1" or qb[-1] != "1":
            wrong = "1"
        else:
            wrong = "0"
        action = actions[f"remove_{wrong}"]
        if not applicable(state, action):
            report.check(False, f"{variant.value}: removal inapplicable on plain state")
            continue
        failed = product_update(state, action)
        report.check(
            mod.failed_state(failed),
            f"{variant.value}: wrong remove_{wrong} on ({qa},{qb}) not flagged as failed",
        )
        report.check(
            not evaluate(failed, goal),
            f"{variant.value}: goal true right after a failed removal on ({qa},{qb})",
        )
        current = failed
        for _ in range(3):
            options = [
                d for d in alphabet if applicable(current, actions[f"remove_{d}"])
            ]
            if not options:
                break
            current = product_update(current, actions[f"remove_{rng.choice(options)}"])
            current = quotient(current)
            report.check(
                mod.failed_state(current) and not evaluate(current, goal),
                f"{variant.value}: failure not absorbing after more removals on ({qa},{qb})",
            )


def run_failure_absorption(seed: int = DEFAULT_SEED, cases: int = 100,
                           variant: Variant = Variant.K1) -> SuiteReport:
    return _timed(
        lambda r, g: _failure_absorption(r, g, variant, cases),
        f"failure_absorption_{variant.value.lower()}",
        seed,
    )


# --- plan shape -------------------------------------------------------------


# Actions per plan-shape walk.
_PLAN_SHAPE_LENGTH = 8


def _plan_shape(report: SuiteReport, rng: random.Random, walks: int) -> None:
    mod = module(Variant.K1)
    for walk in range(walks):
        inst = _random_instance(rng)
        actions = mod.build_actions(inst)
        state = mod.initial_state()
        stage_two = False
        for _ in range(_PLAN_SHAPE_LENGTH):
            names = sorted(n for n, a in actions.items() if applicable(state, a))
            if stage_two:
                offenders = [n for n in names if n.startswith("ad_") or n == "next_stage"]
                report.check(
                    not offenders,
                    f"walk {walk}: {offenders} applicable after stage two began",
                )
            if not names:
                break
            name = rng.choice(names)
            if not name.startswith("ad_"):
                stage_two = True
            state = quotient(product_update(state, actions[name]))
        report.cases += 1


def run_plan_shape(seed: int = DEFAULT_SEED, walks: int = 500) -> SuiteReport:
    return _timed(lambda r, g: _plan_shape(r, g, walks), "plan_shape_k1", seed)


# --- engine properties ------------------------------------------------------

_PROPS = ("p", "q", "r")


def random_model(rng: random.Random, max_worlds: int = 7, agents: int = 2,
                 edge_p: float = 0.3) -> KripkeModel:
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    rels = []
    for _ in range(agents):
        rels.append({(u, v) for u in worlds for v in worlds if rng.random() < edge_p})
    val = {w: {p for p in _PROPS if rng.random() < 0.4} for w in worlds}
    return make_model(worlds, agents, rels, val)


def random_state(rng: random.Random, **kw) -> EpistemicState:
    model = random_model(rng, **kw)
    return EpistemicState(model, rng.choice(model.worlds))


def random_formula(rng: random.Random, depth: int, agents: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return prop(rng.choice(_PROPS))
    pick = rng.random()
    if pick < 0.25:
        return not_(random_formula(rng, depth - 1, agents))
    if pick < 0.55:
        return and_(random_formula(rng, depth - 1, agents),
                    random_formula(rng, depth - 1, agents))
    if pick < 0.75 or agents == 0:
        return or_(random_formula(rng, depth - 1, agents),
                   random_formula(rng, depth - 1, agents))
    return know(rng.randrange(agents), random_formula(rng, depth - 1, agents))


def random_action(rng: random.Random, agents: int, max_events: int = 3,
                  conds=()) -> EventModel:
    n = rng.randint(1, max_events)
    events = [f"e{i}" for i in range(n)]
    rels = [{(u, v) for u in events for v in events if rng.random() < 0.4}
            for _ in range(agents)]
    pre = {e: random_formula(rng, 1, agents) for e in events}
    return closure(make_action(events, agents, rels, pre, rng.choice(events)), conds)


def mutate_bisimilar(rng: random.Random, state: EpistemicState) -> EpistemicState:
    """A state bisimilar to the input by construction."""
    kind = rng.randrange(3)
    if kind == 0:
        return quotient(state)
    if kind == 1:
        # isomorphic copy under renamed worlds
        m = state.model
        names = {w: f"r{i}" for i, w in enumerate(reversed(m.worlds))}
        model = KripkeModel(tuple(names[w] for w in m.worlds), m.rows, m.valuations)
        return EpistemicState(model, names[state.designated])
    # duplicate a world under a fresh name: same valuation and outgoing
    # edges; every edge into the original is copied to the duplicate
    m = state.model
    w = rng.choice(m.worlds)
    dup = w + "_copy"
    while dup in m:
        dup += "_copy"
    k, n = m.index_of(w), len(m.worlds)
    rows = tuple(
        tuple(succ + (n,) if k in succ else succ for succ in row + (row[k],))
        for row in m.rows
    )
    model = KripkeModel(m.worlds + (dup,), rows, m.valuations + (m.valuations[k],))
    return EpistemicState(model, state.designated)


def _engine_properties(report: SuiteReport, rng: random.Random, rounds: int) -> None:
    conds_pool = list(FrameCondition)
    for _ in range(rounds):
        # 1. product update preserves bisimilarity
        s1 = random_state(rng)
        s2 = mutate_bisimilar(rng, s1)
        action = random_action(rng, s1.model.agents)
        app1, app2 = applicable(s1, action), applicable(s2, action)
        report.check(app1 == app2, "applicability differs on bisimilar states")
        if app1 and app2:
            report.check(
                bisimilar(product_update(s1, action), product_update(s2, action)),
                "products of bisimilar states are not bisimilar",
            )
        # 2. established knowledge of propositional facts survives updates
        s = random_state(rng)
        f = random_action(rng, s.model.agents)
        phi = know(rng.randrange(s.model.agents), random_formula(rng, 1, 0))
        if evaluate(s, phi) and applicable(s, f):
            report.check(
                evaluate(product_update(s, f), phi),
                "depth-1 knowledge lost by an update",
            )
        # 3. frame conditions preserved by the product
        cond = rng.choice(conds_pool)
        m = closure(random_model(rng, max_worlds=5), [cond])
        s = EpistemicState(m, rng.choice(m.worlds))
        f = random_action(rng, m.agents, conds=[cond])
        if applicable(s, f):
            report.check(
                satisfies(product_update(s, f).model, [cond]),
                f"product lost frame condition {cond.value}",
            )
        # 4. closure is idempotent, extensive, and sound
        conds = {c for c in conds_pool if rng.random() < 0.5}
        m = random_model(rng, max_worlds=5)
        closed = closure(m, conds)
        report.check(satisfies(closed, conds), "closure output violates its conditions")
        report.check(closure(closed, conds) == closed, "closure is not idempotent")
        report.check(
            all(set(a) <= set(b) for r, c in zip(m.rows, closed.rows) for a, b in zip(r, c)),
            "closure is not extensive",
        )
        # 5. canonical keys agree exactly with bisimilarity
        s1 = random_state(rng)
        if rng.random() < 0.5:
            s2 = mutate_bisimilar(rng, s1)
        else:
            s2 = random_state(rng)
        equal = canonical_key(s1) == canonical_key(s2)
        related = bisimilar(s1, s2)
        report.check(equal == related, "canonical key disagrees with bisimilarity")
        # 6. bisimilar states agree on modal formulas
        if related:
            g = random_formula(rng, 3, s1.model.agents)
            report.check(
                evaluate(s1, g) == evaluate(s2, g),
                "bisimilar states disagree on a formula",
            )


def run_engine_properties(seed: int = DEFAULT_SEED, rounds: int = 1600) -> SuiteReport:
    """Each round contributes ~7 checks, so 1600 rounds exceeds 10k cases."""
    return _timed(lambda r, g: _engine_properties(r, g, rounds), "engine_properties", seed)


# --- theorem correspondence -------------------------------------------------


# Theorem instances: random instances with matches of at most
# _THEOREM_MATCH blocks whose witness plans take at most
# _THEOREM_WITNESS_DEPTH actions; a negative instance's search stops after
# _THEOREM_NEGATIVE_NODES nodes.
_THEOREM_MATCH = 4
_THEOREM_WITNESS_DEPTH = 8
_THEOREM_NEGATIVE_NODES = 6000


def sample_theorem_instances(rng: random.Random,
                             count: int) -> list[tuple[PcpInstance, tuple | None]]:
    """Random instances with a solvable/unsolvable mix.

    Positive instances are redrawn until their witness plan fits
    ``_THEOREM_WITNESS_DEPTH``, a depth the bounded search can exhaust
    comfortably; that keeps the agreement check two-sided and the runtime
    bounded.
    """
    out: list[tuple[PcpInstance, tuple | None]] = []
    want_pos = count // 2
    while len(out) < count:
        inst = _random_instance(rng)
        match = brute_force_match(inst, _THEOREM_MATCH)
        if match is not None:
            if len(match_to_plan(inst, match, Variant.K1)) > _THEOREM_WITNESS_DEPTH:
                continue
            if want_pos > 0 or rng.random() < 0.25:
                out.append((inst, match))
                want_pos -= 1
        else:
            # guard against matches just past the shallow bound
            if brute_force_match(inst, 16) is not None:
                continue
            out.append((inst, None))
    return out


def _theorem_k1(report: SuiteReport, rng: random.Random, instances: int) -> None:
    for inst, match in sample_theorem_instances(rng, instances):
        problem = reduce_instance(inst, Variant.K1)
        if match is not None:
            plan = match_to_plan(inst, match, Variant.K1)
            report.check(
                verify_plan(problem, plan),
                f"witness plan fails on {inst.blocks}",
            )
            outcome = bfs_plan(
                problem,
                SearchBudget(max_depth=len(plan), max_nodes=200000),
            )
            report.check(
                isinstance(outcome, PlanFound),
                f"search missed the plan on solvable {inst.blocks}",
            )
            if isinstance(outcome, PlanFound):
                report.check(
                    len(outcome.plan) <= len(plan) and verify_plan(problem, outcome.plan),
                    f"found plan invalid or longer than the witness on {inst.blocks}",
                )
        else:
            # the block additions, the stage switch, and per stored symbol
            # its bit and separator removals
            symbols = _THEOREM_MATCH * _INSTANCE_WORD
            removals = len(module(Variant.K1).REMOVAL_ALPHABET) - 1
            depth = _THEOREM_MATCH + 1 + symbols * removals
            outcome = bfs_plan(
                problem, SearchBudget(max_depth=depth, max_nodes=_THEOREM_NEGATIVE_NODES)
            )
            report.check(
                not isinstance(outcome, PlanFound),
                f"search found a plan on unsolvable {inst.blocks}",
            )


def run_theorem_k1(seed: int = DEFAULT_SEED, instances: int = 20) -> SuiteReport:
    return _timed(lambda r, g: _theorem_k1(r, g, instances), "theorem_k1", seed)


# --- SAT agreement ----------------------------------------------------------


def _truth_table_satisfiable(f: Formula) -> bool:
    names = sorted(propositions(f))

    def ev(g: Formula, bits: int) -> bool:
        if isinstance(g, FalseF):
            return False
        if isinstance(g, Prop):
            return bool(bits >> names.index(g.name) & 1)
        if isinstance(g, Not):
            return not ev(g.sub, bits)
        if isinstance(g, And):
            return ev(g.left, bits) and ev(g.right, bits)
        raise TypeError(f"not propositional: {g!r}")

    return any(ev(f, bits) for bits in range(1 << len(names)))


def random_propositional(rng: random.Random, variables: list[str], depth: int = 4) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        return prop(rng.choice(variables))
    pick = rng.random()
    if pick < 0.3:
        return not_(random_propositional(rng, variables, depth - 1))
    if pick < 0.65:
        return and_(random_propositional(rng, variables, depth - 1),
                    random_propositional(rng, variables, depth - 1))
    return or_(random_propositional(rng, variables, depth - 1),
               random_propositional(rng, variables, depth - 1))


def _sat_agreement(report: SuiteReport, rng: random.Random, formulas: int) -> None:
    for _ in range(formulas):
        variables = [f"v{i}" for i in range(rng.randint(1, 10))]
        phi = random_propositional(rng, variables)
        expected = _truth_table_satisfiable(phi)
        outcome = s5_single_agent_plan(sat_to_ep(phi))
        report.check(
            isinstance(outcome, PlanFound) == expected,
            f"solver disagrees with the truth table on {phi!r}",
        )
        if isinstance(outcome, PlanFound):
            report.check(
                verify_plan(sat_to_ep(phi), outcome.plan),
                f"solver plan does not verify on {phi!r}",
            )


def run_sat_agreement(seed: int = DEFAULT_SEED, formulas: int = 200) -> SuiteReport:
    return _timed(lambda r, g: _sat_agreement(r, g, formulas), "sat_agreement", seed)


# Each suite's runner and the keyword argument that sets its size.
SUITES: dict[str, tuple[Callable[..., SuiteReport], str]] = {
    "k1": (run_k1_lemmas, "pairs"),
    "multi": (run_multi_lemmas, "pairs"),
    "ktb": (run_ktb_lemmas, "pairs"),
    "s4": (run_s4_lemmas, "pairs"),
    "failure": (run_failure_absorption, "cases"),
    "plan-shape": (run_plan_shape, "walks"),
    "engine": (run_engine_properties, "rounds"),
    "theorem": (run_theorem_k1, "instances"),
    "sat": (run_sat_agreement, "formulas"),
}
