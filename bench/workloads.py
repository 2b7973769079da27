"""Seeded inputs, known answers and verdict checks for the benchmark workloads.

A workload turns a seed into a pool of ops; an op is one problem taken to a
verdict.  Each op carries the input the program sees and a known answer that
was worked out during set-up by code that shares nothing with the planner:
``pcp.brute_force_match`` (or a length argument, see ``no_match_by_length``) for PCP
instances, a truth table over the clause list (here, in the benchmark) for
SAT, and the lemmas themselves, which hold, for the lemma cases.

``run_op`` is the timed part of an op.  ``check_op`` judges its result
against the known answer and runs outside the timed interval, as does every
``verify_plan`` call.  Calls into epiplan go through module attributes
(``planner.bfs_plan``, ``reduction.reduce_instance``, ...) looked up at call
time, so the traced run sees them.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from epiplan import pcp, planner, reduction, suites
from epiplan.errors import NotAMatch
from epiplan.formula import conj, disj, not_, prop

VARIANTS = ("K1", "MultiS5", "KTB1", "S4_1")

# pcp-search.  Words have 1..3 symbols: with empty words allowed the
# match oracle's overhang search blows up on a few draws, which would make
# set-up time depend on luck.  A solvable search at witness depth d explores
# every state above depth d, so its cost grows with the branching: witness
# plans are capped at the shortest nontrivial length per variant and
# solvable instances have two blocks, which keeps those searches at about
# 20-500 ms.  Under these caps every "solvable" instance has a block with
# equal words and its witness plays that one block.  So that the search
# also plays a real match, each round adds one K1 instance whose shortest
# match uses two blocks ("solvable-multi"); its witness has six steps and
# its search takes about 0.07-0.2 s.  On the other variants such a witness is
# 9-12 steps long and its search takes seconds.  Unsolvable instances have
# 1..3 blocks; the node budgets give them roughly equal cost across variants.
# At the same node budget a one-block instance costs about twice as much
# as one with two or three blocks (45-62 ms against 23-31 ms), and with a
# free draw of the block count the median op sat on the edge between the
# two kinds.  So per round and variant one unsolvable instance has one
# block and one has two or three: the median op is then among the
# one-block searches and the S4_1 solvable ones, clear of that edge.
PCP_MAX_BLOCKS = 3
PCP_MAX_WORD = 3
SOLVABLE_BLOCKS = 2
NO_MATCH_LEN = 16
WITNESS_CAP = {"K1": 5, "MultiS5": 4, "KTB1": 5, "S4_1": 4}
MULTI_VARIANT = "K1"
MULTI_WITNESS_CAP = 6
SOLVABLE_NODE_CAP = 200_000
NODE_BUDGET = {"K1": 60, "MultiS5": 12, "KTB1": 25, "S4_1": 25}
UNSOLVABLE_DEPTH = 12
UNSOLVABLE_BLOCKS = ((1, 1), (2, PCP_MAX_BLOCKS))
PCP_ROUNDS = 32

# sat-s5.  Random 3-CNF at the satisfiability threshold.  The search for a
# satisfiable formula stops at the depth of its shortest plan, the fewest
# variables any model makes false, and its cost doubles with each level
# (about 5, 9, 21, 41 and 73 ms at depths 1-5); an unsatisfiable formula
# costs a full search (60-100 ms).  Drawn freely, the formulas put the
# median op on the edge between depths 3 and 4, so the seed's mix of depths
# moved op_ms_p50 by 30 %.  Each round therefore draws formulas by class, in
# the proportions below: a shortest plan of that depth, or None for an
# unsatisfiable one.  As many classes sit on either side of the four
# depth-3 formulas, so the median op is a depth-3 search, and the seed
# moves it only within that class.
SAT_VARIABLES = 7
SAT_CLAUSE_RATIO = 4.26
SAT_ROUND = (1, 2, 2, 3, 3, 3, 3, 4, None, None)
SAT_ROUNDS = 45

# lemma-check.  One seeded case per op, cycling through the variants.
LEMMA_RUNNERS = {
    "K1": "run_k1_lemmas",
    "MultiS5": "run_multi_lemmas",
    "KTB1": "run_ktb_lemmas",
    "S4_1": "run_s4_lemmas",
}
LEMMA_OPS = 4000


@dataclass(frozen=True)
class Op:
    """One problem with its known answer.

    ``variant`` is the compiler variant, or ``S5`` on sat-s5.  ``data`` is
    the program's input: a ``PcpInstance``, a ``Cnf`` or a lemma seed.  ``kind``
    says what kind of problem it is and ``expected`` is the known answer:
    the name of the correct search outcome, or ``True`` for a lemma case.
    A solvable PCP op carries its witness plan length in ``depth``, a
    satisfiable formula its shortest plan length.
    """

    variant: str
    kind: str
    data: Any
    expected: Any
    depth: int = 0


@dataclass
class Result:
    """What the timed part of an op produced.

    ``work`` counts search nodes (or lemma cases on lemma-check) and
    ``work_seconds`` the time spent producing them.
    """

    outcome: Any
    problem: Any = None
    match: tuple | None = None
    work: int = 0
    work_seconds: float = 0.0


# --- input generation and known answers ------------------------------------


def _draw_instance(rng: random.Random, blocks_count: int) -> pcp.PcpInstance:
    blocks = []
    for _ in range(blocks_count):
        a = "".join(rng.choice("01") for _ in range(rng.randint(1, PCP_MAX_WORD)))
        b = "".join(rng.choice("01") for _ in range(rng.randint(1, PCP_MAX_WORD)))
        blocks.append((a, b))
    return pcp.make_instance(blocks)


def no_match_by_length(inst: pcp.PcpInstance) -> bool:
    """An exact length argument for instances the match oracle is slowest on.

    A match has rows of equal length.  If no block shortens the top row
    relative to the bottom one (or none lengthens it), a match can use only
    blocks of equal word lengths, and such a sequence is a match only if its
    first block has equal words.  The oracle's search never closes the
    overhang on these instances and keeps growing it to the length limit.
    """
    diffs = [len(a) - len(b) for a, b in inst.blocks]
    if not (all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)):
        return False
    return not any(a == b for a, b in inst.blocks)


def _solvable_op(rng: random.Random, variant: str, first: int) -> Op:
    """A solvable instance whose shortest match starts with ``blocks[first]``.

    Breadth-first search tries the blocks in order, so a witness that starts
    with the second block costs some 40 % more nodes (KTB1 99 or 138,
    MultiS5 54 or 76).  ``pcp_ops`` alternates ``first``, so that every
    seed has as many of each.
    """
    while True:
        inst = _draw_instance(rng, SOLVABLE_BLOCKS)
        if no_match_by_length(inst):
            continue
        match = pcp.brute_force_match(inst, NO_MATCH_LEN)
        if match is None or match[0] != first + 1:  # a match numbers blocks from 1
            continue
        witness = reduction.match_to_plan(inst, match, reduction.Variant(variant))
        if len(witness) <= WITNESS_CAP[variant]:
            return Op(variant, "solvable", inst, "PlanFound", len(witness))


def _multi_block_op(rng: random.Random, first: int) -> Op:
    """A two-block instance whose shortest match plays both blocks.

    ``first`` = 1 swaps the two blocks, so that the match mostly starts with
    the second one (where both (1, 2) and (2, 1) are matches, the oracle
    returns (1, 2)).

    With words of at most three symbols and a K1 witness of at most
    ``MULTI_WITNESS_CAP`` steps, such a match spells one word of three
    symbols, split after a different symbol in the top and the bottom row.
    Drawing word and splits uniformly gives the same distribution as
    drawing two random blocks until one has such a match, in one draw where
    rejection needs many, so that set-up time does not hang on how many
    draws a seed needs.
    """
    word = "".join(rng.choice("01") for _ in range(3))
    top, bottom = rng.sample((1, 2), 2)
    blocks = [(word[:top], word[:bottom]), (word[top:], word[bottom:])]
    if first:
        blocks.reverse()
    inst = pcp.make_instance(blocks)
    match = pcp.brute_force_match(inst, NO_MATCH_LEN)
    witness = reduction.match_to_plan(inst, match, reduction.Variant(MULTI_VARIANT))
    if len(match) != 2 or len(witness) > MULTI_WITNESS_CAP:
        raise RuntimeError(f"{inst.blocks}: shortest match {match}, witness of {len(witness)} steps")
    return Op(MULTI_VARIANT, "solvable-multi", inst, "PlanFound", len(witness))


def _unsolvable_op(rng: random.Random, variant: str, blocks: tuple[int, int]) -> Op:
    """An instance with no match up to length NO_MATCH_LEN, with
    ``blocks[0]`` to ``blocks[1]`` blocks."""
    while True:
        inst = _draw_instance(rng, rng.randint(*blocks))
        if no_match_by_length(inst) or pcp.brute_force_match(inst, NO_MATCH_LEN) is None:
            return Op(variant, "unsolvable", inst, "BoundReached")


def pcp_ops(seed: int, rounds: int = PCP_ROUNDS) -> list[Op]:
    """Rounds of, per variant, one solvable and some unsolvable instances,
    plus one solvable instance with a multi-block match.  The solvable
    instances' matches start with the first block in even rounds and with
    the second in odd ones."""
    rng = random.Random(seed)
    ops = []
    for r in range(rounds):
        for variant in VARIANTS:
            ops.append(_solvable_op(rng, variant, r % 2))
            ops.extend(_unsolvable_op(rng, variant, blocks) for blocks in UNSOLVABLE_BLOCKS)
        ops.append(_multi_block_op(rng, r % 2))
    return ops


@functools.cache
def _literal_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Per variable, the assignments that make it false and true, one bit each."""
    full = (1 << (1 << n)) - 1
    masks = []
    for v in range(n):
        # assignment a sets variable v true iff bit v of a is set
        true = sum(1 << a for a in range(1 << n) if a >> v & 1)
        masks.append((full & ~true, true))
    return tuple(masks)


def models(n: int, clauses) -> int:
    """Truth table over all 2**n assignments: bit a is set iff a is a model."""
    masks = _literal_masks(n)
    out = (1 << (1 << n)) - 1
    for clause in clauses:
        sat = 0
        for v, positive in clause:
            sat |= masks[v][positive]
        out &= sat
    return out


def plan_depth(n: int, clauses) -> int | None:
    """The fewest variables a model makes false, or None if there is none.

    A plan deletes the worlds of the variables it makes false (see
    ``_check_sat``), so this is the length of the shortest plan.
    """
    found = models(n, clauses)
    return min((n - a.bit_count() for a in range(1 << n) if found >> a & 1), default=None)


@functools.cache
def _triples(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(itertools.combinations(range(n), 3))


def _draw_clauses(rng: random.Random, n: int, m: int) -> tuple:
    """m clauses over three distinct variables each, with random signs."""
    triples = _triples(n)
    clauses = []
    for _ in range(m):
        signs = rng.getrandbits(3)
        triple = triples[rng.randrange(len(triples))]
        clauses.append(tuple((v, bool(signs >> j & 1)) for j, v in enumerate(triple)))
    return tuple(clauses)


def _var(v: int) -> str:
    return f"x{v + 1}"


@dataclass(frozen=True)
class Cnf:
    """A clause list over variables 0..n-1 and its formula, the program's input.

    It pickles as the clause list alone and builds the formula again on
    loading, which is several times faster than pickling the formula's
    tens of thousands of nodes.
    """

    n: int
    clauses: tuple
    formula: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "formula", conj(*(
            disj(*(prop(_var(v)) if positive else not_(prop(_var(v))) for v, positive in clause))
            for clause in self.clauses
        )))

    def __reduce__(self):
        return (Cnf, (self.n, self.clauses))


def sat_ops(seed: int, rounds: int = SAT_ROUNDS) -> list[Op]:
    rng = random.Random(seed)
    n = SAT_VARIABLES
    m = round(SAT_CLAUSE_RATIO * n)
    ops = []
    for _ in range(rounds):
        for depth in SAT_ROUND:
            while True:
                clauses = _draw_clauses(rng, n, m)
                if plan_depth(n, clauses) == depth:
                    break
            ops.append(Op(
                "S5",
                "unsat" if depth is None else "sat",
                Cnf(n, clauses),
                "NoPlanExhausted" if depth is None else "PlanFound",
                depth or 0,
            ))
    return ops


def lemma_ops(seed: int, count: int = LEMMA_OPS) -> list[Op]:
    rng = random.Random(seed)
    return [
        Op(VARIANTS[i % len(VARIANTS)], "lemma", rng.getrandbits(32), True)
        for i in range(count)
    ]


# --- the timed part of an op -------------------------------------------------


def run_pcp(op: Op) -> Result:
    variant = reduction.Variant(op.variant)
    problem = reduction.reduce_instance(op.data, variant)
    if op.expected == "PlanFound":
        budget = planner.SearchBudget(max_depth=op.depth, max_nodes=SOLVABLE_NODE_CAP)
    else:
        budget = planner.SearchBudget(max_depth=UNSOLVABLE_DEPTH, max_nodes=NODE_BUDGET[op.variant])
    start = perf_counter()
    outcome = planner.bfs_plan(problem, budget)
    searched = perf_counter() - start
    match = None
    if isinstance(outcome, planner.PlanFound):
        match = reduction.plan_match_prefix(outcome.plan, variant)
    return Result(outcome, problem, match, outcome.stats.nodes, searched)


def run_sat(op: Op) -> Result:
    problem = reduction.sat_to_ep(op.data.formula)
    start = perf_counter()
    outcome = planner.s5_single_agent_plan(problem)
    searched = perf_counter() - start
    return Result(outcome, problem, None, outcome.stats.nodes, searched)


def run_lemma(op: Op) -> Result:
    start = perf_counter()
    report = getattr(suites, LEMMA_RUNNERS[op.variant])(seed=op.data, pairs=1)
    return Result(report, work=report.cases, work_seconds=perf_counter() - start)


# --- verdict checks (untimed) -----------------------------------------------


def _check_pcp(op: Op, res: Result) -> bool:
    outcome = res.outcome
    if type(outcome).__name__ != op.expected:
        return False
    if not isinstance(outcome, planner.PlanFound):
        return True
    if res.match is None or len(outcome.plan) > op.depth:
        return False
    try:
        pcp.matched_word(op.data, res.match)
    except NotAMatch:
        return False
    return planner.verify_plan(res.problem, outcome.plan)


def _check_sat(op: Op, res: Result) -> bool:
    outcome = res.outcome
    if type(outcome).__name__ != op.expected:
        return False
    if not isinstance(outcome, planner.PlanFound):
        return True
    # the plan deletes the worlds of the variables it makes false
    deleted = {name.removeprefix("delete_") for name in outcome.plan}
    true = {v for v in range(op.data.n) if _var(v) not in deleted}
    if not all(any((v in true) == positive for v, positive in c) for c in op.data.clauses):
        return False
    if len(outcome.plan) > op.depth:
        return False
    return planner.verify_plan(res.problem, outcome.plan)


def _check_lemma(op: Op, res: Result) -> bool:
    return res.outcome.ok == op.expected


def counts(res: Result | BaseException) -> tuple:
    """The deterministic footprint of an op: verdict, nodes, dedup hits or cases."""
    if isinstance(res, BaseException):
        return (type(res).__name__,)
    outcome = res.outcome
    if isinstance(outcome, suites.SuiteReport):
        return (outcome.ok, outcome.cases)
    return (type(outcome).__name__, outcome.stats.nodes, outcome.stats.dedup_hits)


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[int], list[Op]]
    run_op: Callable[[Op], Result]
    check_op: Callable[[Op, Result], bool]
    # what one unit of Result.work is, for nodes_per_s
    work_unit: str


WORKLOAD_TABLE = {
    "pcp-search": Workload(pcp_ops, run_pcp, _check_pcp, "search node"),
    "sat-s5": Workload(sat_ops, run_sat, _check_sat, "search node"),
    "lemma-check": Workload(lemma_ops, run_lemma, _check_lemma, "lemma case"),
}

