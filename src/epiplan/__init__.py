"""epiplan: epistemic-state model checking, product update, bisimulation,
bounded plan search, and instance compilers for plan existence."""

from . import errors
from .action import (
    EventModel,
    FailureAt,
    applicable,
    apply_plan,
    make_action,
    product_update,
)
from .bisim import bisimilar, canonical_key, quotient
from .formula import (
    Formula,
    and_,
    conj,
    diamond,
    disj,
    evaluate,
    evaluate_at,
    false_,
    implies,
    know,
    modal_depth,
    not_,
    or_,
    parse,
    prop,
    to_text,
    true_,
)
from .frames import FrameCondition, LogicProfile, closure, custom_profile, profile, satisfies
from .kripke import EpistemicState, KripkeModel, generated_submodel, make_model, restrict
from .pcp import PcpInstance, brute_force_match, make_instance, matched_word
from .planner import (
    BoundReached,
    NoPlanExhausted,
    PlanFound,
    SearchBudget,
    bfs_plan,
    s5_single_agent_plan,
    verify_plan,
)
from .problem import PlanningProblem, validate_problem
from .reduction import Variant, match_to_plan, reduce_instance, sat_to_ep

__version__ = "0.1.0"
