"""stepbound: a workbench for cost bounds on effectful programs.

Programs in a small two-level (value/computation) language carry an
abstract step-counting effect plus one of four effect theories (pure,
finite nondeterminism, probabilistic choice, single-cell state).  A cost
bound is just another program of the same type; the package evaluates
both into exact outcome structures and decides equality and the
cost-relaxing approximation preorder between them, over enumerated input
domains.
"""

from .costs import MONOIDS, SEQ_NAT, WORK_SPAN
from .corpus import BoundSpec, corpus
from .harness import CheckReport, run_all, verify
from .laws import catalog, check_law, mutant_catalog
from .order import (
    Relation, Verdict, eq_outcome, leq_outcome, relation_check,
    transportation_oracle,
)
from .semantics import DomainConfig, EvalMode, eval_fn, evaluate
from .syntax import Program, parse, print_program
from .typecheck import Checker, TypeCheckError, check_program, elaborate

__all__ = [
    "BoundSpec", "CheckReport", "Checker", "DomainConfig", "EvalMode",
    "MONOIDS", "Program", "Relation", "SEQ_NAT", "TypeCheckError",
    "Verdict", "WORK_SPAN", "catalog", "check_law", "check_program",
    "corpus", "elaborate", "eq_outcome", "eval_fn", "evaluate",
    "leq_outcome", "mutant_catalog", "parse", "print_program",
    "relation_check", "run_all", "transportation_oracle", "verify",
]

__version__ = "0.1.0"
