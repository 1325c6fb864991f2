"""Catalog of the equational laws of the effect signatures, checked
semantically on randomly instantiated closed programs.

The catalog has 25 entries: the cost/step group (4), the monad group (2),
nondeterministic branching (7), probabilistic choice (6) and global state
(6).  Each law stores builder functions that, given a term generator,
produce a concrete instance of its two sides, born elaborated: the
generator types every node it draws and the builder types every node it
composes, so ``check_law`` hands both sides straight to the evaluator
and requires outcome equality.  A Tier-1 property re-elaborates the
instances to hold the builders to that.  An instance is one relation,
so its two sides are two bodies of one evaluator, made from the
instance's theory, the sequential cost monoid, the run's mode and
``LAWS_CONFIG``.  It compiles each node once: the sides mostly share
their sub-terms (``e`` in ``branch(e, e) = e``), and the right side runs
the closures compiled for the left.  Most instances give two equal
outcomes, which hold at once: only an unequal pair goes to
``eq_outcome``, which may still relate it (two order-equivalent branch
sets) and otherwise gives the witness.

Because the evaluator normalizes its representations (sets, merged
distributions, threaded state), most laws hold there *by construction*;
these checks guard against evaluator regressions rather than provide
independent evidence.  The shipped mutant laws keep the suite falsifiable:
each is a deliberately wrong equation that the checker must refute.

The probabilistic reassociation law constrains its weights: with the
first flip's weight ``v`` and the inner weight ``r`` drawn freely, the
outer right-hand weight is forced to ``p = 1 - (1 - v)(1 - r)`` and the
inner one to ``q = v / p`` (any ``q`` works when ``p = 0``), which is the
unique way to satisfy the stated side condition.
"""

from __future__ import annotations

import itertools
import random
import time
import zlib
from fractions import Fraction
from typing import Callable, Optional

from .costs import SEQ_NAT
from .gen import LAW_STATE_TY, THEORY_OF_KIND, TermGen, random_theory
from .order import eq_outcome
from .records import field, record
from .semantics import DomainConfig, EvalMode, Evaluator
from .syntax import (
    NAT, Ap, ArrowTy, Bind, Branch, CostLit, FTy, Fail, Flip, Get, Lam, Put,
    Ret, Step, Var, subst, term_str,
)

LAWS_CONFIG = DomainConfig(nat_max=4, list_len=2, elems=2, state_max=4)
# failing instances a report records before it stops with "..."
MAX_RECORDED = 5


@record
class Law:
    """One equational axiom: a named pair of term templates.

    ``theory`` fixes the effect theory the law belongs to; ``None`` means
    the law is generic and is exercised under a theory drawn per trial.
    ``build`` maps a term generator to a concrete (lhs, rhs, type)
    instance.
    """

    name: str
    theory: Optional[str]
    equation: str
    build: Callable
    side_note: str = ""


@record(frozen=False)
class LawReport:
    law: str
    theory: str
    trials: int
    failures: list = field(default_factory=list)
    millis: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


def _step(c, e):
    return Step(CostLit(c), e, ty=e.ty)


# -- builders -----------------------------------------------------------------
# Each returns (lhs, rhs, comp_ty), with ``ty`` set on every node it builds.


def _b_step_zero(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return _step(0, e), e, ty


def _b_step_plus(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    c1, c2 = gen.cost(), gen.cost()
    return _step(c1, _step(c2, e)), _step(c1 + c2, e), ty


def _b_bind_step(gen):
    ty = gen.result_ty()
    e = gen.synth_comp(FTy(NAT), 3)
    f = gen.comp({"bx": NAT}, ty, 3)
    c = gen.cost()
    lhs = Bind(_step(c, e), "bx", f, ty=ty)
    rhs = _step(c, Bind(e, "bx", f, ty=ty))
    return lhs, rhs, ty


def _b_lam_step(gen):
    # the two lambda sides are compared applied to a drawn argument
    ty = gen.result_ty()
    body = gen.comp({"lx": NAT}, ty, 3)
    c = gen.cost()
    arg = gen.value({}, NAT)
    fn_ty = ArrowTy(NAT, ty)
    lhs = Ap(_step(c, Lam("lx", NAT, body, ty=fn_ty)), arg, ty=ty)
    rhs = Ap(Lam("lx", NAT, _step(c, body), ty=fn_ty), arg, ty=ty)
    return lhs, rhs, ty


def _b_bind_ret(gen):
    ty = gen.result_ty()
    a = gen.value({}, NAT)
    f = gen.comp({"bx": NAT}, ty, 3)
    lhs = Bind(Ret(a, ty=FTy(NAT)), "bx", f, ty=ty)
    rhs = subst(f, {"bx": a})
    return lhs, rhs, ty


def _b_bind_assoc(gen):
    ty = gen.result_ty()
    e = gen.synth_comp(FTy(NAT), 2)
    f = gen.synth_comp(FTy(NAT), 2, {"bx": NAT})
    g = gen.comp({"by": NAT}, ty, 2)
    lhs = Bind(Bind(e, "bx", f, ty=f.ty), "by", g, ty=ty)
    rhs = Bind(e, "bx", Bind(f, "by", g, ty=ty), ty=ty)
    return lhs, rhs, ty


def _b_branch_idl(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return Branch(Fail(ty=ty), e, ty=ty), e, ty


def _b_branch_idr(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return Branch(e, Fail(ty=ty), ty=ty), e, ty


def _b_branch_assoc(gen):
    ty = gen.result_ty()
    e0, e1, e2 = (gen.closed_comp(ty, 2) for _ in range(3))
    lhs = Branch(Branch(e0, e1, ty=ty), e2, ty=ty)
    rhs = Branch(e0, Branch(e1, e2, ty=ty), ty=ty)
    return lhs, rhs, ty


def _b_branch_comm(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 3), gen.closed_comp(ty, 3)
    return Branch(e0, e1, ty=ty), Branch(e1, e0, ty=ty), ty


def _b_branch_idem(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return Branch(e, e, ty=ty), e, ty


def _b_branch_step(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 2), gen.closed_comp(ty, 2)
    c = gen.cost()
    return (
        _step(c, Branch(e0, e1, ty=ty)),
        Branch(_step(c, e0), _step(c, e1), ty=ty),
        ty,
    )


def _b_fail_step(gen):
    ty = gen.result_ty()
    return _step(gen.cost(), Fail(ty=ty)), Fail(ty=ty), ty


def _b_flip_zero(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 3), gen.closed_comp(ty, 3)
    return Flip(Fraction(0), e0, e1, ty=ty), e0, ty


def _b_flip_one(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 3), gen.closed_comp(ty, 3)
    return Flip(Fraction(1), e0, e1, ty=ty), e1, ty


def _b_flip_assoc(gen):
    ty = gen.result_ty()
    e0, e1, e2 = (gen.closed_comp(ty, 2) for _ in range(3))
    v = gen.rational()
    r = gen.rational()
    p = 1 - (1 - v) * (1 - r)
    q = v / p if p != 0 else gen.rational()
    lhs = Flip(v, Flip(r, e0, e1, ty=ty), e2, ty=ty)
    rhs = Flip(p, e0, Flip(q, e1, e2, ty=ty), ty=ty)
    return lhs, rhs, ty


def _b_flip_comm(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 3), gen.closed_comp(ty, 3)
    p = gen.rational()
    return Flip(p, e0, e1, ty=ty), Flip(1 - p, e1, e0, ty=ty), ty


def _b_flip_idem(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return Flip(gen.rational(), e, e, ty=ty), e, ty


def _b_flip_step(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 2), gen.closed_comp(ty, 2)
    c, p = gen.cost(), gen.rational()
    return (
        _step(c, Flip(p, e0, e1, ty=ty)),
        Flip(p, _step(c, e0), _step(c, e1), ty=ty),
        ty,
    )


def _b_get_get(gen):
    ty = gen.result_ty()
    e = gen.comp({"sv1": LAW_STATE_TY, "sv2": LAW_STATE_TY}, ty, 3)
    lhs = Get("sv1", Get("sv2", e, ty=ty), ty=ty)
    rhs = Get("sv0", subst(e, {"sv1": Var("sv0"), "sv2": Var("sv0")}), ty=ty)
    return lhs, rhs, ty


def _b_get_set(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return Get("sv0", Put(Var("sv0"), e, ty=ty), ty=ty), e, ty


def _b_set_get(gen):
    ty = gen.result_ty()
    s = gen.value({}, LAW_STATE_TY)
    e = gen.comp({"sv1": LAW_STATE_TY}, ty, 3)
    lhs = Put(s, Get("sv1", e, ty=ty), ty=ty)
    rhs = Put(s, subst(e, {"sv1": s}), ty=ty)
    return lhs, rhs, ty


def _b_set_set(gen):
    ty = gen.result_ty()
    s1, s2 = gen.value({}, LAW_STATE_TY), gen.value({}, LAW_STATE_TY)
    e = gen.closed_comp(ty, 3)
    return Put(s1, Put(s2, e, ty=ty), ty=ty), Put(s2, e, ty=ty), ty


def _b_get_step(gen):
    ty = gen.result_ty()
    e = gen.comp({"sv1": LAW_STATE_TY}, ty, 3)
    c = gen.cost()
    return _step(c, Get("sv1", e, ty=ty)), Get("sv1", _step(c, e), ty=ty), ty


def _b_set_step(gen):
    ty = gen.result_ty()
    s = gen.value({}, LAW_STATE_TY)
    e = gen.closed_comp(ty, 3)
    c = gen.cost()
    return _step(c, Put(s, e, ty=ty)), Put(s, _step(c, e), ty=ty), ty


# -- mutants (deliberately false; the checker must find counterexamples) -----


def _m_flip_one_left(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 3), gen.closed_comp(ty, 3)
    return Flip(Fraction(1), e0, e1, ty=ty), e0, ty


def _m_step_one_free(gen):
    ty = gen.result_ty()
    e = gen.closed_comp(ty, 3)
    return _step(1, e), e, ty


def _m_branch_left_bias(gen):
    ty = gen.result_ty()
    e0, e1 = gen.closed_comp(ty, 3), gen.closed_comp(ty, 3)
    return Branch(e0, e1, ty=ty), e0, ty


def _m_set_set_first(gen):
    ty = gen.result_ty()
    s1 = gen.value({}, LAW_STATE_TY)
    s2 = gen.value({}, LAW_STATE_TY)
    while s2 == s1:
        s2 = gen.value({}, LAW_STATE_TY)
    e = gen.closed_comp(ty, 3)
    return Put(s1, Put(s2, e, ty=ty), ty=ty), Put(s1, e, ty=ty), ty


def _m_bind_step_drop(gen):
    ty = gen.result_ty()
    e = gen.synth_comp(FTy(NAT), 3)
    f = gen.comp({"bx": NAT}, ty, 3)
    c = gen.rng.choice((1, 2, 3))
    return (
        Bind(_step(c, e), "bx", f, ty=ty), Bind(e, "bx", f, ty=ty), ty
    )


_CATALOG = (
    Law("step/zero", None, "step^0(e) = e", _b_step_zero),
    Law("step/plus", None, "step^c1(step^c2(e)) = step^(c1+c2)(e)",
        _b_step_plus),
    Law("bind/step", None, "bind(step^c(e), x. f) = step^c(bind(e, x. f))",
        _b_bind_step),
    Law("lam/step", None, "step^c(lam x. f) = lam x. step^c(f)",
        _b_lam_step),
    Law("bind/ret", None, "bind(ret(a), x. f) = f[a/x]", _b_bind_ret),
    Law("bind/assoc", None,
        "bind(bind(e, x. f), y. g) = bind(e, x. bind(f, y. g))",
        _b_bind_assoc),
    Law("branch/idl", "nondet", "branch(fail, e) = e", _b_branch_idl),
    Law("branch/idr", "nondet", "branch(e, fail) = e", _b_branch_idr),
    Law("branch/assoc", "nondet",
        "branch(branch(e0, e1), e2) = branch(e0, branch(e1, e2))",
        _b_branch_assoc),
    Law("branch/comm", "nondet", "branch(e0, e1) = branch(e1, e0)",
        _b_branch_comm),
    Law("branch/idem", "nondet", "branch(e, e) = e", _b_branch_idem),
    Law("branch/step", "nondet",
        "step^c(branch(e0, e1)) = branch(step^c(e0), step^c(e1))",
        _b_branch_step),
    Law("fail/step", "nondet", "step^c(fail) = fail", _b_fail_step),
    Law("flip/zero", "prob", "flip(0, e0, e1) = e0", _b_flip_zero),
    Law("flip/one", "prob", "flip(1, e0, e1) = e1", _b_flip_one),
    Law("flip/assoc", "prob",
        "flip(pq, flip(r, e0, e1), e2) = flip(p, e0, flip(q, e1, e2))",
        _b_flip_assoc,
        side_note="requires p = 1 - (1 - pq)(1 - r); pq and r are drawn "
                  "freely, p is computed, q = pq/p (free when p = 0)"),
    Law("flip/comm", "prob", "flip(p, e0, e1) = flip(1-p, e1, e0)",
        _b_flip_comm),
    Law("flip/idem", "prob", "flip(p, e, e) = e", _b_flip_idem),
    Law("flip/step", "prob",
        "step^c(flip(p, e0, e1)) = flip(p, step^c(e0), step^c(e1))",
        _b_flip_step),
    Law("get/get", "state",
        "get(s1. get(s2. e[s1, s2])) = get(s. e[s, s])", _b_get_get),
    Law("get/set", "state", "get(s. set(s, e)) = e", _b_get_set),
    Law("set/get", "state", "set(s, get(s'. e[s'])) = set(s, e[s])",
        _b_set_get),
    Law("set/set", "state", "set(s1, set(s2, e)) = set(s2, e)", _b_set_set),
    Law("get/step", "state", "step^c(get(s. e[s])) = get(s. step^c(e[s]))",
        _b_get_step),
    Law("set/step", "state", "step^c(set(s, e)) = set(s, step^c(e))",
        _b_set_step),
)

_MUTANTS = (
    Law("mutant:flip/one-returns-left", "prob", "flip(1, e0, e1) = e0",
        _m_flip_one_left),
    Law("mutant:step/one-free", "pure", "step^1(e) = e",
        _m_step_one_free),
    Law("mutant:branch/left-bias", "nondet", "branch(e0, e1) = e0",
        _m_branch_left_bias),
    Law("mutant:set/set-keeps-first", "state",
        "set(s1, set(s2, e)) = set(s1, e)", _m_set_set_first),
    Law("mutant:bind/step-drops-cost", "pure",
        "bind(step^c(e), x. f) = bind(e, x. f)", _m_bind_step_drop),
)


def catalog() -> tuple:
    """The 25 equational laws of the effect signatures."""
    return _CATALOG


def mutant_catalog() -> tuple:
    """Deliberately corrupted laws; ``check_law`` must refute each."""
    return _MUTANTS


def _law_rng(law: Law, seed: int) -> random.Random:
    return random.Random(seed ^ zlib.crc32(law.name.encode()))


def instances(law: Law, seed: int = 0):
    """The endless, seeded stream of ``law``'s instances, as
    ``(theory, lhs, rhs, comp_ty)``; ``check_law`` takes its trials from
    the front of it."""
    rng = _law_rng(law, seed)
    while True:
        theory = (
            THEORY_OF_KIND[law.theory] if law.theory else random_theory(rng)
        )
        yield (theory, *law.build(TermGen(rng, theory)))


def instance_outcomes(theory, lhs, rhs, mode: EvalMode, ev=None) -> tuple:
    """The outcomes of a law instance's two sides, from one evaluator
    (``ev``, else a new one): a node the sides share compiles once."""
    if ev is None:
        ev = Evaluator(theory, SEQ_NAT, mode, LAWS_CONFIG)
    return ev.outcome(lhs), ev.outcome(rhs)


def check_law(
    law: Law,
    trials: int = 500,
    seed: int = 0,
    mode: EvalMode = EvalMode.COST_COUNTING,
) -> LawReport:
    """Instantiate and semantically check ``law`` for ``trials`` rounds.

    Deterministic given ``seed``.  A failing trial records the rendered
    instantiation and both outcomes.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    start = time.perf_counter()
    theory_name = law.theory or "any"
    report = LawReport(law.name, theory_name, trials)
    for theory, lhs, rhs, _ in itertools.islice(instances(law, seed), trials):
        # the outcomes may hold denotations that apply the evaluator, so
        # it is closed once the verdict and its failure text are built
        ev = Evaluator(theory, SEQ_NAT, mode, LAWS_CONFIG)
        try:
            out_l, out_r = instance_outcomes(theory, lhs, rhs, mode, ev)
            # the sides share theory, monoid, mode and domain, and their
            # values are first-order, so equal outcomes are equal ones;
            # only an unequal pair goes to the decider
            if out_l == out_r or eq_outcome(out_l, out_r).holds:
                continue
            if len(report.failures) == MAX_RECORDED:
                report.failures.append("...")
                break
            report.failures.append(
                f"under {theory.kind}: {term_str(lhs)}  !=  "
                f"{term_str(rhs)}  ({out_l} vs {out_r})"
            )
        finally:
            ev.close()
    report.millis = (time.perf_counter() - start) * 1000
    return report
