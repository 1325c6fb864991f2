"""Hypothesis specs decide each candidate behaviour once, exactly.

``harness._verify_hypothesis`` reuses the decision of an earlier candidate
with the same behaviour key.  The reference loop below decides every
generated term, as the harness did before keys existed; the reports must
agree on everything but the table counters and ``distinct``.
"""

import dataclasses
import random

import pytest

from stepbound import harness
from stepbound.corpus import BoundSpec, Relation, corpus
from stepbound.costs import SEQ_NAT
from stepbound.gen import TermGen
from stepbound.harness import CheckReport, verify
from stepbound.order import relation_check
from stepbound.semantics import DomainConfig, EvalMode
from stepbound.syntax import (
    CostLit, Lam, Program, Ret, Step, Triv, parse, term_str, unfold_arrows,
)
from stepbound.typecheck import elaborate

MODES = (EvalMode.COST_COUNTING, EvalMode.EXTENSIONAL)
HYP_SPECS = [s for s in corpus() if s.hypothesis is not None]


def by_name(name):
    return next(s for s in corpus() if s.name == name)


def reference_verify(spec, mode, seed) -> CheckReport:
    """The hypothesis check deciding the hypothesis, and the conclusion
    of every admitted candidate, once per generated term."""
    cfg = spec.domain
    inner_ty = unfold_arrows(spec.program.declared_ty)[0][0].comp
    hyp = spec.hypothesis
    hyp_ev, _, hyp_check = relation_check(
        hyp.relation, hyp.program, hyp.bound, mode, cfg
    )
    concl_ev, _, concl_check = relation_check(
        spec.relation, spec.program, spec.bound, mode, cfg
    )
    gen = TermGen(random.Random(seed), spec.program.theory)
    admitted = tried = 0
    failure = None
    seen = set()
    for _ in range(cfg.hyp_candidates):
        cand = gen.closed_comp(inner_ty, cfg.hyp_depth)
        if cand in seen:
            continue
        seen.add(cand)
        tried += 1
        lead = (("thunk", (), cand),)
        if not hyp_check(lead).holds:
            continue
        admitted += 1
        concl = concl_check(lead)
        if not concl.holds:
            failure = concl
            failure.witness.input = (
                f"argument {term_str(cand)}; inputs {concl.witness.input}"
            )
            break
    if failure is not None:
        verdict = "fails"
    elif admitted < cfg.hyp_min_admitted:
        verdict = "inconclusive"
    else:
        verdict = "holds"
    return CheckReport(
        name=spec.name,
        relation=spec.relation.value,
        verdict=verdict,
        domain=cfg.to_json(),
        counterexample=(failure.witness.to_json() if failure is not None
                        else None),
        admitted=admitted,
        note=(f"hypothesis-filtered: {admitted} admitted of {tried} "
              "generated arguments; property-based evidence, not a proof"),
        counters=harness._table_counters(hyp_ev, concl_ev),
    )


def _answers(report: CheckReport) -> dict:
    return {k: v for k, v in report.to_json().items()
            if k not in ("millis", "counters", "distinct")}


def _twice_bound_one_step():
    spec = by_name("twice-hypothesis")
    bound = Program(
        "twice-bound-one-step", spec.bound.theory, SEQ_NAT,
        Lam("e", spec.bound.declared_ty.dom, Step(CostLit(1), Ret(Triv()))),
        spec.bound.declared_ty,
    )
    return dataclasses.replace(spec, bound=bound)


_CASES = [
    pytest.param(spec, mode, seed, id=f"{spec.name}-{mode.value}-{seed}")
    for spec in HYP_SPECS for mode in MODES for seed in range(6)
] + [
    pytest.param(_twice_bound_one_step(), mode, 0,
                 id=f"twice-bound-step-1-{mode.value}")
    for mode in MODES
] + [
    # a retagged conclusion; ext-equal runs the conclusion extensionally
    # and the hypothesis with costs, so no candidate gets a key
    pytest.param(dataclasses.replace(by_name("twice-hypothesis"),
                                     relation=relation),
                 EvalMode.COST_COUNTING, 0, id=f"twice-{relation.value}")
    for relation in (Relation.LEQ_LOWER, Relation.EQUAL, Relation.EXT_EQUAL)
]


@pytest.mark.parametrize("spec, mode, seed", _CASES)
def test_reports_equal_the_decide_every_term_loop(spec, mode, seed):
    reference = reference_verify(spec, mode, seed)
    report = verify(spec, mode=mode, seed=seed)
    assert _answers(report) == _answers(reference)
    assert report.distinct > 0
    if spec.name in ("map-const-hypothesis", "map-binomial-hypothesis"):
        assert (report.counters["table_entries"]
                < reference.counters["table_entries"])


def test_lowered_twice_bound_fails_on_a_fresh_candidate():
    report = verify(_twice_bound_one_step())
    assert report.verdict == "fails"
    assert report.counterexample["input"].startswith("argument ")


# -- the guard -----------------------------------------------------------------

_F_TY = "(U (-> nat (F nat)))"
_PRED = "(natrec {n} (ret zero) (k ih (ret k)))"


def _f_then_unit(arg: str) -> Program:
    return parse(f"(: (-> {_F_TY} (-> nat (F unit))) (lam (f : {_F_TY}) "
                 f"(lam (x : nat) (bind (ap f {arg}) (_y (ret tt))))))")


def _f_suspended(body: str) -> Program:
    """``λf.λx. ret (thunk body)``: the result holds a suspension."""
    return parse(f"(: (-> {_F_TY} (-> nat (F (U (F nat))))) "
                 f"(lam (f : {_F_TY}) (lam (x : nat) (ret {body}))))")


def _candidate(body: str):
    return elaborate(parse(f"(: (-> nat (F nat)) (lam (a : nat) {body}))")
                     ).body


def _monus_five_steps():
    """λa. step^(a∸5) (ret 0), with ∸5 five natrec predecessors."""
    body = "(step p5 (ret zero))"
    for i in range(5, 0, -1):
        n = "a" if i == 1 else f"p{i - 1}"
        body = f"(bind {_PRED.format(n=n)} (p{i} {body}))"
    return _candidate(body)


def _beyond_the_domain_spec(suspended: bool) -> BoundSpec:
    """Hypothesis: ``f x`` costs nothing at every ``x`` of the domain.
    Conclusion: ``f (x+6)`` costs nothing, at points the key never saw;
    if ``suspended``, ``f (x+6)`` is returned as a thunk, which only the
    decider forces."""
    cfg = DomainConfig(nat_max=4, hyp_candidates=2, hyp_min_admitted=2,
                       hyp_depth=1)
    free = parse(f"(: (-> {_F_TY} (-> nat (F unit))) "
                 f"(lam (f : {_F_TY}) (lam (x : nat) (ret tt))))")
    hyp = BoundSpec("f-free", _f_then_unit("x"), free, Relation.LEQ_UPPER,
                    cfg)
    beyond = "(suc " * 6 + "x" + ")" * 6
    if suspended:
        program = _f_suspended(f"(ap f {beyond})")
        bound = _f_suspended("(ret zero)")
    else:
        program, bound = _f_then_unit(beyond), free
    return BoundSpec("f-free-beyond", program, bound, Relation.LEQ_UPPER,
                     cfg, hypothesis=hyp)


@pytest.mark.parametrize("suspended", [False, True],
                         ids=["first-order", "suspended"])
@pytest.mark.parametrize("guarded", [True, False])
def test_a_candidate_applied_outside_its_key_decides_nothing(guarded,
                                                             suspended,
                                                             monkeypatch):
    # B = λa. ret 0 and A = λa. step^(a∸5) (ret 0) agree on 0..4, the
    # key's points, and both cost nothing there; at x+6 A costs x+1
    b, a = _candidate("(ret zero)"), _monus_five_steps()
    drawn = iter([b, a])
    monkeypatch.setattr(TermGen, "closed_comp",
                        lambda self, ty, depth: next(drawn))
    if not guarded:
        # B's decision reused for A: the check reads holds
        monkeypatch.setattr(harness, "_applied_outside", lambda *a: False)
    report = verify(_beyond_the_domain_spec(suspended))
    assert report.admitted == 2
    # a suspended result is forced in the decider's own evaluator, out of
    # the guard's sight, so such a conclusion keys no candidate at all
    if guarded or suspended:
        assert report.verdict == "fails"
        assert report.counterexample["input"].startswith(
            f"argument {term_str(a)}; ")
        assert report.distinct == 2
    else:
        assert report.verdict == "holds"
        assert report.distinct == 1


# -- observability ---------------------------------------------------------------

# candidates decided afresh at seed 0
_DISTINCT = {
    "cost": {"twice-hypothesis": 121, "map-const-hypothesis": 43,
             "map-binomial-hypothesis": 210},
    "ext": {"twice-hypothesis": 16, "map-const-hypothesis": 5,
            "map-binomial-hypothesis": 148},
}


@pytest.mark.parametrize("mode", ["cost", "ext"])
def test_distinct_candidates_are_reported(mode, check_json):
    _, entries = check_json(mode)
    assert {e["name"]: e["distinct"] for e in entries
            if "distinct" in e} == _DISTINCT[mode]
