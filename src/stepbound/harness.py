"""Verification harness: runs bound specs and the law suite, reports results.

``verify`` decides each relation of a spec with one evaluator, built
from the spec's effect theory, cost monoid, evaluation mode and domain,
which evaluates both the program and the bound:

* a first-order spec is one relation: both programs are tabulated over
  the enumerated input domain and compared pointwise, in one pass that
  also yields the report's cost range, the program's max and min cost
  over the inputs decided (up to and including the witness of a
  failing check); the table counters come from the same evaluator;
* a hypothesis spec generates candidate arguments for the leading
  suspended parameter, keeps those satisfying the hypothesis sub-spec,
  and checks the conclusion for each admitted candidate.  The sub-spec
  and the conclusion are two relations with an evaluator each, and each
  is decided pointwise with the candidate fixed.  Fewer than the
  configured minimum of admitted candidates makes the run *inconclusive*
  rather than passing vacuously.

  Each candidate behaviour is decided once.  A candidate's key is its raw
  denotation in the hypothesis evaluator, for a λ its denotations at
  every point of its argument type's domain; a later candidate with the
  same key takes the earlier decision.  This is exact, because an
  evaluator sees a closed candidate only through its results at the
  points it applies it, so a decision is kept only if neither relation
  applied its candidate outside the key's points (``_applied_outside``).
  A spec or hypothesis whose result may hold a suspension keys nothing,
  since the decider forces that suspension out of the guard's sight.

In extensional mode every relation is checked as an equality; an
approximation that holds with costs counted must collapse to an equality
once cost is erased, and running the suite that way exercises exactly
that.

``--mutate NAME`` zeroes every step annotation in the named corpus
program before verification, as a self-test that the harness can fail:
dropping the instrumentation must break that program's cost lower bound.
"""

from __future__ import annotations

import json
import random
import time
from typing import Optional

from .corpus import BoundSpec, SPEC_HELPERS, corpus
from .costs import SEQ_NAT, CostMonoid, cost_to_json
from .gen import TermGen
from .laws import LawReport, catalog, check_law
from .order import OrderError, relation_check
# unused here; perfbench/test_perfbench.py::test_uninstall_restores_the_package
# reads harness.leq_outcome, so the name stays until that test changes
from .order import leq_outcome  # noqa: F401
from .records import field, record, replace
from .semantics import (
    DomainConfig, EvalError, EvalMode, Evaluator, enumerate_inputs,
    enumerate_value_ty, eval_fn, val_str,
)
from .syntax import (
    ArrowTy, CostLit, FTy, Lam, ListTy, PURE, ProdTy, Program, Step, SumTy,
    Term, UTy, map_scopes, term_str, unfold_arrows,
)


@record(frozen=False)
class CheckReport:
    name: str
    relation: str
    verdict: str  # holds | fails | inconclusive
    domain: dict
    max_cost: object = None
    min_cost: object = None
    counterexample: Optional[dict] = None
    millis: float = 0.0
    admitted: Optional[int] = None
    # hypothesis candidates decided afresh, not from a decided behaviour
    distinct: Optional[int] = None
    note: str = ""
    counters: dict = field(default_factory=dict)
    monoid: CostMonoid = SEQ_NAT  # the spec's; prints the cost range

    @property
    def ok(self) -> bool:
        return self.verdict == "holds"

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "relation": self.relation,
            "verdict": self.verdict,
            "domain": self.domain,
            "max_cost": cost_to_json(self.max_cost)
            if self.max_cost is not None else None,
            "min_cost": cost_to_json(self.min_cost)
            if self.min_cost is not None else None,
            "millis": round(self.millis, 3),
            "counters": self.counters,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.admitted is not None:
            out["admitted"] = self.admitted
        if self.distinct is not None:
            out["distinct"] = self.distinct
        if self.note:
            out["note"] = self.note
        return out


def _table_counters(*evs: Evaluator) -> dict:
    """Table counters summed over the evaluators of one check."""
    return {
        "table_entries": sum(ev.table_entries for ev in evs),
        "table_hits": sum(ev.table_hits for ev in evs),
    }


def verify(
    spec: BoundSpec,
    mode: EvalMode = EvalMode.COST_COUNTING,
    domain_override: Optional[dict] = None,
    seed: int = 0,
) -> CheckReport:
    """Check one bound spec and report its verdict and exact cost range.

    Each relation the check decides has its own evaluator, and with it
    its own table; they end when this call returns.
    """
    cfg = (replace(spec.domain, **domain_override) if domain_override
           else spec.domain)
    start = time.perf_counter()
    if spec.hypothesis is not None:
        report = _verify_hypothesis(spec, mode, cfg, seed)
    else:
        report = _verify_first_order(spec, mode, cfg)
    report.millis = (time.perf_counter() - start) * 1000
    return report


def _verify_first_order(spec, mode, cfg) -> CheckReport:
    ev, check = relation_check(
        spec.relation, spec.program, spec.bound, mode, cfg
    )
    try:
        verdict = check()
    finally:
        ev.close()
    return CheckReport(
        name=spec.name,
        relation=spec.relation.value,
        verdict="holds" if verdict.holds else "fails",
        domain=cfg.to_json(),
        max_cost=verdict.max_cost,
        min_cost=verdict.min_cost,
        counterexample=verdict.witness.to_json() if verdict.witness else None,
        note=verdict.note or spec.note,
        counters=_table_counters(ev),
        monoid=spec.program.monoid,
    )


# ---------------------------------------------------------------------------
# Hypothesis-filtered verification
# ---------------------------------------------------------------------------


def _first_order(ty) -> bool:
    """Whether values of ``ty`` hold no suspension."""
    match ty:
        case UTy():
            return False
        case ProdTy(a, b) | SumTy(a, b):
            return _first_order(a) and _first_order(b)
        case ListTy(elem, _):
            return _first_order(elem)
    return True


def _key_points(spec, inner_ty, hyp_ev, concl_ev) -> Optional[tuple]:
    """The points at which a candidate of type ``inner_ty`` for ``spec``
    is keyed by its behaviour: ``()`` for a computation of type ``F τ``,
    every value of ``A`` for a function of type ``A → F τ``; None where
    candidates get no key.

    A state denotation is a Python function, and a result holding a
    suspension is compared by identity, so neither makes a key.  Nor
    does a spec or hypothesis whose result may hold a suspension: the
    decider forces it in an evaluator of its own, whose applications of
    the candidate the guard never reads.  An extensional key is too
    coarse for a cost-counting relation, so both relations must run in
    the mode the key is computed in.
    """
    if spec.program.theory.kind == "state" or hyp_ev.mode is not concl_ev.mode:
        return None
    if not all(_first_order(unfold_arrows(p.declared_ty)[1].value)
               for p in (spec.program, spec.hypothesis.program)):
        return None
    match inner_ty:
        case FTy(res) if _first_order(res):
            return ()
        case ArrowTy(dom, FTy(res)) if _first_order(dom) and _first_order(res):
            try:
                return tuple(enumerate_value_ty(dom, hyp_ev.cfg))
            except EvalError as e:  # as ``pointwise`` refuses its inputs
                raise OrderError(str(e))
    return None


def _behaviour_key(ev: Evaluator, cand, points):
    """``cand``'s behaviour: its raw denotation, or for a λ its raw
    denotations at ``points``; None if it gets no key.  Computed in the
    hypothesis evaluator, whose check then hits the table entries the
    λ's applications made."""
    if points is None or (points and type(cand) is not Lam):
        return None
    den = ev.force(("thunk", (), cand))
    return tuple([den(a) for a in points]) if points else den


def _applied_outside(ev: Evaluator, cand, inside) -> bool:
    """Whether ``ev`` applied the closed λ ``cand`` at a point outside
    ``inside``.  Every application of a λ is tabled in the λ's own
    table, and ``cand`` is fresh, so its table holds only this check's
    applications."""
    return any(a not in inside for a in ev.applied_at(cand))


def _verify_hypothesis(spec, mode, cfg, seed) -> CheckReport:
    hyp = spec.hypothesis
    if hyp.domain != spec.domain:
        raise OrderError(
            f"the hypothesis of spec '{spec.name}' states its own domain; "
            "it is decided over the spec's, so the two must be equal"
        )
    if (hyp.program.theory != spec.program.theory
            or hyp.program.monoid is not spec.program.monoid):
        raise OrderError(
            f"the hypothesis of spec '{spec.name}' declares its own effect "
            "theory or cost monoid; it is decided on the spec's candidate "
            "arguments, so the two must be equal"
        )
    arg_tys, _ = unfold_arrows(spec.program.declared_ty)
    if not arg_tys or not isinstance(arg_tys[0], UTy):
        raise OrderError(
            "hypothesis specs need a leading suspended argument"
        )
    inner_ty = arg_tys[0].comp
    hyp_ev, hyp_check = relation_check(
        hyp.relation, hyp.program, hyp.bound, mode, cfg
    )
    concl_ev, concl_check = relation_check(
        spec.relation, spec.program, spec.bound, mode, cfg
    )
    points = _key_points(spec, inner_ty, hyp_ev, concl_ev)
    inside = frozenset(points or ())
    # behaviour key -> (hypothesis holds, conclusion verdict)
    decided = {}
    rng = random.Random(seed)
    gen = TermGen(rng, spec.program.theory)
    admitted = 0
    distinct = 0
    failure = None
    seen = set()
    try:
        for _ in range(cfg.hyp_candidates):
            cand = gen.closed_comp(inner_ty, cfg.hyp_depth)
            if cand in seen:
                continue
            seen.add(cand)
            # candidates are born elaborated, so they go to the evaluator
            # as is
            lead = (("thunk", (), cand),)
            key = _behaviour_key(hyp_ev, cand, points)
            if key in decided:
                holds, concl = decided[key]
            else:
                distinct += 1
                holds = hyp_check(lead).holds
                concl = concl_check(lead) if holds else None
                # the evaluators observe a closed candidate only through
                # its results at the points they apply it, so one applied
                # inside the key's points decides every candidate with its
                # key
                if key is not None and not any(
                    _applied_outside(ev, cand, inside)
                    for ev in (hyp_ev, concl_ev)
                ):
                    decided[key] = holds, concl
            # `seen` skips a repeated term, so no later candidate can hit
            # the entries keyed by this one; the tables keep what
            # candidates share
            for ev in (hyp_ev, concl_ev):
                ev.forget(cand)
            if not holds:
                continue
            admitted += 1
            # a failing conclusion ends the loop, so a decided one holds
            # and a witness names the fresh candidate
            if not concl.holds:
                failure = concl
                failure.witness.input = (
                    f"argument {term_str(cand)}; inputs {concl.witness.input}"
                )
                break
    finally:
        hyp_ev.close()
        concl_ev.close()
    if failure is not None:
        verdict = "fails"
        counterexample = failure.witness.to_json()
    elif admitted < cfg.hyp_min_admitted:
        verdict = "inconclusive"
        counterexample = None
    else:
        verdict = "holds"
        counterexample = None
    note = (
        f"hypothesis-filtered: {admitted} admitted of {len(seen)} generated "
        "arguments; property-based evidence, not a proof"
    )
    return CheckReport(
        name=spec.name,
        relation=spec.relation.value,
        verdict=verdict,
        domain=cfg.to_json(),
        counterexample=counterexample,
        admitted=admitted,
        distinct=distinct,
        note=note,
        counters=_table_counters(hyp_ev, concl_ev),
    )


# ---------------------------------------------------------------------------
# Spec-helper audit and mutation
# ---------------------------------------------------------------------------


def assert_helpers_cost_free(cfg: DomainConfig = None) -> None:
    """Check that every reference ("spec") helper charges zero cost."""
    cfg = cfg or DomainConfig(nat_max=6, list_len=3, elems=3)
    for name, (term, ty) in SPEC_HELPERS.items():
        prog = Program(f"helper-{name}", PURE, SEQ_NAT, term, ty)
        _, inputs = enumerate_inputs(ty, cfg)
        outs = eval_fn(prog, EvalMode.COST_COUNTING, cfg, inputs)
        for args, out in outs.items():
            if out.cost != 0:
                raise AssertionError(
                    f"helper {name} charged cost {out.cost} on "
                    f"{[val_str(a) for a in args]}"
                )


def zero_steps(t: Term, zero=0) -> Term:
    """Strip every step charge from a term (the --mutate transformation)."""
    if isinstance(t, Step):
        return Step(CostLit(zero), zero_steps(t.body, zero))
    return map_scopes(t, lambda sub, names: (names, zero_steps(sub, zero)))


def mutate_program(p: Program) -> Program:
    return replace(p, body=zero_steps(p.body, p.monoid.zero))


def mutated_corpus(name: str):
    specs = []
    found = False
    for spec in corpus():
        if spec.program.name == name:
            found = True
            specs.append(replace(spec, program=mutate_program(spec.program)))
        else:
            specs.append(spec)
    if not found:
        raise ValueError(f"no corpus program named '{name}'")
    return tuple(specs)


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def law_report_to_json(rep: LawReport) -> dict:
    return {
        "name": f"law:{rep.law}",
        "relation": "law",
        "verdict": "holds" if rep.passed else "fails",
        "domain": {"trials": rep.trials, "theory": rep.theory},
        "max_cost": None,
        "min_cost": None,
        "millis": round(rep.millis, 3),
        **({"counterexample": {"explanation": rep.failures[0]}}
           if rep.failures else {}),
    }


def run_all(
    mode: EvalMode = EvalMode.COST_COUNTING,
    spec_name: Optional[str] = None,
    domain_override: Optional[dict] = None,
    seed: int = 0,
    trials: int = 500,
    mutate: Optional[str] = None,
):
    """Run the corpus (and the law suite unless filtered) and collect reports.

    Returns (spec_reports, law_reports, exit_code).
    """
    if trials < 1:
        # refused before any spec runs, not after the whole corpus
        raise ValueError("trials must be at least 1")
    specs = mutated_corpus(mutate) if mutate else corpus()
    if spec_name is not None:
        specs = tuple(s for s in specs if s.name == spec_name)
        if not specs:
            raise ValueError(f"no spec named '{spec_name}'")
    reports = [
        verify(spec, mode=mode, domain_override=domain_override, seed=seed)
        for spec in specs
    ]
    law_reports = []
    if spec_name is None:
        for law in catalog():
            law_reports.append(check_law(law, trials=trials, seed=seed,
                                         mode=mode))
    ok = all(r.ok for r in reports) and all(l.passed for l in law_reports)
    return reports, law_reports, 0 if ok else 1


def format_table(reports, law_reports) -> str:
    lines = []
    width = max([len(r.name) for r in reports] + [24])
    for r in reports:
        cost = ""
        if r.max_cost is not None:
            show = r.monoid.show
            cost = f"  cost[{show(r.min_cost)}..{show(r.max_cost)}]"
        admitted = f"  admitted={r.admitted}" if r.admitted is not None else ""
        lines.append(
            f"{r.name:<{width}} {r.relation:<10} {r.verdict:<12}"
            f"{cost}{admitted}  {r.millis:9.1f} ms"
        )
        if r.counterexample:
            lines.append(f"{'':<{width}}   counterexample: "
                         f"{r.counterexample.get('input', '')}")
            lines.append(f"{'':<{width}}     lhs {r.counterexample.get('lhs', '')}")
            lines.append(f"{'':<{width}}     rhs {r.counterexample.get('rhs', '')}")
            lines.append(f"{'':<{width}}     {r.counterexample.get('explanation', '')}")
    if law_reports:
        passed = sum(1 for l in law_reports if l.passed)
        lines.append("")
        lines.append(f"laws: {passed}/{len(law_reports)} passed")
        for l in law_reports:
            if not l.passed:
                lines.append(f"  law {l.law} FAILED: {l.failures[0]}")
    n_ok = sum(1 for r in reports if r.ok)
    lines.append("")
    lines.append(f"specs: {n_ok}/{len(reports)} hold")
    return "\n".join(lines)


def reports_to_json(reports, law_reports) -> str:
    payload = [r.to_json() for r in reports]
    payload += [law_report_to_json(l) for l in law_reports]
    return json.dumps(payload, indent=2)
