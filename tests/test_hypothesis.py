"""Hypothesis specs decide each candidate behaviour once, exactly.

``harness._verify_hypothesis`` reuses the decision of an earlier candidate
with the same behaviour key.  The reference loop below decides every
generated term, as the harness did before keys existed; the reports must
agree on everything but the table counters and ``distinct``.
"""

import dataclasses
import random

import pytest

from conftest import live_keys
from stepbound import harness
from stepbound.corpus import BoundSpec, Relation, corpus
from stepbound.costs import SEQ_NAT
from stepbound.gen import TermGen
from stepbound.harness import CheckReport, verify
from stepbound.order import relation_check
from stepbound.semantics import DomainConfig, EvalMode, Evaluator
from stepbound.syntax import (
    CostLit, Lam, Program, Ret, Step, Triv, parse, scopes, term_str,
    unfold_arrows,
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
    hyp_ev, hyp_check = relation_check(
        hyp.relation, hyp.program, hyp.bound, mode, cfg
    )
    concl_ev, concl_check = relation_check(
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


# -- the tables across candidates -------------------------------------------------


def _term_ids(t) -> set:
    """The ids of ``t``'s nodes."""
    ids, todo = set(), [t]
    while todo:
        node = todo.pop()
        ids.add(id(node))
        todo.extend(sub for _, sub, _ in scopes(node))
    return ids


def _holds_any(x, ids) -> bool:
    """Whether the value ``x``, walked through its tuples, holds an
    object whose id is in ``ids``."""
    if type(x) is tuple:
        return any(_holds_any(y, ids) for y in x)
    return id(x) in ids


def _held_ids(ev, memo) -> set:
    """The ids of the nodes of every term ``ev``'s ``_compiled`` or
    ``_bodies`` holds; ``memo`` keeps each term's ids with the term."""
    held = set()
    for term in ([t for t, _ in ev._compiled.values()]
                 + [b for b, _, _ in ev._bodies.values()]):
        if id(term) not in memo:
            memo[id(term)] = term, _term_ids(term)
        held |= memo[id(term)][1]
    return held


def _verify_capturing(spec, mode, candidates, monkeypatch):
    """``verify(spec)`` at seed 0 with ``hyp_candidates`` set, with the
    live size and keys of each table it built, taken just before the
    check closed its evaluator, the candidates it drew, and after each
    ``forget`` whether every id in the node-table registry named a node
    of a held term and whether ``_compiled`` still held a node of the
    candidate."""
    made, drawn, closing, forgets, memo = [], [], {}, [], {}
    real_check, real_draw = harness.relation_check, TermGen.closed_comp
    real_close, real_forget = Evaluator.close, Evaluator.forget

    def check(*args):
        made.append(real_check(*args))
        return made[-1]

    def draw(self, ty, depth):
        drawn.append(real_draw(self, ty, depth))
        return drawn[-1]

    def close(self):
        keys = live_keys(self)
        closing.setdefault(self, (len(keys), keys))
        real_close(self)

    def forget(self, cand):
        real_forget(self, cand)
        forgets.append((
            self._tables.keys() <= _held_ids(self, memo),
            not _term_ids(cand) & self._compiled.keys(),
        ))

    monkeypatch.setattr(harness, "relation_check", check)
    monkeypatch.setattr(TermGen, "closed_comp", draw)
    monkeypatch.setattr(Evaluator, "close", close)
    monkeypatch.setattr(Evaluator, "forget", forget)
    report = verify(spec, mode=mode,
                    domain_override={"hyp_candidates": candidates})
    return report, [closing[ev] for ev, _ in made], drawn, forgets


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("spec", HYP_SPECS, ids=lambda s: s.name)
def test_live_tables_are_bounded_by_the_scope(spec, mode, monkeypatch):
    # each candidate's entries are forgotten once it is decided, so the
    # tables end holding what the candidates share, however many ran;
    # the check then closes its evaluators, so the tables are read as
    # they stood just before
    few, few_tables, _, _ = _verify_capturing(spec, mode, 100, monkeypatch)
    many, many_tables, drawn, forgets = _verify_capturing(spec, mode, 500,
                                                          monkeypatch)
    assert len(drawn) == 500
    # forgetting a candidate drops its closures too, and leaves every id
    # in the node-table registry on a node of a term the evaluator holds
    assert len(forgets) == 2 * len(set(drawn))
    assert all(held for held, _ in forgets)
    assert all(dropped for _, dropped in forgets)
    ids = set().union(*map(_term_ids, drawn))
    for _, keys in many_tables:
        assert not any(k[0] in ids or _holds_any(k[1:], ids) for k in keys)
    assert ([live for live, _ in few_tables]
            == [live for live, _ in many_tables])
    # while the counters count every entry made: more candidates decided
    # afresh make more entries (twice-hypothesis in ext mode meets all of
    # its 16 behaviours, and so makes all of its entries, in the first 100)
    grew = many.counters["table_entries"] - few.counters["table_entries"]
    assert grew > 0 if many.distinct > few.distinct else grew >= 0
    assert few.counters["table_entries"] >= sum(
        live for live, _ in few_tables)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("spec", HYP_SPECS, ids=lambda s: s.name)
def test_forget_leaves_no_entry_holding_the_candidate(spec, mode,
                                                      monkeypatch):
    # right after each forget, no live (node, captured, argument) names a
    # node of the candidate or holds one, its thunk included: the
    # candidate's own tables go, and so do the groups that captured its
    # thunk and the entries applied to it
    real_forget, left, forgets = Evaluator.forget, [], []

    def forget(self, cand):
        real_forget(self, cand)
        ids = _term_ids(cand)
        forgets.append(cand)
        left.extend(k for k in live_keys(self)
                    if k[0] in ids or _holds_any(k[1:], ids))

    monkeypatch.setattr(Evaluator, "forget", forget)
    for seed in range(3):
        verify(spec, mode=mode, seed=seed)
    assert forgets and not left


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
