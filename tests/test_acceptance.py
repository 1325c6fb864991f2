"""Acceptance suite: every shipped guarantee, checked end to end.

Each test prints one PASS line (visible under ``pytest -s``); a failing
criterion fails its test instead.  All arithmetic is exact; tolerances
are zero throughout.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import nat, natlist, program_evaluator

from stepbound.corpus import (
    BINOMIAL, BRANCH_EXAMPLE, BRANCH_EXAMPLE_BOUND, BRANCH_EXAMPLE_UNIT,
    BRANCH_EXAMPLE_UNIT_BOUND, DOUBLE, ISORT, MSORT, corpus,
)
from stepbound.costs import SEQ_NAT, WORK_SPAN
from stepbound.gen import gen_dist, gen_outcome, raise_outcome
from stepbound.harness import verify
from stepbound.laws import catalog, check_law, mutant_catalog
from stepbound.order import (
    Relation, dist_leq_flow, eq_outcome, leq_outcome, relation_check,
    transportation_oracle,
)
from stepbound.semantics import (
    DomainConfig, EvalMode, ProbOutcome, evaluate,
)
from stepbound.syntax import (
    BoolLit, CostLit, FTy, Par, ProdTy, Program, PROB, PURE, Ret, Step, NAT,
    BOOL,
)

COST = EvalMode.COST_COUNTING
EXT = EvalMode.EXTENSIONAL


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_corpus_conformance(check_json):
    # the spec entries of `stepbound check --seed 0` in cost mode, a run
    # shared with the pinned cost report
    _, entries = check_json("cost")
    specs = [e for e in entries if e["relation"] != "law"]
    assert [e["name"] for e in specs] == [s.name for s in corpus()]
    failures = [(e["name"], e["verdict"], e.get("counterexample"))
                for e in specs if e["verdict"] != "holds"]
    elapsed = sum(e["millis"] for e in specs) / 1000
    assert not failures, failures
    assert elapsed <= 300, f"corpus run took {elapsed:.0f}s (limit 300s)"
    report(1, f"all {len(corpus())} bound specs hold on their default "
              f"domains in {elapsed:.1f}s")


def test_criterion_2_double_closed_form():
    ev, body = program_evaluator(DOUBLE, COST, DomainConfig(nat_max=16))
    for n in range(17):
        out = ev.outcome(body, (nat(n),))
        assert (out.cost, out.value) == (n, nat(2 * n)), n
    report(2, "doubling costs exactly n and returns 2n for all n <= 16")


def test_criterion_3_isort_exact_worst_case():
    ev, body = program_evaluator(ISORT, COST, DomainConfig())
    for k in range(7):
        reverse_sorted = natlist(list(range(k))[::-1])
        out = ev.outcome(body, (reverse_sorted,))
        expected = k * (k - 1) // 2
        assert out.cost == expected, (k, out.cost)
        assert out.cost <= k * k
        assert out.cost >= k - 1
    report(3, "insertion sort on reverse-sorted inputs of length k <= 6 "
              "costs exactly k(k-1)/2, inside both stated bounds")


def test_criterion_4_sublist_binomial_and_coupling():
    spec = next(s for s in corpus() if s.name == "sublist-binomial")
    rep = verify(spec)
    assert rep.verdict == "holds"
    # binomial n is bounded by a point mass at n, decided by the
    # transportation oracle itself
    cfg = DomainConfig()
    ev, body = program_evaluator(BINOMIAL, COST, cfg)
    rel = lambda a, b: a[1] == b[1] and a[0] <= b[0]
    for n in range(9):
        binom = ev.outcome(body, (nat(n),))
        point = [((n, ("unit",)), Fraction(1))]
        assert transportation_oracle(list(binom.dist), point, rel), n
        if n > 0:  # the reversed direction must be infeasible
            assert not transportation_oracle(point, list(binom.dist), rel), n
    report(4, "random-sublist cost equals the binomial distribution on "
              "all 511 lists (length <= 8 over {0,1}); binomial n stays "
              "under a point mass at n by explicit coupling for n <= 8")


def test_criterion_5_pervasive_nondeterminism():
    e_bool = evaluate(BRANCH_EXAMPLE)
    bound_bool = evaluate(BRANCH_EXAMPLE_BOUND)
    e_unit = evaluate(BRANCH_EXAMPLE_UNIT)
    bound_unit = evaluate(BRANCH_EXAMPLE_UNIT_BOUND)
    assert leq_outcome(e_bool, bound_bool).holds
    assert leq_outcome(e_unit, bound_unit).holds
    rev_bool = leq_outcome(bound_bool, e_bool)
    rev_unit = leq_outcome(bound_unit, e_unit)
    assert not rev_bool.holds and rev_bool.witness is not None
    assert not rev_unit.holds and rev_unit.witness is not None
    report(5, "both branching-example bounds hold and both reversed "
              "directions fail with explicit witnesses")


def test_criterion_6_law_suite_with_mutants():
    for law in catalog():
        rep = check_law(law, trials=500, seed=0)
        assert rep.passed, (law.name, rep.failures[:1])
    for law in catalog():
        rep = check_law(law, trials=200, seed=0, mode=EXT)
        assert rep.passed, (law.name, rep.failures[:1])
    caught = 0
    for mutant in mutant_catalog():
        rep = check_law(mutant, trials=200, seed=0)
        assert not rep.passed, mutant.name
        caught += 1
    assert caught == 5
    report(6, "25/25 effect laws pass 500 seeded trials (and 200 in "
              "extensional mode); all 5 mutant laws are refuted")


def test_criterion_7_preorder_properties():
    rng = random.Random(2024)
    kinds = ("pure", "nondet", "prob", "state")
    for _ in range(1000):
        out = gen_outcome(rng, rng.choice(kinds))
        assert leq_outcome(out, out).holds
    for _ in range(1000):
        a = gen_outcome(rng, rng.choice(kinds))
        b = raise_outcome(rng, a)
        c = raise_outcome(rng, b)
        assert leq_outcome(a, b).holds and leq_outcome(b, c).holds
        assert leq_outcome(a, c).holds
    for _ in range(1000):
        kind = rng.choice(kinds)
        a = gen_outcome(rng, kind)
        b = raise_outcome(rng, a) if rng.random() < 0.5 else \
            gen_outcome(rng, kind)
        assert eq_outcome(a, b).holds == (
            leq_outcome(a, b).holds and leq_outcome(b, a).holds
        )
    # extensional collapse over the corpus: every spec that holds with
    # costs counted is an equality once cost is erased
    for spec in corpus():
        rep = verify(spec, mode=EXT)
        assert rep.verdict == "holds", (spec.name, rep.verdict)
    report(7, "reflexivity, transitivity and eq-iff-mutual-leq verified "
              "on 1000 generated instances each; the whole corpus "
              "collapses to equalities in extensional mode")


def test_criterion_8_oracle_agreement():
    rng = random.Random(4096)
    disagreements = 0
    for i in range(1000):
        a = ProbOutcome(PROB, SEQ_NAT, COST, gen_dist(rng))
        if rng.random() < 0.5:
            b = raise_outcome(rng, a)
        else:
            b = ProbOutcome(PROB, SEQ_NAT, COST, gen_dist(rng))
        if leq_outcome(a, b).holds != dist_leq_flow(a.dist, b.dist):
            disagreements += 1
    assert disagreements == 0
    report(8, "CDF fast path and max-flow transportation oracle agree on "
              "1000 random rational distribution pairs")


def test_criterion_9_isort_msort_extensionally_equal():
    start = time.monotonic()
    _, check = relation_check(Relation.EXT_EQUAL, ISORT, MSORT,
                              cfg=DomainConfig(list_len=5, elems=5))
    verdict = check()
    elapsed = time.monotonic() - start
    assert verdict.holds
    assert elapsed <= 30, f"took {elapsed:.1f}s (limit 30s)"
    report(9, "insertion sort and merge sort agree extensionally on all "
              f"3906 lists of length <= 5 over {{0..4}} in {elapsed:.1f}s")


def test_criterion_10_parallel_composition_law():
    ty = FTy(ProdTy(NAT, BOOL))
    a, b = Ret(nat_term(4)), Ret(BoolLit(True))
    for w1, s1, w2, s2 in itertools.product(range(9), repeat=4):
        c1, c2 = (w1, s1), (w2, s2)
        lhs = Program("lhs", PURE, WORK_SPAN,
                      Par(Step(CostLit(c1), a), Step(CostLit(c2), b)), ty)
        combined = WORK_SPAN.par(c1, c2)
        rhs = Program(
            "rhs", PURE, WORK_SPAN,
            Step(CostLit(combined),
                 Ret(pair_term(nat_term(4), BoolLit(True)))), ty,
        )
        out_l = evaluate(lhs)
        out_r = evaluate(rhs)
        assert eq_outcome(out_l, out_r).holds, (c1, c2)
    report(10, "parallel composition of charged returns equals the "
               "work-sum/span-max charge for all costs with components "
               "<= 8 (6561 instances)")


def nat_term(n):
    from stepbound.syntax import nat_lit

    return nat_lit(n)


def pair_term(x, y):
    from stepbound.syntax import Pair

    return Pair(x, y)
