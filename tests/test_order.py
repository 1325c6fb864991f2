"""Approximation preorder and equality deciders."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import nat, natlist

from stepbound.corpus import (
    BRANCH_EXAMPLE_UNIT, BRANCH_EXAMPLE_UNIT_BOUND, ISORT, ISORT_BOUND,
    ISORT_LOWER_BOUND, LOOKUP, LOOKUP_BOUND, corpus,
)
from stepbound.costs import SEQ_NAT
from stepbound.gen import TermGen, gen_dist, gen_outcome, raise_outcome, random_theory
from stepbound.order import (
    OrderError, Relation, _Canon, cdf_dominates, dist_leq_flow, eq_outcome,
    leq_outcome, relation_check, transportation_oracle,
)
from stepbound.costs import WORK_SPAN
from stepbound.semantics import (
    Dist, DomainConfig, EvalError, EvalMode, NondetOutcome, ProbOutcome,
    PureOutcome, StateOutcome, evaluate,
)
from stepbound.syntax import (
    ArrowTy, Bind, CostLit, Flip, FTy, Lam, NAT, NONDET, NatRec, PROB, PURE,
    Program, Ret, Step, UTy, Var, nat_lit, state_theory,
)

COST = EvalMode.COST_COUNTING


def pure(cost, value):
    return PureOutcome(PURE, SEQ_NAT, COST, cost, value)


def nd(*pairs):
    return NondetOutcome(NONDET, SEQ_NAT, COST, frozenset(pairs))


def prob(d):
    return ProbOutcome(PROB, SEQ_NAT, COST, Dist(d))


UNIT_VAL = ("unit",)


def test_pure_cost_relaxes():
    lo = pure(2, natlist([1, 2]))
    hi = pure(3, natlist([1, 2]))
    assert leq_outcome(lo, hi).holds
    assert not leq_outcome(hi, lo).holds


def test_pure_values_fixed():
    assert not leq_outcome(pure(1, nat(1)), pure(2, nat(2))).holds


def test_egli_milner_branch_example():
    lhs = nd((3, ("bool", True)), (12, ("bool", False)))
    rhs = nd((12, ("bool", True)), (12, ("bool", False)))
    assert leq_outcome(lhs, rhs).holds
    rev = leq_outcome(rhs, lhs)
    assert not rev.holds and rev.witness is not None


def test_empty_relates_only_to_empty():
    v = leq_outcome(nd(), nd((0, UNIT_VAL)))
    assert not v.holds
    assert leq_outcome(nd(), nd()).holds
    assert not leq_outcome(nd((0, UNIT_VAL)), nd()).holds


def test_prob_coupling_basic():
    lhs = prob({(0, UNIT_VAL): Fraction(1, 2), (1, UNIT_VAL): Fraction(1, 2)})
    rhs = prob({(1, UNIT_VAL): Fraction(1)})
    assert leq_outcome(lhs, rhs).holds
    back = leq_outcome(rhs, lhs)
    assert not back.holds and back.witness is not None


def test_prob_mass_must_match_per_value():
    lhs = prob({(0, nat(0)): Fraction(1, 2), (0, nat(1)): Fraction(1, 2)})
    rhs = prob({(1, nat(0)): Fraction(1)})
    assert not leq_outcome(lhs, rhs).holds


def test_theory_mismatch_raises():
    with pytest.raises(OrderError):
        leq_outcome(pure(0, UNIT_VAL), nd((0, UNIT_VAL)))


def test_mode_mismatch_raises_in_either_order():
    # a suspension is forced under the left side's mode, so outcomes of
    # two modes would be related by whichever side came first
    ty = FTy(UTy(FTy(NAT)))
    ext = evaluate(Program("a", PURE, SEQ_NAT,
                           Ret(Step(CostLit(1), Ret(nat_lit(0)))), ty),
                   EvalMode.EXTENSIONAL)
    cost = evaluate(Program("b", PURE, SEQ_NAT, Ret(Ret(nat_lit(0))), ty),
                    COST)
    for decide in (leq_outcome, eq_outcome):
        for lhs, rhs in ((ext, cost), (cost, ext)):
            with pytest.raises(OrderError, match="mode mismatch"):
                decide(lhs, rhs)


def holds(relation, program, bound, mode, cfg):
    """Whether ``relation`` holds between the two programs, pointwise over
    the enumerated input domain."""
    return relation_check(relation, program, bound, mode, cfg)[1]().holds


def test_program_type_mismatch_raises():
    with pytest.raises(OrderError, match="different types"):
        relation_check(Relation.LEQ_UPPER, ISORT, LOOKUP)


def test_domain_cap_is_enforced():
    with pytest.raises(OrderError):
        holds(Relation.LEQ_UPPER, ISORT, ISORT_BOUND, COST,
              DomainConfig(list_len=5, elems=5, input_cap=100))


def test_eq_outcome_reflexive_and_symmetric_negative():
    a = nd((1, nat(2)), (3, nat(2)))
    assert eq_outcome(a, a).holds
    b = nd((1, nat(2)))
    assert not eq_outcome(a, b).holds


def test_nondet_equality_quotients_by_order_equivalence():
    # costs {0,1,4} and {0,2,4} at one value relate both ways under the
    # Egli-Milner lifting; equality must identify them (and only such
    # pairs), comparing min/max cost antichains per value
    a = nd((0, nat(2)), (1, nat(2)), (4, nat(2)))
    b = nd((0, nat(2)), (2, nat(2)), (4, nat(2)))
    assert leq_outcome(a, b).holds and leq_outcome(b, a).holds
    assert eq_outcome(a, b).holds
    c = nd((0, nat(2)), (5, nat(2)))
    assert not eq_outcome(a, c).holds


def test_transportation_point_mass():
    rel = lambda a, b: a <= b
    assert transportation_oracle([(0, Fraction(1))], [(0, Fraction(1))], rel)


def test_transportation_binomial_one_instance():
    # binomial(1) cost law: {0: 1/2, 1: 1/2} moves onto a point mass at 1,
    # scaling by the common denominator 2 gives an integral flow of value 2
    lhs = [(0, Fraction(1, 2)), (1, Fraction(1, 2))]
    rhs = [(1, Fraction(1))]
    rel = lambda a, b: a <= b
    assert transportation_oracle(lhs, rhs, rel)
    # reversed: the mass at cost 1 cannot move down to 0
    assert not transportation_oracle(rhs, lhs, rel)


def test_cdf_dominates_direction():
    low = [(0, Fraction(1, 2)), (1, Fraction(1, 2))]
    high = [(1, Fraction(1))]
    assert cdf_dominates(low, high)
    assert not cdf_dominates(high, low)


def _cdf_dominates_per_threshold(lhs, rhs):
    # the definition: at every threshold of the joint support, the left
    # CDF is at least the right one
    for t in sorted({c for c, _ in lhs} | {c for c, _ in rhs}):
        if sum(w for c, w in lhs if c <= t) < sum(w for c, w in rhs if c <= t):
            return False
    return True


def _cost_list(rng, costs, mass):
    raw = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 5))]
    return [(rng.choice(costs), mass * Fraction(r, sum(raw))) for r in raw]


def test_cdf_dominates_matches_the_per_threshold_definition():
    rng = random.Random(307)
    seen = {True: 0, False: 0}
    for i in range(1500):
        mass = Fraction(rng.randrange(1, 4), rng.randrange(1, 4))
        case = i % 3
        if case == 0:  # shared costs, repeated within a list too
            lhs = _cost_list(rng, range(4), mass)
            rhs = _cost_list(rng, range(4), mass)
        elif case == 1:  # disjoint supports, either side lower
            lo, hi = range(0, 3), range(3, 6)
            if rng.random() < 0.5:
                lo, hi = hi, lo
            lhs, rhs = _cost_list(rng, lo, mass), _cost_list(rng, hi, mass)
        else:  # ties: the same law, shuffled and with weights split
            lhs = _cost_list(rng, range(4), mass)
            rhs = []
            for c, w in lhs:
                rhs += [(c, w / 2), (c, w / 2)] if rng.random() < 0.5 else [(c, w)]
            rng.shuffle(rhs)
        want = _cdf_dominates_per_threshold(lhs, rhs)
        assert cdf_dominates(lhs, rhs) == want, (lhs, rhs)
        seen[want] += 1
    assert min(seen.values()) > 300


# printed while `Dist` still sorted on construction; the mappings are
# inserted out of print order on purpose
_WITNESS_LHS = "{(0, [2]) -> 1/4, (2, 1) -> 1/3, (3, [1 0]) -> 1/6, (4, 0) -> 1/4}"
_WITNESS_RHS = "{(1, [1 0]) -> 1/6, (1, 1) -> 1/3, (2, 0) -> 1/4, (3, [2]) -> 1/4}"


def _witness_pair():
    lhs = prob({
        (3, natlist([1, 0])): Fraction(1, 6), (2, nat(1)): Fraction(1, 3),
        (0, natlist([2])): Fraction(1, 4), (4, nat(0)): Fraction(1, 4),
    })
    rhs = prob({
        (2, nat(0)): Fraction(1, 4), (1, nat(1)): Fraction(1, 3),
        (3, natlist([2])): Fraction(1, 4), (1, natlist([1, 0])): Fraction(1, 6),
    })
    return lhs, rhs


@pytest.mark.parametrize("decide, explanation", [
    # values 0, 1 and [1 0] all fail; 1 is the first in print order
    (leq_outcome,
     "cost distribution at value 1 is not stochastically below the "
     "right-hand one"),
    (eq_outcome, "distributions differ"),
])
def test_prob_witness_text_is_pinned(decide, explanation):
    w = decide(*_witness_pair()).witness
    assert (w.explanation, w.lhs, w.rhs) == (
        explanation, _WITNESS_LHS, _WITNESS_RHS
    )


def test_prob_mass_witness_names_the_first_value_in_print_order():
    # both values carry different mass on each side; value 1 prints first
    # on the left (at cost 0), though value 0 is inserted first
    lhs = prob({(1, nat(0)): Fraction(1, 3), (0, nat(1)): Fraction(2, 3)})
    rhs = prob({(0, nat(0)): Fraction(1, 2), (3, nat(1)): Fraction(1, 2)})
    w = leq_outcome(lhs, rhs).witness
    assert w.explanation == "total mass at value 1 differs: 2/3 vs 1/2"


_ONE_SIDED = """
from fractions import Fraction
from stepbound.costs import SEQ_NAT
from stepbound.order import leq_outcome
from stepbound.semantics import Dist, EvalMode, ProbOutcome
from stepbound.syntax import PROB

def prob(*values):
    dist = Dist({(0, ("nat", v)): Fraction(1, 2) for v in values})
    return ProbOutcome(PROB, SEQ_NAT, EvalMode.COST_COUNTING, dist)

print(leq_outcome(prob(0, 1), prob(2, 3)).witness.explanation)
"""


def test_one_sided_mass_witness_ignores_hash_seed():
    # values 0 and 1 sit only on the left, 2 and 3 only on the right; the
    # witness names 0, the first in print order, under any string hashing
    import os
    import subprocess
    import sys

    for hash_seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _ONE_SIDED], capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(
            "value 0 carries mass on one side only"
        ), (hash_seed, proc.stdout)


def test_fast_and_flow_prob_deciders_agree():
    rng = random.Random(101)
    for _ in range(300):
        a = gen_dist(rng)
        b = raise_outcome(rng, prob(dict(a.items))).dist if rng.random() < 0.5 \
            else gen_dist(rng)
        fast = leq_outcome(prob(dict(a.items)), prob(dict(b.items))).holds
        assert fast == dist_leq_flow(a, b)


def _hall_feasible(lhs, rhs, rel):
    # independent characterization of transport feasibility: every subset
    # of the left support must fit inside its neighborhood's mass
    import itertools as it

    if sum(w for _, w in lhs) != sum(w for _, w in rhs):
        return False
    for r in range(1, len(lhs) + 1):
        for subset in it.combinations(range(len(lhs)), r):
            mass = sum(lhs[i][1] for i in subset)
            neigh = sum(
                w for b, w in rhs
                if any(rel(lhs[i][0], b) for i in subset)
            )
            if mass > neigh:
                return False
    return True


def test_flow_decider_matches_hall_condition():
    rng = random.Random(211)
    rel = lambda a, b: a[1] == b[1] and a[0] <= b[0]
    for _ in range(200):
        a = list(gen_dist(rng))
        b = list(gen_dist(rng))
        assert transportation_oracle(a, b, rel) == _hall_feasible(a, b, rel)


def test_leq_outcome_reflexive_on_generated():
    rng = random.Random(103)
    for _ in range(400):
        kind = rng.choice(("pure", "nondet", "prob", "state"))
        out = gen_outcome(rng, kind)
        assert leq_outcome(out, out).holds


def test_leq_outcome_transitive_on_generated_chains():
    rng = random.Random(107)
    for _ in range(400):
        kind = rng.choice(("pure", "nondet", "prob", "state"))
        a = gen_outcome(rng, kind)
        b = raise_outcome(rng, a)
        c = raise_outcome(rng, b)
        assert leq_outcome(a, b).holds
        assert leq_outcome(b, c).holds
        assert leq_outcome(a, c).holds


THEORIES = {"pure": PURE, "nondet": NONDET, "prob": PROB,
            "state": state_theory(NAT)}
SUSP_CFG = DomainConfig(nat_max=3, state_max=2)


def _thunk(monoid, comp):
    """The suspension that ``ret (thunk comp)`` returns, elaborated."""
    ty = FTy(UTy(FTy(NAT)))
    return evaluate(Program("t", PURE, monoid, Ret(comp), ty)).value


def _thunk_pool(monoid):
    """Per nat ``n < 2``: ``ret n``, the equivalent ``bind (ret n) x. ret x``,
    and ``step^1 (ret n)``, which differs from both in cost."""
    one = CostLit(monoid.scale(1))
    return [
        [_thunk(monoid, c) for c in (
            Ret(nat_lit(n)),
            Bind(Ret(nat_lit(n)), "x", Ret(Var("x"))),
            Step(one, Ret(nat_lit(n))),
        )]
        for n in range(2)
    ]


def _remap(out, monoid, cost, value):
    """``out`` over ``monoid``, with every cost and value mapped; its
    theory, mode and domain carried over."""
    match out:
        case PureOutcome():
            return replace(out, monoid=monoid, cost=cost(out.cost),
                           value=value(out.value))
        case NondetOutcome():
            return replace(out, monoid=monoid, branches=frozenset(
                (cost(c), value(v)) for c, v in out.branches))
        case ProbOutcome():
            acc: dict = {}
            for (c, v), w in out.dist:
                key = (cost(c), value(v))
                acc[key] = acc.get(key, 0) + w
            return replace(out, monoid=monoid, dist=Dist(acc))
        case StateOutcome():
            return replace(out, monoid=monoid, table=tuple(
                (s0, (cost(c), s1, value(v))) for s0, (c, s1, v) in out.table
            ))


def _varied_pair(rng, kind, pools):
    """Two generated outcomes of ``kind`` (the second often equal to or
    raised from the first), over nat costs or work/span costs, with nat
    values or suspensions drawn independently from the thunk pools; and
    whether the two are equivalent by construction.  Suspensions are
    compared over ``SUSP_CFG``."""
    fresh = lambda: replace(gen_outcome(rng, kind), cfg=SUSP_CFG)
    a = fresh()
    r = rng.random()
    b = a if r < 0.25 else raise_outcome(rng, a) if r < 0.6 else fresh()
    monoid = rng.choice((SEQ_NAT, WORK_SPAN))
    if monoid is WORK_SPAN:
        span = [rng.randrange(3) for _ in range(16)]
        cost = lambda c: (c, span[c])
    else:
        cost = lambda c: c
    width = rng.randrange(4)  # how many of each nat's thunks to draw from
    if width == 0:
        value = lambda v: v
    else:
        # nats of equal parity share a pool, so that distinct values can
        # become equivalent suspensions and must merge
        value = lambda v: rng.choice(pools[monoid][v[1] % 2][:width])
    return (_remap(a, monoid, cost, value), _remap(b, monoid, cost, value),
            b is a and width <= 2)


def test_eq_iff_leq_both_ways():
    rng = random.Random(109)
    pools = {m: _thunk_pool(m) for m in (SEQ_NAT, WORK_SPAN)}
    for _ in range(300):
        kind = rng.choice(("pure", "nondet", "prob", "state"))
        a, b, equivalent = _varied_pair(rng, kind, pools)
        eq = eq_outcome(a, b).holds
        both = leq_outcome(a, b).holds and leq_outcome(b, a).holds
        assert eq == both
        assert eq or not equivalent


def test_work_span_coupling_matches_hall_condition():
    # Strassen (1965): a coupling on the base order exists iff every set
    # of left support points fits in the mass of its neighbourhood
    rng = random.Random(223)
    rel = lambda a, b: a[1] == b[1] and WORK_SPAN.leq(a[0], b[0])
    checked = held = 0
    for _ in range(400):
        a = gen_outcome(rng, "prob")
        b = raise_outcome(rng, a) if rng.random() < 0.5 else gen_outcome(rng, "prob")
        if len(b.dist) > 4:  # a raise can split mass past the size bound
            continue
        span = [rng.randrange(3) for _ in range(16)]
        a, b = (_remap(o, WORK_SPAN, lambda c: (c, span[c]), lambda v: v)
                for o in (a, b))
        holds = leq_outcome(a, b).holds
        assert holds == _hall_feasible(list(a.dist), list(b.dist), rel)
        checked += 1
        held += holds
    assert checked >= 300 and 30 <= held <= checked - 30


def ws_prob(d):
    return ProbOutcome(PROB, WORK_SPAN, COST, Dist(d))


def test_a_work_span_coupling_failure_names_its_value():
    half = Fraction(1, 2)
    lhs = ws_prob({((1, 0), nat(0)): half, ((0, 0), nat(1)): half})
    rhs = ws_prob({((0, 1), nat(0)): half, ((0, 0), nat(1)): half})
    assert leq_outcome(lhs, rhs).witness.explanation == (
        "cost distribution at value 0 is not stochastically below the "
        "right-hand one"
    )
    assert leq_outcome(lhs, lhs).holds


def test_a_flow_moves_mass_it_has_already_placed():
    # (0 0) fits under both right keys and (1 0) under (1 0) alone, so a
    # first path from (0 0) to (1 0) must be undone
    lhs = [((0, 0), 1), ((1, 0), 1)]
    assert transportation_oracle(lhs, [((1, 0), 1), ((0, 5), 1)], WORK_SPAN.leq)
    assert not transportation_oracle(
        lhs, [((0, 5), 1), ((0, 6), 1)], WORK_SPAN.leq
    )


def _ws_side(rng, values, masses):
    """5 to 8 distinct work/span keys over ``values``, each value's
    weights summing to ``masses[v]``."""
    keys = [((w, s), v) for w in range(3) for s in range(3) for v in values]
    while True:
        chosen = rng.sample(keys, rng.randrange(5, 9))
        if {v for _, v in chosen} == set(values):
            break
    raw = {k: rng.randrange(1, 4) for k in chosen}
    per_value = {v: sum(n for (_, u), n in raw.items() if u == v)
                 for v in values}
    return {k: masses[k[1]] * Fraction(n, per_value[k[1]])
            for k, n in raw.items()}


def test_work_span_coupling_of_several_keys_per_value_matches_hall():
    # larger supports than the generated outcomes reach: 5 to 8 keys over
    # two or three values, so a value's flow has several keys to route
    rng = random.Random(227)
    rel = lambda a, b: a[1] == b[1] and WORK_SPAN.leq(a[0], b[0])
    seen = {True: 0, False: 0}
    for _ in range(300):
        values = [nat(i) for i in range(rng.choice((2, 3)))]
        raw = [rng.randrange(1, 4) for _ in values]
        masses = {v: Fraction(n, sum(raw)) for v, n in zip(values, raw)}
        a = _ws_side(rng, values, masses)
        if rng.random() < 0.5:
            b = _ws_side(rng, values, masses)
        else:  # each key raised by at most one in work and in span
            b = {}
            for ((w, s), v), p in a.items():
                key = ((w + rng.randrange(2), s + rng.randrange(2)), v)
                b[key] = b.get(key, 0) + p
        verdict = leq_outcome(ws_prob(a), ws_prob(b))
        assert verdict.holds == _hall_feasible(list(a.items()),
                                               list(b.items()), rel)
        if not verdict.holds:
            # the value named is the first in print order that fails
            failing = [v for v in values if not _hall_feasible(
                [kv for kv in a.items() if kv[0][1] == v],
                [kv for kv in b.items() if kv[0][1] == v], rel)]
            first = min(failing, key=lambda v: (
                min(c for c, u in a if u == v), v))
            assert verdict.witness.explanation.startswith(
                f"cost distribution at value {first[1]} "
            )
        seen[verdict.holds] += 1
    assert min(seen.values()) >= 60


# suspensions ``a``, ``b`` and ``c``, returned as ``ret (thunk _)``: ``a``
# and ``b`` are equivalent; ``c`` is not, differing in cost at F type and
# in value at arrow type
SUSPENSIONS = {
    "F": (
        Ret(nat_lit(0)),
        Bind(Ret(nat_lit(0)), "x", Ret(Var("x"))),
        Step(CostLit(1), Ret(nat_lit(0))),
    ),
    "arrow": (
        Lam("x", NAT, Ret(Var("x"))),
        Lam("x", NAT, Bind(Ret(Var("x")), "y", Ret(Var("y")))),
        Lam("x", NAT, Ret(nat_lit(0))),
    ),
}
SUSPENSION_TYS = {"F": FTy(NAT), "arrow": ArrowTy(NAT, FTy(NAT))}


def _returned_thunks(kind, at, comps):
    ty = FTy(UTy(SUSPENSION_TYS[at]))
    return [
        evaluate(Program("p", THEORIES[kind], SEQ_NAT, Ret(c), ty), COST,
                 SUSP_CFG)
        for c in comps
    ]


@pytest.mark.parametrize("at", ["F", "arrow"])
@pytest.mark.parametrize("kind", ["pure", "nondet", "prob", "state"])
def test_equivalent_suspensions_relate_both_ways_and_are_equal(kind, at):
    a, b, c = _returned_thunks(kind, at, SUSPENSIONS[at])
    verdicts = [leq_outcome(a, b), leq_outcome(b, a), eq_outcome(a, b)]
    assert [v.holds for v in verdicts] == [True, True, True]
    assert all("domain-relative" in v.note for v in verdicts)
    assert not leq_outcome(a, c).holds
    assert not eq_outcome(a, c).holds


def test_prob_merges_the_mass_of_equivalent_suspensions():
    # flip(1/2, ret (thunk a), ret (thunk b)) is the point mass at the
    # thunk of a, since a and b are equivalent
    a, b, _ = SUSPENSIONS["F"]
    ty = FTy(UTy(FTy(NAT)))
    split, point = (
        evaluate(Program("p", PROB, SEQ_NAT, body, ty), COST, SUSP_CFG)
        for body in (Flip(Fraction(1, 2), Ret(a), Ret(b)), Ret(a))
    )
    assert len(split.dist) == 2
    assert leq_outcome(split, point).holds and leq_outcome(point, split).holds
    assert eq_outcome(split, point).holds


def test_canonical_prob_outcome_merges_the_weights_of_one_key():
    # a and b are equivalent suspensions, so they have one canonical key
    a, b, c = (out.dist.items[0][0][1]
               for out in _returned_thunks("prob", "F", SUSPENSIONS["F"]))
    out = ProbOutcome(PROB, SEQ_NAT, COST, Dist({
        (1, a): Fraction(1, 6), (1, b): Fraction(1, 2), (0, c): Fraction(1, 3),
    }), cfg=SUSP_CFG)
    canon = _Canon(out)
    got = canon.outcome(out).dist
    assert got == Dist({(1, canon.value(a)): Fraction(2, 3),
                        (0, canon.value(c)): Fraction(1, 3)})
    assert canon.value(a) == canon.value(b) and got.den == 3


@pytest.mark.parametrize("kind", ["pure", "nondet", "prob", "state"])
def test_thunk_capturing_a_recursor_hypothesis(kind):
    # natrec 1 (ret (thunk (ret 0))) (k, ih. ret (thunk (bind ih x. x)))
    # returns a thunk whose environment holds the hypothesis as a ``den``
    rec = NatRec(nat_lit(1), Ret(Ret(nat_lit(0))), "k", "ih",
                 Ret(Bind(Var("ih"), "x", Var("x"))))
    ty = FTy(UTy(FTy(NAT)))
    a, b, c = (
        evaluate(Program("p", THEORIES[kind], SEQ_NAT, body, ty), COST,
                 SUSP_CFG)
        for body in (rec, Ret(Ret(nat_lit(0))), Ret(Ret(nat_lit(1))))
    )
    assert leq_outcome(a, b).holds and leq_outcome(b, a).holds
    assert eq_outcome(a, b).holds
    assert not eq_outcome(a, c).holds


def test_state_suspensions_decided_from_the_outcomes_alone():
    # a state outcome carries its state theory and domain, so the thunks
    # it returns are forced over that domain with no further argument
    a, b, c = _returned_thunks("state", "F", SUSPENSIONS["F"])
    assert a.theory == state_theory(NAT) and a.cfg is SUSP_CFG
    for decide in (leq_outcome, eq_outcome):
        v = decide(a, b)
        assert v.holds and "domain-relative" in v.note
        w = decide(a, c)
        assert not w.holds
        assert w.witness.explanation == "from state 0: return values differ"


def _identity_and_clamp(cfg):
    """``ret (thunk λx. ret x)`` and ``ret (thunk λx. ret (min x 1))``
    evaluated over ``cfg``: the two suspensions agree at 0 and 1 and
    first differ at 2."""
    ty = FTy(UTy(ArrowTy(NAT, FTy(NAT))))
    clamp = NatRec(Var("x"), Ret(nat_lit(0)), "k", "ih", Ret(nat_lit(1)))
    return [
        evaluate(Program("p", PURE, SEQ_NAT, Ret(Lam("x", NAT, body)), ty),
                 COST, cfg)
        for body in (Ret(Var("x")), clamp)
    ]


def test_a_suspension_over_an_oversized_domain_is_refused_unapplied():
    # nat_max 20000 gives 20,001 points, one past the cap: the normal
    # form of each ``den`` is refused before it is applied at any
    calls = []

    def den(x):
        calls.append(x)
        return (0, x)

    cfg = DomainConfig(nat_max=20000)
    ty = ArrowTy(NAT, FTy(NAT))
    a, b = (PureOutcome(PURE, SEQ_NAT, COST, 0, ("den", ty, d), cfg=cfg)
            for d in (den, lambda x: den(x)))
    with pytest.raises(EvalError,
                       match=r"larger than the configured cap \(20000\)"):
        eq_outcome(a, b)
    assert calls == []


def test_suspensions_compared_over_the_outcomes_own_domain():
    small = _identity_and_clamp(DomainConfig(nat_max=1))
    v = eq_outcome(*small)
    assert v.holds and "domain-relative" in v.note
    assert leq_outcome(*small).holds
    larger = _identity_and_clamp(DomainConfig(nat_max=2))
    v = eq_outcome(*larger)
    assert not v.holds
    assert v.witness.explanation == "return values differ"


def test_outcomes_over_different_domains_raise():
    (a, _), (_, b) = (_identity_and_clamp(DomainConfig(nat_max=n))
                      for n in (1, 2))
    for decide in (leq_outcome, eq_outcome):
        with pytest.raises(OrderError, match="domain"):
            decide(a, b)
    # first-order outcomes too: the domain is part of what an outcome is
    c, d = (PureOutcome(PURE, SEQ_NAT, COST, 0, UNIT_VAL,
                        cfg=DomainConfig(state_max=n)) for n in (1, 2))
    with pytest.raises(OrderError, match="domain"):
        eq_outcome(c, d)
    # only the domain counts, not other settings
    e = replace(c, cfg=DomainConfig(state_max=1, hyp_candidates=7))
    assert eq_outcome(c, e).holds


def test_step_monotonicity():
    rng = random.Random(113)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(150):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        ty = gen.result_ty()
        e = gen.closed_comp(ty, 3)
        c = gen.cost()
        cc = c + rng.randrange(0, 3)
        lo = Program("lo", theory, SEQ_NAT, Step(CostLit(c), e), ty)
        hi = Program("hi", theory, SEQ_NAT, Step(CostLit(cc), e), ty)
        out_lo = evaluate(lo, COST, cfg)
        out_hi = evaluate(hi, COST, cfg)
        assert leq_outcome(out_lo, out_hi).holds


def test_bind_monotonicity():
    # if e <= e' then bind(e, f) <= bind(e', f) for generated continuations
    rng = random.Random(127)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(120):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        ty = gen.result_ty()
        e = gen.synth_comp(FTy(NAT), 3)
        delta = rng.randrange(0, 3)
        e_hi = Step(CostLit(delta), e)
        f = gen.comp({"bx": NAT}, ty, 3)
        lo = Program("lo", theory, SEQ_NAT, Bind(e, "bx", f), ty)
        hi = Program("hi", theory, SEQ_NAT, Bind(e_hi, "bx", f), ty)
        out_lo = evaluate(lo, COST, cfg)
        out_hi = evaluate(hi, COST, cfg)
        assert leq_outcome(out_lo, out_hi).holds


SORT_CFG = DomainConfig(list_len=4, elems=4)


def test_leq_program_isort_upper_and_lower():
    assert holds(Relation.LEQ_UPPER, ISORT, ISORT_BOUND, COST, SORT_CFG)
    assert holds(Relation.LEQ_LOWER, ISORT, ISORT_LOWER_BOUND, COST, SORT_CFG)


def test_leq_program_counterexample_reports_first_input():
    # the lower bound is not an upper bound: |l| - 1 < cost on most lists
    _, check = relation_check(Relation.LEQ_UPPER, ISORT, ISORT_LOWER_BOUND,
                              COST, DomainConfig(list_len=3, elems=3))
    v = check()
    assert not v.holds
    assert v.witness is not None and v.witness.input


def test_leq_program_reflexive_on_corpus():
    cfg = DomainConfig(nat_max=4, list_len=3, elems=3, state_max=4)
    for spec in corpus():
        if spec.hypothesis is not None:
            continue
        assert holds(Relation.LEQ_UPPER, spec.program, spec.program, COST, cfg)


def test_ext_equal_lookup_behavioral_spec():
    assert holds(Relation.EXT_EQUAL, LOOKUP, LOOKUP_BOUND, COST,
                 DomainConfig(nat_max=5, list_len=3, elems=3))


def test_nondet_unit_bound_and_reverse():
    out = evaluate(BRANCH_EXAMPLE_UNIT)
    bound = evaluate(BRANCH_EXAMPLE_UNIT_BOUND)
    assert leq_outcome(out, bound).holds
    rev = leq_outcome(bound, out)
    assert not rev.holds and rev.witness is not None


def test_par_composition_is_monotone():
    # relaxing either arm's cost relaxes the composition
    import itertools

    from stepbound.costs import WORK_SPAN
    from stepbound.syntax import (
        BoolLit, CostLit, FTy, Par, ProdTy, PURE, Ret, Step, BOOL, NAT,
        nat_lit,
    )

    ty = FTy(ProdTy(NAT, BOOL))

    def par_prog(c1, c2):
        body = Par(Step(CostLit(c1), Ret(nat_lit(1))),
                   Step(CostLit(c2), Ret(BoolLit(False))))
        return Program("p", PURE, WORK_SPAN, body, ty)

    rng = random.Random(151)
    for _ in range(60):
        c1 = (rng.randrange(4), rng.randrange(4))
        c2 = (rng.randrange(4), rng.randrange(4))
        d1 = (c1[0] + rng.randrange(3), c1[1] + rng.randrange(3))
        d2 = (c2[0] + rng.randrange(3), c2[1] + rng.randrange(3))
        lo = evaluate(par_prog(c1, c2))
        hi = evaluate(par_prog(d1, d2))
        assert leq_outcome(lo, hi).holds


def test_extensional_collapse_of_leq():
    # a cost-mode approximation between a program and its padded variant
    # becomes an equality once costs are erased
    rng = random.Random(131)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(80):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        ty = gen.result_ty()
        e = gen.closed_comp(ty, 3)
        lo = Program("lo", theory, SEQ_NAT, e, ty)
        hi = Program("hi", theory, SEQ_NAT, Step(CostLit(gen.cost()), e), ty)
        assert holds(Relation.LEQ_UPPER, lo, hi, COST, cfg)
        assert holds(Relation.EQUAL, lo, hi, EvalMode.EXTENSIONAL, cfg)
