"""Evaluator behavior: worked examples, step laws, mode collapse."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from conftest import live_keys, nat, natlist, program_evaluator

from stepbound.corpus import (
    BERNOULLI, BINOMIAL, BRANCH_EXAMPLE, DOUBLE, INSERT, ISORT, ISORT_BOUND,
    MAP_BINOM, MAP_BINOM_BOUND, STATE_DOUBLE, _INSERT_DOMAIN, _MAP_DOMAIN,
)
from stepbound import semantics
from stepbound.costs import SEQ_NAT, WORK_SPAN
from stepbound.gen import (
    RATIONAL_POOL, STATE_NAT, TermGen, gen_dist, random_theory,
)
from stepbound.order import Relation, eq_outcome, relation_check
from stepbound.harness import run_all
from stepbound.semantics import (
    DEFAULT_CONFIG, Dist, DomainConfig, EvalMode, EvalError, Evaluator,
    ProbOutcome, _ProbOps, enumerate_inputs, eval_fn, evaluate,
    pair_sort_key, val_str,
)
from stepbound.syntax import (
    BOOL, NAT, NONDET, PROB, UNIT, Ap, ArrowTy, Bind, Branch, CostLit, Flip,
    FTy, Lam, ListTy, NatRec, ProdTy, Program, PURE, Ret, Step, SumTy, Triv,
    Var, Zero, map_scopes, nat_lit, parse, scopes, term_str,
)
from stepbound.typecheck import check_program, elaborate

COST = EvalMode.COST_COUNTING
EXT = EvalMode.EXTENSIONAL


def outcome(prog, args=(), mode=COST, cfg=DEFAULT_CONFIG):
    ev, body = program_evaluator(prog, mode, cfg)
    return ev.outcome(body, args)


def test_double_closed_form_instance():
    out = outcome(DOUBLE, (nat(3),))
    assert (out.cost, out.value) == (3, nat(6))


def test_insert_hand_trace():
    # insert 1 [0,2]: 1<=0 fails, 1<=2 succeeds -> two comparisons
    out = outcome(INSERT, (nat(1), natlist([0, 2])))
    assert (out.cost, out.value) == (2, natlist([0, 1, 2]))


def test_branch_example():
    out = evaluate(BRANCH_EXAMPLE)
    assert out.branches == frozenset(
        {(3, ("bool", True)), (12, ("bool", False))}
    )


def test_bernoulli():
    out = evaluate(BERNOULLI)
    assert dict(out.dist.items) == {
        (0, ("unit",)): Fraction(1, 2),
        (1, ("unit",)): Fraction(1, 2),
    }


def test_binomial_2_matches_enumeration_oracle():
    # oracle: enumerate the four coin-flip sequences directly
    weights = {}
    for flips in itertools.product((0, 1), repeat=2):
        cost = sum(flips)
        key = (cost, ("unit",))
        weights[key] = weights.get(key, Fraction(0)) + Fraction(1, 4)
    out = outcome(BINOMIAL, (nat(2),))
    assert dict(out.dist.items) == weights


def test_state_example_table():
    out = evaluate(STATE_DOUBLE, COST, DomainConfig(state_max=8))
    table = dict(out.table)
    for n in range(5):  # 2n stays inside {0..8}
        assert table[nat(n)] == (n, nat(2 * n), nat(n))
    assert out.escaped == frozenset(nat(n) for n in range(5, 9))


def test_state_domain_restriction():
    # with domain {0..4} only n with 2n in the domain are tabulated
    out = evaluate(STATE_DOUBLE, COST, DomainConfig(state_max=4))
    assert sorted(s[1] for s, _ in out.table) == [0, 1, 2]
    assert out.escaped == frozenset({nat(3), nat(4)})


@pytest.mark.parametrize("ty", [
    NAT, BOOL, UNIT, ProdTy(BOOL, NAT), SumTy(UNIT, BOOL), ListTy(NAT),
], ids=str)
def test_state_domain_is_in_sort_order(ty):
    # a state table is built in domain order and is kept sorted by
    # initial state without a sort
    domain = semantics.state_domain(ty, DomainConfig(state_max=3))
    assert domain == sorted(domain, key=semantics.val_sort_key)


def test_extensional_double():
    out = outcome(DOUBLE, (nat(3),), mode=EXT)
    assert (out.cost, out.value) == (0, nat(6))


def test_par_work_span():
    src = """#cost par
(: (F (prod nat bool)) (par (step 2 (ret 4)) (step 3 (ret true))))
"""
    p = parse(src)
    out = evaluate(p, COST, DEFAULT_CONFIG)
    # sequential unit steps scale to (n, n); par adds work, maxes span
    assert out.cost == (5, 3)
    assert out.value == ("pair", nat(4), ("bool", True))


def test_eval_fn_double():
    table = eval_fn(DOUBLE, COST, DEFAULT_CONFIG, [nat(0), nat(1), nat(2)])
    got = {k[1]: (v.cost, v.value[1]) for k, v in table.items()}
    assert got == {0: (0, 0), 1: (1, 2), 2: (2, 4)}


def test_eval_fn_empty_domain():
    assert eval_fn(DOUBLE, COST, DEFAULT_CONFIG, []) == {}


def test_eval_fn_isort_three_element_lists():
    # 40 lists of length <= 3 over {0,1,2}; sortedness checked against
    # the host language's sort as an independent oracle
    inputs = [
        natlist(c)
        for n in range(4)
        for c in itertools.product(range(3), repeat=n)
    ]
    assert len(inputs) == 40
    table = eval_fn(ISORT, COST, DEFAULT_CONFIG, inputs)
    for inp, out in table.items():
        xs = [x[1] for x in inp[1]]
        assert out.value == natlist(sorted(xs))
        assert out.cost <= 9


def test_prob_weights_always_sum_to_one():
    rng = random.Random(5)
    from stepbound.syntax import PROB

    cfg = DomainConfig(nat_max=3, list_len=2, elems=2)
    for _ in range(100):
        gen = TermGen(rng, PROB)
        prog = gen.program(depth=4)
        out = evaluate(prog, COST, cfg)
        assert out.dist.total() == 1


def _eval_both(theory, body_a, body_b, ty, cfg):
    pa = Program("a", theory, SEQ_NAT, body_a, ty)
    pb = Program("b", theory, SEQ_NAT, body_b, ty)
    oa = evaluate(pa, COST, cfg)
    ob = evaluate(pb, COST, cfg)
    return oa, ob, eq_outcome(oa, ob).holds


def test_dist_insertion_order_is_not_observable():
    pairs = [
        ((3, natlist([1, 0])), Fraction(1, 6)), ((2, nat(1)), Fraction(1, 3)),
        ((0, natlist([2])), Fraction(1, 4)), ((2, nat(0)), Fraction(1, 4)),
    ]
    a, b = Dist(dict(pairs)), Dist(dict(reversed(pairs)))
    assert a == b and hash(a) == hash(b) and len(a) == len(b) == 4
    assert a.items == b.items and list(a) == list(b) == list(a.items)
    assert [k for k, _ in a] == [
        (0, natlist([2])), (2, nat(0)), (2, nat(1)), (3, natlist([1, 0]))
    ]
    show = lambda d: str(ProbOutcome(PROB, SEQ_NAT, COST, d))
    assert show(a) == show(b) == (
        "{(0, [2]) -> 1/4, (2, 0) -> 1/4, (2, 1) -> 1/3, (3, [1 0]) -> 1/6}"
    )


def _continuation(v):
    return Dist({(1, v): Fraction(1, 2), (0, nat(2)): Fraction(1, 2)})


def test_prob_bind_scales_a_one_item_scrutinee_of_weight_below_one():
    ops = _ProbOps(SEQ_NAT)
    m = Dist({(2, nat(0)): Fraction(1, 2)})
    assert ops.bind(m, _continuation) == Dist(
        {(3, nat(0)): Fraction(1, 4), (2, nat(2)): Fraction(1, 4)}
    )


def test_prob_bind_on_a_point_mass():
    ops = _ProbOps(SEQ_NAT)
    d = _continuation(nat(0))
    # at cost zero the continuation's denotation is returned as is
    assert ops.bind(Dist({(0, nat(0)): Fraction(1)}), lambda v: d) is d
    assert ops.bind(Dist({(2, nat(0)): Fraction(1)}), _continuation) == Dist(
        {(3, nat(0)): Fraction(1, 2), (2, nat(2)): Fraction(1, 2)}
    )


def test_prob_ops_built_alone_have_an_empty_value_table():
    ops = _ProbOps(SEQ_NAT)
    assert ops.values == {}
    assert ops.unit(nat(0)) == Dist({(0, nat(0)): Fraction(1)})
    # a distribution is not a pure denotation: the table keeps none
    assert ops.values == {}


def test_an_evaluator_keeps_one_copy_of_each_list_and_pure_denotation():
    # isort sorts [1 0] and [0 1] to one list, at one comparison each
    ev, _ = relation_check(Relation.LEQ_UPPER, ISORT, ISORT_BOUND, COST,
                           DEFAULT_CONFIG)
    den = ev.eval_comp(elaborate(ISORT).body, {})
    d10, d01 = den(natlist([1, 0])), den(natlist([0, 1]))
    assert d10 == (1, natlist([0, 1]))
    assert d10[1] is d01[1] and d10 is d01
    assert ev.ops.values
    ev.forget(elaborate(ISORT_BOUND).body)
    assert ev.ops.values == {}
    assert den(natlist([2, 1])) == (1, natlist([1, 2])) and ev.ops.values
    ev.close()
    assert ev.ops.values == {}


# A Fraction reference for `_ProbOps`: a distribution is a dict from
# (cost, value) to positive Fraction weight, merged by addition.
def _ref_merge(*weighted):
    acc: dict = {}
    for key, w in weighted:
        acc[key] = acc.get(key, 0) + w
    return {key: w for key, w in acc.items() if w}


def _ref_charge(c, m):
    return {(c + c0, v): w for (c0, v), w in m.items()}


def _ref_bind(m, k):
    return _ref_merge(*(
        ((c0 + c1, v1), w * w1)
        for (c0, v), w in m.items() for (c1, v1), w1 in k(v).items()
    ))


def _ref_flip(p, m0, m1):
    return _ref_merge(*((key, (1 - p) * w) for key, w in m0.items()),
                      *((key, p * w) for key, w in m1.items()))


def test_integer_prob_ops_match_the_fraction_reference():
    ops = _ProbOps(SEQ_NAT)
    rng = random.Random(43)
    values = (nat(0), nat(1), nat(2))

    def same(got, ref):
        # same weights, printed in the same order, in lowest terms
        assert got.items == tuple(
            sorted(ref.items(), key=lambda kw: pair_sort_key(kw[0]))
        )
        assert got == Dist(ref) and hash(got) == hash(Dist(ref))

    for _ in range(1000):
        m, m2 = gen_dist(rng, values), gen_dist(rng, values)
        if rng.random() < 0.2:
            # one item of weight below one: bind must still scale by it
            m = Dist({m.items[0][0]: rng.choice(RATIONAL_POOL[2:])})
        conts = {v: gen_dist(rng, values) for v in values}
        k, k_ref = conts.__getitem__, lambda v: dict(conts[v].items)
        p, c, v = rng.choice(RATIONAL_POOL), rng.randrange(4), rng.choice(values)
        rm, rm2 = dict(m.items), dict(m2.items)
        same(ops.unit(v), {(0, v): Fraction(1)})
        same(ops.charge(c, m), _ref_charge(c, rm))
        same(ops.bind(m, k), _ref_bind(rm, k_ref))
        flipped = ops.flip(p, m, m2)
        same(flipped, _ref_flip(p, rm, rm2))
        same(ops.bind(flipped, k), _ref_bind(_ref_flip(p, rm, rm2), k_ref))


def test_dist_is_kept_in_lowest_terms():
    k = (0, nat(0))
    half, halved = Dist({k: Fraction(1, 2)}), Dist({k: Fraction(2, 4)})
    assert half == halved and hash(half) == hash(halved)
    # a fair flip between two equal point masses merges 1/2 + 1/2 into 1
    ops = _ProbOps(SEQ_NAT)
    one = ops.unit(nat(0))
    merged = ops.flip(Fraction(1, 2), one, one)
    assert merged == one and hash(merged) == hash(one)
    assert (merged.nums, merged.den) == ({k: 1}, 1)


@pytest.mark.parametrize("weights, error", [
    ((Fraction(-1, 2), Fraction(3, 2)), ValueError),
    ((-1, 2), ValueError),
    ((0.5, 0.5), TypeError),
    ((Fraction(1, 2), 0.5), TypeError),
])
def test_dist_rejects_weights_that_are_not_probabilities(weights, error):
    mapping = {(0, nat(i)): w for i, w in enumerate(weights)}
    with pytest.raises(error, match=r"^Dist weight \S+ is"):
        Dist(mapping)


def test_dist_drops_zero_weights():
    d = Dist({(0, nat(0)): Fraction(0), (0, nat(1)): 0, (1, nat(2)): 1})
    assert len(d) == 1 and d == Dist({(1, nat(2)): Fraction(1)})
    assert d.has_unit_mass()


def test_step_laws_hold_semantically():
    rng = random.Random(17)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(150):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        ty = gen.result_ty()
        e = gen.closed_comp(ty, 3)
        c1, c2 = gen.cost(), gen.cost()
        _, _, ok = _eval_both(theory, Step(CostLit(0), e), e, ty, cfg)
        assert ok
        lhs = Step(CostLit(c1), Step(CostLit(c2), e))
        rhs = Step(CostLit(c1 + c2), e)
        _, _, ok = _eval_both(theory, lhs, rhs, ty, cfg)
        assert ok


def test_bind_step_commutes_semantically():
    rng = random.Random(19)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(120):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        ty = gen.result_ty()
        e = gen.synth_comp(FTy(NAT), 3)
        f = gen.comp({"bx": NAT}, ty, 3)
        c = gen.cost()
        lhs = Bind(Step(CostLit(c), e), "bx", f)
        rhs = Step(CostLit(c), Bind(e, "bx", f))
        _, _, ok = _eval_both(theory, lhs, rhs, ty, cfg)
        assert ok


def test_monad_laws_semantically():
    from stepbound.syntax import subst

    rng = random.Random(29)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(120):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        ty = gen.result_ty()
        a = gen.value({}, NAT)
        f = gen.comp({"bx": NAT}, ty, 3)
        lhs = Bind(Ret(a), "bx", f)
        rhs = subst(f, {"bx": a})
        _, _, ok = _eval_both(theory, lhs, rhs, ty, cfg)
        assert ok
        e = gen.synth_comp(FTy(NAT), 2)
        g = gen.synth_comp(FTy(NAT), 2, {"bx": NAT})
        h = gen.comp({"by": NAT}, ty, 2)
        lhs = Bind(Bind(e, "bx", g), "by", h)
        rhs = Bind(e, "bx", Bind(g, "by", h))
        _, _, ok = _eval_both(theory, lhs, rhs, ty, cfg)
        assert ok


def test_extensional_mode_zeroes_costs_only():
    # noninterference, the paper's claim that cost accounting does not
    # change behaviour: the ext-mode outcome is the cost-mode outcome with
    # every cost set to zero and the keys that then coincide merged
    rng = random.Random(37)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for _ in range(150):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        prog = gen.program(depth=4)
        cost_out = evaluate(prog, COST, cfg)
        ext_out = evaluate(prog, EXT, cfg)
        assert _zeroed(cost_out) == _strip_mode(ext_out)
    # and in each theory, over closed terms of every depth up to 4
    for theory, seed in itertools.product((PURE, NONDET, PROB, STATE_NAT),
                                          range(4)):
        rng = random.Random(seed)
        gen = TermGen(rng, theory)
        for _ in range(150):
            body = gen.closed_comp(gen.result_ty(), rng.randint(1, 4))
            cost_out, ext_out = (
                Evaluator(theory, SEQ_NAT, mode, cfg).outcome(body)
                for mode in (COST, EXT)
            )
            assert _zeroed(cost_out) == _strip_mode(ext_out), term_str(body)


def _strip_mode(out):
    import dataclasses

    return dataclasses.replace(out, mode=None)


def _zeroed(out):
    import dataclasses

    from stepbound.semantics import (
        Dist, NondetOutcome, ProbOutcome, PureOutcome, StateOutcome,
    )

    if isinstance(out, PureOutcome):
        return dataclasses.replace(out, cost=0, mode=None)
    if isinstance(out, NondetOutcome):
        return dataclasses.replace(
            out, branches=frozenset((0, v) for _, v in out.branches),
            mode=None,
        )
    if isinstance(out, ProbOutcome):
        acc = {}
        for (c, v), n in out.dist.nums.items():
            acc[(0, v)] = acc.get((0, v), 0) + n
        return dataclasses.replace(out, dist=Dist._of(acc, out.dist.den),
                                   mode=None)
    if isinstance(out, StateOutcome):
        table = tuple((s0, (0, s1, v)) for s0, (c, s1, v) in out.table)
        return dataclasses.replace(out, table=table, mode=None)
    raise AssertionError


def test_pure_corpus_value_independent_of_monoid():
    # re-interpret the sequential charges as parallel unit charges and
    # compare extensional outcomes
    def to_par(t):
        import dataclasses as dc

        from stepbound.syntax import Term

        if isinstance(t, Step) and isinstance(t.cost, CostLit):
            return Step(CostLit(WORK_SPAN.scale(t.cost.value)),
                        to_par(t.body))
        updates = {}
        for f in dc.fields(t):
            v2 = getattr(t, f.name)
            updates[f.name] = to_par(v2) if isinstance(v2, Term) else v2
        return type(t)(**updates)

    for prog in (DOUBLE, INSERT, ISORT):
        par_prog = Program(prog.name + "-par", PURE, WORK_SPAN,
                           to_par(prog.body), prog.declared_ty)
        check_program(par_prog)
        from stepbound.semantics import enumerate_inputs

        _, inputs = enumerate_inputs(
            prog.declared_ty, DomainConfig(nat_max=4, list_len=3, elems=3)
        )
        ev_seq, seq = program_evaluator(prog, EXT, DEFAULT_CONFIG)
        ev_par, par = program_evaluator(par_prog, EXT, DEFAULT_CONFIG)
        for args in inputs:
            assert ev_seq.outcome(seq, args).value == \
                ev_par.outcome(par, args).value


def _prob_evaluator():
    return Evaluator(PROB, SEQ_NAT, COST, DEFAULT_CONFIG)


def test_prob_outcome_rejects_mass_other_than_one():
    half = Dist({(0, nat(0)): Fraction(1, 4), (1, nat(1)): Fraction(1, 4)})
    with pytest.raises(EvalError, match=r"^probability mass 1/2 is not 1$"):
        _prob_evaluator().outcome_of_den(half)


def test_unit_mass_check_agrees_with_the_fraction_sum():
    ev = _prob_evaluator()
    rng = random.Random(41)
    for _ in range(1500):
        dist = gen_dist(rng, values=(("nat", 0), ("nat", 1), ("nat", 2)))
        assert dist.has_unit_mass()
        assert ev.outcome_of_den(dist).dist is dist
        # taking half an item's weight off, or doubling it, moves the mass
        # off 1
        (k, w), *_ = dist.items
        for bent_w in (w / 2, 2 * w):
            bent = Dist({**dict(dist.items), k: bent_w})
            assert not bent.has_unit_mass()
            with pytest.raises(EvalError, match=str(bent.total())):
                ev.outcome_of_den(bent)


def test_evaluate_rejects_arrow_programs():
    with pytest.raises(EvalError):
        evaluate(DOUBLE)


def test_annotated_list_type_charges_per_cons():
    # the recursor over a cost-annotated list type charges its
    # annotation at every cons, even when the body charges nothing
    src = """
(: (-> (list 2 nat) (F nat))
   (lam (l : (list 2 nat))
     (listrec l (ret zero) (x xs r (bind r (n (ret (suc n))))))))
"""
    p = parse(src)
    ev, body = program_evaluator(p, COST, DEFAULT_CONFIG)
    for xs in ([], [1], [3, 1], [0, 0, 0]):
        out = ev.outcome(body, (natlist(xs),))
        assert out.cost == 2 * len(xs)
        assert out.value == nat(len(xs))
    assert outcome(p, (natlist([5, 5]),), EXT).cost == 0


def test_variable_cost_scales_by_unit_under_par_monoid():
    src = """#cost par
(: (-> nat (F nat)) (lam (n : nat) (step n (ret n))))
"""
    p = parse(src)
    assert outcome(p, (nat(4),)).cost == (4, 4)


def test_total_state_escape_raises():
    # a program that always writes outside the domain has no honest table
    src = "#effect state:nat\n(set 9 (ret tt))"
    p = parse(src)
    with pytest.raises(EvalError):
        evaluate(p, COST, DomainConfig(state_max=4))


# -- the evaluation table ------------------------------------------------------


def test_table_key_includes_captured_values():
    # one λ node, reached under x = n for two values of n: its table
    # entries must not be shared between them
    p = parse("""
(: (-> nat (-> nat (F nat)))
   (lam (n : nat) (bind (ret n) (x (lam (y : nat) (step x (ret y)))))))
""")
    ev, body = program_evaluator(p, COST, DEFAULT_CONFIG)
    first = ev.outcome(body, (nat(1), nat(0)))
    second = ev.outcome(body, (nat(2), nat(0)))
    assert (first.cost, first.value) == (1, nat(0))
    assert (second.cost, second.value) == (2, nat(0))
    assert ev.outcome(body, (nat(1), nat(0))) == first
    assert ev.table_hits > 0


def _nodes(t):
    yield t
    for _, sub, _ in scopes(t):
        yield from _nodes(sub)


def test_evaluator_holds_every_node_its_table_keys_name():
    # thunk bodies, each dropped by its caller once forced, every other one
    # forgotten first: a node table's id must still belong to a live node
    # the evaluator holds, or a new node could reuse it; an Ap of a λ
    # compiles as the Ap alone, and its λ has the table
    ev = Evaluator(PURE, SEQ_NAT, COST, DEFAULT_CONFIG)
    forgotten = []
    for n in range(100):
        body = Ap(Lam("y", NAT, Ret(Var("y")), ty=ArrowTy(NAT, FTy(NAT))),
                  Zero(), ty=FTy(NAT))
        assert ev.force(("thunk", (), body)) == (0, nat(0))
        if n % 2:
            ev.forget(body)
            forgotten.append(body)
    held = {id(node)
            for term in [t for t, _ in ev._compiled.values()]
            + [b for b, _, _ in ev._bodies.values()]
            for node in _nodes(term)}
    assert len(ev._tables) == len(live_keys(ev)) == 50
    assert ev._tables.keys() <= held
    assert not {id(node) for b in forgotten for node in _nodes(b)} & held


def test_forgetting_a_candidate_never_changes_a_result():
    # map f l and its bound, with f a closed λ; the bound applies binomial,
    # a node both sides' later arguments share, to 2·|l|
    cand = Lam("a", NAT, Flip(Fraction(1, 2),
                              Step(CostLit(1), Ret(Var("a"), ty=FTy(NAT)),
                                   ty=FTy(NAT)),
                              Ret(Zero(), ty=FTy(NAT)), ty=FTy(NAT)),
               ty=ArrowTy(NAT, FTy(NAT)))
    lead = ("thunk", (), cand)
    args = (lead, natlist([0, 1, 2]))
    bodies = [elaborate(p).body for p in (MAP_BINOM, MAP_BINOM_BOUND)]
    ev = Evaluator(PROB, SEQ_NAT, COST, _MAP_DOMAIN)
    first = [ev.outcome(b, args) for b in bodies]
    made, live = ev.table_entries, len(live_keys(ev))
    assert made == live
    # a candidate the evaluator never ran owns no entry
    ev.forget(Lam("a", NAT, Ret(Zero(), ty=FTy(NAT)),
                  ty=ArrowTy(NAT, FTy(NAT))))
    assert (ev.table_entries, len(live_keys(ev))) == (made, live)
    own = {id(node) for node in _nodes(cand)}
    assert own & ev._tables.keys()
    ev.forget(cand)
    kept = live_keys(ev)
    assert kept and not any(k[0] in own or lead in k[1] or k[2] == lead
                            for k in kept)
    binomial = next(t for t in _nodes(bodies[1])
                    if type(t) is Lam and t.var == "n")
    assert any(k[0] in {id(node) for node in _nodes(binomial)}
               for k in kept)
    gone = live - len(kept)
    assert gone > 0 and ev.table_entries == made
    # evaluating again makes the forgotten entries again, and only those
    assert [ev.outcome(b, args) for b in bodies] == first
    assert (ev.table_entries, len(live_keys(ev))) == (made + gone, live)


def test_a_body_sharing_nodes_with_the_program_runs_their_closures():
    # branch(e, e) then e, as the two sides of branch/idem: evaluating e
    # after branch(e, e) compiles nothing new
    ident = Lam("y", NAT, Ret(Var("y")), ty=ArrowTy(NAT, FTy(NAT)))
    e = Step(CostLit(1), Ap(ident, Zero(), ty=FTy(NAT)), ty=FTy(NAT))
    body = Branch(e, e, ty=FTy(NAT))
    ev = Evaluator(NONDET, SEQ_NAT, COST, DEFAULT_CONFIG)
    assert str(ev.outcome(body)) == "{(1, 0)}"
    compiled = dict(ev._compiled)
    assert id(e) in compiled
    assert str(ev.outcome(e)) == "{(1, 0)}"
    assert ev._compiled == compiled


def test_recursor_capturing_a_variable_matches_closed_form_insert():
    # insert's list recursor captures x, so its table entries are keyed
    # by x as well as by the suffix it folds
    ev, body = program_evaluator(INSERT, COST, _INSERT_DOMAIN)
    _, inputs = enumerate_inputs(INSERT.declared_ty, _INSERT_DOMAIN)
    assert inputs
    for x, l in inputs:
        ys = [y[1] for y in l[1]]
        # x goes before the first y with x <= y, after one comparison per
        # element up to and including that y
        at = next((i for i, y in enumerate(ys) if x[1] <= y), len(ys))
        out = ev.outcome(body, (x, l))
        assert out.cost == min(at + 1, len(ys))
        assert out.value == natlist(ys[:at] + [x[1]] + ys[at:])
    assert ev.table_hits > 0


def test_mutated_isort_first_counterexample_is_unchanged():
    reports, _, code = run_all(spec_name="isort-lower", mutate="isort")
    assert code == 1
    assert reports[0].counterexample == {
        "input": "[0 0]",
        "lhs": "step^1 ret [0 0]",
        "rhs": "step^0 ret [0 0]",
        "explanation": "cost 1 does not relax to 0",
    }


# -- effect-free computations ------------------------------------------------------
#
# A `ret v` under literal steps compiles to a (cost, value) pair: a `bind`
# over one charges its cost to the continuation, and a prob `bind` fuses
# an effect-free continuation into its one accumulator (`_prob_spread`).
# `ap(λu:unit. ret v, tt)` is not effect-free, so rewriting every `ret`
# that way runs the general closures.  That also defeats the prob bind's
# other fused continuations: a flip needs two effect-free arms, and a bind
# over a hoisted scrutinee an effect-free body.  A `flip` or `branch`
# outside such a continuation always runs its general closure.


def _general(t):
    """``t`` with every ``ret v`` rewritten to ``ap(λu:unit. ret v, tt)``,
    so that no fused path runs: every shape ``_prob_spread`` fuses ends
    in a ``ret``."""
    t = map_scopes(t, lambda sub, names: (names, _general(sub)))
    if type(t) is not Ret:
        return t
    return Ap(Lam("u", UNIT, t, ty=ArrowTy(UNIT, t.ty)), Triv(), ty=t.ty)


@pytest.mark.parametrize("mode", [COST, EXT], ids=["cost", "ext"])
@pytest.mark.parametrize("theory", [NONDET, PROB, STATE_NAT],
                         ids=["nondet", "prob", "state"])
def test_fused_effect_free_paths_match_the_general_closures(theory, mode):
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2, state_max=4)
    for seed in range(4):
        rng = random.Random(seed)
        gen = TermGen(rng, theory)
        for _ in range(150):
            body = gen.closed_comp(gen.result_ty(), rng.randint(1, 4))
            fused, general = (
                Evaluator(theory, SEQ_NAT, mode, cfg).outcome(b)
                for b in (body, _general(body))
            )
            # equal outcomes have equal representations: a Dist in lowest
            # terms, not only equal printed weights
            assert str(fused) == str(general)
            assert fused == general


def _prob_outcome(body, mode=COST):
    return Evaluator(PROB, SEQ_NAT, mode, DEFAULT_CONFIG).outcome(body)


def test_flip_of_arms_equal_once_steps_vanish_is_a_point_mass():
    ty = FTy(NAT)
    body = Flip(Fraction(1, 3), Step(CostLit(1), Ret(Zero(), ty=ty), ty=ty),
                Ret(Zero(), ty=ty), ty=ty)
    assert str(_prob_outcome(body)) == "{(0, 0) -> 1/3, (1, 0) -> 2/3}"
    out = _prob_outcome(body, EXT)
    assert out == _prob_outcome(Ret(Zero(), ty=ty), EXT)
    assert (out.dist.nums, out.dist.den) == ({(0, nat(0)): 1}, 1)


def test_fused_bind_reduces_merged_keys_to_a_point_mass():
    coin = Flip(Fraction(1, 2), Ret(Zero(), ty=FTy(NAT)),
                Ret(nat_lit(1), ty=FTy(NAT)), ty=FTy(NAT))
    body = Bind(coin, "x", Ret(Triv(), ty=FTy(UNIT)), ty=FTy(UNIT))
    out = _prob_outcome(body)
    assert (out.dist.nums, out.dist.den) == ({(0, ("unit",)): 1}, 1)


def test_branch_of_equal_arms_is_one_branch():
    ty = FTy(NAT)
    out = Evaluator(NONDET, SEQ_NAT, COST, DEFAULT_CONFIG).outcome(
        Branch(Ret(Zero(), ty=ty), Ret(Zero(), ty=ty), ty=ty)
    )
    assert out.branches == frozenset({(0, nat(0))})


# -- nat-cost steps -----------------------------------------------------------------
#
# A `step` whose cost is a nat term runs `_c_step`, while the same step with
# a literal cost over a `ret` is a pair form.  Generated terms draw only
# literal costs, so each shape here is checked against its literal twin: N
# becomes the λ's argument n in one and the numeral n in the other.  The
# last prob shape binds a continuation `step x (ret x)`; its twin pushes
# each value of the scrutinee through by hand.

_NAT_COST_TERMS = {
    "nondet-bind": ("nondet", "(bind (step N (ret 1))"
                    " (x (branch (ret x) (step 1 (ret 2)))))", None),
    "nondet-branch": ("nondet", "(branch (step N (ret 0)) (ret 1))", None),
    "prob-bind": ("prob", "(bind (step N (ret 1))"
                  " (x (flip 1/3 (ret x) (step 1 (ret 2)))))", None),
    "prob-flip": ("prob", "(flip 1/3 (step N (ret 0)) (ret 1))", None),
    "prob-continuation": (
        "prob", "(bind (flip 1/3 (ret N) (step 1 (ret 2)))"
        " (x (step x (ret x))))",
        "(flip 1/3 (step N (ret N)) (step 1 (step 2 (ret 2))))"),
    "state-bind": ("state:nat", "(bind (step N (ret 1))"
                   " (x (get (s (set x (ret s))))))", None),
}


@pytest.mark.parametrize("mode", [COST, EXT], ids=["cost", "ext"])
@pytest.mark.parametrize("shape", _NAT_COST_TERMS)
def test_a_nat_cost_step_equals_its_literal_twin(shape, mode):
    effect, term, twin = _NAT_COST_TERMS[shape]

    def program(body):
        return parse(f"#effect {effect}\n"
                     f"(: (-> nat (F nat)) (lam (n : nat) {body}))")

    ev, body = program_evaluator(program(term.replace("N", "n")), mode,
                                 DEFAULT_CONFIG)
    for n in range(4):
        literal = program((twin or term).replace("N", str(n)))
        ev_lit, lit = program_evaluator(literal, mode, DEFAULT_CONFIG)
        assert ev.outcome(body, (nat(n),)) == ev_lit.outcome(lit, (nat(n),))


# -- the fused prob bind ----------------------------------------------------------
#
# A prob `bind(m, x. K)` adds the weighted pairs of K into one accumulator
# when K is effect-free, a flip of two effect-free arms, or a bind over a
# scrutinee that does not name x (evaluated once per run) with an
# effect-free body.  The spy counts the runs of each shape.


def _spy_prob_spread(monkeypatch) -> collections.Counter:
    """Counts, by shape, the runs of every fused prob bind compiled from
    now on: "pair", "flip" and "hoisted", and "hoisted>1" for a hoisted
    scrutinee of more than one key."""
    runs, real = collections.Counter(), semantics._prob_spread

    def spy(ev, k, x):
        spread = real(ev, k, x)
        if spread is None:
            return None
        shape = {Flip: "flip", Bind: "hoisted"}.get(type(k), "pair")

        def counted(env):
            den, feed = spread(env)
            runs[shape] += 1
            if shape == "hoisted" and den > 1:
                runs["hoisted>1"] += 1
            return den, feed

        return counted

    monkeypatch.setattr(semantics, "_prob_spread", spy)
    return runs


_BASE_TYS = (NAT, BOOL, UNIT)


def _fusable_bind(gen):
    """``bind(m, x. K)`` from generated parts, ``K`` a flip of two
    effect-free arms or a bind of an effect-free body over a generated
    scrutinee that may name ``x``, by a variable that may shadow it."""
    rng = gen.rng
    ty = gen.result_ty()
    a_ty, b_ty = rng.choice(_BASE_TYS), rng.choice(_BASE_TYS)

    def arm(ctx):
        ret = Ret(gen.value(ctx, ty.value), ty=ty)
        if rng.random() < 0.5:
            return Step(CostLit(gen.cost()), ret, ty=ty)
        return ret

    ctx = {"x": a_ty}
    if rng.random() < 0.4:
        k = Flip(gen.rational(), arm(ctx), arm(ctx), ty=ty)
    else:
        y, e_ctx = rng.choice(("x", "y")), ctx if rng.random() < 0.5 else {}
        e = Flip(gen.rational(), *(gen.synth_comp(FTy(b_ty), 2, e_ctx)
                                   for _ in range(2)), ty=FTy(b_ty))
        k = Bind(e, y, arm({**ctx, y: b_ty}), ty=ty)
    return Bind(gen.synth_comp(FTy(a_ty), 2), "x", k, ty=ty)


@pytest.mark.parametrize("mode", [COST, EXT], ids=["cost", "ext"])
def test_fused_prob_binds_match_the_general_closures(mode, monkeypatch):
    runs = _spy_prob_spread(monkeypatch)
    cfg = DomainConfig(nat_max=3, list_len=2, elems=2)
    bodies = []
    for seed in range(4):
        rng = random.Random(seed)
        gen = TermGen(rng, PROB)
        bodies += [_fusable_bind(gen) for _ in range(100)]
        bodies += [gen.closed_comp(gen.result_ty(), rng.randint(1, 4))
                   for _ in range(60)]

    def outcomes(terms):
        return [Evaluator(PROB, SEQ_NAT, mode, cfg).outcome(b) for b in terms]

    fused = outcomes(bodies)
    fired = dict(runs)
    runs.clear()
    general = outcomes([_general(b) for b in bodies])
    assert not runs  # no shape fires once every `ret` is rewritten
    # equal Dists in lowest terms, printed alike
    assert [str(o) for o in fused] == [str(o) for o in general]
    assert fused == general
    assert all(fired.get(shape, 0) >= 30
               for shape in ("pair", "flip", "hoisted", "hoisted>1")), fired


def _prob_term(src, ty="(F nat)"):
    return elaborate(parse(f"#effect prob\n(: {ty} {src})")).body


_M = "(flip 1/3 (ret 0) (step 1 (ret 1)))"  # (0, 0) -> 2/3, (1, 1) -> 1/3
_E = "(flip 1/4 (ret 2) (step 2 (ret 3)))"  # (0, 2) -> 3/4, (2, 3) -> 1/4


def test_a_hoisted_scrutinee_whose_variable_shadows_the_outer_one(monkeypatch):
    runs = _spy_prob_spread(monkeypatch)
    body = _prob_term(f"(bind {_M} (x (bind {_E} (x (ret x)))))")
    # the inner x is e's value; the costs add
    assert str(_prob_outcome(body)) == \
        "{(0, 2) -> 1/2, (1, 2) -> 1/4, (2, 3) -> 1/6, (3, 3) -> 1/12}"
    assert runs["hoisted"] == 1 and runs["hoisted>1"] == 1
    assert _prob_outcome(body) == _prob_outcome(_general(body))


def test_an_inner_scrutinee_naming_the_variable_runs_per_key(monkeypatch):
    runs = _spy_prob_spread(monkeypatch)
    body = _prob_term(
        f"(bind {_M} (x (bind (flip 1/2 (ret x) (step 1 (ret 2)))"
        " (y (ret y)))))"
    )
    assert str(_prob_outcome(body)) == \
        "{(0, 0) -> 1/3, (1, 1) -> 1/6, (1, 2) -> 1/3, (2, 2) -> 1/6}"
    # the inner bind runs once per key of the outer scrutinee, fusing
    # its own effect-free body; nothing is hoisted
    assert runs == {"pair": 2}
    assert _prob_outcome(body) == _prob_outcome(_general(body))


@pytest.mark.parametrize("cont, shape", [
    ("(flip 1/4 (step 1 (ret tt)) (ret tt))", "flip"),
    (f"(bind {_E} (y (step 1 (ret tt))))", "hoisted"),
], ids=["flip", "hoisted"])
def test_fused_continuations_equal_once_steps_vanish_give_a_point_mass(
        cont, shape, monkeypatch):
    runs = _spy_prob_spread(monkeypatch)
    body = _prob_term(f"(bind {_M} (x {cont}))", "(F unit)")
    assert _prob_outcome(body) == _prob_outcome(_general(body))
    out = _prob_outcome(body, EXT)
    assert (out.dist.nums, out.dist.den) == ({(0, ("unit",)): 1}, 1)
    assert out == _prob_outcome(_general(body), EXT)
    assert runs[shape] == 2


def test_a_prob_bind_at_function_type_is_not_fused(monkeypatch):
    runs = _spy_prob_spread(monkeypatch)

    def program(body):
        return parse("#effect prob\n"
                     f"(: (-> nat (F nat)) (lam (a : nat) {body}))")

    flip = ("(flip 1/2 (lam (y : nat) (step x (ret y)))"
            " (lam (y : nat) (ret x)))")
    _, check = relation_check(
        Relation.EQUAL, program(f"(ap (bind {_M} (x {flip})) a)"),
        program(f"(bind {_M} (x (ap {flip} a)))"), COST,
        DomainConfig(nat_max=3),
    )
    assert check().holds
    assert not runs


@pytest.mark.parametrize("source, expected", [
    ("#effect nondet\n(: (F nat) (bind (branch (ret 0) (step 1 (ret 1)))"
     " (x (branch (ret x) (step 1 (ret 2))))))",
     "{(0, 0), (1, 1), (1, 2), (2, 2)}"),
    ("#effect nondet\n(: (F nat) (bind (branch (ret 0) (step 1 (ret 1)))"
     " (x (bind (branch (ret 2) (step 2 (ret 3))) (y (ret y))))))",
     "{(0, 2), (1, 2), (2, 3), (3, 3)}"),
    # the inner get must read the state the outer scrutinee set
    ("#effect state:nat\n(: (F nat) (bind (set 3 (ret 0))"
     " (x (bind (get (s (ret s))) (y (ret y))))))",
     "{0 -> (0, 3, 3); 1 -> (0, 3, 3); 2 -> (0, 3, 3); 3 -> (0, 3, 3)}"),
], ids=["nondet-flip-like", "nondet-hoistable", "state-hoistable"])
def test_nondet_and_state_binds_of_the_fused_shapes_stay_unfused(
        source, expected, monkeypatch):
    runs = _spy_prob_spread(monkeypatch)
    prog = parse(source)
    body, cfg = elaborate(prog).body, DomainConfig(state_max=3)
    ev = Evaluator(prog.theory, SEQ_NAT, COST, cfg)
    assert str(ev.outcome(body)) == expected
    assert ev.outcome(body) == Evaluator(prog.theory, SEQ_NAT, COST, cfg) \
        .outcome(_general(body))
    assert not runs


@pytest.mark.parametrize("monoid", [SEQ_NAT, WORK_SPAN], ids=["seq", "par"])
def test_prob_charge_is_in_lowest_terms_without_reducing(monoid):
    # adding a cost is injective, so charging merges no keys
    ops, rng = _ProbOps(monoid), random.Random(11)
    values = (nat(0), nat(1), nat(2))
    for _ in range(500):
        m = gen_dist(rng, values)
        if monoid is WORK_SPAN:
            m = Dist({((c, rng.randrange(c + 1)), v): w for (c, v), w in m})
            c = (rng.randrange(4), rng.randrange(4))
        else:
            c = rng.randrange(4)
        charged = ops.charge(c, m)
        assert charged == Dist({(monoid.add(c, c0), v): w for (c0, v), w in m})
        assert hash(charged) == hash(Dist(dict(charged.items)))


# -- effects at function type ----------------------------------------------------
#
# A computation of type `nat -> F nat` denotes a function, and the evaluator
# lifts each effect operation through its argument.  Applying the operation
# to `a` must equal the operation with `a` pushed into its operands.  At
# `nat -> nat -> F nat` the lifting goes through both arrows, and a list
# recursor at arrow type lifts its per-cons charge the same way.

_F = "(lam (y : nat) (step y (ret (suc y))))"
_G = "(lam (y : nat) (step 1 (ret y)))"
_K = "(lam (y : nat) (step x (ret (suc y))))"  # x bound by the enclosing bind
_H = "(lam (y : nat) (get (s (step y (ret s)))))"
# the same at two arguments
_F2 = "(lam (y : nat) (lam (z : nat) (step y (ret (suc z)))))"
_G2 = "(lam (y : nat) (lam (z : nat) (step 1 (ret y))))"
_K2 = "(lam (y : nat) (lam (z : nat) (step x (ret (suc z)))))"
_H2 = "(lam (y : nat) (lam (z : nat) (get (s (step y (set z (ret s)))))))"
# a fold over a list that charges 1 per cons: at arrow type, and pushed
_LEN = ("(listrec l (: (-> nat (F nat))) (lam (y : nat) (ret y)) "
        "(x xs r (lam (y : nat) (bind (ap r y) (n (step x (ret (suc n))))))))")
_LEN_AT_A = ("(listrec l (ret a) "
             "(x xs r (bind r (n (step x (ret (suc n)))))))")
_ARG_TY = {"a": "nat", "b": "nat", "l": "(list 1 nat)"}


@pytest.mark.parametrize("effect, args, op, pushed", [
    ("nondet", "a", f"(branch {_F} {_G})", f"(branch (ap {_F} a) (ap {_G} a))"),
    ("nondet", "a", "fail", "fail"),
    ("prob", "a", f"(flip 1/3 {_F} {_G})",
     f"(flip 1/3 (ap {_F} a) (ap {_G} a))"),
    # scrutinees that are not a ret under steps, so the general bind runs
    ("nondet", "a", f"(bind (branch (ret 0) (step 1 (ret 1))) (x {_K}))",
     f"(bind (branch (ret 0) (step 1 (ret 1))) (x (ap {_K} a)))"),
    ("prob", "a", f"(bind (flip 1/3 (ret 0) (step 1 (ret 2))) (x {_K}))",
     f"(bind (flip 1/3 (ret 0) (step 1 (ret 2))) (x (ap {_K} a)))"),
    ("state:nat", "a", f"(bind (get (s (ret s))) (x {_K}))",
     f"(bind (get (s (ret s))) (x (ap {_K} a)))"),
    ("state:nat", "a", "(get (s (lam (y : nat) (step s (ret y)))))",
     "(get (s (ap (lam (y : nat) (step s (ret y))) a)))"),
    ("state:nat", "a", f"(set 2 {_H})", f"(set 2 (ap {_H} a))"),
    ("nondet", "a", f"(step 2 {_F})", f"(step 2 (ap {_F} a))"),
    # an effect-free scrutinee charges its cost to the continuation
    *((effect, "a", f"(bind (step 1 (ret 0)) (x {_K}))",
       f"(bind (step 1 (ret 0)) (x (ap {_K} a)))")
      for effect in ("nondet", "prob", "state:nat")),
    ("nondet", "l a", f"(lam (l : (list 1 nat)) {_LEN})", _LEN_AT_A),
    # every operation through two arrows
    ("nondet", "a b", f"(step 2 {_F2})", f"(step 2 (ap {_F2} a b))"),
    ("nondet", "a b", f"(branch {_F2} {_G2})",
     f"(branch (ap {_F2} a b) (ap {_G2} a b))"),
    ("nondet", "a b", "fail", "fail"),
    ("prob", "a b", f"(flip 1/3 {_F2} {_G2})",
     f"(flip 1/3 (ap {_F2} a b) (ap {_G2} a b))"),
    ("nondet", "a b", f"(bind (branch (ret 0) (step 1 (ret 1))) (x {_K2}))",
     f"(bind (branch (ret 0) (step 1 (ret 1))) (x (ap {_K2} a b)))"),
    ("prob", "a b", f"(bind (flip 1/3 (ret 0) (step 1 (ret 2))) (x {_K2}))",
     f"(bind (flip 1/3 (ret 0) (step 1 (ret 2))) (x (ap {_K2} a b)))"),
    ("state:nat", "a b", f"(bind (get (s (ret s))) (x {_K2}))",
     f"(bind (get (s (ret s))) (x (ap {_K2} a b)))"),
    ("state:nat", "a b", f"(bind (step 1 (ret 0)) (x {_K2}))",
     f"(bind (step 1 (ret 0)) (x (ap {_K2} a b)))"),
    ("state:nat", "a b",
     "(get (s (lam (y : nat) (lam (z : nat) (step z (ret s))))))",
     "(get (s (step b (ret s))))"),
    ("state:nat", "a b", f"(set 2 {_H2})", f"(set 2 (ap {_H2} a b))"),
], ids=["branch", "fail", "flip", "bind-nondet", "bind-prob", "bind-state",
        "get", "set", "step", "bind-charged-nondet", "bind-charged-prob",
        "bind-charged-state", "listrec-charged", "step-2", "branch-2",
        "fail-2", "flip-2", "bind-nondet-2", "bind-prob-2", "bind-state-2",
        "bind-charged-state-2", "get-2", "set-2"])
@pytest.mark.parametrize("mode", [COST, EXT], ids=["cost", "ext"])
def test_effects_at_function_type_apply_pointwise(effect, args, op, pushed,
                                                  mode):
    def program(body):
        names = args.split()
        for name in reversed(names):
            body = f"(lam ({name} : {_ARG_TY[name]}) {body})"
        tys = " ".join(_ARG_TY[name] for name in names)
        return parse(f"#effect {effect}\n(: (-> {tys} (F nat)) {body})")

    _, check = relation_check(
        Relation.EQUAL, program(f"(ap {op} {args})"), program(pushed), mode,
        DomainConfig(nat_max=3, state_max=3, list_len=2),
    )
    assert check().holds


# -- sums, case and products ------------------------------------------------------


def _outcomes_by_input(source, cfg):
    """``{input: printed outcome}`` over ``cfg``'s domain."""
    prog = parse(source)
    _, inputs = enumerate_inputs(prog.declared_ty, cfg)
    return {", ".join(map(val_str, args)): str(out)
            for args, out in eval_fn(prog, COST, cfg, inputs).items()}


def test_case_over_a_sum_input_builds_both_injections():
    source = """(: (-> (sum nat bool) (F (sum bool nat)))
      (lam (x : (sum nat bool))
        (case x (n (step n (ret (inr (suc n)))))
                (b (step 1 (ret (inl b)))))))"""
    assert _outcomes_by_input(source, DomainConfig(nat_max=2)) == {
        "inl 0": "step^0 ret inr 1",
        "inl 1": "step^1 ret inr 2",
        "inl 2": "step^2 ret inr 3",
        "inr false": "step^1 ret inl false",
        "inr true": "step^1 ret inl true",
    }


def test_projections_over_a_product_input():
    source = """(: (-> (prod (prod unit bool) nat) (F (prod nat unit)))
      (lam (p : (prod (prod unit bool) nat))
        (if (snd (fst p))
            (step (snd p) (ret (pair (snd p) (fst (fst p)))))
            (ret (pair 0 tt)))))"""
    assert _outcomes_by_input(source, DomainConfig(nat_max=2)) == {
        "((tt, false), 0)": "step^0 ret (0, tt)",
        "((tt, false), 1)": "step^0 ret (0, tt)",
        "((tt, false), 2)": "step^0 ret (0, tt)",
        "((tt, true), 0)": "step^0 ret (0, tt)",
        "((tt, true), 1)": "step^1 ret (1, tt)",
        "((tt, true), 2)": "step^2 ret (2, tt)",
    }


# -- error paths -----------------------------------------------------------------
#
# The checker rules these out, so they are reached by handing an evaluator
# loose terms.  The messages are pinned byte for byte.


def _raise_message(thunk) -> str:
    with pytest.raises(EvalError) as err:
        thunk()
    return str(err.value)


def _pure_evaluator():
    return Evaluator(PURE, SEQ_NAT, COST, DEFAULT_CONFIG)


_OPEN_FN_TY = ArrowTy(NAT, FTy(NAT))


@pytest.mark.parametrize("term", [
    Ret(Var("x")),                                    # at a Var
    Var("x"),                                         # forced at a Var
    Lam("y", NAT, Ret(Var("x")), ty=_OPEN_FN_TY),     # captured by a λ
    Ret(Ret(Var("x"))),                               # captured by a thunk
    # x is free only in the successor branch, which a zero never runs
    NatRec(Zero(), Ret(Zero()), "k", "ih", Ret(Var("x")), ty=FTy(NAT)),
], ids=["var", "forced-var", "lam-capture", "thunk-capture",
        "recursor-capture"])
def test_unbound_variable_message(term):
    assert _raise_message(
        lambda: _pure_evaluator().eval_comp(term, {})
    ) == "unbound variable 'x' at run time"


def test_forcing_a_non_thunk_message():
    ev = _pure_evaluator()
    assert _raise_message(lambda: ev.force(nat(3))) == \
        "forcing a non-thunk value 3"
    assert _raise_message(
        lambda: ev.eval_comp(Var("n"), {"n": natlist([1, 2])})
    ) == "forcing a non-thunk value [1 2]"


def test_effect_outside_its_theory_message():
    term = Branch(Ret(Zero()), Ret(Zero()), ty=FTy(NAT))
    assert _raise_message(
        lambda: _pure_evaluator().eval_comp(term, {})
    ) == "effect operation 'branch' outside the 'pure' theory"


def test_outcome_arity_message():
    ident = Lam("y", NAT, Ret(Var("y")), ty=_OPEN_FN_TY)
    assert _raise_message(lambda: _pure_evaluator().outcome(ident)) == \
        "program expects 1 arguments, got 0"


def test_unknown_computation_message():
    assert _raise_message(
        lambda: _pure_evaluator().eval_comp(Zero(), {})
    ) == "cannot evaluate computation Zero()"
