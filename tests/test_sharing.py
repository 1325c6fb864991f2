"""Evaluation reads only what a check needs: a recursor whose step branch
ignores its induction hypothesis runs as a case, with no fold and no
table, and ``relation_check`` makes the equal sub-terms of a program and
its bound one node, with one closure and one table."""

import pytest

from stepbound.corpus import (
    ALL_PROGRAMS, INSERT, ISORT_LOWER_BOUND, LEN, LEQ_NAT, LOOKUP,
    LOOKUP_BOUND, LOOKUP_BODY, LOOKUP_SPEC, MERGE, MSORT, PRED, QSORT,
    QSORT_BODY, corpus,
)
from stepbound.costs import SEQ_NAT
from stepbound.order import _share, relation_check
from stepbound.records import replace
from stepbound.semantics import (
    DomainConfig, EvalError, EvalMode, Evaluator, enumerate_inputs,
)
from stepbound.syntax import (
    BOOL, NAT, PURE, Bind, BoolLit, FTy, If, ListRec, ListTy, NatRec, Nil, Ret,
    Var, Zero, free_vars, map_scopes, parse, subterms,
)
from stepbound.typecheck import elaborate

MODES = (EvalMode.COST_COUNTING, EvalMode.EXTENSIONAL)


def _step(r):
    return r.suc_branch if isinstance(r, NatRec) else r.cons_branch


def _nodes(t):
    """Every node of ``t``, shared ones once."""
    seen, todo = {}, [t]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            todo += subterms(n)
    return list(seen.values())


def _ih_free(t) -> list:
    """The recursors in ``t`` whose step branch ignores its IH."""
    return [n for n in _nodes(t) if isinstance(n, (NatRec, ListRec))
            and n.var_ih not in free_vars(_step(n))]


def _own(helper, *inner):
    """The IH-free recursors of ``helper`` that none of ``inner`` holds."""
    theirs = {id(r) for h in inner for r in _ih_free(h)}
    return [r for r in _ih_free(helper) if id(r) not in theirs]


# each IH-free recursor of the corpus, with a program that reaches it
_CASES = {
    "leq-nat": (INSERT, _own(LEQ_NAT)),
    "merge": (MSORT, _own(MERGE, LEQ_NAT)),
    "qsort": (QSORT, _own(QSORT_BODY, LEQ_NAT)),
    "lookup": (LOOKUP, _own(LOOKUP_BODY)),
    "lookup-spec": (LOOKUP_BOUND, _own(LOOKUP_SPEC)),
    "pred": (ISORT_LOWER_BOUND, _own(PRED)),
}


def test_the_cases_are_every_ih_free_recursor_of_the_corpus():
    assert [len(rs) for _, rs in _CASES.values()] == [1, 2, 1, 1, 1, 1]
    listed = {id(r) for _, rs in _CASES.values() for r in rs}
    assert listed == {id(r) for p in ALL_PROGRAMS for r in _ih_free(p.body)}


def _swap(t, old, new):
    if t is old:
        return new
    return map_scopes(t, lambda sub, names: (names, _swap(sub, old, new)))


def _folded(r):
    """``r`` with its step branch ``if true then <branch> else (force
    ih)``: it names its IH, so it folds and tables as before."""
    branch = If(BoolLit(True), _step(r), Var(r.var_ih))
    if isinstance(r, NatRec):
        return replace(r, suc_branch=branch)
    return replace(r, cons_branch=branch)


def _domain_of(program):
    for spec in corpus():
        if program in (spec.program, spec.bound):
            return spec.domain
    raise LookupError(program.name)


def _run(program, mode, cfg):
    """Outcomes over the domain, and the recursor nodes with tables."""
    ev = Evaluator(program.theory, program.monoid, mode, cfg)
    body = elaborate(program).body
    try:
        _, inputs = enumerate_inputs(program.declared_ty, cfg)
        outcomes = [str(ev.outcome(body, args)) for args in inputs]
        tabled = {nid: sum(map(len, ev._tables[nid].values()))
                  for nid, (node, _) in ev._compiled.items()
                  if isinstance(node, (NatRec, ListRec))
                  and nid in ev._tables}
        nodes = {id(n): n for n in _nodes(body)}
        return outcomes, {nodes[nid]: n for nid, n in tabled.items()}
    finally:
        ev.close()


def _is_folded(node):
    step = _step(node)
    return type(step) is If and step.cond == BoolLit(True)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name, index", [
    (name, i) for name, (_, rs) in _CASES.items() for i in range(len(rs))
])
def test_a_case_gives_what_the_fold_gives_and_tables_nothing(name, index,
                                                               mode):
    program, recursors = _CASES[name]
    r = recursors[index]
    variant = replace(program, body=_swap(program.body, r, _folded(r)))
    cfg = _domain_of(program)
    outcomes, tabled = _run(program, mode, cfg)
    folded_outcomes, folded_tabled = _run(variant, mode, cfg)
    assert outcomes == folded_outcomes
    assert not any(n == r for n in tabled)
    assert not any(_is_folded(n) for n in tabled)
    made = [entries for n, entries in folded_tabled.items() if _is_folded(n)]
    assert made and all(made)


def test_a_list_case_charges_its_list_charge_once():
    program = parse(
        "(: (-> (list 2 nat) (F nat)) (lam (l : (list 2 nat)) "
        "(listrec l (ret 7) (x xs r (ret x)))))"
    )
    (r,) = _ih_free(program.body)
    variant = replace(program, body=_swap(program.body, r, _folded(r)))
    cfg = DomainConfig(list_len=3, elems=3)
    outcomes, tabled = _run(program, EvalMode.COST_COUNTING, cfg)
    assert tabled == {}
    assert outcomes == _run(variant, EvalMode.COST_COUNTING, cfg)[0]
    assert outcomes[:2] == ["step^0 ret 7", "step^2 ret 0"]


def test_a_case_still_refuses_an_unbound_variable_in_a_branch_not_run():
    ev = Evaluator(PURE, SEQ_NAT, EvalMode.COST_COUNTING, DomainConfig())
    for rec, empty in (
        (NatRec(Var("n"), Ret(Zero()), "k", "ih", Ret(Var("x")),
                ty=FTy(NAT)), ("nat", 0)),
        (ListRec(Var("n"), Ret(Zero()), "y", "ys", "ih", Ret(Var("x")),
                 ty=FTy(NAT)), ("list", ())),
    ):
        with pytest.raises(EvalError, match="unbound variable 'x'"):
            ev.eval_comp(rec, {"n": empty})
    ev.close()


def _by_name(name):
    (spec,) = [s for s in corpus() if s.name == name]
    return spec


def test_msort_upper_reaches_one_len_from_the_program_and_the_bound():
    spec = _by_name("msort-upper")
    ev, check = relation_check(spec.relation, spec.program, spec.bound,
                               EvalMode.COST_COUNTING, spec.domain)
    try:
        assert check().holds
        bodies = [body for body, _, _ in ev._bodies.values()]
        assert len(bodies) == 2
        lens = [{id(n) for n in _nodes(b) if n == LEN} for b in bodies]
        recs = [{id(n) for n in _nodes(b) if n == LEN.body} for b in bodies]
        assert lens[0] == lens[1] and len(lens[0]) == 1
        assert recs[0] == recs[1] and len(recs[0]) == 1
        assert lens[0] <= set(ev._tables) and recs[0] <= set(ev._tables)
    finally:
        ev.close()


def test_share_keeps_nodes_apart_when_their_types_differ():
    nat_nil = Ret(Nil(), ty=FTy(ListTy(NAT)))
    bool_nil = Ret(Nil(), ty=FTy(ListTy(BOOL)))
    assert nat_nil == bool_nil
    memo = {}
    a, b, c = (_share(t, memo) for t in
               (nat_nil, bool_nil, Ret(Nil(), ty=FTy(ListTy(NAT)))))
    assert a is not b and a is c
    assert (a.ty, b.ty) == (nat_nil.ty, bool_nil.ty)


def _len_rec(list_ty):
    """The list recursor of ``len`` elaborated over ``list_ty``, bound
    to a fresh name as ``(bind <recursor> (n (ret n)))``."""
    body = elaborate(parse(
        f"(: (-> {list_ty} (F nat)) (lam (l : {list_ty}) "
        "(bind (listrec l (ret 0) (x xs r (bind r (m (ret (suc m)))))) "
        "(n (ret n)))))"
    )).body.body
    assert type(body) is Bind and type(body.comp) is ListRec
    return body


def test_share_keeps_nodes_apart_when_their_list_charges_differ():
    free, charged = _len_rec("(list nat)"), _len_rec("(list 2 nat)")
    assert free == charged
    assert (free.comp.list_charge, charged.comp.list_charge) == (None, 2)
    memo = {}
    a, b, c = (_share(t, memo) for t in
               (free, charged, _len_rec("(list 2 nat)")))
    # the recursors stay apart, and so do the binds over them, which
    # node equality alone would make one
    assert a is not b and a.comp is not b.comp and b is c
    assert (a.comp.list_charge, b.comp.list_charge) == (None, 2)
