"""Sort discipline, effect discipline, infer/check agreement, soundness."""

import random

import pytest

from stepbound.corpus import DOUBLE, QSORT, corpus
from stepbound.gen import TermGen, random_theory
from stepbound.semantics import DomainConfig, EvalMode, evaluate
from stepbound.syntax import (
    BOOL, NAT, UNIT, ArrowTy, Bind, BoolLit, Branch, CompTerm, CompTy,
    CostLit, FTy, Fail, Flip, Get, Lam, ListRec, ListTy, NONDET, PROB, PURE,
    Par, Put, Ret, Step, Triv, UTy, Var, Zero, parse, scopes, state_theory,
)
from stepbound.costs import SEQ_NAT, WORK_SPAN
from stepbound.typecheck import (
    Checker, TypeCheckError, check_program, elaborate,
)

from fractions import Fraction


def checker(theory=PURE, monoid=SEQ_NAT):
    return Checker(theory, monoid)


def test_check_double():
    check_program(DOUBLE)  # nat -> F nat


def test_check_ret_triv():
    checker().check((), Ret(Triv()), FTy(UNIT))


def test_bind_continuation_must_be_computation():
    # bind(ret 0, x. x): the body is a nat-typed value where a
    # computation is required
    t = Bind(Ret(Zero()), "x", Var("x"))
    with pytest.raises(TypeCheckError):
        checker().check((), t, FTy(NAT))


def test_infer_ret_true():
    assert checker().infer((), Ret(BoolLit(True))) == FTy(BOOL)


def test_infer_qsort_body():
    got = Checker(NONDET, SEQ_NAT).infer((), QSORT.body)
    assert got == ArrowTy(ListTy(NAT), FTy(ListTy(NAT)))


def test_infer_fail_needs_ascription():
    with pytest.raises(TypeCheckError):
        Checker(NONDET, SEQ_NAT).infer((), Fail())


def test_unbound_variable():
    with pytest.raises(TypeCheckError):
        checker().infer((), Var("nope"))


def test_value_used_as_computation():
    with pytest.raises(TypeCheckError):
        checker().check((("x", NAT),), Var("x"), FTy(NAT))


def test_thunk_variable_forces():
    # a U-typed variable is usable directly as a computation
    ctx = (("e", UTy(FTy(NAT))),)
    checker().check(ctx, Var("e"), FTy(NAT))


def test_effect_ops_outside_their_theory():
    with pytest.raises(TypeCheckError):
        checker(PURE).check((), Branch(Ret(Triv()), Ret(Triv())), FTy(UNIT))
    with pytest.raises(TypeCheckError):
        checker(PURE).check((), Flip(Fraction(1, 2), Ret(Triv()), Ret(Triv())),
                            FTy(UNIT))
    with pytest.raises(TypeCheckError):
        checker(NONDET, SEQ_NAT).check((), Get("s", Ret(Var("s"))), FTy(NAT))
    with pytest.raises(TypeCheckError):
        checker(PROB).check((), Fail(), FTy(UNIT))


def test_par_needs_pure_theory_and_par_monoid():
    from stepbound.syntax import ProdTy

    body = Par(Ret(Triv()), Ret(Triv()))
    ty = FTy(ProdTy(UNIT, UNIT))
    checker(PURE, WORK_SPAN).check((), body, ty)
    with pytest.raises(TypeCheckError):
        checker(PURE, SEQ_NAT).check((), body, ty)
    with pytest.raises(TypeCheckError):
        checker(NONDET, WORK_SPAN).check((), body, ty)


def test_cost_literal_must_match_monoid():
    t = Step(CostLit((1, 1)), Ret(Triv()))
    checker(PURE, WORK_SPAN).check((), t, FTy(UNIT))
    with pytest.raises(TypeCheckError):
        checker(PURE, SEQ_NAT).check((), t, FTy(UNIT))


def test_lam_annotation_must_agree():
    t = Lam("x", BOOL, Ret(Var("x")))
    with pytest.raises(TypeCheckError):
        checker().check((), t, ArrowTy(NAT, FTy(NAT)))


@pytest.mark.parametrize("body", [Ret(Var("x")), Ret(Zero())])
def test_unannotated_lam_does_not_synthesize(body):
    # neither "unbound variable 'x'" nor a synthesized ArrowTy(dom=None, ...)
    with pytest.raises(TypeCheckError) as e:
        checker().infer_comp((), Lam("x", None, body))
    assert str(e.value) == "lam needs a type annotation to synthesize"


def test_unannotated_lam_checks_at_an_arrow_and_gets_its_domain():
    ty = ArrowTy(NAT, FTy(NAT))
    lam = checker().check_comp((), Lam("x", None, Ret(Var("x"))), ty)
    assert lam.var_ty == NAT and lam.ty == ty


def test_state_ops_use_declared_state_type():
    th = state_theory(BOOL)
    c = Checker(th, SEQ_NAT)
    c.check((), Get("s", Put(Var("s"), Ret(Triv()))), FTy(UNIT))
    with pytest.raises(TypeCheckError):
        c.check((), Put(Zero(), Ret(Triv())), FTy(UNIT))


def _annotations(t):
    """Each node's form, elaborated type and list charge, in traversal
    order (``==`` on terms skips the last two)."""
    out = [(type(t).__name__, getattr(t, "ty", None),
            getattr(t, "list_charge", None))]
    for _, sub, _ in scopes(t):
        out += _annotations(sub)
    return out


def _infer_check_agree(c, body):
    """Elaborate ``body`` by inference and by checking at the inferred
    type; both must give the same tree and the same annotations.  False
    when the body does not synthesize."""
    try:
        ty, inferred = c.infer_comp((), body)
    except TypeCheckError:
        return False
    checked = c.check_comp((), body, ty)
    assert checked == inferred
    assert _annotations(checked) == _annotations(inferred)
    return True


def test_infer_check_agreement_on_generated_programs():
    rng = random.Random(23)
    agreed = 0
    for _ in range(200):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        prog = gen.program(depth=4)
        agreed += _infer_check_agree(Checker(theory, SEQ_NAT), prog.body)
    assert agreed >= 100


# no corpus program recurses over a cost-annotated list
CHARGED_LENGTH = parse("""
(: (-> (list 2 nat) (F nat))
   (lam (l : (list 2 nat))
     (listrec l (ret zero) (x xs r (bind r (n (ret (suc n))))))))
""")


def _programs():
    for spec in corpus():
        yield spec.program
        yield spec.bound
        if spec.hypothesis is not None:
            yield spec.hypothesis.program
            yield spec.hypothesis.bound
    yield CHARGED_LENGTH


def test_infer_check_agreement_on_corpus_programs():
    # a few corpus bodies (isort's nil case, lookup's fail) only check
    agreed = sum(
        _infer_check_agree(Checker(p.theory, p.monoid), p.body)
        for p in _programs()
    )
    assert agreed >= 30


def _comp_nodes(t):
    if isinstance(t, CompTerm):
        yield t
    for _, sub, _ in scopes(t):
        yield from _comp_nodes(sub)


def test_elaborated_corpus_computations_carry_their_type():
    # the evaluator reads each computation node's checked type
    for p in _programs():
        body = elaborate(p).body
        assert body.ty == p.declared_ty
        for node in _comp_nodes(body):
            assert isinstance(node.ty, CompTy), (p.name, node)
    # and a list recursor carries its list type's per-cons charge
    rec, = (n for n in _comp_nodes(elaborate(CHARGED_LENGTH).body)
            if isinstance(n, ListRec))
    assert rec.list_charge == 2


def _term_size(t):
    import dataclasses
    from stepbound.syntax import Term

    n = 1
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if isinstance(v, Term):
            n += _term_size(v)
    return n


def test_soundness_well_typed_programs_evaluate():
    # every well-typed closed F-typed program evaluates without dynamic
    # sort errors, across theories, up to size 25
    rng = random.Random(31)
    cfg = DomainConfig(nat_max=4, list_len=2, elems=2, state_max=4)
    ran = 0
    for _ in range(400):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        prog = gen.program(depth=4, ty=gen.result_ty())
        if _term_size(prog.body) > 25:
            continue
        check_program(prog)
        evaluate(prog, EvalMode.COST_COUNTING, cfg)
        evaluate(prog, EvalMode.EXTENSIONAL, cfg)
        ran += 1
    assert ran >= 150
