"""Parser and printer: examples, round trips, canonical rendering; how
records (nodes, outcomes, programs, specs and reports) are built."""

import dataclasses
import importlib
import math
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import stepbound
from stepbound import syntax
from stepbound.corpus import ALL_PROGRAMS
from stepbound.costs import SEQ_NAT
from stepbound.gen import TermGen, random_theory
from stepbound.order import Verdict, Witness
from stepbound.semantics import (
    DEFAULT_CONFIG, DomainConfig, EvalMode, PureOutcome,
)
from stepbound.syntax import (
    BOOL, NAT, PURE, Bind, CompTerm, CostLit, FTy, Flip, Lam, ListRec, ListTy,
    NatCost, NatRec, Pair, Ret, Step, Suc, SumTy, SyntaxError_, Term, Triv,
    Var, Zero, alpha_eq, alpha_normalize, free_vars, nat_lit, parse,
    print_program, scopes, subst, subterms, term_str,
)
from stepbound.typecheck import TypeCheckError, check_program

DOUBLE_SRC = """
#name double
#effect pure
#cost seq
(: (-> nat (F nat))
   (lam (n : nat)
     (natrec n (ret zero) (k ih (step 1 (bind ih (m (ret (suc (suc m))))))))))
"""


def test_parse_smallest_program():
    p = parse("(ret zero)")
    assert p.body == Ret(Zero())
    assert p.name == "main"
    assert p.theory.kind == "pure"


def test_parse_double_shape():
    p = parse(DOUBLE_SRC)
    lam = p.body
    rec = lam.body
    assert isinstance(rec, NatRec)
    # the successor branch charges one step around the recursive bind
    suc = rec.suc_branch
    assert isinstance(suc, Step) and suc.cost == CostLit(1)
    inner = suc.body
    assert isinstance(inner, Bind) and inner.comp == Var(rec.var_ih)
    assert inner.body == Ret(Suc(Suc(Var(inner.var))))


def test_parse_flip():
    p = parse("#effect prob\n(flip 1/2 (ret tt) (step 1 (ret tt)))")
    assert p.body == Flip(
        Fraction(1, 2), Ret(Triv()), Step(CostLit(1), Ret(Triv()))
    )


def test_parse_numeral_sugar():
    p = parse("(ret 3)")
    assert p.body == Ret(Suc(Suc(Suc(Zero()))))


def test_print_smallest():
    p = parse("(ret zero)")
    assert "(ret 0)" in print_program(p)


def test_print_step_zero_literally():
    # the printer is not a rewriter: a zero annotation stays visible
    p = parse("(step 0 (ret zero))")
    assert "(step 0 (ret 0))" in print_program(p)


def test_print_rational_lowest_terms():
    # oracle: gcd reduction of the raw numerator/denominator
    num, den = 6, 8
    g = math.gcd(num, den)
    p = parse(f"#effect prob\n(flip {num}/{den} (ret tt) (ret tt))")
    assert f"(flip {num // g}/{den // g} " in print_program(p)


def test_rational_reduction_matches_gcd_oracle():
    rng = random.Random(7)
    for _ in range(100):
        num = rng.randrange(0, 12)
        den = rng.randrange(max(num, 1), 16)
        frac = Fraction(num, den)
        g = math.gcd(num, den) or 1
        rendered = term_str(Flip(frac, Ret(Triv()), Ret(Triv())))
        if frac == 0:
            assert "(flip 0 " in rendered
        elif frac == 1:
            assert "(flip 1 " in rendered
        else:
            assert f"(flip {num // g}/{den // g} " in rendered


def test_unknown_effect_op_for_theory():
    with pytest.raises(SyntaxError_):
        parse("(branch (ret tt) (ret tt))")  # pure by default
    with pytest.raises(SyntaxError_):
        parse("#effect nondet\n(flip 1/2 (ret tt) (ret tt))")


def test_syntax_error_carries_position():
    try:
        parse("(ret zero))")
    except SyntaxError_ as e:
        assert e.line is not None
    else:
        pytest.fail("expected a syntax error")


def test_headers():
    p = parse("#name foo\n#effect state:nat\n#cost seq\n(get (s (ret s)))")
    assert p.name == "foo"
    assert p.theory.kind == "state"


def test_par_requires_declared_theory():
    src = "#effect nondet\n#cost par\n(par (ret tt) (ret tt))"
    with pytest.raises(SyntaxError_):
        parse(src)


def test_parse_reads_syntax_and_the_checker_judges_effects():
    # an ascribed body parses whatever its effects; the checker rejects an
    # operation outside the declared theory, at the operation
    prog = parse("#effect pure\n(: (F unit)\n   (branch (ret tt) (ret tt)))")
    with pytest.raises(TypeCheckError) as e:
        check_program(prog)
    assert str(e.value) == ("3:3: effect operation 'branch' outside its "
                            "theory (program declares 'pure')")
    # a bare body is checked to synthesize its type, and a checker error
    # is reported where the checker found it, a numeral included, with
    # the types the checker names
    for src, where, message in (
        ("(bind (ret 1) (x (branch (ret x) (ret x))))", (1, 17),
         "effect operation 'branch' outside its theory (program declares "
         "'pure')"),
        ("\n  (if 1 (ret tt) (ret tt))", (2, 6),
         "value type mismatch (expected bool, found nat)"),
        ("(if 0 (ret tt) (ret tt))", (1, 4),
         "value type mismatch (expected bool, found nat)"),
    ):
        with pytest.raises(SyntaxError_) as e:
            parse(src)
        assert (e.value.line, e.value.col) == where
        assert e.value.message == ("program without a type ascription does "
                                   f"not synthesize: {message}")


def test_a_numeral_sits_where_it_is_written():
    # every node of a parsed numeral carries the numeral's position, so
    # the checker can name it for an ascribed program too
    t = parse("(: (F nat)\n   (ret 2))").body.value
    assert t == nat_lit(2)
    assert [n.loc for n in (t, t.arg, t.arg.arg)] == [(2, 8)] * 3
    with pytest.raises(TypeCheckError) as e:
        check_program(parse("(: (F unit)\n  (if 1 (ret tt) (ret tt)))"))
    assert str(e.value) == ("2:6: value type mismatch "
                            "(expected bool, found nat)")


@pytest.mark.parametrize("prog", ALL_PROGRAMS, ids=lambda p: p.name)
def test_corpus_round_trip(prog):
    text = print_program(prog)
    back = parse(text)
    assert back.declared_ty == prog.declared_ty
    assert back.theory == prog.theory
    assert back.monoid is prog.monoid
    assert alpha_eq(back.body, prog.body)


def test_generated_round_trip():
    rng = random.Random(11)
    for _ in range(150):
        theory = random_theory(rng)
        gen = TermGen(rng, theory)
        prog = gen.program(depth=4)
        back = parse(print_program(prog))
        assert alpha_eq(back.body, prog.body)
        assert back.declared_ty == prog.declared_ty


def test_equal_terms_built_apart_hash_alike():
    for seed in range(60):
        theory = random_theory(random.Random(seed))
        a, b = (TermGen(random.Random(seed), theory).program(depth=4)
                for _ in range(2))
        assert a.body is not b.body and a.body == b.body
        assert hash(a.body) == hash(b.body)
        assert hash(a.declared_ty) == hash(b.declared_ty)
    # a node built by `replace` from one already hashed has its own hash
    one = Suc(Zero())
    hash(one)
    two = dataclasses.replace(one, arg=Suc(Zero()))
    assert two == Suc(Suc(Zero()))
    assert hash(two) == hash(Suc(Suc(Zero()))) != hash(one)
    ty = ListTy(NAT)
    hash(ty)
    charged = dataclasses.replace(ty, charge=2)
    assert hash(charged) == hash(ListTy(NAT, 2)) != hash(ty)


def test_printing_injective_on_alpha_classes():
    rng = random.Random(13)
    seen = {}
    for _ in range(200):
        gen = TermGen(rng, random_theory(rng))
        prog = gen.program(depth=3)
        normal = alpha_normalize(prog.body)
        rendered = term_str(normal)
        if rendered in seen:
            assert seen[rendered] == normal
        else:
            seen[rendered] = normal


def test_alpha_eq_ignores_binder_names():
    a = parse("(bind (ret zero) (x (ret x)))").body
    b = parse("(bind (ret zero) (y (ret y)))").body
    assert alpha_eq(a, b)
    c = parse("(bind (ret zero) (x (ret zero)))").body
    assert not alpha_eq(a, c)


def test_alpha_eq_keeps_a_free_variable_named_like_a_normal_binder():
    # lam x. ret v0 has v0 free; lam v0. ret v0 is closed
    assert not alpha_eq(Lam("x", NAT, Ret(Var("v0"))),
                        Lam("v0", NAT, Ret(Var("v0"))))


def test_nat_cost_annotation_round_trip():
    src = "(: (-> nat (F nat)) (lam (n : nat) (step n (ret n))))"
    p = parse(src)
    lam = p.body
    assert isinstance(lam.body.cost, NatCost)
    assert alpha_eq(parse(print_program(p)).body, p.body)


def test_work_span_cost_literal_round_trip():
    src = "#cost par\n(step (2 5) (ret tt))"
    p = parse(src)
    assert p.body.cost == CostLit((2, 5))
    back = parse(print_program(p))
    assert back.body == p.body and back.monoid is p.monoid


def test_program_files_parse_check_and_run():
    from pathlib import Path

    from stepbound.semantics import DEFAULT_CONFIG, EvalMode, eval_fn
    from stepbound.typecheck import check_program

    progdir = Path(__file__).resolve().parent.parent / "programs"
    files = sorted(progdir.glob("*.sb"))
    assert len(files) >= 4
    for path in files:
        prog = parse(path.read_text(encoding="utf-8"))
        check_program(prog)
        assert alpha_eq(parse(print_program(prog)).body, prog.body)
    double = parse((progdir / "double.sb").read_text())
    out, = eval_fn(double, EvalMode.COST_COUNTING, DEFAULT_CONFIG,
                   [("nat", 6)]).values()
    assert (out.cost, out.value) == (6, ("nat", 12))
    par = parse((progdir / "par-pair.sb").read_text())
    from stepbound.semantics import evaluate

    assert evaluate(par).cost == (5, 3)


def test_charged_list_type_round_trip():
    src = "(: (-> (list 2 nat) (F nat)) (lam (l : (list 2 nat)) (ret 0)))"
    p = parse(src)
    back = parse(print_program(p))
    assert back.declared_ty == p.declared_ty
    # an explicit zero charge is normalized away; the types coincide
    q = parse("(: (-> (list 0 nat) (F nat)) (lam (l : (list nat)) (ret 0)))")
    assert q.declared_ty == parse(
        "(: (-> (list nat) (F nat)) (lam (l : (list nat)) (ret 0)))"
    ).declared_ty


# -- forms: shape errors, numerals, headers ----------------------------------

# a wrongly shaped instance of each form, and where the parser with one
# match case per form rejected it: at the form, or at its bad group
_SHAPES = (
    ("suc", "(ret (suc 1 2))", (1, 5)),
    ("cons", "(ret (cons 1))", (1, 5)),
    ("pair", "(ret (pair 1))", (1, 5)),
    ("fst", "(ret (fst))", (1, 5)),
    ("snd", "(ret (snd 1 2))", (1, 5)),
    ("inl", "(ret (inl))", (1, 5)),
    ("inr", "(ret (inr 1 2))", (1, 5)),
    ("ret", "(ret)", (1, 0)),
    ("bind", "(bind (ret 0) (x))", (1, 14)),
    ("lam", "(: (-> nat (F nat))\n   (lam (n nat) (ret n)))", (2, 8)),
    ("ap", "(ap (ret 0))", (1, 0)),
    ("step", "(step 1)", (1, 0)),
    ("natrec", "(natrec 2 (ret 0) (k (ret k)))", (1, 18)),
    ("listrec", "(listrec nil (F nat) (ret 0) (x xs ih (ret x)))", (1, 13)),
    ("if", "(if true (ret 0))", (1, 0)),
    ("case", "(case (inl 0) (x (ret x)) (y))", (1, 26)),
    ("branch", "#effect nondet\n(branch (ret 0))", (2, 0)),
    ("flip", "#effect prob\n(flip 1/2 (ret 0))", (2, 0)),
    ("get", "#effect state:nat\n(get s (ret s))", (2, 0)),
    ("set", "#effect state:nat\n(set 0)", (2, 0)),
    ("par", "#cost par\n(par (ret 0))", (2, 0)),
    ("prod", "(: (F (prod nat)) (ret 0))", (1, 6)),
    ("sum", "(: (F (sum nat bool unit)) (ret 0))", (1, 6)),
    ("list", "(: (F (list 1 2 nat)) (ret nil))", (1, 6)),
    ("U", "(: (F (U)) (ret 0))", (1, 6)),
    ("F", "(: (F nat bool) (ret 0))", (1, 3)),
    ("->", "(: (-> (F nat)) (ret 0))", (1, 3)),
)


def test_every_form_has_a_shape_case():
    assert sorted(head for head, _, _ in _SHAPES) == sorted(syntax._FORMS)


@pytest.mark.parametrize("head, src, where", _SHAPES,
                         ids=[head for head, _, _ in _SHAPES])
def test_a_badly_shaped_form_is_named_where_it_stands(head, src, where):
    with pytest.raises(SyntaxError_) as e:
        parse(src)
    assert (e.value.line, e.value.col) == where
    assert f"bad '{head}' form, expected ({head} " in e.value.message


@pytest.mark.parametrize("src, where", [
    ("(ret ²)", (1, 5)),
    ("(step ² (ret tt))", (1, 6)),
    ("#cost par\n(step (1 ²) (ret tt))", (2, 9)),
    ("(ret 𝟙)", (1, 5)),
    ("(bind (ret 0) (² (ret tt)))", (1, 15)),
    ("(: (F (list ² nat)) (ret nil))", (1, 12)),
    ("#effect prob\n(flip 𝟙 (ret tt) (ret tt))", (2, 6)),
])
def test_numerals_are_ascii_digits(src, where):
    # str.isdigit accepts '²' and '𝟙'; a numeral is ASCII digits only,
    # and any other digit token is an error where it stands
    with pytest.raises(SyntaxError_) as e:
        parse(src)
    assert (e.value.line, e.value.col) == where


@pytest.mark.parametrize("src, where, message", [
    ("#namex foo\n(ret tt)", (1, 0), "unknown header '#namex'"),
    ("#effects pure\n(ret tt)", (1, 0), "unknown header '#effects'"),
    ("#name x\n  #effect bogus\n(ret tt)", (2, 10),
     "unknown effect theory 'bogus'"),
    ("#name x\n#cost  bogus\n(ret tt)", (2, 7), "unknown cost monoid 'bogus'"),
    ("#name x\n#effect state:(prod nat)\n(ret tt)", (2, 14),
     "bad 'prod' form, expected (prod fst snd)"),
    ("#name x\n#effect state:nat bool\n(ret tt)", (2, 14),
     "bad state type 'nat bool'"),
])
def test_a_header_error_names_the_header_line(src, where, message):
    with pytest.raises(SyntaxError_) as e:
        parse(src)
    assert (e.value.line, e.value.col, e.value.message) == (*where, message)


@pytest.mark.parametrize("src, where", [
    ("(ret tt) (ret tt)", (1, 9)),  # at the second form
    ("", (1, 0)),  # at the end of a source with none
    ("#name x\n", (2, 0)),
    ("#name x\n#effect prob", (2, 12)),
    ("; only a comment", (1, 16)),
])
def test_a_source_without_exactly_one_form_names_a_position(src, where):
    with pytest.raises(SyntaxError_) as e:
        parse(src)
    assert (e.value.line, e.value.col, e.value.message) == (
        *where, "expected exactly one program form"
    )


def test_a_header_keyword_is_a_whole_word():
    p = parse("#name  foo bar\n#effect\tstate: nat\n#cost par\n(ret tt)")
    assert (p.name, p.theory, p.monoid.name) == (
        "foo bar", syntax.state_theory(NAT), "par")


# -- binding structure: free variables, substitution, alpha equivalence -------

# The corpus has no sum case; this program adds one, with a nat-cost step
# and a recursor under its binders.
CASE_SRC = """
(: (-> (sum nat bool) nat (F nat))
   (lam (s : (sum nat bool))
     (lam (m : nat)
       (case s
         (n (step n (natrec n (ret m) (k ih (bind ih (r (ret (suc r))))))))
         (b (if b (ret m) (ret 0)))))))
"""
BINDING_PROGRAMS = ALL_PROGRAMS + (parse(CASE_SRC),)


def _peel(t):
    """The λ-bound names of ``t``'s leading λs, and the body under them."""
    names = []
    while isinstance(t, Lam):
        names.append(t.var)
        t = t.body
    return names, t


def _nodes(t):
    yield t
    for _, sub, _ in scopes(t):
        yield from _nodes(sub)


def _bound_names(t) -> set:
    return {n for node in _nodes(t) for _, _, names in scopes(node)
            for n in names}


def _open_terms():
    """Peeled corpus bodies, then generated terms open in a context."""
    for prog in BINDING_PROGRAMS:
        names, body = _peel(prog.body)
        yield body, names
    rng = random.Random(5)
    ctx = {"a": NAT, "b": BOOL, "c": SumTy(NAT, BOOL)}
    for _ in range(150):
        gen = TermGen(rng, random_theory(rng))
        yield gen.comp(ctx, FTy(NAT), 4), list(ctx)


def test_case_program_checks():
    check_program(BINDING_PROGRAMS[-1])


def test_scopes_cover_every_sub_term():
    for body, _ in _open_terms():
        for node in _nodes(body):
            listed = {field for field, _, _ in scopes(node)}
            assert [id(sub) for sub in subterms(node)] == [
                id(sub) for _, sub, _ in scopes(node)]
            for f in dataclasses.fields(node):
                if isinstance(getattr(node, f.name), (Term, NatCost, CostLit)):
                    assert f.name in listed, (type(node).__name__, f.name)


@pytest.mark.parametrize("prog", BINDING_PROGRAMS, ids=lambda p: p.name)
def test_corpus_programs_are_closed(prog):
    assert free_vars(prog.body) == frozenset()
    names, body = _peel(prog.body)
    assert free_vars(body) <= set(names)


def test_subst_of_a_closed_value_removes_exactly_its_variable():
    v = nat_lit(2)
    checked = 0
    for body, names in _open_terms():
        fv = free_vars(body)
        for x in set(names) | _bound_names(body):
            assert free_vars(subst(body, {x: v})) == fv - {x}
            checked += x in fv
    assert checked > 150


def test_subst_of_an_open_value_never_captures():
    # substituting a variable named like one of the term's own binders is
    # where capture would happen
    checked = 0
    for body, _ in _open_terms():
        fv = free_vars(body)
        for x in sorted(fv):
            for y in sorted(_bound_names(body))[:4]:
                assert free_vars(subst(body, {x: Var(y)})) == (fv - {x}) | {y}
                checked += 1
    assert checked > 200


def test_subst_avoids_the_free_names_of_the_binder_scope():
    # lam x. ret (pair x (pair x1 y)), with y := x: the renamed binder must
    # avoid x (free in the value) and x1 (free in the body)
    t = Lam("x", NAT, Ret(Pair(Var("x"), Pair(Var("x1"), Var("y")))))
    r = subst(t, {"y": Var("x")})
    assert free_vars(r) == {"x", "x1"}
    assert alpha_eq(r, Lam("z", NAT, Ret(Pair(Var("z"), Pair(Var("x1"), Var("x"))))))
    # lam x. lam x1. ret (pair x y), with y := x: x is renamed to x1, so
    # the inner x1 must be renamed in turn
    t = Lam("x", NAT, Lam("x1", NAT, Ret(Pair(Var("x"), Var("y")))))
    r = subst(t, {"y": Var("x")})
    assert free_vars(r) == {"x"}
    assert alpha_eq(r, Lam("a", NAT, Lam("b", NAT, Ret(Pair(Var("a"), Var("x"))))))


def test_alpha_eq_survives_renaming_to_a_fresh_name_and_back():
    checked = 0
    for body, names in _open_terms():
        taken = free_vars(body) | _bound_names(body)
        fresh = next(f"z{i}" for i in range(100) if f"z{i}" not in taken)
        for x in free_vars(body):
            there = subst(body, {x: Var(fresh)})
            assert not alpha_eq(there, body)
            assert alpha_eq(subst(there, {fresh: Var(x)}), body)
            checked += 1
        # renaming a binder is alpha equivalent
        for x in names:
            renamed = Lam(fresh, NAT, subst(body, {x: Var(fresh)}))
            assert alpha_eq(renamed, Lam(x, NAT, body))
    assert checked > 150


# -- records: how nodes, outcomes, programs, specs and reports are built ----

_NODES = [c for c in vars(syntax).values()
          if isinstance(c, type) and "_hash" in vars(c)]
_RECORDS = [c for info in pkgutil.iter_modules(stepbound.__path__)
            for c in vars(importlib.import_module(
                f"stepbound.{info.name}")).values()
            if isinstance(c, type) and "__record_fields__" in vars(c)
            and c.__module__ == f"stepbound.{info.name}"]
_MUTABLE = [c for c in _RECORDS if c.__hash__ is None]
# fields that ``__post_init__`` checks, with two valid values each
_CHECKED = {(Flip, "prob"): (Fraction(1, 2), Fraction(1, 3)),
            (Verdict, "holds"): (False, None),
            **{(DomainConfig, name): (1, 2) for name in (
                "nat_max", "list_len", "elems", "state_max", "input_cap",
                "hyp_candidates", "hyp_min_admitted", "hyp_depth")}}


def test_every_node_class_is_a_record():
    # 9 types, 3 term bases, 12 values, 2 cost forms, 15 computations
    assert len(_NODES) == 41
    # and 41 nodes, Program and 5 outcomes, EffectTheory, SAtom, SList,
    # 3 cost monoids, DomainConfig, BoundSpec, Law, and 4 mutable reports
    assert len(_RECORDS) == 60
    assert {c.__name__ for c in _MUTABLE} == {
        "Witness", "Verdict", "LawReport", "CheckReport"}
    # keyword-only fields come last, the order ``__init__`` takes them in
    for cls in _RECORDS:
        kw_only = [f.kw_only for f in cls.__record_fields__.values()]
        assert kw_only == sorted(kw_only), cls
    # every term has a ``loc`` and every computation a ``ty``, declared
    # once as keyword-only metadata that is neither compared nor hashed
    terms = [c for c in _NODES if issubclass(c, Term)]
    assert len(terms) == 30
    for cls in terms:
        meta = [f for f in cls.__record_fields__.values() if not f.compare]
        assert [f.name for f in meta] == (
            ["loc"] + ["ty"] * issubclass(cls, CompTerm)
            + ["list_charge"] * (cls is ListRec)), cls
        assert all(f.kw_only for f in meta)
    pairs = [(Var("x", loc=(1, 2)), Var("x")),
             (Ret(Zero(), loc=(3, 4), ty=FTy(NAT)), Ret(Zero()))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__name__)
def test_record_construction_contract(cls):
    fields = dataclasses.fields(cls)
    assert dataclasses.is_dataclass(cls)
    kw = {f.name: _CHECKED.get((cls, f.name), (object(),))[0]
          for f in fields}
    ids = lambda obj: [id(getattr(obj, f.name)) for f in fields]
    want = [id(kw[f.name]) for f in fields]
    positional = [kw[f.name] for f in fields if not f.kw_only]
    assert cls.__match_args__ == tuple(f.name for f in fields
                                       if not f.kw_only)
    obj = cls(**kw)
    assert ids(obj) == want
    assert ids(cls(*positional, **{f.name: kw[f.name]
                                   for f in fields if f.kw_only})) == want
    if len(positional) < len(fields):
        with pytest.raises(TypeError):
            cls(*[kw[f.name] for f in fields])
    required = {f.name: kw[f.name] for f in fields
                if f.default is f.default_factory is dataclasses.MISSING}
    defaulted, again = cls(**required), cls(**required)
    for f in fields:
        if f.default_factory is dataclasses.MISSING:
            assert getattr(defaulted, f.name) is required.get(f.name,
                                                              f.default)
        else:  # a fresh value per instance
            assert getattr(defaulted, f.name) == f.default_factory()
            assert getattr(defaulted, f.name) is not getattr(again, f.name)
    names = [f.name for f in fields] + ["extra"]
    if cls in _MUTABLE:
        target = cls(**kw)
        for name in names:
            value = object()
            setattr(target, name, value)
            assert getattr(target, name) is value
        with pytest.raises(TypeError):
            hash(obj)
    else:
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, object())
        # the dataclass hash, so hash values and set orders stay as they were
        assert hash(obj) == hash(tuple(getattr(obj, f.name)
                                       for f in fields if f.compare))
    # the dataclass repr, which sort keys of suspended values read
    shown = (f"{f.name}={getattr(obj, f.name)!r}" for f in fields if f.repr)
    assert repr(obj) == f"{cls.__qualname__}({', '.join(shown)})"
    assert obj.__eq__(object()) is NotImplemented
    assert dataclasses.replace(obj) == obj
    for f in fields:
        new = _CHECKED.get((cls, f.name), (None, object()))[1]
        changed = dataclasses.replace(obj, **{f.name: new})
        fresh = cls(**{**kw, f.name: new})
        assert changed == fresh
        if cls not in _MUTABLE:
            assert hash(changed) == hash(fresh)
        assert (changed == obj) is not f.compare


def test_witness_json_is_its_fields():
    w = Witness("[1 0]", "step^3 ret 2", "step^2 ret 2", "cost 3 > 2")
    assert dataclasses.asdict(w) == w.to_json() == {
        "input": "[1 0]", "lhs": "step^3 ret 2", "rhs": "step^2 ret 2",
        "explanation": "cost 3 > 2"}


def test_record_post_init_still_checks():
    for prob in (0, 1, Fraction(0), Fraction(1), Fraction(1, 2)):
        assert Flip(prob, Ret(Zero()), Ret(Zero())).prob == prob
    for prob in (Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError,
                           match=f"flip probability {prob} outside"):
            Flip(prob, Ret(Zero()), Ret(Zero()))


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: the test session has both modules loaded
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import sys, stepbound; stepbound.corpus(); "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_outcome_cfg_defaults_to_the_default_domain():
    out = PureOutcome(PURE, SEQ_NAT, EvalMode.COST_COUNTING, 0, ("nat", 0))
    assert out.cfg is DEFAULT_CONFIG
