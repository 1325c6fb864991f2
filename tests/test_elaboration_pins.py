"""What the type checker elaborates and rejects, pinned by digest.

Each probe runs one public entry point of the checker and prints what it
returned: the elaborated term with every field of every node except its
source location (so each node's checked ``ty``, a list recursor's
``list_charge`` and a recursor's ``motive`` are covered) and the
synthesized type, or else the ``TypeCheckError`` message.  The probes are
the corpus programs, seeded generated programs (checked at their type and
inferred), both sides of the first instances of every law and mutant, and
a fixed grid of values, most of them ill-typed, against a grid of types
under every theory and monoid.

The digests were printed by the checker with separate inferring and
checking walks over values, before they became one walk.
"""

import hashlib
import itertools
import random
from fractions import Fraction

from stepbound.corpus import ALL_PROGRAMS
from stepbound.costs import SEQ_NAT, WORK_SPAN
from stepbound.gen import TermGen, random_theory
from stepbound.laws import catalog, instances, mutant_catalog
from stepbound.syntax import (
    BOOL, NAT, NONDET, PROB, PURE, UNIT, Ap, ArrowTy, Bind, BoolLit, Branch,
    CompTy, Cons, CostLit, FTy, Fail, Flip, Fst, Get, If, Inl, Inr, Lam,
    ListRec, ListTy, NatCost, NatRec, Nil, Pair, Par, ProdTy, Put, Ret, Snd,
    Step, Suc, SumCase, SumTy, Term, Triv, UTy, Var, Zero, state_theory,
)
from stepbound.typecheck import Checker, TypeCheckError, elaborate


def _show(x) -> str:
    """``x`` printed with every record field except ``loc``."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_show, x)) + ")"
    fields = getattr(x, "__record_fields__", None)
    if fields is None:
        return repr(x)
    return type(x).__name__ + "(" + ", ".join(
        f"{name}={_show(getattr(x, name))}" for name in fields if name != "loc"
    ) + ")"


def _probe(run) -> str:
    try:
        return _show(run())
    except TypeCheckError as e:
        return f"error: {e}"


def _digest(lines):
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def corpus_lines():
    """Each corpus program elaborated at its type and inferred."""
    lines = []
    for p in ALL_PROGRAMS:
        c = Checker(p.theory, p.monoid)
        lines.append(_probe(lambda: elaborate(p).body))
        lines.append(_probe(lambda: c.infer_comp((), p.body)))
    return lines


def generated_lines(count=3000):
    """Seeded generated programs, checked at their type and inferred."""
    rng = random.Random(2024)
    lines = []
    for _ in range(count):
        theory = random_theory(rng)
        prog = TermGen(rng, theory).program(depth=4)
        c = Checker(theory, SEQ_NAT)
        lines.append(_probe(lambda: c.check_comp((), prog.body,
                                                 prog.declared_ty)))
        lines.append(_probe(lambda: c.infer_comp((), prog.body)))
    return lines


def law_lines(per_law=20):
    """Both sides of each law's and mutant's first instances, checked at
    the instance type and inferred."""
    lines = []
    for law in catalog() + mutant_catalog():
        for theory, lhs, rhs, ty in itertools.islice(instances(law, 0),
                                                     per_law):
            c = Checker(theory, SEQ_NAT)
            for side in (lhs, rhs):
                lines.append(_probe(lambda: c.check_comp((), side, ty)))
                lines.append(_probe(lambda: c.infer_comp((), side)))
    return lines


_CTX = (
    ("n", NAT), ("b", BOOL), ("xs", ListTy(NAT)), ("p", ProdTy(NAT, BOOL)),
    ("s", SumTy(NAT, UNIT)), ("c", UTy(FTy(NAT))),
    ("f", UTy(ArrowTy(NAT, FTy(NAT)))),
)

_R0 = Ret(Zero())

_VALUES = (
    Triv(), BoolLit(True), Zero(), Suc(Zero()), Suc(BoolLit(False)),
    Suc(Var("b")), Var("n"), Var("nope"), Var("c"), Var("f"),
    Pair(Zero(), Triv()), Pair(Nil(), Zero()), Pair(Zero(), Nil()),
    Fst(Var("p")), Snd(Var("p")), Fst(Zero()), Snd(Var("n")),
    Fst(Pair(Zero(), Nil())), Nil(), Cons(Zero(), Nil()),
    Cons(Zero(), Var("xs")), Cons(BoolLit(True), Var("xs")),
    Cons(Zero(), Zero()), Cons(Nil(), Nil()),
    Cons(Zero(), Cons(Triv(), Nil())), Cons(Var("nope"), Nil()),
    Cons(Zero(), Var("nope")), Inl(Zero()), Inr(Triv()), Inl(BoolLit(True)),
    Inr(Var("nope")), _R0, Ret(Var("nope")), Ret(Nil()),
    Branch(_R0, _R0), Branch(Fail(), _R0), Fail(),
    Flip(Fraction(1, 2), _R0, Ret(Triv())), Get("z", Ret(Var("z"))),
    Put(Zero(), Ret(Triv())), Put(BoolLit(True), Ret(Triv())),
    Par(_R0, Ret(Triv())), Lam("x", NAT, Ret(Var("x"))),
    Lam("x", None, Ret(Var("x"))), Lam("x", BOOL, Ret(Var("x"))),
    Step(CostLit(1), _R0), Step(CostLit((1, 1)), _R0),
    Step(NatCost(Var("n")), _R0), Step(NatCost(Var("b")), _R0),
    Ap(Var("f"), Zero()), Ap(Var("f"), Var("b")), Ap(Var("n"), Zero()),
    Ap(Lam("x", None, Ret(Var("x"))), Zero()), Var("c"),
    Bind(Var("c"), "m", Ret(Suc(Var("m")))), Bind(Fail(), "m", _R0),
    Bind(Ret(Zero()), "m", Var("m")),
    If(Var("b"), _R0, Fail()), If(Var("n"), _R0, _R0),
    SumCase(Var("s"), "x", Ret(Var("x")), "y", _R0),
    SumCase(Var("n"), "x", _R0, "y", _R0),
    NatRec(Var("n"), _R0, "k", "ih", Ret(Var("k"))),
    NatRec(Var("n"), Fail(), "k", "ih", Var("ih"), FTy(NAT)),
    NatRec(Var("n"), _R0, "k", "ih", Var("ih"), FTy(BOOL)),
    ListRec(Var("xs"), _R0, "x", "ys", "ih", Var("ih")),
    ListRec(Nil(), _R0, "x", "ys", "ih", Ret(Var("x"))),
    ListRec(Zero(), _R0, "x", "ys", "ih", Var("ih")),
)

_TYPES = (
    UNIT, BOOL, NAT, ListTy(NAT), ListTy(NAT, 2), ListTy(BOOL),
    ProdTy(NAT, UNIT), ProdTy(NAT, BOOL), SumTy(NAT, UNIT), SumTy(BOOL, UNIT),
    UTy(FTy(NAT)), UTy(FTy(UNIT)), UTy(ArrowTy(NAT, FTy(NAT))), FTy(NAT),
    ArrowTy(NAT, FTy(NAT)),
)

_THEORIES = (PURE, NONDET, PROB, state_theory(NAT), state_theory(BOOL))


def _located(t, where):
    """``t`` with every term node at its own position, in preorder."""
    if not isinstance(t, Term):
        return t
    loc = (next(where), 0)
    return type(t)(**{
        name: loc if name == "loc" else _located(getattr(t, name), where)
        for name in t.__record_fields__
    })


def grid_lines():
    """Every grid value inferred and checked at every grid type, as it
    stands and under ``ret``, under every theory and monoid."""
    where = itertools.count(1)
    values = [_located(v, where) for v in _VALUES]
    lines = []
    for theory, monoid in itertools.product(_THEORIES, (SEQ_NAT, WORK_SPAN)):
        c = Checker(theory, monoid)
        for v in values:
            lines.append(_probe(lambda: c.infer(_CTX, v)))
            lines.append(_probe(lambda: c.infer_comp(_CTX, Ret(v))))
            for ty in _TYPES:
                lines.append(_probe(lambda: c.check(_CTX, v, ty)))
                lines.append(_probe(lambda: c.check_comp(_CTX, v, ty)))
                if not isinstance(ty, CompTy):
                    lines.append(_probe(
                        lambda: c.check_comp(_CTX, Ret(v), FTy(ty))))
    return lines


# (probes, sha256 prefix) per group
_PINNED = {
    "corpus": (74, "9c394d1344279330"),
    "generated": (6000, "9dbba1bae804e6e7"),
    "laws": (2400, "9d57d408ba53738f"),
    "grid": (30150, "ad8a8db383691610"),
}


def test_corpus_elaborations_are_pinned():
    assert _digest(corpus_lines()) == _PINNED["corpus"]


def test_generated_elaborations_are_pinned():
    assert _digest(generated_lines()) == _PINNED["generated"]


def test_law_instance_elaborations_are_pinned():
    assert _digest(law_lines()) == _PINNED["laws"]


def test_type_errors_are_pinned():
    assert _digest(grid_lines()) == _PINNED["grid"]
