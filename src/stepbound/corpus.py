"""The example corpus: cost-instrumented programs and their bounds.

Every entry pairs a program with a bounding program of the same type and
theory, related by one of the four ``order.Relation``s over the whole
input domain.

Bounds are ordinary programs: where a bound needs arithmetic on the input
(lengths, squares, logs) it computes it with cost-free helper
computations and feeds the result to ``step`` as a nat-valued
annotation.  ``harness.assert_helpers_cost_free`` checks that every
``SPEC_HELPERS`` entry really is cost-free on every input of a small
domain; Tier-1 (``tests/test_corpus.py``) calls it, and ``verify`` does
not.

Higher-order entries (``twice``, ``map``) cannot be tabulated over their
suspended argument, so they carry a *hypothesis* spec: the harness
generates candidate arguments, keeps those satisfying the hypothesis and
checks the conclusion for each.  That is evidence, not proof, and the
reports say so.  A hypothesis is decided over its spec's domain, on
candidates of its spec's theory and cost monoid, so it repeats all
three; ``verify`` refuses one that differs.

Recursion in the sources is structural only; quicksort and merge sort
recurse on non-structural sublists, so they run inside a nat-recursor
over a fuel bound (the input length, or the summed lengths for the
merge), which the structure of the algorithms keeps sufficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .costs import SEQ_NAT
from .order import Relation
from .records import record
from .semantics import DomainConfig
from .syntax import (
    BOOL, NAT, UNIT, Ap, ArrowTy, Bind, BoolLit, Branch, Cons, CostLit, FTy,
    Fail, Flip, Fst, Get, If, Lam, ListRec, ListTy, NONDET, NatCost, NatRec,
    Nil, PROB, PURE, Pair, ProdTy, Program, Put, Ret, Snd, Step, Suc, Triv,
    UTy, Var, Zero, nat_lit, state_theory,
)


@record
class BoundSpec:
    name: str
    program: Program
    bound: Program
    relation: Relation
    domain: DomainConfig
    hypothesis: Optional["BoundSpec"] = None
    note: str = ""


# ---------------------------------------------------------------------------
# Term builders
# ---------------------------------------------------------------------------


def v(name):
    return Var(name)


def ap(f, *args):
    for a in args:
        f = Ap(f, a)
    return f


def bind(e, x, body):
    return Bind(e, x, body)


def lam(x, ty, body):
    return Lam(x, ty, body)


def step(c, body):
    if isinstance(c, (int, tuple)):
        return Step(CostLit(c), body)
    return Step(NatCost(c), body)


def ret(x):
    return Ret(x)


LIST_NAT = ListTy(NAT)


# ---------------------------------------------------------------------------
# Cost-free helper computations (complex values)
# ---------------------------------------------------------------------------

# m <= n, by recursion on m then n; no cost is charged here, callers
# wrap the call in an explicit step when the cost model counts it.
LEQ_NAT = lam(
    "m", NAT,
    NatRec(
        v("m"),
        lam("n", NAT, ret(BoolLit(True))),
        "k", "leq_k",
        lam("n", NAT, NatRec(v("n"), ret(BoolLit(False)), "j", "_u",
                             ap(v("leq_k"), v("j")))),
    ),
)

ADD = lam(
    "a", NAT,
    NatRec(
        v("a"),
        lam("b", NAT, ret(v("b"))),
        "k", "add_k",
        lam("b", NAT, bind(ap(v("add_k"), v("b")), "r", ret(Suc(v("r"))))),
    ),
)

MUL = lam(
    "a", NAT,
    NatRec(
        v("a"),
        lam("b", NAT, ret(Zero())),
        "k", "mul_k",
        lam("b", NAT,
            bind(ap(v("mul_k"), v("b")), "acc",
                 bind(ap(ADD, v("b"), v("acc")), "r", ret(v("r"))))),
    ),
)

PRED = lam("m", NAT, NatRec(v("m"), ret(Zero()), "k", "_u", ret(v("k"))))

MONUS = lam(
    "m", NAT,
    lam("n", NAT,
        ap(NatRec(
            v("n"),
            lam("m2", NAT, ret(v("m2"))),
            "k", "sub_k",
            lam("m2", NAT,
                bind(ap(v("sub_k"), v("m2")), "r",
                     bind(ap(PRED, v("r")), "r2", ret(v("r2"))))),
        ), v("m"))),
)

# floor(m/2) via a (quotient, parity) accumulator
FLOOR_HALF = lam(
    "m", NAT,
    bind(
        NatRec(
            v("m"),
            ret(Pair(Zero(), BoolLit(False))),
            "k", "h_k",
            bind(v("h_k"), "pr",
                 If(Snd(v("pr")),
                    ret(Pair(Suc(Fst(v("pr"))), BoolLit(False))),
                    ret(Pair(Fst(v("pr")), BoolLit(True))))),
        ),
        "pr2", ret(Fst(v("pr2")))),
)

CEIL_HALF = lam("m", NAT, bind(ap(FLOOR_HALF, Suc(v("m"))), "h", ret(v("h"))))

# ceil(log2 n) with lg 0 = lg 1 = 0, iterated halving under a fuel bound
CEIL_LOG2 = lam(
    "n", NAT,
    ap(NatRec(
        v("n"),
        lam("m2", NAT, lam("acc", NAT, ret(v("acc")))),
        "k", "lg_k",
        lam("m2", NAT,
            lam("acc", NAT,
                bind(ap(LEQ_NAT, v("m2"), nat_lit(1)), "b",
                     If(v("b"),
                        ret(v("acc")),
                        bind(ap(CEIL_HALF, v("m2")), "h",
                             ap(v("lg_k"), v("h"), Suc(v("acc")))))))),
    ), v("n"), Zero()),
)

LEN = lam(
    "l", LIST_NAT,
    ListRec(v("l"), ret(Zero()), "x", "xs", "len_r",
            bind(v("len_r"), "n", ret(Suc(v("n"))))),
)

APPEND = lam(
    "a", LIST_NAT,
    lam("b", LIST_NAT,
        ap(ListRec(
            v("a"),
            lam("b2", LIST_NAT, ret(v("b2"))),
            "x", "xs", "app_r",
            lam("b2", LIST_NAT,
                bind(ap(v("app_r"), v("b2")), "r",
                     ret(Cons(v("x"), v("r"))))),
        ), v("b"))),
)

INSERT_SPEC = lam(
    "x", NAT,
    lam("l", LIST_NAT,
        ListRec(
            v("l"),
            ret(Cons(v("x"), Nil())),
            "y", "ys", "ins_r",
            bind(ap(LEQ_NAT, v("x"), v("y")), "b",
                 If(v("b"),
                    ret(Cons(v("x"), Cons(v("y"), v("ys")))),
                    bind(v("ins_r"), "r", ret(Cons(v("y"), v("r")))))),
        )),
)

SORT_SPEC = lam(
    "l", LIST_NAT,
    ListRec(v("l"), ret(Nil()), "x", "xs", "sort_r",
            bind(v("sort_r"), "s", ap(INSERT_SPEC, v("x"), v("s"))),
            FTy(LIST_NAT)),
)

LOOKUP_SPEC = lam(
    "l", LIST_NAT,
    lam("i", NAT,
        ap(ListRec(
            v("l"),
            lam("i2", NAT, ret(Zero())),  # unreachable under the bound's guard
            "x", "xs", "lsp_r",
            lam("i2", NAT,
                NatRec(v("i2"), ret(v("x")), "j", "_u",
                       ap(v("lsp_r"), v("j")))),
        ), v("i"))),
)

DOUBLE_SPEC = lam(
    "n", NAT,
    NatRec(v("n"), ret(Zero()), "k", "dbl_r",
           bind(v("dbl_r"), "m", ret(Suc(Suc(v("m")))))),
)

SPEC_HELPERS = {
    "leq-nat": (LEQ_NAT, ArrowTy(NAT, ArrowTy(NAT, FTy(BOOL)))),
    "add": (ADD, ArrowTy(NAT, ArrowTy(NAT, FTy(NAT)))),
    "mul": (MUL, ArrowTy(NAT, ArrowTy(NAT, FTy(NAT)))),
    "monus": (MONUS, ArrowTy(NAT, ArrowTy(NAT, FTy(NAT)))),
    "ceil-log2": (CEIL_LOG2, ArrowTy(NAT, FTy(NAT))),
    "len": (LEN, ArrowTy(LIST_NAT, FTy(NAT))),
    "append": (APPEND, ArrowTy(LIST_NAT, ArrowTy(LIST_NAT, FTy(LIST_NAT)))),
    "insert-spec": (INSERT_SPEC, ArrowTy(NAT, ArrowTy(LIST_NAT, FTy(LIST_NAT)))),
    "sort-spec": (SORT_SPEC, ArrowTy(LIST_NAT, FTy(LIST_NAT))),
    "lookup-spec": (LOOKUP_SPEC, ArrowTy(LIST_NAT, ArrowTy(NAT, FTy(NAT)))),
    "double-spec": (DOUBLE_SPEC, ArrowTy(NAT, FTy(NAT))),
}


# ---------------------------------------------------------------------------
# Pure programs
# ---------------------------------------------------------------------------

NAT_TO_FNAT = ArrowTy(NAT, FTy(NAT))
LIST_TO_FLIST = ArrowTy(LIST_NAT, FTy(LIST_NAT))

DOUBLE_BODY = lam(
    "n", NAT,
    NatRec(v("n"), ret(Zero()), "k", "r",
           step(1, bind(v("r"), "m", ret(Suc(Suc(v("m"))))))),
)

DOUBLE = Program("double", PURE, SEQ_NAT, DOUBLE_BODY, NAT_TO_FNAT)

DOUBLE_BOUND = Program(
    "double-bound", PURE, SEQ_NAT,
    lam("n", NAT,
        bind(ap(DOUBLE_SPEC, v("n")), "m", step(v("n"), ret(v("m"))))),
    NAT_TO_FNAT,
)

INSERT_BODY = lam(
    "x", NAT,
    lam("l", LIST_NAT,
        ListRec(
            v("l"),
            ret(Cons(v("x"), Nil())),
            "y", "ys", "r",
            bind(step(1, ap(LEQ_NAT, v("x"), v("y"))), "b",
                 If(v("b"),
                    ret(Cons(v("x"), Cons(v("y"), v("ys")))),
                    bind(v("r"), "r2", ret(Cons(v("y"), v("r2")))))),
        )),
)

INSERT_TY = ArrowTy(NAT, LIST_TO_FLIST)
INSERT = Program("insert", PURE, SEQ_NAT, INSERT_BODY, INSERT_TY)

INSERT_BOUND = Program(
    "insert-bound", PURE, SEQ_NAT,
    lam("x", NAT,
        lam("l", LIST_NAT,
            bind(ap(LEN, v("l")), "n",
                 step(v("n"),
                      bind(ap(INSERT_SPEC, v("x"), v("l")), "r",
                           ret(v("r"))))))),
    INSERT_TY,
)

ISORT_BODY = lam(
    "l", LIST_NAT,
    ListRec(v("l"), ret(Nil()), "x", "xs", "r",
            bind(v("r"), "s", ap(INSERT_BODY, v("x"), v("s")))),
)

ISORT = Program("isort", PURE, SEQ_NAT, ISORT_BODY, LIST_TO_FLIST)

ISORT_BOUND = Program(
    "isort-bound", PURE, SEQ_NAT,
    lam("l", LIST_NAT,
        bind(ap(LEN, v("l")), "n",
             bind(ap(MUL, v("n"), v("n")), "m",
                  step(v("m"),
                       bind(ap(SORT_SPEC, v("l")), "s", ret(v("s"))))))),
    LIST_TO_FLIST,
)

ISORT_LOWER_BOUND = Program(
    "isort-lower-bound", PURE, SEQ_NAT,
    lam("l", LIST_NAT,
        bind(ap(LEN, v("l")), "n",
             bind(ap(MONUS, v("n"), nat_lit(1)), "m",
                  step(v("m"),
                       bind(ap(SORT_SPEC, v("l")), "s", ret(v("s"))))))),
    LIST_TO_FLIST,
)

# deal the elements into two halves in turn: cost-free, and the halves
# differ in length by at most one
SPLIT = lam(
    "l", LIST_NAT,
    ListRec(
        v("l"),
        ret(Pair(Nil(), Nil())),
        "x", "xs", "r",
        bind(v("r"), "pr",
             ret(Pair(Cons(v("x"), Snd(v("pr"))), Fst(v("pr"))))),
        FTy(ProdTy(LIST_NAT, LIST_NAT)),
    ),
)

# merge under a fuel bound of |a| + |b|; one step per comparison
MERGE = lam(
    "a", LIST_NAT,
    lam("b", LIST_NAT,
        bind(ap(LEN, v("a")), "n1",
             bind(ap(LEN, v("b")), "n2",
                  bind(ap(ADD, v("n1"), v("n2")), "fuel",
                       ap(NatRec(
                           v("fuel"),
                           lam("a2", LIST_NAT,
                               lam("b2", LIST_NAT, ret(v("b2")))),
                           "k", "mrg_k",
                           lam("a2", LIST_NAT,
                               lam("b2", LIST_NAT,
                                   ListRec(
                                       v("a2"), ret(v("b2")),
                                       "x", "xs", "_u",
                                       ListRec(
                                           v("b2"), ret(v("a2")),
                                           "y", "ys", "_u2",
                                           bind(step(1, ap(LEQ_NAT, v("x"), v("y"))), "c",
                                                If(v("c"),
                                                   bind(ap(v("mrg_k"), v("xs"), v("b2")),
                                                        "r", ret(Cons(v("x"), v("r")))),
                                                   bind(ap(v("mrg_k"), v("a2"), v("ys")),
                                                        "r", ret(Cons(v("y"), v("r")))))))))),
                       ), v("a"), v("b")))))),
)

MSORT_BODY = lam(
    "l", LIST_NAT,
    bind(ap(LEN, v("l")), "n",
         ap(NatRec(
             v("n"),
             lam("l2", LIST_NAT, ret(v("l2"))),
             "k", "ms_k",
             lam("l2", LIST_NAT,
                 bind(ap(LEN, v("l2")), "m",
                      bind(ap(LEQ_NAT, v("m"), nat_lit(1)), "b",
                           If(v("b"),
                              ret(v("l2")),
                              bind(ap(SPLIT, v("l2")), "pr",
                                   bind(ap(v("ms_k"), Fst(v("pr"))), "s1",
                                        bind(ap(v("ms_k"), Snd(v("pr"))), "s2",
                                             ap(MERGE, v("s1"), v("s2"))))))))),
         ), v("l"))),
)

MSORT = Program("msort", PURE, SEQ_NAT, MSORT_BODY, LIST_TO_FLIST)

MSORT_BOUND = Program(
    "msort-bound", PURE, SEQ_NAT,
    lam("l", LIST_NAT,
        bind(ap(LEN, v("l")), "n",
             bind(ap(CEIL_LOG2, v("n")), "g",
                  bind(ap(MUL, v("n"), v("g")), "m",
                       step(v("m"),
                            bind(ap(SORT_SPEC, v("l")), "s", ret(v("s")))))))),
    LIST_TO_FLIST,
)


# ---------------------------------------------------------------------------
# Nondeterministic programs
# ---------------------------------------------------------------------------

PAIR_NAT_LIST = ProdTy(NAT, LIST_NAT)

CHOOSE = lam(
    "l", LIST_NAT,
    ListRec(
        v("l"),
        Fail(),
        "x", "xs", "r",
        Branch(
            bind(v("r"), "pl",
                 ret(Pair(Fst(v("pl")), Cons(v("x"), Snd(v("pl")))))),
            ret(Pair(v("x"), v("xs"))),
        ),
        FTy(PAIR_NAT_LIST),
    ),
)

PARTITION = lam(
    "p", NAT,
    lam("l", LIST_NAT,
        ListRec(
            v("l"),
            ret(Pair(Nil(), Nil())),
            "x", "xs", "r",
            bind(v("r"), "pr",
                 bind(step(1, ap(LEQ_NAT, v("x"), v("p"))), "b",
                      If(v("b"),
                         ret(Pair(Cons(v("x"), Fst(v("pr"))), Snd(v("pr")))),
                         ret(Pair(Fst(v("pr")), Cons(v("x"), Snd(v("pr")))))))),
            FTy(ProdTy(LIST_NAT, LIST_NAT)),
        )),
)

QSORT_BODY = lam(
    "l", LIST_NAT,
    bind(ap(LEN, v("l")), "n",
         ap(NatRec(
             v("n"),
             lam("l2", LIST_NAT, ret(v("l2"))),
             "k", "qs_k",
             lam("l2", LIST_NAT,
                 ListRec(
                     v("l2"), ret(Nil()),
                     "x", "xs", "_u",
                     bind(ap(CHOOSE, Cons(v("x"), v("xs"))), "pv",
                          bind(ap(PARTITION, Fst(v("pv")), Snd(v("pv"))), "pr",
                               bind(ap(v("qs_k"), Fst(v("pr"))), "s1",
                                    bind(ap(v("qs_k"), Snd(v("pr"))), "s2",
                                         bind(ap(APPEND, v("s1"),
                                                 Cons(Fst(v("pv")), v("s2"))),
                                              "out", ret(v("out"))))))),
                 )),
         ), v("l"))),
)

QSORT = Program("qsort", NONDET, SEQ_NAT, QSORT_BODY, LIST_TO_FLIST)

QSORT_BOUND = Program(
    "qsort-bound", NONDET, SEQ_NAT, ISORT_BOUND.body, LIST_TO_FLIST
)

LOOKUP_TY = ArrowTy(LIST_NAT, ArrowTy(NAT, FTy(NAT)))

LOOKUP_BODY = lam(
    "l", LIST_NAT,
    lam("i", NAT,
        ap(ListRec(
            v("l"),
            lam("i2", NAT, Fail()),
            "x", "xs", "r",
            lam("i2", NAT,
                NatRec(v("i2"), ret(v("x")), "j", "_u",
                       step(1, ap(v("r"), v("j"))))),
        ), v("i"))),
)

LOOKUP = Program("lookup", NONDET, SEQ_NAT, LOOKUP_BODY, LOOKUP_TY)

LOOKUP_BOUND = Program(
    "lookup-bound", NONDET, SEQ_NAT,
    lam("l", LIST_NAT,
        lam("i", NAT,
            bind(ap(LEN, v("l")), "n",
                 bind(ap(LEQ_NAT, Suc(v("i")), v("n")), "b",
                      If(v("b"),
                         step(v("i"),
                              bind(ap(LOOKUP_SPEC, v("l"), v("i")), "y",
                                   ret(v("y")))),
                         Fail()))))),
    LOOKUP_TY,
)

BRANCH_EXAMPLE_BODY = Branch(
    step(3, ret(BoolLit(True))), step(12, ret(BoolLit(False)))
)

BRANCH_EXAMPLE = Program(
    "branch-example", NONDET, SEQ_NAT, BRANCH_EXAMPLE_BODY, FTy(BOOL)
)

BRANCH_EXAMPLE_BOUND = Program(
    "branch-example-bound", NONDET, SEQ_NAT,
    step(12, Branch(ret(BoolLit(True)), ret(BoolLit(False)))),
    FTy(BOOL),
)

BRANCH_EXAMPLE_UNIT = Program(
    "branch-example-unit", NONDET, SEQ_NAT,
    bind(BRANCH_EXAMPLE_BODY, "_b", ret(Triv())),
    FTy(UNIT),
)

BRANCH_EXAMPLE_UNIT_BOUND = Program(
    "branch-example-unit-bound", NONDET, SEQ_NAT,
    step(12, ret(Triv())),
    FTy(UNIT),
)


# ---------------------------------------------------------------------------
# Probabilistic programs
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)

SUBLIST_BODY = lam(
    "l", LIST_NAT,
    ListRec(
        v("l"), ret(Nil()),
        "x", "xs", "r",
        bind(v("r"), "r2",
             Flip(HALF, ret(v("r2")), step(1, ret(Cons(v("x"), v("r2")))))),
        FTy(LIST_NAT),
    ),
)

SUBLIST = Program("sublist", PROB, SEQ_NAT, SUBLIST_BODY, LIST_TO_FLIST)

BERNOULLI_BODY = Flip(HALF, ret(Triv()), step(1, ret(Triv())))

BERNOULLI = Program("bernoulli", PROB, SEQ_NAT, BERNOULLI_BODY, FTy(UNIT))

BINOMIAL_BODY = lam(
    "n", NAT,
    NatRec(v("n"), ret(Triv()), "k", "r", bind(BERNOULLI_BODY, "_u", v("r"))),
)

BINOMIAL = Program(
    "binomial", PROB, SEQ_NAT, BINOMIAL_BODY, ArrowTy(NAT, FTy(UNIT))
)

LIST_TO_FUNIT = ArrowTy(LIST_NAT, FTy(UNIT))

SUBLIST_UNIT = Program(
    "sublist-unit", PROB, SEQ_NAT,
    lam("l", LIST_NAT,
        bind(ap(SUBLIST_BODY, v("l")), "_r", ret(Triv()))),
    LIST_TO_FUNIT,
)

BINOMIAL_OF_LEN = Program(
    "binomial-of-len", PROB, SEQ_NAT,
    lam("l", LIST_NAT,
        bind(ap(LEN, v("l")), "n", ap(BINOMIAL_BODY, v("n")))),
    LIST_TO_FUNIT,
)

SUBLIST_UNIT_BOUND = Program(
    "sublist-unit-bound", PROB, SEQ_NAT,
    lam("l", LIST_NAT,
        bind(ap(LEN, v("l")), "n", step(v("n"), ret(Triv())))),
    LIST_TO_FUNIT,
)


# ---------------------------------------------------------------------------
# Global state
# ---------------------------------------------------------------------------

STATE_NAT = state_theory(NAT)

STATE_DOUBLE = Program(
    "state-double", STATE_NAT, SEQ_NAT,
    Get("n",
        bind(ap(DOUBLE_BODY, v("n")), "m", Put(v("m"), ret(v("n"))))),
    FTy(NAT),
)

STATE_DOUBLE_BOUND = Program(
    "state-double-bound", STATE_NAT, SEQ_NAT,
    Get("n",
        bind(ap(DOUBLE_SPEC, v("n")), "m",
             Put(v("m"), step(v("n"), ret(v("n")))))),
    FTy(NAT),
)


# ---------------------------------------------------------------------------
# Higher-order programs with hypothesis specs
# ---------------------------------------------------------------------------

UF_NAT = UTy(FTy(NAT))

TWICE_UNIT = Program(
    "twice-unit", NONDET, SEQ_NAT,
    lam("e", UF_NAT,
        bind(bind(v("e"), "x1",
                  bind(v("e"), "x2",
                       bind(ap(ADD, v("x1"), v("x2")), "s", ret(v("s"))))),
             "_r", ret(Triv()))),
    ArrowTy(UF_NAT, FTy(UNIT)),
)

TWICE_UNIT_BOUND = Program(
    "twice-unit-bound", NONDET, SEQ_NAT,
    lam("e", UF_NAT, step(2, ret(Triv()))),
    ArrowTy(UF_NAT, FTy(UNIT)),
)

TWICE_HYP_PROGRAM = Program(
    "twice-hyp", NONDET, SEQ_NAT,
    lam("e", UF_NAT, bind(v("e"), "_x", ret(Triv()))),
    ArrowTy(UF_NAT, FTy(UNIT)),
)

TWICE_HYP_BOUND = Program(
    "twice-hyp-bound", NONDET, SEQ_NAT,
    lam("e", UF_NAT, step(1, ret(Triv()))),
    ArrowTy(UF_NAT, FTy(UNIT)),
)

U_NAT_FNAT = UTy(ArrowTy(NAT, FTy(NAT)))


def _map_body():
    return lam(
        "f", U_NAT_FNAT,
        lam("l", LIST_NAT,
            ListRec(
                v("l"), ret(Nil()),
                "x", "xs", "r",
                bind(v("r"), "ys",
                     bind(ap(v("f"), v("x")), "y",
                          ret(Cons(v("y"), v("ys"))))),
                FTy(LIST_NAT),
            )),
    )


MAP_CONST_C = 2
MAP_BINOM_N = 2

MAP_UNIT_TY = ArrowTy(U_NAT_FNAT, ArrowTy(LIST_NAT, FTy(UNIT)))
MAP_HYP_TY = ArrowTy(U_NAT_FNAT, ArrowTy(NAT, FTy(UNIT)))


def _map_unit_program(theory, name):
    return Program(
        name, theory, SEQ_NAT,
        lam("f", U_NAT_FNAT,
            lam("l", LIST_NAT,
                bind(ap(_map_body(), v("f"), v("l")), "_r", ret(Triv())))),
        MAP_UNIT_TY,
    )


MAP_CONST = _map_unit_program(PURE, "map-const")

MAP_CONST_BOUND = Program(
    "map-const-bound", PURE, SEQ_NAT,
    lam("f", U_NAT_FNAT,
        lam("l", LIST_NAT,
            bind(ap(LEN, v("l")), "n",
                 bind(ap(MUL, nat_lit(MAP_CONST_C), v("n")), "m",
                      step(v("m"), ret(Triv())))))),
    MAP_UNIT_TY,
)

MAP_CONST_HYP_PROGRAM = Program(
    "map-const-hyp", PURE, SEQ_NAT,
    lam("f", U_NAT_FNAT,
        lam("x", NAT, bind(ap(v("f"), v("x")), "_y", ret(Triv())))),
    MAP_HYP_TY,
)

MAP_CONST_HYP_BOUND = Program(
    "map-const-hyp-bound", PURE, SEQ_NAT,
    lam("f", U_NAT_FNAT, lam("x", NAT, step(MAP_CONST_C, ret(Triv())))),
    MAP_HYP_TY,
)

MAP_BINOM = _map_unit_program(PROB, "map-binomial")

MAP_BINOM_BOUND = Program(
    "map-binomial-bound", PROB, SEQ_NAT,
    lam("f", U_NAT_FNAT,
        lam("l", LIST_NAT,
            bind(ap(LEN, v("l")), "n",
                 bind(ap(MUL, nat_lit(MAP_BINOM_N), v("n")), "m",
                      ap(BINOMIAL_BODY, v("m")))))),
    MAP_UNIT_TY,
)

MAP_BINOM_HYP_PROGRAM = Program(
    "map-binomial-hyp", PROB, SEQ_NAT,
    lam("f", U_NAT_FNAT,
        lam("x", NAT, bind(ap(v("f"), v("x")), "_y", ret(Triv())))),
    MAP_HYP_TY,
)

MAP_BINOM_HYP_BOUND = Program(
    "map-binomial-hyp-bound", PROB, SEQ_NAT,
    lam("f", U_NAT_FNAT,
        lam("x", NAT, ap(BINOMIAL_BODY, nat_lit(MAP_BINOM_N)))),
    MAP_HYP_TY,
)


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------

_SORT_DOMAIN = DomainConfig(list_len=5, elems=5)
_QSORT_DOMAIN = DomainConfig(list_len=4, elems=4)
_INSERT_DOMAIN = DomainConfig(nat_max=5, list_len=4, elems=5)
_LOOKUP_DOMAIN = DomainConfig(nat_max=6, list_len=4, elems=3)
_SUBLIST_DOMAIN = DomainConfig(list_len=8, elems=2)
_CLOSED_DOMAIN = DomainConfig()
_STATE_DOMAIN = DomainConfig(state_max=8)
_HYP_NONDET_DOMAIN = DomainConfig(hyp_depth=4)
_MAP_DOMAIN = DomainConfig(nat_max=4, list_len=3, elems=3, hyp_depth=3)


def corpus() -> tuple:
    """All bound specifications.

    Each spec's program and bound share a declared type and an effect
    theory; ``verify`` elaborates both and refuses a pair that does not
    match, and a Tier-1 test type-checks every spec, hypotheses included.
    """
    return (
        BoundSpec("double-closed-form", DOUBLE, DOUBLE_BOUND, Relation.EQUAL,
                  DomainConfig(nat_max=16)),
        BoundSpec("insert-upper", INSERT, INSERT_BOUND, Relation.LEQ_UPPER,
                  _INSERT_DOMAIN),
        BoundSpec("isort-upper", ISORT, ISORT_BOUND, Relation.LEQ_UPPER,
                  _SORT_DOMAIN),
        BoundSpec("isort-lower", ISORT, ISORT_LOWER_BOUND, Relation.LEQ_LOWER,
                  _SORT_DOMAIN),
        BoundSpec("msort-upper", MSORT, MSORT_BOUND, Relation.LEQ_UPPER,
                  _SORT_DOMAIN),
        BoundSpec("isort-msort-ext", ISORT, MSORT, Relation.EXT_EQUAL,
                  _SORT_DOMAIN),
        BoundSpec("qsort-upper", QSORT, QSORT_BOUND, Relation.LEQ_UPPER,
                  _QSORT_DOMAIN),
        BoundSpec("lookup-exact", LOOKUP, LOOKUP_BOUND, Relation.EQUAL,
                  _LOOKUP_DOMAIN),
        BoundSpec("nondet-bool-upper", BRANCH_EXAMPLE, BRANCH_EXAMPLE_BOUND,
                  Relation.LEQ_UPPER, _CLOSED_DOMAIN),
        BoundSpec("nondet-unit-upper", BRANCH_EXAMPLE_UNIT,
                  BRANCH_EXAMPLE_UNIT_BOUND, Relation.LEQ_UPPER,
                  _CLOSED_DOMAIN),
        BoundSpec("sublist-binomial", SUBLIST_UNIT, BINOMIAL_OF_LEN,
                  Relation.EQUAL, _SUBLIST_DOMAIN),
        BoundSpec("sublist-upper", SUBLIST_UNIT, SUBLIST_UNIT_BOUND,
                  Relation.LEQ_UPPER, _SUBLIST_DOMAIN),
        BoundSpec("state-double-equal", STATE_DOUBLE, STATE_DOUBLE_BOUND,
                  Relation.EQUAL, _STATE_DOMAIN),
        BoundSpec("twice-hypothesis", TWICE_UNIT, TWICE_UNIT_BOUND,
                  Relation.LEQ_UPPER, _HYP_NONDET_DOMAIN,
                  hypothesis=BoundSpec(
                      "twice-hyp", TWICE_HYP_PROGRAM, TWICE_HYP_BOUND,
                      Relation.LEQ_UPPER, _HYP_NONDET_DOMAIN),
                  note="argument runs then returns with at most one step"),
        BoundSpec("map-const-hypothesis", MAP_CONST, MAP_CONST_BOUND,
                  Relation.LEQ_UPPER, _MAP_DOMAIN,
                  hypothesis=BoundSpec(
                      "map-const-hyp", MAP_CONST_HYP_PROGRAM,
                      MAP_CONST_HYP_BOUND, Relation.LEQ_UPPER, _MAP_DOMAIN),
                  note=f"each application costs at most {MAP_CONST_C}"),
        BoundSpec("map-binomial-hypothesis", MAP_BINOM, MAP_BINOM_BOUND,
                  Relation.LEQ_UPPER, _MAP_DOMAIN,
                  hypothesis=BoundSpec(
                      "map-binomial-hyp", MAP_BINOM_HYP_PROGRAM,
                      MAP_BINOM_HYP_BOUND, Relation.LEQ_UPPER, _MAP_DOMAIN),
                  note=f"each application is bounded by {MAP_BINOM_N} coin "
                       "flips"),
    )


ALL_PROGRAMS = (
    DOUBLE, DOUBLE_BOUND, INSERT, INSERT_BOUND, ISORT, ISORT_BOUND,
    ISORT_LOWER_BOUND, MSORT, MSORT_BOUND, QSORT, QSORT_BOUND, LOOKUP,
    LOOKUP_BOUND, BRANCH_EXAMPLE, BRANCH_EXAMPLE_BOUND, BRANCH_EXAMPLE_UNIT,
    BRANCH_EXAMPLE_UNIT_BOUND, SUBLIST, BERNOULLI, BINOMIAL, SUBLIST_UNIT,
    BINOMIAL_OF_LEN, SUBLIST_UNIT_BOUND, STATE_DOUBLE, STATE_DOUBLE_BOUND,
    TWICE_UNIT, TWICE_UNIT_BOUND, TWICE_HYP_PROGRAM, TWICE_HYP_BOUND,
    MAP_CONST, MAP_CONST_BOUND, MAP_CONST_HYP_PROGRAM, MAP_CONST_HYP_BOUND,
    MAP_BINOM, MAP_BINOM_BOUND, MAP_BINOM_HYP_PROGRAM, MAP_BINOM_HYP_BOUND,
)
