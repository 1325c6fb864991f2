"""Seeded random generation of terms, programs, outcomes and distributions.

Everything here is deterministic given a ``random.Random`` instance.
Generated terms are born elaborated: the generator picks every node's
type, so each computation node carries it (``ty``) exactly as
``typecheck.elaborate`` would set it, and the evaluator takes them
without running the checker.  A Tier-1 property re-elaborates them to
hold that promise.  Result types are kept first-order so outcomes
compare structurally.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .costs import SEQ_NAT
from .records import replace
from .semantics import (
    Dist, EvalMode, NondetOutcome, ProbOutcome, PureOutcome, StateOutcome,
)
from .syntax import (
    BOOL, NAT, UNIT, ArrowTy, Bind, BoolLit, BoolTy, Branch, CompTy, Cons,
    CostLit, EffectTheory, FTy, Fail, Flip, Get, If, Inl, Inr, Lam, ListTy,
    NONDET, NatTy, Nil, PROB, PURE, Pair, ProdTy, Program, Put, Ret, Step,
    SumTy, Triv, UnitTy, Var, nat_lit, state_theory,
)

RATIONAL_POOL = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 4), Fraction(3, 4), Fraction(2, 5), Fraction(1, 6),
    Fraction(5, 6),
]

LAW_STATE_TY = NAT
STATE_NAT = state_theory(LAW_STATE_TY)

# the effect theories the generators draw from, by kind
THEORY_OF_KIND = {"pure": PURE, "nondet": NONDET, "prob": PROB,
                  "state": STATE_NAT}

RESULT_TYPES = [FTy(NAT), FTy(BOOL), FTy(UNIT), FTy(ListTy(NAT))]
_THEORIES = tuple(THEORY_OF_KIND.values())

# The immutable leaves, built once and shared by every term drawn: no
# value term holds a computation node, so sharing them keeps each drawn
# computation's nodes its own (``Evaluator.forget`` relies on that).
_NUMERALS = tuple(nat_lit(n) for n in range(4))
_BOOLS = (BoolLit(False), BoolLit(True))
_TRIV = Triv()
_NIL = Nil()
_COST_LITS = tuple(CostLit(c) for c in range(4))  # the range of ``cost``
_SCRUT_TYS = (NAT, BOOL, UNIT)  # the value types a bind's scrutinee returns
_F_OF = {a.__class__: FTy(a) for a in _SCRUT_TYS}


class TermGen:
    """Random closed/open computations for one theory (seq costs)."""

    def __init__(self, rng: random.Random, theory: EffectTheory):
        self.rng = rng
        self.theory = theory

    def result_ty(self) -> CompTy:
        return self.rng.choice(RESULT_TYPES)

    def cost(self) -> int:
        return self.rng.choice((0, 1, 1, 2, 3))

    def rational(self) -> Fraction:
        return self.rng.choice(RATIONAL_POOL)

    def value(self, ctx: dict, ty):
        """A value term of type ``ty`` under ``ctx`` (name -> ValueTy)."""
        rng = self.rng
        if ctx:
            names = [n for n, t in ctx.items() if t == ty]
            if names and rng.random() < 0.5:
                return Var(rng.choice(names))
        cls = ty.__class__
        if cls is NatTy:
            return _NUMERALS[rng.randrange(4)]
        if cls is BoolTy:
            return _BOOLS[rng.random() < 0.5]
        if cls is UnitTy:
            return _TRIV
        if cls is ListTy:
            n = rng.randrange(3)
            out = _NIL
            for _ in range(n):
                out = Cons(self.value(ctx, ty.elem), out)
            return out
        if cls is ProdTy:
            return Pair(self.value(ctx, ty.fst), self.value(ctx, ty.snd))
        if cls is SumTy:
            if rng.random() < 0.5:
                return Inl(self.value(ctx, ty.left))
            return Inr(self.value(ctx, ty.right))
        raise ValueError(f"cannot generate values of {ty!r}")

    def comp(self, ctx: dict, ty: CompTy, depth: int):
        """A computation of type ``ty``; effects drawn from the theory.
        Every computation node is built with its type."""
        rng = self.rng
        cls = ty.__class__
        if cls is ArrowTy:
            x = f"a{depth}_{rng.randrange(1000)}"
            body = self.comp({**ctx, x: ty.dom}, ty.cod, depth)
            return Lam(x, ty.dom, body, ty=ty)
        if cls is not FTy:
            raise ValueError(f"cannot generate computations of {ty!r}")
        if depth <= 0:
            return self._leaf(ctx, ty)
        roll = rng.random()
        kind = self.theory.kind
        if roll < 0.25:
            return self._leaf(ctx, ty)
        if roll < 0.40:
            return Step(_COST_LITS[self.cost()],
                        self.comp(ctx, ty, depth - 1), ty=ty)
        if roll < 0.58:
            a_ty = rng.choice(_SCRUT_TYS)
            f_ty = _F_OF[a_ty.__class__]
            x = f"g{depth}_{rng.randrange(1000)}"
            scrut = self.comp(ctx, f_ty, depth - 1)
            if not synthesizes(scrut):
                scrut = self._leaf(ctx, f_ty)
            body = self.comp({**ctx, x: a_ty}, ty, depth - 1)
            return Bind(scrut, x, body, ty=ty)
        if roll < 0.66:
            return If(
                self.value(ctx, BOOL),
                self.comp(ctx, ty, depth - 1),
                self.comp(ctx, ty, depth - 1),
                ty=ty,
            )
        if kind == "nondet":
            if roll < 0.90:
                return Branch(
                    self.comp(ctx, ty, depth - 1),
                    self.comp(ctx, ty, depth - 1),
                    ty=ty,
                )
            return Fail(ty=ty)
        if kind == "prob":
            return Flip(
                self.rational(),
                self.comp(ctx, ty, depth - 1),
                self.comp(ctx, ty, depth - 1),
                ty=ty,
            )
        if kind == "state":
            if roll < 0.83:
                s = f"s{depth}_{rng.randrange(1000)}"
                return Get(
                    s,
                    self.comp({**ctx, s: self.theory.state_ty}, ty, depth - 1),
                    ty=ty,
                )
            return Put(
                self.value(ctx, self.theory.state_ty),
                self.comp(ctx, ty, depth - 1),
                ty=ty,
            )
        return Step(_COST_LITS[self.cost()], self.comp(ctx, ty, depth - 1),
                    ty=ty)

    def _leaf(self, ctx: dict, ty: FTy):
        return Ret(self.value(ctx, ty.value), ty=ty)

    def closed_comp(self, ty: CompTy, depth: int):
        return self.comp({}, ty, depth)

    def synth_comp(self, ty: CompTy, depth: int, ctx: dict = None):
        """A computation that also synthesizes its type (usable as a bind
        scrutinee)."""
        ctx = ctx or {}
        for _ in range(8):
            t = self.comp(ctx, ty, depth)
            if synthesizes(t):
                return t
        return self._leaf(ctx, ty)

    def program(self, depth: int = 5, ty: CompTy = None) -> Program:
        ty = ty or self.result_ty()
        body = self.closed_comp(ty, depth)
        return Program(
            f"gen-{self.rng.randrange(10 ** 9)}", self.theory, SEQ_NAT, body, ty
        )


def synthesizes(t) -> bool:
    """Whether a generated computation synthesizes its type, decided from
    its shape.  Only the checker's inference rules that can fail on a
    generated term matter: ``fail`` has no type to offer (the fragment has
    no inner ascriptions), ``ret`` of a nat, bool or unit value always
    synthesizes, and every other form synthesizes when the arm it infers
    from does (a bind's scrutinee synthesizes by construction)."""
    match t:
        case Ret():
            return True
        case Fail():
            return False
        case (Step(_, body) | Bind(_, _, body) | Get(_, body) | Put(_, body)
              | Lam(_, _, body) | If(_, body, _)):
            return synthesizes(body)
        case Branch(l, r) | Flip(_, l, r):
            return synthesizes(l) or synthesizes(r)
    raise ValueError(f"not a generated computation: {t!r}")


def random_theory(rng: random.Random) -> EffectTheory:
    return rng.choice(_THEORIES)


# ---------------------------------------------------------------------------
# Direct outcome generation (for preorder property tests)
# ---------------------------------------------------------------------------


def _rand_val(rng):
    return ("nat", rng.randrange(4))


def _rand_cost(rng):
    return rng.randrange(7)


def gen_outcome(rng: random.Random, kind: str):
    """A random outcome of the theory ``kind`` over nat costs and values."""
    head = (THEORY_OF_KIND[kind], SEQ_NAT, EvalMode.COST_COUNTING)
    if kind == "pure":
        return PureOutcome(*head, _rand_cost(rng), _rand_val(rng))
    if kind == "nondet":
        n = rng.randrange(5)  # possibly empty
        branches = frozenset(
            (_rand_cost(rng), _rand_val(rng)) for _ in range(n)
        )
        return NondetOutcome(*head, branches)
    if kind == "prob":
        return ProbOutcome(*head, _rand_dist(rng, lambda: _rand_val(rng)))
    if kind == "state":
        states = [("nat", i) for i in range(3)]
        table = tuple(
            (s, (_rand_cost(rng), rng.choice(states), _rand_val(rng)))
            for s in states
        )
        return StateOutcome(*head, table, frozenset())
    raise ValueError(kind)


def raise_outcome(rng: random.Random, out):
    """An outcome guaranteed to dominate ``out`` in the approximation
    order, with its theory, monoid, mode and domain."""
    bump = lambda c: c + rng.randrange(3)
    if isinstance(out, PureOutcome):
        return replace(out, cost=bump(out.cost))
    if isinstance(out, NondetOutcome):
        raised = {(bump(c), v) for c, v in out.branches}
        # extra raised copies keep both directions of the lifting intact
        for c, v in out.branches:
            if rng.random() < 0.3:
                raised.add((c + rng.randrange(1, 4), v))
        return replace(out, branches=frozenset(raised))
    if isinstance(out, ProbOutcome):
        acc: dict = {}
        for (c, v), w in out.dist:
            if rng.random() < 0.5:
                acc[(c, v)] = acc.get((c, v), Fraction(0)) + w
            else:
                # split mass upward: part stays, part moves to a higher cost
                half = w / 2
                acc[(c, v)] = acc.get((c, v), Fraction(0)) + half
                key = (c + rng.randrange(1, 3), v)
                acc[key] = acc.get(key, Fraction(0)) + half
        return replace(out, dist=Dist(acc))
    if isinstance(out, StateOutcome):
        table = tuple(
            (s0, (bump(c), s1, v)) for s0, (c, s1, v) in out.table
        )
        return replace(out, table=table)
    raise ValueError(type(out))


def gen_dist(rng: random.Random, values=(("nat", 0), ("nat", 1))):
    """A random exact-rational distribution over (cost, value) pairs."""
    return _rand_dist(rng, lambda: rng.choice(values))


def _rand_dist(rng: random.Random, draw_value) -> Dist:
    """1 to 4 items, each a random cost, a value from ``draw_value()``
    and an integer weight in 1..5, normalised to total mass 1."""
    n = rng.randrange(1, 5)
    raw = [
        ((_rand_cost(rng), draw_value()), rng.randrange(1, 6))
        for _ in range(n)
    ]
    total = sum(w for _, w in raw)
    acc: dict = {}
    for k, w in raw:
        acc[k] = acc.get(k, Fraction(0)) + Fraction(w, total)
    return Dist(acc)
