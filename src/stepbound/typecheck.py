"""Bidirectional type checker for the two-level language.

``check`` validates a term against a type, ``infer`` synthesizes one.
Both enforce the value/computation sort discipline (variables range over
value types only; suspension is transparent, so a computation checks at
``U X`` in value position and a ``U X`` variable may be forced in
computation position) and the effect discipline (branch/fail only under
the nondeterminism theory, flip under the probabilistic one, get/set
under state, par only for pure programs with the parallel monoid).
The checker is the only judge of these rules: ``syntax.parse`` reads
syntax only.

Each sort is elaborated by one walk, ``Checker._value(ctx, t, ty)`` for
values and ``Checker._comp(ctx, t, ty)`` for computations, with one rule
per form and the same two modes (Pierce & Turner, "Local Type
Inference"): given a type a walk *checks* ``t`` against it, given None it
*infers* one.  Either way it returns the type and the elaborated term.
In ``_comp`` a rule passes the mode down where the type flows through
(``step``, the effect operations, a bind body, the first arm of ``if``
and ``case``, a recursor's base case), and the type found there checks
the remaining arms.  ``fail`` never synthesizes; a variable or an
application checks by inferring and comparing.  In ``_value`` ``nil``,
``cons``, ``pair``, ``inl``, ``inr`` and a thunked computation check
against a type of their shape; every other value checks by inferring and
comparing, and ``nil``, ``inl`` and ``inr`` never synthesize.  ``check``
and ``infer`` choose the walk by sort; ``check_comp`` and ``infer_comp``
are the computation walk's two entry points.

``elaborate`` runs the checker over a whole program and returns a copy
whose computation nodes carry their checked type (and list recursors
their per-cons charge), which the evaluator relies on.
"""

from __future__ import annotations

from typing import Optional

from .costs import WORK_SPAN, CostMonoid
from .records import replace
from .syntax import (
    Ap, ArrowTy, Bind, BoolLit, Branch, CompTerm, CompTy, Cons, CostLit,
    EffectTheory, FTy, Fail, Flip, Fst, Get, If, Inl, Inr, Lam, ListRec,
    ListTy, NatCost, NatRec, Nil, Pair, Par, Program, Put, Ret, Snd, Step,
    Suc, SumCase, SumTy, Term, Triv, UTy, ValueTerm, ValueTy, Var, Zero,
    BOOL, NAT, UNIT, ProdTy, ty_str,
)


class TypeCheckError(Exception):
    """Sort/type/effect discipline violation."""

    def __init__(self, message: str, loc=None, expected=None, found=None):
        self.message = message
        self.loc = loc
        self.expected = expected
        self.found = found
        # the message with its types, without the position
        self.reason = message
        if expected is not None or found is not None:
            self.reason += f" (expected {_show(expected)}, found {_show(found)})"
        where = f"{loc[0]}:{loc[1]}: " if loc else ""
        super().__init__(f"{where}{self.reason}")


def _show(x):
    if x is None:
        return "?"
    try:
        return ty_str(x)
    except Exception:
        return str(x)


Ctx = tuple  # ordered ((name, ValueTy), ...)


def ctx_lookup(ctx: Ctx, name: str) -> Optional[ValueTy]:
    for n, ty in reversed(ctx):
        if n == name:
            return ty
    return None


def ctx_extend(ctx: Ctx, name: str, ty: ValueTy) -> Ctx:
    return ctx + ((name, ty),)


class Checker:
    """Type checker for one program's theory and cost monoid."""

    def __init__(self, theory: EffectTheory, monoid: CostMonoid):
        self.theory = theory
        self.monoid = monoid

    # -- public API ----------------------------------------------------------

    def check(self, ctx: Ctx, t: Term, ty) -> None:
        """Raise TypeCheckError unless ``t`` has type ``ty`` under ``ctx``."""
        walk = self._comp if isinstance(ty, CompTy) else self._value
        walk(ctx, t, ty)

    def infer(self, ctx: Ctx, t: Term):
        # A bare variable synthesizes its value type, never a forced one.
        walk = self._value if isinstance(t, ValueTerm) else self._comp
        return walk(ctx, t, None)[0]

    # -- values --------------------------------------------------------------

    def _value(self, ctx: Ctx, t: Term, ty: Optional[ValueTy]):
        """The value walk: check ``t`` against ``ty``, or infer when ``ty``
        is None.  Returns ``(type, elaborated term)``."""
        if ty is not None and not isinstance(ty, ValueTy):
            raise TypeCheckError(
                "computation type where a value type is required",
                getattr(t, "loc", None), expected=ty,
            )
        match t:
            case Nil() if isinstance(ty, ListTy):
                return ty, t
            case Cons(h, tl) if isinstance(ty, ListTy):
                _, h2 = self._value(ctx, h, ty.elem)
                _, tl2 = self._value(ctx, tl, ty)
                return ty, Cons(h2, tl2, loc=t.loc)
            case Pair(a, b) if isinstance(ty, ProdTy):
                _, a2 = self._value(ctx, a, ty.fst)
                _, b2 = self._value(ctx, b, ty.snd)
                return ty, Pair(a2, b2, loc=t.loc)
            case Inl(a) if isinstance(ty, SumTy):
                return ty, Inl(self._value(ctx, a, ty.left)[1], loc=t.loc)
            case Inr(a) if isinstance(ty, SumTy):
                return ty, Inr(self._value(ctx, a, ty.right)[1], loc=t.loc)
            case CompTerm() if ty is None or isinstance(ty, UTy):
                x, t2 = self._comp(ctx, t, ty and ty.comp)
                return ty or UTy(x), t2
            case CompTerm():
                raise TypeCheckError(
                    "computation term where a value is required",
                    t.loc, expected=ty,
                )
            # the forms below synthesize, and check by comparing
            case Var(name):
                found, t2 = ctx_lookup(ctx, name), t
                if found is None:
                    raise TypeCheckError(f"unbound variable '{name}'", t.loc)
            case Triv():
                found, t2 = UNIT, t
            case BoolLit(_):
                found, t2 = BOOL, t
            case Zero():
                found, t2 = NAT, t
            case Suc(a):
                found, t2 = NAT, Suc(self._value(ctx, a, NAT)[1], loc=t.loc)
            case Pair(a, b):
                ta, a2 = self._value(ctx, a, None)
                tb, b2 = self._value(ctx, b, None)
                found, t2 = ProdTy(ta, tb), Pair(a2, b2, loc=t.loc)
            case Fst(p):
                tp, p2 = self._value(ctx, p, None)
                if not isinstance(tp, ProdTy):
                    raise TypeCheckError("fst of a non-product", t.loc, found=tp)
                found, t2 = tp.fst, Fst(p2, loc=t.loc)
            case Snd(p):
                tp, p2 = self._value(ctx, p, None)
                if not isinstance(tp, ProdTy):
                    raise TypeCheckError("snd of a non-product", t.loc, found=tp)
                found, t2 = tp.snd, Snd(p2, loc=t.loc)
            case Cons(h, tl):
                try:
                    found, tl2 = self._value(ctx, tl, None)
                except TypeCheckError:
                    # tail is nil or another cons chain ending in nil: take
                    # the element type from the head (zero recursor charge)
                    h_ty, h2 = self._value(ctx, h, None)
                    found = ListTy(h_ty)
                    _, tl2 = self._value(ctx, tl, found)
                else:
                    if not isinstance(found, ListTy):
                        raise TypeCheckError(
                            "cons onto a non-list", t.loc, found=found
                        )
                    _, h2 = self._value(ctx, h, found.elem)
                t2 = Cons(h2, tl2, loc=t.loc)
            case Nil() | Inl(_) | Inr(_):
                raise TypeCheckError(
                    "term needs a type ascription to synthesize", t.loc
                )
            case _:
                raise TypeCheckError(f"cannot infer {type(t).__name__}", t.loc)
        if ty is not None and found != ty:
            raise TypeCheckError(
                "value type mismatch", t.loc, expected=ty, found=found
            )
        return found, t2

    # -- computations ----------------------------------------------------------

    def infer_comp(self, ctx: Ctx, t: Term):
        """Synthesize ``t``'s computation type: ``(type, elaborated term)``."""
        return self._comp(ctx, t, None)

    def check_comp(self, ctx: Ctx, t: Term, ty: CompTy):
        """Check ``t`` against ``ty`` and return the elaborated term."""
        return self._comp(ctx, t, ty)[1]

    def _comp(self, ctx: Ctx, t: Term, ty: Optional[CompTy]):
        """The one elaboration walk: check ``t`` against ``ty``, or infer
        when ``ty`` is None.  Returns ``(type, elaborated term)``."""
        if ty is not None and not isinstance(ty, CompTy):
            raise TypeCheckError(
                "value type where a computation type is required",
                getattr(t, "loc", None), expected=ty,
            )
        match t:
            case Ret(v):
                if ty is not None and not isinstance(ty, FTy):
                    raise TypeCheckError(
                        "ret checks only at an F type", t.loc, expected=ty
                    )
                tv, v2 = self._value(ctx, v, ty and ty.value)
                ty = ty or FTy(tv)
                return ty, Ret(v2, loc=t.loc, ty=ty)
            case Bind(e, xv, body):
                te, e2 = self._comp(ctx, e, None)
                if not isinstance(te, FTy):
                    raise TypeCheckError(
                        "bind scrutinee must have an F type", t.loc, found=te
                    )
                ty, body2 = self._comp(ctx_extend(ctx, xv, te.value), body, ty)
                return ty, Bind(e2, xv, body2, loc=t.loc, ty=ty)
            case Lam(xv, xty, body):
                if ty is None:
                    if xty is None:
                        raise TypeCheckError(
                            "lam needs a type annotation to synthesize", t.loc
                        )
                    tb, body2 = self._comp(ctx_extend(ctx, xv, xty), body, None)
                    ty = ArrowTy(xty, tb)
                else:
                    if not isinstance(ty, ArrowTy):
                        raise TypeCheckError(
                            "lam checks only at an arrow type", t.loc,
                            expected=ty,
                        )
                    if xty is not None and xty != ty.dom:
                        raise TypeCheckError(
                            "lam annotation disagrees with the expected domain",
                            t.loc, expected=ty.dom, found=xty,
                        )
                    _, body2 = self._comp(
                        ctx_extend(ctx, xv, ty.dom), body, ty.cod
                    )
                return ty, Lam(xv, ty.dom, body2, loc=t.loc, ty=ty)
            case Ap(f, a):
                if ty is not None:
                    try:
                        found, t2 = self._comp(ctx, t, None)
                    except TypeCheckError:
                        return ty, self._check_ap_spine(ctx, t, ty)
                    return self._expect(t, found, ty), t2
                tf, f2 = self._comp(ctx, f, None)
                if not isinstance(tf, ArrowTy):
                    raise TypeCheckError(
                        "application of a non-function", t.loc, found=tf
                    )
                _, a2 = self._value(ctx, a, tf.dom)
                return tf.cod, Ap(f2, a2, loc=t.loc, ty=tf.cod)
            case Step(c, body):
                c2 = self._check_cost(ctx, c)
                ty, body2 = self._comp(ctx, body, ty)
                return ty, Step(c2, body2, loc=t.loc, ty=ty)
            case Branch(l, r):
                self._require_theory("branch", "nondet", t)
                ty, l2, r2 = self._arms(ctx, l, r, ty)
                return ty, Branch(l2, r2, loc=t.loc, ty=ty)
            case Fail():
                if ty is None:
                    raise TypeCheckError(
                        "fail needs a type ascription to synthesize", t.loc
                    )
                self._require_theory("fail", "nondet", t)
                return ty, Fail(loc=t.loc, ty=ty)
            case Flip(p, l, r):
                self._require_theory("flip", "prob", t)
                ty, l2, r2 = self._arms(ctx, l, r, ty)
                return ty, Flip(p, l2, r2, loc=t.loc, ty=ty)
            case Get(sv, body):
                self._require_theory("get", "state", t)
                ty, body2 = self._comp(
                    ctx_extend(ctx, sv, self.theory.state_ty), body, ty
                )
                return ty, Get(sv, body2, loc=t.loc, ty=ty)
            case Put(v, body):
                self._require_theory("set", "state", t)
                _, v2 = self._value(ctx, v, self.theory.state_ty)
                ty, body2 = self._comp(ctx, body, ty)
                return ty, Put(v2, body2, loc=t.loc, ty=ty)
            case Par(l, r):
                self._require_par(t)
                if ty is None:
                    tl, l2 = self._comp(ctx, l, None)
                    tr, r2 = self._comp(ctx, r, None)
                    if not isinstance(tl, FTy) or not isinstance(tr, FTy):
                        raise TypeCheckError(
                            "par arms must have F types", t.loc
                        )
                    ty = FTy(ProdTy(tl.value, tr.value))
                elif not (isinstance(ty, FTy) and isinstance(ty.value, ProdTy)):
                    raise TypeCheckError(
                        "par checks only at F of a product", t.loc, expected=ty
                    )
                else:
                    _, l2 = self._comp(ctx, l, FTy(ty.value.fst))
                    _, r2 = self._comp(ctx, r, FTy(ty.value.snd))
                return ty, Par(l2, r2, loc=t.loc, ty=ty)
            case If(b, th, el):
                _, b2 = self._value(ctx, b, BOOL)
                ty, th2 = self._comp(ctx, th, ty)
                _, el2 = self._comp(ctx, el, ty)
                return ty, If(b2, th2, el2, loc=t.loc, ty=ty)
            case SumCase(sc, xl, lb, xr, rb):
                ts, sc2 = self._value(ctx, sc, None)
                if not isinstance(ts, SumTy):
                    raise TypeCheckError("case of a non-sum", t.loc, found=ts)
                ty, lb2 = self._comp(ctx_extend(ctx, xl, ts.left), lb, ty)
                _, rb2 = self._comp(ctx_extend(ctx, xr, ts.right), rb, ty)
                return ty, SumCase(sc2, xl, lb2, xr, rb2, loc=t.loc, ty=ty)
            case NatRec(n, z, kv, ihv, sb):
                ty = self._motive(t, ty)
                _, n2 = self._value(ctx, n, NAT)
                ty, z2 = self._comp(ctx, z, ty)
                _, sb2 = self._comp(
                    ctx_extend(ctx_extend(ctx, kv, NAT), ihv, UTy(ty)), sb, ty
                )
                return ty, NatRec(n2, z2, kv, ihv, sb2, t.motive,
                                  loc=t.loc, ty=ty)
            case ListRec(l, z, xv, xsv, ihv, cb):
                ty = self._motive(t, ty)
                tlist, l2 = self._value(ctx, l, None)
                if not isinstance(tlist, ListTy):
                    raise TypeCheckError(
                        "listrec of a non-list", t.loc, found=tlist
                    )
                ty, z2 = self._comp(ctx, z, ty)
                ctx2 = ctx_extend(
                    ctx_extend(ctx_extend(ctx, xv, tlist.elem), xsv, tlist),
                    ihv, UTy(ty),
                )
                _, cb2 = self._comp(ctx2, cb, ty)
                return ty, ListRec(
                    l2, z2, xv, xsv, ihv, cb2, t.motive,
                    loc=t.loc, ty=ty, list_charge=tlist.charge,
                )
            case Var(name):
                found = ctx_lookup(ctx, name)
                if found is None:
                    raise TypeCheckError(f"unbound variable '{name}'", t.loc)
                if not isinstance(found, UTy):
                    raise TypeCheckError(
                        "value used where a computation is required",
                        t.loc, found=found,
                    )
                return self._expect(t, found.comp, ty), t
            case ValueTerm():
                raise TypeCheckError(
                    "value term where a computation is required",
                    t.loc, expected=ty,
                )
            case _:
                raise TypeCheckError(f"cannot infer {type(t).__name__}", t.loc)

    @staticmethod
    def _expect(t, found: CompTy, ty: Optional[CompTy]) -> CompTy:
        """``found`` when inferring; when checking, ``ty`` if they agree."""
        if ty is not None and found != ty:
            raise TypeCheckError(
                "computation type mismatch", t.loc, expected=ty, found=found
            )
        return found

    def _arms(self, ctx: Ctx, l, r, ty: Optional[CompTy]):
        """Two arms of one type: both checked at ``ty``, or when inferring,
        the type of the left arm, else of the right one."""
        if ty is not None:
            return ty, self._comp(ctx, l, ty)[1], self._comp(ctx, r, ty)[1]
        try:
            ty, l2 = self._comp(ctx, l, None)
            return ty, l2, self._comp(ctx, r, ty)[1]
        except TypeCheckError:
            ty, r2 = self._comp(ctx, r, None)
            return ty, self._comp(ctx, l, ty)[1], r2

    @staticmethod
    def _motive(t, ty: Optional[CompTy]) -> Optional[CompTy]:
        """A recursor's type: the expected one, which an ascribed motive
        must equal, or else the motive (None: infer from the base case)."""
        if ty is None:
            return t.motive
        if t.motive is not None and t.motive != ty:
            raise TypeCheckError(
                "recursor motive disagrees with the expected type",
                t.loc, expected=ty, found=t.motive,
            )
        return ty

    # -- helpers ---------------------------------------------------------------

    def _check_ap_spine(self, ctx: Ctx, t, ty: CompTy):
        """Check an application whose head does not synthesize.

        When each argument synthesizes a type, the head can be *checked*
        against the arrow built from the arguments and the expected
        result; this is what lets recursors with unsynthesizable base
        branches sit at the head of an application.
        """
        args = []
        head = t
        while isinstance(head, Ap):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        fn_ty = ty
        arg_tys = []
        for a in args:
            a_ty, _ = self._value(ctx, a, None)
            arg_tys.append(a_ty)
        for a_ty in reversed(arg_tys):
            fn_ty = ArrowTy(a_ty, fn_ty)
        _, out = self._comp(ctx, head, fn_ty)
        cod = fn_ty
        for a, a_ty in zip(args, arg_tys):
            _, a2 = self._value(ctx, a, a_ty)
            cod = cod.cod
            out = Ap(out, a2, loc=t.loc, ty=cod)
        return out

    def _check_cost(self, ctx: Ctx, c):
        match c:
            case CostLit(v):
                if not self.monoid.is_valid(v):
                    raise TypeCheckError(
                        f"cost literal {v!r} invalid for the "
                        f"'{self.monoid.name}' monoid"
                    )
                return c
            case NatCost(term):
                _, t2 = self._value(ctx, term, NAT)
                return NatCost(t2)
            case _:
                raise TypeCheckError(f"bad cost annotation {c!r}")

    def _require_theory(self, op: str, kind: str, t):
        if self.theory.kind != kind:
            raise TypeCheckError(
                f"effect operation '{op}' outside its theory "
                f"(program declares '{self.theory.kind}')", t.loc
            )

    def _require_par(self, t):
        if self.theory.kind != "pure":
            raise TypeCheckError("par is only available in pure programs", t.loc)
        if self.monoid is not WORK_SPAN:
            raise TypeCheckError(
                "par requires the parallel cost monoid", t.loc
            )


def check_program(p: Program) -> None:
    """Raise TypeCheckError unless ``p.body`` checks at ``p.declared_ty``."""
    elaborate(p)


def elaborate(p: Program) -> Program:
    """Type-check ``p`` and return it with type-annotated computation nodes."""
    body = Checker(p.theory, p.monoid).check_comp((), p.body, p.declared_ty)
    return replace(p, body=body)
