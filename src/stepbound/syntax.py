"""Abstract and surface syntax for the two-level (value/computation) language.

The term language follows the call-by-push-value discipline: *values* are
inert first-order data (plus suspended computations), *computations* may
charge cost and perform the effects of their program's declared theory.
Suspension is transparent: a computation term appearing in value position
*is* the thunk, and a variable of suspension type used in computation
position is forced implicitly.

Surface syntax is s-expressions, one program per file::

    #name double
    #effect pure
    #cost seq
    (: (-> nat (F nat))
       (lam (n : nat)
         (natrec n (ret zero) (k ih (step 1 (bind ih (m (ret (suc (suc m))))))))))

Headers: ``#name NAME`` (optional), ``#effect pure|nondet|prob|state:<ty>``
and ``#cost seq|par``.  Comments run from ``;`` to end of line.

Forms: ``(ret v)``, ``(bind e (x body))``, ``(lam (x : ty) body)``,
``(ap f v ...)``, ``(step c body)``, ``(natrec n z (k ih body))``,
``(listrec l nl (x xs ih body))``, ``(if b t f)``,
``(case s (x e1) (y e2))``, ``(branch e0 e1)``, ``fail``,
``(flip p e0 e1)``, ``(get (s body))``, ``(set v body)``, ``(par e0 e1)``.
Values: ``tt``, ``true``/``false``, ``zero``/``(suc v)``/numerals, ``nil``,
``(cons v l)``, ``(pair a b)``, ``(fst v)``, ``(snd v)``, ``(inl v)``,
``(inr v)``, variables, or any computation form (a thunk).

Step annotations ``c`` are numerals (``(w s)`` pairs under the parallel
monoid) or nat-valued value terms, evaluated cost-free and scaled by the
monoid unit at run time.

``parse`` checks syntax only; the checker (``typecheck``) judges types and
effects, and ``parse`` runs it only to synthesize a bare body's type.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Union

from .costs import MONOIDS, SEQ_NAT, WORK_SPAN, CostMonoid
from .records import field, record, replace


class SyntaxError_(Exception):
    """Surface-syntax error with position information."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line is not None else ""
        super().__init__(f"{where}{message}")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def _node(cls):
    """A record whose hash is computed on first use and kept.

    Types and terms compare by value, and the evaluator's table keys hold
    them (inside thunk and ``den`` values), so without the cache every
    lookup would rehash the whole tree.  Nodes are never mutated after
    construction (``replace`` builds a new one), so a kept hash cannot
    go stale.
    """
    cls = record(cls)
    tree_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = tree_hash(self)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


class Ty:
    pass


class ValueTy(Ty):
    pass


class CompTy(Ty):
    pass


@_node
class UnitTy(ValueTy):
    pass


@_node
class BoolTy(ValueTy):
    pass


@_node
class NatTy(ValueTy):
    pass


@_node
class ProdTy(ValueTy):
    fst: ValueTy
    snd: ValueTy


@_node
class SumTy(ValueTy):
    left: ValueTy
    right: ValueTy


@_node
class ListTy(ValueTy):
    elem: ValueTy
    charge: object = None  # cost charged per cons by the recursor; None = zero


@_node
class UTy(ValueTy):
    comp: CompTy


@_node
class FTy(CompTy):
    value: ValueTy


@_node
class ArrowTy(CompTy):
    dom: ValueTy
    cod: CompTy


UNIT = UnitTy()
BOOL = BoolTy()
NAT = NatTy()


def unfold_arrows(ty: CompTy):
    """Split a curried computation type into (argument types, final F type)."""
    args = []
    while isinstance(ty, ArrowTy):
        args.append(ty.dom)
        ty = ty.cod
    return tuple(args), ty


# ---------------------------------------------------------------------------
# Effect theories
# ---------------------------------------------------------------------------


@record
class EffectTheory:
    kind: str  # pure | nondet | prob | state
    state_ty: Optional[ValueTy] = None

    def __post_init__(self):
        if self.kind == "state" and self.state_ty is None:
            raise ValueError("state theory needs a state type")


PURE = EffectTheory("pure")
NONDET = EffectTheory("nondet")
PROB = EffectTheory("prob")


def state_theory(ty: ValueTy) -> EffectTheory:
    return EffectTheory("state", ty)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_meta = dict(default=None, compare=False, repr=False)


@_node
class Term:
    pass


@_node
class ValueTerm(Term):
    pass


@_node
class CompTerm(Term):
    pass


# -- values ------------------------------------------------------------------


@_node
class Var(ValueTerm):
    name: str
    loc: object = field(**_meta)


@_node
class Triv(ValueTerm):
    loc: object = field(**_meta)


@_node
class BoolLit(ValueTerm):
    value: bool
    loc: object = field(**_meta)


@_node
class Zero(ValueTerm):
    loc: object = field(**_meta)


@_node
class Suc(ValueTerm):
    arg: ValueTerm
    loc: object = field(**_meta)


@_node
class Nil(ValueTerm):
    loc: object = field(**_meta)


@_node
class Cons(ValueTerm):
    head: ValueTerm
    tail: ValueTerm
    loc: object = field(**_meta)


@_node
class Pair(ValueTerm):
    fst: ValueTerm
    snd: ValueTerm
    loc: object = field(**_meta)


@_node
class Fst(ValueTerm):
    pair: ValueTerm
    loc: object = field(**_meta)


@_node
class Snd(ValueTerm):
    pair: ValueTerm
    loc: object = field(**_meta)


@_node
class Inl(ValueTerm):
    arg: ValueTerm
    loc: object = field(**_meta)


@_node
class Inr(ValueTerm):
    arg: ValueTerm
    loc: object = field(**_meta)


# -- cost annotations ---------------------------------------------------------


@_node
class CostLit:
    value: object  # int (seq) or (work, span) tuple (par)


@_node
class NatCost:
    """A nat-valued value term used as a cost: n steps at the monoid unit."""

    term: ValueTerm


CostExpr = Union[CostLit, NatCost]


# -- computations -------------------------------------------------------------


@_node
class Ret(CompTerm):
    value: ValueTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Bind(CompTerm):
    comp: CompTerm
    var: str
    body: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Lam(CompTerm):
    var: str
    var_ty: ValueTy
    body: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Ap(CompTerm):
    fn: CompTerm
    arg: ValueTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Step(CompTerm):
    cost: CostExpr
    body: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class NatRec(CompTerm):
    scrut: ValueTerm
    zero_branch: CompTerm
    var_pred: str
    var_ih: str
    suc_branch: CompTerm
    motive: Optional[CompTy] = None  # fixes the ih binder's type U(motive)
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class ListRec(CompTerm):
    scrut: ValueTerm
    nil_branch: CompTerm
    var_head: str
    var_tail: str
    var_ih: str
    cons_branch: CompTerm
    motive: Optional[CompTy] = None
    loc: object = field(**_meta)
    ty: object = field(**_meta)
    list_charge: object = field(**_meta)  # per-cons charge, filled by checking


@_node
class SumCase(CompTerm):
    scrut: ValueTerm
    var_left: str
    left_branch: CompTerm
    var_right: str
    right_branch: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class If(CompTerm):
    cond: ValueTerm
    then_branch: CompTerm
    else_branch: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Branch(CompTerm):
    left: CompTerm
    right: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Fail(CompTerm):
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Flip(CompTerm):
    prob: Fraction
    left: CompTerm
    right: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)

    def __post_init__(self):
        n, d = self.prob.as_integer_ratio()
        if not 0 <= n <= d:
            raise ValueError(f"flip probability {self.prob} outside [0, 1]")


@_node
class Get(CompTerm):
    var: str
    body: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Put(CompTerm):
    value: ValueTerm
    body: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


@_node
class Par(CompTerm):
    left: CompTerm
    right: CompTerm
    loc: object = field(**_meta)
    ty: object = field(**_meta)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@record
class Program:
    name: str
    theory: EffectTheory
    monoid: CostMonoid
    body: CompTerm
    declared_ty: CompTy


def nat_lit(n: int, loc=None) -> ValueTerm:
    """The numeral ``n`` as ``suc``s over ``zero``, each at ``loc``."""
    t: ValueTerm = Zero(loc=loc)
    for _ in range(n):
        t = Suc(t, loc=loc)
    return t


# ---------------------------------------------------------------------------
# Binding structure: one table, and the walks over it
# ---------------------------------------------------------------------------

# Each form's sub-term fields in traversal order, each with the fields that
# name the binders it is under.  A form not listed has no sub-terms.  A
# ``Step`` cost is walked too: a ``NatCost`` has its term as a sub-term.
_SCOPES = {
    Suc: (("arg", ()),),
    Cons: (("head", ()), ("tail", ())),
    Pair: (("fst", ()), ("snd", ())),
    Fst: (("pair", ()),),
    Snd: (("pair", ()),),
    Inl: (("arg", ()),),
    Inr: (("arg", ()),),
    NatCost: (("term", ()),),
    Ret: (("value", ()),),
    Bind: (("comp", ()), ("body", ("var",))),
    Lam: (("body", ("var",)),),
    Ap: (("fn", ()), ("arg", ())),
    Step: (("cost", ()), ("body", ())),
    NatRec: (("scrut", ()), ("zero_branch", ()),
             ("suc_branch", ("var_pred", "var_ih"))),
    ListRec: (("scrut", ()), ("nil_branch", ()),
              ("cons_branch", ("var_head", "var_tail", "var_ih"))),
    SumCase: (("scrut", ()), ("left_branch", ("var_left",)),
              ("right_branch", ("var_right",))),
    If: (("cond", ()), ("then_branch", ()), ("else_branch", ())),
    Branch: (("left", ()), ("right", ())),
    Flip: (("left", ()), ("right", ())),
    Get: (("body", ("var",)),),
    Put: (("value", ()), ("body", ())),
    Par: (("left", ()), ("right", ())),
}


def scopes(t):
    """Yield ``(field, sub-term, binder names over it)`` for each sub-term
    of ``t`` in traversal order."""
    for field, binders in _SCOPES.get(type(t), ()):
        yield field, getattr(t, field), tuple(getattr(t, b) for b in binders)


def subterms(t) -> list:
    """``t``'s sub-terms in traversal order: ``scopes`` without binders."""
    return [getattr(t, field) for field, _ in _SCOPES.get(type(t), ())]


def map_scopes(t, f):
    """``t`` rebuilt from ``f(sub-term, binder names) -> (names, sub-term)``
    over its scopes; ``t`` itself when nothing changes.  Other fields
    (location, elaborated type, motive) are kept."""
    changes = {}
    for field, binders in _SCOPES.get(type(t), ()):
        sub = getattr(t, field)
        names = tuple(getattr(t, b) for b in binders)
        new_names, new_sub = f(sub, names)
        if new_sub is not sub:
            changes[field] = new_sub
        for b, old, new in zip(binders, names, new_names):
            if new != old:
                changes[b] = new
    return replace(t, **changes) if changes else t


def free_vars(t) -> frozenset:
    """Free variables of a term (or of a ``NatCost``)."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    fv = frozenset()
    for _, sub, names in scopes(t):
        fv |= free_vars(sub).difference(names)
    return fv


def _fresh(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def _free_in_values(mapping: dict) -> frozenset:
    return frozenset().union(*map(free_vars, mapping.values()))


def subst(t: Term, mapping: dict) -> Term:
    """Capture-avoiding simultaneous substitution of value terms for free
    variables.  A binder free in a substituted value is renamed to a name
    free in neither the values nor its scope."""
    if not mapping:
        return t
    return _subst(t, mapping, _free_in_values(mapping))


def _subst(t, mapping: dict, avoid: frozenset):
    """``subst`` with ``avoid`` the free variables of ``mapping``'s values."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)

    def scope(body, names):
        inner, inner_avoid = mapping, avoid
        if any(n in mapping for n in names):
            inner = {k: v for k, v in mapping.items() if k not in names}
            if not inner:
                return names, body
            inner_avoid = _free_in_values(inner)
        if inner_avoid.isdisjoint(names):
            return names, _subst(body, inner, inner_avoid)
        fv = free_vars(body)
        if fv.isdisjoint(inner):
            return names, body
        taken = {*inner_avoid, *fv, *names}
        fresh = []
        for b in names:
            if b in inner_avoid:
                nb = _fresh(b, taken)
                taken.add(nb)
                inner = {**inner, b: Var(nb)}
                b = nb
            fresh.append(b)
        return tuple(fresh), _subst(body, inner, _free_in_values(inner))

    return map_scopes(t, scope)


def alpha_normalize(t: Term) -> Term:
    """Rename every binder to v0, v1, ... in traversal order, skipping the
    names free in ``t``."""
    free = free_vars(t)
    fresh_names = (n for n in map("v{}".format, itertools.count())
                   if n not in free)

    def walk(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))

        def scope(sub, names):
            if not names:
                return names, walk(sub, env)
            fresh = tuple(next(fresh_names) for _ in names)
            return fresh, walk(sub, {**env, **dict(zip(names, fresh))})

        return map_scopes(t, scope)

    return walk(t, {})


def alpha_eq(a: Term, b: Term) -> bool:
    return alpha_normalize(a) == alpha_normalize(b)


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------


@record
class SAtom:
    text: str
    line: int
    col: int


@record
class SList:
    items: tuple
    line: int
    col: int


def _tokenize(text: str):
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, line, col)
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield (text[start:i], line, start_col)


def read_sexprs(text: str):
    """Read all s-expressions in ``text`` into SAtom/SList trees."""
    stack = []
    out = []
    for tok, line, col in _tokenize(text):
        if tok == "(":
            stack.append(([], line, col))
        elif tok == ")":
            if not stack:
                raise SyntaxError_("unmatched ')'", line, col)
            items, l0, c0 = stack.pop()
            node = SList(tuple(items), l0, c0)
            (stack[-1][0] if stack else out).append(node)
        else:
            node = SAtom(tok, line, col)
            (stack[-1][0] if stack else out).append(node)
    if stack:
        raise SyntaxError_("unclosed '('", stack[-1][1], stack[-1][2])
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_COMP_HEADS = {
    "ret", "bind", "lam", "ap", "step", "natrec", "listrec", "if", "case",
    "branch", "flip", "get", "set", "par",
}
_VALUE_HEADS = {"suc", "cons", "pair", "fst", "snd", "inl", "inr"}
_RESERVED = _COMP_HEADS | _VALUE_HEADS | {
    "fail", "tt", "true", "false", "zero", "nil", ":", "->", "unit", "bool",
    "nat", "prod", "sum", "list", "U", "F",
}


def _is_numeral(s: str) -> bool:
    return s.isdigit()


def _is_cost_lit(sx) -> bool:
    """A numeral, or a pair of numerals (a work/span cost)."""
    if isinstance(sx, SAtom):
        return _is_numeral(sx.text)
    return isinstance(sx, SList) and len(sx.items) == 2 and all(
        isinstance(i, SAtom) and _is_numeral(i.text) for i in sx.items
    )


def _err(sx, msg):
    raise SyntaxError_(msg, sx.line, sx.col)


class _Parser:
    def __init__(self, monoid: CostMonoid):
        self.monoid = monoid

    # -- types --

    def ty(self, sx) -> Ty:
        if isinstance(sx, SAtom):
            match sx.text:
                case "unit":
                    return UNIT
                case "bool":
                    return BOOL
                case "nat":
                    return NAT
                case _:
                    _err(sx, f"unknown type '{sx.text}'")
        items = sx.items
        if not items or not isinstance(items[0], SAtom):
            _err(sx, "bad type")
        head = items[0].text
        args = items[1:]
        match head:
            case "prod" if len(args) == 2:
                return ProdTy(self.value_ty(args[0]), self.value_ty(args[1]))
            case "sum" if len(args) == 2:
                return SumTy(self.value_ty(args[0]), self.value_ty(args[1]))
            case "list" if len(args) == 1:
                return ListTy(self.value_ty(args[0]))
            case "list" if len(args) == 2:
                charge = self.cost_lit(args[0])
                if charge == self.monoid.zero:
                    return ListTy(self.value_ty(args[1]))
                return ListTy(self.value_ty(args[1]), charge)
            case "U" if len(args) == 1:
                return UTy(self.comp_ty(args[0]))
            case "F" if len(args) == 1:
                return FTy(self.value_ty(args[0]))
            case "->" if len(args) >= 2:
                cod = self.comp_ty(args[-1])
                for a in reversed(args[:-1]):
                    cod = ArrowTy(self.value_ty(a), cod)
                return cod
            case _:
                _err(sx, f"bad type form '{head}'")

    def value_ty(self, sx) -> ValueTy:
        t = self.ty(sx)
        if not isinstance(t, ValueTy):
            _err(sx, "expected a value type, found a computation type")
        return t

    def comp_ty(self, sx) -> CompTy:
        t = self.ty(sx)
        if not isinstance(t, CompTy):
            _err(sx, "expected a computation type, found a value type")
        return t

    # -- costs --

    def cost_lit(self, sx):
        if not _is_cost_lit(sx):
            _err(sx, "expected a cost literal")
        if isinstance(sx, SAtom):
            return self.monoid.scale(int(sx.text))
        if self.monoid is not WORK_SPAN:
            _err(sx, "pair cost literal requires the parallel cost monoid")
        return (int(sx.items[0].text), int(sx.items[1].text))

    def cost_expr(self, sx) -> CostExpr:
        if _is_cost_lit(sx):
            return CostLit(self.cost_lit(sx))
        return NatCost(self.value(sx))

    def rational(self, sx) -> Fraction:
        if not isinstance(sx, SAtom):
            _err(sx, "expected a rational")
        try:
            p = Fraction(sx.text)
        except (ValueError, ZeroDivisionError):
            _err(sx, f"bad rational '{sx.text}'")
        if not 0 <= p <= 1:
            _err(sx, f"probability {p} outside [0, 1]")
        return p

    # -- terms --

    def _binder(self, sx) -> str:
        if not isinstance(sx, SAtom) or sx.text in _RESERVED or _is_numeral(sx.text):
            _err(sx, "expected a variable name")
        return sx.text

    def value(self, sx) -> ValueTerm:
        loc = (sx.line, sx.col)
        if isinstance(sx, SAtom):
            match sx.text:
                case "tt":
                    return Triv(loc=loc)
                case "true":
                    return BoolLit(True, loc=loc)
                case "false":
                    return BoolLit(False, loc=loc)
                case "zero":
                    return Zero(loc=loc)
                case "nil":
                    return Nil(loc=loc)
                case "fail":
                    return self.comp(sx)  # a thunked fail
                case s if _is_numeral(s):
                    return nat_lit(int(s), loc)
                case s if s in _RESERVED:
                    _err(sx, f"'{s}' is not a value")
                case s:
                    return Var(s, loc=loc)
        head = sx.items[0] if sx.items else None
        if isinstance(head, SAtom):
            args = sx.items[1:]
            match head.text:
                case "suc" if len(args) == 1:
                    return Suc(self.value(args[0]), loc=loc)
                case "cons" if len(args) == 2:
                    return Cons(self.value(args[0]), self.value(args[1]), loc=loc)
                case "pair" if len(args) == 2:
                    return Pair(self.value(args[0]), self.value(args[1]), loc=loc)
                case "fst" if len(args) == 1:
                    return Fst(self.value(args[0]), loc=loc)
                case "snd" if len(args) == 1:
                    return Snd(self.value(args[0]), loc=loc)
                case "inl" if len(args) == 1:
                    return Inl(self.value(args[0]), loc=loc)
                case "inr" if len(args) == 1:
                    return Inr(self.value(args[0]), loc=loc)
                case h if h in _COMP_HEADS:
                    return self.comp(sx)  # transparent thunk
        _err(sx, "bad value form")

    def comp(self, sx) -> CompTerm:
        loc = (sx.line, sx.col)
        if isinstance(sx, SAtom):
            if sx.text == "fail":
                return Fail(loc=loc)
            if sx.text in _RESERVED or _is_numeral(sx.text):
                _err(sx, f"'{sx.text}' is not a computation")
            return Var(sx.text, loc=loc)  # forced thunk variable
        head = sx.items[0] if sx.items else None
        if not isinstance(head, SAtom):
            _err(sx, "bad computation form")
        args = sx.items[1:]
        match head.text:
            case "ret" if len(args) == 1:
                return Ret(self.value(args[0]), loc=loc)
            case "bind" if len(args) == 2:
                e = self.comp(args[0])
                if not isinstance(args[1], SList) or len(args[1].items) != 2:
                    _err(args[1], "bind expects (x body)")
                x = self._binder(args[1].items[0])
                return Bind(e, x, self.comp(args[1].items[1]), loc=loc)
            case "lam" if len(args) == 2:
                b = args[0]
                if (
                    not isinstance(b, SList)
                    or len(b.items) != 3
                    or not isinstance(b.items[1], SAtom)
                    or b.items[1].text != ":"
                ):
                    _err(args[0], "lam expects (x : ty)")
                x = self._binder(b.items[0])
                return Lam(x, self.value_ty(b.items[2]), self.comp(args[1]), loc=loc)
            case "ap" if len(args) >= 2:
                fn = self.comp(args[0])
                for a in args[1:]:
                    fn = Ap(fn, self.value(a), loc=loc)
                return fn
            case "step" if len(args) == 2:
                return Step(self.cost_expr(args[0]), self.comp(args[1]), loc=loc)
            case "natrec" if len(args) in (3, 4):
                n = self.value(args[0])
                motive, args = self._motive(args)
                z = self.comp(args[1])
                b = args[2]
                if not isinstance(b, SList) or len(b.items) != 3:
                    _err(args[2], "natrec expects (k ih body)")
                k = self._binder(b.items[0])
                ih = self._binder(b.items[1])
                return NatRec(n, z, k, ih, self.comp(b.items[2]), motive,
                              loc=loc)
            case "listrec" if len(args) in (3, 4):
                l = self.value(args[0])
                motive, args = self._motive(args)
                z = self.comp(args[1])
                b = args[2]
                if not isinstance(b, SList) or len(b.items) != 4:
                    _err(args[2], "listrec expects (x xs ih body)")
                x = self._binder(b.items[0])
                xs = self._binder(b.items[1])
                ih = self._binder(b.items[2])
                return ListRec(l, z, x, xs, ih, self.comp(b.items[3]), motive,
                               loc=loc)
            case "if" if len(args) == 3:
                return If(
                    self.value(args[0]), self.comp(args[1]), self.comp(args[2]),
                    loc=loc,
                )
            case "case" if len(args) == 3:
                s = self.value(args[0])
                arms = []
                for a in args[1:]:
                    if not isinstance(a, SList) or len(a.items) != 2:
                        _err(a, "case expects (x body) arms")
                    arms.append((self._binder(a.items[0]), self.comp(a.items[1])))
                return SumCase(s, arms[0][0], arms[0][1], arms[1][0], arms[1][1],
                               loc=loc)
            case "branch" if len(args) == 2:
                return Branch(self.comp(args[0]), self.comp(args[1]), loc=loc)
            case "flip" if len(args) == 3:
                return Flip(
                    self.rational(args[0]), self.comp(args[1]), self.comp(args[2]),
                    loc=loc,
                )
            case "get" if len(args) == 1:
                b = args[0]
                if not isinstance(b, SList) or len(b.items) != 2:
                    _err(args[0], "get expects (s body)")
                return Get(self._binder(b.items[0]), self.comp(b.items[1]), loc=loc)
            case "set" if len(args) == 2:
                return Put(self.value(args[0]), self.comp(args[1]), loc=loc)
            case "par" if len(args) == 2:
                return Par(self.comp(args[0]), self.comp(args[1]), loc=loc)
            case _:
                _err(sx, f"bad computation form '{head.text}'")

    def _motive(self, args):
        """Peel an optional ``(: ty)`` motive annotation from a recursor."""
        if (
            len(args) == 4
            and isinstance(args[1], SList)
            and len(args[1].items) == 2
            and isinstance(args[1].items[0], SAtom)
            and args[1].items[0].text == ":"
        ):
            motive = self.comp_ty(args[1].items[1])
            return motive, (args[0],) + tuple(args[2:])
        if len(args) == 4:
            _err(args[1], "expected a (: ty) motive annotation")
        return None, args


def _parse_headers(source: str):
    name = "main"
    theory = None
    monoid = None
    rest_lines = []
    for raw in source.splitlines():
        line = raw.strip()
        if line.startswith("#name"):
            name = line[len("#name"):].strip()
        elif line.startswith("#effect"):
            spec = line[len("#effect"):].strip()
            if spec == "pure":
                theory = PURE
            elif spec == "nondet":
                theory = NONDET
            elif spec == "prob":
                theory = PROB
            elif spec.startswith("state:"):
                ty_src = spec[len("state:"):]
                sxs = read_sexprs(ty_src)
                if len(sxs) != 1:
                    raise SyntaxError_(f"bad state type '{ty_src}'")
                theory = state_theory(_Parser(SEQ_NAT).value_ty(sxs[0]))
            else:
                raise SyntaxError_(f"unknown effect theory '{spec}'")
        elif line.startswith("#cost"):
            spec = line[len("#cost"):].strip()
            if spec not in MONOIDS:
                raise SyntaxError_(f"unknown cost monoid '{spec}'")
            monoid = MONOIDS[spec]
        elif line.startswith("#"):
            raise SyntaxError_(f"unknown header '{line}'")
        else:
            rest_lines.append(raw)
            continue
        rest_lines.append("")  # keep line numbers aligned with the source
    return name, theory or PURE, monoid or SEQ_NAT, "\n".join(rest_lines)


def parse(source: str) -> Program:
    """Parse one program: headers, then ``(: ty body)`` or a bare body.

    A bare body must synthesize its type; ascribe non-synthesizable
    programs (for instance a top-level ``fail``) explicitly.  When it
    does not, the error is at the checker's position, if it gives one.
    An ascribed body is not type-checked here.
    """
    name, theory, monoid, rest = _parse_headers(source)
    sxs = read_sexprs(rest)
    if len(sxs) != 1:
        raise SyntaxError_("expected exactly one program form")
    top = sxs[0]
    p = _Parser(monoid)
    if (
        isinstance(top, SList)
        and len(top.items) == 3
        and isinstance(top.items[0], SAtom)
        and top.items[0].text == ":"
    ):
        ty = p.comp_ty(top.items[1])
        body = p.comp(top.items[2])
        return Program(name, theory, monoid, body, ty)
    body = p.comp(top)
    from .typecheck import Checker, TypeCheckError

    try:
        ty, _ = Checker(theory, monoid).infer_comp((), body)
    except TypeCheckError as e:
        line, col = e.loc or (top.line, top.col)
        raise SyntaxError_(
            f"program without a type ascription does not synthesize: "
            f"{e.reason}", line, col,
        )
    return Program(name, theory, monoid, body, ty)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _rat_str(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def _nat_chain(t: Term):
    n = 0
    while isinstance(t, Suc):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


def cost_expr_str(c: CostExpr, monoid: CostMonoid) -> str:
    if isinstance(c, CostLit):
        return monoid.show(c.value)
    return term_str(c.term, monoid)


def term_str(t: Term, monoid: CostMonoid = SEQ_NAT) -> str:
    s = lambda x: term_str(x, monoid)
    match t:
        case Var(name):
            return name
        case Triv():
            return "tt"
        case BoolLit(v):
            return "true" if v else "false"
        case Zero():
            return "0"
        case Suc(_):
            n = _nat_chain(t)
            return str(n) if n is not None else f"(suc {s(t.arg)})"
        case Nil():
            return "nil"
        case Cons(h, tl):
            return f"(cons {s(h)} {s(tl)})"
        case Pair(a, b):
            return f"(pair {s(a)} {s(b)})"
        case Fst(p):
            return f"(fst {s(p)})"
        case Snd(p):
            return f"(snd {s(p)})"
        case Inl(a):
            return f"(inl {s(a)})"
        case Inr(a):
            return f"(inr {s(a)})"
        case Ret(v):
            return f"(ret {s(v)})"
        case Bind(e, x, b):
            return f"(bind {s(e)} ({x} {s(b)}))"
        case Lam(x, xty, b):
            return f"(lam ({x} : {ty_str(xty, monoid)}) {s(b)})"
        case Ap(f, a):
            return f"(ap {s(f)} {s(a)})"
        case Step(c, b):
            return f"(step {cost_expr_str(c, monoid)} {s(b)})"
        case NatRec(n, z, k, ih, sb):
            mot = f" (: {ty_str(t.motive, monoid)})" if t.motive else ""
            return f"(natrec {s(n)}{mot} {s(z)} ({k} {ih} {s(sb)}))"
        case ListRec(l, z, x, xs, ih, cb):
            mot = f" (: {ty_str(t.motive, monoid)})" if t.motive else ""
            return f"(listrec {s(l)}{mot} {s(z)} ({x} {xs} {ih} {s(cb)}))"
        case If(b, th, el):
            return f"(if {s(b)} {s(th)} {s(el)})"
        case SumCase(sc, xl, lb, xr, rb):
            return f"(case {s(sc)} ({xl} {s(lb)}) ({xr} {s(rb)}))"
        case Branch(l, r):
            return f"(branch {s(l)} {s(r)})"
        case Fail():
            return "fail"
        case Flip(p, l, r):
            return f"(flip {_rat_str(p)} {s(l)} {s(r)})"
        case Get(x, b):
            return f"(get ({x} {s(b)}))"
        case Put(v, b):
            return f"(set {s(v)} {s(b)})"
        case Par(l, r):
            return f"(par {s(l)} {s(r)})"
        case _:
            raise ValueError(f"cannot print {t!r}")


def ty_str(ty: Ty, monoid: CostMonoid = SEQ_NAT) -> str:
    match ty:
        case UnitTy():
            return "unit"
        case BoolTy():
            return "bool"
        case NatTy():
            return "nat"
        case ProdTy(a, b):
            return f"(prod {ty_str(a, monoid)} {ty_str(b, monoid)})"
        case SumTy(a, b):
            return f"(sum {ty_str(a, monoid)} {ty_str(b, monoid)})"
        case ListTy(e, None):
            return f"(list {ty_str(e, monoid)})"
        case ListTy(e, c):
            return f"(list {monoid.show(c)} {ty_str(e, monoid)})"
        case UTy(x):
            return f"(U {ty_str(x, monoid)})"
        case FTy(a):
            return f"(F {ty_str(a, monoid)})"
        case ArrowTy(a, x):
            return f"(-> {ty_str(a, monoid)} {ty_str(x, monoid)})"
        case _:
            raise ValueError(f"cannot print type {ty!r}")


def print_program(p: Program) -> str:
    """Canonical source text; ``parse(print_program(p))`` round-trips."""
    if p.theory.kind == "state":
        eff = f"state:{ty_str(p.theory.state_ty, p.monoid)}"
    else:
        eff = p.theory.kind
    return (
        f"#name {p.name}\n#effect {eff}\n#cost {p.monoid.name}\n"
        f"(: {ty_str(p.declared_ty, p.monoid)}\n   {term_str(p.body, p.monoid)})\n"
    )
