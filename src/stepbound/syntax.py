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

The forms, such as ``(bind e (x body))`` or ``(lam (x : ty) body)``,
come from one table, ``_FORMS``: each head with its node class and its
fields in the order they are written.  The parser and the printer both
read it, and the keywords (``tt``, ``true``, ``zero``, ``nil``, ``fail``,
``unit``, ...) from ``_ATOMS``.  A value is a value form, a keyword, a
numeral (ASCII digits), a variable, or any computation form (a thunk).

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

_meta = dict(default=None, compare=False, repr=False, kw_only=True)


@_node
class Term:
    loc: object = field(**_meta)  # (line, col) in the source, or None


@_node
class ValueTerm(Term):
    pass


@_node
class CompTerm(Term):
    ty: object = field(**_meta)  # its type, filled by elaboration


# -- values ------------------------------------------------------------------


@_node
class Var(ValueTerm):
    name: str


@_node
class Triv(ValueTerm):
    pass


@_node
class BoolLit(ValueTerm):
    value: bool


@_node
class Zero(ValueTerm):
    pass


@_node
class Suc(ValueTerm):
    arg: ValueTerm


@_node
class Nil(ValueTerm):
    pass


@_node
class Cons(ValueTerm):
    head: ValueTerm
    tail: ValueTerm


@_node
class Pair(ValueTerm):
    fst: ValueTerm
    snd: ValueTerm


@_node
class Fst(ValueTerm):
    pair: ValueTerm


@_node
class Snd(ValueTerm):
    pair: ValueTerm


@_node
class Inl(ValueTerm):
    arg: ValueTerm


@_node
class Inr(ValueTerm):
    arg: ValueTerm


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


@_node
class Bind(CompTerm):
    comp: CompTerm
    var: str
    body: CompTerm


@_node
class Lam(CompTerm):
    var: str
    var_ty: ValueTy
    body: CompTerm


@_node
class Ap(CompTerm):
    fn: CompTerm
    arg: ValueTerm


@_node
class Step(CompTerm):
    cost: CostExpr
    body: CompTerm


@_node
class NatRec(CompTerm):
    scrut: ValueTerm
    zero_branch: CompTerm
    var_pred: str
    var_ih: str
    suc_branch: CompTerm
    motive: Optional[CompTy] = None  # fixes the ih binder's type U(motive)


@_node
class ListRec(CompTerm):
    scrut: ValueTerm
    nil_branch: CompTerm
    var_head: str
    var_tail: str
    var_ih: str
    cons_branch: CompTerm
    motive: Optional[CompTy] = None
    list_charge: object = field(**_meta)  # per-cons charge, filled by checking


@_node
class SumCase(CompTerm):
    scrut: ValueTerm
    var_left: str
    left_branch: CompTerm
    var_right: str
    right_branch: CompTerm


@_node
class If(CompTerm):
    cond: ValueTerm
    then_branch: CompTerm
    else_branch: CompTerm


@_node
class Branch(CompTerm):
    left: CompTerm
    right: CompTerm


@_node
class Fail(CompTerm):
    pass


@_node
class Flip(CompTerm):
    prob: Fraction
    left: CompTerm
    right: CompTerm

    def __post_init__(self):
        n, d = self.prob.as_integer_ratio()
        if not 0 <= n <= d:
            raise ValueError(f"flip probability {self.prob} outside [0, 1]")


@_node
class Get(CompTerm):
    var: str
    body: CompTerm


@_node
class Put(CompTerm):
    value: ValueTerm
    body: CompTerm


@_node
class Par(CompTerm):
    left: CompTerm
    right: CompTerm


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
# Surface forms: one table, read by the parser and the printer
# ---------------------------------------------------------------------------

# Each form's head, node class and layout: the node's fields in the order
# they are written.  A nested tuple is a parenthesised group, ":" a literal
# colon and "motive" an optional ``(: ty)``.  A field's record annotation
# says how it is read and printed (``_KINDS``).  Four cases have code of
# their own: numerals, the variadic ``ap`` and ``->``, and ``list`` with
# an optional per-cons charge.
_FORMS = {
    "suc": (Suc, ("arg",)),
    "cons": (Cons, ("head", "tail")),
    "pair": (Pair, ("fst", "snd")),
    "fst": (Fst, ("pair",)),
    "snd": (Snd, ("pair",)),
    "inl": (Inl, ("arg",)),
    "inr": (Inr, ("arg",)),
    "ret": (Ret, ("value",)),
    "bind": (Bind, ("comp", ("var", "body"))),
    "lam": (Lam, (("var", ":", "var_ty"), "body")),
    "ap": (Ap, ("fn", "arg")),
    "step": (Step, ("cost", "body")),
    "natrec": (NatRec, ("scrut", "motive", "zero_branch",
                        ("var_pred", "var_ih", "suc_branch"))),
    "listrec": (ListRec, ("scrut", "motive", "nil_branch",
                          ("var_head", "var_tail", "var_ih", "cons_branch"))),
    "if": (If, ("cond", "then_branch", "else_branch")),
    "case": (SumCase, ("scrut", ("var_left", "left_branch"),
                       ("var_right", "right_branch"))),
    "branch": (Branch, ("left", "right")),
    "flip": (Flip, ("prob", "left", "right")),
    "get": (Get, (("var", "body"),)),
    "set": (Put, ("value", "body")),
    "par": (Par, ("left", "right")),
    "prod": (ProdTy, ("fst", "snd")),
    "sum": (SumTy, ("left", "right")),
    "list": (ListTy, ("elem",)),
    "U": (UTy, ("comp",)),
    "F": (FTy, ("value",)),
    "->": (ArrowTy, ("dom", "cod")),
}

# Keywords: each stands for one node.
_ATOMS = {
    "tt": Triv(), "true": BoolLit(True), "false": BoolLit(False),
    "zero": Zero(), "nil": Nil(), "fail": Fail(),
    "unit": UNIT, "bool": BOOL, "nat": NAT,
}

_RESERVED = {*_FORMS, *_ATOMS, ":"}

# both tables as the printer looks them up
_HEADS = {cls: (head, layout) for head, (cls, layout) in _FORMS.items()}
_KEYWORDS = {node: name for name, node in _ATOMS.items()}


def _err(sx, msg):
    raise SyntaxError_(msg, sx.line, sx.col)


def _numeral(sx) -> Optional[int]:
    """The number ``sx`` writes, or None if it is no numeral.  Numerals
    are ASCII digits; a token of other digits is an error."""
    if not isinstance(sx, SAtom) or not sx.text.isdigit():
        return None
    if not sx.text.isascii():
        _err(sx, f"'{sx.text}' is not a numeral: numerals are ASCII digits")
    return int(sx.text)


def _is_cost_lit(sx) -> bool:
    """A numeral, or a pair of numerals (a work/span cost)."""
    if isinstance(sx, SAtom):
        return _numeral(sx) is not None
    return isinstance(sx, SList) and len(sx.items) == 2 and all(
        _numeral(i) is not None for i in sx.items)


def _is_colon(sx) -> bool:
    return isinstance(sx, SAtom) and sx.text == ":"


def _bad_form(sx, head: str, usage=None):
    """Reject ``sx``, a badly shaped ``head`` form, saying how the form is
    written: by default, as its layout, with its fields' names."""
    def written(layout):
        return " ".join("[(: motive)]" if i == "motive"
                        else f"({written(i)})" if isinstance(i, tuple) else i
                        for i in layout)

    usage = usage or f"({head} {written(_FORMS[head][1])})"
    _err(sx, f"bad '{head}' form, expected {usage}")


class _Parser:
    def __init__(self, monoid: CostMonoid):
        self.monoid = monoid

    def value(self, sx) -> ValueTerm:
        # a computation form in value position is its thunk
        return self.node(sx, Term, "value")

    def comp(self, sx) -> CompTerm:
        return self.node(sx, CompTerm, "computation")

    def value_ty(self, sx) -> ValueTy:
        t = self.node(sx, Ty, "type")
        if not isinstance(t, ValueTy):
            _err(sx, "expected a value type, found a computation type")
        return t

    def comp_ty(self, sx) -> CompTy:
        t = self.node(sx, Ty, "type")
        if not isinstance(t, CompTy):
            _err(sx, "expected a computation type, found a value type")
        return t

    def node(self, sx, sort: type, what: str):
        """The node of class ``sort`` that ``sx`` writes; ``what`` names
        the sort in errors."""
        loc = (sx.line, sx.col)
        if isinstance(sx, SAtom):
            atom = _ATOMS.get(sx.text)
            if isinstance(atom, sort):
                return replace(atom, loc=loc) if isinstance(atom, Term) else atom
            n = _numeral(sx)
            if n is not None and sort is Term:
                return nat_lit(n, loc)
            if n is not None or sx.text in _RESERVED or sort is Ty:
                _err(sx, f"'{sx.text}' is not a {what}")
            return Var(sx.text, loc=loc)  # forced in computation position
        head = sx.items[0] if sx.items else None
        if not isinstance(head, SAtom):
            _err(sx, f"bad {what} form")
        cls, layout = _FORMS.get(head.text, (None, ()))
        if cls is None or not issubclass(cls, sort):
            _err(sx, f"'{head.text}' is not a {what} form")
        args = sx.items[1:]
        if cls is Ap:  # (ap f a b) is (ap (ap f a) b)
            if len(args) < 2:
                _bad_form(sx, "ap", "(ap fn arg ...)")
            t = self.comp(args[0])
            for a in args[1:]:
                t = Ap(t, self.value(a), loc=loc)
            return t
        if cls is ArrowTy:  # (-> a b c) is (-> a (-> b c)), read from c
            if len(args) < 2:
                _bad_form(sx, "->", "(-> dom ... cod)")
            t = self.comp_ty(args[-1])
            for a in reversed(args[:-1]):
                t = ArrowTy(self.value_ty(a), t)
            return t
        if cls is ListTy and len(args) != 1:  # (list c ty): c per cons
            if len(args) != 2:
                _bad_form(sx, "list", "(list [charge] elem)")
            charge = self.cost_lit(args[0])
            elem = self.value_ty(args[1])
            return ListTy(elem, None if charge == self.monoid.zero else charge)
        if len(args) == len(layout) - 1 and "motive" in layout:
            layout = tuple(i for i in layout if i != "motive")
        if len(args) != len(layout):
            _bad_form(sx, head.text)
        fields = {} if sort is Ty else {"loc": loc}
        self.fields(head.text, cls, layout, args, fields)
        return cls(**fields)

    def fields(self, head: str, cls: type, layout, items, out: dict):
        """Read ``items`` by ``layout`` into ``out``, each group's shape
        checked before any field in it is read."""
        for item, sx in zip(layout, items):
            if item == "motive":
                if not (isinstance(sx, SList) and len(sx.items) == 2
                        and _is_colon(sx.items[0])):
                    _bad_form(sx, head)
                out[item] = self.comp_ty(sx.items[1])
            elif isinstance(item, tuple):
                if not (isinstance(sx, SList) and len(sx.items) == len(item)
                        and all(_is_colon(s) for i, s in zip(item, sx.items)
                                if i == ":")):
                    _bad_form(sx, head)
                self.fields(head, cls, item, sx.items, out)
            elif item != ":":
                out[item] = _KINDS[cls.__record_fields__[item].type][0](self, sx)

    def binder(self, sx) -> str:
        if (not isinstance(sx, SAtom) or sx.text in _RESERVED
                or _numeral(sx) is not None):
            _err(sx, "expected a variable name")
        return sx.text

    def cost_lit(self, sx):
        if not _is_cost_lit(sx):
            _err(sx, "expected a cost literal")
        if isinstance(sx, SAtom):
            return self.monoid.scale(_numeral(sx))
        if self.monoid is not WORK_SPAN:
            _err(sx, "pair cost literal requires the parallel cost monoid")
        return tuple(map(_numeral, sx.items))

    def cost_expr(self, sx) -> CostExpr:
        if _is_cost_lit(sx):
            return CostLit(self.cost_lit(sx))
        return NatCost(self.value(sx))

    def rational(self, sx) -> Fraction:
        if not isinstance(sx, SAtom):
            _err(sx, "expected a rational")
        try:
            p = Fraction(sx.text)  # it reads non-ASCII digits too
        except (ValueError, ZeroDivisionError):
            p = None
        if p is None or not sx.text.isascii():
            _err(sx, f"bad rational '{sx.text}'")
        if not 0 <= p <= 1:
            _err(sx, f"probability {p} outside [0, 1]")
        return p


_THEORIES = {t.kind: t for t in (PURE, NONDET, PROB)}


def _parse_headers(source: str):
    """The name, theory and monoid the ``#`` lines declare, and the source
    with those lines blank, so the program keeps its line numbers."""
    name, theory, monoid = "main", PURE, SEQ_NAT
    rest_lines = []
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.strip()
        if not line.startswith("#"):
            rest_lines.append(raw)
            continue
        rest_lines.append("")
        key, *spec = line.split(None, 1)
        spec = spec[0] if spec else ""
        key_col = raw.index(key)
        col = raw.index(spec, key_col + len(key)) if spec else key_col + len(key)
        if key == "#name":
            name = spec
        elif key == "#effect" and spec in _THEORIES:
            theory = _THEORIES[spec]
        elif key == "#effect" and spec.startswith("state:"):
            col += len("state:")
            ty_src = spec[len("state:"):]
            # read where it stands, so its errors carry their positions
            sxs = read_sexprs("\n" * (lineno - 1) + " " * col + ty_src)
            if len(sxs) != 1:
                raise SyntaxError_(f"bad state type '{ty_src}'", lineno, col)
            theory = state_theory(_Parser(SEQ_NAT).value_ty(sxs[0]))
        elif key == "#effect":
            raise SyntaxError_(f"unknown effect theory '{spec}'", lineno, col)
        elif key == "#cost" and spec in MONOIDS:
            monoid = MONOIDS[spec]
        elif key == "#cost":
            raise SyntaxError_(f"unknown cost monoid '{spec}'", lineno, col)
        else:
            raise SyntaxError_(f"unknown header '{key}'", lineno, key_col)
    return name, theory, monoid, "\n".join(rest_lines)


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
        # at the second form, or at the end of a source with none
        line, col = (sxs[1].line, sxs[1].col) if sxs else (
            source.count("\n") + 1, len(source) - source.rfind("\n") - 1
        )
        raise SyntaxError_("expected exactly one program form", line, col)
    top = sxs[0]
    p = _Parser(monoid)
    if (isinstance(top, SList) and len(top.items) == 3
            and _is_colon(top.items[0])):
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


def term_str(t, monoid: CostMonoid = SEQ_NAT) -> str:
    """Source text of a term or a type, which ``parse`` reads back."""
    cls = type(t)
    if cls is Var:
        return t.name
    if cls is Suc or cls is Zero:
        n = _nat_chain(t)
        if n is not None:
            return str(n)
    form = _HEADS.get(cls)
    if form is None:
        keyword = _KEYWORDS.get(t)
        if keyword is None:
            raise ValueError(f"cannot print {t!r}")
        return keyword
    if cls is ListTy and t.charge is not None:
        return f"(list {monoid.show(t.charge)} {term_str(t.elem, monoid)})"
    head, layout = form
    return f"({head} {_written(t, layout, monoid)})"


ty_str = term_str  # types print by the same table


def _written(t, layout, monoid: CostMonoid) -> str:
    """The fields of ``t`` as ``layout`` writes them."""
    parts = []
    for item in layout:
        if item == "motive":
            if t.motive is not None:
                parts.append(f"(: {term_str(t.motive, monoid)})")
        elif isinstance(item, tuple):
            parts.append(f"({_written(t, item, monoid)})")
        elif item == ":":
            parts.append(item)
        else:
            _, show = _KINDS[type(t).__record_fields__[item].type]
            parts.append(show(getattr(t, item), monoid))
    return " ".join(parts)


# How a field is read and printed, by its record annotation.
_KINDS = {
    "ValueTerm": (_Parser.value, term_str),
    "CompTerm": (_Parser.comp, term_str),
    "ValueTy": (_Parser.value_ty, term_str),
    "CompTy": (_Parser.comp_ty, term_str),
    "str": (_Parser.binder, lambda name, monoid: name),
    "CostExpr": (_Parser.cost_expr, cost_expr_str),
    "Fraction": (_Parser.rational, lambda p, monoid: _rat_str(p)),
}


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
