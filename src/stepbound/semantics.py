"""Denotational evaluator for closed, well-typed programs.

A closed computation of type ``F A`` denotes, per effect theory:

* pure      -- a single ``(cost, value)`` pair,
* nondet    -- a finite *set* of ``(cost, value)`` pairs (duplicates
               collapse, so the semilattice equations hold on the nose),
* prob      -- a finite map from ``(cost, value)`` to exact rational
               weight, held as int numerators over one reduced int
               denominator and merged after every operation (convex-space
               equations hold by representation),
* state     -- a function from initial state to ``(cost, state, value)``,
               tabulated over a configured finite state domain.

Cost is threaded writer-style through ``bind``; the step laws hold by
construction.  Computations of arrow type denote Python callables and the
effect operations act on them pointwise.  In extensional mode every
charge is the monoid zero, collapsing cost while leaving behavior alone.

Runtime values are plain tagged tuples::

    ('unit',)  ('bool', b)  ('nat', n)  ('pair', a, b)  ('inl', v)
    ('inr', v)  ('list', (v0, v1, ...))  ('thunk', env_items, term)
    ('den', comp_ty, denotation)

The last two are suspensions: a source-level thunk with its captured
environment, and an already-evaluated denotation (produced by the
recursors for their induction hypotheses).

An ``Evaluator`` does not walk the syntax as it runs: it compiles each
elaborated term once into Python closures, one compile function per form,
and runs those.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod

from .records import field, record
from .syntax import (
    Ap, ArrowTy, Bind, BoolLit, BoolTy, Branch, CompTerm, CompTy, Cons,
    CostLit, EffectTheory, FTy, Fail, Flip, Fst, Get, If, Inl, Inr, Lam,
    ListRec, ListTy, NatCost, NatRec, NatTy, Nil, Pair, Par, ProdTy, Program,
    Put, Ret, Snd, Step, Suc, SumCase, SumTy, Triv, UnitTy, ValueTy, Var,
    Zero, free_vars, scopes, subterms, term_str, unfold_arrows,
)
from .typecheck import elaborate


class EvalError(Exception):
    pass


class EvalMode(Enum):
    COST_COUNTING = "cost"
    EXTENSIONAL = "ext"


@record
class DomainConfig:
    """Finite enumeration bounds for inputs, list elements and states."""

    nat_max: int = 16          # top-level nats range over 0..nat_max
    list_len: int = 5          # lists up to this length
    elems: int = 5             # list/state elements range over 0..elems-1
    state_max: int = 8         # nat-typed states range over 0..state_max
    input_cap: int = 20000     # refuse to enumerate larger input spaces
    hyp_candidates: int = 500  # generated candidates for hypothesis specs
    hyp_min_admitted: int = 50
    hyp_depth: int = 4

    def __post_init__(self):
        for name, least in (("nat_max", 0), ("list_len", 0), ("state_max", 0),
                            ("elems", 1), ("input_cap", 1),
                            ("hyp_candidates", 1), ("hyp_min_admitted", 1),
                            ("hyp_depth", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")

    def to_json(self):
        return {
            "nat_max": self.nat_max,
            "list_len": self.list_len,
            "elems": self.elems,
            "state_max": self.state_max,
        }


DEFAULT_CONFIG = DomainConfig()


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

RUNIT = ("unit",)
RTRUE = ("bool", True)
RFALSE = ("bool", False)


def val_sort_key(v):
    tag = v[0]
    match tag:
        case "unit":
            return ("unit",)
        case "bool":
            return ("bool", v[1])
        case "nat":
            return ("nat", v[1])
        case "pair":
            return ("pair", val_sort_key(v[1]), val_sort_key(v[2]))
        case "inl":
            return ("sum", 0, val_sort_key(v[1]))
        case "inr":
            return ("sum", 1, val_sort_key(v[1]))
        case "list":
            return ("list", len(v[1]), tuple(val_sort_key(x) for x in v[1]))
        case _:
            return ("zz", repr(v))


def cost_sort_key(c):
    return c if isinstance(c, tuple) else (c,)


def pair_sort_key(cv):
    return (cost_sort_key(cv[0]), val_sort_key(cv[1]))


def val_str(v) -> str:
    match v[0]:
        case "unit":
            return "tt"
        case "bool":
            return "true" if v[1] else "false"
        case "nat":
            return str(v[1])
        case "pair":
            return f"({val_str(v[1])}, {val_str(v[2])})"
        case "inl":
            return f"inl {val_str(v[1])}"
        case "inr":
            return f"inr {val_str(v[1])}"
        case "list":
            return "[" + " ".join(val_str(x) for x in v[1]) + "]"
        case "thunk":
            return f"<thunk {term_str(v[2])}>"
        case "den":
            return "<suspended>"
        case _:
            return repr(v)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@record
class Outcome:
    """What a closed computation returns, with what it was evaluated
    under: the effect theory, cost monoid and mode, and the domain
    ``cfg``.  Suspensions inside the values are forced under all four,
    so an outcome can be compared on its own; ``cfg`` takes no part in
    equality or hashing."""

    theory: EffectTheory
    monoid: object
    mode: object  # EvalMode
    cfg: DomainConfig = field(default=DEFAULT_CONFIG, compare=False,
                              repr=False, kw_only=True)


@record
class PureOutcome(Outcome):
    cost: object
    value: object

    def __str__(self):
        return f"step^{self.monoid.show(self.cost)} ret {val_str(self.value)}"

    def max_cost(self):
        return self.cost

    def min_cost(self):
        return self.cost


@record
class NondetOutcome(Outcome):
    branches: frozenset  # of (cost, value)

    def __str__(self):
        items = sorted(self.branches, key=pair_sort_key)
        body = ", ".join(
            f"({self.monoid.show(c)}, {val_str(v)})" for c, v in items
        )
        return "{" + body + "}"

    def max_cost(self):
        return extreme_cost((c for c, _ in self.branches), max)

    def min_cost(self):
        return extreme_cost((c for c, _ in self.branches), min)


class Dist:
    """Immutable finite map from (cost, value) to positive rational weight.

    Weights are kept as positive int numerators ``nums`` over one int
    denominator ``den``, in lowest terms: the numerators and ``den`` have
    gcd 1, so equal distributions have equal representations, and
    equality and hashing compare integers.  ``Dist(mapping)`` takes exact
    weights (``Fraction`` or ``int``) and drops zero ones; ``items`` and
    iteration list ``(key, Fraction)`` pairs sorted by ``pair_sort_key``,
    an order computed on first use and kept, since only printing,
    witnesses and reference code read it.  ``nums`` and ``den`` are
    read-only.
    """

    __slots__ = ("nums", "den", "_items", "_hash")

    def __init__(self, mapping):
        ratios = []
        for k, w in mapping.items():
            if not isinstance(w, (int, Fraction)):
                raise TypeError(f"Dist weight {w!r} is not an int or Fraction")
            n, d = w.as_integer_ratio()
            if n < 0:
                raise ValueError(f"Dist weight {w} is negative")
            if n:
                ratios.append((k, n, d))
        # lowest terms already: each prime power of the lcm divides some
        # weight's denominator, and that weight's scaled numerator is
        # prime to it
        den = lcm(*(d for _, _, d in ratios))
        self.nums = {k: n * (den // d) for k, n, d in ratios}
        self.den, self._items, self._hash = den, None, None

    @classmethod
    def _of(cls, nums: dict, den: int) -> "Dist":
        """The distribution giving each ``key: n`` of ``nums`` (positive
        ints) weight ``n / den``, brought to lowest terms."""
        g = gcd(den, *nums.values())
        if g > 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        return cls._reduced(nums, den)

    @classmethod
    def _reduced(cls, nums: dict, den: int) -> "Dist":
        """``_of(nums, den)`` for numerators already in lowest terms."""
        d = cls.__new__(cls)
        d.nums, d.den, d._items, d._hash = nums, den, None, None
        return d

    @property
    def items(self) -> tuple:
        if self._items is None:
            den = self.den
            self._items = tuple(
                (k, Fraction(n, den)) for k, n in
                sorted(self.nums.items(), key=lambda kn: pair_sort_key(kn[0]))
            )
        return self._items

    def __eq__(self, other):
        return (isinstance(other, Dist) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.nums.items())))
        return self._hash

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.nums)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def has_unit_mass(self) -> bool:
        return sum(self.nums.values()) == self.den


@record
class ProbOutcome(Outcome):
    dist: Dist

    def __str__(self):
        body = ", ".join(
            f"({self.monoid.show(c)}, {val_str(v)}) -> {w}"
            for (c, v), w in self.dist
        )
        return "{" + body + "}"

    def max_cost(self):
        return extreme_cost((c for c, _ in self.dist.nums), max)

    def min_cost(self):
        return extreme_cost((c for c, _ in self.dist.nums), min)


@record
class StateOutcome(Outcome):
    table: tuple       # sorted ((s0, (cost, s1, value)), ...)
    escaped: frozenset  # initial states whose run left the domain

    def __str__(self):
        body = "; ".join(
            f"{val_str(s0)} -> ({self.monoid.show(c)}, {val_str(s1)}, {val_str(v)})"
            for s0, (c, s1, v) in self.table
        )
        esc = ""
        if self.escaped:
            esc = " escaped:{" + ", ".join(
                sorted(val_str(s) for s in self.escaped)
            ) + "}"
        return "{" + body + "}" + esc

    def max_cost(self):
        return extreme_cost((c for _, (c, _, _) in self.table), max)

    def min_cost(self):
        return extreme_cost((c for _, (c, _, _) in self.table), min)


def extreme_cost(costs, pick):
    """The join (``pick`` is ``max``) or the meet (``min``) of ``costs``
    in the cost order, or None if there are none.  The order on
    work/span pairs is componentwise, so their join and meet are taken
    componentwise and need not be among ``costs``."""
    costs = list(costs)
    if not costs:
        return None
    if isinstance(costs[0], tuple):
        return tuple(map(pick, zip(*costs)))
    return pick(costs)


# ---------------------------------------------------------------------------
# Theory operations at F type
# ---------------------------------------------------------------------------


class _PureOps:
    """F-level monadic operations; ``_lift`` carries them to arrow types,
    so ``bind`` continuations here always return F-level denotations.

    The pure theory needs no ``bind``: its denotations are the
    ``(cost, value)`` pairs, so every scrutinee is effect-free (see
    ``_effect_free``) and ``_c_bind`` charges its cost itself.

    ``values`` is the evaluator's value table, a dict holding one stored
    copy of each value it keeps (hash-consing): the pure ``unit`` and
    ``charge``, and ``_v_cons`` in every theory, return the stored copy of
    what they build, so equal pairs and lists in many table entries are
    one object."""

    kind = "pure"

    def __init__(self, monoid):
        self.monoid = monoid
        self.zero = monoid.zero  # a property of the monoid, read once
        self.values: dict = {}  # value -> the one stored copy of it

    def unit(self, v):
        d = (self.zero, v)
        return self.values.setdefault(d, d)

    def charge(self, c, m):
        d = (self.monoid.add(c, m[0]), m[1])
        return self.values.setdefault(d, d)

    def par(self, m0, m1):
        return (self.monoid.par(m0[0], m1[0]), ("pair", m0[1], m1[1]))

    # defensive: the checker precludes these outside their theory
    def _outside(self, op):
        raise EvalError(f"effect operation '{op}' outside the "
                        f"'{self.kind}' theory")

    def branch(self, m0, m1):
        self._outside("branch")

    def fail(self):
        self._outside("fail")

    def flip(self, p, m0, m1):
        self._outside("flip")

    def get(self, k):
        self._outside("get")

    def put(self, v, m):
        self._outside("set")


class _NondetOps(_PureOps):
    kind = "nondet"

    def unit(self, v):
        return frozenset(((self.zero, v),))

    def charge(self, c, m):
        add = self.monoid.add
        return frozenset((add(c, c0), v) for c0, v in m)

    def bind(self, m, k):
        acc = set()
        for c0, v in m:
            acc.update(self.charge(c0, k(v)))
        return frozenset(acc)

    def branch(self, m0, m1):
        return m0 | m1

    def fail(self):
        return frozenset()


class _ProbOps(_PureOps):
    """Distributions in integers: each operation scales numerators to a
    common denominator and reduces once, at the end.

    ``bind_fused`` takes a continuation as weighted pairs (see
    ``_prob_spread``) and adds them into one accumulator for all keys of
    ``m``, reducing once, so no key builds a ``Dist``; when every key
    gives one pair and no two merged it moves ``m``'s numerators as they
    are."""

    kind = "prob"

    def unit(self, v):
        return Dist._reduced({(self.zero, v): 1}, 1)

    def charge(self, c, m):
        # adding a cost is injective (see ``CostMonoid.add``), so no two
        # keys merge and m's numerators stay in lowest terms
        add = self.monoid.add
        return Dist._reduced(
            {(add(c, c0), v): n for (c0, v), n in m.nums.items()}, m.den
        )

    def bind(self, m, k):
        if len(m.nums) == 1:
            ((c0, v), n), = m.nums.items()
            if n == m.den:
                # a point mass: the continuation's weights stand as they are
                d = k(v)
                return d if c0 == self.zero else self.charge(c0, d)
        add = self.monoid.add
        conts = [(c0, n, k(v)) for (c0, v), n in m.nums.items()]
        # weight n / m.den times n1 / d.den, over m.den * den
        den = lcm(*(d.den for _, _, d in conts))
        acc: dict = {}
        for c0, n, d in conts:
            scale = n * (den // d.den)
            for (c1, v1), n1 in d.nums.items():
                key = (add(c0, c1), v1)
                acc[key] = acc.get(key, 0) + scale * n1
        return Dist._of(acc, m.den * den)

    def bind_fused(self, m, den, feed):
        """``bind(m, k)`` for a continuation ``k`` given as weighted pairs
        (see ``_prob_spread``): ``feed(acc, c0, n, v)`` adds each pair
        ``(c1, v1)`` of ``k(v)``, of weight ``w / den``, to ``acc`` as
        ``(c0 + c1, v1): n * w``.  One accumulator serves every key of
        ``m``, reduced once, over ``m.den * den``."""
        acc: dict = {}
        for (c0, v), n in m.nums.items():
            feed(acc, c0, n, v)
        if den == 1 and len(acc) == len(m.nums):
            # one pair per key, none merged: m's numerators, in lowest
            # terms, on new keys
            return Dist._reduced(acc, m.den)
        return Dist._of(acc, m.den * den)

    def flip(self, p: Fraction, m0, m1):
        if p == 0:
            return m0
        if p == 1:
            return m1
        # weight (1 - p) * n0 / m0.den and p * n1 / m1.den, over b * den
        a, b = p.numerator, p.denominator
        den = lcm(m0.den, m1.den)
        s0, s1 = (b - a) * (den // m0.den), a * (den // m1.den)
        acc = {key: s0 * n for key, n in m0.nums.items()}
        for key, n in m1.nums.items():
            acc[key] = acc.get(key, 0) + s1 * n
        return Dist._of(acc, b * den)


class _StateOps(_PureOps):
    kind = "state"

    # denotations are s -> (cost, s', value)

    def unit(self, v):
        zero = self.zero
        return lambda s: (zero, s, v)

    def charge(self, c, m):
        add = self.monoid.add

        def run(s):
            c0, s1, v = m(s)
            return (add(c, c0), s1, v)

        return run

    def bind(self, m, k):
        add = self.monoid.add

        def run(s):
            c0, s1, v1 = m(s)
            c2, s2, v2 = k(v1)(s1)
            return (add(c0, c2), s2, v2)

        return run

    def get(self, k):
        return lambda s: k(s)(s)

    def put(self, v, m):
        return lambda s: m(v)


_OPS = {
    "pure": _PureOps,
    "nondet": _NondetOps,
    "prob": _ProbOps,
    "state": _StateOps,
}


def _lift(op, ty, plain=0, cont=False):
    """The theory operation ``op`` for denotations of type ``ty``.

    At F type that is ``op`` itself.  A computation of type ``A -> X``
    denotes a function of ``a``, and an operation acts on it pointwise,
    ``op(e...)(a) = op(e(a)...)``: the lifting returns a function of
    ``a`` that applies ``op`` lifted to ``X`` to its operands taken at
    ``a``.  The first ``plain`` operands (a cost, a probability, a state
    value, a bind's scrutinee) pass as they are.  Each other operand is a
    denotation ``d``, taken as ``d(a)``, or, if ``cont``, the one
    continuation ``k`` of a ``bind`` or ``get``, taken as
    ``v -> k(v)(a)``."""
    if not isinstance(ty, ArrowTy):
        return op
    inner = _lift(op, ty.cod, plain, cont)

    def lifted(*operands):
        lead, rest = operands[:plain], operands[plain:]
        if cont:
            (k,) = rest
            return lambda a: inner(*lead, lambda v: k(v)(a))
        return lambda a: inner(*lead, *(d(a) for d in rest))

    return lifted


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class Evaluator:
    """Evaluates closed, elaborated computations of one effect theory and
    cost monoid, under a mode and a domain config.

    Those four are all evaluation depends on, so one evaluator serves a
    whole relation check: a program and its bound, which share a type,
    theory and monoid, are two bodies passed to ``outcome``.  Source
    programs are elaborated by the caller; generated terms are born
    elaborated.

    Terms are compiled once per evaluator into Python closures
    ``run(env)`` (Feeley and Lapalme's closure generation).  A compile
    function per form settles everything that depends only on the node:
    the names of the variables it captures, the theory operation it
    calls, lifted to the node's type by ``_lift``, and whether a charge
    is zero or the mode extensional.  The closure does only the run-time
    work.  It also settles whether a sub-term is an effect-free computation, a
    ``ret v`` under literal steps (in the pure theory, any computation
    at F type), which then compiles to a ``(cost, value)`` pair never
    wrapped in the theory's denotation.  Two places take the pair as it
    is: a ``bind`` with an effect-free scrutinee, the pure theory's only
    bind, charges its cost to the continuation's denotation; and a prob
    ``bind`` at F type fuses its continuation into one accumulator
    (``ops.bind_fused``, see ``_prob_spread``) when that is effect-free,
    a ``flip`` of two effect-free arms, or a ``bind(e, y. Q)`` with
    ``Q`` effect-free and ``e`` not naming the outer variable, whose
    ``e`` is then evaluated once per run, not once per key of the
    scrutinee, so it makes fewer table hits.  Every other node runs its
    own closure.  Each computation node compiles once
    per evaluator, on first use, and its closure is kept in ``_compiled``
    by the node's identity: a node reached again, as a forced thunk body
    or as part of another body evaluated here, runs the closures compiled
    for it.  So the two sides of a law instance, evaluated by one
    evaluator, compile the nodes they share once.

    Evaluation is tabled (Michie's memo functions).  Each λ or recursor
    node has a table of its own, made when the node compiles, held by its
    closure and registered in ``_tables`` by the node's id.  It maps
    ``captured`` to a group ``{argument: denotation}``, where ``captured``
    holds the environment's values at the names of the variables the node
    captures, which its compile function computed once:

    * for a λ node, the argument is the value it is applied to;
    * for a recursor node, the argument is the scrutinee (a nat, or the
      items of a list), and ``captured`` covers the free variables of its
      branches.  A recursor resumes from the largest tabled prefix (nat)
      or suffix (list) of its scrutinee in its group.  One whose step
      branch ignores its IH is a case instead: it runs that branch once,
      at the predecessor or at the head and tail, and has no table.

    Evaluation is pure, so a hit is the denotation a fresh evaluation
    would build, and inputs of a tabulated domain share their common
    sub-calls.  Every id in ``_tables`` names a node of a term that
    ``_compiled`` or ``_bodies`` holds (an ``Ap`` of a λ registers only
    the ``Ap``, and the λ's table), so no id there can be reused while
    the evaluator lives.  A hypothesis check ``forget``s a candidate once
    it is decided, since no later candidate can hit its entries: the
    tables and closures of the candidate's nodes go, and so do the groups
    and entries elsewhere that hold its thunk.  The generator builds
    fresh nodes for every candidate, so no other term holds a node whose
    closure goes.  ``table_entries`` counts every entry as it is made.

    The values the tables hold are hash-consed: ``ops.values``, the
    evaluator's value table, keeps one copy of each list and pure
    ``(cost, value)`` denotation built (see ``_PureOps``), so inputs that
    reach one result share one object.  ``close`` and ``forget`` clear
    it, so what a check holds between candidates stays bounded and no
    stored value holds a forgotten candidate's thunk.

    The closures and the denotations in the tables refer to the
    evaluator and to the tables, so they form reference cycles, which
    reference counting never frees.  The owner of an evaluator therefore
    ``close``s it once its check is decided, and uses neither it nor a
    denotation it built afterwards: the terms whose ids key ``_tables``
    are no longer held.
    """

    def __init__(self, theory: EffectTheory, monoid, mode: EvalMode,
                 cfg: DomainConfig):
        self.theory = theory
        self.monoid = monoid
        self.mode = mode
        self.cfg = cfg
        self.ops = _OPS[theory.kind](monoid)
        self.ext = mode is EvalMode.EXTENSIONAL
        self._tables: dict = {}  # id(node) -> {captured: {argument: den}}
        self._compiled: dict = {}  # id(node) -> (node, closure)
        self._bodies: dict = {}  # id(body) -> (body, denotation, arity)
        self._states = None  # (state domain, its set), on first use
        self.table_entries = 0  # entries made, forgotten ones included
        self.table_hits = 0

    def applied_at(self, lam) -> list:
        """The arguments the λ node ``lam`` has live entries at."""
        return [a for group in self._tables.get(id(lam), {}).values()
                for a in group]

    def forget(self, cand) -> None:
        """Drop the entries that belong to the closed computation
        ``cand``: the tables and closures of ``cand``'s nodes, and in
        every other table the groups whose captured values hold
        ``cand``'s thunk and the entries whose argument is that thunk.
        ``cand`` must share no node with a term evaluated later.  Only
        computation nodes compile or have tables, and no value term holds
        one, so the walk skips values."""
        todo = [cand]
        while todo:
            t = todo.pop()
            self._compiled.pop(id(t), None)
            self._tables.pop(id(t), None)
            todo += [sub for sub in subterms(t) if isinstance(sub, CompTerm)]
        lead = ("thunk", (), cand)
        for table in self._tables.values():
            for captured in [c for c in table if lead in c]:
                del table[captured]
            for group in table.values():
                if lead in group:
                    del group[lead]
        self.ops.values.clear()

    def close(self) -> None:
        """Drop the tables, the closures, the terms kept for their ids
        and the value table, breaking the cycles through the evaluator,
        once the owner's check is decided.  Each table is cleared first,
        since the closure holding it may be held by a denotation in it.  ``table_entries``
        still counts every entry made.  Closing twice is harmless; using
        the evaluator after is not."""
        for table in self._tables.values():
            table.clear()
        for kept in (self._tables, self._compiled, self._bodies,
                     self.ops.values):
            kept.clear()

    def _table(self, node) -> dict:
        """The table of the λ or recursor ``node``, made on first use."""
        return self._tables.setdefault(id(node), {})

    # -- compilation ------------------------------------------------------------

    def _comp(self, t):
        """The closure evaluating computation ``t`` in an environment,
        compiled on the node's first visit and kept in ``_compiled``."""
        hit = self._compiled.get(id(t))
        if hit is None:
            compile_form = _COMP_FORMS.get(type(t))
            if compile_form is None:
                raise EvalError(f"cannot evaluate computation {t!r}")
            hit = self._compiled[id(t)] = (t, compile_form(self, t))
        return hit[1]

    def _value(self, t):
        """The closure evaluating value ``t`` in an environment."""
        compile_form = _VALUE_FORMS.get(type(t))
        if compile_form is None:
            raise EvalError(f"cannot evaluate value {t!r}")
        return compile_form(self, t)

    # -- entry points -----------------------------------------------------------

    def eval_comp(self, t: CompTerm, env: dict):
        return self._comp(t)(env)

    def force(self, v):
        match v[0]:
            case "thunk":
                return self.eval_comp(v[2], dict(v[1]))
            case "den":
                return v[2]
        raise EvalError(f"forcing a non-thunk value {val_str(v)}")

    # -- outcomes ---------------------------------------------------------------

    def outcome_of_den(self, den) -> Outcome:
        head, cfg = (self.theory, self.monoid, self.mode), self.cfg
        kind = self.theory.kind
        if kind == "pure":
            return PureOutcome(*head, den[0], den[1], cfg=cfg)
        if kind == "nondet":
            return NondetOutcome(*head, den, cfg=cfg)
        if kind == "prob":
            if not den.has_unit_mass():
                raise EvalError(f"probability mass {den.total()} is not 1")
            return ProbOutcome(*head, den, cfg=cfg)
        if self._states is None:
            domain = state_domain(self.theory.state_ty, self.cfg)
            self._states = (domain, set(domain))
        domain, domain_set = self._states
        table = []
        escaped = []
        for s0 in domain:
            try:
                c, s1, v = den(s0)
            except RecursionError:
                # each charge and bind of a run nests one closure call
                raise EvalError(
                    f"the run from state {val_str(s0)} nests deeper than "
                    "Python's recursion limit; use a smaller state domain"
                ) from None
            if s1 in domain_set:
                table.append((s0, (c, s1, v)))
            else:
                # the run left the configured domain: drop the entry but
                # record it, so comparisons stay honest about coverage
                escaped.append(s0)
        if domain and not table:
            raise EvalError(
                "state escape: every run left the configured state domain"
            )
        # the state domain is listed in ``val_sort_key`` order, so the
        # table is sorted by initial state as built
        return StateOutcome(*head, tuple(table), frozenset(escaped), cfg=cfg)

    def outcome(self, body: CompTerm, args: tuple = ()) -> Outcome:
        """Outcome of the closed, elaborated computation ``body`` applied
        to ``args`` (runtime values).  The body's denotation and arity
        are computed on its first call and kept."""
        hit = self._bodies.get(id(body))
        if hit is None:
            arity = len(unfold_arrows(body.ty)[0])
            hit = self._bodies[id(body)] = (
                body, self.eval_comp(body, {}), arity
            )
        _, den, arity = hit
        if len(args) != arity:
            raise EvalError(
                f"program expects {arity} arguments, got {len(args)}"
            )
        for a in args:
            den = den(a)
        return self.outcome_of_den(den)


# ---------------------------------------------------------------------------
# The compiler: one function per form, from (evaluator, node) to run(env)
# ---------------------------------------------------------------------------


def _capture_names(node) -> tuple:
    """Sorted names of the variables a tabled node captures: the free
    variables of a λ or thunk, or of the branches of a recursor."""
    if isinstance(node, (NatRec, ListRec)):
        fv = frozenset().union(*(
            free_vars(sub).difference(names)
            for field, sub, names in scopes(node) if field != "scrut"
        ))
    else:
        fv = free_vars(node)
    return tuple(sorted(fv))


def _capture(names, env) -> tuple:
    """The environment's values at ``names``."""
    try:
        return tuple([env[n] for n in names])
    except KeyError as e:
        raise EvalError(f"unbound variable '{e.args[0]}' at run time")


def _extend(env, name, v) -> dict:
    e2 = dict(env)
    e2[name] = v
    return e2


# -- values -------------------------------------------------------------------


def _constant(v):
    return lambda env: v


def _v_var(ev, t):
    name = t.name

    def run(env):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable '{name}' at run time")

    return run


def _v_suc(ev, t):
    # a chain of n sucs is one addition, or a constant over zero
    n, base = 1, t.arg
    while type(base) is Suc:
        n, base = n + 1, base.arg
    if type(base) is Zero:
        return _constant(("nat", n))
    arg = ev._value(base)
    return lambda env: ("nat", arg(env)[1] + n)


def _v_cons(ev, t):
    head, tail = ev._value(t.head), ev._value(t.tail)
    values = ev.ops.values

    def run(env):
        v = ("list", (head(env),) + tail(env)[1])
        return values.setdefault(v, v)

    return run


def _v_pair(ev, t):
    fst, snd = ev._value(t.fst), ev._value(t.snd)
    return lambda env: ("pair", fst(env), snd(env))


def _v_fst(ev, t):
    pair = ev._value(t.pair)
    return lambda env: pair(env)[1]


def _v_snd(ev, t):
    pair = ev._value(t.pair)
    return lambda env: pair(env)[2]


def _v_inl(ev, t):
    arg = ev._value(t.arg)
    return lambda env: ("inl", arg(env))


def _v_inr(ev, t):
    arg = ev._value(t.arg)
    return lambda env: ("inr", arg(env))


def _v_thunk(ev, t):
    # a computation in value position is a suspension; its body compiles
    # when it is forced
    names = _capture_names(t)
    return lambda env: ("thunk", tuple(zip(names, _capture(names, env))), t)


# -- computations ---------------------------------------------------------------


def _effect_free(ev, t):
    """The pair form of computation ``t``, which is at F type, if ``t`` is
    effect-free; else None.

    An effect-free computation is a ``ret v`` under zero or more
    ``step``s of literal cost; in the pure theory every computation at F
    type is one, its denotation being the pair.  The pair form is a
    closure ``env -> (cost, value)`` that builds no denotation of the
    theory: ``_c_bind`` and ``_prob_spread`` take it as it is.  In
    extensional mode the steps vanish."""
    if ev.theory.kind == "pure":
        return ev._comp(t)
    cost, add = ev.ops.zero, ev.monoid.add
    while type(t) is Step and type(t.cost) is CostLit:
        if not ev.ext:
            cost = add(cost, t.cost.value)
        t = t.body
    if type(t) is not Ret:
        return None
    value = ev._value(t.value)
    return lambda env: (cost, value(env))


def _c_ret(ev, t):
    value, unit = ev._value(t.value), ev.ops.unit
    return lambda env: unit(value(env))


def _c_bind(ev, t):
    x = t.var
    pair = _effect_free(ev, t.comp)
    if pair is not None:
        # an effect-free scrutinee charges its cost to the continuation's
        # denotation
        body, zero = ev._comp(t.body), ev.ops.zero
        charge = _lift(ev.ops.charge, t.ty, plain=1)

        def run(env):
            c0, v = pair(env)
            e2 = dict(env)
            e2[x] = v
            d = body(e2)
            return d if c0 == zero else charge(c0, d)

        return run
    comp = ev._comp(t.comp)
    if ev.theory.kind == "prob" and not isinstance(t.ty, ArrowTy):
        spread = _prob_spread(ev, t.body, x)
        if spread is not None:
            bind_fused = ev.ops.bind_fused
            return lambda env: bind_fused(comp(env), *spread(env))
    body = ev._comp(t.body)
    bind = _lift(ev.ops.bind, t.ty, plain=1, cont=True)

    def run(env):
        return bind(comp(env), lambda v: body(_extend(env, x, v)))

    return run


def _prob_spread(ev, k, x):
    """The continuation ``k`` of a prob ``bind`` of ``x``, at F type, as
    weighted pairs, if it has one of three shapes; else None.

    The result is ``spread(env) -> (den, feed)``, for ``bind_fused``:
    ``feed(acc, c0, n, v)`` adds each pair of ``k`` at ``x = v`` into
    ``acc``, so no key of the scrutinee builds a ``Dist``.  The shapes:

    * ``k`` effect-free: its pair, of weight 1 over 1;
    * ``flip(a/b, A, B)`` with effect-free arms: ``A``'s pair of weight
      ``b - a`` and ``B``'s of weight ``a``, over ``b``;
    * ``bind(e, y. Q)`` with ``Q`` effect-free and ``x`` not free in
      ``e``: ``e`` is evaluated once per run, not once per value of
      ``x``, and each key ``(c1, y1)`` of it, of numerator ``n1``, gives
      ``Q``'s pair at ``y = y1``, charged ``c1``, of weight ``n1`` over
      ``e``'s denominator.

    Each pair is computed in one copy of the environment: a pair holds
    no reference to the environment it was computed in, so one copy
    serves every key of the scrutinee.  Nondet and state binds are not
    fused this way: in state, evaluating ``e`` once would reorder its
    effects."""
    add = ev.monoid.add
    if type(k) is Bind:
        q = _effect_free(ev, k.body)
        if q is None or x in free_vars(k.comp):
            return None
        e, y = ev._comp(k.comp), k.var

        def hoisted(env):
            d, e2 = e(env), dict(env)
            items = d.nums.items()

            def feed(acc, c0, n, v):
                e2[x] = v
                for (c1, y1), n1 in items:
                    e2[y] = y1
                    c2, v2 = q(e2)
                    key = (add(add(c0, c1), c2), v2)
                    acc[key] = acc.get(key, 0) + n * n1

            return d.den, feed

        return hoisted
    if type(k) is Flip:
        pairs = _effect_free(ev, k.left), _effect_free(ev, k.right)
        if None in pairs:
            return None
        a, den = k.prob.numerator, k.prob.denominator
        arms = tuple((w, p) for w, p in zip((den - a, a), pairs) if w)
    else:
        pair = _effect_free(ev, k)
        if pair is None:
            return None
        arms, den = ((1, pair),), 1

    def spread(env):
        e2 = dict(env)

        def feed(acc, c0, n, v):
            e2[x] = v
            for w, p in arms:
                c1, v1 = p(e2)
                key = (add(c0, c1), v1)
                acc[key] = acc.get(key, 0) + n * w

        return den, feed

    return spread


def _lam_call(ev, t, names):
    """``call(env, captured, a)``: the λ node ``t``, closed over
    ``captured`` (its values at ``names`` in ``env``), applied to ``a``."""
    body, x, table = ev._comp(t.body), t.var, ev._table(t)

    def call(env, captured, a):
        group = table.get(captured)
        if group is None:
            group = table[captured] = {}
        else:
            d = group.get(a)
            if d is not None:
                ev.table_hits += 1
                return d
        if names:
            e2 = dict(env)
            e2[x] = a
        else:
            e2 = {x: a}
        d = group[a] = body(e2)
        ev.table_entries += 1
        return d

    return call


def _c_lam(ev, t):
    names = _capture_names(t)
    call = _lam_call(ev, t, names)

    def run(env):
        captured = _capture(names, env)
        return lambda a: call(env, captured, a)

    return run


def _c_ap(ev, t):
    arg = ev._value(t.arg)
    if type(t.fn) is Lam:
        # a λ applied where it stands builds no function value
        names = _capture_names(t.fn)
        call = _lam_call(ev, t.fn, names)
        if names:
            return lambda env: call(env, _capture(names, env), arg(env))
        return lambda env: call(env, (), arg(env))
    fn = ev._comp(t.fn)
    return lambda env: fn(env)(arg(env))


def _c_force(ev, t):
    var, force = _v_var(ev, t), ev.force
    return lambda env: force(var(env))


def _c_step(ev, t):
    body = ev._comp(t.body)
    if ev.ext:
        return body
    charge = _lift(ev.ops.charge, t.ty, plain=1)
    match t.cost:
        case CostLit(c):
            if c == ev.ops.zero:
                return body
            return lambda env: charge(c, body(env))
        case NatCost(term):
            n, scale, zero = ev._value(term), ev.monoid.scale, ev.ops.zero

            def run(env):
                c = scale(n(env)[1])
                d = body(env)
                return d if c == zero else charge(c, d)

            return run
    raise EvalError(f"bad cost expression {t.cost!r}")


def _c_if(ev, t):
    cond = ev._value(t.cond)
    then, else_ = ev._comp(t.then_branch), ev._comp(t.else_branch)
    return lambda env: (then if cond(env)[1] else else_)(env)


def _c_case(ev, t):
    scrut = ev._value(t.scrut)
    xl, left = t.var_left, ev._comp(t.left_branch)
    xr, right = t.var_right, ev._comp(t.right_branch)

    def run(env):
        sv = scrut(env)
        if sv[0] == "inl":
            return left(_extend(env, xl, sv[1]))
        return right(_extend(env, xr, sv[1]))

    return run


def _c_natrec(ev, t):
    scrut, zero, succ = (
        ev._value(t.scrut), ev._comp(t.zero_branch), ev._comp(t.suc_branch)
    )
    kvar, ihvar, ty = t.var_pred, t.var_ih, t.ty
    names = _capture_names(t)
    if ihvar not in free_vars(t.suc_branch):
        # a step branch that ignores its IH is a case: no fold, no table
        def case(env):
            nv = scrut(env)[1]
            _capture(names, env)  # an ill-scoped branch fails even unrun
            if nv == 0:
                return zero(env)
            return succ(_extend(env, kvar, ("nat", nv - 1)))

        return case
    table = ev._table(t)

    def run(env):
        nv = scrut(env)[1]
        captured = _capture(names, env)
        group = table.get(captured)
        if group is None:
            group = table[captured] = {}
        for start in range(nv, -1, -1):
            d = group.get(start)
            if d is not None:
                ev.table_hits += 1
                break
        else:
            start, d = 0, zero(env)
            group[0] = d
            ev.table_entries += 1
        for i in range(start, nv):
            e2 = dict(env)
            e2[kvar] = ("nat", i)
            e2[ihvar] = ("den", ty, d)
            d = group[i + 1] = succ(e2)
            ev.table_entries += 1
        return d

    return run


def _c_listrec(ev, t):
    scrut, nil, cons = (
        ev._value(t.scrut), ev._comp(t.nil_branch), ev._comp(t.cons_branch)
    )
    xvar, xsvar, ihvar, ty = t.var_head, t.var_tail, t.var_ih, t.ty
    names = _capture_names(t)
    c = t.list_charge
    charge = None
    if not (c is None or ev.ext or c == ev.ops.zero):
        charge = _lift(ev.ops.charge, ty, plain=1)
    if ihvar not in free_vars(t.cons_branch):
        # a cons branch that ignores its IH is a case: no fold, no table
        def case(env):
            items = scrut(env)[1]
            _capture(names, env)  # an ill-scoped branch fails even unrun
            if not items:
                return nil(env)
            d = cons({**env, xvar: items[0], xsvar: ("list", items[1:])})
            return d if charge is None else charge(c, d)

        return case
    table = ev._table(t)

    def run(env):
        items = scrut(env)[1]
        captured = _capture(names, env)
        group = table.get(captured)
        if group is None:
            group = table[captured] = {}
        # fold from the tail, resuming from the longest tabled suffix
        for start in range(len(items) + 1):
            d = group.get(items[start:])
            if d is not None:
                ev.table_hits += 1
                break
        else:
            start, d = len(items), nil(env)
            group[()] = d
            ev.table_entries += 1
        for i in range(start - 1, -1, -1):
            e2 = dict(env)
            e2[xvar] = items[i]
            e2[xsvar] = ("list", items[i + 1:])
            e2[ihvar] = ("den", ty, d)
            d = cons(e2)
            if charge is not None:
                d = charge(c, d)
            group[items[i:]] = d
            ev.table_entries += 1
        return d

    return run


def _c_branch(ev, t):
    left, right = ev._comp(t.left), ev._comp(t.right)
    branch = _lift(ev.ops.branch, t.ty)
    return lambda env: branch(left(env), right(env))


def _c_fail(ev, t):
    fail = _lift(ev.ops.fail, t.ty)
    return lambda env: fail()


def _c_flip(ev, t):
    p = t.prob
    if p == 0:
        return ev._comp(t.left)
    if p == 1:
        return ev._comp(t.right)
    left, right = ev._comp(t.left), ev._comp(t.right)
    flip = _lift(ev.ops.flip, t.ty, plain=1)
    return lambda env: flip(p, left(env), right(env))


def _c_get(ev, t):
    body, x = ev._comp(t.body), t.var
    get = _lift(ev.ops.get, t.ty, cont=True)
    return lambda env: get(lambda s: body(_extend(env, x, s)))


def _c_put(ev, t):
    value, body = ev._value(t.value), ev._comp(t.body)
    put = _lift(ev.ops.put, t.ty, plain=1)
    return lambda env: put(value(env), body(env))


def _c_par(ev, t):
    left, right, par = ev._comp(t.left), ev._comp(t.right), ev.ops.par
    return lambda env: par(left(env), right(env))


_COMP_FORMS = {
    Ret: _c_ret, Bind: _c_bind, Lam: _c_lam, Ap: _c_ap, Var: _c_force,
    Step: _c_step, If: _c_if, SumCase: _c_case, NatRec: _c_natrec,
    ListRec: _c_listrec, Branch: _c_branch, Fail: _c_fail, Flip: _c_flip,
    Get: _c_get, Put: _c_put, Par: _c_par,
}

_VALUE_FORMS = {
    Var: _v_var,
    Triv: lambda ev, t: _constant(RUNIT),
    BoolLit: lambda ev, t: _constant(RTRUE if t.value else RFALSE),
    Zero: lambda ev, t: _constant(("nat", 0)),
    Suc: _v_suc,
    Nil: lambda ev, t: _constant(("list", ())),
    Cons: _v_cons, Pair: _v_pair, Fst: _v_fst, Snd: _v_snd, Inl: _v_inl,
    Inr: _v_inr,
    **{form: _v_thunk for form in _COMP_FORMS if issubclass(form, CompTerm)},
}


def evaluate(
    p: Program,
    mode: EvalMode = EvalMode.COST_COUNTING,
    cfg: DomainConfig = DEFAULT_CONFIG,
) -> Outcome:
    """Evaluate a closed program of F type to its outcome."""
    if not isinstance(p.declared_ty, FTy):
        raise EvalError("evaluate expects a program of F type; use eval_fn")
    return Evaluator(p.theory, p.monoid, mode, cfg).outcome(elaborate(p).body)


def as_args(x) -> tuple:
    """Normalize a domain element to an argument tuple.

    Runtime values are themselves tuples tagged by a string, so an input
    is a tuple-of-arguments exactly when its first element is a tuple.
    """
    if isinstance(x, tuple) and (len(x) == 0 or isinstance(x[0], tuple)):
        return x
    return (x,)


def eval_fn(p: Program, mode: EvalMode, cfg: DomainConfig, domain) -> dict:
    """Tabulate a function program over ``domain``.

    ``domain`` is a sequence of runtime values (one argument) or of tuples
    of runtime values (curried arguments).  Returns an ordered dict from
    input to Outcome.
    """
    ev, body = Evaluator(p.theory, p.monoid, mode, cfg), elaborate(p).body
    return {x: ev.outcome(body, as_args(x)) for x in domain}


# ---------------------------------------------------------------------------
# Domain enumeration
# ---------------------------------------------------------------------------


def _domain(ty: ValueTy, cfg: DomainConfig, nat_bound=None):
    """``(size, build)`` for the runtime values of a first-order value
    type: how many there are, counted from the type, and a function that
    lists them in canonical order.  A list domain stops counting once it
    passes ``cfg.input_cap``, so a huge length costs no huge sum; every
    domain has a value, so a type holding it passes the cap too."""
    match ty:
        case UnitTy():
            return 1, lambda: [RUNIT]
        case BoolTy():
            return 2, lambda: [RFALSE, RTRUE]
        case NatTy():
            hi = cfg.nat_max if nat_bound is None else nat_bound
            return hi + 1, lambda: [("nat", n) for n in range(hi + 1)]
        case ProdTy(a, b):
            (m, xs), (n, ys) = (_domain(a, cfg, nat_bound),
                                _domain(b, cfg, nat_bound))
            return m * n, lambda: [("pair", x, y)
                                   for x, y in itertools.product(xs(), ys())]
        case SumTy(a, b):
            (m, xs), (n, ys) = (_domain(a, cfg, nat_bound),
                                _domain(b, cfg, nat_bound))
            return m + n, lambda: ([("inl", x) for x in xs()]
                                   + [("inr", y) for y in ys()])
        case ListTy(elem, _):
            k, elems = _domain(elem, cfg, nat_bound=cfg.elems - 1)
            total, power = 0, 1  # lists of each length n: k ** n
            for _ in range(cfg.list_len + 1):
                total += power
                if total > cfg.input_cap:
                    break
                power *= k
            # the elements are built only for a list that holds one
            return total, lambda: [("list", ())] + [
                ("list", combo) for n in range(1, cfg.list_len + 1)
                for combo in itertools.product(elems(), repeat=n)
            ]
    raise EvalError(f"cannot enumerate values of type {ty!r}")


def _built(what: str, size: int, build, cfg: DomainConfig) -> list:
    """``build()``, unless ``size`` passes ``cfg.input_cap``: then the
    domain is refused before any of it is built."""
    if size > cfg.input_cap:
        raise EvalError(
            f"{what} domain larger than the configured cap ({cfg.input_cap})"
        )
    return build()


def enumerate_value_ty(ty: ValueTy, cfg: DomainConfig):
    """All runtime values of a first-order value type, in canonical
    order: a function's inputs at one argument."""
    return _built("input", *_domain(ty, cfg), cfg)


def state_domain(ty: ValueTy, cfg: DomainConfig):
    """The states a state outcome is tabulated over; nat states range
    over ``0..cfg.state_max``."""
    nat_bound = cfg.state_max if isinstance(ty, NatTy) else None
    return _built("state", *_domain(ty, cfg, nat_bound), cfg)


def enumerate_inputs(ty: CompTy, cfg: DomainConfig, lead: tuple = ()):
    """Enumerate argument tuples for a first-order curried program type.

    Every tuple starts with the fixed values ``lead``; only the remaining
    arguments are enumerated (a hypothesis spec's suspended argument is
    fixed this way)."""
    arg_tys, _ = unfold_arrows(ty)
    domains = [_domain(a, cfg) for a in arg_tys[len(lead):]]
    return arg_tys, _built(
        "input", prod(n for n, _ in domains),
        lambda: list(itertools.product(*([v] for v in lead),
                                       *(build() for _, build in domains))),
        cfg)
