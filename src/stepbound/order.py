"""Deciders for outcome equality and the approximation preorder.

The base relation on ``(cost, value)`` pairs relaxes cost and fixes the
value: ``(c, v) <= (c', v')`` iff ``c <= c'`` in the cost monoid order and
``v = v'``.  It lifts to effectful outcomes as the smallest preorder
making the effect operations monotone:

* nondet -- Egli-Milner: every branch of the left is dominated by one of
  the right and every branch of the right dominates one of the left; the
  empty outcome relates only to itself.
* prob   -- coupling order: a joint distribution with the two marginals
  exists that is supported on base-related pairs.  Such a coupling moves
  mass only between keys of one value, so it is decided exactly per
  value, on the equal-mass cost distributions over a shared denominator:
  by CDF dominance for a totally ordered cost monoid, and by an integral
  max-flow (`transportation_oracle`) for the partial work/span order.
* state  -- pointwise over the tabulated state domain: cost relaxes,
  final state and value must agree.

Outcome equality is ``<=`` both ways: the pure and state deciders with
exact costs, and equal normal forms for nondet and prob.  Values are
compared with ``==`` on canonical keys (`_Canon`), made once per outcome:
a first-order value is its own key, and a suspension (``thunk`` or
``den``) becomes ``('den', type, normal form)`` of its outcome, tabulated
over the argument domain at arrow type.  Every outcome carries the effect
theory, cost monoid, mode and domain it was evaluated under, so
``leq_outcome`` and ``eq_outcome`` take two outcomes and nothing else:
suspensions are forced under the outcomes' own theory, and outcomes whose
theory, monoid, mode or domain differ are refused.  A suspension's key is only
as fine as that domain, so a holding verdict that met one carries a note.
``relation_check`` relates two programs of first-order function type
pointwise over their enumerated input domain, with the decider that a
spec's ``Relation`` and the run's mode call for, and reads the program's
cost range off the same pass.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .costs import SEQ_NAT
from .records import asdict, record, replace
from .semantics import (
    DEFAULT_CONFIG, Dist, DomainConfig, EvalError, EvalMode, Evaluator,
    NondetOutcome, Outcome, ProbOutcome, PureOutcome, StateOutcome,
    cost_sort_key, enumerate_inputs, enumerate_value_ty, extreme_cost,
    pair_sort_key, val_sort_key, val_str,
)
from .syntax import ArrowTy, CompTerm, Program, map_scopes, subterms
from .typecheck import elaborate


class OrderError(Exception):
    pass


@record(frozen=False)
class Witness:
    input: str
    lhs: str
    rhs: str
    explanation: str

    def to_json(self):
        return asdict(self)


@record(frozen=False)
class Verdict:
    holds: bool
    witness: Optional[Witness] = None
    note: str = ""
    # from ``pointwise``: the program side's cost range over the inputs
    # it decided, up to and including a failing one
    max_cost: object = None
    min_cost: object = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict cannot carry a witness")

    def __bool__(self):
        return self.holds


_EXT_NOTE = (
    "values include suspended computations; compared by tabulation over "
    "the configured domain, so the verdict is domain-relative"
)


def _suspends(v) -> bool:
    """Whether value ``v`` holds a suspended computation."""
    match v[0]:
        case "unit" | "bool" | "nat":
            return False
        case "pair":
            return _suspends(v[1]) or _suspends(v[2])
        case "inl" | "inr":
            return _suspends(v[1])
        case "list":
            return any(map(_suspends, v[1]))
    return True


class _Canon:
    """Canonical keys of the values of one comparison.

    Two values are equal exactly when their keys are.  Suspensions are
    forced by an evaluator made on first use, under the theory, monoid,
    mode and domain of the outcome ``out``; ``suspended`` records that
    one was met.
    """

    def __init__(self, out: Outcome):
        self.out = out
        self.suspended = False
        self._ev = None

    def _evaluator(self) -> Evaluator:
        if self._ev is None:
            out = self.out
            self._ev = Evaluator(out.theory, out.monoid, out.mode, out.cfg)
        return self._ev

    def outcome(self, out: Outcome) -> Outcome:
        """``out`` with canonical values; ``out`` itself if no value
        suspends."""
        f = self.value
        match out:
            case PureOutcome(value=v) if _suspends(v):
                return replace(out, value=f(v))
            case NondetOutcome(branches=b) if any(_suspends(v) for _, v in b):
                return replace(out, branches=frozenset((c, f(v)) for c, v in b))
            case ProbOutcome(dist=d) if any(_suspends(v) for _, v in d.nums):
                acc: dict = {}
                for (c, v), n in d.nums.items():
                    key = (c, f(v))
                    acc[key] = acc.get(key, 0) + n
                return replace(out, dist=Dist._of(acc, d.den))
            case StateOutcome(table=t) if any(
                _suspends(v) for _, (_, _, v) in t
            ):
                # final states lie in the first-order state domain
                return replace(out, table=tuple(
                    (s0, (c, s1, f(v))) for s0, (c, s1, v) in t
                ))
        return out

    def value(self, v):
        match v[0]:
            case "pair":
                return ("pair", self.value(v[1]), self.value(v[2]))
            case "inl" | "inr":
                return (v[0], self.value(v[1]))
            case "list":
                return ("list", tuple(map(self.value, v[1])))
            case "thunk":
                ty, den = v[2].ty, self._evaluator().eval_comp(v[2], dict(v[1]))
            case "den":
                ty, den = v[1], v[2]
            case _:
                return v
        self.suspended = True
        return ("den", ty, self._normal_form_at(den, ty))

    def _normal_form_at(self, den, ty):
        if isinstance(ty, ArrowTy):
            return tuple(
                self._normal_form_at(den(x), ty.cod)
                for x in enumerate_value_ty(ty.dom, self.out.cfg)
            )
        return _normal_form(self.outcome(self._evaluator().outcome_of_den(den)))


def _normal_form(out: Outcome):
    """A canonical outcome's equality class: equal outcomes, and only
    those, have equal normal forms."""
    match out:
        case PureOutcome():
            return (out.cost, out.value)
        case NondetOutcome():
            return em_normal_form(out.branches, out.monoid)
        case ProbOutcome():
            return out.dist
        case StateOutcome():
            return (out.table, out.escaped)


def _check_compatible(lhs: Outcome, rhs: Outcome):
    if lhs.theory != rhs.theory:
        raise OrderError(
            f"theory mismatch: {lhs.theory} vs {rhs.theory}"
        )
    if lhs.monoid is not rhs.monoid:
        raise OrderError("cost monoid mismatch")
    if lhs.mode is not rhs.mode:
        raise OrderError(f"mode mismatch: {lhs.mode} vs {rhs.mode}")
    if lhs.cfg is not rhs.cfg and lhs.cfg.to_json() != rhs.cfg.to_json():
        raise OrderError(
            f"domain mismatch: {lhs.cfg.to_json()} vs {rhs.cfg.to_json()}"
        )


# ---------------------------------------------------------------------------
# Outcome-level deciders
# ---------------------------------------------------------------------------


def leq_outcome(lhs: Outcome, rhs: Outcome) -> Verdict:
    """Decide the approximation preorder between two outcomes."""
    return _decide(_leq_outcome, lhs, rhs)


def eq_outcome(lhs: Outcome, rhs: Outcome) -> Verdict:
    """Decide equality of outcomes (``<=`` both ways)."""
    return _decide(_eq_outcome, lhs, rhs)


def _decide(decider, lhs, rhs) -> Verdict:
    """``decider`` on canonical outcomes; a witness shows them as given."""
    _check_compatible(lhs, rhs)
    canon = _Canon(lhs)
    try:
        v = decider(canon.outcome(lhs), canon.outcome(rhs))
    finally:
        if canon._ev is not None:
            canon._ev.close()
    if not v.holds:
        v.witness.lhs, v.witness.rhs = str(lhs), str(rhs)
    elif canon.suspended:
        v.note = _EXT_NOTE
    return v


def _fail(explanation):
    return Verdict(False, Witness("", "", "", explanation))


def _cost_fault(monoid, cl, cr, exact: bool) -> str:
    """Why cost ``cl`` is not below ``cr`` (equal to it if ``exact``),
    or '' if it is."""
    if cl == cr if exact else monoid.leq(cl, cr):
        return ""
    verb = "differs from" if exact else "does not relax to"
    return f"cost {monoid.show(cl)} {verb} {monoid.show(cr)}"


def _base_relation(monoid):
    """The base order on ``(cost, canonical value)`` pairs."""
    return lambda a, b: a[1] == b[1] and monoid.leq(a[0], b[0])


def _leq_outcome(lhs: Outcome, rhs: Outcome, exact: bool = False) -> Verdict:
    match lhs, rhs:
        case (PureOutcome(), PureOutcome()):
            fault = _cost_fault(lhs.monoid, lhs.cost, rhs.cost, exact)
            if fault:
                return _fail(fault)
            if lhs.value != rhs.value:
                return _fail("return values differ")
            return Verdict(True)
        case (NondetOutcome(), NondetOutcome()):
            return _leq_nondet(lhs, rhs)
        case (ProbOutcome(), ProbOutcome()):
            return _leq_prob(lhs, rhs)
        case (StateOutcome(), StateOutcome()):
            return _leq_state(lhs, rhs, exact)
    raise OrderError(f"outcome shape mismatch: {type(lhs)} vs {type(rhs)}")


def _eq_outcome(lhs: Outcome, rhs: Outcome) -> Verdict:
    match lhs, rhs:
        case (NondetOutcome(), NondetOutcome()):
            if lhs.branches == rhs.branches or (
                _normal_form(lhs) == _normal_form(rhs)
            ):
                return Verdict(True)
            return _fail("branch sets differ (beyond order-equivalence)")
        case (ProbOutcome(), ProbOutcome()):
            if lhs.dist == rhs.dist:
                return Verdict(True)
            return _fail("distributions differ")
    return _leq_outcome(lhs, rhs, exact=True)


def _leq_nondet(lhs, rhs) -> Verdict:
    monoid = lhs.monoid
    base = _base_relation(monoid)
    if bool(lhs.branches) != bool(rhs.branches):
        return _fail(
            "emptiness differs: the empty outcome relates only to itself"
        )
    for a in sorted(lhs.branches, key=pair_sort_key):
        if not any(base(a, b) for b in rhs.branches):
            return _fail(
                f"branch ({monoid.show(a[0])}, {val_str(a[1])}) is not "
                "dominated by any branch on the right"
            )
    for b in sorted(rhs.branches, key=pair_sort_key):
        if not any(base(a, b) for a in lhs.branches):
            return _fail(
                f"branch ({monoid.show(b[0])}, {val_str(b[1])}) on the right "
                "dominates no branch on the left"
            )
    return Verdict(True)


def _group_by_value(dist, scale: int) -> dict:
    """Each value's ``(cost, numerator)`` pairs, the numerators scaled by
    ``scale`` to a denominator shared with another distribution."""
    groups: dict = {}
    for (c, v), n in dist.nums.items():
        groups.setdefault(v, []).append((c, n * scale))
    return groups


def _print_order(groups) -> list:
    """The values of ``_group_by_value`` in the order their distribution
    prints them first: by least cost, then by value."""
    return sorted(groups, key=lambda v: (
        min(cost_sort_key(c) for c, _ in groups[v]), val_sort_key(v)
    ))


def em_normal_form(branches, monoid) -> frozenset:
    """Canonical representative of a branch set's Egli-Milner class.

    Deduplicated sets are not canonical: with the same value, costs
    {0, 1, 4} and {0, 2, 4} relate both ways (every element is between
    the extremes), yet differ as sets.  The class of a finite set under
    mutual lifting is determined exactly by the minimal and maximal
    cost antichains of each value group, so equality of outcomes
    compares those.  Values must be canonical (see `_Canon`).
    """
    groups: dict = {}
    for c, v in branches:
        groups.setdefault(v, []).append(c)
    keep = set()
    for v, costs in groups.items():
        for c in costs:
            minimal = not any(
                monoid.leq(c2, c) and c2 != c for c2 in costs
            )
            maximal = not any(
                monoid.leq(c, c2) and c2 != c for c2 in costs
            )
            if minimal or maximal:
                keep.add((c, v))
    return frozenset(keep)


def _leq_prob(lhs, rhs) -> Verdict:
    """Decided in integers, both sides' weights over the lcm of their
    denominators; a failing value is named in the left side's print
    order."""
    dl, dr = lhs.dist, rhs.dist
    den = lcm(dl.den, dr.den)
    gl = _group_by_value(dl, den // dl.den)
    gr = _group_by_value(dr, den // dr.den)
    if gl.keys() != gr.keys():
        # the first such value in print order, not in set order
        v = min(gl.keys() ^ gr.keys(), key=val_sort_key)
        return _fail(
            f"value {val_str(v)} carries mass on one side only "
            "(a coupling must match values exactly)"
        )
    mass = lambda groups, v: sum(n for _, n in groups[v])
    unequal = {v for v in gl if mass(gl, v) != mass(gr, v)}
    if unequal:
        v = next(v for v in _print_order(gl) if v in unequal)
        return _fail(
            f"total mass at value {val_str(v)} differs: "
            f"{Fraction(mass(gl, v), den)} vs {Fraction(mass(gr, v), den)}"
        )
    # a coupling moves mass only between keys of one value; a total cost
    # order is decided by first-order dominance, a partial one by a flow
    monoid = lhs.monoid
    for v in _print_order(gl):
        if not (cdf_dominates(gl[v], gr[v]) if monoid is SEQ_NAT
                else transportation_oracle(gl[v], gr[v], monoid.leq)):
            return _fail(
                f"cost distribution at value {val_str(v)} is not "
                "stochastically below the right-hand one"
            )
    return Verdict(True)


def dist_leq_flow(lhs, rhs) -> bool:
    """Coupling order on distributions over (int cost, value) pairs,
    decided by one max-flow over the whole distribution: the reference
    for the per-value deciders of `leq_outcome`."""
    rel = lambda a, b: a[1] == b[1] and a[0] <= b[0]
    return transportation_oracle(list(lhs), list(rhs), rel)


def _leq_state(lhs, rhs, exact: bool) -> Verdict:
    """Both tables are sorted by initial state, so they are walked in
    step."""
    if lhs.escaped != rhs.escaped:
        return _fail("runs escape the state domain differently")
    tl, tr = lhs.table, rhs.table
    if len(tl) != len(tr) or any(a[0] != b[0] for a, b in zip(tl, tr)):
        return _fail("tabulated initial states differ")
    for (s0, (cl, sl, vl)), (_, (cr, sr, vr)) in zip(tl, tr):
        fault = _cost_fault(lhs.monoid, cl, cr, exact)
        if fault:
            return _fail(f"from state {val_str(s0)}: {fault}")
        if sl != sr:
            return _fail(f"from state {val_str(s0)}: final states differ")
        if vl != vr:
            return _fail(f"from state {val_str(s0)}: return values differ")
    return Verdict(True)


# ---------------------------------------------------------------------------
# Distribution order: CDF fast path and transportation oracle
# ---------------------------------------------------------------------------


def cdf_dominates(lhs, rhs) -> bool:
    """First-order dominance of integer-cost distributions.

    ``lhs`` and ``rhs`` are (cost, weight) lists of equal total mass.
    True iff at every threshold the left CDF is at least the right CDF,
    i.e. the left-hand mass sits at lower costs.
    """
    diff: dict = {}
    for c, w in lhs:
        diff[c] = diff[c] + w if c in diff else w
    for c, w in rhs:
        diff[c] = diff[c] - w if c in diff else -w
    # the left CDF minus the right one, swept over the union of costs
    gap = 0
    for c in sorted(diff):
        gap += diff[c]
        if gap < 0:
            return False
    return True


def transportation_oracle(lhs, rhs, relation: Callable) -> bool:
    """Exact feasibility of a coupling between two rational distributions.

    ``lhs``/``rhs`` are sequences of ``(item, weight)`` with equal total
    mass, the weights ``int`` or ``Fraction``; ``relation(a, b)`` says
    mass may move from ``a`` to ``b``.  Weights are cleared to integers by
    their common denominator and the question becomes an integral
    max-flow, which is exact by flow integrality.
    """
    total_l = sum(w for _, w in lhs)
    total_r = sum(w for _, w in rhs)
    if total_l != total_r:
        return False
    if total_l == 0:
        return True
    denom = lcm(*(w.denominator for _, w in list(lhs) + list(rhs)))
    total = int(total_l * denom)
    n, m = len(lhs), len(rhs)
    src, snk = n + m, n + m + 1
    cap = [{} for _ in range(n + m + 2)]
    for i, (a, w) in enumerate(lhs):
        cap[src][i] = int(w * denom)
        for j, (b, _) in enumerate(rhs):
            if relation(a, b):
                cap[i][n + j] = total
    for j, (_, w) in enumerate(rhs):
        cap[n + j][snk] = int(w * denom)
    return _max_flow(cap, src, snk) == total


def _max_flow(cap, s, t) -> int:
    """The value of a maximum ``s``-``t`` flow, augmented along shortest
    paths (Edmonds and Karp, JACM 1972).  ``cap[u]`` maps each successor
    of node ``u`` to its residual capacity, a Python int, and is used up."""
    flow = 0
    while True:
        prev = {s: s}
        queue = [s]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return flow
        path, v = [], t
        while v != s:
            path.append((prev[v], v))
            v = prev[v]
        f = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= f
            cap[v][u] = cap[v].get(u, 0) + f
        flow += f


# ---------------------------------------------------------------------------
# Program-level deciders
# ---------------------------------------------------------------------------


class Relation(Enum):
    """How a program relates to its bound."""

    LEQ_UPPER = "leq-upper"  # program <= bound
    LEQ_LOWER = "leq-lower"  # bound <= program (a cost lower bound)
    EQUAL = "equal"  # outcomes coincide exactly
    EXT_EQUAL = "ext-equal"  # outcomes coincide with cost collapsed


def relation_check(
    relation: Relation,
    program: Program,
    bound: Program,
    mode: EvalMode = EvalMode.COST_COUNTING,
    cfg: DomainConfig = DEFAULT_CONFIG,
) -> tuple:
    """How ``relation`` between two source programs is decided in a run
    of ``mode``: ``(evaluator, check)``, where ``check(lead=())`` decides
    the relation at every input starting with the fixed values ``lead``
    (a hypothesis spec's candidate argument), and its verdict carries
    ``program``'s cost range over the inputs it decided.

    The one place that maps a relation and a mode to the decider, the
    operand order and the evaluation mode.  The two programs must share
    a type, an effect theory and a cost monoid, and one evaluator
    evaluates both.  The deciders are read when this is called, so a
    wrapper installed on this module's ``leq_outcome``/``eq_outcome``
    sees every decision.
    """
    if program.declared_ty != bound.declared_ty:
        raise OrderError(
            "programs have different types and cannot be compared"
        )
    if program.theory != bound.theory:
        raise OrderError("programs declare different effect theories")
    if program.monoid is not bound.monoid:
        raise OrderError("programs declare different cost monoids")
    swap = False
    if mode is EvalMode.EXTENSIONAL:
        # with cost collapsed, every stated approximation must be an equality
        decide = eq_outcome
    else:
        match relation:
            case Relation.LEQ_UPPER:
                decide = leq_outcome
            case Relation.LEQ_LOWER:
                decide, swap = leq_outcome, True
            case Relation.EQUAL:
                decide = eq_outcome
            case Relation.EXT_EQUAL:
                decide, mode = eq_outcome, EvalMode.EXTENSIONAL
            case _:
                raise ValueError(relation)
    ev = Evaluator(program.theory, program.monoid, mode, cfg)
    memo = {}
    body, bound_body = [_share(elaborate(p).body, memo)
                        for p in (program, bound)]
    lhs, rhs = (bound_body, body) if swap else (body, bound_body)
    return ev, lambda lead=(): pointwise(decide, ev, lhs, rhs, int(swap),
                                         lead)


def _share(t, memo: dict):
    """``t`` hash-consed bottom-up into ``memo``, so that equal sub-terms
    compile and are tabled once.  Two nodes become one when they are equal
    and share their sub-term nodes, ``ty`` and ``list_charge``: the last
    two the evaluator reads, but node equality ignores."""
    t = map_scopes(t, lambda sub, names: (names, _share(sub, memo)))
    key = (t, getattr(t, "ty", None), getattr(t, "list_charge", None),
           tuple(map(id, subterms(t))))
    return memo.setdefault(key, t)


def pointwise(
    decide, ev: Evaluator, lhs: CompTerm, rhs: CompTerm, side: int,
    lead: tuple = (),
) -> Verdict:
    """``decide`` on the outcomes of the elaborated bodies ``lhs`` and
    ``rhs``, both evaluated by ``ev``, at every input, in order.

    Inputs start with the fixed values ``lead`` and enumerate the rest
    of ``ev``'s domain.  The first failing input becomes the witness.
    The verdict carries the cost range of the program, operand ``side``
    (0 for ``lhs``, 1 for ``rhs``), over the inputs decided, the
    witness included.
    """
    try:
        _, inputs = enumerate_inputs(lhs.ty, ev.cfg, lead)
    except EvalError as e:
        raise OrderError(str(e))
    note, hi, lo = "", None, None
    for args in inputs:
        outs = ev.outcome(lhs, args), ev.outcome(rhs, args)
        mx, mn = outs[side].max_cost(), outs[side].min_cost()
        hi = extreme_cost([c for c in (hi, mx) if c is not None], max)
        lo = extreme_cost([c for c in (lo, mn) if c is not None], min)
        v = decide(*outs)
        if not v.holds:
            v.witness.input = ", ".join(val_str(a) for a in args)
            v.max_cost, v.min_cost = hi, lo
            return v
        if v.note:
            note = v.note
    return Verdict(True, note=note, max_cost=hi, min_cost=lo)
