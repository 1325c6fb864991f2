"""Deciders for outcome equality and the approximation preorder.

The base relation on ``(cost, value)`` pairs relaxes cost and fixes the
value: ``(c, v) <= (c', v')`` iff ``c <= c'`` in the cost monoid order and
``v = v'``.  It lifts to effectful outcomes as the smallest preorder
making the effect operations monotone:

* nondet -- Egli-Milner: every branch of the left is dominated by one of
  the right and every branch of the right dominates one of the left; the
  empty outcome relates only to itself.
* prob   -- coupling order: a joint distribution with the two marginals
  exists that is supported on base-related pairs.  Decided exactly: for a
  totally ordered cost monoid the problem splits per value into CDF
  dominance of equal-mass cost distributions; the general case clears
  denominators and runs an integral max-flow (`transportation_oracle`),
  which stays authoritative for the partial work/span order.
* state  -- pointwise over the tabulated state domain: cost relaxes,
  final state and value must agree.

Programs of first-order function type are compared pointwise by
enumerating their input domain.  Suspended computations inside values are
compared by forcing and tabulating over the configured domain; verdicts
carry a note when that happens, since such a comparison is only as strong
as the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .costs import SEQ_NAT
from .semantics import (
    DEFAULT_CONFIG, DomainConfig, EvalError, EvalMode, Evaluator,
    NondetOutcome, Outcome, ProbOutcome, PureOutcome, StateOutcome,
    enumerate_inputs, enumerate_value_ty, get_evaluator, pair_sort_key,
    val_sort_key, val_str,
)
from .syntax import ArrowTy, Program


class OrderError(Exception):
    pass


@dataclass
class Witness:
    input: str
    lhs: str
    rhs: str
    explanation: str

    def to_json(self):
        return {
            "input": self.input,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "explanation": self.explanation,
        }


@dataclass
class Verdict:
    holds: bool
    witness: Optional[Witness] = None
    note: str = ""

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict cannot carry a witness")

    def __bool__(self):
        return self.holds


_EXT_NOTE = (
    "values include suspended computations; compared by tabulation over "
    "the configured domain, so the verdict is domain-relative"
)


class _Cmp:
    """Comparison context: forces thunks and tracks domain-relativity."""

    def __init__(self, theory, monoid, mode, cfg):
        self.cfg = cfg
        self.mode = mode
        self.used_extension = False
        self._ev = Evaluator.raw(theory, monoid, mode, cfg)

    def note(self):
        return _EXT_NOTE if self.used_extension else ""

    def val_eq(self, a, b) -> bool:
        if a == b:
            return True
        if a[0] in ("thunk", "den") or b[0] in ("thunk", "den"):
            return self._den_eq(a, b)
        if a[0] != b[0]:
            return False
        match a[0]:
            case "pair":
                return self.val_eq(a[1], b[1]) and self.val_eq(a[2], b[2])
            case "inl" | "inr":
                return self.val_eq(a[1], b[1])
            case "list":
                return len(a[1]) == len(b[1]) and all(
                    self.val_eq(x, y) for x, y in zip(a[1], b[1])
                )
            case _:
                return False

    def _force(self, v):
        if v[0] == "thunk":
            return v[2].ty, self._ev.eval_comp(v[2], dict(v[1]))
        if v[0] == "den":
            return v[1], v[2]
        raise OrderError(f"expected a suspension, found {val_str(v)}")

    def _den_eq(self, a, b) -> bool:
        ta, da = self._force(a)
        tb, db = self._force(b)
        if ta != tb:
            return False
        self.used_extension = True
        return self._den_eq_at(da, db, ta)

    def _den_eq_at(self, da, db, ty) -> bool:
        if isinstance(ty, ArrowTy):
            for x in enumerate_value_ty(ty.dom, self.cfg):
                if not self._den_eq_at(da(x), db(x), ty.cod):
                    return False
            return True
        oa = self._ev.outcome_of_den(da)
        ob = self._ev.outcome_of_den(db)
        return _eq_outcome(oa, ob, self).holds


def _cmp_for(out: Outcome, cfg: DomainConfig, theory_obj=None) -> _Cmp:
    # Outcomes only record the theory kind; thunk forcing additionally
    # needs the state type, which callers supply when they have it.  State
    # tables hold first-order data, so a pure context is a safe fallback.
    from .syntax import NONDET, PROB, PURE

    theory = theory_obj
    if theory is None:
        theory = {"pure": PURE, "nondet": NONDET, "prob": PROB}.get(
            out.theory, PURE
        )
    return _Cmp(theory, out.monoid, out.mode, cfg)


def _check_compatible(lhs: Outcome, rhs: Outcome):
    if lhs.theory != rhs.theory:
        raise OrderError(
            f"theory mismatch: {lhs.theory} vs {rhs.theory}"
        )
    if lhs.monoid is not rhs.monoid:
        raise OrderError("cost monoid mismatch")


def base_leq(cl, vl, cr, vr, monoid, cmp: _Cmp) -> bool:
    return monoid.leq(cl, cr) and cmp.val_eq(vl, vr)


# ---------------------------------------------------------------------------
# Outcome-level deciders
# ---------------------------------------------------------------------------


def leq_outcome(
    lhs: Outcome, rhs: Outcome,
    cfg: DomainConfig = DEFAULT_CONFIG,
    theory=None,
) -> Verdict:
    """Decide the approximation preorder between two outcomes."""
    _check_compatible(lhs, rhs)
    cmp = _cmp_for(lhs, cfg, theory)
    v = _leq_outcome(lhs, rhs, cmp)
    if v.holds:
        v.note = cmp.note()
    return v


def eq_outcome(
    lhs: Outcome, rhs: Outcome,
    cfg: DomainConfig = DEFAULT_CONFIG,
    theory=None,
) -> Verdict:
    """Decide equality of normalized outcomes."""
    _check_compatible(lhs, rhs)
    cmp = _cmp_for(lhs, cfg, theory)
    v = _eq_outcome(lhs, rhs, cmp)
    if v.holds:
        v.note = cmp.note()
    return v


def _fail(lhs, rhs, explanation, input_=""):
    return Verdict(False, Witness(input_, str(lhs), str(rhs), explanation))


def _leq_outcome(lhs: Outcome, rhs: Outcome, cmp: _Cmp) -> Verdict:
    monoid = lhs.monoid
    match lhs, rhs:
        case (PureOutcome(), PureOutcome()):
            if not monoid.leq(lhs.cost, rhs.cost):
                return _fail(
                    lhs, rhs,
                    f"cost {monoid.show(lhs.cost)} does not relax to "
                    f"{monoid.show(rhs.cost)}",
                )
            if not cmp.val_eq(lhs.value, rhs.value):
                return _fail(lhs, rhs, "return values differ")
            return Verdict(True)
        case (NondetOutcome(), NondetOutcome()):
            return _leq_nondet(lhs, rhs, monoid, cmp)
        case (ProbOutcome(), ProbOutcome()):
            return _leq_prob(lhs, rhs, monoid, cmp)
        case (StateOutcome(), StateOutcome()):
            return _leq_state(lhs, rhs, monoid, cmp)
    raise OrderError(f"outcome shape mismatch: {type(lhs)} vs {type(rhs)}")


def _leq_nondet(lhs, rhs, monoid, cmp) -> Verdict:
    if bool(lhs.branches) != bool(rhs.branches):
        return _fail(
            lhs, rhs,
            "emptiness differs: the empty outcome relates only to itself",
        )
    for cl, vl in sorted(lhs.branches, key=pair_sort_key):
        if not any(
            base_leq(cl, vl, cr, vr, monoid, cmp) for cr, vr in rhs.branches
        ):
            return _fail(
                lhs, rhs,
                f"branch ({monoid.show(cl)}, {val_str(vl)}) is not "
                "dominated by any branch on the right",
            )
    for cr, vr in sorted(rhs.branches, key=pair_sort_key):
        if not any(
            base_leq(cl, vl, cr, vr, monoid, cmp) for cl, vl in lhs.branches
        ):
            return _fail(
                lhs, rhs,
                f"branch ({monoid.show(cr)}, {val_str(vr)}) on the right "
                "dominates no branch on the left",
            )
    return Verdict(True)


def _group_by_value(dist):
    groups: dict = {}
    for (c, v), w in dist:
        groups.setdefault(v, []).append((c, w))
    return groups


def em_normal_form(branches, monoid) -> frozenset:
    """Canonical representative of a branch set's Egli-Milner class.

    Deduplicated sets are not canonical: with the same value, costs
    {0, 1, 4} and {0, 2, 4} relate both ways (every element is between
    the extremes), yet differ as sets.  The class of a finite set under
    mutual lifting is determined exactly by the minimal and maximal
    cost antichains of each value group, so equality of outcomes
    compares those.
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


def _leq_prob(lhs, rhs, monoid, cmp) -> Verdict:
    gl = _group_by_value(lhs.dist)
    gr = _group_by_value(rhs.dist)
    if set(gl) != set(gr):
        only = set(gl) ^ set(gr)
        v = next(iter(only))
        return _fail(
            lhs, rhs,
            f"value {val_str(v)} carries mass on one side only "
            "(a coupling must match values exactly)",
        )
    for v in gl:
        ml = sum(w for _, w in gl[v])
        mr = sum(w for _, w in gr[v])
        if ml != mr:
            return _fail(
                lhs, rhs,
                f"total mass at value {val_str(v)} differs: {ml} vs {mr}",
            )
    if monoid is SEQ_NAT:
        # total cost order: the coupling problem splits per value into
        # first-order dominance of equal-mass cost distributions
        for v in gl:
            if not cdf_dominates(gl[v], gr[v]):
                return _fail(
                    lhs, rhs,
                    f"cost distribution at value {val_str(v)} is not "
                    "stochastically below the right-hand one",
                )
        return Verdict(True)
    rel = lambda a, b: base_leq(a[0], a[1], b[0], b[1], monoid, cmp)
    if transportation_oracle(list(lhs.dist), list(rhs.dist), rel):
        return Verdict(True)
    return _fail(lhs, rhs, "no feasible coupling supported on the base order")


def dist_leq_fast(lhs, rhs) -> bool:
    """Coupling order on distributions over (int cost, value) pairs via
    per-value CDF dominance; valid for a totally ordered cost monoid."""
    gl: dict = {}
    gr: dict = {}
    for (c, v), w in lhs:
        gl.setdefault(v, []).append((c, w))
    for (c, v), w in rhs:
        gr.setdefault(v, []).append((c, w))
    if set(gl) != set(gr):
        return False
    for v in gl:
        if sum(w for _, w in gl[v]) != sum(w for _, w in gr[v]):
            return False
        if not cdf_dominates(gl[v], gr[v]):
            return False
    return True


def dist_leq_flow(lhs, rhs) -> bool:
    """The same order decided by max-flow transportation feasibility."""
    rel = lambda a, b: a[1] == b[1] and a[0] <= b[0]
    return transportation_oracle(list(lhs), list(rhs), rel)


def _leq_state(lhs, rhs, monoid, cmp) -> Verdict:
    if lhs.escaped != rhs.escaped:
        return _fail(lhs, rhs, "runs escape the state domain differently")
    tl = dict(lhs.table)
    tr = dict(rhs.table)
    if set(tl) != set(tr):
        return _fail(lhs, rhs, "tabulated initial states differ")
    for s0 in sorted(tl, key=val_sort_key):
        cl, sl, vl = tl[s0]
        cr, sr, vr = tr[s0]
        if not monoid.leq(cl, cr):
            return _fail(
                lhs, rhs,
                f"from state {val_str(s0)}: cost {monoid.show(cl)} does "
                f"not relax to {monoid.show(cr)}",
            )
        if not cmp.val_eq(sl, sr):
            return _fail(
                lhs, rhs, f"from state {val_str(s0)}: final states differ"
            )
        if not cmp.val_eq(vl, vr):
            return _fail(
                lhs, rhs, f"from state {val_str(s0)}: return values differ"
            )
    return Verdict(True)


def _eq_outcome(lhs: Outcome, rhs: Outcome, cmp: _Cmp) -> Verdict:
    monoid = lhs.monoid
    match lhs, rhs:
        case (PureOutcome(), PureOutcome()):
            if lhs.cost != rhs.cost:
                return _fail(lhs, rhs, "costs differ")
            if not cmp.val_eq(lhs.value, rhs.value):
                return _fail(lhs, rhs, "return values differ")
            return Verdict(True)
        case (NondetOutcome(), NondetOutcome()):
            if lhs.branches == rhs.branches:
                return Verdict(True)
            if em_normal_form(lhs.branches, monoid) == em_normal_form(
                rhs.branches, monoid
            ):
                return Verdict(True)
            return _fail(
                lhs, rhs,
                "branch sets differ (beyond order-equivalence)",
            )
        case (ProbOutcome(), ProbOutcome()):
            if lhs.dist == rhs.dist:
                return Verdict(True)
            return _fail(lhs, rhs, "distributions differ")
        case (StateOutcome(), StateOutcome()):
            if lhs.escaped != rhs.escaped:
                return _fail(
                    lhs, rhs, "runs escape the state domain differently"
                )
            tl, tr = dict(lhs.table), dict(rhs.table)
            if set(tl) != set(tr):
                return _fail(lhs, rhs, "tabulated initial states differ")
            for s0 in sorted(tl, key=val_sort_key):
                cl, sl, vl = tl[s0]
                cr, sr, vr = tr[s0]
                if cl != cr or not cmp.val_eq(sl, sr) or not cmp.val_eq(vl, vr):
                    return _fail(
                        lhs, rhs,
                        f"entries for initial state {val_str(s0)} differ",
                    )
            return Verdict(True)
    raise OrderError(f"outcome shape mismatch: {type(lhs)} vs {type(rhs)}")


# ---------------------------------------------------------------------------
# Distribution order: CDF fast path and transportation oracle
# ---------------------------------------------------------------------------


def cdf_dominates(lhs, rhs) -> bool:
    """First-order dominance of integer-cost distributions.

    ``lhs`` and ``rhs`` are (cost, weight) lists of equal total mass.
    True iff at every threshold the left CDF is at least the right CDF,
    i.e. the left-hand mass sits at lower costs.
    """
    support = sorted({c for c, _ in lhs} | {c for c, _ in rhs})
    fl = Fraction(0)
    fr = Fraction(0)
    for t in support:
        fl += sum((w for c, w in lhs if c == t), Fraction(0))
        fr += sum((w for c, w in rhs if c == t), Fraction(0))
        if fl < fr:
            return False
    return True


def transportation_oracle(lhs, rhs, relation: Callable) -> bool:
    """Exact feasibility of a coupling between two rational distributions.

    ``lhs``/``rhs`` are sequences of ``(item, weight)`` with equal total
    mass; ``relation(a, b)`` says mass may move from ``a`` to ``b``.
    Weights are cleared to integers by their common denominator and the
    question becomes an integral max-flow, which is exact by flow
    integrality.
    """
    total_l = sum((w for _, w in lhs), Fraction(0))
    total_r = sum((w for _, w in rhs), Fraction(0))
    if total_l != total_r:
        return False
    if total_l == 0:
        return True
    denom = lcm(*(w.denominator for _, w in list(lhs) + list(rhs)))
    supply = [int(w * denom) for _, w in lhs]
    demand = [int(w * denom) for _, w in rhs]
    n, m = len(lhs), len(rhs)
    src, snk = n + m, n + m + 1
    g = _Dinic(n + m + 2)
    for i, s in enumerate(supply):
        g.add_edge(src, i, s)
    for j, d in enumerate(demand):
        g.add_edge(n + j, snk, d)
    inf = sum(supply)
    for i, (a, _) in enumerate(lhs):
        for j, (b, _) in enumerate(rhs):
            if relation(a, b):
                g.add_edge(i, n + j, inf)
    return g.max_flow(src, snk) == sum(supply)


class _Dinic:
    """Integral max-flow on a small graph; capacities are Python ints."""

    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _bfs(self, s, t):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        self.level = level
        return level[t] >= 0

    def _dfs(self, u, t, f):
        if u == t:
            return f
        while self.it[u] < len(self.adj[u]):
            e = self.adj[u][self.it[u]]
            v, cap, rev = e
            if cap > 0 and self.level[v] == self.level[u] + 1:
                d = self._dfs(v, t, min(f, cap))
                if d > 0:
                    e[1] -= d
                    self.adj[v][rev][1] += d
                    return d
            self.it[u] += 1
        return 0

    def max_flow(self, s, t):
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t, 1 << 62)
                if f == 0:
                    break
                flow += f
        return flow


# ---------------------------------------------------------------------------
# Program-level deciders
# ---------------------------------------------------------------------------


def _check_programs(lhs: Program, rhs: Program):
    if lhs.declared_ty != rhs.declared_ty:
        raise OrderError(
            "programs have different types and cannot be compared"
        )
    if lhs.theory != rhs.theory:
        raise OrderError("programs declare different effect theories")
    if lhs.monoid is not rhs.monoid:
        raise OrderError("programs declare different cost monoids")


def _input_str(arg_tys, args) -> str:
    return ", ".join(val_str(a) for a in args)


def _pointwise(
    decide, lhs: Program, rhs: Program, mode: EvalMode, cfg: DomainConfig,
    scope: Optional[dict] = None,
) -> Verdict:
    _check_programs(lhs, rhs)
    try:
        arg_tys, inputs = enumerate_inputs(lhs.declared_ty, cfg)
    except EvalError as e:
        raise OrderError(str(e))
    ev_l = get_evaluator(lhs, mode, cfg, scope)
    ev_r = get_evaluator(rhs, mode, cfg, scope)
    note = ""
    for args in inputs:
        out_l = ev_l.outcome(args)
        out_r = ev_r.outcome(args)
        v = decide(out_l, out_r, cfg, lhs.theory)
        if not v.holds:
            v.witness.input = _input_str(arg_tys, args)
            return v
        if v.note:
            note = v.note
    return Verdict(True, note=note)


def leq_program(
    lhs: Program,
    rhs: Program,
    mode: EvalMode = EvalMode.COST_COUNTING,
    cfg: DomainConfig = DEFAULT_CONFIG,
    scope: Optional[dict] = None,
) -> Verdict:
    """Pointwise ``<=`` of two programs over their enumerated input domain.

    Inputs are visited in canonical enumeration order and the first
    failing one becomes the witness, so verdicts are deterministic.
    ``scope`` is the check's evaluator pool (see ``get_evaluator``).
    """
    return _pointwise(leq_outcome, lhs, rhs, mode, cfg, scope)


def eq_program(
    lhs: Program,
    rhs: Program,
    mode: EvalMode = EvalMode.COST_COUNTING,
    cfg: DomainConfig = DEFAULT_CONFIG,
    scope: Optional[dict] = None,
) -> Verdict:
    """Pointwise outcome equality over the enumerated input domain."""
    return _pointwise(eq_outcome, lhs, rhs, mode, cfg, scope)


def ext_equal_program(
    lhs: Program, rhs: Program, cfg: DomainConfig = DEFAULT_CONFIG
) -> Verdict:
    """Behavioral equality: outcome equality with all costs collapsed."""
    return _pointwise(eq_outcome, lhs, rhs, EvalMode.EXTENSIONAL, cfg)
