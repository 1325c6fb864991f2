"""No check leaves an evaluator to the cyclic collector.

An evaluator's closures and the denotations in its table refer to the
evaluator, so one still holding them is cyclic garbage once its check is
done: reference counting cannot free it, and it waits for a full pass of
the cyclic collector.  Each owner closes its evaluator as the last thing
it does with it.  These tests run checks with the collector off and ask
that every evaluator made was freed by reference counting alone, and that
a collection then finds no evaluator and no stepbound closure.
"""

import contextlib
import gc
import types
import weakref

import pytest

from conftest import live_keys
from stepbound.corpus import corpus
from stepbound.costs import SEQ_NAT
from stepbound.harness import mutated_corpus, verify
from stepbound.laws import LAWS_CONFIG, catalog, check_law, instances
from stepbound.order import eq_outcome
from stepbound.semantics import (
    DomainConfig, EvalError, EvalMode, Evaluator, evaluate,
)
from stepbound.syntax import (
    NAT, NONDET, PROB, PURE, ArrowTy, Bind, CostLit, FTy, Lam, Program, Ret,
    Step, UTy, Var, nat_lit, state_theory,
)

MODES = (EvalMode.COST_COUNTING, EvalMode.EXTENSIONAL)
SPECS = {s.name: s for s in corpus()}


@contextlib.contextmanager
def watched(monkeypatch):
    """Weak references to the evaluators made in the block, which runs
    with the cyclic collector off and every object a collection finds
    kept in ``gc.garbage``."""
    refs = []
    init = Evaluator.__init__

    def recording_init(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Evaluator, "__init__", recording_init)
    gc.collect()  # what ran before is not the block's garbage
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield refs
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.fixture
def evaluators(monkeypatch):
    with watched(monkeypatch) as refs:
        yield refs


def _ours(obj) -> bool:
    return isinstance(obj, Evaluator) or (
        type(obj) is types.FunctionType
        and (obj.__module__ or "").startswith("stepbound")
    )


def assert_freed(refs):
    """Every evaluator in ``refs`` was freed by reference counting, and a
    collection finds none of them, nor any stepbound function."""
    assert refs, "no evaluator was made"
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} evaluators outlive the check"
    gc.collect()
    left = [obj for obj in gc.garbage if _ours(obj)]
    assert not left, (
        f"{len(left)} evaluators and closures left to the collector, "
        f"such as {left[:3]}"
    )


@pytest.mark.parametrize("name", [
    "insert-upper", "msort-upper", "qsort-upper", "sublist-binomial",
    "state-double-equal",
])
def test_a_first_order_check_frees_its_evaluator(name, evaluators):
    verify(SPECS[name])
    assert_freed(evaluators)


def test_a_failing_check_frees_its_evaluator(evaluators):
    spec = next(s for s in mutated_corpus("isort") if s.name == "isort-lower")
    assert verify(spec).verdict == "fails"
    assert_freed(evaluators)


def test_a_check_too_deep_to_run_frees_its_evaluator(evaluators):
    with pytest.raises(EvalError):
        verify(SPECS["state-double-equal"], domain_override={"state_max": 2000})
    assert_freed(evaluators)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", [
    "twice-hypothesis", "map-const-hypothesis", "map-binomial-hypothesis",
])
def test_a_hypothesis_check_frees_both_evaluators(name, mode, evaluators):
    assert verify(SPECS[name], mode=mode).admitted > 0
    assert len(evaluators) >= 2
    assert_freed(evaluators)


def test_a_law_check_frees_every_instance_evaluator(evaluators):
    law = next(law for law in catalog() if law.name == "lam/step")
    assert check_law(law, trials=100).passed
    assert len(evaluators) >= 100
    assert_freed(evaluators)


THEORIES = {"pure": PURE, "nondet": NONDET, "prob": PROB,
            "state": state_theory(NAT)}
# two equivalent suspensions, returned as ``ret (thunk _)``
SUSPENSIONS = {
    "F": (Ret(nat_lit(1)), Bind(Ret(nat_lit(1)), "x", Ret(Var("x")))),
    "arrow": (Lam("x", NAT, Step(CostLit(1), Ret(Var("x")))),
              Lam("x", NAT, Bind(Step(CostLit(1), Ret(Var("x"))), "y",
                                 Ret(Var("y"))))),
}
SUSPENSION_TYS = {"F": FTy(NAT), "arrow": ArrowTy(NAT, FTy(NAT))}


@pytest.mark.parametrize("at", ["F", "arrow"])
@pytest.mark.parametrize("kind", ["pure", "nondet", "prob", "state"])
def test_deciding_suspensions_frees_the_forcing_evaluator(kind, at,
                                                          monkeypatch):
    # the outcomes are made, and their evaluators collected, before the
    # collector is turned off: only the decision's own evaluator is watched
    ty = FTy(UTy(SUSPENSION_TYS[at]))
    cfg = DomainConfig(nat_max=3, state_max=2)
    a, b = (evaluate(Program("p", THEORIES[kind], SEQ_NAT, Ret(c), ty),
                     EvalMode.COST_COUNTING, cfg)
            for c in SUSPENSIONS[at])
    with watched(monkeypatch) as refs:
        verdict = eq_outcome(a, b)
        assert verdict.holds and "domain-relative" in verdict.note
        assert len(refs) == 1
        assert_freed(refs)


def test_closing_keeps_the_counters_and_is_idempotent():
    theory, lhs, rhs, _ = next(instances(
        next(law for law in catalog() if law.name == "lam/step")))
    ev = Evaluator(theory, SEQ_NAT, EvalMode.COST_COUNTING, LAWS_CONFIG)
    ev.outcome(lhs)
    ev.outcome(rhs)
    counters = ev.table_entries, ev.table_hits
    for _ in range(2):
        ev.close()
        assert (ev.table_entries, ev.table_hits) == counters
        assert not live_keys(ev)
        assert not (ev._compiled or ev._bodies)
