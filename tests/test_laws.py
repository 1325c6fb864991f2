"""Law catalog: names, determinism, mode stability, mutants."""

import hashlib
import itertools
import random

import pytest

from stepbound.costs import SEQ_NAT
from stepbound.gen import TermGen
from stepbound.laws import (
    LAWS_CONFIG, MAX_RECORDED, catalog, check_law, instance_outcomes,
    instances, mutant_catalog,
)
from stepbound.order import eq_outcome
from stepbound.semantics import EvalMode, Evaluator
from stepbound.syntax import Branch, NONDET, term_str

MODES = (EvalMode.COST_COUNTING, EvalMode.EXTENSIONAL)

EXPECTED_NAMES = {
    "step/zero", "step/plus", "bind/step", "lam/step", "bind/ret",
    "bind/assoc",
    "branch/idl", "branch/idr", "branch/assoc", "branch/comm",
    "branch/idem", "branch/step", "fail/step",
    "flip/zero", "flip/one", "flip/assoc", "flip/comm", "flip/idem",
    "flip/step",
    "get/get", "get/set", "set/get", "set/set", "get/step", "set/step",
}


def test_catalog_has_25_laws():
    laws = catalog()
    assert len(laws) == 25
    assert {l.name for l in laws} == EXPECTED_NAMES


def test_catalog_groups():
    laws = catalog()
    by_theory = {}
    for l in laws:
        by_theory.setdefault(l.theory, []).append(l.name)
    assert len(by_theory[None]) == 6      # step group (4) + monad group (2)
    assert len(by_theory["nondet"]) == 7
    assert len(by_theory["prob"]) == 6
    assert len(by_theory["state"]) == 6


def test_branch_comm_template_swaps_arms():
    law = next(l for l in catalog() if l.name == "branch/comm")
    gen = TermGen(random.Random(0), NONDET)
    lhs, rhs, _ = law.build(gen)
    assert isinstance(lhs, Branch) and isinstance(rhs, Branch)
    assert lhs.left == rhs.right and lhs.right == rhs.left


def test_flip_assoc_carries_side_condition_note():
    law = next(l for l in catalog() if l.name == "flip/assoc")
    assert "1 - (1 - pq)(1 - r)" in law.side_note


def test_each_law_passes_smoke_trials():
    for law in catalog():
        rep = check_law(law, trials=80, seed=0)
        assert rep.passed, (law.name, rep.failures)


def test_laws_pass_in_extensional_mode():
    for law in catalog():
        rep = check_law(law, trials=50, seed=0, mode=EvalMode.EXTENSIONAL)
        assert rep.passed, (law.name, rep.failures)


def test_reports_deterministic_given_seed():
    law = next(l for l in catalog() if l.name == "flip/comm")
    r1 = check_law(law, trials=40, seed=9)
    r2 = check_law(law, trials=40, seed=9)
    assert r1.failures == r2.failures and r1.trials == r2.trials


def test_mutants_are_caught():
    assert len(mutant_catalog()) == 5
    for mutant in mutant_catalog():
        rep = check_law(mutant, trials=200, seed=0)
        assert not rep.passed, f"mutant {mutant.name} slipped through"
        assert rep.failures and "!=" in rep.failures[0]


def test_corrupted_flip_one_reports_witness():
    mutant = next(m for m in mutant_catalog()
                  if m.name == "mutant:flip/one-returns-left")
    rep = check_law(mutant, trials=200, seed=3)
    assert rep.failures


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        check_law(catalog()[0], trials=0)


# check_law(mutant, trials=200, seed=0, mode).failures per mutant: how many
# there are, and the sha256 prefix of the texts joined by newlines.  Each
# text prints the instance and both outcomes.  Recorded when each side of
# an instance had an evaluator of its own.
_MUTANT_FAILURES = {
    "cost": {
        "mutant:flip/one-returns-left": (6, "35ffc27b0ecb7f32"),
        "mutant:step/one-free": (6, "25909c1c2162a5f7"),
        "mutant:branch/left-bias": (6, "c937854031d9da30"),
        "mutant:set/set-keeps-first": (6, "a488fd4ab3cb8728"),
        "mutant:bind/step-drops-cost": (6, "35b575fe9da698a3"),
    },
    # the two cost-only mutants hold once cost is erased
    "ext": {
        "mutant:flip/one-returns-left": (6, "de2fd13dd7b2f537"),
        "mutant:step/one-free": (0, "e3b0c44298fc1c14"),
        "mutant:branch/left-bias": (6, "bc1d965cf3fa92eb"),
        "mutant:set/set-keeps-first": (6, "0ab2915f7d877d13"),
        "mutant:bind/step-drops-cost": (0, "e3b0c44298fc1c14"),
    },
}


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_mutant_failure_texts_are_pinned(mode):
    got, texts = {}, []
    for mutant in mutant_catalog():
        failures = check_law(mutant, trials=200, seed=0, mode=mode).failures
        digest = hashlib.sha256("\n".join(failures).encode()).hexdigest()
        got[mutant.name] = (len(failures), digest[:16])
        texts += failures
    assert got == _MUTANT_FAILURES[mode.value], "\n".join(texts)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_one_evaluator_per_instance_matches_one_per_side(seed, mode):
    # the sides share nodes, closures and table entries in check_law's
    # evaluator; lam/step's λ nodes are tabled
    for law in catalog() + mutant_catalog():
        for theory, lhs, rhs, _ in itertools.islice(instances(law, seed), 50):
            shared = instance_outcomes(theory, lhs, rhs, mode)
            apart = tuple(
                Evaluator(theory, SEQ_NAT, mode, LAWS_CONFIG).outcome(body)
                for body in (lhs, rhs)
            )
            assert shared == apart, law.name
            assert list(map(str, shared)) == list(map(str, apart)), law.name


def _decide_every_instance(law, trials, seed, mode):
    """The failures of ``check_law``'s loop with every instance sent to
    ``eq_outcome``, equal outcomes included."""
    failures = []
    for theory, lhs, rhs, _ in itertools.islice(instances(law, seed), trials):
        ev = Evaluator(theory, SEQ_NAT, mode, LAWS_CONFIG)
        try:
            out_l, out_r = instance_outcomes(theory, lhs, rhs, mode, ev)
            if eq_outcome(out_l, out_r).holds:
                continue
            if len(failures) == MAX_RECORDED:
                failures.append("...")
                break
            failures.append(
                f"under {theory.kind}: {term_str(lhs)}  !=  "
                f"{term_str(rhs)}  ({out_l} vs {out_r})"
            )
        finally:
            ev.close()
    return failures


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("seed", [0, 1])
def test_equal_outcomes_skip_the_decider_without_changing_a_report(seed,
                                                                    mode):
    for law in catalog() + mutant_catalog():
        report = check_law(law, trials=100, seed=seed, mode=mode)
        assert report.trials == 100, law.name
        assert report.failures == _decide_every_instance(law, 100, seed,
                                                         mode), law.name
