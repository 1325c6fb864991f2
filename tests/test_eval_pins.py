"""What the evaluator computes, pinned by digest.

The outcome digests were printed by the tree-walking interpreter that
closure compilation replaced, so the compiled evaluator must compute
exactly what the interpreter did.  Each outcome digest has a counters
digest beside it, over the evaluation table's entry and hit counts, so a
mismatch names the entry and says which of the two moved: a change that
shares or skips evaluation may move counters, never outcomes.
"""

import hashlib
import itertools
import json
import random

import pytest

from stepbound.corpus import ALL_PROGRAMS, corpus
from stepbound.costs import SEQ_NAT
from stepbound.gen import TermGen
from stepbound.laws import LAWS_CONFIG, catalog, instances, mutant_catalog
from stepbound.semantics import (
    DomainConfig, EvalMode, Evaluator, enumerate_inputs,
)
from stepbound.syntax import UTy, unfold_arrows
from stepbound.typecheck import elaborate

MODES = (EvalMode.COST_COUNTING, EvalMode.EXTENSIONAL)

# candidates fixed as the leading argument of a program over a suspension
_LEADS = 10
# the domain of a corpus program that no spec checks
_LOOSE_DOMAIN = DomainConfig(nat_max=4, list_len=4, elems=2)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# the keys of a report entry that the outcome digests cover: every key an
# entry had when they were recorded except ``millis`` and ``counters``,
# which the counters digests cover; a key added later is pinned by its own
# tests
_PINNED_KEYS = (
    "name", "relation", "verdict", "domain", "max_cost", "min_cost",
    "counterexample", "admitted", "note",
)


def report_digests(mode: str, check_json) -> dict:
    """``(outcome digest, counters digest)`` of each entry of ``stepbound
    check --json`` at seed 0: the first over its ``_PINNED_KEYS``, the
    second over its ``counters`` (null for a law)."""
    code, entries = check_json(mode)
    assert code == 0
    return {
        e["name"]: (
            _digest([json.dumps({k: e[k] for k in _PINNED_KEYS if k in e},
                                sort_keys=True)]),
            _digest([json.dumps(e.get("counters"), sort_keys=True)]),
        )
        for e in entries
    }


def _domain_of(program):
    """The domain config of the first spec that checks ``program``."""
    for spec in corpus():
        for s in (spec, spec.hypothesis):
            if s is not None and program in (s.program, s.bound):
                return s.domain
    return _LOOSE_DOMAIN


def _leads(program, cfg):
    """Leading argument values: candidate suspensions when the program
    takes one first, none otherwise."""
    arg_tys, _ = unfold_arrows(program.declared_ty)
    if not arg_tys or not isinstance(arg_tys[0], UTy):
        return [()]
    gen = TermGen(random.Random(0), program.theory)
    return [(("thunk", (), gen.closed_comp(arg_tys[0].comp, cfg.hyp_depth)),)
            for _ in range(_LEADS)]


def program_digests(mode: EvalMode) -> dict:
    """Per corpus program: ``(outcome digest, counters digest)``, the
    first over every outcome over its domain, the second over the table
    counters of the one evaluator that computed them."""
    got = {}
    for program in ALL_PROGRAMS:
        cfg = _domain_of(program)
        ev = Evaluator(program.theory, program.monoid, mode, cfg)
        body = elaborate(program).body
        lines = []
        for lead in _leads(program, cfg):
            _, inputs = enumerate_inputs(program.declared_ty, cfg, lead)
            lines += [str(ev.outcome(body, args)) for args in inputs]
        got[program.name] = (
            _digest(lines),
            _digest([f"entries={ev.table_entries} hits={ev.table_hits}"]),
        )
    return got


def law_digests(mode: EvalMode) -> dict:
    """Per law and mutant: both outcomes of its first 20 instances."""
    got = {}
    for law in catalog() + mutant_catalog():
        lines = []
        for theory, lhs, rhs, ty in itertools.islice(instances(law, 0), 20):
            for body in (lhs, rhs):
                ev = Evaluator(theory, SEQ_NAT, mode, LAWS_CONFIG)
                lines.append(str(ev.outcome(body)))
                lines.append(f"entries={ev.table_entries} "
                             f"hits={ev.table_hits}")
        got[law.name] = _digest(lines)
    return got


# (outcome digest, counters digest) per entry.  The two halves were first
# recorded together, the outcomes as printed by the tree-walking
# interpreter that closure compilation replaced, and the counters
# re-recorded whenever an evaluation change made fewer table entries or
# hits; they were split on a checkout that matched every combined digest.
# Since then only map-binomial-hypothesis's counters moved, in each mode:
# its table hits fell when a prob bind came to evaluate an inner
# scrutinee that does not name its variable once per run, not once per
# key
_REPORTS = {
    "cost": {
        "double-closed-form": ("bb838e25f41f62e9", "a312dca6134c1f8f"),
        "insert-upper": ("be2949fe212f8bd6", "c24d3c9f66477d19"),
        "isort-lower": ("affdb3976fecd973", "9b66080a96dccfed"),
        "isort-msort-ext": ("9f3bec781cf649ad", "3aa9d313f3c5d904"),
        "isort-upper": ("947fe4d8adc50d18", "f947ef0489e17a2d"),
        "law:bind/assoc": ("9b89d7b6f500a24c", "74234e98afe7498f"),
        "law:bind/ret": ("b55851dc04d6fb13", "74234e98afe7498f"),
        "law:bind/step": ("2b75999e082bb4a2", "74234e98afe7498f"),
        "law:branch/assoc": ("8e937f2120bad22b", "74234e98afe7498f"),
        "law:branch/comm": ("d727a216eaa4afbb", "74234e98afe7498f"),
        "law:branch/idem": ("babe64ad416b9bf0", "74234e98afe7498f"),
        "law:branch/idl": ("0739f316c0dd8e5c", "74234e98afe7498f"),
        "law:branch/idr": ("92b29e9659875770", "74234e98afe7498f"),
        "law:branch/step": ("454f85367aa1ab8b", "74234e98afe7498f"),
        "law:fail/step": ("ea39cee98832195e", "74234e98afe7498f"),
        "law:flip/assoc": ("22aef5cdb900257e", "74234e98afe7498f"),
        "law:flip/comm": ("48130accb35011a5", "74234e98afe7498f"),
        "law:flip/idem": ("7e3b04a46f26e998", "74234e98afe7498f"),
        "law:flip/one": ("c28b250c58f5e9db", "74234e98afe7498f"),
        "law:flip/step": ("a817552e385b02d5", "74234e98afe7498f"),
        "law:flip/zero": ("e3c342b8ef4425fb", "74234e98afe7498f"),
        "law:get/get": ("2554c470a2109e0b", "74234e98afe7498f"),
        "law:get/set": ("197b4d04fa9a4e02", "74234e98afe7498f"),
        "law:get/step": ("22fa0cb5383a7988", "74234e98afe7498f"),
        "law:lam/step": ("50b505c907148656", "74234e98afe7498f"),
        "law:set/get": ("01086ed79694532f", "74234e98afe7498f"),
        "law:set/set": ("48a06e19c631934c", "74234e98afe7498f"),
        "law:set/step": ("9ff3063b9adab837", "74234e98afe7498f"),
        "law:step/plus": ("cfcb87d8f2929cae", "74234e98afe7498f"),
        "law:step/zero": ("e4f06743f8e6a62b", "74234e98afe7498f"),
        "lookup-exact": ("9083d08cac310d7d", "8bd04eed92740832"),
        "map-binomial-hypothesis": ("d6a83da3b88e41ce", "64303cc07b7af665"),
        "map-const-hypothesis": ("b30d2f1a3413534c", "d627f236534f8e1f"),
        "msort-upper": ("eaca351f2e4cc047", "85ba3b577adee7ab"),
        "nondet-bool-upper": ("303f9e4ebe0c43f3", "cef713f8983562c4"),
        "nondet-unit-upper": ("de98517cf9e1fe75", "cef713f8983562c4"),
        "qsort-upper": ("91348a61185c1d11", "8c374542e8857f74"),
        "state-double-equal": ("2af1ded771894332", "c98d6ef6483c694e"),
        "sublist-binomial": ("171eb1cff7259852", "0c2ab985f7256665"),
        "sublist-upper": ("7dae5862a6768627", "e012fea6662fe6b0"),
        "twice-hypothesis": ("bab71be574a5a308", "e68e94141b6b6556"),
    },
    "ext": {
        "double-closed-form": ("5628cf6c24ff57dc", "a312dca6134c1f8f"),
        "insert-upper": ("5213b27ae73261f8", "c24d3c9f66477d19"),
        "isort-lower": ("54b308ddc7f5fdab", "9b66080a96dccfed"),
        "isort-msort-ext": ("9f3bec781cf649ad", "3aa9d313f3c5d904"),
        "isort-upper": ("d7847f0e886782fc", "f947ef0489e17a2d"),
        "law:bind/assoc": ("9b89d7b6f500a24c", "74234e98afe7498f"),
        "law:bind/ret": ("b55851dc04d6fb13", "74234e98afe7498f"),
        "law:bind/step": ("2b75999e082bb4a2", "74234e98afe7498f"),
        "law:branch/assoc": ("8e937f2120bad22b", "74234e98afe7498f"),
        "law:branch/comm": ("d727a216eaa4afbb", "74234e98afe7498f"),
        "law:branch/idem": ("babe64ad416b9bf0", "74234e98afe7498f"),
        "law:branch/idl": ("0739f316c0dd8e5c", "74234e98afe7498f"),
        "law:branch/idr": ("92b29e9659875770", "74234e98afe7498f"),
        "law:branch/step": ("454f85367aa1ab8b", "74234e98afe7498f"),
        "law:fail/step": ("ea39cee98832195e", "74234e98afe7498f"),
        "law:flip/assoc": ("22aef5cdb900257e", "74234e98afe7498f"),
        "law:flip/comm": ("48130accb35011a5", "74234e98afe7498f"),
        "law:flip/idem": ("7e3b04a46f26e998", "74234e98afe7498f"),
        "law:flip/one": ("c28b250c58f5e9db", "74234e98afe7498f"),
        "law:flip/step": ("a817552e385b02d5", "74234e98afe7498f"),
        "law:flip/zero": ("e3c342b8ef4425fb", "74234e98afe7498f"),
        "law:get/get": ("2554c470a2109e0b", "74234e98afe7498f"),
        "law:get/set": ("197b4d04fa9a4e02", "74234e98afe7498f"),
        "law:get/step": ("22fa0cb5383a7988", "74234e98afe7498f"),
        "law:lam/step": ("50b505c907148656", "74234e98afe7498f"),
        "law:set/get": ("01086ed79694532f", "74234e98afe7498f"),
        "law:set/set": ("48a06e19c631934c", "74234e98afe7498f"),
        "law:set/step": ("9ff3063b9adab837", "74234e98afe7498f"),
        "law:step/plus": ("cfcb87d8f2929cae", "74234e98afe7498f"),
        "law:step/zero": ("e4f06743f8e6a62b", "74234e98afe7498f"),
        "lookup-exact": ("7ee90efa6c0f755e", "8bd04eed92740832"),
        "map-binomial-hypothesis": ("dece29d69d74af9d", "1c353abeb54d0b84"),
        "map-const-hypothesis": ("07e71637223b6570", "55a438be3526b1e3"),
        "msort-upper": ("c1e383348d857901", "85ba3b577adee7ab"),
        "nondet-bool-upper": ("e115f35c8de2eeeb", "cef713f8983562c4"),
        "nondet-unit-upper": ("c3e9734504c5bf0b", "cef713f8983562c4"),
        "qsort-upper": ("d432b7f2b0c450c0", "206c554649b77171"),
        "state-double-equal": ("aacbe554215d02d1", "c98d6ef6483c694e"),
        "sublist-binomial": ("8fe734d30995c69c", "0c2ab985f7256665"),
        "sublist-upper": ("8bfaefb9f5fd9e3d", "e012fea6662fe6b0"),
        "twice-hypothesis": ("9aea8bf9b6a47fc5", "eb3fad6297118e5c"),
    },
}

# split as ``_REPORTS`` is, the outcome lines from the interpreter's; only
# map-binomial's counters moved since the split, in each mode, for the
# same reason as map-binomial-hypothesis's
_PROGRAMS = {
    "cost": {
        "bernoulli": ("cfdd1675c564379d", "2b949052f9e79d7f"),
        "binomial": ("6786ff62a2201d86", "9b813ad8e62a61ed"),
        "binomial-of-len": ("e0e66adb0361f8b7", "ac5f771693f09a6a"),
        "branch-example": ("77dfbbb4aa33b690", "2b949052f9e79d7f"),
        "branch-example-bound": ("1142d454614e61d2", "2b949052f9e79d7f"),
        "branch-example-unit": ("4bdbe48fbaf6752e", "2b949052f9e79d7f"),
        "branch-example-unit-bound": ("f69a4521fedebd0e", "2b949052f9e79d7f"),
        "double": ("60036f254b888cba", "d9a995049996871a"),
        "double-bound": ("60036f254b888cba", "f28cd8aacffb6a78"),
        "insert": ("b7d603167d7658b1", "402a56690a069b48"),
        "insert-bound": ("86086218e3f9ae72", "2427587a22bc6917"),
        "isort": ("87772001b6732346", "25c6a34646ee60b9"),
        "isort-bound": ("f49cef84497f4929", "218d5409dcc14afb"),
        "isort-lower-bound": ("6dc8d1e3dc7ad1c1", "77ec662bb1d51c4d"),
        "lookup": ("a05bcfa32a1017b7", "2299b7a3fb9e300b"),
        "lookup-bound": ("a05bcfa32a1017b7", "4b79e6061e8faf49"),
        "map-binomial": ("1a9152c9caa90ded", "250aaa871e94d4f7"),
        "map-binomial-bound": ("15fa499fd55dc526", "9ceefa80f154eb97"),
        "map-binomial-hyp": ("c8947e816f75156e", "c7d09f588a71bc89"),
        "map-binomial-hyp-bound": ("f398d1fc45229b4c", "e7410f356f464d0e"),
        "map-const": ("8f75774a47ec85f8", "250aaa871e94d4f7"),
        "map-const-bound": ("bdb625724bd88b4a", "df12dc00dce81476"),
        "map-const-hyp": ("55e36dac15fcd32d", "c7d09f588a71bc89"),
        "map-const-hyp-bound": ("2721d1b2009aa334", "edef832573af9133"),
        "msort": ("34229efa1d3dcb41", "943506d3a15368a4"),
        "msort-bound": ("acfde574973b836a", "56a2d127bd9f0901"),
        "qsort": ("9ac2ea334cb76308", "f49408f684d30455"),
        "qsort-bound": ("cb25f199bb1d205a", "310624e92458a1c0"),
        "state-double": ("941b7c4f29f72ecf", "3f61399d392f6591"),
        "state-double-bound": ("941b7c4f29f72ecf", "3f61399d392f6591"),
        "sublist": ("5118a0cca413489a", "9dfc3d3bd1b3464b"),
        "sublist-unit": ("e0e66adb0361f8b7", "d5965bbba2a6fbf8"),
        "sublist-unit-bound": ("2f3aca8905b90ffe", "d5965bbba2a6fbf8"),
        "twice-hyp": ("ae8a9f629407a1e8", "2379d4015bdc18f9"),
        "twice-hyp-bound": ("5f6c72478f42ccaa", "2379d4015bdc18f9"),
        "twice-unit": ("ac5912369d9918dd", "8b2a1bf17200c4fc"),
        "twice-unit-bound": ("1de912bd2bb966ec", "2379d4015bdc18f9"),
    },
    "ext": {
        "bernoulli": ("f0f43903a066400d", "2b949052f9e79d7f"),
        "binomial": ("eab43cc1080cc49d", "9b813ad8e62a61ed"),
        "binomial-of-len": ("fa4da15e172ad46f", "ac5f771693f09a6a"),
        "branch-example": ("c622a88f0aedb788", "2b949052f9e79d7f"),
        "branch-example-bound": ("c622a88f0aedb788", "2b949052f9e79d7f"),
        "branch-example-unit": ("465c12212e59cbfb", "2b949052f9e79d7f"),
        "branch-example-unit-bound": ("465c12212e59cbfb", "2b949052f9e79d7f"),
        "double": ("75ec83ea481982b1", "d9a995049996871a"),
        "double-bound": ("75ec83ea481982b1", "f28cd8aacffb6a78"),
        "insert": ("835710013af619b1", "402a56690a069b48"),
        "insert-bound": ("835710013af619b1", "2427587a22bc6917"),
        "isort": ("8da835c56821a6b6", "25c6a34646ee60b9"),
        "isort-bound": ("8da835c56821a6b6", "218d5409dcc14afb"),
        "isort-lower-bound": ("8da835c56821a6b6", "77ec662bb1d51c4d"),
        "lookup": ("8487400a35c91c12", "2299b7a3fb9e300b"),
        "lookup-bound": ("8487400a35c91c12", "4b79e6061e8faf49"),
        "map-binomial": ("09ef2389fa44bcbe", "250aaa871e94d4f7"),
        "map-binomial-bound": ("09ef2389fa44bcbe", "9ceefa80f154eb97"),
        "map-binomial-hyp": ("49b7209f962cc762", "c7d09f588a71bc89"),
        "map-binomial-hyp-bound": ("49b7209f962cc762", "e7410f356f464d0e"),
        "map-const": ("8e2dc312632257c5", "250aaa871e94d4f7"),
        "map-const-bound": ("8e2dc312632257c5", "df12dc00dce81476"),
        "map-const-hyp": ("94d4d1a5420da39d", "c7d09f588a71bc89"),
        "map-const-hyp-bound": ("94d4d1a5420da39d", "edef832573af9133"),
        "msort": ("8da835c56821a6b6", "943506d3a15368a4"),
        "msort-bound": ("8da835c56821a6b6", "56a2d127bd9f0901"),
        "qsort": ("5946763ccea2968b", "2f1d73c459aedd5d"),
        "qsort-bound": ("5946763ccea2968b", "310624e92458a1c0"),
        "state-double": ("f8cb3665a2a0cf8f", "3f61399d392f6591"),
        "state-double-bound": ("f8cb3665a2a0cf8f", "3f61399d392f6591"),
        "sublist": ("b265a3170593040f", "9dfc3d3bd1b3464b"),
        "sublist-unit": ("fa4da15e172ad46f", "d5965bbba2a6fbf8"),
        "sublist-unit-bound": ("fa4da15e172ad46f", "d5965bbba2a6fbf8"),
        "twice-hyp": ("523d2d88765b737a", "2379d4015bdc18f9"),
        "twice-hyp-bound": ("3fb07340be567b95", "2379d4015bdc18f9"),
        "twice-unit": ("523d2d88765b737a", "7baff9060cdbfd61"),
        "twice-unit-bound": ("3fb07340be567b95", "2379d4015bdc18f9"),
    },
}

_LAWS = {
    "cost": {
        "bind/assoc": "6baab8ecf989ee0a",
        "bind/ret": "c334028058a3da92",
        "bind/step": "572b292de76a4b24",
        "branch/assoc": "a7e40e3893ae3df6",
        "branch/comm": "f67369a8373c8408",
        "branch/idem": "31f96d9218a4580f",
        "branch/idl": "3d569ffd4dfaf511",
        "branch/idr": "4b9b4fd9a5f68aa3",
        "branch/step": "c766360e01cebdd6",
        "fail/step": "9f3b5d61d8b55a9b",
        "flip/assoc": "30733281aa5a7acc",
        "flip/comm": "bd807784fdd38d6d",
        "flip/idem": "8fbb74adb4acf749",
        "flip/one": "93d2febc1c9418df",
        "flip/step": "77caf1706e061203",
        "flip/zero": "ff7995c192a2b98e",
        "get/get": "3eba8eaa993d87e1",
        "get/set": "0e60b503c3f9918a",
        "get/step": "d5b8d888573e77b9",
        "lam/step": "41883273ca3eae03",
        "mutant:bind/step-drops-cost": "b123cd1c393c77c6",
        "mutant:branch/left-bias": "03ff6480fce425d0",
        "mutant:flip/one-returns-left": "2e7a0080c2d0b94d",
        "mutant:set/set-keeps-first": "36506dabd7e9484f",
        "mutant:step/one-free": "b3c389cf53df42da",
        "set/get": "5203e2c102162a6e",
        "set/set": "04f10e0936193bf1",
        "set/step": "7512ec4aad98a9ac",
        "step/plus": "21a077e810b5dfec",
        "step/zero": "89f3ae5f33932fa0",
    },
    "ext": {
        "bind/assoc": "39c5f50cfd7bdb1d",
        "bind/ret": "b8f8289cd634c583",
        "bind/step": "c447ec20bf4bdeca",
        "branch/assoc": "e81e0b397a5efc88",
        "branch/comm": "e70b845c808ee12b",
        "branch/idem": "ec3eb65b82f3b1d6",
        "branch/idl": "481626d1e036a68b",
        "branch/idr": "5e14d12ed2af2767",
        "branch/step": "b3e759135feee9c3",
        "fail/step": "9f3b5d61d8b55a9b",
        "flip/assoc": "76587bee83d6fcfc",
        "flip/comm": "1c0cb8dd0bcade8e",
        "flip/idem": "e43b9e74d5ef4b86",
        "flip/one": "cec9184f076070e7",
        "flip/step": "978fe900b64aef62",
        "flip/zero": "39ebb48560c78d38",
        "get/get": "90bfb7691d555d9f",
        "get/set": "297180864cc3cf2c",
        "get/step": "8b238f07ae8bb355",
        "lam/step": "6ff8c1888dc226dc",
        "mutant:bind/step-drops-cost": "a3b235066a46234c",
        "mutant:branch/left-bias": "35da775a492871f3",
        "mutant:flip/one-returns-left": "afaef3a29eb60531",
        "mutant:set/set-keeps-first": "37f41dc66c16406a",
        "mutant:step/one-free": "77376d60f73862d7",
        "set/get": "1fd0c3ea58b676fe",
        "set/set": "19c43a441c3d7048",
        "set/step": "2dcebb2561b4c74d",
        "step/plus": "0c9a9e36b283db71",
        "step/zero": "e4f9aa57464693b0",
    },
}


def _moved(got: dict, pinned: dict) -> dict:
    """Each entry whose digests differ from the pinned ones, with the
    halves that moved."""
    halves = ("outcome", "counters")
    return {
        name: [h for h, g, p in zip(halves, got.get(name, (None,) * 2),
                                     pinned.get(name, (None,) * 2)) if g != p]
        for name in pinned.keys() | got.keys()
        if got.get(name) != pinned.get(name)
    }


@pytest.mark.parametrize("mode", ("cost", "ext"))
def test_check_report_is_pinned(mode, check_json):
    assert _moved(report_digests(mode, check_json), _REPORTS[mode]) == {}


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_program_outcomes_and_counters_are_pinned(mode):
    assert _moved(program_digests(mode), _PROGRAMS[mode.value]) == {}


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_law_instance_outcomes_are_pinned(mode):
    assert law_digests(mode) == _LAWS[mode.value]
