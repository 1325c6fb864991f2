"""What the evaluator computes, pinned by digest.

The digests were printed by the tree-walking interpreter that closure
compilation replaced.  They cover outcomes as printed together with the
evaluation table's entry and hit counts, so the compiled evaluator must
compute, and table, exactly what the interpreter did.
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


# the keys of a report entry that the digests cover: every key an entry
# had when they were recorded except ``millis``; a key added later is
# pinned by its own tests
_PINNED_KEYS = (
    "name", "relation", "verdict", "domain", "max_cost", "min_cost",
    "counters", "counterexample", "admitted", "note",
)


def report_digests(mode: str, check_json) -> dict:
    """Digest of each entry of ``stepbound check --json`` at seed 0,
    over its ``_PINNED_KEYS``."""
    code, entries = check_json(mode)
    assert code == 0
    return {
        e["name"]: _digest([json.dumps(
            {k: e[k] for k in _PINNED_KEYS if k in e}, sort_keys=True
        )])
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
    """Per corpus program: every outcome over its domain, then the table
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
        lines.append(f"entries={ev.table_entries} hits={ev.table_hits}")
        got[program.name] = _digest(lines)
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


# sha256 prefixes printed by the interpreter, except two groups recorded
# since, in each mode: the three hypothesis specs', whose table counters
# fell when each candidate behaviour came to be decided once; and the
# first-order specs' whose table hits fell when the cost range came to be
# folded into the check's one pass, instead of re-evaluating the program
# (nondet-bool-upper's and nondet-unit-upper's counters did not change);
# and the seven sort and lookup specs', whose table counters fell when a
# recursor that ignores its IH came to run as a case, without a table,
# and a relation's program and bound came to share their equal sub-terms
_REPORTS = {
    "cost": {
        "double-closed-form": "ad10428e0d267a95",
        "insert-upper": "229e038aeb0cbe45",
        "isort-lower": "8ef3ab9062aff1ab",
        "isort-msort-ext": "bd8edc1eb66be9fc",
        "isort-upper": "27c689365d96af93",
        "law:bind/assoc": "9b89d7b6f500a24c",
        "law:bind/ret": "b55851dc04d6fb13",
        "law:bind/step": "2b75999e082bb4a2",
        "law:branch/assoc": "8e937f2120bad22b",
        "law:branch/comm": "d727a216eaa4afbb",
        "law:branch/idem": "babe64ad416b9bf0",
        "law:branch/idl": "0739f316c0dd8e5c",
        "law:branch/idr": "92b29e9659875770",
        "law:branch/step": "454f85367aa1ab8b",
        "law:fail/step": "ea39cee98832195e",
        "law:flip/assoc": "22aef5cdb900257e",
        "law:flip/comm": "48130accb35011a5",
        "law:flip/idem": "7e3b04a46f26e998",
        "law:flip/one": "c28b250c58f5e9db",
        "law:flip/step": "a817552e385b02d5",
        "law:flip/zero": "e3c342b8ef4425fb",
        "law:get/get": "2554c470a2109e0b",
        "law:get/set": "197b4d04fa9a4e02",
        "law:get/step": "22fa0cb5383a7988",
        "law:lam/step": "50b505c907148656",
        "law:set/get": "01086ed79694532f",
        "law:set/set": "48a06e19c631934c",
        "law:set/step": "9ff3063b9adab837",
        "law:step/plus": "cfcb87d8f2929cae",
        "law:step/zero": "e4f06743f8e6a62b",
        "lookup-exact": "0881223deae205ff",
        "map-binomial-hypothesis": "59130e815c625194",
        "map-const-hypothesis": "41118a20b8d5629d",
        "msort-upper": "4c3cd17c42684aaf",
        "nondet-bool-upper": "794f3225d49bcef6",
        "nondet-unit-upper": "6f3d595c39cadf53",
        "qsort-upper": "92a0720b00917093",
        "state-double-equal": "a8fb24d6bae4e7a2",
        "sublist-binomial": "4643e941b71df9ff",
        "sublist-upper": "18b021ee417eca15",
        "twice-hypothesis": "5b92abc17a676081",
    },
    "ext": {
        "double-closed-form": "ab89a51acc9856de",
        "insert-upper": "43c1feb3d35718f6",
        "isort-lower": "147cea0bc54431bf",
        "isort-msort-ext": "bd8edc1eb66be9fc",
        "isort-upper": "003303c592ec2b72",
        "law:bind/assoc": "9b89d7b6f500a24c",
        "law:bind/ret": "b55851dc04d6fb13",
        "law:bind/step": "2b75999e082bb4a2",
        "law:branch/assoc": "8e937f2120bad22b",
        "law:branch/comm": "d727a216eaa4afbb",
        "law:branch/idem": "babe64ad416b9bf0",
        "law:branch/idl": "0739f316c0dd8e5c",
        "law:branch/idr": "92b29e9659875770",
        "law:branch/step": "454f85367aa1ab8b",
        "law:fail/step": "ea39cee98832195e",
        "law:flip/assoc": "22aef5cdb900257e",
        "law:flip/comm": "48130accb35011a5",
        "law:flip/idem": "7e3b04a46f26e998",
        "law:flip/one": "c28b250c58f5e9db",
        "law:flip/step": "a817552e385b02d5",
        "law:flip/zero": "e3c342b8ef4425fb",
        "law:get/get": "2554c470a2109e0b",
        "law:get/set": "197b4d04fa9a4e02",
        "law:get/step": "22fa0cb5383a7988",
        "law:lam/step": "50b505c907148656",
        "law:set/get": "01086ed79694532f",
        "law:set/set": "48a06e19c631934c",
        "law:set/step": "9ff3063b9adab837",
        "law:step/plus": "cfcb87d8f2929cae",
        "law:step/zero": "e4f06743f8e6a62b",
        "lookup-exact": "0de576dc82a0cef2",
        "map-binomial-hypothesis": "1666ac3778468038",
        "map-const-hypothesis": "5cad1767e2d87a87",
        "msort-upper": "6c6c93559ae25248",
        "nondet-bool-upper": "22a862f2d188375c",
        "nondet-unit-upper": "bb3b1b4ca2095329",
        "qsort-upper": "b048f8bb4b53a5c6",
        "state-double-equal": "2957b38af89ad31e",
        "sublist-binomial": "f1c43a03e0353fdc",
        "sublist-upper": "e761a8aa1cb9260e",
        "twice-hypothesis": "52a8393098bd4cae",
    },
}

# sha256 prefixes printed by the interpreter, except the eleven programs'
# in each mode that reach a recursor ignoring its IH (insert, isort,
# msort, qsort, lookup and their bounds): their outcome lines are
# unchanged, but their table counters fell when such a recursor came to
# run as a case, without a table
_PROGRAMS = {
    "cost": {
        "bernoulli": "3e145ae6f02db708",
        "binomial": "46a7ac8fdd9fdfc2",
        "binomial-of-len": "ad1c8174bb79fe03",
        "branch-example": "fc04156a4c8f221f",
        "branch-example-bound": "08c8e9a6f7c00ac6",
        "branch-example-unit": "e4ebed98e7fd2a0f",
        "branch-example-unit-bound": "0b5018e886858c91",
        "double": "f3f28287b2459c1d",
        "double-bound": "14a0d230f5f98f09",
        "insert": "3884d3cb982f7a9b",
        "insert-bound": "78c17cd83748e2da",
        "isort": "808fde475854d883",
        "isort-bound": "87204fb1d9076070",
        "isort-lower-bound": "d6b020443f2f3780",
        "lookup": "c2452d9978cdba29",
        "lookup-bound": "271f94168bd479da",
        "map-binomial": "830995f639bde990",
        "map-binomial-bound": "4b419953e2f98c52",
        "map-binomial-hyp": "bb479bb47bb69044",
        "map-binomial-hyp-bound": "f698cf2913ac3345",
        "map-const": "425963d4e347a0e4",
        "map-const-bound": "d4011fa6b1dd6043",
        "map-const-hyp": "bac6ff099dbfd013",
        "map-const-hyp-bound": "e7302d4e62d62612",
        "msort": "24f593689fd21d66",
        "msort-bound": "db37fd967ebfaadb",
        "qsort": "2e74704e0882ebe6",
        "qsort-bound": "0cb2022a0ec0965a",
        "state-double": "b0c73b1c27d92e22",
        "state-double-bound": "b0c73b1c27d92e22",
        "sublist": "9c9ace143915f336",
        "sublist-unit": "15bb333e66d1af12",
        "sublist-unit-bound": "4c4913b9f2679a3f",
        "twice-hyp": "413bed3147b307c4",
        "twice-hyp-bound": "9db93cae794beae2",
        "twice-unit": "16dce798d8809feb",
        "twice-unit-bound": "2a43ef8650738d23",
    },
    "ext": {
        "bernoulli": "5f9feaf5758e2534",
        "binomial": "d867017c4327fd37",
        "binomial-of-len": "f0eb293b2c6da3a0",
        "branch-example": "f4314eeb27f5875a",
        "branch-example-bound": "f4314eeb27f5875a",
        "branch-example-unit": "3babf4c108ed7cb1",
        "branch-example-unit-bound": "3babf4c108ed7cb1",
        "double": "5cd8eadde061bd82",
        "double-bound": "3b0ef93717a11149",
        "insert": "c1b3d838ca947fdb",
        "insert-bound": "2f568a33eb45b289",
        "isort": "38583510d3faee99",
        "isort-bound": "eed6b787e2541f5b",
        "isort-lower-bound": "5122cc021bdd6869",
        "lookup": "efd3269a77e0f5db",
        "lookup-bound": "2aa1d06a443c6734",
        "map-binomial": "440bd15f24a02c2a",
        "map-binomial-bound": "5cc0be1325ee9625",
        "map-binomial-hyp": "7e450b5807a76700",
        "map-binomial-hyp-bound": "049a333f8ef159c0",
        "map-const": "2ca3cbc99a114b4a",
        "map-const-bound": "4bb21e3c411befb9",
        "map-const-hyp": "0cfb8c2e86a8c80f",
        "map-const-hyp-bound": "060e9aee94b4fe0b",
        "msort": "b2c8c1721d4304ed",
        "msort-bound": "12ba8fc5f18674f0",
        "qsort": "849140f749aa5c9d",
        "qsort-bound": "1531f2408210804e",
        "state-double": "ef8fd81559f1c3d1",
        "state-double-bound": "ef8fd81559f1c3d1",
        "sublist": "01cfd3e6dd2ae102",
        "sublist-unit": "08728173a9339503",
        "sublist-unit-bound": "08728173a9339503",
        "twice-hyp": "6c541ffd8a7585cf",
        "twice-hyp-bound": "fad8ba6a295d5487",
        "twice-unit": "65dda801553b1f66",
        "twice-unit-bound": "fad8ba6a295d5487",
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


@pytest.mark.parametrize("mode", ("cost", "ext"))
def test_check_report_is_pinned(mode, check_json):
    assert report_digests(mode, check_json) == _REPORTS[mode]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_program_outcomes_and_counters_are_pinned(mode):
    assert program_digests(mode) == _PROGRAMS[mode.value]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_law_instance_outcomes_are_pinned(mode):
    assert law_digests(mode) == _LAWS[mode.value]
