"""Generated terms are born elaborated, and draw the same terms as before.

The law checker and the hypothesis harness hand generated terms to the
evaluator without running the checker, so these properties re-elaborate
them: the checker must return the same tree with the same annotations.
"""

import hashlib
import itertools
import random

import pytest

from test_typecheck import _annotations

from stepbound.corpus import corpus
from stepbound.costs import SEQ_NAT
from stepbound.gen import STATE_NAT, TermGen, synthesizes
from stepbound.laws import catalog, check_law, instances, mutant_catalog
from stepbound.syntax import (
    BOOL, NAT, NONDET, PROB, PURE, UNIT, FTy, term_str, unfold_arrows,
)
from stepbound.typecheck import Checker, TypeCheckError

ALL_LAWS = catalog() + mutant_catalog()
THEORIES = (PURE, NONDET, PROB, STATE_NAT)
HYP_SPECS = [s for s in corpus() if s.hypothesis is not None]


def _assert_born_elaborated(theory, term, ty):
    elab = Checker(theory, SEQ_NAT).check_comp((), term, ty)
    assert elab == term
    assert _annotations(elab) == _annotations(term), term_str(term)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.name)
def test_law_instances_are_born_elaborated(law):
    for seed in range(200):
        for theory, lhs, rhs, ty in itertools.islice(instances(law, seed), 2):
            _assert_born_elaborated(theory, lhs, ty)
            _assert_born_elaborated(theory, rhs, ty)


@pytest.mark.parametrize("theory", THEORIES, ids=lambda t: t.kind)
def test_generated_programs_are_born_elaborated(theory):
    for seed in range(300):
        prog = TermGen(random.Random(seed), theory).program(depth=5)
        _assert_born_elaborated(theory, prog.body, prog.declared_ty)


@pytest.mark.parametrize("spec", HYP_SPECS, ids=lambda s: s.name)
def test_hypothesis_candidates_are_born_elaborated(spec):
    inner_ty = unfold_arrows(spec.program.declared_ty)[0][0].comp
    gen = TermGen(random.Random(0), spec.program.theory)
    for _ in range(300):
        cand = gen.closed_comp(inner_ty, spec.domain.hyp_depth)
        _assert_born_elaborated(spec.program.theory, cand, inner_ty)


def test_structural_synthesis_agrees_with_the_checker():
    # the generator asks at the bind scrutinee types, open and closed
    rng = random.Random(5)
    tally = {True: 0, False: 0}
    for i in range(12_000):
        theory = THEORIES[i % 4]
        gen = TermGen(rng, theory)
        ctx = {"u": NAT, "w": BOOL} if rng.random() < 0.5 else {}
        term = gen.comp(ctx, FTy(rng.choice((NAT, BOOL, UNIT))),
                        rng.randrange(5))
        try:
            Checker(theory, SEQ_NAT).infer_comp(tuple(ctx.items()), term)
            inferred = True
        except TypeCheckError:
            inferred = False
        assert synthesizes(term) == inferred, term_str(term)
        tally[inferred] += 1
    # both answers occur (only nondet terms can fail to synthesize)
    assert min(tally.values()) >= 100, tally


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# sha256 prefixes of the rendered instances, candidates and failure texts,
# as drawn before generated terms carried their types: typing the nodes
# must not change a single rng draw
_LAW_INSTANCES = {
    "step/zero": "d69d88ae9b6436f9",
    "step/plus": "d6dde202a20abcda",
    "bind/step": "b9c1c08cfa1d6c38",
    "lam/step": "9c787a7e266e47dd",
    "bind/ret": "384a8b3c543b2907",
    "bind/assoc": "5981be1f0d3d7be9",
    "branch/idl": "7cb788de0b23a375",
    "branch/idr": "3e5c21f7d501d3a4",
    "branch/assoc": "fccc376c98c100b9",
    "branch/comm": "2f14d39a187c228e",
    "branch/idem": "c13045742c66265f",
    "branch/step": "d72976ba8696a210",
    "fail/step": "4641b3674af132f3",
    "flip/zero": "a742e6043000a0c8",
    "flip/one": "1a6d08fdc3b09a75",
    "flip/assoc": "11cdec607e7f7958",
    "flip/comm": "fe621ebd147c3a91",
    "flip/idem": "1360ba0d0559f43e",
    "flip/step": "501dd09dcc999e25",
    "get/get": "6bef70bd6cdee705",
    "get/set": "c008adce3980fdf1",
    "set/get": "cd2fcba5c838157a",
    "set/set": "b3f74cbd9b43c111",
    "get/step": "5bca9046a6cbbe8d",
    "set/step": "c6fbf3be47ed1129",
    "mutant:flip/one-returns-left": "e705c5544a28c304",
    "mutant:step/one-free": "da02fcf8c22b6d00",
    "mutant:branch/left-bias": "152af7758c651cf0",
    "mutant:set/set-keeps-first": "9bc74a4f11f4721e",
    "mutant:bind/step-drops-cost": "939cad59bac7175b",
}

_HYP_CANDIDATES = {
    "twice-hypothesis": "4f16ab919a5f02b2",
    "map-const-hypothesis": "86b76f764986f80f",
    "map-binomial-hypothesis": "f4bffe0201b8252e",
}

_MUTANT_FAILURES = {
    "mutant:flip/one-returns-left": "35ffc27b0ecb7f32",
    "mutant:step/one-free": "25909c1c2162a5f7",
    "mutant:branch/left-bias": "c937854031d9da30",
    "mutant:set/set-keeps-first": "a488fd4ab3cb8728",
    "mutant:bind/step-drops-cost": "35b575fe9da698a3",
}


def test_law_instances_are_pinned():
    got = {}
    for law in ALL_LAWS:
        lines = []
        for _, lhs, rhs, _ in itertools.islice(instances(law, 0), 20):
            lines += [term_str(lhs), term_str(rhs)]
        got[law.name] = _digest(lines)
    assert got == _LAW_INSTANCES


def test_hypothesis_candidates_are_pinned():
    got = {}
    for spec in HYP_SPECS:
        inner_ty = unfold_arrows(spec.program.declared_ty)[0][0].comp
        gen = TermGen(random.Random(0), spec.program.theory)
        got[spec.name] = _digest(
            term_str(gen.closed_comp(inner_ty, spec.domain.hyp_depth))
            for _ in range(100)
        )
    assert got == _HYP_CANDIDATES


def test_mutant_failure_texts_are_pinned():
    got = {m.name: _digest(check_law(m, trials=50, seed=0).failures)
           for m in mutant_catalog()}
    assert got == _MUTANT_FAILURES
