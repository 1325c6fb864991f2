"""Corpus integrity, the verification harness, mutation, CLI plumbing."""

import json
import subprocess
import sys

import pytest

from conftest import nat, natlist, program_evaluator

from stepbound.corpus import BoundSpec, Relation, corpus
from stepbound.costs import WORK_SPAN
from stepbound.harness import (
    CheckReport, assert_helpers_cost_free, format_table, mutated_corpus,
    reports_to_json, run_all, verify, zero_steps,
)
from stepbound.laws import catalog, check_law
from stepbound.semantics import DomainConfig, EvalMode, Evaluator
from stepbound.syntax import PROB, PURE, parse
from stepbound.typecheck import check_program

COST = EvalMode.COST_COUNTING


def by_name(name):
    return next(s for s in corpus() if s.name == name)


def test_corpus_contents():
    specs = corpus()
    assert len(specs) >= 15
    names = {s.name for s in specs}
    assert "isort-upper" in names and "sublist-binomial" in names
    assert by_name("isort-upper").relation is Relation.LEQ_UPPER
    assert by_name("sublist-binomial").relation is Relation.EQUAL


def test_corpus_programs_typecheck_and_share_types():
    specs = corpus()
    hypotheses = [s.hypothesis for s in specs if s.hypothesis is not None]
    assert len(hypotheses) == 3
    for spec in specs + tuple(hypotheses):
        check_program(spec.program)
        check_program(spec.bound)
        assert spec.program.declared_ty == spec.bound.declared_ty, spec.name
        assert spec.program.theory == spec.bound.theory, spec.name


def test_spec_helpers_are_cost_free():
    assert_helpers_cost_free()


def test_verify_double_exact_costs():
    rep = verify(by_name("double-closed-form"))
    assert rep.verdict == "holds"
    assert rep.max_cost == 16 and rep.min_cost == 0


def test_verify_isort_upper_worst_case_cost():
    # the domain's costliest input is the reverse-sorted length-5 list:
    # 5*4/2 = 10 comparisons, comfortably under the quadratic bound
    rep = verify(by_name("isort-upper"))
    assert rep.verdict == "holds"
    assert rep.max_cost == 10 and rep.min_cost == 0


def test_empty_list_instances_cost_zero():
    for name in ("isort-upper", "msort-upper", "qsort-upper"):
        spec = by_name(name)
        ev, body = program_evaluator(spec.program, COST, spec.domain)
        out = ev.outcome(body, (natlist([]),))
        assert out.min_cost() == 0 and out.max_cost() == 0


def test_qsort_nondeterminism_is_benign():
    # every branch returns the reference sort of the input
    spec = by_name("qsort-upper")
    from stepbound.semantics import enumerate_inputs

    ev, body = program_evaluator(spec.program, COST, spec.domain)
    _, inputs = enumerate_inputs(spec.program.declared_ty, spec.domain)
    for (inp,) in inputs:
        out = ev.outcome(body, (inp,))
        xs = sorted(x[1] for x in inp[1])
        expected = natlist(xs)
        assert out.branches, "qsort must not fail"
        for cost, value in out.branches:
            assert value == expected
            assert cost <= len(xs) ** 2


def test_msort_comparisons_within_nlogn():
    import math

    spec = by_name("msort-upper")
    from stepbound.semantics import enumerate_inputs

    ev, body = program_evaluator(spec.program, COST, spec.domain)
    _, inputs = enumerate_inputs(spec.program.declared_ty, spec.domain)
    for (inp,) in inputs:
        out = ev.outcome(body, (inp,))
        n = len(inp[1])
        lg = math.ceil(math.log2(n)) if n > 1 else 0
        assert out.cost <= n * lg
        assert out.value == natlist(sorted(x[1] for x in inp[1]))


def test_hypothesis_specs_report_admitted_counts():
    rep = verify(by_name("twice-hypothesis"))
    assert rep.verdict == "holds"
    assert rep.admitted is not None and rep.admitted >= 50
    assert "not a proof" in rep.note


def test_hypothesis_failure_names_the_candidate():
    import dataclasses

    from stepbound.costs import SEQ_NAT
    from stepbound.syntax import (
        CostLit, FTy, Lam, NAT, Program, Ret, Step, Triv, UTy,
    )

    spec = by_name("twice-hypothesis")
    # one step cannot cover two runs of a one-step argument
    bad_bound = Program(
        "twice-bad-bound", spec.bound.theory, SEQ_NAT,
        Lam("e", UTy(FTy(NAT)), Step(CostLit(1), Ret(Triv()))),
        spec.bound.declared_ty,
    )
    rep = verify(dataclasses.replace(spec, bound=bad_bound))
    assert rep.verdict == "fails"
    assert rep.counterexample["input"].startswith("argument ")


@pytest.mark.parametrize("relation", [Relation.LEQ_LOWER, Relation.EQUAL])
def test_hypothesis_conclusion_decides_the_spec_relation(relation):
    # twice-hypothesis holds as an upper bound only: swapped (bound <= twice)
    # or as an equality it fails on the first admitted candidate
    import dataclasses

    spec = dataclasses.replace(by_name("twice-hypothesis"), relation=relation)
    rep = verify(spec)
    assert rep.verdict == "fails"
    assert rep.counterexample["input"].startswith("argument ")


def test_hypothesis_with_a_domain_of_its_own_is_refused(monkeypatch, capsys):
    # a hypothesis is decided over its spec's domain, so one stating a
    # different domain would be silently ignored
    import dataclasses

    from stepbound import cli, harness
    from stepbound.order import OrderError

    spec = by_name("twice-hypothesis")
    wider = dataclasses.replace(spec.domain, nat_max=spec.domain.nat_max + 1)
    bad = dataclasses.replace(
        spec, hypothesis=dataclasses.replace(spec.hypothesis, domain=wider)
    )
    with pytest.raises(OrderError, match="twice-hypothesis"):
        verify(bad)
    monkeypatch.setattr(harness, "corpus", lambda: (bad,))
    assert cli.main(["check", "--spec", bad.name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stepbound: error: the hypothesis of spec ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("theory", PURE), ("theory", PROB), ("monoid", WORK_SPAN),
], ids=["pure", "prob", "work-span"])
def test_hypothesis_with_a_theory_of_its_own_is_refused(field, value):
    # candidates are generated in the spec's theory and monoid, so a
    # hypothesis in another one would meet operations it cannot run
    import dataclasses

    from stepbound.order import OrderError

    spec = by_name("twice-hypothesis")
    retag = lambda p: dataclasses.replace(p, **{field: value})
    bad = dataclasses.replace(spec, hypothesis=dataclasses.replace(
        spec.hypothesis, program=retag(spec.hypothesis.program),
        bound=retag(spec.hypothesis.bound),
    ))
    with pytest.raises(OrderError, match="^the hypothesis of spec "
                       "'twice-hypothesis' declares its own effect theory"):
        verify(bad)


def test_hypothesis_inconclusive_when_too_few_admitted():
    spec = by_name("twice-hypothesis")
    rep = verify(spec, domain_override={"hyp_candidates": 30})
    assert rep.verdict in ("inconclusive", "holds")
    strict = verify(spec, domain_override={
        "hyp_candidates": 3, "hyp_min_admitted": 50,
    })
    assert strict.verdict == "inconclusive"


def test_mutated_isort_breaks_lower_bound():
    specs = mutated_corpus("isort")
    lower = next(s for s in specs if s.name == "isort-lower")
    rep = verify(lower)
    assert rep.verdict == "fails"
    assert rep.counterexample is not None
    assert rep.counterexample["input"]  # the failing list is reported


def test_mutated_isort_upper_still_holds():
    specs = mutated_corpus("isort")
    upper = next(s for s in specs if s.name == "isort-upper")
    assert verify(upper).verdict == "holds"


def test_zero_steps_strips_charges():
    spec = by_name("double-closed-form")
    mutated = zero_steps(spec.program.body)
    import dataclasses

    prog = dataclasses.replace(spec.program, body=mutated)
    ev, body = program_evaluator(prog, COST, spec.domain)
    out = ev.outcome(body, (nat(5),))
    assert out.cost == 0 and out.value == nat(10)


def test_mutate_unknown_name_raises():
    with pytest.raises(ValueError):
        mutated_corpus("no-such-program")


def test_run_all_single_spec():
    reports, law_reports, code = run_all(spec_name="double-closed-form")
    assert code == 0 and len(reports) == 1 and not law_reports


def test_run_all_unknown_spec():
    with pytest.raises(ValueError):
        run_all(spec_name="missing")


def test_json_report_schema():
    reports, _, _ = run_all(spec_name="double-closed-form")
    law_reports = [check_law(catalog()[0], trials=5)]
    payload = json.loads(reports_to_json(reports, law_reports))
    assert isinstance(payload, list)
    entry, law_entry = payload
    for key in ("name", "relation", "verdict", "domain", "max_cost",
                "min_cost", "millis", "counters"):
        assert key in entry
    assert entry["verdict"] == "holds"
    assert set(entry["counters"]) == {"table_entries", "table_hits"}
    assert law_entry["name"] == f"law:{catalog()[0].name}"
    assert law_entry["millis"] > 0


def test_table_prints_a_work_span_range_with_its_monoid():
    rep = CheckReport(name="ws", relation="leq-upper", verdict="holds",
                      domain={}, max_cost=(3, 2), min_cost=(1, 1),
                      monoid=WORK_SPAN)
    assert "cost[(1 1)..(3 2)]" in format_table([rep], []).splitlines()[0]


def test_verify_reports_the_spec_monoid_for_its_cost_range():
    prog = parse("#cost par\n(: (-> nat (F nat)) (lam (n : nat) "
                 "(step n (ret n))))")
    spec = BoundSpec("ws-double", prog, prog, Relation.EQUAL,
                     DomainConfig(nat_max=3))
    rep = verify(spec)
    assert (rep.min_cost, rep.max_cost) == ((0, 0), (3, 3))
    assert "cost[(0 0)..(3 3)]" in format_table([rep], [])


@pytest.mark.parametrize("mode", [COST, EvalMode.EXTENSIONAL],
                         ids=["cost", "ext"])
@pytest.mark.parametrize("name, decider", [
    ("isort-upper", "leq_outcome"),
    ("isort-lower", "leq_outcome"),
    ("double-closed-form", "eq_outcome"),
    ("isort-msort-ext", "eq_outcome"),
])
def test_verify_decides_through_the_order_deciders(name, decider, mode,
                                                   monkeypatch):
    # wrappers installed on `order`'s deciders see every decision `verify`
    # makes: one per input, by the decider and in the evaluation mode the
    # relation and the run's mode call for
    import dataclasses

    from stepbound import order
    from stepbound.semantics import enumerate_inputs

    calls = {"leq_outcome": [], "eq_outcome": []}
    for attr, seen in calls.items():
        def counting(lhs, rhs, decide=getattr(order, attr), seen=seen):
            seen.append((lhs.mode, rhs.mode))
            return decide(lhs, rhs)

        monkeypatch.setattr(order, attr, counting)
    spec = by_name(name)
    override = {"nat_max": 4, "list_len": 3, "elems": 3}
    assert verify(spec, mode=mode, domain_override=override).ok
    cfg = dataclasses.replace(spec.domain, **override)
    inputs = enumerate_inputs(spec.program.declared_ty, cfg)[1]
    if mode is EvalMode.EXTENSIONAL:
        decider = "eq_outcome"
    ext = mode is EvalMode.EXTENSIONAL or spec.relation is Relation.EXT_EQUAL
    run = EvalMode.EXTENSIONAL if ext else COST
    assert calls[decider] == [(run, run)] * len(inputs)
    assert sum(map(len, calls.values())) == len(inputs)


@pytest.mark.parametrize("name, relations", [
    ("isort-upper", 1),
    # the hypothesis sub-spec and the conclusion
    ("twice-hypothesis", 2),
])
def test_one_evaluator_per_relation(name, relations, monkeypatch):
    made = []
    init = Evaluator.__init__

    def recording_init(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(Evaluator, "__init__", recording_init)
    rep = verify(by_name(name))
    assert len(made) == relations
    assert rep.counters == {
        "table_entries": sum(ev.table_entries for ev in made),
        "table_hits": sum(ev.table_hits for ev in made),
    }
    assert rep.counters["table_entries"] > 0


def test_table_counters_are_deterministic():
    first = verify(by_name("msort-upper")).to_json()["counters"]
    second = verify(by_name("msort-upper")).to_json()["counters"]
    assert first == second
    assert first["table_hits"] > 0


def test_cli_single_spec_and_json(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "stepbound.cli", "check",
         "--spec", "double-closed-form", "--json", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "double-closed-form" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload[0]["name"] == "double-closed-form"


def test_cli_mutation_run_fails(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "stepbound.cli", "check",
         "--spec", "isort-lower", "--mutate", "isort"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "fails" in proc.stdout
    assert "counterexample" in proc.stdout


@pytest.mark.parametrize("args, code", [
    (["--spec", "isort-upper", "--list-len", "3"], 0),
    (["--spec", "isort-lower", "--list-len", "3", "--mutate", "isort"], 1),
])
def test_cli_closed_stdout_keeps_the_exit_status(args, code):
    # `stepbound check | head -0`: the reader is gone before the table is
    # printed, and the exit status still tells whether every check held
    proc = subprocess.Popen(
        [sys.executable, "-m", "stepbound.cli", "check", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == code, stderr
    assert stderr == ""


@pytest.mark.parametrize("args, message", [
    (["--spec", "isort-upper", "--list-len", "-1"], "list_len must be at least 0"),
    (["--spec", "nope"], "no spec named 'nope'"),
    (["--spec", "isort-upper", "--list-len", "7"], "larger than the configured cap"),
])
def test_cli_usage_errors_are_one_line(args, message):
    proc = subprocess.run(
        [sys.executable, "-m", "stepbound.cli", "check", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("stepbound: error: ")
    assert message in proc.stderr and proc.stderr.count("\n") == 1


def test_cli_unwritable_report_path_is_a_usage_error(tmp_path):
    path = tmp_path / "missing" / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "stepbound.cli", "check",
         "--spec", "double-closed-form", "--json", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("stepbound: error: ")
    assert str(path) in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("nat_max", -1), ("list_len", -1), ("state_max", -1), ("elems", 0),
    ("input_cap", 0),
])
def test_domain_config_rejects_bad_bounds(field, value):
    with pytest.raises(ValueError, match=field):
        DomainConfig(**{field: value})


def test_domain_override_flows_through():
    rep = verify(by_name("double-closed-form"),
                 domain_override={"nat_max": 5})
    assert rep.max_cost == 5
