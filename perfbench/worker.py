"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass and once per extra set-up
sample; it can also be run by hand from the root of a checkout::

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload prob-hyp --seed 3 [--trace]

It prints ``ready`` as soon as ``import stepbound`` and ``corpus()`` have
returned, then (unless ``--setup-only``) one JSON line: a record per check,
the pass totals and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

from workloads import LAW_THEORIES, LAW_TRIALS, MUTATE, TRACE_EXTRA, \
    WORKLOADS, ALL_SPECS, label

MICRO_PAIRS = 1000
MICRO_REPEATS = 3
PARSE_REPEATS = 5


def import_stepbound(src: str):
    """Import stepbound from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import stepbound

    if not os.path.abspath(stepbound.__file__).startswith(src + os.sep):
        raise ImportError(f"stepbound was imported from {stepbound.__file__}, "
                          f"not from {src}")
    return stepbound


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs named checks against the imported package."""

    def __init__(self, seed: int):
        from stepbound import corpus, harness, laws, semantics

        self.seed = seed
        # held before any tracing, so that counting units records no span
        self._enumerate = semantics.enumerate_inputs
        self.harness = harness
        self.laws = laws
        self.specs = {s.name: s for s in corpus()}
        self.law_by_name = {
            law.name: law for law in laws.catalog() + laws.mutant_catalog()
        }
        self._mutated = {}

    def spec_of(self, check):
        kind, name, _ = check
        if kind != "mutated":
            return self.specs[name]
        if name not in self._mutated:
            self._mutated[name] = next(
                s for s in self.harness.mutated_corpus(MUTATE[name])
                if s.name == name
            )
        return self._mutated[name]

    def call(self, check):
        """Run one check; module attributes are looked up at call time so
        that the tracer's wrappers apply."""
        from stepbound.semantics import EvalMode

        kind, name, mode = check
        if kind == "law":
            return self.laws.check_law(self.law_by_name[name],
                                       trials=LAW_TRIALS, seed=self.seed,
                                       mode=EvalMode(mode))
        return self.harness.verify(self.spec_of(check), seed=self.seed)

    def run(self, checks, tracer=None):
        """Run ``checks`` in order; return (records, wall seconds, cpu s)."""
        results = []
        wall0, cpu0 = time.perf_counter(), cpu_s()
        for check in checks:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = self.call(check)
                else:
                    with tracer.root("bench.check", label=label(check)):
                        result = self.call(check)
            except Exception as e:  # a crashing check is a failed check
                result = e
            results.append((check, result, time.perf_counter() - t0))
        wall, cpu = time.perf_counter() - wall0, cpu_s() - cpu0
        return [self.record(*r) for r in results], wall, cpu

    def record(self, check, result, seconds) -> dict:
        kind, name, mode = check
        rec = {"label": label(check), "kind": kind, "name": name,
               "mode": mode, "seconds": seconds}
        if isinstance(result, Exception):
            rec.update(verdict="error", units=0,
                       error=f"{type(result).__name__}: {result}")
        elif kind == "law":
            # a failing law stops early without saying after how many
            # trials, so it counts only the failing trials it recorded
            rec.update(verdict="holds" if result.passed else "fails",
                       units=result.trials if result.passed
                       else len(result.failures))
        else:
            rec.update(verdict=result.verdict,
                       units=self.spec_units(check, result),
                       admitted=result.admitted,
                       cost=None if result.max_cost is None
                       else [result.min_cost, result.max_cost])
        return rec

    def spec_units(self, check, report) -> int:
        """Inputs decided, or hypothesis candidates generated."""
        from stepbound.semantics import val_str

        spec = self.spec_of(check)
        if spec.hypothesis is not None:
            return spec.domain.hyp_candidates
        _, inputs = self._enumerate(spec.program.declared_ty, spec.domain)
        witness = (report.counterexample or {}).get("input")
        if witness is None:
            return len(inputs)
        for i, args in enumerate(inputs):
            if ", ".join(val_str(a) for a in args) == witness:
                return i + 1
        return len(inputs)


# ---------------------------------------------------------------------------
# Micro-benches for layers the workloads load lightly
# ---------------------------------------------------------------------------


def median_time(fn, repeats):
    """Median seconds of ``repeats`` calls of ``fn``, and its last result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def micro_order(seed: int):
    """Seeded prob pairs (a, b) with a <= b by construction, decided through
    ``leq_outcome`` (the CDF path for nat costs) and through
    ``transportation_oracle`` (max-flow).  Returns pairs/s for each."""
    from stepbound import gen, order

    rng = random.Random(seed)
    pairs = []
    for _ in range(MICRO_PAIRS):
        a = gen.gen_outcome(rng, "prob")
        pairs.append((a, gen.raise_outcome(rng, a)))
    lists = [(list(a.dist), list(b.dist)) for a, b in pairs]
    rel = lambda x, y: x[1] == y[1] and x[0] <= y[0]
    cdf_t, cdf_ok = median_time(
        lambda: all(order.leq_outcome(a, b).holds for a, b in pairs),
        MICRO_REPEATS)
    flow_t, flow_ok = median_time(
        lambda: all(order.transportation_oracle(a, b, rel) for a, b in lists),
        MICRO_REPEATS)
    return MICRO_PAIRS / cdf_t, MICRO_PAIRS / flow_t, cdf_ok and flow_ok


def micro_parse():
    """Print every corpus program, then time parsing the texts back.
    Returns (seconds for all programs, characters, round trip ok)."""
    from stepbound.corpus import ALL_PROGRAMS
    from stepbound.syntax import parse, print_program

    texts = [print_program(p) for p in ALL_PROGRAMS]
    seconds, parsed = median_time(lambda: [parse(t) for t in texts],
                                  PARSE_REPEATS)
    ok = all(print_program(p) == t for p, t in zip(parsed, texts))
    return seconds, sum(map(len, texts)), ok


def dist_rebuild(dists):
    """Rebuild each distribution through ``Dist(...)``; returns (median
    seconds over repeats, items, every rebuild equal to its original)."""
    from stepbound.semantics import Dist

    mappings = [dict(d) for d in dists]
    seconds, rebuilt = median_time(lambda: [Dist(m) for m in mappings],
                                   MICRO_REPEATS)
    ok = all(r == d for r, d in zip(rebuilt, dists))
    return seconds, sum(len(d) for d in dists), ok


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, n_workload, records, seed) -> tuple[dict, bool]:
    """Per-layer metrics from the first ``n_workload`` spans, which belong
    to the workload's own checks; per-check times from all ``spans``."""
    by_name: dict = {}
    for s in spans[:n_workload]:
        by_name.setdefault(s.name, []).append(s)
    get = lambda name: by_name.get(name, [])
    parent_name = lambda s: spans[s.parent].name if s.parent >= 0 else ""

    m = {}
    outcomes = get("semantics.outcome")
    m["semantics.eval_s"] = sum((s.self_s for s in outcomes), 0.0)
    m["semantics.outcome_calls"] = len(outcomes)
    m["semantics.support_items"] = sum(s.attrs["support"] for s in outcomes)
    m["semantics.enumerate_s"] = sum(
        (s.duration for s in get("semantics.enumerate")), 0.0)
    m["semantics.inputs"] = sum(s.attrs["inputs"]
                                for s in get("semantics.enumerate"))
    dists = list({id(s.attrs["dist"]): s.attrs["dist"]
                  for s in outcomes if "dist" in s.attrs}.values())
    m["semantics.dist_rebuild_s"], m["semantics.dist_items"], dist_ok = \
        dist_rebuild(dists)
    m["typecheck.elaborate_s"] = sum(
        (s.self_s for s in get("typecheck.elaborate")), 0.0)
    m["typecheck.elaborate_calls"] = len(get("typecheck.elaborate"))
    m["gen.closed_comp_s"] = sum((s.self_s for s in get("gen.term")), 0.0)
    m["gen.candidates"] = sum(1 for s in get("gen.term")
                              if parent_name(s) == "harness.verify")
    m["gen.admitted"] = sum(r.get("admitted") or 0 for r in records)
    m["order.decide_s"] = sum((s.duration for s in get("order.decide")),
                             0.0)
    m["order.decide_calls"] = len(get("order.decide"))
    m["order.cdf_calls"] = len(get("order.cdf"))
    m["order.flow_calls"] = len(get("order.flow"))
    cdf_rate, flow_rate, order_ok = micro_order(seed)
    m["order.micro_cdf_pairs_per_s"] = cdf_rate
    m["order.micro_flow_pairs_per_s"] = flow_rate
    m["laws.trials"] = sum(1 for s in get("order.decide")
                           if parent_name(s) == "laws.check_law")
    for theory in LAW_THEORIES:
        m[f"laws.check_law_s.{theory}"] = sum(
            (s.duration for s in get("laws.check_law")
             if s.attrs["theory"] == theory), 0.0)
    parse_s, chars, parse_ok = micro_parse()
    m["syntax.parse_s"] = parse_s
    m["syntax.parse_chars_per_s"] = chars / parse_s
    verify_s = {}
    for s in spans:
        if s.name == "harness.verify":
            key = spans[s.parent].attrs["label"]
            verify_s[key] = verify_s.get(key, 0.0) + s.duration
    for spec in ALL_SPECS + tuple(f"{n}-mutated" for n in MUTATE):
        m[f"harness.verify_s.{spec}"] = verify_s.get(spec, 0.0)
    m["harness.self_s"] = sum((s.self_s for s in get("harness.verify")),
                             0.0)
    return m, dist_ok and order_ok and parse_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_stepbound(os.path.abspath(args.src))
    runner = Runner(args.seed)  # calls corpus(), which type-checks it
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    checks = WORKLOADS[args.workload]
    records, wall, cpu = runner.run(checks, tracer)
    out = {"records": records, "check_s": wall, "check_cpu_s": cpu}
    if tracer is not None:
        n_workload = len(tracer.spans)
        extra, _, _ = runner.run(TRACE_EXTRA.get(args.workload, ()), tracer)
        tracer.uninstall()
        out["extra_records"] = extra
        out["layers"], out["micro_ok"] = layer_metrics(
            tracer.spans, n_workload, records, args.seed)
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
