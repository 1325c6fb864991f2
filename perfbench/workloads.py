"""The benchmark's workloads, as fixed lists of named checks.

A check is ``(kind, name, mode)``:

* ``("spec", NAME, "cost")`` -- ``verify`` of the corpus spec NAME;
* ``("mutated", NAME, "cost")`` -- ``verify`` of spec NAME in the corpus
  returned by ``mutated_corpus(MUTATE[NAME])`` (the ``--mutate`` self-test);
* ``("law", NAME, MODE)`` -- ``check_law`` of the law or mutant law NAME at
  ``LAW_TRIALS`` trials in mode ``cost`` or ``ext``.

The lists are spelled out rather than read from the corpus or the law
catalog, so the benchmark keeps measuring the same work when those grow.
This module imports nothing from stepbound: ``run.py`` uses it without
loading the code under test.
"""

LAW_TRIALS = 500

MUTATE = {"isort-lower": "isort"}

FO_SPECS = (
    "double-closed-form", "insert-upper", "isort-upper", "isort-lower",
    "msort-upper", "qsort-upper", "lookup-exact", "nondet-bool-upper",
    "nondet-unit-upper", "state-double-equal",
)

PROB_HYP_SPECS = (
    "sublist-binomial", "sublist-upper", "twice-hypothesis",
    "map-const-hypothesis", "map-binomial-hypothesis",
)

LAWS = (
    "step/zero", "step/plus", "bind/step", "lam/step", "bind/ret",
    "bind/assoc", "branch/idl", "branch/idr", "branch/assoc", "branch/comm",
    "branch/idem", "branch/step", "fail/step", "flip/zero", "flip/one",
    "flip/assoc", "flip/comm", "flip/idem", "flip/step", "get/get",
    "get/set", "set/get", "set/set", "get/step", "set/step",
)

MUTANT_LAWS = (
    "mutant:flip/one-returns-left", "mutant:step/one-free",
    "mutant:branch/left-bias", "mutant:set/set-keeps-first",
    "mutant:bind/step-drops-cost",
)

WORKLOADS = {
    "fo-tabulate": tuple(("spec", n, "cost") for n in FO_SPECS)
    + (("mutated", "isort-lower", "cost"),),
    "prob-hyp": tuple(("spec", n, "cost") for n in PROB_HYP_SPECS),
    "laws": tuple(
        ("law", n, mode)
        for mode in ("cost", "ext")
        for n in LAWS + MUTANT_LAWS
    ),
    # a few seconds of every kind of check, for the benchmark's self-tests
    "smoke": (
        ("spec", "double-closed-form", "cost"),
        ("spec", "nondet-bool-upper", "cost"),
        ("spec", "sublist-upper", "cost"),
        ("spec", "twice-hypothesis", "cost"),
        ("law", "flip/comm", "cost"),
        ("law", "mutant:step/one-free", "ext"),
    ),
}

# Checks that only a traced run makes, after the workload's own checks and
# outside its check_s.  isort-msort-ext repeats msort's evaluation and would
# add about 22 s to every untraced run of the workload it joined; it is
# timed in the traced run of laws, the workload with the shortest runs, so
# that no traced run comes near the 180 s limit.
TRACE_EXTRA = {"laws": (("spec", "isort-msort-ext", "cost"),)}

ALL_SPECS = FO_SPECS + ("isort-msort-ext",) + PROB_HYP_SPECS
LAW_THEORIES = ("any", "pure", "nondet", "prob", "state")


def label(check) -> str:
    """The name a check is reported under."""
    kind, name, mode = check
    if kind == "mutated":
        return f"{name}-mutated"
    if kind == "law":
        return f"law:{name}:{mode}"
    return name
