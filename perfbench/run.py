"""The stepbound benchmark: one closed-loop workload per run.

Run from the root of a checkout (it imports ``./src/stepbound``)::

    python3 perfbench/run.py --workload fo-tabulate --seed 1 --seconds 30 --trace 0

One client runs the workload's checks one after another, each started when
the previous one has ended, in a fresh interpreter per pass.  Passes repeat
while another one fits in ``--seconds``; a run makes at least one.  Set-up
time is sampled in further fresh interpreters.  Every verdict is compared
with ``expected.json``.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics from the traced one, plus the tracing overhead; the two
passes must reach the same verdicts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every verdict is as expected, 1 when one is not, and 2 when no
result could be produced (no sources, a crashed or overdue pass).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from workloads import MUTATE, WORKLOADS, label

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 16
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    """No result can be produced."""


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, root: str, seed: int, deadline: float):
        self.src = os.path.join(root, "src")
        self.root = root
        self.seed = seed
        self.deadline = deadline
        self.setup_samples: list[float] = []
        # the untimed first start writes bytecode caches into the checkout,
        # as an installed package has them, so set-up never times compiling
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)

    def spawn(self, *args) -> dict | None:
        """Run worker.py to its end; the time until it prints ``ready`` is
        one set-up sample.  Returns its JSON result, if it printed one."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--src", self.src, "--seed", str(self.seed), *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        remaining = lambda: max(1.0, self.deadline - time.perf_counter())
        try:
            if not select.select([proc.stdout], [], [], remaining())[0]:
                raise subprocess.TimeoutExpired(cmd, remaining())
            ready = proc.stdout.readline()
            if ready.strip() == "ready":
                self.setup_samples.append(time.perf_counter() - t0)
            out, _ = proc.communicate(timeout=remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"worker {' '.join(args)} overran the run limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RunError(f"worker {' '.join(args)} exited with status "
                           f"{proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def sample_setup(self, n: int):
        for _ in range(n):
            self.spawn("--setup-only")

    def passes(self, workload: str, seconds: float) -> list[dict]:
        """Untraced passes while another one fits in ``seconds``."""
        done, longest = [], 0.0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            done.append(self.spawn("--workload", workload))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now + longest - start > seconds or now + longest > self.deadline:
                return done


def judge(record: dict, expected: dict) -> str:
    """Why ``record`` differs from the expected answer, or '' if it does not."""
    if record["verdict"] == "error":
        return record.get("error", "error")
    kind, name = record["kind"], record["name"]
    if kind == "law":
        want = expected["laws"][record["mode"]].get(name)
        return "" if record["verdict"] == want else \
            f"verdict {record['verdict']}, expected {want}"
    exp = (expected["mutated"] if kind == "mutated" else
           expected["specs"]).get(name)
    if exp is None:
        return "no expected answer"
    if kind == "mutated" and exp.get("mutate") != MUTATE[name]:
        return "expected answer is for another mutation"
    if record["verdict"] != exp["verdict"]:
        return f"verdict {record['verdict']}, expected {exp['verdict']}"
    if "cost" in exp and record.get("cost") != exp["cost"]:
        return f"cost range {record.get('cost')}, expected {exp['cost']}"
    if exp.get("hypothesis") and \
            (record.get("admitted") or 0) < expected["hyp_min_admitted"]:
        return f"only {record.get('admitted')} candidates admitted"
    return ""


def pass_metrics(p: dict) -> dict:
    recs = p["records"]
    return {
        "check_s": p["check_s"],
        "check_cpu_s": p["check_cpu_s"],
        "slowest_verdict_s": max(r["seconds"] for r in recs),
        "decided_per_s": sum(r["units"] for r in recs) / p["check_s"],
        "peak_rss_mb": p["peak_rss_mb"],
    }


UNITS = {"setup_s": "s", "check_s": "s", "check_cpu_s": "s",
         "slowest_verdict_s": "s", "decided_per_s": "1/s",
         "peak_rss_mb": "MB", "failed_share": "share"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "char/s" if name.startswith("syntax.") else "1/s"
    return "s" if name.endswith("_s") or "_s." in name else "count"


def source_id(root: str) -> str:
    """The commit, when the checkout is a git work tree, and a digest of
    the package sources, which identifies the code in any case."""
    commit = "none"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "stepbound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return f"commit={commit} src-sha256={digest.hexdigest()[:16]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stepbound benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stepbound",
                                       "__init__.py")):
        print("perfbench: no ./src/stepbound here; run from the root of a "
              "stepbound checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    bench = Bench(root, args.seed, start + RUN_LIMIT_S)
    try:
        bench.spawn("--setup-only")  # untimed: writes the bytecode caches
        bench.setup_samples.clear()
        # half of the set-up samples before the passes and half after, so
        # that their median spans the run rather than its first seconds
        bench.sample_setup(SETUP_SAMPLES // 2)
        if args.trace:
            passes = [bench.spawn("--workload", args.workload)]
            traced = bench.spawn("--workload", args.workload, "--trace")
            every = passes + [traced]
        else:
            every = passes = bench.passes(args.workload, args.seconds)
        bench.sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    problems = []
    attempted = failed = 0
    for p in every:
        for rec in p["records"] + p.get("extra_records", []):
            attempted += 1
            why = judge(rec, expected)
            if why:
                failed += 1
                problems.append(f"{rec['label']}: {why}")
    want = [label(c) for c in WORKLOADS[args.workload]]
    if any([r["label"] for r in p["records"]] != want for p in every):
        problems.append("a pass did not run the workload's checks in order")
    if args.trace:
        plain = [(r["label"], r["verdict"]) for r in passes[0]["records"]]
        seen = [(r["label"], r["verdict"]) for r in traced["records"]]
        if plain != seen:
            problems.append("traced verdicts differ from untraced ones")
        if not traced["micro_ok"]:
            problems.append("a micro-bench computed a wrong answer")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(passes)}")
    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"{source_id(root)} caches=cold (fresh interpreter per pass, "
          f"checks in fixed order)")
    for line in problems:
        print(f"MISMATCH {line}")

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["check_s"] - passes[0]["check_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(layers.items())}
        for k, m in metrics.items():
            print(f"{k:<44} {m['value']:>14.6g} {m['unit']}")
    else:
        per_pass = [pass_metrics(p) for p in passes]
        series = {"setup_s": bench.setup_samples}
        for k in per_pass[0]:
            series[k] = [pm[k] for pm in per_pass]
        metrics = {}
        for k, vals in series.items():
            q1, med, q3 = quartiles(vals)
            metrics[k] = {"value": med, "unit": UNITS[k]}
            print(f"{k:<20} {med:>12.6g} {UNITS[k]:<5} median; quartiles "
                  f"{q1:.6g} .. {q3:.6g} over {len(vals)} samples")
        print(f"{'failed_share':<20} {failed / attempted:>12.6g} share "
              f"({failed} of {attempted} checks differ from expected.json)")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
