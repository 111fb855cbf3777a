"""octsieve benchmark: one closed-loop caller driving the public API in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times operations for S seconds with tracing off and reports
the end-to-end metrics, with times scaled to a reference interpreter speed
(see calibrate.py).  ``--trace 1`` runs a fixed, seeded set of operations,
each one untraced and then with spans around the public entry points of
every layer, and reports the per-layer metrics.  Every operation's output
is checked outside the timed region.  Metric names, units and directions
come from BENCHMARK.json; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import corpus
from calibrate import SpeedSampler
from tracer import TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Timed in fresh interpreters: what every CLI invocation pays before work.
# The child then scales its import time by the kernel it times itself,
# since it may run on another CPU than this process and its sampler.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import octsieve, octsieve.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import calibrate; print(t * calibrate.local_factor())"
)
SETUP_SAMPLES = 25


def load_octsieve():
    """Import octsieve from this checkout's sources, never an installed copy."""
    if not (SRC / "octsieve" / "__init__.py").is_file():
        sys.exit(f"bench: no octsieve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("octsieve")
    if Path(package.__file__).resolve().parent != SRC / "octsieve":
        sys.exit(f"bench: imported octsieve from {package.__file__}, not from {SRC}")
    for name in TRACED:
        importlib.import_module(name)
    importlib.import_module("octsieve.verification")


def module(name: str):
    # Looked up at call time so that a traced run sees the wrapped functions.
    return sys.modules[f"octsieve.{name}"]


class SieveCorpus:
    """`octsieve sieve --random-assign --trials 64 --format json` on one class
    of the seeded corpus; JSON `invariant` must match the constructed truth
    and a witness must replay to the same nonzero distance."""

    # Six blocks of 30 invariant expressions, 35-50 s.  With five, the
    # scaled median of ten runs spread by 9% (quartile distance over the
    # median); with six, by 3.5%.
    min_ops = 180

    def __init__(self, invariant: bool, trace_blocks: int):
        self.invariant = invariant
        self.trace_blocks = trace_blocks

    def block(self, rng):
        return corpus.sieve_block(rng, self.invariant)

    def prepare(self, case):
        return ["sieve", "--expr", case.expr, "--random-assign", "--seed", str(case.seed),
                "--trials", "64", "--format", "json"]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = module("cli").main(argv)
        return code, out.getvalue()

    def check(self, case, result):
        code, text = result
        if code != 0:
            return False, None
        payload = json.loads(text)
        if payload["invariant"] is not case.invariant:
            return False, None
        witness = payload["witness"]
        if case.invariant:
            return witness is None, None
        env = {name: module("algebra").Octonion(c) for name, c in witness["assignment"].items()}
        tree = module("dsl").parse(case.expr)
        replayed = module("sieve").sieve(module("sieve").function_family(tree, env))[witness["index"]]
        return list(replayed.coeffs) == witness["distance"] and not replayed.is_zero(), None


class VerifyFull:
    """`run_checks(quick=False)`: all 12 checks must pass.  It takes no
    inputs, so the seed changes nothing."""

    min_ops = 4
    trace_blocks = 1

    def block(self, rng):
        return [None]

    def prepare(self, case):
        return None

    def run(self, _):
        return module("verification").run_checks(quick=False)

    def check(self, case, results):
        return len(results) == 12 and all(r.passed for r in results), None


def walsh_exact(fam) -> list[list[int]]:
    """4 * g[k], as exact integers: sum_j (-1)^popcount(j & k) f[j]."""
    return [
        [sum(-f.coeffs[i] if bin(j & k).count("1") % 2 else f.coeffs[i] for j, f in enumerate(fam))
         for i in range(8)]
        for k in range(16)
    ]


class FamilyBigint:
    """`function_family(tree, env)` then `sieve(fam)` on product trees with
    coefficients up to 2^30.  Each f[n] must satisfy the norm oracle
    |f[n]|^2 == prod |leaf|^2 exactly; distances that differ from the exact
    Walsh sum are counted as inexact, not as failures."""

    min_ops = 1000
    trace_blocks = 50

    def block(self, rng):
        return corpus.product_block(rng)

    def prepare(self, case):
        Octonion = module("algebra").Octonion
        return module("dsl").parse(case.expr), {k: Octonion(v) for k, v in case.env.items()}

    def run(self, arg):
        tree, env = arg
        fam = module("sieve").function_family(tree, env)
        return fam, module("sieve").sieve(fam)

    def check(self, case, result):
        fam, dist = result
        expected = 1
        for leaf in case.leaves:
            expected *= sum(c * c for c in case.env[leaf])
        ok = len(fam) == 16 and all(sum(c * c for c in f.coeffs) == expected for f in fam)
        exact = walsh_exact(fam)
        inexact = any(
            Fraction(dist[k].coeffs[i]) * 4 != exact[k][i] for k in range(16) for i in range(8)
        )
        return ok, inexact


WORKLOADS = {
    "sieve-invariant": SieveCorpus(invariant=True, trace_blocks=1),
    "sieve-refuted": SieveCorpus(invariant=False, trace_blocks=8),
    "verify-full": VerifyFull(),
    "family-bigint": FamilyBigint(),
}


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.checked_exactness = 0
        self.inexact = 0

    def record(self, seconds: float, ok: bool, inexact):
        self.latencies.append(seconds)
        self.failed += not ok
        if inexact is not None:
            self.checked_exactness += 1
            self.inexact += inexact


def run_one(workload, case, tally: Tally, around=contextlib.nullcontext(),
            clock=perf_counter) -> tuple[float, float]:
    """Run, time and check one operation; returns its start and duration.

    ``around`` is entered around the timed call only: in a traced run it is
    the tracer, so that preparing and checking the operation stay untraced.
    """
    arg = workload.prepare(case)
    try:
        with around:
            start = clock()
            try:
                result = workload.run(arg)
            finally:
                elapsed = clock() - start
    except Exception:
        traceback.print_exc()
        tally.record(elapsed, False, None)
        return start, elapsed
    try:
        tally.record(elapsed, *workload.check(case, result))
    except Exception:
        traceback.print_exc()
        tally.record(elapsed, False, None)
    return start, elapsed


def time_import() -> float:
    """Seconds to import octsieve in a fresh interpreter, at reference speed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          check=True, capture_output=True, text=True, cwd=ROOT)
    return float(proc.stdout)


def timed_run(workload, rng, seconds: float):
    tally = Tally()
    spans, imports = [], []
    time_import()  # writes the .pyc files
    with SpeedSampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < seconds or len(spans) < workload.min_ops:
            for case in workload.block(rng):
                spans.append(run_one(workload, case, tally, clock=sampler.clock))
            # Import samples are spread over the run, between blocks.
            while len(imports) < SETUP_SAMPLES * min(1.0, (perf_counter() - start) / seconds):
                imports.append(time_import())
        while len(imports) < SETUP_SAMPLES:
            imports.append(time_import())
    # Times at reference speed.
    lat = [sampler.scaled(s, t) for s, t in spans]
    metrics = {
        "setup_s": statistics.median(imports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
    }
    notes = {
        "ops": len(lat),
        "failed_share": tally.failed / len(lat),
        "wall_p50_ms": statistics.median(tally.latencies) * 1e3,
        "kernel_p50_us": statistics.median(sampler.kernel_s) * 1e6,
    }
    if tally.checked_exactness:
        notes["sieve_inexact_share"] = tally.inexact / tally.checked_exactness
    return tally, metrics, notes, True


def traced_run(workload, rng):
    """Each operation runs untraced, then traced, so drift hits both alike."""
    cases = [case for _ in range(workload.trace_blocks) for case in workload.block(rng)]
    tally = Tally()
    tracer = Tracer()
    plain = wall = 0.0
    for case in cases:
        plain += run_one(workload, case, tally)[1]
        wall += run_one(workload, case, tally, around=tracer)[1]
    stats = tracer.stats

    metrics = {}
    for modname, names in TRACED.items():
        for fname in names:
            name = f"{modname.split('.')[1]}.{fname}"
            calls, _, self_s = stats[name]
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.self_share"] = self_s / wall
    metrics["dsl.evaluate.nodes"] = metrics.pop("dsl.evaluate.calls")
    metrics["algebra.Octonion.constructed"] = tracer.constructed
    verdicts = stats["sieve.is_invariant"][0]
    trials = tracer.edges.get(("sieve.is_invariant", "sieve.function_family"), 0)
    metrics["sieve.trials_per_verdict"] = trials / verdicts if verdicts else 0
    metrics["sieve.inexact_share"] = (
        tally.inexact / tally.checked_exactness if tally.checked_exactness else 0
    )
    for name, (_, total, _) in stats.items():
        if name.startswith("verification."):
            metrics[f"{name}.s"] = total
    metrics["trace.overhead"] = wall / plain
    metrics["trace.wall_s"] = wall

    self_total = sum(s[2] for s in stats.values())
    notes = {"ops": len(cases), "self_s_total": self_total, "traced_wall_s": wall}
    return tally, metrics, notes, self_total <= wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    load_octsieve()

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    if args.trace:
        tally, values, notes, consistent = traced_run(workload, rng)
    else:
        tally, values, notes, consistent = timed_run(workload, rng, args.seconds)
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"bench: metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                 "differ from BENCHMARK.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for note, value in notes.items():
        print(f"  {note:<40} {value:.6g}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and consistent,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
