"""Tests of the benchmark's own parts: generators, oracles, tracer and sampler.

They use octsieve as the test session imports it (for example with
``PYTHONPATH=src``); importing this module leaves ``sys.path`` as it was.
"""

import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from octsieve import Octonion, cli, dsl, is_invariant, parse, verification

HERE = str(Path(__file__).resolve().parent)
sys.path.insert(0, HERE)
try:
    import corpus
    import run
    from calibrate import NOMINAL_S, SpeedSampler
    from tracer import Tracer
finally:
    sys.path.remove(HERE)

SIEVE = sys.modules["octsieve.sieve"]


def degree(node) -> int:
    if isinstance(node, dsl.Var):
        return 1
    if isinstance(node, dsl.Const):
        return 0
    if isinstance(node, dsl.Mul):
        return degree(node.left) + degree(node.right)
    if isinstance(node, (dsl.Add, dsl.Sub)):
        return max(degree(node.left), degree(node.right))
    return degree(node.operand)


@pytest.mark.parametrize("want_invariant", [True, False])
def test_sieve_blocks_have_constructed_verdict_and_degree(want_invariant):
    cases = corpus.sieve_block(random.Random(5), want_invariant)
    cells = corpus.INVARIANT_CELLS if want_invariant else corpus.REFUTED_CELLS
    assert sorted(degree(parse(c.expr)) for c in cases) == sorted(d for _, d in cells)
    for case in cases:
        assert case.invariant is want_invariant
        verdict = is_invariant(case.expr, trials=4, seed=case.seed)
        assert verdict.invariant is want_invariant, case.expr


def test_blocks_repeat_for_a_seed():
    assert corpus.sieve_block(random.Random(9), True) == corpus.sieve_block(random.Random(9), True)
    assert corpus.product_block(random.Random(9)) == corpus.product_block(random.Random(9))


def test_norm_oracle_accepts_products_and_rejects_a_changed_family():
    workload = run.FamilyBigint()
    for case in corpus.product_block(random.Random(3))[:5]:
        fam, dist = workload.run(workload.prepare(case))
        assert max(abs(c) for c in fam[0].coeffs) > 2**62
        ok, _ = workload.check(case, (fam, dist))
        assert ok
        bumped = (Octonion((fam[0].coeffs[0] + 1,) + fam[0].coeffs[1:]),) + fam[1:]
        ok, _ = workload.check(case, (bumped, dist))
        assert not ok


def test_walsh_exact_matches_sieve_on_small_integers():
    rng = random.Random(4)
    fam = tuple(Octonion(rng.randint(-99, 99) for _ in range(8)) for _ in range(16))
    dist = SIEVE.sieve(fam)
    exact = run.walsh_exact(fam)
    assert all(4 * dist[k].coeffs[i] == exact[k][i] for k in range(16) for i in range(8))


def test_refuted_witness_replays():
    workload = run.SieveCorpus(invariant=False, trace_blocks=1)
    case = corpus.sieve_block(random.Random(6), False)[0]
    code, text = workload.run(workload.prepare(case))
    assert workload.check(case, (code, text)) == (True, None)
    payload = json.loads(text)
    payload["witness"]["distance"][0] += 1
    assert workload.check(case, (code, json.dumps(payload))) == (False, None)


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "octsieve" or name.startswith("octsieve."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out["Octonion.__init__"] = Octonion.__init__
    return out


def test_tracer_counts_through_every_binding_and_restores_originals():
    before = _bindings()
    checks = verification.ALL_CHECKS
    a, b = Octonion(range(8)), Octonion(range(8, 16))
    with Tracer() as tracer:
        assert SIEVE.function_family is not before[("octsieve.sieve", "function_family")]
        fam = SIEVE.function_family(parse("a*b"), {"a": a, "b": b})
    assert tracer.stats["sieve.function_family"][0] == 1
    assert tracer.stats["dsl.evaluate"][0] == 16 * 3
    assert tracer.stats["algebra.multiply"][0] == 16
    assert tracer.edges[("dsl.evaluate", "algebra.multiply")] == 16
    assert tracer.constructed >= 16
    calls, total, self_s = tracer.stats["sieve.function_family"]
    assert 0 <= self_s <= total
    assert fam == SIEVE.function_family(parse("a*b"), {"a": a, "b": b})
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert verification.ALL_CHECKS is checks
    assert cli.main is before[("octsieve.cli", "main")]


def test_traced_run_reports_every_declared_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = run.FamilyBigint()
    workload.trace_blocks = 1
    tally, metrics, notes, consistent = run.traced_run(workload, random.Random(1))
    assert consistent and tally.failed == 0
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert notes["self_s_total"] <= notes["traced_wall_s"]
    assert metrics["sieve.inexact_share"] > 0  # the float quarter in sieve()


def test_speed_sampler_leaves_its_time_out_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        start = sampler.clock()
        wall = run.perf_counter()
        while run.perf_counter() - wall < 0.3:
            pass
        own = sampler.clock() - start
    assert sampler.kernel_s  # about 15 samples are due
    assert own < run.perf_counter() - wall
    assert sampler.scaled(start, own) == own * NOMINAL_S / statistics.median(sampler.kernel_s)
    long = sampler.scaled(start + 10.0, 2.0)  # four pieces with no samples near: all are used
    assert long == pytest.approx(2.0 * NOMINAL_S / statistics.median(sampler.kernel_s))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_import_probe_prints_a_scaled_time():
    assert 0 < run.time_import() < 60


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family-bigint", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
