"""Self-test: the benchmark's own gate flags an injected channel-sampling slowdown.

The test runs the plain measurement behind ``--trace 0`` (the worker's
``plain`` mode, one unit a run) in ten alternating triples per
workload:

* **base**: no wrapper;
* **no-op**: a benchmark-side wrapper on ``Channel.sample`` and
  ``Channel.sample_batch`` (:class:`worker.Injection`) that only counts
  calls;
* **slow**: the same wrapper spinning, per call, a calibrated
  ``INJECTED_SHARE`` of the base step CPU time.

It judges each arm against base as the benchmark judges a change
against its parent: an arm is flagged when the median, over its runs,
of any timing metric is worse than base's median by more than that
metric's ``bound`` in ``BENCHMARK.json``.  The slow arm must be flagged
on ``urban_table1`` and ``trace_dense``, the no-op arm must pass, and
every run must give the same row digest.

The bounds are 0.25, so the gate flags a cost only when it exceeds
about a quarter of the step time (a third for ``sim_speed``).  A 10–15 %
cost stays within the bounds and is not flagged; ``INJECTED_SHARE`` is
sized to clear them with a margin for host noise.

Run from the repository root (about 30 minutes)::

    python3 -m pytest perfbench/test_selftest.py -q -s
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from run import run_worker  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

#: Extra CPU the slow arm adds, as a share of the base step CPU time.
INJECTED_SHARE = 0.6
TRIPLES = 10
#: End-to-end metrics the plain run measures and an injected cost moves.
TIMING = ("sim_speed", "step_p50_ms", "step_p90_ms")


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] if m["name"] in TIMING}


def metrics(result: dict) -> dict:
    return {
        "sim_speed": result["sim_s"] / result["step_cpu_s"],
        "step_p50_ms": result["step_p50_ms"],
        "step_p90_ms": result["step_p90_ms"],
    }


def worse_by(base: float, arm: float, better: str) -> float:
    """How much worse *arm* is than *base*, as a share of *base*."""
    return (base - arm) / base if better == "higher" else (arm - base) / base


def plain(workload: str, inject: float | None) -> dict:
    options = {} if inject is None else {"inject": f"{inject:.12f}"}
    result = run_worker(
        workload, WORKLOADS[workload].default_seed, "plain", perf_counter() + 170.0,
        seconds=0, **options,
    )
    assert result["failed"] == 0, result["problems"]
    return result


def gate(runs: dict, spec: dict) -> dict:
    """Per arm and metric: (median, share worse than base, flagged)."""
    medians = {
        arm: {name: statistics.median(metrics(r)[name] for r in results) for name in TIMING}
        for arm, results in runs.items()
    }
    verdict = {}
    for arm in ("noop", "slow"):
        verdict[arm] = {}
        for name, metric in spec.items():
            worse = worse_by(medians["base"][name], medians[arm][name], metric["better"])
            verdict[arm][name] = (medians[arm][name], worse, worse > metric["bound"])
    return verdict


@pytest.mark.parametrize("workload", ["urban_table1", "trace_dense"])
def test_injected_sampling_slowdown_is_flagged(workload):
    spec = bounds()
    calibration = plain(workload, 0.0)
    spin = INJECTED_SHARE * calibration["step_cpu_s"] / calibration["injected_calls"]
    arms = [("base", None), ("noop", 0.0), ("slow", spin)]
    runs: dict[str, list] = {arm: [] for arm, _ in arms}
    for k in range(TRIPLES):
        for arm, inject in arms[k % 3:] + arms[:k % 3]:
            runs[arm].append(plain(workload, inject))

    digests = {r["digest"] for results in runs.values() for r in results}
    assert len(digests) == 1, f"a wrapper changed the rows: {digests}"
    cpu = {arm: statistics.median(r["step_cpu_s"] for r in results)
           for arm, results in runs.items()}
    verdict = gate(runs, spec)
    print(f"\n{workload}: spin {spin * 1e9:.0f} ns/call, step CPU median "
          + ", ".join(f"{arm} {cpu[arm]:.2f} s" for arm in cpu))
    for arm, by_metric in verdict.items():
        slower = sum(
            metrics(a)["sim_speed"] < metrics(b)["sim_speed"]
            for a, b in zip(runs[arm], runs["base"])
        )
        print(f"  {arm}: slower than base in {slower}/{TRIPLES} triples")
        for name, (median, worse, flagged) in by_metric.items():
            print(f"  {arm:4} {name:12} median {median:10.4f}  worse by {worse:+7.1%}"
                  f"  bound {spec[name]['bound']:.2f}  {'FLAGGED' if flagged else 'pass'}")

    assert cpu["slow"] / cpu["base"] - 1.0 >= 0.10, "injected cost under 10 % of step CPU"
    assert not any(flagged for _, _, flagged in verdict["noop"].values()), verdict["noop"]
    assert any(flagged for _, _, flagged in verdict["slow"].values()), verdict["slow"]
