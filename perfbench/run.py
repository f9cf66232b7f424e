"""The repro-carq benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload urban_table1 --seed 2008 --seconds 45 --trace 0
    python3 perfbench/run.py --all            # every workload, default seeds
    python3 perfbench/run.py --all --trace 1  # every workload's layer report

``--trace 0`` measures the end-to-end metrics: ``setup_s`` from several
fresh interpreters, then one plain worker process that runs the
workload's rounds, cycling, for about ``--seconds`` seconds and at least
one unit and one round more.  ``--trace 1`` runs three fresh processes:
plain (the same minimum, for the tracing overhead and host time per
event), traced (one unit with
benchmark-side spans, :mod:`layers`) and counting (one unit with the
``repro.obs`` registry), and requires the three row digests to agree.

Every round's outputs are checked (:func:`worker.check_round`); a round
that raises, times out, breaks an invariant or changes digest on a
repeat counts as failed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed.  Full records (machine fingerprint,
digests, sample counts) are written under ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter, process_time

from workloads import BENCH_DIR, ROOT, SRC, WORK_DIR, WORKLOADS

#: Fresh interpreters timed for ``setup_s`` (one more runs untimed first).
SETUP_SAMPLES = 7
#: Wall seconds one invocation may use for a single workload.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_speed": "sim_s/cpu_s",
    "step_p50_ms": "cpu_ms",
    "step_p90_ms": "cpu_ms",
    "peak_rss_mb": "MB",
}

#: Step-time layers reported with ``<layer>.self_ms``/``.self_pct``
#: (radio sub-layers as ``radio.<part>_self_ms``), in report order.
LAYER_KEYS = {
    "sim": "sim.self",
    "mac.medium": "mac.medium.self",
    "mac.interface": "mac.interface.self",
    "radio.sample": "radio.sample_self",
    "radio.batch": "radio.batch_self",
    "radio.fer": "radio.fer_self",
    "core": "core.self",
    "net": "net.self",
    "mobility": "mobility.self",
    "trace": "trace.self",
}


class BenchError(Exception):
    """A worker failed to produce a result."""


def host_probe_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop.

    Recorded next to every run so a slowed host can be recognised; never
    used to rescale a metric.
    """
    start = process_time()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (process_time() - start) * 1e3


def fingerprint() -> dict:
    """Machine, interpreter and source identity of this run."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD commit read from ``.git`` in the checkout, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload: str, seed: int, mode: str, deadline: float, **options) -> dict:
    """Run one worker process to completion and return its JSON result."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"{mode} worker: time budget exhausted")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker: timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_plain(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics: setup interpreters, then one timed plain run."""
    run_worker(workload, seed, "setup", deadline)  # compiles bytecode, writes inputs
    setups = [
        run_worker(workload, seed, "setup", deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    plain = run_worker(workload, seed, "plain", deadline, seconds=seconds)
    values = {
        "setup_s": statistics.median(setups),
        "sim_speed": plain["sim_s"] / plain["step_cpu_s"],
        "step_p50_ms": plain["step_p50_ms"],
        "step_p90_ms": plain["step_p90_ms"],
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(setups),
        "sim_speed": plain["steps"],
        "step_p50_ms": plain["steps"],
        "step_p90_ms": plain["steps"],
        "peak_rss_mb": 1,
    }
    return {
        "runs": {"plain": plain},
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
        "samples": samples,
        "digests": [plain["digest"]],
    }


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    """Per-layer metrics from one plain, one traced and one counting unit."""
    plain = run_worker(workload, seed, "plain", deadline, seconds=0)
    traced = run_worker(workload, seed, "traced", deadline)
    count = run_worker(workload, seed, "count", deadline)
    layer_of, self_s, calls = traced["layer_of"], traced["self_s"], traced["calls"]
    # Each span's bookkeeping is charged to its parent's self time; take
    # it out of every parent and report it as its own share.
    overhead_s = traced["span_overhead_s"]
    layer_self = dict.fromkeys(LAYER_KEYS, 0.0)
    for name, seconds in self_s.items():
        layer = layer_of[name]
        if layer in layer_self:
            layer_self[layer] += seconds - overhead_s * traced["children"].get(name, 0)
    spans_s = overhead_s * traced["spans"]
    step_s = traced["step_wall_s"]
    # Traced and counting runs run one unit; scale the plain run to one.
    plain_unit_cpu_s = plain["step_cpu_s"] * traced["sim_s"] / plain["sim_s"]
    counters = count["counters"]

    def counter(name: str) -> int:
        return counters.get(name, 0)

    def calls_of(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    batch_calls = calls_of("Channel.sample_batch", "Channel.sample_multibatch")
    mobility_calls = sum(n for name, n in calls.items() if layer_of[name] == "mobility")
    broadcasts = counter("medium.broadcasts")
    rounds = WORKLOADS[workload].rounds
    values: dict[str, tuple[float, str]] = {}
    for layer, key in LAYER_KEYS.items():
        values[f"{key}_ms"] = (layer_self[layer] * 1e3, "ms")
    values.update({
        "sim.events_fired": (counter("sim.events_fired"), "count"),
        "sim.host_us_per_event": (
            plain_unit_cpu_s / max(counter("sim.events_fired"), 1) * 1e6, "us"
        ),
        "sim.overflow_push_pct": (
            _pct(counter("sim.wheel_overflow_pushes"), counter("sim.events_pushed")), "%"
        ),
        "sim.cancelled_pct": (
            _pct(counter("sim.events_cancelled"), counter("sim.events_pushed")), "%"
        ),
        "mac.medium.transmit_calls": (calls_of("Medium.transmit"), "count"),
        "mac.medium.busy_calls": (calls_of("Medium.busy"), "count"),
        "mac.medium.cull_keep_pct": (
            _pct(counter("medium.candidates_after_cull"),
                 counter("medium.candidates_before_cull")), "%"
        ),
        "mac.medium.batch_pct": (_pct(counter("medium.batch_broadcasts"), broadcasts), "%"),
        "mac.medium.coalesced_pct": (
            _pct(counter("medium.coalesced_broadcasts"), broadcasts), "%"
        ),
        "mac.interface.send_calls": (calls_of("NetworkInterface.send"), "count"),
        "radio.sample_calls": (calls_of("Channel.sample"), "count"),
        "radio.batch_calls": (batch_calls, "count"),
        "radio.batch_lanes": (traced["lanes"], "count"),
        "radio.us_per_lane": (
            layer_self["radio.batch"] / traced["lanes"] * 1e6 if traced["lanes"] else 0.0,
            "us",
        ),
        "core.hello_tx": (counter("proto.hello_tx"), "count"),
        "core.request_tx": (counter("proto.request_tx"), "count"),
        "core.coop_data_tx": (counter("proto.coop_data_tx"), "count"),
        "core.coop_rx_per_tx": (
            counter("proto.coop_data_rx") / counter("proto.coop_data_tx")
            if counter("proto.coop_data_tx") else 0.0,
            "ratio",
        ),
        "net.ap_frames_sent": (count["net"]["ap_frames"], "count"),
        "net.ap_idle_tx_pct": (
            _pct(count["net"]["ap_idle"], count["net"]["ap_frames"]), "%"
        ),
        "net.buffer_evictions": (counter("buffer.evictions"), "count"),
        "mobility.position_calls": (mobility_calls, "count"),
        "trace.on_rx_calls": (calls_of("TraceCollector.on_rx"), "count"),
        "scenarios.build_ms": (traced["build_s"] / rounds * 1e3, "ms"),
        "scenarios.collect_ms": (traced["collect_s"] / rounds * 1e3, "ms"),
    })
    for layer, key in LAYER_KEYS.items():
        values[f"{key}_pct"] = (_pct(layer_self[layer], step_s), "%")
    values["unattributed_pct"] = (
        _pct(step_s - sum(layer_self.values()) - spans_s, step_s), "%"
    )
    values["span_overhead_pct"] = (_pct(spans_s, step_s), "%")
    values["trace_overhead_pct"] = (
        _pct(traced["step_cpu_s"] - plain_unit_cpu_s, plain_unit_cpu_s), "%"
    )
    return {
        "runs": {"plain": plain, "traced": traced, "count": count},
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
        },
        "samples": {name: 1 for name in values},
        "digests": [plain["digest"], traced["digest"], count["digest"]],
    }


def bench_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return its full record.

    Raises :class:`BenchError` when a worker produces no result.
    """
    deadline = perf_counter() + BUDGET_S
    probe_before = host_probe_ms()
    if trace:
        record = measure_traced(workload, seed, deadline)
    else:
        record = measure_plain(workload, seed, seconds, deadline)
    runs = record["runs"].values()
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    digests = record["digests"]
    # Plain, traced and counting runs must agree bit for bit.
    if None in digests or len(set(digests)) != 1:
        failed = max(failed, 1)
    record.update(
        workload=workload,
        seed=seed,
        trace=trace,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted if attempted else 1.0,
        fingerprint=fingerprint(),
        host_probe_ms=[probe_before, host_probe_ms()],
        problems=[p for run in runs for p in run["problems"]],
    )
    plain = record["runs"]["plain"]
    if "table1" in plain:
        record["table1"] = plain["table1"]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    name = f"result-{workload}-{seed}-trace{int(trace)}.json"
    (WORK_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def report(record: dict) -> None:
    """Human-readable lines: fingerprint, digests, every metric with its samples."""
    print(
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {int(record['trace'])}"
    )
    print(f"fingerprint {json.dumps(record['fingerprint'], sort_keys=True)} "
          f"host_probe_ms {record['host_probe_ms'][0]:.1f}/{record['host_probe_ms'][1]:.1f}")
    print(f"digest {record['digests'][0]} (rows of one unit, sha256)")
    if len(set(record["digests"])) != 1:
        print(f"digest MISMATCH across runs: {record['digests']}")
    print(
        f"error_rate {record['error_rate']:.4f} fraction "
        f"({record['failed']} failed of {record['attempted']} rounds)"
    )
    if "table1" in record:
        t1 = record["table1"]
        print(
            f"table1_gap_pp {t1['table1_gap_pp']:.4f} pp "
            f"(before {t1['before_coop_loss_pct']:.2f} %, "
            f"after {t1['after_coop_loss_pct']:.2f} %, "
            f"n={WORKLOADS[record['workload']].rounds} rounds)"
        )
    for name, metric in record["metrics"].items():
        print(
            f"{name} {metric['value']:.6g} {metric['unit']} "
            f"(n={record['samples'][name]})"
        )
    if record["trace"]:
        traced = record["runs"]["traced"]
        print(
            f"spans {traced['spans']} at {traced['span_overhead_s'] * 1e9:.0f} ns "
            f"bookkeeping each (taken out of their parents' self time)"
        )
    for problem in record["problems"][:10]:
        print(f"problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        try:
            record = bench_one(name, seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
        results[name] = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    if args.all:
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
