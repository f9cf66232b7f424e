"""One benchmark measurement in a fresh interpreter; prints one JSON line.

Modes (``--mode``):

``setup``
    Import ``repro``, generate the workload's inputs, build round 0 and
    report the CPU seconds the process has used since it started.
``plain``
    The end-to-end run: no wrappers, obs registry off.  Runs the rounds
    of a unit (see :mod:`workloads`) in order, cycling, for about
    ``--seconds`` seconds and at least one unit and one round more,
    timing every 100 ms simulated step in CPU time.  ``--inject SPIN``
    first wraps channel sampling in a benchmark-side cost of ``SPIN``
    CPU seconds per call (0 for a no-op wrapper); only the self-test
    passes it.
``traced``
    One unit with benchmark-side spans installed (:mod:`layers`).
``count``
    One unit with the ``repro.obs`` registry on, for exact counters.

Every mode that runs rounds checks each finished round (:func:`check_round`)
and reports a digest of its rows, so plain, traced and counting runs of
the same seed can be compared bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from time import perf_counter, process_time

from workloads import SRC, STEP_S, WORK_DIR, WORKLOADS

#: A round still running after this many wall seconds counts as failed.
ROUND_TIMEOUT_S = 150.0
#: Simulated seconds run once, untimed, before measuring.
WARMUP_SIM_S = 1.0

#: Paper's Table 1 bands (per-car range, %), before and after cooperation.
TABLE1_BEFORE_BAND = (23.4, 28.6)
TABLE1_AFTER_BAND = (10.5, 17.3)


class RoundTimeout(Exception):
    """A round exceeded :data:`ROUND_TIMEOUT_S`."""


def canonical_digest(obj) -> str:
    """sha256 of canonical JSON; raises ValueError on NaN or infinity."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def ap_data_frames(ctx) -> list:
    """Data frames the round's APs transmitted (every sender that is not a car)."""
    from repro.mac.frames import DataFrame

    return [
        record.frame
        for record in ctx.capture.tx_records
        if record.node not in ctx.cars and isinstance(record.frame, DataFrame)
    ]


def check_round(ctx, row) -> tuple[str, list[str]]:
    """Digest of a finished round's outputs and the invariants it breaks.

    The digest covers the plugin's row plus, per AP flow, how many
    distinct packets the APs sent and how many each car captured.
    """
    from repro.scenarios.modes import reception_state
    from repro.scenarios.summaries import decode_matrix

    problems: list[str] = []
    cars = ctx.cars
    capture = ctx.capture
    ap_sent: dict[int, set[int]] = {}
    for frame in ap_data_frames(ctx):
        ap_sent.setdefault(int(frame.flow_dst), set()).add(frame.seq)
    tally = {}
    for flow, sent in sorted(ap_sent.items()):
        captured = {}
        for car in cars:
            got = capture.delivered_seqs(car, flow)
            if not got <= sent:
                problems.append(f"car {car} captured packets of flow {flow} no AP sent")
            captured[str(int(car))] = len(got)
        if flow in cars:
            recovered = set(reception_state(cars[flow]).recovered)
            if not recovered <= sent:
                problems.append(f"flow {flow} recovered packets no AP sent")
        tally[str(flow)] = {"sent": len(sent), "captured": captured}
    for encoded in row.get("matrices", []):
        matrix = decode_matrix(encoded)
        before = matrix.lost_before_coop / matrix.tx_by_ap
        after = matrix.lost_after_coop / matrix.tx_by_ap
        if not (0.0 <= after <= before <= 1.0):
            problems.append(
                f"flow {matrix.flow}: loss fractions before={before} after={after}"
            )
    try:
        digest = canonical_digest({"row": row, "tally": tally})
    except ValueError as exc:
        problems.append(f"non-finite value in row: {exc}")
        digest = "invalid"
    return digest, problems


def table1_summary(rows: list[dict]) -> dict:
    """Platoon-mean before/after-coop loss and the gap to the paper's bands."""
    from repro.analysis.stats import compute_table1
    from repro.scenarios.summaries import decode_matrix_rows

    table = compute_table1(decode_matrix_rows(rows))
    before = statistics.fmean(r.lost_before_pct for r in table.values())
    after = statistics.fmean(r.lost_after_pct for r in table.values())

    def gap(value, band):
        return max(band[0] - value, 0.0, value - band[1])

    return {
        "before_coop_loss_pct": before,
        "after_coop_loss_pct": after,
        "table1_gap_pp": gap(before, TABLE1_BEFORE_BAND) + gap(after, TABLE1_AFTER_BAND),
    }


class Runner:
    """Builds, steps, collects and checks rounds of one workload."""

    def __init__(self, workload, seed: int) -> None:
        from repro.scenarios import get_scenario

        self.workload = workload
        self.plugin = get_scenario(workload.scenario)
        self.config = workload.config(seed)
        #: Span recorder switched on around step loops (traced mode).
        self.recorder = None
        self.step_cpu: list[float] = []
        self.step_wall: list[float] = []
        self.build_s = 0.0
        self.collect_s = 0.0
        self.sim_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.rows: dict[int, dict] = {}
        self.problems: list[str] = []

    def warm_up(self) -> None:
        """Run a short untimed slice so NumPy dispatch and lazy maps are warm."""
        ctx = self.plugin.build_round(self.config, 0)
        ctx.sim.run(until=WARMUP_SIM_S)
        gc.collect()

    def run_round(self, index: int):
        """Run one round; returns the finished context, or ``None`` when it failed.

        Builds the round, advances it in 100 ms slices of simulated time
        (timing each in CPU and wall time), then collects and checks the
        row.  A failure is counted, never raised.
        """
        self.attempted += 1
        recorder = self.recorder
        try:
            start = perf_counter()
            ctx = self.plugin.build_round(self.config, index)
            self.build_s += perf_counter() - start
            window = self.workload.window(ctx)
            steps = math.ceil(window / STEP_S - 1e-9)
            run = ctx.sim.run
            step_cpu, step_wall = self.step_cpu, self.step_wall
            round_start = perf_counter()
            for k in range(1, steps + 1):
                until = min(k * STEP_S, window)
                if recorder is not None:
                    recorder.round_id = index
                    recorder.active = True
                wall0 = perf_counter()
                cpu0 = process_time()
                run(until=until)
                cpu1 = process_time()
                wall1 = perf_counter()
                if recorder is not None:
                    recorder.active = False
                step_cpu.append(cpu1 - cpu0)
                step_wall.append(wall1 - wall0)
                if wall1 - round_start > ROUND_TIMEOUT_S:
                    raise RoundTimeout(f"round {index} exceeded {ROUND_TIMEOUT_S} s")
            self.sim_s += window
            start = perf_counter()
            row = self.plugin.collect_row(ctx)
            self.collect_s += perf_counter() - start
            digest, problems = check_round(ctx, row)
        except Exception:  # a failing round is counted, the run goes on
            if recorder is not None:
                recorder.active = False
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        if self.digests.setdefault(index, digest) != digest:
            self.failed += 1
            self.problems.append(f"round {index} digest differs on repeat")
            return None
        self.rows.setdefault(index, row)
        return ctx

    def unit_digest(self) -> str | None:
        """Digest over the per-round digests of one complete unit."""
        indices = range(self.workload.rounds)
        if any(i not in self.digests for i in indices):
            return None
        return hashlib.sha256(
            "".join(self.digests[i] for i in indices).encode()
        ).hexdigest()

    def result(self) -> dict:
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "digest": self.unit_digest(),
            "sim_s": self.sim_s,
            "steps": len(self.step_cpu),
            "step_cpu_s": math.fsum(self.step_cpu),
            "step_wall_s": math.fsum(self.step_wall),
        }
        if self.workload.name == "urban_table1" and out["digest"] is not None:
            out["table1"] = table1_summary(
                [self.rows[i] for i in range(self.workload.rounds)]
            )
        return out


class Injection:
    """Benchmark-side cost on ``Channel.sample`` and ``Channel.sample_batch``.

    Every wrapped call is counted and spins for ``spin_s`` CPU seconds
    (0 for the no-op wrapper).  Used only by the self-test.
    """

    def __init__(self, spin_s: float) -> None:
        self.spin_s = spin_s
        self.calls = 0

    def install(self) -> None:
        from repro.radio.channel import Channel

        for method in ("sample", "sample_batch"):
            setattr(Channel, method, self._wrap(getattr(Channel, method)))

    def _wrap(self, original):
        injection = self

        def wrapper(*args, **kwargs):
            injection.calls += 1
            if injection.spin_s:
                end = process_time() + injection.spin_s
                while process_time() < end:
                    pass
            return original(*args, **kwargs)

        return wrapper


def mode_setup(workload, seed: int) -> dict:
    from repro.scenarios import get_scenario

    plugin = get_scenario(workload.scenario)
    plugin.build_round(workload.config(seed), 0)
    return {"setup_s": process_time()}


def mode_plain(workload, seed: int, seconds: float, inject: float | None = None) -> dict:
    """Run rounds in unit order, cycling, for about *seconds*.

    Runs at least one whole unit and one round more, so every run checks
    that a round's digest repeats.
    """
    injection = None
    if inject is not None:
        injection = Injection(inject)
        injection.install()
    runner = Runner(workload, seed)
    runner.warm_up()
    done = 0
    start = perf_counter()
    while True:
        runner.run_round(done % workload.rounds)
        done += 1
        if done == workload.rounds:
            # Read after one unit: later rounds only add allocator drift.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = perf_counter() - start
        if done > workload.rounds and elapsed + elapsed / done / 2 > seconds:
            break
    out = runner.result()
    out["peak_rss_mb"] = peak_rss_mb
    out["step_p50_ms"] = statistics.median(runner.step_cpu) * 1e3
    out["step_p90_ms"] = statistics.quantiles(runner.step_cpu, n=10)[-1] * 1e3
    if injection is not None:
        out["injected_calls"] = injection.calls
    return out


def mode_traced(workload, seed: int) -> dict:
    import layers

    runner = Runner(workload, seed)
    runner.warm_up()
    overhead_s = layers.span_overhead_s()
    runner.recorder = recorder = layers.SpanRecorder()
    layers.install(recorder)
    for index in range(workload.rounds):
        runner.run_round(index)
    recorder.dump(WORK_DIR / f"spans-{workload.name}-{seed}.npz")
    out = runner.result()
    out["build_s"] = runner.build_s
    out["collect_s"] = runner.collect_s
    out["self_s"] = dict(recorder.self_s)
    out["calls"] = dict(recorder.calls)
    out["children"] = dict(recorder.children)
    out["layer_of"] = dict(recorder.layer_of)
    out["lanes"] = recorder.lanes
    out["spans"] = recorder.spans
    out["spans_dropped"] = recorder.dropped
    out["span_overhead_s"] = overhead_s
    return out


def mode_count(workload, seed: int) -> dict:
    from repro import obs

    obs.enable()
    obs.registry().reset()
    runner = Runner(workload, seed)
    net = {"ap_frames": 0, "ap_idle": 0}
    for index in range(workload.rounds):
        ctx = runner.run_round(index)
        if ctx is None:
            continue
        heard = {id(record.frame) for record in ctx.capture.rx_records}
        frames = ap_data_frames(ctx)
        net["ap_frames"] += len(frames)
        net["ap_idle"] += sum(id(frame) not in heard for frame in frames)
    snapshot = obs.registry().snapshot()
    out = runner.result()
    out["counters"] = {
        name: entry["value"]
        for name, entry in snapshot.items()
        if entry.get("type") == "counter"
    }
    out["net"] = net
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced", "count"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--inject", type=float, help="plain mode, self-test only")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = mode_setup(workload, args.seed)
    elif args.mode == "plain":
        out = mode_plain(workload, args.seed, args.seconds, args.inject)
    elif args.mode == "traced":
        out = mode_traced(workload, args.seed)
    else:
        out = mode_count(workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
