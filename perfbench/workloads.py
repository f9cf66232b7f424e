"""The three benchmark workloads: inputs generated from a seed, nothing else.

Each workload is a registered scenario driven only through its public
plugin API (``build_round`` → ``sim.run(until=t)`` in 100 ms steps →
``collect_row``).  A *unit* is the fixed amount of simulation one
workload stands for (``rounds`` rounds of ``window(ctx)`` simulated
seconds); timed runs cycle through its rounds, traced and counting
runs execute one unit.

The program never sees the benchmark seed itself, only what is derived
from it here: a scenario configuration and, for ``trace_dense``, a
synthetic recording written to a CSV file and parsed back by the
scenario's trace loader.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

#: Simulated seconds per timed step.
STEP_S = 0.1

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated inputs and span dumps (ignored by git).
WORK_DIR = BENCH_DIR / "_work"
#: Seed of ``trace_dense``'s synthetic road (``SynthTraceConfig``'s default).
TRACE_ROAD_SEED = 97


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``default_seed`` reproduces the configuration the workload was
    chosen at; ``heldout_seed`` is kept out of tuning so a claimed gain
    can be re-checked on inputs nobody optimised against.
    """

    name: str
    scenario: str
    rounds: int
    default_seed: int
    heldout_seed: int

    def config(self, seed: int):
        """The scenario configuration for *seed* (writes inputs it needs)."""
        return _CONFIGS[self.name](seed)

    def window(self, ctx) -> float:
        """Simulated seconds one round of this workload runs."""
        if self.name == "urban_table1":
            return ctx.config.round_duration_s
        if self.name == "corridor_dense":
            return 10.0
        return ctx.duration_s


def _urban_config(seed: int):
    from repro.scenarios.urban import UrbanScenarioConfig

    return UrbanScenarioConfig(seed=seed)


def _corridor_config(seed: int):
    from repro.scenarios.multi_ap import MultiApConfig

    # The 68-radio large-N corridor: 20 infostations every 200 m on a
    # 4 km road and a 48-car wave.
    return MultiApConfig(
        road_length_m=4000.0,
        ap_spacing_m=200.0,
        n_cars=48,
        file_blocks=250,
        speed_ms=15.0,
        seed=seed,
    )


def _trace_config(seed: int):
    from repro.mobility.traceio import dump_traces, synth_traces
    from repro.scenarios.trace import TraceScenarioConfig

    # The dense synthetic drive-thru: 32 vehicles one second apart on a
    # curving 1.2 km three-lane road, recorded to CSV so the scenario
    # ingests it through its file parser like a real recording.  The
    # road is the same for every seed (the synthesizer's own default
    # seed); the benchmark seed draws the channel, MAC and protocol
    # randomness, as the scenario's rounds do.
    traces = synth_traces(
        vehicles=32,
        duration_s=70.0,
        road_length_m=1200.0,
        mean_speed_ms=20.0,
        entry_gap_s=1.0,
        lanes=3,
        seed=TRACE_ROAD_SEED,
    )
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / "trace_dense.csv"
    partial = WORK_DIR / f".trace_dense-{os.getpid()}.csv"
    dump_traces(traces, partial, fmt="csv")
    os.replace(partial, path)
    return TraceScenarioConfig(
        trace_file=str(path),
        trace_format="csv",
        seed=seed,
        served_vehicles=12,
        packet_rate_hz=5.0,
    )


_CONFIGS = {
    "urban_table1": _urban_config,
    "corridor_dense": _corridor_config,
    "trace_dense": _trace_config,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="urban_table1",
            scenario="urban",
            rounds=30,
            default_seed=2008,
            heldout_seed=2010,
        ),
        Workload(
            name="corridor_dense",
            scenario="multi_ap",
            rounds=1,
            default_seed=5,
            heldout_seed=6,
        ),
        Workload(
            name="trace_dense",
            scenario="trace",
            # Two rounds: whether C-ARQ recovery happens at all varies
            # with the channel realisation, and one round's work with it.
            rounds=2,
            default_seed=2300,
            heldout_seed=2301,
        ),
    )
}
