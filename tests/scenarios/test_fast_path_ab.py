"""A/B pin: reception fast path and batch kernel change only wall clock.

For every registered scenario the same small campaign is run three ways —
with the default fast path plus vectorized batch kernel, with the batch
kernel disabled (PR 3's scalar fast path), and forced onto the fully
scalar exhaustive reference path, which bounds *and samples* every
attached interface.  Because all stochastic channel draws are keyed per
``(link, transmission)`` and the batch kernel reproduces the scalar
float64 semantics exactly, the stored summary rows have to match bit for
bit across all three.

A scenario added to the registry without an entry here fails the
coverage test below, so the pin cannot silently rot.

The same arms are additionally re-run with the observability layer fully
enabled (metrics registry + span tracer) and compared against the
uninstrumented rows: instrumentation is contractually free of RNG draws
and simulation feedback, so switching it on must not move a single bit.
"""

import dataclasses

import pytest

from repro import obs
from repro.campaign.executor import run_campaign
from repro.campaign.report import point_summaries
from repro.campaign.spec import CampaignSpec, config_to_dict
from repro.campaign.store import MemoryStore
from repro.experiments.highway import HighwayConfig
from repro.experiments.multi_ap import MultiApConfig
from repro.experiments.scenario import UrbanScenarioConfig
from repro.scenarios.bidirectional import BidirectionalConfig
from repro.scenarios.registry import scenario_names
from repro.scenarios.trace import SynthTraceConfig, TraceScenarioConfig

#: One cheap-but-representative configuration per registered scenario.
SMALL_CONFIGS = {
    "urban": UrbanScenarioConfig(seed=55, round_duration_s=40.0),
    "highway": HighwayConfig(seed=5, rounds=1, speed_ms=25.0, road_length_m=2000.0),
    "multi_ap": MultiApConfig(
        seed=13,
        rounds=1,
        road_length_m=4000.0,
        ap_spacing_m=800.0,
        file_blocks=60,
        speed_ms=15.0,
    ),
    "bidirectional": BidirectionalConfig(rounds=1, oncoming_cars=2),
    # Deep enough into the dark area that the REQUEST/coop-data recovery
    # path runs (the pin must cover cooperation, not just streaming).
    "trace": TraceScenarioConfig(
        seed=31,
        rounds=1,
        synth=SynthTraceConfig(
            vehicles=5,
            duration_s=70.0,
            road_length_m=1500.0,
            mean_speed_ms=25.0,
            entry_gap_s=2.0,
        ),
    ),
}


#: The multi-AP corridor with its infostations in each other's reach and
#: enough radios for the neighbour grid, so AP↔AP lanes run through the
#: medium's fixed-lane memo (the cheap config above spaces APs out of
#: reach, where the memo only ever answers "culled").
FIXED_LANES_CONFIG = MultiApConfig(
    seed=13,
    rounds=1,
    road_length_m=1600.0,
    ap_spacing_m=200.0,
    n_cars=8,
    file_blocks=60,
    speed_ms=30.0,
    packet_rate_hz=2.0,
)


def run_rows(
    scenario: str, config, *, fast_path: bool, batch: bool,
    batched_delivery: bool = True,
    cross_broadcast_batch: bool = True, instrumented: bool = False,
    counters: dict | None = None,
):
    radio = dataclasses.replace(
        config.radio,
        reception_fast_path=fast_path,
        reception_batch=batch,
        batched_delivery=batched_delivery,
        cross_broadcast_batch=cross_broadcast_batch,
    )
    config = dataclasses.replace(config, radio=radio)
    spec = CampaignSpec(
        name=f"ab-{scenario}-{'fast' if fast_path else 'exhaustive'}"
        f"-{'batch' if batch else 'scalar'}",
        scenario=scenario,
        seed=config.seed,
        rounds=1,
        base=config_to_dict(config),
    )
    store = MemoryStore()
    if instrumented:
        with obs.instrumented() as tracer:
            run_campaign(spec, store, workers=1)
            # Guard against a silently dead pin: the instrumentation must
            # actually have observed the round it claims not to perturb.
            assert obs.registry().counter("sim.events_fired").value > 0
            if counters is not None:
                for name in counters:
                    counters[name] = obs.registry().counter(name).value
        assert len(tracer.spans()) > 0
    else:
        run_campaign(spec, store, workers=1)
    return point_summaries(store, spec)


#: Uninstrumented arm results shared between the two pins below, keyed by
#: ``(scenario, fast_path, batch)`` — each plain arm runs exactly once.
_PLAIN_ROWS: dict = {}


def plain_rows(scenario: str, *, fast_path: bool, batch: bool):
    key = (scenario, fast_path, batch)
    if key not in _PLAIN_ROWS:
        _PLAIN_ROWS[key] = run_rows(
            scenario, SMALL_CONFIGS[scenario], fast_path=fast_path, batch=batch
        )
    return _PLAIN_ROWS[key]


def test_every_registered_scenario_is_covered():
    assert set(SMALL_CONFIGS) == set(scenario_names())


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
def test_fast_path_and_batch_rows_bit_identical(scenario):
    batch_fast = plain_rows(scenario, fast_path=True, batch=True)
    scalar_fast = plain_rows(scenario, fast_path=True, batch=False)
    exhaustive = plain_rows(scenario, fast_path=False, batch=False)
    assert batch_fast == scalar_fast == exhaustive


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
def test_scheduler_and_delivery_rows_bit_identical(scenario):
    """The event-kernel A/B pin: pooled delivery vs per-vehicle callbacks.

    The coalesced delivery sink defers per-receiver dispatch within one
    already-atomic frame-end event — channel draws are keyed per
    ``(link, transmission)`` and protocol reactions only schedule future
    events, so it cannot move a bit.  The legacy per-vehicle callback arm
    must reproduce the default rows exactly.
    """
    config = SMALL_CONFIGS[scenario]
    default = plain_rows(scenario, fast_path=True, batch=True)
    unbatched = run_rows(config=config, scenario=scenario, fast_path=True,
                         batch=True, batched_delivery=False)
    assert default == unbatched


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
def test_cross_broadcast_batch_rows_bit_identical(scenario):
    """The cross-broadcast coalescer A/B pin (reception ladder rung 5).

    With ``radio.cross_broadcast_batch`` on (the default), same-instant
    broadcasts defer their candidate evaluation to one instant-end drain
    and share a single concatenated sampling pass plus coalesced
    frame-end delivery.  Every order-sensitive fact is captured at the
    original transmit event (tx_seq, trace row, kill loop, candidate
    snapshot), every mid-instant observer forces an early drain, and all
    channel draws are keyed per ``(link, transmission)`` — so the
    one-at-a-time arm must reproduce the coalesced rows bit for bit.
    """
    config = SMALL_CONFIGS[scenario]
    default = plain_rows(scenario, fast_path=True, batch=True)
    one_at_a_time = run_rows(
        config=config, scenario=scenario, fast_path=True, batch=True,
        cross_broadcast_batch=False,
    )
    assert default == one_at_a_time


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
@pytest.mark.parametrize(
    "fast_path,batch",
    [(True, True), (True, False), (False, False)],
    ids=["batch", "fast", "exhaustive"],
)
def test_rows_unchanged_with_instrumentation_enabled(scenario, fast_path, batch):
    """The observability non-perturbation contract, pinned per arm.

    Metrics registry on, span tracer installed, every probe live — and
    the stored summary rows still match the uninstrumented run bit for
    bit, because instrumentation takes no RNG draws and never feeds back
    into the simulation (see ``repro.obs``).
    """
    config = SMALL_CONFIGS[scenario]
    instrumented = run_rows(
        scenario, config, fast_path=fast_path, batch=batch, instrumented=True
    )
    assert instrumented == plain_rows(
        scenario, fast_path=fast_path, batch=batch
    )


def test_fixed_lane_memo_rows_bit_identical():
    """The fixed-infrastructure A/B pin on the multi-AP corridor.

    Lanes between two fixed APs reuse their memoised distance, loss, cull
    verdict and mean power, drawing only the keyed fade per frame.  The
    fast arms must take that memo and the exhaustive reference must not,
    and all three must store the same rows.
    """
    rows = []
    for fast_path, batch in [(True, True), (True, False), (False, False)]:
        counters = {"medium.static_lanes": None}
        rows.append(run_rows(
            "multi_ap", FIXED_LANES_CONFIG, fast_path=fast_path, batch=batch,
            instrumented=True, counters=counters,
        ))
        assert (counters["medium.static_lanes"] > 0) == fast_path
    assert rows[0] == rows[1] == rows[2]
