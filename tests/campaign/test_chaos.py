"""Deterministic fault injection and the chaos-parity headline pin.

The invariant this whole PR hangs on: a campaign run under injected
faults (worker crashes, transient raises, torn store writes, hangs)
produces a result store whose rows are **bit-identical** to a clean
run's — because rows are determined by spec'd seeds, so retries are
provably free.
"""

import pytest
from chaosfixtures import draw_schedule, first_firing_chaos

from repro.campaign.chaos import CHAOS_KINDS, ChaosSpec
from repro.campaign.executor import run_campaign
from repro.campaign.resilience import RetryPolicy
from repro.campaign.spec import CampaignSpec, axis, config_to_dict
from repro.campaign.store import FailureLog, JsonlStore, MemoryStore
from repro.errors import CampaignError
from repro.experiments.scenario import UrbanScenarioConfig

#: A fast retry policy so chaos tests spend no wall-clock on backoff.
FAST_RETRY = RetryPolicy(
    max_attempts=8, backoff_base_s=0.01, backoff_max_s=0.05
)


def small_spec(seed: int = 55) -> CampaignSpec:
    base = UrbanScenarioConfig(seed=seed, round_duration_s=40.0)
    return CampaignSpec(
        name="chaos-test",
        scenario="urban",
        seed=seed,
        rounds=2,
        base=config_to_dict(base),
        axes=(axis("platoon.n_cars", [1, 2]),),
    )


@pytest.fixture(scope="module")
def clean_rows():
    spec = small_spec()
    store = MemoryStore()
    run_campaign(spec, store, workers=1)
    return {t.task_id(): store.get(t.task_id()) for t in spec.expand()}


class TestChaosSpecValidation:
    def test_rate_bounds(self):
        for rate in (-0.1, 1.1):
            with pytest.raises(CampaignError, match="rate"):
                ChaosSpec(rate=rate)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError, match="unknown chaos kind"):
            ChaosSpec(rate=0.5, kinds=("explode",))

    def test_empty_kinds_rejected(self):
        with pytest.raises(CampaignError, match="at least one"):
            ChaosSpec(rate=0.5, kinds=())

    def test_hang_must_be_positive(self):
        with pytest.raises(CampaignError, match="hang"):
            ChaosSpec(rate=0.5, hang_s=0.0)


class TestDraw:
    def test_deterministic(self):
        spec = ChaosSpec(rate=0.5, seed=7, kinds=CHAOS_KINDS)
        draws = [spec.draw(f"task-{i}", a) for i in range(50) for a in (1, 2)]
        again = [spec.draw(f"task-{i}", a) for i in range(50) for a in (1, 2)]
        assert draws == again

    def test_rate_zero_never_fires(self):
        spec = ChaosSpec(rate=0.0)
        assert all(spec.draw(f"t{i}", 1) is None for i in range(50))

    def test_rate_one_always_fires(self):
        spec = ChaosSpec(rate=1.0, kinds=("raise",))
        assert all(spec.draw(f"t{i}", 1) == "raise" for i in range(50))

    def test_attempts_draw_independently(self):
        spec = ChaosSpec(rate=0.5, seed=3, kinds=("raise",))
        fates = {spec.draw("task", attempt) for attempt in range(1, 40)}
        assert fates == {None, "raise"}  # neither all-fire nor all-clear

    def test_seed_changes_the_schedule(self):
        a = ChaosSpec(rate=0.5, seed=1, kinds=("raise",))
        b = ChaosSpec(rate=0.5, seed=2, kinds=("raise",))
        draws_a = [a.draw(f"t{i}", 1) for i in range(60)]
        draws_b = [b.draw(f"t{i}", 1) for i in range(60)]
        assert draws_a != draws_b


class TestInlineProjection:
    def test_drops_process_level_kinds(self):
        spec = ChaosSpec(rate=0.5, kinds=("crash", "hang", "raise", "torn-write"))
        assert spec.inline().kinds == ("raise", "torn-write")

    def test_none_when_nothing_survives(self):
        assert ChaosSpec(rate=0.5, kinds=("crash", "hang")).inline() is None

    def test_preserves_rate_and_seed(self):
        spec = ChaosSpec(rate=0.3, seed=9, kinds=("crash", "raise"))
        assert (spec.inline().rate, spec.inline().seed) == (0.3, 9)


class TestParse:
    def test_full_form(self):
        spec = ChaosSpec.parse("rate=0.3,seed=7,kinds=crash|raise,hang=5")
        assert spec == ChaosSpec(
            rate=0.3, seed=7, kinds=("crash", "raise"), hang_s=5.0
        )

    def test_rate_is_mandatory(self):
        with pytest.raises(CampaignError, match="rate"):
            ChaosSpec.parse("seed=7")

    def test_unknown_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown --chaos field"):
            ChaosSpec.parse("rate=0.3,frequency=9")

    def test_bad_value_rejected(self):
        with pytest.raises(CampaignError, match="not a valid value"):
            ChaosSpec.parse("rate=lots")

    def test_missing_equals_rejected(self):
        with pytest.raises(CampaignError, match="NAME=VALUE"):
            ChaosSpec.parse("rate")


class TestChaosParity:
    """The headline invariant: chaos cannot change the science."""

    def test_pool_chaos_rows_bit_equal_clean_run(self, clean_rows, tmp_path):
        spec = small_spec()
        store = JsonlStore(tmp_path / "chaos.jsonl")
        failures = FailureLog(FailureLog.sidecar_path(store.path))
        stats = run_campaign(
            spec,
            store,
            workers=2,
            chaos=first_firing_chaos(
                spec, 3, FAST_RETRY.max_attempts,
                rate=0.6, kinds=("crash", "raise", "torn-write"),
            ),
            failures=failures,
            retry=FAST_RETRY,
        )
        assert stats.failed == 0
        assert stats.executed == 4
        assert stats.chaos_injections > 0, "rate 0.6 must actually inject"
        assert {
            t.task_id(): store.get(t.task_id()) for t in spec.expand()
        } == clean_rows
        # Every injected failure left evidence in the sidecar.
        assert len(failures.attempt_records()) == stats.retried

    def test_inline_chaos_rows_bit_equal_clean_run(self, clean_rows, tmp_path):
        spec = small_spec()
        store = JsonlStore(tmp_path / "inline.jsonl")
        stats = run_campaign(
            spec,
            store,
            workers=1,
            chaos=ChaosSpec(rate=0.6, seed=5, kinds=("raise", "torn-write")),
            retry=FAST_RETRY,
        )
        assert stats.failed == 0
        assert {
            t.task_id(): store.get(t.task_id()) for t in spec.expand()
        } == clean_rows

    def test_torn_write_recovery_round_trips(self, clean_rows, tmp_path):
        spec = small_spec()
        store = JsonlStore(tmp_path / "torn.jsonl")
        chaos = ChaosSpec(rate=0.8, seed=12, kinds=("torn-write",))
        # The outcome is derived from the draws, not pinned: a task whose
        # every attempt is torn exhausts the retry budget and is
        # quarantined; every other task lands its clean run's row.
        torn = draw_schedule(spec, chaos, FAST_RETRY.max_attempts)
        poisoned = {tid for tid, draws in torn.items() if None not in draws}
        injections = sum(
            draws.index(None) if None in draws else len(draws)
            for draws in torn.values()
        )
        assert injections > 0, "rate 0.8 must actually tear a write"
        stats = run_campaign(
            spec,
            store,
            workers=1,
            chaos=chaos,
            retry=FAST_RETRY,
            raise_on_failure=False,
        )
        assert stats.chaos_injections == injections
        assert {f.task_id for f in stats.failures} == poisoned
        # The store survived mid-run truncation/reload cycles intact.
        reloaded = JsonlStore(store.path)
        assert {tid for tid in torn if reloaded.has(tid)} == set(torn) - poisoned
        assert {
            tid: reloaded.get(tid) for tid in torn if tid not in poisoned
        } == {tid: row for tid, row in clean_rows.items() if tid not in poisoned}


class TestPoisonQuarantine:
    def test_permanent_failures_quarantine_and_raise(self, tmp_path):
        spec = small_spec()
        store = JsonlStore(tmp_path / "poison.jsonl")
        failures = FailureLog(FailureLog.sidecar_path(store.path))
        with pytest.raises(CampaignError, match="quarantined"):
            run_campaign(
                spec,
                store,
                workers=2,
                chaos=ChaosSpec(rate=1.0, seed=1, kinds=("raise",)),
                failures=failures,
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            )
        records = failures.quarantine_records()
        assert len(records) == 4
        assert all(r["attempts"] == 2 for r in records)

    def test_raise_on_failure_false_returns_stats(self, tmp_path):
        spec = small_spec()
        store = JsonlStore(tmp_path / "poison.jsonl")
        stats = run_campaign(
            spec,
            store,
            workers=1,
            chaos=ChaosSpec(rate=1.0, seed=1, kinds=("raise",)),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            raise_on_failure=False,
        )
        assert stats.failed == 4
        assert stats.executed == 0
        assert len(stats.failures) == 4
        assert stats.failure_summary().count("\n") == 3

    def test_deterministic_task_errors_quarantine_without_retry(self, tmp_path):
        # A scenario that raises on its own (not via chaos) is poison on
        # the first attempt: retrying a content-addressed task is futile.
        spec = small_spec()
        import dataclasses

        bad = dataclasses.replace(
            spec, base={**spec.base, "round_duration_s": -5.0}
        )
        store = MemoryStore()
        stats = run_campaign(
            spec=bad, store=store, workers=1, raise_on_failure=False,
        )
        assert stats.failed == 4
        assert stats.retried == 0
        assert all(f.attempts == 1 for f in stats.failures)
        assert all(f.failure == "task-error" for f in stats.failures)


class TestSerialFallback:
    def test_crash_storm_degrades_to_serial_and_completes(
        self, clean_rows, tmp_path
    ):
        spec = small_spec()
        store = JsonlStore(tmp_path / "crash.jsonl")
        stats = run_campaign(
            spec,
            store,
            workers=2,
            chaos=ChaosSpec(rate=1.0, seed=9, kinds=("crash",)),
            retry=RetryPolicy(
                max_attempts=10, backoff_base_s=0.0, jitter=0.0,
                restart_limit=3,
            ),
        )
        assert stats.serial_fallback
        assert stats.worker_restarts >= 3
        assert stats.failed == 0
        # Inline fallback drops `crash` (inline projection) and finishes.
        assert {
            t.task_id(): store.get(t.task_id()) for t in spec.expand()
        } == clean_rows
