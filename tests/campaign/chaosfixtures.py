"""Chaos schedules derived from the draws, not pinned per config schema.

Chaos draws are keyed per ``(seed, task_id, attempt)``, and task ids
hash the whole config dict, so adding or removing a config field
re-rolls every draw.  Tests that need a schedule with a given shape
compute it from :meth:`ChaosSpec.draw` instead of hard-coding outcomes.
"""

from __future__ import annotations

from repro.campaign.chaos import ChaosSpec
from repro.campaign.spec import CampaignSpec


def draw_schedule(
    spec: CampaignSpec, chaos: ChaosSpec, max_attempts: int
) -> dict[str, list[str | None]]:
    """Each task's chaos draw for attempts ``1..max_attempts``."""
    attempts = range(1, max_attempts + 1)
    return {
        t.task_id(): [chaos.draw(t.task_id(), a) for a in attempts]
        for t in spec.expand()
    }


def first_firing_chaos(
    spec: CampaignSpec, start: int, max_attempts: int, **kwargs
) -> ChaosSpec:
    """The first chaos seed from *start* that injects a recoverable fault.

    Its schedule fires on at least one first attempt (so the run is not
    vacuously clean) and leaves every task a clean attempt within
    *max_attempts* (so parity with the clean run is well defined).
    """
    for seed in range(start, start + 100):
        chaos = ChaosSpec(seed=seed, **kwargs)
        draws = draw_schedule(spec, chaos, max_attempts).values()
        if any(d[0] for d in draws) and all(None in d for d in draws):
            return chaos
    raise AssertionError(f"no chaos seed in [{start}, {start + 100}) fits {kwargs}")
