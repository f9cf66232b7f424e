"""Shadowing processes: correlation structure and composition."""

import numpy as np
import pytest

from repro.errors import RadioError
from repro.geom import Vec2
from repro.radio.keyed import stable_hash64
from repro.radio.shadowing import (
    CompositeShadowing,
    GudmundsonShadowing,
    NoShadowing,
    ShadowingModel,
    TemporalTxShadowing,
)


def rng():
    return np.random.default_rng(123)


class TestNoShadowing:
    def test_always_zero(self):
        model = NoShadowing()
        assert model.sample_db(("a", "b"), Vec2(0, 0), Vec2(5, 5)) == 0.0

    def test_reset_is_noop(self):
        NoShadowing().reset()


class TestGudmundson:
    def test_stationary_link_keeps_value(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        link = ("ap", "car")
        first = model.sample_db(link, Vec2(0, 0), Vec2(10, 0))
        second = model.sample_db(link, Vec2(0, 0), Vec2(10, 0))
        assert second == pytest.approx(first)

    def test_long_movement_decorrelates(self):
        model = GudmundsonShadowing(
            rng(), sigma_db=6.0, decorrelation_distance_m=10.0
        )
        link = ("ap", "car")
        values = [model.sample_db(link, Vec2(0, 0), Vec2(1000.0 * i, 0)) for i in range(300)]
        # Essentially i.i.d. N(0, 6²): sample std close to 6.
        assert np.std(values) == pytest.approx(6.0, rel=0.25)

    def test_small_steps_are_correlated(self):
        model = GudmundsonShadowing(
            rng(), sigma_db=6.0, decorrelation_distance_m=50.0
        )
        link = ("ap", "car")
        previous = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        diffs = []
        for i in range(1, 200):
            value = model.sample_db(link, Vec2(0, 0), Vec2(0.5 * i, 0))
            diffs.append(value - previous)
            previous = value
        # Step-to-step changes must be much smaller than the marginal std.
        assert np.std(diffs) < 2.5

    def test_different_links_independent(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        a = [model.sample_db(("ap", f"c{i}"), Vec2(0, 0), Vec2(5, 0)) for i in range(200)]
        assert np.std(a) == pytest.approx(6.0, rel=0.3)

    def test_reset_forgets_state(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        link = ("ap", "car")
        first = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        model.reset()
        second = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        assert first != second  # fresh draw, not the stored value

    def test_head_on_pass_decorrelates(self):
        """Two cars passing each other must not share one frozen draw.

        In a head-on pass the endpoint position *sum* is stationary —
        only the separation changes — so the field must also be indexed
        by separation (regression for the bidirectional scenario's
        oncoming-car links).
        """
        model = GudmundsonShadowing(
            rng(), sigma_db=6.0, decorrelation_distance_m=10.0
        )
        link = ("east", "west")
        values = [
            model.sample_db(link, Vec2(25.0 * t, 0.0), Vec2(1000.0 - 25.0 * t, 3.0))
            for t in range(40)
        ]
        assert np.std(values) > 2.0  # decorrelates over the pass
        assert len(set(values)) > 10  # not one frozen realisation

    def test_reciprocal_in_endpoint_order(self):
        model = GudmundsonShadowing(rng(), sigma_db=6.0)
        link = ("a", "b")
        forward = model.sample_db(link, Vec2(3, 1), Vec2(40, 2))
        reverse = model.sample_db(link, Vec2(40, 2), Vec2(3, 1))
        assert forward == pytest.approx(reverse)

    def test_validation(self):
        with pytest.raises(RadioError):
            GudmundsonShadowing(rng(), sigma_db=-1.0)
        with pytest.raises(RadioError):
            GudmundsonShadowing(rng(), decorrelation_distance_m=0.0)

    @staticmethod
    def _batch(model, link, tx_pos, rx_pos):
        return float(
            model.sample_db_batch(
                [link],
                np.array([stable_hash64(link)], dtype=np.uint64),
                tx_pos,
                np.array([rx_pos.x]),
                np.array([rx_pos.y]),
                np.array([tx_pos.distance_to(rx_pos)]),
            )[0]
        )

    @pytest.mark.parametrize(
        "first,second",
        [("scalar", "scalar"), ("scalar", "batch"), ("batch", "scalar")],
    )
    def test_cell_memo_shared_by_scalar_and_batch(self, first, second):
        """Either path may fill a cell's corner block; the other reuses it."""
        link = ("ap", "car")
        tx_pos = Vec2(0.0, 0.0)
        # Two receiver positions in one lattice cell of (sum, separation).
        rx_a, rx_b = Vec2(31.0, 2.0), Vec2(31.5, 2.25)
        model = GudmundsonShadowing(rng(), sigma_db=6.0, decorrelation_distance_m=18.0)
        fresh = GudmundsonShadowing(rng(), sigma_db=6.0, decorrelation_distance_m=18.0)
        draw = {
            "scalar": lambda m, rx: m.sample_db(link, tx_pos, rx),
            "batch": lambda m, rx: self._batch(m, link, tx_pos, rx),
        }
        draw[first](model, rx_a)
        # One cell, so the first lookup left exactly one block behind.
        assert len(model._corner_blocks) == 1
        reused = draw[second](model, rx_b)
        assert len(model._corner_blocks) == 1
        assert reused == fresh.sample_db(link, tx_pos, rx_b)
        assert reused == self._batch(
            GudmundsonShadowing(rng(), sigma_db=6.0, decorrelation_distance_m=18.0),
            link, tx_pos, rx_b,
        )


class TestTemporalTx:
    def test_same_instant_same_value_for_all_hub_links(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=2.0, hub="ap")
        a = model.sample_db(("ap", "car1"), Vec2(0, 0), Vec2(5, 0), time=1.0)
        b = model.sample_db(("car2", "ap"), Vec2(0, 0), Vec2(9, 0), time=1.0)
        assert b == pytest.approx(a)

    def test_non_hub_links_have_own_processes(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=2.0, hub="ap")
        a = model.sample_db(("car1", "car2"), Vec2(0, 0), Vec2(5, 0), time=1.0)
        b = model.sample_db(("car1", "car3"), Vec2(0, 0), Vec2(5, 0), time=1.0)
        assert a != b

    def test_long_gap_decorrelates(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=1.0, hub="ap")
        values = [
            model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=100.0 * i)
            for i in range(300)
        ]
        assert np.std(values) == pytest.approx(4.0, rel=0.25)

    def test_short_gap_correlated(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, tau_s=10.0, hub="ap")
        v0 = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.0)
        v1 = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.01)
        assert abs(v1 - v0) < 1.0

    def test_validation(self):
        with pytest.raises(RadioError):
            TemporalTxShadowing(rng(), sigma_db=-1.0)
        with pytest.raises(RadioError):
            TemporalTxShadowing(rng(), tau_s=0.0)

    def test_reset(self):
        model = TemporalTxShadowing(rng(), sigma_db=4.0, hub="ap")
        first = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.0)
        model.reset()
        second = model.sample_db(("ap", "c"), Vec2(0, 0), Vec2(0, 0), time=0.0)
        assert first != second


class TestComposite:
    def test_sums_components(self):
        class Constant(NoShadowing):
            def __init__(self, value):
                self.value = value

            def sample_db(self, link, tx_pos, rx_pos, time=0.0):
                return self.value

        model = CompositeShadowing([Constant(2.0), Constant(-0.5)])
        assert model.sample_db(("a", "b"), Vec2(0, 0), Vec2(0, 0)) == pytest.approx(1.5)

    def test_requires_components(self):
        with pytest.raises(RadioError):
            CompositeShadowing([])

    def test_reset_propagates(self):
        inner = GudmundsonShadowing(rng(), sigma_db=6.0)
        model = CompositeShadowing([inner])
        link = ("a", "b")
        first = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        model.reset()
        second = model.sample_db(link, Vec2(0, 0), Vec2(0, 0))
        assert first != second


class TestTimeInvariance:
    def test_models_declare_whether_time_moves_them(self):
        gudmundson = GudmundsonShadowing(rng())
        temporal = TemporalTxShadowing(rng(), hub="ap")
        assert NoShadowing().time_invariant()
        assert gudmundson.time_invariant()
        assert not temporal.time_invariant()
        assert CompositeShadowing([gudmundson, NoShadowing()]).time_invariant()
        assert not CompositeShadowing([gudmundson, temporal]).time_invariant()

    def test_unknown_models_default_to_time_varying(self):
        class Custom(ShadowingModel):
            def sample_db(self, link, tx_pos, rx_pos, time=0.0):
                return 0.0

        assert not Custom().time_invariant()
