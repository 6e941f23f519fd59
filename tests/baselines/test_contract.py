"""The tracker contract, checked for every tracker ``make_tracker`` builds.

Every tracker shares :class:`repro.core.tracker.Tracker`'s per-round
contract: ``localize_batch`` is ``localize`` at the round's first sample
time, ``track`` continues from the tracker's state, ``reset`` starts a
fresh trace, and an RSS matrix of the wrong width is a ``ValueError``
naming both sensor counts.
"""

import numpy as np
import pytest

from repro.config import GridConfig, SimulationConfig
from repro.network.faults import IndependentDropout
from repro.rf.channel import SampleBatch
from repro.sim.runner import generate_batches
from repro.sim.scenario import TRACKER_NAMES, make_scenario


@pytest.fixture(scope="module")
def world():
    config = SimulationConfig(n_sensors=8, duration_s=10.0, grid=GridConfig(cell_size_m=4.0))
    scenario = make_scenario(config, seed=5)
    batches = generate_batches(scenario, 9, faults=IndependentDropout(p=0.2), n_rounds=8)
    return scenario, batches


def assert_same_estimates(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.face_ids, b.face_ids)
        assert np.array_equal([a.sq_distance], [b.sq_distance], equal_nan=True)
        assert a.n_reporting == b.n_reporting
        assert a.visited_faces == b.visited_faces


@pytest.mark.parametrize("name", TRACKER_NAMES)
def test_localize_batch_is_localize_at_first_sample_time(world, name):
    scenario, batches = world
    via_batch = scenario.make_tracker(name)
    via_rss = scenario.make_tracker(name)
    assert_same_estimates(
        [via_batch.localize_batch(b) for b in batches],
        [via_rss.localize(b.rss, t=float(b.times[0])) for b in batches],
    )


@pytest.mark.parametrize("name", TRACKER_NAMES)
def test_reset_exists(world, name):
    scenario, batches = world
    tracker = scenario.make_tracker(name)
    tracker.localize_batch(batches[0])
    assert tracker.reset() is None


@pytest.mark.parametrize("name", TRACKER_NAMES)
def test_wrong_width_names_both_counts(world, name):
    scenario, _ = world
    n = scenario.n_sensors
    rss = np.full((3, n + 2), -60.0)
    batch = SampleBatch(rss=rss, times=np.arange(3) / 10.0, positions=np.zeros((3, 2)))
    message = rf"\b{n + 2} sensors\b.*\b{n}\b"
    tracker = scenario.make_tracker(name)
    assert tracker.n_sensors == n
    with pytest.raises(ValueError, match=message):
        tracker.localize(rss)
    with pytest.raises(ValueError, match=message):
        scenario.make_tracker(name).track([batch])


# PM decodes the whole trace offline: splitting it changes the path
@pytest.mark.parametrize("name", [n for n in TRACKER_NAMES if n != "pm"])
def test_track_continues_from_tracker_state(world, name):
    scenario, batches = world
    split = scenario.make_tracker(name)
    first = split.track(batches[:3]).estimates
    rest = split.track(batches[3:]).estimates
    whole = scenario.make_tracker(name).track(batches).estimates
    assert_same_estimates(first + rest, whole)
