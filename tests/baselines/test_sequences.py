"""Tests for repro.baselines.sequences."""

import numpy as np
import pytest

from repro.baselines.direct_mle import DirectMLETracker
from repro.baselines.sequences import mean_rss, sign_vectors_from_rss


class TestSignVectorFromRss:
    """One round's sign vector: the ``T = 1`` stack, a ``(1, n)`` group for
    a one-shot row."""

    def test_one_shot_row(self):
        v = sign_vectors_from_rss(np.array([[[-40.0, -50.0, -45.0]]]))[0]
        # pairs (0,1), (0,2), (1,2)
        assert v.tolist() == [1.0, 1.0, -1.0]

    def test_group_mean_reduction(self):
        rss = np.array([[-40.0, -50.0], [-48.0, -42.0]])
        # means: -44 vs -46 -> node 0 louder
        assert sign_vectors_from_rss(rss[None])[0, 0] == 1.0

    def test_group_last_reduction(self):
        """The group's last sample alone, read as a one-shot row, orders
        the pair the other way round."""
        rss = np.array([[-40.0, -50.0], [-48.0, -42.0]])
        assert sign_vectors_from_rss(rss[None, -1:])[0, 0] == -1.0

    def test_silent_vs_reporting(self):
        v = sign_vectors_from_rss(np.array([[[np.nan, -50.0]]]))[0]
        assert v[0] == -1.0  # reporting node reads stronger

    def test_both_silent_is_nan(self):
        v = sign_vectors_from_rss(np.array([[[np.nan, np.nan, -50.0]]]))[0]
        assert np.isnan(v[0])
        assert v[1] == -1.0 and v[2] == -1.0

    def test_rejects_3d(self):
        """A round is ``(k, n)``: a 3-D round makes a 4-D stack, and a bare
        round is not a stack."""
        with pytest.raises(ValueError):
            sign_vectors_from_rss(np.zeros((2, 2, 2))[None])
        with pytest.raises(ValueError):
            sign_vectors_from_rss(np.zeros((2, 2)))

    def test_is_one_round_of_the_stack(self, certain_map):
        """Direct MLE's one-round vector is that round's row of the stack."""
        rss = np.array([[-40.0, np.nan, -45.0, np.nan], [-48.0, np.nan, np.nan, np.nan]])
        stacked = sign_vectors_from_rss(np.stack([rss, rss[::-1]]))[0]
        one_round = DirectMLETracker(certain_map).build_vector(rss)
        assert np.array_equal(one_round, stacked, equal_nan=True)
        assert np.isnan(one_round[-2])  # sensors 1 and 3 both silent


class TestMeanRss:
    def test_skips_missing_samples(self):
        rss = np.array([[-40.0, np.nan, -50.0], [-48.0, np.nan, np.nan]])
        means = mean_rss(rss)
        assert means[0] == -44.0 and means[2] == -50.0
        assert np.isnan(means[1])  # silent sensor

    def test_reduces_the_sample_axis_of_a_stack(self):
        rss = np.array([[[-40.0, -50.0], [-42.0, np.nan]], [[np.nan, -60.0], [np.nan, -62.0]]])
        assert np.array_equal(mean_rss(rss), [[-41.0, -50.0], [np.nan, -61.0]], equal_nan=True)
