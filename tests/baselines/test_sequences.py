"""Tests for repro.baselines.sequences."""

import numpy as np
import pytest

from repro.baselines.sequences import mean_rss, sign_vector_from_rss, sign_vectors_from_rss


class TestSignVectorFromRss:
    def test_one_shot_row(self):
        v = sign_vector_from_rss(np.array([-40.0, -50.0, -45.0]))
        # pairs (0,1), (0,2), (1,2)
        assert v.tolist() == [1.0, 1.0, -1.0]

    def test_group_mean_reduction(self):
        rss = np.array([[-40.0, -50.0], [-48.0, -42.0]])
        # means: -44 vs -46 -> node 0 louder
        assert sign_vector_from_rss(rss)[0] == 1.0

    def test_group_last_reduction(self):
        """The group's last sample alone, read as a one-shot row, orders
        the pair the other way round."""
        rss = np.array([[-40.0, -50.0], [-48.0, -42.0]])
        assert sign_vector_from_rss(rss[-1])[0] == -1.0

    def test_silent_vs_reporting(self):
        v = sign_vector_from_rss(np.array([np.nan, -50.0]))
        assert v[0] == -1.0  # reporting node reads stronger

    def test_both_silent_is_nan(self):
        v = sign_vector_from_rss(np.array([np.nan, np.nan, -50.0]))
        assert np.isnan(v[0])
        assert v[1] == -1.0 and v[2] == -1.0

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            sign_vector_from_rss(np.zeros((2, 2, 2)))


    def test_is_one_round_of_the_stack(self):
        rss = np.array([[-40.0, np.nan, -45.0], [-48.0, np.nan, np.nan]])
        stacked = sign_vectors_from_rss(rss[None])[0]
        assert np.array_equal(sign_vector_from_rss(rss), stacked, equal_nan=True)


class TestMeanRss:
    def test_skips_missing_samples(self):
        rss = np.array([[-40.0, np.nan, -50.0], [-48.0, np.nan, np.nan]])
        means = mean_rss(rss)
        assert means[0] == -44.0 and means[2] == -50.0
        assert np.isnan(means[1])  # silent sensor

    def test_reduces_the_sample_axis_of_a_stack(self):
        rss = np.array([[[-40.0, -50.0], [-42.0, np.nan]], [[np.nan, -60.0], [np.nan, -62.0]]])
        assert np.array_equal(mean_rss(rss), [[-41.0, -50.0], [np.nan, -61.0]], equal_nan=True)
