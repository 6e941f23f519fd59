"""Tests for repro.core.vectors — Algorithm 1 and Definitions 4/5/10, Eq. 6."""

import numpy as np
import pytest

from repro.core.vectors import (
    extended_sampling_vector,
    pair_win_counts,
    sampling_vector,
)
from repro.oracle import oracle_sampling_vector


def fig5_matrix() -> np.ndarray:
    """A grouping sampling reproducing the paper's Fig. 5 example.

    Four sensors, six samples; sensor 2 loudest, then 1; pair (3, 4)
    flips while every other pair is ordinal -> vector [-1,1,1,1,1,0]
    in the canonical order (1,2),(1,3),(1,4),(2,3),(2,4),(3,4).
    """
    return np.array(
        [
            #  n1    n2   n3   n4
            [8.0, 10.0, 5.0, 4.0],
            [8.0, 10.0, 3.0, 4.0],
            [8.0, 10.0, 5.0, 4.0],
            [8.0, 10.0, 3.0, 4.0],
            [8.0, 10.0, 5.0, 4.0],
            [8.0, 10.0, 3.0, 4.0],
        ]
    )


class TestBasicSamplingVector:
    def test_paper_fig5_example(self):
        v = sampling_vector(fig5_matrix())
        assert v.tolist() == [-1.0, 1.0, 1.0, 1.0, 1.0, 0.0]

    def test_matches_algorithm1_reference(self, rng):
        for _ in range(25):
            rss = rng.normal(-60, 10, size=(rng.integers(1, 8), rng.integers(2, 7)))
            assert np.array_equal(sampling_vector(rss), oracle_sampling_vector(rss))

    def test_single_sample_never_flips(self, rng):
        rss = rng.normal(-60, 10, size=(1, 5))
        v = sampling_vector(rss)
        assert np.all(np.abs(v) == 1.0)

    def test_values_in_valid_set(self, rng):
        rss = rng.normal(-60, 10, size=(5, 6))
        v = sampling_vector(rss)
        assert set(np.unique(v)).issubset({-1.0, 0.0, 1.0})

    def test_vector_length(self, rng):
        for n in (2, 4, 9):
            rss = rng.normal(size=(3, n))
            assert len(sampling_vector(rss)) == n * (n - 1) // 2

    def test_exact_tie_counts_as_flip(self):
        rss = np.array([[5.0, 5.0], [6.0, 4.0]])
        assert sampling_vector(rss)[0] == 0.0

    def test_comparator_eps_widens_ties(self):
        rss = np.array([[5.0, 4.5], [5.0, 4.5]])
        assert sampling_vector(rss)[0] == 1.0
        assert sampling_vector(rss, comparator_eps=1.0)[0] == 0.0

    def test_antisymmetry_under_column_swap(self, rng):
        rss = rng.normal(size=(4, 2))
        v_fwd = sampling_vector(rss)[0]
        v_rev = sampling_vector(rss[:, ::-1])[0]
        assert v_fwd == -v_rev

    def test_rejects_single_sensor(self):
        with pytest.raises(ValueError, match="two sensors"):
            sampling_vector(np.zeros((3, 1)))

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            sampling_vector(np.zeros((2, 3)), comparator_eps=-1.0)


class TestFaultTolerantFill:
    def test_paper_section443_example(self):
        """Only n1 and n3 report, rss1 > rss3 -> [1, 1, 1, -1, *, 1]."""
        rss = np.full((3, 4), np.nan)
        rss[:, 0] = -50.0  # n1
        rss[:, 2] = -60.0  # n3
        v = sampling_vector(rss)
        assert v[0] == 1.0  # (n1, n2): n1 reports
        assert v[1] == 1.0  # (n1, n3): direct comparison
        assert v[2] == 1.0  # (n1, n4): n1 reports
        assert v[3] == -1.0  # (n2, n3): n3 reports
        assert np.isnan(v[4])  # (n2, n4): both silent -> *
        assert v[5] == 1.0  # (n3, n4): n3 reports

    def test_all_silent_gives_all_star(self):
        v = sampling_vector(np.full((2, 4), np.nan))
        assert np.isnan(v).all()

    def test_partial_sample_loss_uses_common_instants(self):
        # sensor 1 misses the middle sample; comparison uses rows 0 and 2
        rss = np.array([[10.0, 5.0], [np.nan, 99.0], [10.0, 5.0]])
        assert sampling_vector(rss)[0] == 1.0

    def test_no_common_instants_falls_back_to_means(self):
        rss = np.array([[10.0, np.nan], [np.nan, 5.0]])
        assert sampling_vector(rss)[0] == 1.0

    def test_extended_fill_matches_basic(self):
        rss = np.full((3, 3), np.nan)
        rss[:, 0] = -50.0
        vb = sampling_vector(rss)
        ve = extended_sampling_vector(rss)
        assert vb[0] == ve[0] == 1.0  # (0,1): only 0 reports
        assert vb[1] == ve[1] == 1.0  # (0,2)
        assert np.isnan(vb[2]) and np.isnan(ve[2])  # (1,2) both silent


class TestExtendedSamplingVector:
    def test_paper_fig9_value(self):
        """Four wins vs two losses out of six -> (4-2)/6 = 1/3."""
        rss = np.array(
            [
                [10.0, 5.0],
                [10.0, 5.0],
                [10.0, 5.0],
                [10.0, 5.0],
                [5.0, 10.0],
                [5.0, 10.0],
            ]
        )
        assert extended_sampling_vector(rss)[0] == pytest.approx(1.0 / 3.0)

    def test_range(self, rng):
        rss = rng.normal(size=(6, 5))
        v = extended_sampling_vector(rss)
        assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_agrees_with_basic_at_extremes(self, rng):
        # widely separated sensors: both vectors show the same ordinal values
        rss = np.array([[0.0, -30.0, -60.0]] * 4)
        assert np.array_equal(extended_sampling_vector(rss), sampling_vector(rss))

    def test_extended_refines_flips(self):
        rss = np.array([[10.0, 5.0]] * 5 + [[5.0, 10.0]])
        assert sampling_vector(rss)[0] == 0.0  # flipped
        assert extended_sampling_vector(rss)[0] == pytest.approx(4.0 / 6.0)

    def test_ties_count_for_neither_side(self):
        rss = np.array([[5.0, 5.0], [10.0, 4.0]])
        assert extended_sampling_vector(rss)[0] == pytest.approx(0.5)


class TestPairWinCounts:
    def test_counts_sum_to_valid(self, rng):
        rss = rng.normal(size=(7, 4))
        wi, wj, valid = pair_win_counts(rss)
        assert np.all(wi + wj <= valid)
        assert np.all(valid == 7)

    def test_nan_reduces_valid(self):
        rss = np.array([[1.0, 2.0], [np.nan, 2.0], [3.0, 2.0]])
        _, _, valid = pair_win_counts(rss)
        assert valid[0] == 2

    def test_eps_creates_ties(self):
        rss = np.array([[5.0, 4.8]])
        wi, wj, valid = pair_win_counts(rss, comparator_eps=0.5)
        assert wi[0] == 0 and wj[0] == 0 and valid[0] == 1


class TestAlgorithm1Reference:
    """The oracle tier's loop transcription of Algorithm 1."""

    def test_nan_groups_match_production(self):
        rss = np.array([[1.0, np.nan, 3.0], [2.0, np.nan, np.nan]])
        expected = sampling_vector(rss)
        assert np.array_equal(oracle_sampling_vector(rss), expected, equal_nan=True)
        assert expected[0] == 1.0 and expected[1] == -1.0  # Eq. 6 fill for the silent sensor

    def test_fig5(self):
        assert oracle_sampling_vector(fig5_matrix()).tolist() == [-1, 1, 1, 1, 1, 0]
