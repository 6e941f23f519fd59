"""Tests for repro.analysis.error_bounds (§5.2, Appendix II)."""

import pytest

from repro.analysis.error_bounds import (
    expected_interface_error,
    simulate_interface_error,
    worst_case_error_bound,
)


class TestExpectedInterfaceError:
    def test_appendix_ii_closed_form(self):
        # E_N = N * f with f = (1/2)^(k-1)
        assert expected_interface_error(5, 10) == pytest.approx(10 * 0.0625)

    def test_zero_pairs_no_error(self):
        assert expected_interface_error(5, 0) == 0.0

    def test_linear_in_n(self):
        e1 = expected_interface_error(4, 7)
        e2 = expected_interface_error(4, 14)
        assert e2 == pytest.approx(2 * e1)

    def test_decreasing_in_k(self):
        es = [expected_interface_error(k, 10) for k in (2, 4, 8)]
        assert all(a > b for a, b in zip(es, es[1:]))


class TestClosedFormGrid:
    """Hand-computed ``E_N = N * (1/2)^(k-1)`` over the quoted (k, N) grid."""

    EXPECTED = {
        (2, 4): 2.0,
        (2, 9): 4.5,
        (2, 16): 8.0,
        (5, 4): 0.25,
        (5, 9): 0.5625,
        (5, 16): 1.0,
        (8, 4): 0.03125,
        (8, 9): 0.0703125,
        (8, 16): 0.125,
    }

    @pytest.mark.parametrize("k", [2, 5, 8])
    @pytest.mark.parametrize("n_pairs", [4, 9, 16])
    def test_matches_hand_computed(self, k, n_pairs):
        # dyadic rationals: the closed form must be *exact*, not approximate
        assert expected_interface_error(k, n_pairs) == self.EXPECTED[(k, n_pairs)]


class TestMonteCarloValidation:
    def test_matches_closed_form(self):
        est = simulate_interface_error(5, 20, n_trials=200_000, rng=0)
        assert est == pytest.approx(expected_interface_error(5, 20), rel=0.05)

    def test_zero_pairs(self):
        assert simulate_interface_error(5, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_interface_error(5, -1)
        with pytest.raises(ValueError):
            simulate_interface_error(5, 3, n_trials=0)


class TestWorstCaseBound:
    def test_eq10_scaling_in_k(self):
        """Bound halves per extra sampling time pair: ~ 2^(-(k-1)/2)."""
        b3 = worst_case_error_bound(3, 1e-3, 40.0)
        b5 = worst_case_error_bound(5, 1e-3, 40.0)
        assert b5 / b3 == pytest.approx(0.5, rel=1e-6)

    def test_scaling_in_density(self):
        """Doubling density should roughly halve the bound (1/rho term)."""
        b1 = worst_case_error_bound(5, 1e-3, 40.0)
        b2 = worst_case_error_bound(5, 2e-3, 40.0)
        assert 0.4 < b2 / b1 < 0.6

    def test_scaling_in_range(self):
        """Doubling R should roughly halve the bound (1/R term)."""
        b1 = worst_case_error_bound(5, 2e-3, 30.0)
        b2 = worst_case_error_bound(5, 2e-3, 60.0)
        assert 0.4 < b2 / b1 < 0.6

    def test_vacuous_when_too_sparse(self):
        with pytest.raises(ValueError, match="vacuous"):
            worst_case_error_bound(5, 1e-6, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_error_bound(5, 0.0, 40.0)
