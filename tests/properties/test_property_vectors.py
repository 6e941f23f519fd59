"""Property-based tests for sampling-vector construction (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.vectors import (
    extended_sampling_vector,
    sampling_vector,
    sampling_vectors,
)
from repro.oracle import oracle_sampling_vector

rss_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.integers(2, 7)),
    elements=st.floats(-100.0, 0.0, allow_nan=False),
)


@given(rss_matrices)
@settings(max_examples=100, deadline=None)
def test_vectorized_matches_algorithm1_reference(rss):
    assert np.array_equal(sampling_vector(rss), oracle_sampling_vector(rss))


@given(rss_matrices)
@settings(max_examples=100, deadline=None)
def test_basic_values_in_valid_set(rss):
    v = sampling_vector(rss)
    assert set(np.unique(v)).issubset({-1.0, 0.0, 1.0})


@given(rss_matrices)
@settings(max_examples=100, deadline=None)
def test_extended_bounded_and_sign_consistent(rss):
    vb = sampling_vector(rss)
    ve = extended_sampling_vector(rss)
    assert np.all(ve >= -1.0) and np.all(ve <= 1.0)
    # wherever basic is ordinal (+-1) the extended value is exactly +-1
    assert np.all(ve[vb == 1.0] == 1.0)
    assert np.all(ve[vb == -1.0] == -1.0)
    # wherever basic flipped, extended magnitude is strictly below 1
    assert np.all(np.abs(ve[vb == 0.0]) < 1.0)


@given(rss_matrices)
@settings(max_examples=100, deadline=None)
def test_vector_length_is_pair_count(rss):
    n = rss.shape[1]
    assert len(sampling_vector(rss)) == n * (n - 1) // 2


@given(rss_matrices, st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_column_permutation_antisymmetry(rss, swap_seed):
    """Swapping two sensor columns negates exactly their pair value."""
    n = rss.shape[1]
    rng = np.random.default_rng(swap_seed)
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    swapped = rss.copy()
    swapped[:, [i, j]] = swapped[:, [j, i]]
    v1 = sampling_vector(rss)
    v2 = sampling_vector(swapped)
    # the (i, j) component flips sign
    from repro.geometry.primitives import pair_index

    p = pair_index(i, j, n)
    assert v1[p] == -v2[p]


@given(rss_matrices, st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_larger_deadband_never_creates_ordinal_pairs(rss, eps):
    """Raising the comparator deadband can only turn +-1 into 0, not the
    other way round."""
    v0 = sampling_vector(rss)
    v1 = sampling_vector(rss, comparator_eps=eps)
    ordinal_after = np.abs(v1) == 1.0
    assert np.all(np.abs(v0[ordinal_after]) == 1.0)


@given(rss_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_eq7_mask_then_diff_equals_diff_then_mask(rss, data):
    """The Eq. 7 masked distance commutes with the masking order.

    Zeroing the difference at ``*`` components after subtracting must give
    exactly what compressing the masked components out before subtracting
    gives.  Basic pair values are small integers, so both orders sum the
    same exact terms and the equality is bitwise.
    """
    n = rss.shape[1]
    silent = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="silent")
    rss = rss.copy()
    rss[:, np.asarray(silent, dtype=bool)] = np.nan
    v = sampling_vector(rss)
    sig_values = data.draw(
        st.lists(
            st.sampled_from([-1.0, 0.0, 1.0]), min_size=len(v), max_size=len(v)
        ),
        label="signature",
    )
    sig = np.asarray(sig_values)
    mask = np.isnan(v)
    diff_then_mask = sig - v
    diff_then_mask[mask] = 0.0
    d2_after = float(np.dot(diff_then_mask, diff_then_mask))
    kept = ~mask
    pre = sig[kept] - v[kept]
    d2_before = float(np.dot(pre, pre))
    assert d2_after == d2_before


@given(rss_matrices, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_pair_index_permutation_invariance(rss, perm_seed):
    """Reordering the pair enumeration permutes the vector, nothing more."""
    from repro.geometry.primitives import enumerate_pairs

    n = rss.shape[1]
    i_idx, j_idx = enumerate_pairs(n)
    perm = np.random.default_rng(perm_seed).permutation(len(i_idx))
    direct = sampling_vectors(rss[None], (i_idx[perm], j_idx[perm]))[0]
    permuted = sampling_vector(rss)[perm]
    assert np.array_equal(direct, permuted, equal_nan=True)
    direct_ext = extended_sampling_vector(rss, (i_idx[perm], j_idx[perm]))
    permuted_ext = extended_sampling_vector(rss)[perm]
    assert np.array_equal(direct_ext, permuted_ext, equal_nan=True)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 6), st.integers(2, 6)),
        elements=st.floats(-100.0, 0.0, allow_nan=False),
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_fault_fill_star_only_when_both_silent(rss, data):
    """NaN pair values appear exactly for pairs of two silent sensors."""
    n = rss.shape[1]
    silent = data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n), label="silent"
    )
    rss = rss.copy()
    rss[:, np.asarray(silent, dtype=bool)] = np.nan
    v = sampling_vector(rss)
    from repro.geometry.primitives import enumerate_pairs

    i_idx, j_idx = enumerate_pairs(n)
    silent = np.asarray(silent, dtype=bool)
    both_silent = silent[i_idx] & silent[j_idx]
    assert np.array_equal(np.isnan(v), both_silent)
