"""Property-based tests for the Eq. 7 masked distance and Definition 7.

The reference is the oracle tier's scalar
:func:`repro.oracle.oracle_masked_sq_distance`; Eq. 7 masks the ``*``
(NaN) components of the sampling vector, signatures are never ``*``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.oracle import oracle_masked_sq_distance

trit_vectors = hnp.arrays(
    dtype=np.float64, shape=st.integers(1, 40), elements=st.sampled_from([-1.0, 0.0, 1.0])
)


@st.composite
def vector_pairs(draw):
    """A sampling vector with ``*`` components and a trit signature."""
    n = draw(st.integers(1, 30))
    trits = st.sampled_from([-1.0, 0.0, 1.0])
    v1 = draw(hnp.arrays(dtype=np.float64, shape=n, elements=st.one_of(trits, st.just(np.nan))))
    v2 = draw(hnp.arrays(dtype=np.float64, shape=n, elements=trits))
    return v1, v2


@given(vector_pairs())
@settings(max_examples=150, deadline=None)
def test_symmetry(pair):
    """Swapping vector and signature, with the same pairs masked, keeps the distance."""
    v1, v2 = pair
    mask = np.isnan(v1)
    v1_full = np.where(mask, 0.0, v1)
    swapped = np.where(mask, np.nan, v2)
    assert oracle_masked_sq_distance(v1, v2) == oracle_masked_sq_distance(swapped, v1_full)


@given(trit_vectors)
@settings(max_examples=100, deadline=None)
def test_self_similarity_infinite(v):
    """A vector is at masked distance 0 from itself: infinite Definition 7
    similarity."""
    assert oracle_masked_sq_distance(v, v) == 0.0


@given(vector_pairs())
@settings(max_examples=150, deadline=None)
def test_masked_difference_zero_where_nan(pair):
    """``*`` components contribute exactly nothing: the distance equals the
    distance over the observed components alone."""
    v1, v2 = pair
    observed = ~np.isnan(v1)
    d = oracle_masked_sq_distance(v1, v2)
    assert d == oracle_masked_sq_distance(v1[observed], v2[observed])
    assert not np.isnan(d)


@given(vector_pairs())
@settings(max_examples=150, deadline=None)
def test_masking_never_increases_distance(pair):
    """Replacing a component with * can only shrink the distance."""
    v1, v2 = pair
    base = oracle_masked_sq_distance(v1, v2)
    v1_masked = v1.copy()
    v1_masked[0] = np.nan
    assert oracle_masked_sq_distance(v1_masked, v2) <= base + 1e-12


@given(trit_vectors, st.integers(0, 39))
@settings(max_examples=100, deadline=None)
def test_triangle_like_monotonicity(v, idx):
    """Perturbing one component by one unit moves the distance by exactly one."""
    if idx >= len(v):
        idx = idx % len(v)
    v2 = v.copy()
    v2[idx] += 1.0
    assert oracle_masked_sq_distance(v, v2) == 1.0
