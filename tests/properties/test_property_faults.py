"""Property-based fault-masking invariants (hypothesis).

The paper's fault handling is two equations: Eq. 6 fills each pair of a
partially-reporting group (+1/-1 when exactly one endpoint reports, ``*``
when neither does), and Eq. 7 makes ``*`` components vanish from the
vector distance.  These properties pin the contracts:

* masked ``*``/NaN components never influence ``‖V_d - V_s‖`` or the
  chosen face — the distance equals the manual computation over the
  unmasked components only;
* ``CompositeFaults`` is exactly the union of its parts' drop masks,
  drawn from the same rng stream;
* masking is idempotent — applying the same drop mask twice yields a
  bit-identical sampling vector.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectors import extended_sampling_vector, sampling_vector
from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.geometry.primitives import enumerate_pairs
from repro.network.deployment import random_deployment
from repro.network.faults import (
    CompositeFaults,
    CrashFailures,
    IndependentDropout,
    IntermittentFaults,
    NoFaults,
)

# -- strategies ---------------------------------------------------------------


@st.composite
def face_maps(draw):
    seed = draw(st.integers(0, 5_000))
    n = draw(st.integers(3, 6))
    nodes = random_deployment(n, 60.0, seed, min_separation=5.0)
    return build_face_map(nodes, Grid.square(60.0, 4.0), draw(st.floats(1.05, 2.0)))


@st.composite
def masked_vectors(draw, fm):
    """A qualitative sampling vector with a random ``*`` (NaN) mask."""
    p = fm.n_pairs
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=p, max_size=p))
    mask = draw(st.lists(st.booleans(), min_size=p, max_size=p))
    v = np.asarray(values, dtype=float)
    v[np.asarray(mask, dtype=bool)] = np.nan
    return v


@st.composite
def rss_with_drop(draw):
    """A (k, n) RSS matrix plus a drop mask (at least one survivor)."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(3, 7))
    flat = draw(
        st.lists(st.floats(-100.0, 0.0, allow_nan=False), min_size=k * n, max_size=k * n)
    )
    rss = np.asarray(flat, dtype=float).reshape(k, n)
    drop = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if drop.all():
        drop[draw(st.integers(0, n - 1))] = False
    return rss, drop


def _apply_drop(rss: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """A dropped sensor reports nothing: its whole column goes NaN."""
    out = rss.copy()
    out[:, drop] = np.nan
    return out


# -- Eq. 7: masked components never influence distance or face ----------------


@st.composite
def face_map_and_vector(draw):
    fm = draw(face_maps())
    return fm, draw(masked_vectors(fm))


@given(face_map_and_vector())
@settings(max_examples=40, deadline=None)
def test_masked_components_never_influence_distance(fmv):
    """distances_to == manual sum over unmasked components only."""
    fm, v = fmv
    keep = ~np.isnan(v)
    sigs = fm.signatures.astype(np.float32)
    diff = sigs[:, keep] - v[keep].astype(np.float32)
    manual = np.einsum("fp,fp->f", diff, diff)
    got = fm.distances_to(v)
    # qualitative values: every term is a small integer, sums are exact
    assert np.array_equal(got, manual)


@given(face_map_and_vector())
@settings(max_examples=40, deadline=None)
def test_masked_components_never_influence_chosen_face(fmv):
    fm, v = fmv
    keep = ~np.isnan(v)
    sigs = fm.signatures.astype(np.float32)
    diff = sigs[:, keep] - v[keep].astype(np.float32)
    manual = np.einsum("fp,fp->f", diff, diff)
    ties, d2 = fm.match(v)
    assert d2 == manual.min()
    assert set(ties.tolist()) == set(np.flatnonzero(manual <= manual.min() + 1e-9).tolist())


@given(face_map_and_vector())
@settings(max_examples=30, deadline=None)
def test_batched_distances_respect_mask(fmv):
    fm, v = fmv
    single = fm.distances_to(v)
    batched = fm.distances_to_many(np.stack([v, v]))
    assert np.array_equal(batched[0], single)
    assert np.array_equal(batched[1], single)


@given(face_map_and_vector())
@settings(max_examples=30, deadline=None)
def test_fully_masked_vector_ties_every_face(fmv):
    """An all-``*`` vector carries no information: distance 0 to every face."""
    fm, v = fmv
    v = np.full_like(v, np.nan)
    assert np.array_equal(fm.distances_to(v), np.zeros(fm.n_faces, dtype=np.float32))


# -- Eq. 6: drop masks and the sampling vector --------------------------------


@given(rss_with_drop())
@settings(max_examples=60, deadline=None)
def test_star_exactly_on_both_silent_pairs(rd):
    rss, drop = rd
    n = rss.shape[1]
    i_idx, j_idx = enumerate_pairs(n)
    v = sampling_vector(_apply_drop(rss, drop))
    expected_star = drop[i_idx] & drop[j_idx]
    assert np.array_equal(np.isnan(v), expected_star)


@given(rss_with_drop())
@settings(max_examples=60, deadline=None)
def test_reporting_pairs_unaffected_by_drop(rd):
    """Pairs between two reporting sensors keep their fault-free value."""
    rss, drop = rd
    n = rss.shape[1]
    i_idx, j_idx = enumerate_pairs(n)
    full = sampling_vector(rss)
    masked = sampling_vector(_apply_drop(rss, drop))
    both_report = ~drop[i_idx] & ~drop[j_idx]
    assert np.array_equal(masked[both_report], full[both_report])


@given(rss_with_drop())
@settings(max_examples=60, deadline=None)
def test_masking_idempotent(rd):
    """The same drop mask applied twice yields a bit-identical vector."""
    rss, drop = rd
    once = _apply_drop(rss, drop)
    twice = _apply_drop(once, drop)
    v1 = sampling_vector(once)
    v2 = sampling_vector(twice)
    assert np.array_equal(v1, v2, equal_nan=True)
    e1 = extended_sampling_vector(once)
    e2 = extended_sampling_vector(twice)
    assert np.array_equal(e1, e2, equal_nan=True)


@given(rss_with_drop())
@settings(max_examples=40, deadline=None)
def test_dropped_values_do_not_leak(rd):
    """What a dropped sensor would have measured cannot matter."""
    rss, drop = rd
    if not drop.any():
        return
    other = rss.copy()
    other[:, drop] += 17.0  # different readings on the dropped sensors
    va = sampling_vector(_apply_drop(rss, drop))
    vb = sampling_vector(_apply_drop(other, drop))
    assert np.array_equal(va, vb, equal_nan=True)


# -- CompositeFaults == union of its parts ------------------------------------


def _fresh_parts(p_drop, crash_frac, p_fail, seed_horizon):
    """Stateful models must be rebuilt per run; keep construction in one place."""
    return [
        IndependentDropout(p=p_drop),
        CrashFailures(crash_fraction=crash_frac, horizon_rounds=seed_horizon),
        IntermittentFaults(p_fail=p_fail, p_recover=0.3),
    ]


@given(
    st.integers(0, 10_000),
    st.integers(2, 12),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_composite_equals_union_of_parts(seed, n, rounds, p_drop, crash_frac, p_fail):
    horizon = max(rounds, 2)
    composite = CompositeFaults(_fresh_parts(p_drop, crash_frac, p_fail, horizon))
    rng_c = np.random.default_rng(seed)
    composite_masks = [composite.drop_mask(n, r, rng_c) for r in range(rounds)]

    # same seed, same sequential draw order -> the parts consume the rng
    # stream exactly as the composite does
    parts = _fresh_parts(p_drop, crash_frac, p_fail, horizon)
    rng_p = np.random.default_rng(seed)
    for r in range(rounds):
        union = np.zeros(n, dtype=bool)
        for part in parts:
            union |= part.drop_mask(n, r, rng_p)
        assert np.array_equal(composite_masks[r], union)


@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_composite_with_nofaults_is_identity(seed, n, rounds):
    inner = IndependentDropout(p=0.5)
    composite = CompositeFaults([NoFaults(), inner])
    rng_c = np.random.default_rng(seed)
    rng_i = np.random.default_rng(seed)
    for r in range(rounds):
        assert np.array_equal(
            composite.drop_mask(n, r, rng_c), inner.drop_mask(n, r, rng_i)
        )


@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_crash_failures_are_monotone(seed, n, rounds):
    """Once crashed, a sensor never reports again (masks only grow)."""
    model = CrashFailures(crash_fraction=0.5, horizon_rounds=rounds)
    rng = np.random.default_rng(seed)
    prev = np.zeros(n, dtype=bool)
    for r in range(rounds):
        mask = model.drop_mask(n, r, rng)
        assert not (prev & ~mask).any()
        prev = mask
