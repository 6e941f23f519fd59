"""The broadcast Algorithm 1 kernel against its scalar references.

``sampling_vectors``, ``extended_sampling_vectors`` and ``pair_win_counts``
reduce the all-pairs RSS difference broadcast over the sample axis and
only then gather the P pairs.  These hand-built stacks pin them, value
for value (NaN for ``*``), to the loop transcription of Algorithm 1 in
the oracle tier and to the one-round (T = 1) loop: on every Eq. 6
branch, on differences exactly at the comparator deadband, at the
smallest shapes, on rounds with different silent sensors, and across the
kernel's trace-axis blocks.
"""

import numpy as np
import pytest

import repro.core.vectors as vectors
from repro.core.vectors import (
    extended_sampling_vector,
    extended_sampling_vectors,
    pair_win_counts,
    sampling_vector,
    sampling_vectors,
)
from repro.geometry.primitives import enumerate_pairs, pair_index
from repro.oracle import oracle_sampling_vector

NAN = np.nan

#: mode -> (stack kernel, one-round function)
MODES = {
    "basic": (sampling_vectors, sampling_vector),
    "extended": (extended_sampling_vectors, extended_sampling_vector),
}


def _loop_counts(rss: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """Per-pair (wins_i, wins_j, valid) of one (k, n) round by scalar loops."""
    counts = []
    for i, j in zip(*enumerate_pairs(rss.shape[1])):
        wins_i = wins_j = valid = 0
        for a, b in zip(rss[:, i], rss[:, j]):
            if np.isnan(a - b):
                continue
            valid += 1
            wins_i += bool(a - b > eps)
            wins_j += bool(a - b < -eps)
        counts.append((wins_i, wins_j, valid))
    return tuple(np.array(c) for c in zip(*counts))


def assert_matches_references(stack: np.ndarray, eps: float) -> None:
    """Both stack kernels equal the T = 1 loop and the oracle on every round,
    and ``pair_win_counts`` equals the scalar counts."""
    for mode, (stacked, one_round) in MODES.items():
        got = stacked(stack, comparator_eps=eps)
        loop = np.stack([one_round(r, comparator_eps=eps) for r in stack])
        oracle = np.stack(
            [oracle_sampling_vector(r, mode=mode, comparator_eps=eps) for r in stack]
        )
        assert np.array_equal(got, loop, equal_nan=True), mode
        assert np.array_equal(got, oracle, equal_nan=True), mode
    for r in stack:
        for got, want in zip(pair_win_counts(r, comparator_eps=eps), _loop_counts(r, eps)):
            assert np.array_equal(got, want)


def test_every_eq6_branch():
    """Pairs with no common instant take each Eq. 6 value."""
    rss = np.array(
        [
            # n0     n1   n2     n3     n4     n5
            [-50.0, NAN, NAN, -60.0, NAN, NAN],
            [-52.0, NAN, NAN, NAN, -55.0, -60.0],
            [-51.0, NAN, NAN, NAN, -57.0, NAN],
        ]
    )
    n = rss.shape[1]
    expected = {
        (0, 1): 1.0,  # only j silent
        (1, 3): -1.0,  # only i silent
        (1, 2): NAN,  # both silent: *
        (3, 4): -1.0,  # never simultaneous: mean -60 against mean -56
        (3, 5): 0.0,  # never simultaneous, equal means
    }
    for mode, (_, one_round) in MODES.items():
        v = one_round(rss)
        for (i, j), value in expected.items():
            assert np.array_equal(v[pair_index(i, j, n)], value, equal_nan=True), (mode, i, j)
    assert_matches_references(rss[None], 0.0)


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_differences_exactly_at_the_deadband(eps):
    """A difference of exactly ``eps`` (0 = a tie) counts for neither side."""
    rss = np.array(
        [
            # n0    n1     n2     n3
            [-50.0, -51.0, -49.0, -50.0],
            [-50.0, -51.5, -49.0, -50.0],
            [-49.0, -51.0, -48.0, -49.0],
        ]
    )
    n = rss.shape[1]
    wins_i, wins_j, valid = pair_win_counts(rss, comparator_eps=eps)
    at = pair_index(0, 2, n)  # differences -1, -1, -1
    assert (wins_i[at], wins_j[at], valid[at]) == ((0, 0, 3) if eps else (0, 3, 3))
    at = pair_index(0, 3, n)  # differences 0, 0, 0: ties at any eps
    assert (wins_i[at], wins_j[at]) == (0, 0)
    assert sampling_vector(rss, comparator_eps=eps)[at] == 0.0
    at = pair_index(0, 1, n)  # differences 1, 1.5, 2: one of them exactly at eps = 1
    assert sampling_vector(rss, comparator_eps=eps)[at] == (0.0 if eps else 1.0)
    assert extended_sampling_vector(rss, comparator_eps=eps)[at] == (2 / 3 if eps else 1.0)
    assert_matches_references(rss[None], eps)


def test_one_sample_two_sensors():
    """k = 1 and n = 2: one pair, one instant, every reporting pattern."""
    stack = np.array(
        [[[-50.0, -60.0]], [[-60.0, -50.0]], [[-50.0, -50.0]], [[NAN, -50.0]], [[-50.0, NAN]], [[NAN, NAN]]]
    )
    assert sampling_vectors(stack)[:, 0].tolist()[:5] == [1.0, -1.0, 0.0, -1.0, 1.0]
    assert np.isnan(sampling_vectors(stack)[5, 0])
    assert_matches_references(stack, 0.0)


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_rounds_with_different_silent_sets(eps):
    """A T > 1 stack whose rounds silence different sensors and drop
    different samples; RSS on a 0.5 dB grid, so ties and differences at
    the deadband occur."""
    rng = np.random.default_rng(7)
    stack = np.round(rng.uniform(-70.0, -50.0, (12, 4, 7)) * 2.0) / 2.0
    for t in range(len(stack)):
        silent = rng.choice(7, size=t % 5, replace=False)
        stack[t][:, silent] = NAN
    stack[rng.random(stack.shape) < 0.15] = NAN
    silent_sets = {tuple(np.flatnonzero(np.isnan(r).all(axis=0))) for r in stack}
    assert len(silent_sets) > 3
    assert_matches_references(stack, eps)


def test_trace_axis_blocks(monkeypatch):
    """A stack longer than one block gives the same values as one block."""
    rng = np.random.default_rng(3)
    stack = np.round(rng.uniform(-70.0, -50.0, (8, 3, 5)))
    stack[rng.random(stack.shape) < 0.3] = NAN
    whole = {mode: stacked(stack, comparator_eps=1.0) for mode, (stacked, _) in MODES.items()}

    calls = []
    for name in ("_unanimous_wins", "_win_counts"):
        kernel = getattr(vectors, name)

        def counted(diff, *args, _kernel=kernel):
            calls.append(len(diff))
            return _kernel(diff, *args)

        monkeypatch.setattr(vectors, name, counted)
    k, n = stack.shape[1:]
    monkeypatch.setattr(vectors, "_VECTOR_TEMP_BYTES", 3 * 8 * k * n * n)  # 3 rounds a block
    for mode, (stacked, _) in MODES.items():
        calls.clear()
        assert np.array_equal(stacked(stack, comparator_eps=1.0), whole[mode], equal_nan=True)
        assert calls == [3, 3, 2]
    assert_matches_references(stack, 1.0)
