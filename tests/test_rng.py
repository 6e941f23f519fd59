"""Tests for repro.rng."""

import numpy as np
import pytest

from repro.rng import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_int_seed_reproducible(self):
        a = ensure_rng(42).integers(0, 1000, 5)
        b = ensure_rng(42).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(ss), np.random.Generator)


class TestSpawn:
    def test_count(self):
        assert len(spawn_rngs(0, 7)) == 7

    def test_independence(self):
        draws = {tuple(g.integers(0, 2**63, size=8).tolist()) for g in spawn_rngs(0, 10)}
        assert len(draws) == 10

    def test_reproducible(self):
        a = [g.integers(0, 1000) for g in spawn_rngs(3, 4)]
        b = [g.integers(0, 1000) for g in spawn_rngs(3, 4)]
        assert a == b

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_is_empty(self):
        assert spawn_rngs(0, 0) == []
