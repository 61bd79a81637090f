"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators, weighted_choice


class TestAsGenerator:
    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_generator(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(3)
        gen = as_generator(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(0, 5)
        assert len(gens) == 5
        assert all(isinstance(g, np.random.Generator) for g in gens)

    def test_children_are_independent_streams(self):
        gens = spawn_generators(0, 3)
        draws = [g.random(4) for g in gens]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_deterministic_given_seed(self):
        a = [g.random(3) for g in spawn_generators(5, 2)]
        b = [g.random(3) for g in spawn_generators(5, 2)]
        for x, y in zip(a, b):
            assert np.allclose(x, y)

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(9)
        gens = spawn_generators(parent, 4)
        assert len(gens) == 4

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []


class TestWeightedChoice:
    def test_equals_generator_choice_bit_for_bit(self):
        # the helper replays Generator.choice's draw without its validation:
        # if a numpy release changes that draw, this is the test that fails.
        # 320 seeds, lengths 1..300, a share of exact zeros, one index and a
        # 2-D batch of them per seed; the streams must also stay in step
        weights = np.random.default_rng(11)
        for seed in range(320):
            n = 1 + seed % 300
            p = weights.exponential(size=n)
            p[weights.random(n) < 0.3] = 0.0
            if not p.any():
                p[n - 1] = 1.0
            p /= p.sum()
            for size in (None, (7, 3)):
                mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = weighted_choice(mine, p, size)
                expected = theirs.choice(n, size, p=p)
                assert type(got) is type(expected)
                assert np.array_equal(got, expected)
                if size is not None:
                    assert got.dtype == expected.dtype and got.shape == size
                assert mine.random() == theirs.random()

    @pytest.mark.parametrize("bad", [[0.5, np.nan, 0.5], [0.5, np.inf], [0.0, 0.0, 0.0], []],
                             ids=["nan", "inf", "zero", "empty"])
    def test_refuses_a_total_that_is_not_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="total mass"):
            weighted_choice(np.random.default_rng(0), np.asarray(bad, dtype=float))
