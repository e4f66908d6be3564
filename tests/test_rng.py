"""Tests for deterministic random-stream management."""

import numpy as np
import pytest

from repro.rng import StreamFactory, derive_seed, stream_for


class TestStreamIdentity:
    def test_same_key_same_stream(self):
        a = stream_for(42, "nature").integers(0, 1 << 30, 16)
        b = stream_for(42, "nature").integers(0, 1 << 30, 16)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = stream_for(42, "nature").integers(0, 1 << 30, 16)
        b = stream_for(42, "init").integers(0, 1 << 30, 16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = stream_for(1, "x").integers(0, 1 << 30, 16)
        b = stream_for(2, "x").integers(0, 1 << 30, 16)
        assert not np.array_equal(a, b)

    def test_key_component_boundaries_matter(self):
        # ("ab",) and ("a", "b") must be distinct streams.
        a = stream_for(0, "ab").integers(0, 1 << 30, 8)
        b = stream_for(0, "a", "b").integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_creation_order_irrelevant(self):
        f1 = StreamFactory(7)
        f1.stream("a")
        x1 = f1.stream("b").integers(0, 100, 8)
        f2 = StreamFactory(7)
        x2 = f2.stream("b").integers(0, 100, 8)
        assert np.array_equal(x1, x2)

    def test_numeric_key_components(self):
        a = stream_for(0, "rank", 3).integers(0, 100, 4)
        b = stream_for(0, "rank", 3).integers(0, 100, 4)
        c = stream_for(0, "rank", 4).integers(0, 100, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_stable(self):
        assert derive_seed(5, "x").spawn_key == derive_seed(5, "x").spawn_key


class TestFactory:
    def test_stream_is_cached_and_advances(self):
        f = StreamFactory(3)
        first = f.stream("nature").integers(0, 100, 4)
        second = f.stream("nature").integers(0, 100, 4)
        assert not np.array_equal(first, second)  # same generator, advanced

    def test_fresh_rewinds(self):
        f = StreamFactory(3)
        f.stream("nature").integers(0, 100, 4)
        fresh = f.fresh("nature").integers(0, 100, 4)
        again = StreamFactory(3).stream("nature").integers(0, 100, 4)
        assert np.array_equal(fresh, again)

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            StreamFactory("seed")

    def test_numpy_int_seed_accepted(self):
        assert StreamFactory(np.int64(5)).root_seed == 5

    def test_repr(self):
        assert "root_seed=1" in repr(StreamFactory(1))
