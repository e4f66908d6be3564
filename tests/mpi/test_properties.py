"""Property-based tests for the virtual MPI runtime."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.executor import run_spmd
from repro.mpi.topology import CartTopology

world_sizes = st.integers(min_value=1, max_value=12)


class TestCollectiveProperties:
    @settings(max_examples=15, deadline=None)
    @given(world_sizes, st.integers(0, 11))
    def test_bcast_any_root_delivers_everywhere(self, size, root_raw):
        root = root_raw % size
        payload = {"root": root, "blob": list(range(root))}

        def prog(comm):
            return comm.bcast(payload if comm.rank == root else None, root=root)

        res = run_spmd(size, prog, timeout=60)
        assert all(v == payload for v in res.returns)

    @settings(max_examples=15, deadline=None)
    @given(world_sizes, st.lists(st.integers(-1000, 1000), min_size=12, max_size=12))
    def test_reduce_sum_matches_python_sum(self, size, values):
        contributions = values[:size]

        def prog(comm):
            return comm.reduce(contributions[comm.rank], root=0)

        res = run_spmd(size, prog, timeout=60)
        assert res.returns[0] == sum(contributions)

    @settings(max_examples=15, deadline=None)
    @given(world_sizes, st.integers(0, 11))
    def test_reduce_any_root(self, size, root_raw):
        root = root_raw % size

        def prog(comm):
            return comm.reduce(comm.rank + 1, root=root)

        res = run_spmd(size, prog, timeout=60)
        assert res.returns[root] == size * (size + 1) // 2

    @settings(max_examples=10, deadline=None)
    @given(world_sizes, st.integers(1, 5))
    def test_repeated_collectives_never_cross_match(self, size, rounds):
        def prog(comm):
            out = []
            for i in range(rounds):
                out.append(comm.bcast(i if comm.rank == 0 else None, root=0))
                out.append(comm.allreduce(comm.rank))
            return out

        res = run_spmd(size, prog, timeout=60)
        total = size * (size - 1) // 2
        expected = [x for i in range(rounds) for x in (i, total)]
        assert all(v == expected for v in res.returns)


class TestTopologyProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    def test_hop_distance_is_a_metric(self, dims, a_raw, b_raw):
        topo = CartTopology(tuple(dims))
        a, b = a_raw % topo.size, b_raw % topo.size
        d = topo.hop_distance(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)
        assert d == topo.hop_distance(b, a)
        assert d <= topo.max_hop_distance()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.integers(-7, 7),
    )
    def test_shift_preserves_size_and_inverts(self, dims, rank_raw, dim_raw, disp):
        topo = CartTopology(tuple(dims))
        rank = rank_raw % topo.size
        dim = dim_raw % len(dims)
        there = topo.shift(rank, dim, disp)
        back = topo.shift(there, dim, -disp)
        assert 0 <= there < topo.size
        assert back == rank

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_coords_bijective(self, dims):
        topo = CartTopology(tuple(dims))
        seen = {topo.coords(r) for r in range(topo.size)}
        assert len(seen) == topo.size
