"""Tests for the streaming-partitioner scoring kernels (`repro.partitioning.kernels`).

The kernel layer must be *assignment-for-assignment identical* to the
sequential loop implementations it replaced (kept as oracles in
``tests/reference``), including the 2PS bug fixes that apply to both sides:
the boolean-matrix replica fallback for k > 63 and the least-loaded placement
when every partition is at capacity.  The full partitioner × k × graph table
lives in ``test_reference_oracle.py``; this module holds the randomized
equality tests, the regression tests and the kernel unit tests.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import reference_loops
from repro.generators import generate_rmat
from repro.graph import Graph
from repro.partitioning import (
    BITMASK_MAX_PARTITIONS,
    HDRFPartitioner,
    StreamingScoreState,
    TwoPhaseStreamingPartitioner,
    create_partitioner,
    replication_balance_scores,
    streaming_partial_degrees,
    use_replica_bitmask,
)
from repro.partitioning import kernels


#: Both sides of the bitmask cutoff plus a large k.
KERNEL_K_GRID = (2, 8, 63, 64, 100)

#: Which implementation a both-sides regression test runs: the production
#: kernel, or the reference loop swapped in underneath the same partitioner.
PATHS = {"kernel": contextlib.nullcontext, "reference": reference_loops}


def _assert_paths_identical(partitioner, graph, k):
    kernel = partitioner(graph, k).assignment
    with reference_loops():
        loop = partitioner(graph, k).assignment
    np.testing.assert_array_equal(kernel, loop)
    return kernel


class TestKernelLoopEquality:
    """Kernel and reference loop must agree bit-for-bit."""

    @given(seed=st.integers(0, 100), k=st.sampled_from(KERNEL_K_GRID),
           balance_weight=st.sampled_from([1.0, 5.0]))
    @settings(max_examples=20, deadline=None)
    def test_hdrf_property_identical(self, seed, k, balance_weight):
        graph = generate_rmat(96, 500, seed=seed)
        _assert_paths_identical(
            HDRFPartitioner(balance_weight=balance_weight), graph, k)

    @given(seed=st.integers(0, 100), k=st.sampled_from(KERNEL_K_GRID),
           balance_weight=st.sampled_from([1.0, 5.0]))
    @settings(max_examples=20, deadline=None)
    def test_2ps_property_identical(self, seed, k, balance_weight):
        graph = generate_rmat(96, 500, seed=seed)
        _assert_paths_identical(
            TwoPhaseStreamingPartitioner(balance_weight=balance_weight),
            graph, k)

    @given(seed=st.integers(0, 50), k=st.sampled_from((2, 8, 64)))
    @settings(max_examples=10, deadline=None)
    def test_2ps_tight_slack_property_identical(self, seed, k):
        # A slack < 1 makes every partition reach capacity mid-stream, so the
        # overflow policy of both paths is exercised and must agree.
        graph = generate_rmat(96, 500, seed=seed)
        _assert_paths_identical(
            TwoPhaseStreamingPartitioner(balance_slack=0.5), graph, k)

    @pytest.mark.parametrize("path", PATHS)
    def test_degenerate_graphs(self, path):
        for graph in (Graph.empty(num_vertices=4),
                      Graph.from_edges([(0, 0), (1, 1), (0, 1)]),
                      Graph.from_edges([(0, 1)] * 12)):
            for name in ("hdrf", "2ps", "hep10"):
                with PATHS[path]():
                    partition = create_partitioner(name)(graph, 3)
                assert partition.assignment.shape[0] == graph.num_edges

    def test_registry_forwards_tuning_but_no_implementation_switch(self):
        assert create_partitioner("hdrf",
                                  balance_weight=5.0).balance_weight == 5.0
        assert create_partitioner("2ps",
                                  balance_slack=1.2).balance_slack == 1.2
        with pytest.raises(TypeError):
            create_partitioner("hdrf", use_kernel=False)
        with pytest.raises(TypeError):
            create_partitioner("hep1", tau=5.0)


class TestTwoPSLargeKRegression:
    """k > 63: the replica fallback must really track replicas (the int64
    bitmask silently reads all-zero above the cutoff)."""

    def test_k64_fallback_uses_replication_score(self, monkeypatch):
        # Simulate the pre-fix behaviour (replication term silently zero for
        # k > 63) by blanking the membership vectors of the reference loop;
        # the production kernel must produce a different assignment on a
        # fallback-heavy stream.
        graph = generate_rmat(96, 900, seed=11)
        k = 64
        partitioner = TwoPhaseStreamingPartitioner(balance_slack=1.01)
        fixed = partitioner(graph, k)

        original = kernels.replication_balance_scores

        def replication_blind(in_p_u, in_p_v, *args, **kwargs):
            return original(np.zeros_like(np.asarray(in_p_u)),
                            np.zeros_like(np.asarray(in_p_v)), *args, **kwargs)

        monkeypatch.setattr("reference.partitioning."
                            "replication_balance_scores", replication_blind)
        with reference_loops():
            blind = partitioner(graph, k)
        assert not np.array_equal(fixed.assignment, blind.assignment), (
            "replica fallback at k=64 had no effect on a fallback-heavy "
            "stream; the k > 63 read path is degenerating to balance-only "
            "scoring again")

    def test_k64_lower_replication_than_blind_scoring(self):
        # With working replica tracking the fallback should co-locate edges
        # of already-replicated vertices; kernel and loop must agree on it.
        graph = generate_rmat(96, 900, seed=13)
        _assert_paths_identical(
            TwoPhaseStreamingPartitioner(balance_slack=1.01), graph, 64)

    def test_score_state_tracks_partitions_above_63(self):
        state = StreamingScoreState(num_vertices=4, num_partitions=70)
        state.assign(0, 1, 66)
        # Partition 66 now holds replicas of both endpoints; with equal sizes
        # elsewhere the replication term must attract the next pick there.
        assert state.pick(0, 1, 1.5, 1.5) == 66


class TestTwoPSCapacityOverflowRegression:
    """When every partition is at capacity the edge must go to the
    least-loaded partition, not silently overflow partition 0."""

    @pytest.mark.parametrize("path", PATHS)
    def test_overflow_spreads_instead_of_piling_on_zero(self, path):
        graph = generate_rmat(64, 400, seed=2)
        k = 4
        with PATHS[path]():
            partition = TwoPhaseStreamingPartitioner(
                balance_slack=0.5)(graph, k)
        counts = partition.edge_counts()
        # Capacity is 0.5 * |E| / k = 50; the remaining half of the stream is
        # placed least-loaded-first, so the final counts stay within one edge
        # of each other instead of partition 0 absorbing the overflow.
        assert counts.max() - counts.min() <= 1
        assert counts.max() < graph.num_edges / 2

    def test_overflow_assignments_identical_between_paths(self):
        graph = generate_rmat(64, 400, seed=4)
        _assert_paths_identical(
            TwoPhaseStreamingPartitioner(balance_slack=0.4), graph, 8)


class TestBitmaskCutoffUnification:
    def test_shared_constant(self):
        assert BITMASK_MAX_PARTITIONS == 63
        assert use_replica_bitmask(1)
        assert use_replica_bitmask(BITMASK_MAX_PARTITIONS)
        assert not use_replica_bitmask(BITMASK_MAX_PARTITIONS + 1)

    @pytest.mark.parametrize("name", ("hdrf", "2ps", "hep10"))
    @pytest.mark.parametrize("path", PATHS)
    def test_valid_assignments_above_cutoff(self, name, path):
        # Above the cutoff an int64 shift would silently produce 0 (read) or
        # drop the write; both paths must keep working replica state.
        graph = generate_rmat(96, 700, seed=5)
        k = BITMASK_MAX_PARTITIONS + 1
        with PATHS[path]():
            partition = create_partitioner(name)(graph, k)
        assert partition.assignment.min() >= 0
        assert partition.assignment.max() < k


class TestStreamingPartialDegrees:
    def _reference(self, src, dst):
        counters = {}
        deg_u, deg_v = [], []
        for u, v in zip(src.tolist(), dst.tolist()):
            counters[u] = counters.get(u, 0) + 1
            counters[v] = counters.get(v, 0) + 1
            deg_u.append(counters[u])
            deg_v.append(counters[v])
        return np.array(deg_u), np.array(deg_v)

    @given(seed=st.integers(0, 200), num_edges=st.integers(1, 120))
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential_counters(self, seed, num_edges):
        graph = generate_rmat(24, num_edges, seed=seed)
        deg_u, deg_v = streaming_partial_degrees(graph.src, graph.dst)
        ref_u, ref_v = self._reference(graph.src, graph.dst)
        np.testing.assert_array_equal(deg_u, ref_u)
        np.testing.assert_array_equal(deg_v, ref_v)

    def test_self_loop_counts_twice(self):
        src = np.array([0, 0], dtype=np.int64)
        dst = np.array([0, 1], dtype=np.int64)
        deg_u, deg_v = streaming_partial_degrees(src, dst)
        # The loop reads the counter after incrementing both endpoints, so a
        # self loop sees its vertex counted twice.
        np.testing.assert_array_equal(deg_u, [2, 3])
        np.testing.assert_array_equal(deg_v, [2, 1])

    def test_empty_stream(self):
        empty = np.zeros(0, dtype=np.int64)
        deg_u, deg_v = streaming_partial_degrees(empty, empty)
        assert deg_u.shape == (0,)
        assert deg_v.shape == (0,)


class TestSharedScoringFormula:
    def test_matches_manual_formula(self):
        in_u = np.array([1, 0, 1, 0], dtype=np.int64)
        in_v = np.array([1, 1, 0, 0], dtype=np.int64)
        sizes = np.array([5, 3, 4, 0], dtype=np.int64)
        scores = replication_balance_scores(in_u, in_v, 1.25, 1.75, sizes,
                                            5, 0, 1.0, 1.0)
        expected = (in_u * 1.25 + in_v * 1.75
                    + 1.0 * (5 - sizes) / (1.0 + 5 - 0))
        np.testing.assert_array_equal(scores, expected)

    #: (k, capacity, overflow policy): the unconstrained state, then
    #: capacities that fill some partitions early and all of them before the
    #: stream ends, so each overflow policy decides the tail.
    STATE_CASES = [(7, None, "least_loaded")] + [
        (k, capacity, overflow)
        for k, capacity in ((8, 20), (33, 6), (70, 3))
        for overflow in ("least_loaded", "unmasked")]

    def test_state_matches_bruteforce_argmax(self):
        for k, capacity, overflow in self.STATE_CASES:
            self._check_state_against_bruteforce(k, capacity, overflow)

    def _check_state_against_bruteforce(self, k, capacity, overflow):
        # Drive the incremental state with a random stream and compare every
        # pick against the brute-force score vector under the loops' mask
        # rules.
        rng = np.random.default_rng(0)
        state = StreamingScoreState(num_vertices=10, num_partitions=k,
                                    balance_weight=1.0, capacity=capacity,
                                    overflow=overflow)
        in_matrix = np.zeros((10, k), dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)
        for _ in range(300):
            u, v = int(rng.integers(10)), int(rng.integers(10))
            coeff_u = 1.0 + float(rng.random())
            coeff_v = 1.0 + float(rng.random())
            expected_scores = replication_balance_scores(
                in_matrix[u], in_matrix[v], coeff_u, coeff_v, sizes,
                sizes.max(), sizes.min(), 1.0, 1.0)
            full = sizes >= (np.inf if capacity is None else capacity)
            if not full.all():
                expected_scores[full] = -np.inf
            if full.all() and overflow == "least_loaded":
                expected = int(np.argmin(sizes))
            else:
                expected = int(np.argmax(expected_scores))
            picked = state.pick(u, v, coeff_u, coeff_v)
            assert picked == expected, (k, capacity, overflow)
            assert picked >= 0
            state.assign(u, v, picked)
            in_matrix[u, picked] = 1
            in_matrix[v, picked] = 1
            sizes[picked] += 1
        assert capacity is None or (sizes >= capacity).all()
