import contextlib
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dnarate import (
    BudgetError,
    ChannelParams,
    Cluster,
    Clustering,
    ClusteringConfig,
    DecodeReport,
    InstanceDims,
    SchemeParams,
    achievable_outer_rate_exact,
    count_wrong_clusters,
    decode,
    derive_seed,
    draw_histogram,
    gated_capacity_table,
    greedy_cluster,
    multi_draw_capacity,
    oracle_index_decode,
    oracle_inner_decode,
    outer_success,
    random_pool,
    run_pipeline,
    simulate_channel,
)
from dnarate import decoder as decoder_module
from dnarate import multidraw
from dnarate.channel import ChannelOutput, pack_bits

C1 = multi_draw_capacity(1, 0.1)
C2 = multi_draw_capacity(2, 0.1)
PARAMS = ChannelParams(c=2, beta=0.05, p=0.1)
# The clean point at p = 0, where the pigeonhole index lists the near pairs.
PARAMS0 = ChannelParams(c=3, beta=0.05, p=0.0)
SCHEME0 = SchemeParams(K=4, r_ix=0.9, r_in=0.9, r_out=0.7)


def make_output(bit_rows, origins, pool_size):
    bits = np.array(bit_rows, dtype=np.uint8)
    return ChannelOutput(
        reads=pack_bits(bits),
        origins=np.asarray(origins, dtype=np.int64),
        flip_counts=None,
        length=bits.shape[1],
        pool_size=pool_size,
    )


class TestClusteringConfig:
    def test_default_tracks_flip_probability(self):
        assert ClusteringConfig().resolve(0.1) == pytest.approx(0.25)
        assert ClusteringConfig(epsilon_prime=0.1).resolve(0.1) == pytest.approx(0.30)

    def test_explicit_rho_wins(self):
        assert ClusteringConfig(rho=0.4).resolve(0.1) == 0.4

    def test_range_checked(self):
        with pytest.raises(ValueError):
            ClusteringConfig(rho=1.2).resolve(0.1)
        with pytest.raises(ValueError):
            ClusteringConfig().resolve(0.5)  # 2p + 0.05 = 1.05

    @pytest.mark.parametrize("rho", [5.0, 1.5, 0.0, -0.2, math.nan])
    def test_clustering_shares_the_range_of_resolve(self, rho):
        out = make_output([[0] * 8, [1] * 8], [0, 0], pool_size=1)
        message = re.escape(f"rho out of range: must be in (0, 1], got {rho!r}")
        with pytest.raises(ValueError, match=message):
            greedy_cluster(out, ClusteringConfig(rho=rho))
        with pytest.raises(ValueError, match=message):
            ClusteringConfig(rho=rho).resolve(0.1)

    def test_whole_strand_diameter(self):
        # rho = 1 is the only one-bit diameter at L = 1
        out = make_output([[0], [1], [0]], [0, 1, 0], pool_size=2)
        assert ClusteringConfig(rho=1.0).resolve(0.1) == 1.0
        assert list(greedy_cluster(out, ClusteringConfig(rho=1.0))) == [Cluster((0, 1, 2))]

    def test_unresolved_config_rejected(self):
        out = make_output([[0] * 8], [0], pool_size=1)
        with pytest.raises(ValueError):
            greedy_cluster(out, ClusteringConfig())


class TestGreedyCluster:
    def test_near_pair_far_loner(self):
        # distances: d(0,1) = 1, d(*,2) >= 3, threshold 1 bit
        out = make_output(
            [[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 1]], [0, 0, 1], pool_size=2
        )
        clusters = greedy_cluster(out, ClusteringConfig(rho=0.25))
        assert [c.members for c in clusters] == [(0, 1), (2,)]

    def test_every_member_rule(self):
        # read 2 sits 1 from read 1 but 2 from read 0, so it cannot join
        out = make_output(
            [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]], [0, 0, 0], pool_size=1
        )
        clusters = greedy_cluster(out, ClusteringConfig(rho=0.25))
        assert [c.members for c in clusters] == [(0, 1), (2,)]

    def test_noiseless_clusters_are_exact_fibers(self):
        params = ChannelParams(c=3, beta=0.05, p=0.0)
        dims = InstanceDims.from_channel(params, 256)
        out = simulate_channel(random_pool(dims, 1), params, 2)
        clusters = greedy_cluster(out, ClusteringConfig(rho=0.2))
        assert count_wrong_clusters(clusters, out) == 0
        sizes = np.bincount(out.origins, minlength=256)
        assert sorted(c.size for c in clusters) == sorted(s for s in sizes if s)

    def test_partition_and_diameter(self):
        dims = InstanceDims.from_channel(PARAMS, 128)
        out = simulate_channel(random_pool(dims, 3), PARAMS, 4)
        rho = 0.25
        clusters = greedy_cluster(out, ClusteringConfig(rho=rho))
        seen = sorted(i for c in clusters for i in c.members)
        assert seen == list(range(out.N))
        full = np.unpackbits(out.reads, axis=1, count=out.length)
        for c in clusters:
            rows = full[list(c.members)]
            for i in range(len(rows)):
                d = (rows ^ rows[i]).sum(axis=1)
                assert d.max() <= rho * out.length

    def test_rejects_a_diameter_below_one_bit(self):
        out = make_output([[0, 0, 0, 0], [0, 0, 0, 1]], [0, 0], pool_size=1)
        with pytest.raises(ValueError, match="below one bit"):
            greedy_cluster(out, ClusteringConfig(rho=0.2))  # rho * L = 0.8

    def test_members_in_read_order(self):
        dims = InstanceDims.from_channel(PARAMS, 64)
        out = simulate_channel(random_pool(dims, 5), PARAMS, 6)
        for c in greedy_cluster(out, ClusteringConfig(rho=0.25)):
            assert list(c.members) == sorted(c.members)


class TestClustering:
    def _noisy(self):
        dims = InstanceDims.from_channel(PARAMS, 128)
        out = simulate_channel(random_pool(dims, 3), PARAMS, 4)
        return out, ClusteringConfig(rho=0.2)

    def test_sequence_of_clusters(self):
        got = greedy_cluster(*self._noisy())
        assert isinstance(got, Clustering)
        clusters = list(got)
        assert len(got) == len(clusters) == got.sizes.size > 3
        assert all(isinstance(c, Cluster) for c in clusters)
        assert list(got) == clusters  # iterated twice
        assert [c.size for c in got] == got.sizes.tolist()
        assert [r for c in got for r in c.members] == got.members.tolist()
        with pytest.raises(TypeError):
            got[0]  # a Clustering is not indexed; list(got) is

    def test_equal_when_the_arrays_are(self):
        got = greedy_cluster(*self._noisy())
        assert got == Clustering(got.sizes, got.members)
        assert not got != Clustering(got.sizes.tolist(), got.members.tolist())
        assert got != Clustering(got.sizes[::-1], got.members)
        assert got != Clustering(got.sizes, got.members[::-1])
        assert got != list(got) and list(got) != got  # a list is not a Clustering

    def test_members_are_ascending_python_ints(self):
        got = greedy_cluster(*self._noisy())
        assert got.sizes.dtype == got.members.dtype == np.int64
        for c in got:
            assert all(type(r) is int for r in c.members)
            assert list(c.members) == sorted(c.members)
        assert sorted(got.members.tolist()) == list(range(got.members.size))
        with pytest.raises(ValueError):
            got.members[0] = 1  # read-only

    def test_stages_refuse_a_list_of_clusters(self):
        out, config = self._noisy()
        clusters = list(greedy_cluster(out, config))
        message = r"clusters must be a Clustering\(sizes, members\), got list"
        with pytest.raises(TypeError, match=message):
            count_wrong_clusters(clusters, out)
        with pytest.raises(TypeError, match=message):
            oracle_index_decode(clusters, out, PARAMS, 0.5304)

    def test_empty(self):
        out = make_output(np.zeros((0, 8)), [], pool_size=2)
        got = greedy_cluster(out, ClusteringConfig(rho=0.25))
        assert len(got) == 0 and list(got) == [] and got == Clustering([], [])
        assert count_wrong_clusters(got, out) == 0
        assert oracle_index_decode(got, out, PARAMS, 0.5304).draws.tolist() == [0, 0]

    @pytest.mark.parametrize("sizes, members", [
        ([2], [0, 1, 2]),
        ([2, 2], [0, 1, 2]),
        ([-1, 2], [0]),
        ([[1]], [0]),
        ([1], [[0]]),
        ([1], [0.5]),
        (1, [0]),
    ], ids=["more members", "fewer members", "negative size", "2-D sizes", "2-D members",
            "float member", "scalar sizes"])
    def test_inconsistent_arrays_refused(self, sizes, members):
        with pytest.raises(ValueError):
            Clustering(sizes, members)


class TestCountWrongClusters:
    def _four_reads(self):
        return make_output(np.zeros((4, 16)), [0, 0, 1, 1], pool_size=2)

    def test_perfect(self):
        out = self._four_reads()
        perfect = Clustering([2, 2], [0, 1, 2, 3])
        assert count_wrong_clusters(perfect, out) == 0

    def test_split_counts_both_pieces(self):
        out = self._four_reads()
        split = Clustering([1, 1, 2], [0, 1, 2, 3])
        assert count_wrong_clusters(split, out) == 2

    def test_merge_counts_once(self):
        out = self._four_reads()
        merged = Clustering([4], [0, 1, 2, 3])
        assert count_wrong_clusters(merged, out) == 1

    def test_cover_checked(self):
        out = self._four_reads()
        with pytest.raises(ValueError):
            count_wrong_clusters(Clustering([2], [0, 1]), out)

    @pytest.mark.parametrize("clusters", [
        Clustering([4], [0, 0, 0, 0]),
        Clustering([1, 1, 1, 1], [0, 0, 0, 0]),
        Clustering([2, 2], [0, 1, 1, 2]),
        Clustering([2, 2], [0, 1, 2, 4]),
        Clustering([2, 2], [0, 1, 2, -1]),
    ], ids=["one read N times", "N singletons of one read", "a read twice", "past N",
            "negative"])
    def test_clusters_must_partition_the_reads(self, clusters):
        with pytest.raises(ValueError, match="expected 4.*partition"):
            count_wrong_clusters(clusters, self._four_reads())


class TestOracleIndexDecode:
    def _output(self):
        # fibers: strand 0 -> reads (0, 1), strand 1 -> read 2, strand 2 -> none,
        # strand 3 -> reads (3, 4, 5)
        return make_output(np.zeros((6, 16)), [0, 0, 1, 3, 3, 3], pool_size=4)

    def test_all_pure_all_recovered(self):
        out = self._output()
        clusters = Clustering([2, 1, 3], range(6))
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=0.5304)
        assert res.m_wrong_index == 0
        assert res.draws.tolist() == [2, 1, 0, 3]
        assert res.assignments == {0: 0, 1: 1, 2: 3}

    def test_size_one_dropped_between_levels(self):
        out = self._output()
        clusters = Clustering([2, 1, 3], range(6))
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=(C1 + C2) / 2)
        assert res.m_wrong_index == 0  # silent drop, not an index error
        assert res.draws.tolist() == [2, 0, 0, 3]

    def test_impure_cluster_discarded_and_counted(self):
        out = self._output()
        clusters = Clustering([2, 3, 1], range(6))
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=0.5304)
        # (2,3,4) mixes strands 1 and 3; (5,) misses part of strand 3's fiber
        assert res.m_wrong_index == 2
        assert res.draws.tolist() == [2, 0, 0, 0]

    def test_subset_of_fiber_is_not_clean(self):
        out = self._output()
        clusters = Clustering([1, 1, 1, 3], range(6))
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=0.5304)
        assert res.m_wrong_index == 2  # the two halves of strand 0's fiber
        assert res.draws.tolist() == [0, 1, 0, 3]


class TestOracleInnerDecode:
    def test_all_missing_erases_everything(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.3, r_out=0.5)
        res = oracle_inner_decode(np.zeros(8, dtype=int), PARAMS, scheme)
        assert not res.decoded.any()
        assert res.erasures == 8  # every strand's symbol, in outer-symbol units
        assert res.errors == 0 and res.m_wrong_inner == 0

    def test_half_block_below_threshold(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.3, r_out=0.5)
        res = oracle_inner_decode(np.array([1, 0]), PARAMS, scheme)
        assert not res.decoded[0]  # C1/2 = 0.2655 <= 0.3

    def test_full_block_above_threshold(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.5, r_out=0.5)
        res = oracle_inner_decode(np.array([1, 1]), PARAMS, scheme)
        assert res.decoded[0]  # C1 = 0.531 > 0.5

    def test_corruption_accounting(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.3, r_out=0.5)
        res = oracle_inner_decode(
            np.array([1, 1, 1, 1]), PARAMS, scheme, m_wrong_clusters=1, m_wrong_index=0
        )
        # no threshold erasures, one wrong cluster touches up to two blocks
        assert res.erasures == 2 * min(2, 2)  # 2K symbols
        assert res.errors == 4

    @pytest.mark.parametrize("draws", [[-1, 5, 0, 0], [2.7, 2.2, 0, 0], [], [[1, 1], [1, 1]]],
                             ids=["negative", "fractional", "empty", "matrix"])
    def test_draws_checked(self, draws):
        # gtab[-1] would read the largest count and a float would be floored
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.3, r_out=0.5)
        message = re.escape(
            f"draws out of range: must be a nonempty vector of nonnegative integers, got {draws!r}"
        )
        with pytest.raises(ValueError, match=message):
            oracle_inner_decode(draws, PARAMS, scheme)

    def test_tiling_checked(self):
        scheme = SchemeParams(K=3, r_ix=0.5304, r_in=0.3, r_out=0.5)
        message = re.escape("K (3) must divide the number of strands M (4)")
        with pytest.raises(ValueError, match=message):
            oracle_inner_decode([1, 1, 1, 1], PARAMS, scheme)

    def test_clamped_at_codeword_length(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.3, r_out=0.5)
        res = oracle_inner_decode(
            np.zeros(4, dtype=int), PARAMS, scheme, m_wrong_clusters=50, m_wrong_index=50
        )
        assert res.erasures == 4 and res.errors == 4

    @pytest.mark.parametrize("p", [0.1, 0.4])
    def test_counts_past_saturation_in_bounded_memory(self, p):
        # every level from S(p) on is 1.0, so a count of 2^40 decides as a
        # count of S(p) does, and no table runs past it
        params = ChannelParams(c=2, beta=0.05, p=p)
        scheme = SchemeParams(K=2, r_ix=0.5, r_in=0.6, r_out=0.5)
        s = multidraw._saturation(p)
        tracemalloc.start()
        try:
            res = oracle_inner_decode(np.array([2**40, 0, 2**40, 1]), params, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = oracle_inner_decode(np.array([s, 0, s, 1]), params, scheme)
        assert np.array_equal(res.decoded, ref.decoded) and res.erasures == ref.erasures
        assert res.decoded.tolist() == [False, p == 0.1]  # C_1 clears r_ix only at p = 0.1
        assert peak < 4e6


class TestOuterSuccess:
    def test_clean_decode(self):
        assert outer_success(0, 0, 100, 1.0)

    def test_boundary_holds(self):
        assert outer_success(10, 0, 100, 0.9)

    def test_one_error_tips_it(self):
        assert not outer_success(9, 1, 100, 0.9)


class TestDecode:
    SCHEME = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)

    def trial_zero(self, seed):
        dims = InstanceDims.from_channel(PARAMS, 256, 2)
        pool = random_pool(dims, derive_seed(seed, "pipeline.pool", 0))
        return simulate_channel(pool, PARAMS, derive_seed(seed, "pipeline.channel", 0))

    @pytest.mark.parametrize("config", [None, ClusteringConfig(rho=0.3)])
    def test_matches_pipeline_trial(self, config):
        report = decode(self.trial_zero(4), PARAMS, self.SCHEME, config)
        result = run_pipeline(PARAMS, self.SCHEME, 256, 1, seed=4, clustering=config)
        assert report == result.reports[0]

    def test_block_tiling_checked_before_clustering(self, monkeypatch):
        def no_clustering(output, config):
            raise AssertionError("clustering ran")

        monkeypatch.setattr(decoder_module, "greedy_cluster", no_clustering)
        scheme = SchemeParams(K=3, r_ix=0.5304, r_in=0.4, r_out=0.8)
        with pytest.raises(ValueError, match="divide"):
            decode(self.trial_zero(6), PARAMS, scheme)


class TestRunPipeline:
    # Two trials each at M = 512, seed 7; the noisy point at its default
    # diameter, where some clusters are wrong.
    REPORTS = {
        "noisy": [(14, 14, 0, 196, 112, False), (11, 11, 0, 188, 88, False)],
        "clean": [(0, 0, 0, 80, 0, True), (0, 0, 0, 84, 0, True)],
    }

    @pytest.mark.parametrize("point", ["noisy", "clean"])
    def test_trials_build_no_cluster(self, monkeypatch, point):
        class NoCluster:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a Cluster was built")

        params, scheme = {"noisy": (PARAMS, TestDecode.SCHEME), "clean": (PARAMS0, SCHEME0)}[point]
        monkeypatch.setattr(decoder_module, "Cluster", NoCluster)
        expected = tuple(DecodeReport(*r) for r in self.REPORTS[point])
        for threads in (1, 2):
            assert run_pipeline(params, scheme, 512, 2, seed=7, threads=threads).reports == expected
        dims = InstanceDims.from_channel(params, 512, scheme.K)
        output = decoder_module._trial_output(params, dims, 7, 1)
        assert decode(output, params, scheme) == expected[1]

    def test_each_stage_called_through_the_module_once_per_trial(self):
        # Wrappers of these module globals see every trial's stages: a stage
        # called any other way would slip past them.
        names = ["random_pool", "simulate_channel", "greedy_cluster", "count_wrong_clusters",
                 "oracle_index_decode", "oracle_inner_decode", "outer_success"]
        with contextlib.ExitStack() as stack:
            spies = {name: stack.enter_context(mock.patch.object(
                decoder_module, name, wraps=getattr(decoder_module, name))) for name in names}
            result = run_pipeline(PARAMS0, SCHEME0, 256, 3, seed=5)
        assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(names, 3)
        assert result == run_pipeline(PARAMS0, SCHEME0, 256, 3, seed=5)

    def test_deterministic(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)
        a = run_pipeline(PARAMS, scheme, 256, 2, seed=1)
        b = run_pipeline(PARAMS, scheme, 256, 2, seed=1)
        assert a == b

    def test_thread_invariance(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)
        a = run_pipeline(PARAMS, scheme, 256, 3, seed=2, threads=1)
        b = run_pipeline(PARAMS, scheme, 256, 3, seed=2, threads=3)
        assert a == b

    def test_thread_invariance_at_the_clean_point(self):
        a = run_pipeline(PARAMS0, SCHEME0, 512, 4, seed=3, threads=1)
        b = run_pipeline(PARAMS0, SCHEME0, 512, 4, seed=3, threads=2)
        assert a == b

    @pytest.mark.parametrize("threads", [0, -2, 1.5, True])
    def test_thread_count_checked(self, threads):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)
        msg = f"threads out of range: must be a positive integer, got {threads!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            run_pipeline(PARAMS, scheme, 256, 1, seed=0, threads=threads)

    @pytest.mark.parametrize("name, M, trials", [
        ("M", 64.9, 1), ("M", True, 1), ("M", 64.0, 1), ("M", 0, 1),
        ("trials", 64, 1.5), ("trials", 64, True), ("trials", 64, 0),
    ])
    def test_counts_must_be_integers(self, name, M, trials):
        # M = 64.9 used to run at M = 64, and trials = 1.5 failed inside range()
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)
        bad = M if name == "M" else trials
        msg = f"{name} out of range: must be a positive integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            run_pipeline(PARAMS, scheme, M, trials, seed=0)

    def test_block_tiling_enforced(self):
        scheme = SchemeParams(K=3, r_ix=0.5304, r_in=0.4, r_out=0.8)
        with pytest.raises(ValueError):
            run_pipeline(PARAMS, scheme, 256, 1, seed=0)

    def test_budget_guard_names_the_source_its_work_and_the_budget(self, monkeypatch):
        # M = 256: 512 distinct reads of L = 160 bits (three words) at
        # t = 40, where the scan sums two words for each of their pairs.
        monkeypatch.setattr(decoder_module, "DEFAULT_DISTANCE_BUDGET", 1000)
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)
        msg = ("clustering 512 distinct reads by the scan takes 261,632 scan words, "
               "over the budget of 1,000")
        with pytest.raises(BudgetError, match=re.escape(msg)):
            run_pipeline(PARAMS, scheme, 256, 1, seed=0)

    def test_index_work_is_charged_before_any_pair_is_built(self, monkeypatch):
        # The clean point at M = 4096 (t = 12 of 240 bits): its field
        # collisions, at 320 scan words each, cost far less than the scan,
        # so the index is charged, and refused before it lists a pair.
        dims = InstanceDims.from_channel(PARAMS0, 4096)
        out = simulate_channel(random_pool(dims, 7), PARAMS0, 8)
        monkeypatch.setattr(decoder_module, "DEFAULT_DISTANCE_BUDGET", 1000)
        monkeypatch.setattr(decoder_module, "_indexed_pairs", mock.Mock(side_effect=AssertionError))
        with pytest.raises(BudgetError, match=r"distinct reads by the index takes [\d,]+ scan words"):
            greedy_cluster(out, ClusteringConfig(rho=0.05))

    def test_noisy_refusal_comes_before_any_scan_buffer(self, monkeypatch):
        # M = 2^17 at the noisy point: 262,144 distinct reads of 340 bits
        # (six words) at t = 102, where the scan would sum four words a pair,
        # 1.4e11 in all. Its XOR buffer alone, 8 bytes per read for each of
        # 64 seeds, would take 134 MB; the refusal comes after the
        # distinct-read pass (59 MB traced), before any such buffer.
        dims = InstanceDims.from_channel(PARAMS, 2**17)
        out = simulate_channel(random_pool(dims, 1), PARAMS, 2)
        monkeypatch.setattr(decoder_module, "_scanned_seeds", mock.Mock(side_effect=AssertionError))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="262,144 distinct reads by the scan takes "
                                                  "137,438,429,184 scan words"):
                greedy_cluster(out, ClusteringConfig(rho=0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < decoder_module._SEED_BLOCK * out.N * 8

    def test_clean_point_at_16384_strands_runs(self):
        # 49,152 reads of L = 280 bits, once refused as 6.8e11 bit pairs of an
        # all-pairs scan. The index clusters their 15,573 distinct reads from
        # 4,670 field collisions: 2.5e6 scan words, against 1.2e8 to scan.
        (rep,) = run_pipeline(PARAMS0, SCHEME0, 16384, 1, seed=0).reports
        assert rep.m_wrong_clusters == rep.m_wrong_index == 0 and rep.outer_success

    def test_invalid_scheme_warns_but_runs(self):
        bad = SchemeParams(K=2, r_ix=0.06, r_in=0.4, r_out=0.8)
        with pytest.warns(UserWarning, match="clustering margin|beta"):
            res = run_pipeline(PARAMS, bad, 64, 1, seed=0)
        assert len(res.reports) == 1

    def test_accounting_never_understates(self):
        # reported counters are upper bounds: whenever the report claims
        # success, decoding with the true erasure set must also succeed
        scheme = SchemeParams(K=4, r_ix=0.999 * C1, r_in=0.45, r_out=0.75)
        res = run_pipeline(PARAMS, scheme, 512, 8, seed=4,
                           clustering=ClusteringConfig(rho=0.30))
        for rep in res.reports:
            true_erasures = rep.erasures - 2 * scheme.K * (
                rep.m_wrong_clusters + rep.m_wrong_index
            )
            assert rep.erasures >= true_erasures >= 0
            assert rep.errors >= 0
            if rep.outer_success:
                assert outer_success(true_erasures, 0, 512, scheme.r_out)

    def test_cluster_error_rate_small_at_scale(self):
        # metric regime where nearly every read set is recovered exactly
        ok = 0
        for seed in range(10):
            dims = InstanceDims.from_channel(PARAMS, 2**10)
            out = simulate_channel(random_pool(dims, seed), PARAMS, seed + 100)
            clusters = greedy_cluster(out, ClusteringConfig(rho=0.25))
            ok += count_wrong_clusters(clusters, out) / dims.M < 0.05
        assert ok >= 9

    def test_threshold_erasures_match_prediction(self):
        # erasure fraction from true draw counts vs the enumerated mass of
        # blocks whose gated capacity misses the inner rate
        params = PARAMS
        K, r_ix, r_in = 4, 0.999 * C1, 0.45
        dims = InstanceDims.from_channel(params, 2**14, K)
        out = simulate_channel(random_pool(dims, 9), params, 10)
        draws = draw_histogram(out, K).per_strand
        gtab = gated_capacity_table(params.p, int(draws.max()), r_ix)
        caps = gtab[draws.reshape(-1, K)].mean(axis=1)
        observed = float((caps <= r_in).mean())
        scheme = SchemeParams(K=K, r_ix=r_ix, r_in=r_in, r_out=1.0)
        predicted = 1.0 - achievable_outer_rate_exact(params, scheme).value
        assert abs(observed - predicted) <= 0.02


class TestNoiselessOperatingPoints:
    """End-to-end behaviour on both sides of the outer-rate threshold.

    Noiseless channel, c = 3 reads per strand, single-strand blocks: a block
    is erased iff its strand is never drawn, so erasures concentrate at
    M e^{-3} and the supportable outer rate is 1 - e^{-3}.
    """

    PARAMS0 = ChannelParams(c=3, beta=0.05, p=0.0)
    M = 2**12

    def test_redundancy_at_twice_expected_erasures_succeeds(self):
        r_out = 1 - 2 * math.exp(-3)
        scheme = SchemeParams(K=1, r_ix=0.9, r_in=0.5, r_out=r_out)
        res = run_pipeline(self.PARAMS0, scheme, self.M, 50, seed=0)
        assert res.success_rate >= 0.95

    def test_outer_rate_above_threshold_fails(self):
        r_out = 1.05 * (1 - math.exp(-3))
        scheme = SchemeParams(K=1, r_ix=0.9, r_in=0.5, r_out=r_out)
        res = run_pipeline(self.PARAMS0, scheme, self.M, 50, seed=1)
        assert res.success_rate <= 0.10
