import math
import re

import numpy as np
import pytest

from dnarate import (
    BudgetError,
    ChannelParams,
    Cluster,
    ClusteringConfig,
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
from dnarate.channel import ChannelOutput, pack_bits

C1 = multi_draw_capacity(1, 0.1)
C2 = multi_draw_capacity(2, 0.1)
PARAMS = ChannelParams(c=2, beta=0.05, p=0.1)


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

    def test_members_in_read_order(self):
        dims = InstanceDims.from_channel(PARAMS, 64)
        out = simulate_channel(random_pool(dims, 5), PARAMS, 6)
        for c in greedy_cluster(out, ClusteringConfig(rho=0.25)):
            assert list(c.members) == sorted(c.members)


class TestCountWrongClusters:
    def _four_reads(self):
        return make_output(np.zeros((4, 16)), [0, 0, 1, 1], pool_size=2)

    def test_perfect(self):
        out = self._four_reads()
        perfect = [Cluster((0, 1)), Cluster((2, 3))]
        assert count_wrong_clusters(perfect, out) == 0

    def test_split_counts_both_pieces(self):
        out = self._four_reads()
        split = [Cluster((0,)), Cluster((1,)), Cluster((2, 3))]
        assert count_wrong_clusters(split, out) == 2

    def test_merge_counts_once(self):
        out = self._four_reads()
        merged = [Cluster((0, 1, 2, 3))]
        assert count_wrong_clusters(merged, out) == 1

    def test_cover_checked(self):
        out = self._four_reads()
        with pytest.raises(ValueError):
            count_wrong_clusters([Cluster((0, 1))], out)


class TestOracleIndexDecode:
    def _output(self):
        # fibers: strand 0 -> reads (0, 1), strand 1 -> read 2, strand 2 -> none,
        # strand 3 -> reads (3, 4, 5)
        return make_output(np.zeros((6, 16)), [0, 0, 1, 3, 3, 3], pool_size=4)

    def test_all_pure_all_recovered(self):
        out = self._output()
        clusters = [Cluster((0, 1)), Cluster((2,)), Cluster((3, 4, 5))]
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=0.5304)
        assert res.m_wrong_index == 0
        assert res.draws.tolist() == [2, 1, 0, 3]
        assert res.assignments == {0: 0, 1: 1, 2: 3}

    def test_size_one_dropped_between_levels(self):
        out = self._output()
        clusters = [Cluster((0, 1)), Cluster((2,)), Cluster((3, 4, 5))]
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=(C1 + C2) / 2)
        assert res.m_wrong_index == 0  # silent drop, not an index error
        assert res.draws.tolist() == [2, 0, 0, 3]

    def test_impure_cluster_discarded_and_counted(self):
        out = self._output()
        clusters = [Cluster((0, 1)), Cluster((2, 3, 4)), Cluster((5,))]
        res = oracle_index_decode(clusters, out, PARAMS, r_ix=0.5304)
        # (2,3,4) mixes strands 1 and 3; (5,) misses part of strand 3's fiber
        assert res.m_wrong_index == 2
        assert res.draws.tolist() == [2, 0, 0, 0]

    def test_subset_of_fiber_is_not_clean(self):
        out = self._output()
        clusters = [Cluster((0,)), Cluster((1,)), Cluster((2,)), Cluster((3, 4, 5))]
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

    def test_clamped_at_codeword_length(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.3, r_out=0.5)
        res = oracle_inner_decode(
            np.zeros(4, dtype=int), PARAMS, scheme, m_wrong_clusters=50, m_wrong_index=50
        )
        assert res.erasures == 4 and res.errors == 4


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

    def test_budget_guard_suggests_smaller(self):
        scheme = SchemeParams(K=2, r_ix=0.5304, r_in=0.4, r_out=0.8)
        with pytest.raises(BudgetError, match="try M"):
            run_pipeline(PARAMS, scheme, 2**16, 1, seed=0, budget=1e9)

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
