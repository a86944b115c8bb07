"""count_wrong_clusters and oracle_index_decode against a per-cluster audit.

The reference functions below look at one cluster at a time, the way the
decoder did before it audited every cluster in one vectorised pass. Both must
agree on hand-built cluster lists that greedy clustering would never return:
the references read the list of Clusters, the stages a Clustering of the
same clusters.
"""

import itertools

import numpy as np
import pytest

from dnarate import (
    ChannelParams,
    Cluster,
    Clustering,
    InstanceDims,
    count_wrong_clusters,
    gated_capacity_table,
    multi_draw_capacity,
    oracle_index_decode,
    random_pool,
    simulate_channel,
)
from dnarate.channel import ChannelOutput

PARAMS = ChannelParams(c=2, beta=0.05, p=0.1)
R_IX = 0.5304  # every cluster size carries it at p = 0.1 ...
# ... but a one-read cluster cannot carry this one, a two-read cluster can.
R_IX_GATE = (multi_draw_capacity(1, 0.1) + multi_draw_capacity(2, 0.1)) / 2


def reference_clean_strand(cluster, output, fiber_size):
    if not cluster.members:
        return None
    origins = output.origins[np.asarray(cluster.members)]
    first = int(origins[0])
    if (origins == first).all() and origins.size == fiber_size[first]:
        return first
    return None


def reference_count_wrong(clusters, output):
    fiber_size = np.bincount(output.origins, minlength=output.pool_size)
    return sum(reference_clean_strand(c, output, fiber_size) is None for c in clusters)


def reference_index_decode(clusters, output, params, r_ix):
    m = output.pool_size
    fiber_size = np.bincount(output.origins, minlength=m)
    gtab = gated_capacity_table(params.p, max((c.size for c in clusters), default=1), r_ix)
    draws = np.zeros(m, dtype=np.int64)
    claims = {}
    m_wrong = 0
    for pos, cluster in enumerate(clusters):
        if gtab[cluster.size] <= 0.0:
            continue
        strand = reference_clean_strand(cluster, output, fiber_size)
        if strand is None:
            m_wrong += 1
            continue
        claims.setdefault(strand, []).append(pos)
    assignments = {}
    for strand, holders in claims.items():
        if len(holders) == 1:
            assignments[holders[0]] = strand
            draws[strand] = clusters[holders[0]].size
    return draws, assignments, m_wrong


def origins_output(origins, pool_size):
    origins = np.asarray(origins, dtype=np.int64)
    return ChannelOutput(
        reads=np.zeros((origins.size, 2), dtype=np.uint8),
        origins=origins,
        flip_counts=None,
        length=16,
        pool_size=pool_size,
    )


def as_clustering(clusters):
    """The same clusters as a Clustering's arrays."""
    return Clustering([c.size for c in clusters], [r for c in clusters for r in c.members])


def assert_audit_matches(clusters, output, r_ix=R_IX):
    draws, assignments, m_wrong = reference_index_decode(clusters, output, PARAMS, r_ix)
    got = oracle_index_decode(as_clustering(clusters), output, PARAMS, r_ix)
    assert got.draws.dtype == np.int64
    assert got.draws.tolist() == draws.tolist()
    assert list(got.assignments.items()) == list(assignments.items())
    assert all(type(k) is int and type(v) is int for k, v in got.assignments.items())
    assert type(got.m_wrong_index) is int and got.m_wrong_index == m_wrong
    if sum(c.size for c in clusters) == output.N:
        wrong = count_wrong_clusters(as_clustering(clusters), output)
        assert type(wrong) is int and wrong == reference_count_wrong(clusters, output)
    return got


# Fibres: strand 0 -> reads 0, 1; strand 1 -> read 2; strand 2 -> none;
# strand 3 -> reads 3, 4, 5; strand 4 -> reads 6, 7.
FIBRES = [0, 0, 1, 3, 3, 3, 4, 4]

CASES = {
    "all clean": [(0, 1), (2,), (3, 4, 5), (6, 7)],
    "mixed origins": [(0, 1), (2, 3, 4), (5,), (6, 7)],
    "mixed origins, three strands": [(0, 2, 6), (1, 7), (3, 4, 5)],
    "part of a fibre": [(0,), (1,), (2,), (3, 4, 5), (6, 7)],
    "not in read order": [(7, 6), (5, 3, 4), (2,), (1, 0)],
    "empty clusters": [(), (0, 1), (), (2,), (3, 4, 5), (6, 7), ()],
}


@pytest.mark.parametrize("r_ix", [R_IX, R_IX_GATE], ids=["all kept", "one-read gated out"])
@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_partitions_match_reference(case, r_ix):
    output = origins_output(FIBRES, pool_size=5)
    assert_audit_matches([Cluster(m) for m in CASES[case]], output, r_ix)


def test_two_clusters_of_one_strand_drop_both_claimants():
    # Read 2 is strand 1's whole fibre. Listed in two clusters, it makes both
    # of them clean claims on strand 1, so neither decodes.
    output = origins_output([0, 0, 1, 2, 2], pool_size=3)
    clusters = [Cluster((2,)), Cluster((0, 1)), Cluster((2,)), Cluster((3, 4))]
    got = assert_audit_matches(clusters, output)
    assert got.assignments == {1: 0, 3: 2}
    assert got.draws.tolist() == [2, 0, 2]
    assert got.m_wrong_index == 0


def test_size_gated_out_is_silent():
    output = origins_output(FIBRES, pool_size=5)
    clusters = [Cluster((2,)), Cluster((0, 1)), Cluster((3, 4, 5)), Cluster((6,)), Cluster((7,))]
    got = assert_audit_matches(clusters, output, R_IX_GATE)
    assert got.m_wrong_index == 0  # both halves of strand 4 are gated out
    assert got.assignments == {1: 0, 2: 3}
    assert count_wrong_clusters(as_clustering(clusters), output) == 2


def test_empty_list_at_no_reads():
    output = origins_output([], pool_size=4)
    got = assert_audit_matches([], output)
    assert got.draws.tolist() == [0, 0, 0, 0]
    assert got.assignments == {} and got.m_wrong_index == 0
    assert count_wrong_clusters(as_clustering([]), output) == 0


def test_cover_checked():
    output = origins_output(FIBRES, pool_size=5)
    with pytest.raises(ValueError, match="covers 7 reads, expected 8"):
        count_wrong_clusters(Clustering([2, 5], [0, 1, 2, 3, 4, 5, 6]), output)
    with pytest.raises(ValueError, match="expected 0"):
        count_wrong_clusters(Clustering([1], [0]), origins_output([], pool_size=1))


def reference_partition_error(clusters, n):
    """The message of the partition check as a sort of every member and a
    list comparison wrote it, or None when the clusters partition n reads."""
    members = sorted(itertools.chain.from_iterable(c.members for c in clusters))
    if members == list(range(n)):
        return None
    covered = len(set(members).intersection(range(n)))
    return (f"clustering covers {covered} reads, expected {n}, in {len(members)} members; "
            f"clusters must partition the reads")


@pytest.mark.parametrize("n, clusters", [
    (8, [(0, 1), (2, 3, 4, 5, 6), (6, 7)]),
    (8, [(0, 1), (1, 3, 4, 5, 6, 7)]),
    (8, [(0, 1), (2, 3, 4, 5, 6)]),
    (8, [(0, 1), (3, 4, 5, 6, 7)]),
    (8, [(-1, 0, 1), (2, 3, 4, 5, 6, 7)]),
    (8, [(-2, 1), (2, 3, 4, 5, 6, 7)]),
    (8, [(0, 1), (2, 3, 4, 5, 6, 7, 8)]),
    (8, [(0, 1), (2, 3, 4, 5, 6, 9)]),
    (8, []),
    (0, [(0,)]),
    (0, [(-1,)]),
    (0, [(), (3,)]),
], ids=["duplicate", "duplicate in place of a read", "missing", "missing first",
        "negative", "negative in place of a read", "member N", "member past N",
        "no clusters", "N = 0, one member", "N = 0, negative member", "N = 0, empty cluster"])
def test_partition_check_message(n, clusters):
    output = origins_output(FIBRES[:n], pool_size=5)
    clusters = [Cluster(members) for members in clusters]
    expected = reference_partition_error(clusters, n)
    with pytest.raises(ValueError) as refused:
        count_wrong_clusters(as_clustering(clusters), output)
    assert str(refused.value) == expected


@pytest.mark.parametrize("clusters, wrong", [([], 0), ([()], 1), ([(), ()], 2)])
def test_partition_of_no_reads(clusters, wrong):
    output = origins_output([], pool_size=4)
    clusters = [Cluster(members) for members in clusters]
    assert reference_partition_error(clusters, 0) is None
    assert count_wrong_clusters(as_clustering(clusters), output) == wrong


def test_negative_member_refused():
    # Unchecked, a negative member wraps: with origins [0, 1, 1],
    # Cluster((-2, -1)) would decode as strand 1's read set.
    output = origins_output([0, 1, 1], pool_size=2)
    clusters = [Cluster((0,)), Cluster((-2, -1))]
    with pytest.raises(ValueError, match=r"read indices in \[0, 3\), got -2 \.\. 0"):
        oracle_index_decode(as_clustering(clusters), output, PARAMS, R_IX)


def test_member_past_the_reads_refused():
    # Unchecked, a member equal to N raises an IndexError.
    output = origins_output([0, 1, 1], pool_size=2)
    clusters = [Cluster((0,)), Cluster((1, 2, 3))]
    with pytest.raises(ValueError, match=r"read indices in \[0, 3\), got 0 \.\. 3"):
        oracle_index_decode(as_clustering(clusters), output, PARAMS, R_IX)


@pytest.mark.parametrize("seed", range(6))
def test_random_cluster_lists_of_a_channel_output(seed):
    dims = InstanceDims.from_channel(PARAMS, 128)
    output = simulate_channel(random_pool(dims, seed), PARAMS, seed + 1)
    rng = np.random.default_rng(seed)
    fibres = [tuple(np.flatnonzero(output.origins == s).tolist()) for s in range(dims.M)]
    fibres = [f for f in fibres if f]
    # A partition: about half the fibres whole, the other reads shuffled and
    # cut at random points, and the pieces in random order.
    whole = rng.random(len(fibres)) < 0.5
    rest = rng.permutation([r for f, w in zip(fibres, whole) if not w for r in f])
    cuts = np.sort(rng.choice(np.arange(1, rest.size), rest.size // 3, replace=False))
    pieces = [tuple(sorted(part.tolist())) for part in np.split(rest, cuts)]
    pieces += [f for f, w in zip(fibres, whole) if w]
    partition = [Cluster(pieces[i]) for i in rng.permutation(len(pieces))]
    # Not a partition: a few whole fibres listed twice more.
    repeated = partition + [Cluster(fibres[i]) for i in rng.choice(len(fibres), 5)]
    for clusters in (partition, repeated):
        for r_ix in (R_IX, R_IX_GATE):
            assert_audit_matches(clusters, output, r_ix)
