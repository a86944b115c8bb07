"""Rate analysis and decoding simulation for pooled-strand storage channels.

The channel stores many unordered binary strands, returns reads drawn
uniformly with replacement, and flips bits independently. This package
computes the channel capacity, exact and Monte-Carlo achievable rates of
layered index/inner/outer coding schemes, optimises scheme parameters, and
runs a desk-scale simulation of the four-stage decoder (clustering, index,
inner, outer) with oracle component decoders.
"""

from .multidraw import (
    binary_entropy,
    binom_pmf,
    capacity_table,
    check_crossover,
    gated_capacity,
    gated_capacity_table,
    multi_draw_capacity,
    poisson_pmf,
    poisson_pmf_vec,
)
from .rates import (
    ENUM_CAP,
    ChannelParams,
    EnumerationCapError,
    OptimizeResult,
    RMaxResult,
    RateEstimate,
    SchemeParams,
    SchemeValidation,
    achievable_outer_rate_exact,
    achievable_outer_rate_mc,
    asymptotic_rate,
    block_capacity,
    channel_capacity,
    gap_to_capacity,
    mean_gated_capacity,
    optimize_scheme,
    overall_rate,
    r_max,
    validate_scheme,
)
from .channel import (
    ChannelOutput,
    DrawHistogram,
    InstanceDims,
    StrandPool,
    draw_histogram,
    dump_channel,
    hamming_to_row,
    load_channel,
    pack_bits,
    poisson_deviation,
    random_pool,
    simulate_channel,
    unpack_bits,
)
from .decoder import (
    BudgetError,
    Cluster,
    Clustering,
    ClusteringConfig,
    DecodeReport,
    IndexDecodeResult,
    InnerDecodeResult,
    PipelineResult,
    count_wrong_clusters,
    decode,
    greedy_cluster,
    oracle_index_decode,
    oracle_inner_decode,
    outer_success,
    run_pipeline,
)
from .seeding import derive_seed, substream

__version__ = "0.1.0"
