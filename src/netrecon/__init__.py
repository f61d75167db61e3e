"""Reconstructing hidden networks from anonymous path samples.

The package covers the full experimental loop: synthetic benchmark
generation with planted communities, two-phase path sampling with
anonymous friend descriptions, probabilistic coalescing of the sample
into a reconstructed network, community/rank/precision evaluation, and
SIR immunization experiments driven by the reconstruction.
"""

from .attributes import (
    AttributeMap,
    CategoryDistribution,
    assign_attributes,
    assign_distinct,
    discretized_normal,
    edge_discrepancy,
    make_assortative,
    uniform_distribution,
)
from .communities import detect, modularity
from .epidemic import (
    EpidemicOutcome,
    SirParams,
    StrategySpec,
    evaluate_strategy,
    immunization_order,
    sir_run,
    sir_sizes,
)
from .generate import LfrParams, generate_lfr_like, realized_mixing
from .graph import Graph, load_edge_list, read_partition, write_edge_list, write_partition
from .metrics import (
    aggregate_by_projection,
    average_ranks,
    coalescing_precision,
    community_precision,
    nmi,
    project,
    spearman,
    vertex_properties,
)
from .reconstruct import (
    MergeEvent,
    ReconResult,
    ReconState,
    ReconstructionStalled,
    log_provenance,
    reconstruct,
)
from .sampling import (
    FRIEND,
    RESPONDENT,
    SampleForest,
    elicit_friends,
    read_forest,
    read_truth,
    sample_paths,
    true_network,
    write_forest,
    write_truth,
)
from .seeding import derive_seed

__version__ = "0.1.0"
