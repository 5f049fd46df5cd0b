"""Desk-scale federated learning sandbox.

Simulates FedAvg and FedSC (prototype-collaboration training) on synthetic
Gaussian-blob datasets with heterogeneous client partitions, entirely in
numpy, plus executable convergence-bound calculators.
"""

from .data import (
    ClientDataset,
    Dataset,
    PartitionConfig,
    apply_long_tail,
    generate_gaussian_blobs,
    load_dataset,
    partition_biased,
    partition_dataset,
    partition_dirichlet,
    save_dataset,
    split_holdout,
)
from .federation import (
    ExperimentResult,
    FederationConfig,
    RoundMetrics,
    ServerState,
    aggregate_models,
    read_metrics_csv,
    rounds_to_accuracy,
    run_client,
    run_experiment,
    run_round,
    write_metrics_csv,
)
from .losses import (
    LossBreakdown,
    SimilarityContext,
    ce_loss_and_grad,
    compute_normalizers,
    cpdr_loss_and_grad,
    rpcl_loss_and_grad,
    total_loss,
)
from .model import (
    FeatureBatch,
    ModelParams,
    OptimizerConfig,
    backward,
    evaluate_accuracy,
    forward_features,
    forward_logits,
    init_params,
    sgd_step,
)
from .prototypes import (
    Collaboration,
    ConsistentSet,
    PrototypeSet,
    RelationalSet,
    aggregation_weights,
    angular_differences,
    build_adjacency,
    build_collaboration,
    client_discrepancy,
    compute_global_prototypes,
    consistent_prototypes,
    prototypes_from_features,
    relational_prototypes,
)
from .theory import (
    ConvergencePlan,
    EstimatedConstants,
    TheoryConstants,
    TraceRecord,
    TrainingTrace,
    estimate_constants,
    theorem1_bound,
    theorem2_eta_threshold,
    theorem3_min_rounds,
)

__version__ = "0.1.0"
