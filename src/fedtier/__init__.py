"""fedtier: a desk-scale federated learning simulator built around
hierarchical root/cluster/leaf low-rank adapters, subspace clustering of
clients, cascaded tier-wise optimization with cross-tier orthogonality,
product-space aggregation, and unseen-client adaptation."""

from .adaptation import (AdaptationResult, ClusterRepresentative, adapt_unseen,
                         assign_cluster, build_representatives, probe_basis)
from .clustering import (BasisTracker, ClusterAssignment, affinity, cluster_clients,
                         distance_matrix, ema_update, median_offdiag_distance,
                         pairwise_distance, select_k, spectral_cluster)
from .datagen import (ClientSplit, ClusterShift, FederationData, GlDir, LabeledPool,
                      Patho, ScDir, gen_pool, load_csv, partition, split_unseen)
from .errors import (ConfigurationError, DegenerateInputError, GenerationError,
                     PreconditionError)
from .federation import (FederationConfig, ServerState, StageReport,
                         TrainedFederation, aggregate_product, aggregate_separate,
                         refactor, run_cluster_stage, run_leaf_stage, run_protocol,
                         run_root_stage, stop_check, weights_cluster, weights_root)
from .linalg import (SvdFactors, frobenius_norm, matmul, orthonormal_columns,
                     subspace_overlap, truncated_svd)
from .lora import (AdapterPath, LoraAdapter, Tier, compose_path, delta, init_adapter,
                   orth_penalty, orth_penalty_grad, zero_adapter)
from .metrics import (MetricsReport, accuracy, clustering_quality, compute_metrics,
                      orthogonality_report, tier_gains, worst_decile)
from .model import (FrozenBackbone, HeadModel, Samples, SgdConfig, build_model,
                    dataset_loss, encode, fd_tier_gradient, forward, gradient_check,
                    local_update, tier_gradient)

__version__ = "0.1.0"
