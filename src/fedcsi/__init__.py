"""Deterministic federated channel-estimation simulator.

Small base stations fine-tune a shared convolutional CSI estimator on
locally cached pilot data; a macro station aggregates the weight updates.
The package provides data-poisoning attack modes (outdated, colluded and
mean-reversed CSI), five aggregation rules including a median-centred
stochastic filter, and loss-distribution pre-filtering of cached samples,
plus a CLI for experiments, sweeps and SVG convergence plots.
"""
from .aggregation import (
    Aggregator,
    WeightUpdate,
    aggregate,
    fed_avg,
    fed_be,
    fed_be_fit,
    fed_be_sample,
    fed_median,
    sto_median,
    sto_median_probabilities,
    trimmed_mean,
)
from .attacks import AttackPlan, outdate_label, poison_caches, reverse_label
from .channel import (
    CachedDataset,
    ChannelConfig,
    ChannelSample,
    generate_round_caches,
    lagged_label,
    make_samples,
    topup_with_pretrain,
)
from .llpf import LlpfConfig, classify_losses, filter_caches, per_sample_losses, trunc_gauss_cdf
from .nn import (
    LayerSpec,
    NetworkSpec,
    default_network_spec,
    forward_batch,
    forward_sum,
    init_params,
    layer_params,
    param_count,
)
from .orchestrator import (
    ExperimentConfig,
    FederationState,
    MetricsRecord,
    evaluate,
    local_train,
    pretrain,
    run_experiment,
    run_round,
)
from .seeds import derive_rng

__version__ = "0.1.0"
