"""Source-aware robust training.

Track a loss history per data source, grow a distrust level for sources
whose losses run high against the weighted statistics of their peers, and
scale those sources' gradients down inside the optimizer so corrupted data
stops moving the model while everyone else trains normally.
"""

from .config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    serialize_config,
)
from .corruption import (
    MODES,
    CorruptionSpec,
    SourcePlan,
    apply_corruption,
    split_into_sources,
)
from .datasets import (
    BlobSpec,
    Dataset,
    load_csv_dataset,
    load_idx,
    make_blobs,
    split_train_val,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    LossAdaptError,
    NumericError,
    ShapeError,
    StateError,
    UnknownSourceError,
)
from .experiment import (
    MetricsRecord,
    RunResult,
    Trace,
    run_experiment,
    run_single,
    sweep,
)
from .models import (
    GradientSet,
    ModelSpec,
    ParameterSet,
    evaluate,
    forward,
    init_params,
    loss_and_backward,
)
from .optim import SGD, Adam, LapOptimizer
from .rng import child_rng, make_rng
from .trust import (
    DEPRESSION_SCALE,
    LapParams,
    SourceRegistry,
    depression_value,
    scale_gradients,
)
from .walkers import WalkerConfig, simulate_walkers, write_walker_csv

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BlobSpec",
    "ConfigError",
    "CorruptionSpec",
    "DEPRESSION_SCALE",
    "DataError",
    "Dataset",
    "ExperimentConfig",
    "FormatError",
    "GradientSet",
    "LapOptimizer",
    "LapParams",
    "LossAdaptError",
    "MODES",
    "MetricsRecord",
    "ModelSpec",
    "NumericError",
    "ParameterSet",
    "RunResult",
    "SGD",
    "ShapeError",
    "SourcePlan",
    "SourceRegistry",
    "StateError",
    "Trace",
    "UnknownSourceError",
    "WalkerConfig",
    "apply_corruption",
    "child_rng",
    "config_from_dict",
    "config_to_dict",
    "depression_value",
    "evaluate",
    "forward",
    "init_params",
    "load_config",
    "load_csv_dataset",
    "load_idx",
    "loss_and_backward",
    "make_blobs",
    "make_rng",
    "run_experiment",
    "run_single",
    "scale_gradients",
    "serialize_config",
    "simulate_walkers",
    "split_into_sources",
    "split_train_val",
    "sweep",
    "write_walker_csv",
]
