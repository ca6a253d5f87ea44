"""Experiment configuration: a JSON key/value tree with validated defaults.

The file is one object with sections ``dataset``, ``model``, ``optimizer``,
``lap``, ``sources``, ``training``, plus top-level ``seeds`` and
``output_dir``. Every key is optional except ``dataset.kind``'s requirements;
defaults fill in the standard hyperparameters. Unknown keys are rejected by
name so typos fail loudly instead of silently running defaults.

A config loads by one walk over the dataclasses' fields, each value checked
against its field's declared type: a bool is never a number, an int passes as
a float, and ``null`` fills an optional key or a whole section.

A section is the spec it configures where there is one: ``model`` is a
``ModelSpec``, and ``lap``, ``sources`` and ``dataset`` subclass
``LapParams``, ``CorruptionSpec`` and ``BlobSpec``, adding only their own
keys. Each default and each check lives once, on the spec, and runs when the
config loads.

``load_config -> serialize_config -> load_config`` is the identity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .corruption import CorruptionSpec
from .datasets import BlobSpec
from .errors import ConfigError
from .models import ModelSpec
from .optim import SGD, Adam
from .trust import LapParams

DATASET_KINDS = ("blobs", "idx_files", "csv")
OPTIMIZER_KINDS = ("sgd", "adam")


@dataclass(frozen=True)
class DatasetConfig(BlobSpec):
    """The ``dataset`` section: the blob spec plus the source of the data.

    The blob fields are validated on every kind; only ``blobs`` reads them.
    """

    kind: str = "blobs"
    # blobs
    n_test_per_class: int | None = None
    # idx_files
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    # csv
    path: str | None = None
    test_path: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in DATASET_KINDS:
            raise ConfigError(
                f"dataset.kind: {self.kind!r} not one of {DATASET_KINDS}"
            )
        if self.kind == "idx_files":
            if not self.train_images or not self.train_labels:
                raise ConfigError(
                    "dataset.train_images/train_labels required for kind idx_files"
                )
            if bool(self.test_images) != bool(self.test_labels):
                raise ConfigError(
                    "dataset.test_images and test_labels must come together"
                )
        if self.kind == "csv" and not self.path:
            raise ConfigError("dataset.path required for kind csv")
        if self.n_test_per_class is not None and self.n_test_per_class < 1:
            raise ConfigError(
                f"dataset.n_test_per_class must be >= 1, got {self.n_test_per_class}"
            )

    def test_blob_spec(self) -> BlobSpec:
        per_class = self.n_test_per_class or max(1, self.n_per_class // 4)
        return BlobSpec(
            n_classes=self.n_classes,
            n_per_class=per_class,
            centers=self.centers,
            spread=self.spread,
        )


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 0.001
    momentum: float = 0.0
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(
                f"optimizer.kind: {self.kind!r} not one of {OPTIMIZER_KINDS}"
            )
        # the optimizers own their checks; building one runs them at load
        try:
            self.build()
        except ConfigError as exc:
            raise ConfigError(f"optimizer.{exc}") from None

    def build(self):
        """Fresh optimizer instance (state is per run)."""
        if self.kind == "sgd":
            return SGD(
                learning_rate=self.learning_rate,
                momentum=self.momentum,
                weight_decay=self.weight_decay,
            )
        return Adam(
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
        )


@dataclass(frozen=True)
class LapConfig(LapParams):
    """The ``lap`` section: the trust parameters plus the on/off switch."""

    enabled: bool = True


@dataclass(frozen=True)
class SourceConfig(CorruptionSpec):
    """The ``sources`` section: the corruption spec plus how the training set
    is split into sources and which of them are corrupt."""

    n_sources: int = 10
    n_corrupt: int = 0
    reliability_flip_step: int | None = None
    upsample: bool = False
    exclude_corrupt_from_training: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.n_sources < 2:
            raise ConfigError(
                f"sources.n_sources must be >= 2, got {self.n_sources}"
            )
        if not 0 <= self.n_corrupt < self.n_sources:
            raise ConfigError(
                f"sources.n_corrupt must lie in [0, n_sources), got "
                f"{self.n_corrupt} of {self.n_sources}"
            )
        if self.reliability_flip_step is not None and self.reliability_flip_step < 0:
            raise ConfigError(
                f"sources.reliability_flip_step must be >= 0, got "
                f"{self.reliability_flip_step}"
            )


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 30
    batch_size: int = 6
    train_val_ratio: tuple[int, int] = (3, 1)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"training.epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(
                f"training.batch_size must be >= 1, got {self.batch_size}"
            )
        ratio = tuple(int(v) for v in self.train_val_ratio)
        if len(ratio) != 2 or min(ratio) < 1:
            raise ConfigError(
                f"training.train_val_ratio must be two counts >= 1, got "
                f"{self.train_val_ratio}"
            )
        object.__setattr__(self, "train_val_ratio", ratio)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    lap: LapConfig = field(default_factory=LapConfig)
    sources: SourceConfig = field(default_factory=SourceConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seeds: tuple[int, ...] = (0,)
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if len(self.seeds) == 0:
            raise ConfigError("seeds must be a nonempty list")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds contain duplicates: {self.seeds}")

    def replace(self, **kwargs) -> "ExperimentConfig":
        from dataclasses import replace as dc_replace

        return dc_replace(self, **kwargs)


# stands for a value that does not fit its declared type
_MISFIT = object()


def _fit(declared, value):
    """``value`` as a ``declared`` (a JSON list becomes a tuple), or
    ``_MISFIT``. A bool is never a number, and an int is a float."""
    if isinstance(declared, type):
        if isinstance(value, bool) and declared is not bool:
            return _MISFIT
        accepted = (int, float) if declared is float else declared
        return value if isinstance(value, accepted) else _MISFIT
    options = get_args(declared)
    if get_origin(declared) is UnionType:
        fits = (_fit(option, value) for option in options)
        return next((v for v in fits if v is not _MISFIT), _MISFIT)
    # the one other generic a field declares: tuple[X, ...] or tuple[X, Y]
    if not isinstance(value, (list, tuple)):
        return _MISFIT
    if options[-1] is Ellipsis:
        options = options[:1] * len(value)
    if len(options) != len(value):
        return _MISFIT
    items = tuple(map(_fit, options, value))
    return _MISFIT if any(v is _MISFIT for v in items) else items


def _load(cls, raw, name: str):
    """The dataclass ``cls`` built from the JSON object ``raw``, each value
    checked against its field's declared type. A field whose type is a
    dataclass is a section, loaded the same way; ``null`` is all defaults."""
    where = name or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    declared = get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        if key not in declared:
            raise ConfigError(f"{where}.{key}: unknown key")
        kind, path = declared[key], f"{name}.{key}" if name else key
        if is_dataclass(kind):
            kwargs[key] = _load(kind, {} if value is None else value, path)
            continue
        kwargs[key] = _fit(kind, value)
        if kwargs[key] is _MISFIT:
            kind = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(f"{path}: expected {kind}, got {value!r}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _load(ExperimentConfig, raw, "")


def config_to_dict(config: ExperimentConfig) -> dict:
    out = asdict(config)
    # JSON has no tuples; normalize for clean round-trips
    return json.loads(json.dumps(out))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return config_from_dict(raw)


def serialize_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


# one line per key, rendered into `run --help`
CONFIG_KEY_DOC = """\
dataset.kind                    blobs | idx_files | csv (default blobs)
dataset.n_classes               blobs: number of classes (3)
dataset.n_per_class             blobs: training points per class (100)
dataset.centers                 blobs: list of class centers (circle of radius 4)
dataset.spread                  blobs: cluster standard deviation (1.0)
dataset.n_test_per_class        blobs: test points per class (n_per_class/4)
dataset.train_images            idx_files: path to training image file
dataset.train_labels            idx_files: path to training label file
dataset.test_images             idx_files: path to test image file (optional)
dataset.test_labels             idx_files: path to test label file (optional)
dataset.path                    csv: path to training csv (label = last column)
dataset.test_path               csv: path to test csv (optional)
model.kind                      logistic_regression | mlp (mlp)
model.layer_widths              layer sizes, features first, classes last
model.activation                relu | tanh (relu)
optimizer.kind                  sgd | adam (adam)
optimizer.learning_rate         step size (0.001)
optimizer.momentum              sgd momentum (0.0)
optimizer.weight_decay          sgd weight decay (0.0)
optimizer.beta1                 adam first-moment decay (0.9)
optimizer.beta2                 adam second-moment decay (0.999)
optimizer.eps                   adam denominator floor (1e-8)
lap.enabled                     apply gradient depression (true)
lap.leniency                    distrust threshold multiplier (0.8)
lap.depression_strength         distrust-to-depression rate (1.0)
lap.history_length              losses cached per source (25)
lap.hold_off                    steps after histories fill before depressing (0)
sources.n_sources               number of mutually exclusive sources (10)
sources.n_corrupt               how many sources are corrupted (0)
sources.mode                    corruption mode, one of the seven (original)
sources.corruption_rate         batch/observation corruption probability (1.0)
sources.n_chunks                chunk_shuffle: chunks per input (4)
sources.chunk_axis              chunk_shuffle: per-input axis (0)
sources.reliability_flip_step   global step when corrupt sources turn clean (null)
sources.upsample                resample smaller sources to equal size (false)
sources.exclude_corrupt_from_training
                                drop corrupt sources' data entirely (false)
training.epochs                 passes over the per-source batches (30)
training.batch_size             items per batch, one source per batch (6)
training.train_val_ratio        train:val split (3:1)
seeds                           list of run seeds ([0])
output_dir                      where metrics/trace/config files land (null)
"""
