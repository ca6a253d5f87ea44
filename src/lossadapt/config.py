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
config loads. A check that reads two sections lives on ``ExperimentConfig``:
``chunk_shuffle`` may not cut an input into more chunks than the model has
inputs. So a config that the config alone shows cannot run never loads.

``load_config -> serialize_config -> load_config`` is the identity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .corruption import CHUNK_SHUFFLE, CorruptionSpec, check_chunks_fit
from .datasets import BlobSpec
from .errors import ConfigError
from .models import ModelSpec
from .optim import SGD, Adam
from .trust import LapParams

# each dataset kind and the keys that only it reads
_DATASET_KEYS = {
    "blobs": (*(f.name for f in fields(BlobSpec)), "n_test_per_class"),
    "idx_files": ("train_images", "train_labels", "test_images", "test_labels"),
    "csv": ("path", "test_path"),
}
DATASET_KINDS = tuple(_DATASET_KEYS)
# each optimizer kind and the keys that only it reads
_OPTIMIZER_KEYS = {
    "sgd": ("momentum", "weight_decay"), "adam": ("beta1", "beta2", "eps")
}
OPTIMIZER_KINDS = tuple(_OPTIMIZER_KEYS)


def _refuse_unread(section: str, config, readers: dict) -> None:
    """Refuse a non-default value for a key that ``config.kind`` never reads
    (the run would ignore it); ``readers`` maps a kind to the keys only it reads."""
    # each key this kind never reads, and the kind that does
    unread = {k: r for r, keys in readers.items() if r != config.kind for k in keys}
    for f in fields(config):
        if f.name in unread and getattr(config, f.name) != f.default:
            raise ConfigError(
                f"{section}.{f.name}: only kind {unread[f.name]} reads it, so "
                f"kind {config.kind} takes its default ({f.default!r})"
            )


@dataclass(frozen=True)
class DatasetConfig(BlobSpec):
    """The ``dataset`` section: the blob spec plus the source of the data.

    Each kind reads its own keys: the blob keys, the IDX file paths or the
    CSV paths. Another kind accepts them at their defaults, which is how
    ``config.json`` records them, and refuses any other value, which would
    be silently ignored.
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
        _refuse_unread("dataset", self, _DATASET_KEYS)

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
        _refuse_unread("optimizer", self, _OPTIMIZER_KEYS)
        # the optimizers own their checks; building one runs them at load
        try:
            self.build()
        except ConfigError as exc:
            raise ConfigError(f"optimizer.{exc}") from None

    def build(self):
        """Fresh optimizer instance (state is per run)."""
        keys = _OPTIMIZER_KEYS[self.kind]
        return (SGD if self.kind == "sgd" else Adam)(
            self.learning_rate, **{k: getattr(self, k) for k in keys}
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
        if self.exclude_corrupt_from_training and self.n_sources - self.n_corrupt < 2:
            raise ConfigError(
                f"sources.exclude_corrupt_from_training leaves fewer than 2 "
                f"sources: {self.n_corrupt} of {self.n_sources} are corrupt"
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
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if self.output_dir == "":
            raise ConfigError("output_dir must be a path or null, not ''")
        # chunk_shuffle's cut must fit an input when some batch can be shuffled
        sources = self.sources
        if (
            sources.mode == CHUNK_SHUFFLE
            and sources.n_corrupt > 0
            and not sources.exclude_corrupt_from_training
            and sources.corruption_rate > 0
            and sources.reliability_flip_step != 0
        ):
            check_chunks_fit(sources.n_chunks, self.model.n_features)

    def replace(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


class _Misfit:
    """The part of a value that does not fit its declared type: its index
    path inside the value (empty for the whole value), the type and itself."""

    def __init__(self, declared, value):
        self.at, self.declared, self.value = "", declared, value


def _fit(declared, value):
    """``value`` as a ``declared`` (a JSON list becomes a tuple), or the
    ``_Misfit`` that says which part of it does not fit. A bool is never a
    number, and an int is a float."""
    if isinstance(declared, type):
        if isinstance(value, bool) and declared is not bool:
            return _Misfit(declared, value)
        accepted = (int, float) if declared is float else declared
        return value if isinstance(value, accepted) else _Misfit(declared, value)
    options = get_args(declared)
    if get_origin(declared) is UnionType:
        fits = [_fit(option, value) for option in options]
        for v in fits:
            if not isinstance(v, _Misfit):
                return v
        # a list of the right shape names its element, not the whole union
        return next((v for v in fits if v.at), _Misfit(declared, value))
    # the one other generic a field declares: tuple[X, ...] or tuple[X, Y]
    if not isinstance(value, (list, tuple)):
        return _Misfit(declared, value)
    if options[-1] is Ellipsis:
        options = options[:1] * len(value)
    if len(options) != len(value):
        return _Misfit(declared, value)
    items = tuple(map(_fit, options, value))
    for i, item in enumerate(items):
        if isinstance(item, _Misfit):
            item.at = f"[{i}]{item.at}"
            return item
    return items


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
        kwargs[key] = fit = _fit(kind, value)
        if isinstance(fit, _Misfit):
            kind = fit.declared
            kind = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(f"{path}{fit.at}: expected {kind}, got {fit.value!r}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _load(ExperimentConfig, raw, "")


def config_to_dict(config: ExperimentConfig) -> dict:
    out = asdict(config)
    # JSON has no tuples; normalize for clean round-trips
    return json.loads(json.dumps(out))


def read_config_file(path):
    """The JSON value in a config file, unchecked; a missing file or one
    that is not JSON raises :class:`ConfigError`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def load_config(path, cls=ExperimentConfig):
    """The ``cls`` (a config dataclass) that the JSON file at ``path`` holds."""
    return _load(cls, read_config_file(path), "")


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
model.layer_widths              layer sizes, features first, classes last;
                                two widths is logistic regression (784 256 128 10)
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
sources.reliability_flip_step   global step when corrupt sources turn clean (null)
sources.upsample                resample smaller sources to equal size (false)
sources.exclude_corrupt_from_training
                                drop corrupt sources' data entirely (false)
training.epochs                 passes over the per-source batches (30)
training.batch_size             items per batch, one source per batch (6)
training.train_val_ratio        train:val split (3:1)
seeds                           list of run seeds ([0])
output_dir                      where run writes metrics/trace/config files
                                and sweep writes sweep.csv (null: no files)
"""
