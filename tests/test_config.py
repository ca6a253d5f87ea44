import json
import re

import numpy as np
import pytest

from lossadapt.config import (
    CONFIG_KEY_DOC,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    serialize_config,
)
from lossadapt.corruption import CorruptionSpec
from lossadapt.datasets import BlobSpec, make_blobs
from lossadapt.errors import ConfigError
from lossadapt.trust import LapParams


def write_config(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


class TestDefaults:
    def test_minimal_config_fills_defaults(self, tmp_path):
        p = write_config(
            tmp_path,
            {"dataset": {"kind": "blobs"}, "model": {"layer_widths": [2, 8, 3]}},
        )
        config = load_config(p)
        assert config.lap.leniency == 0.8
        assert config.lap.depression_strength == 1.0
        assert config.lap.history_length == 25
        assert config.lap.hold_off == 0
        assert config.lap.enabled is True
        assert config.optimizer.kind == "adam"
        assert config.optimizer.learning_rate == 0.001
        assert config.training.train_val_ratio == (3, 1)
        assert config.seeds == (0,)

    def test_empty_object_is_all_defaults(self):
        config = config_from_dict({})
        assert config.dataset.kind == "blobs"
        assert config.model.kind == "mlp"
        assert config.sources.n_corrupt == 0


class TestValidation:
    def test_n_corrupt_must_be_less_than_n_sources(self):
        with pytest.raises(ConfigError, match="n_corrupt"):
            config_from_dict({"sources": {"n_sources": 5, "n_corrupt": 5}})

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="lap.lenincy"):
            config_from_dict({"lap": {"lenincy": 0.8}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.outputs"):
            config_from_dict({"outputs": "runs"})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="sources.mode"):
            config_from_dict({"sources": {"mode": "pepper"}})

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError, match="batch_size"):
            config_from_dict({"training": {"batch_size": 0}})

    def test_duplicate_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict({"seeds": [1, 1]})

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict({"seeds": []})

    def test_idx_needs_paths(self):
        with pytest.raises(ConfigError, match="train_images"):
            config_from_dict({"dataset": {"kind": "idx_files"}})

    def test_blob_values_checked_at_load(self):
        with pytest.raises(ConfigError, match="dataset.n_classes"):
            config_from_dict({"dataset": {"n_classes": 1}})
        with pytest.raises(ConfigError, match="centers"):
            config_from_dict(
                {"dataset": {"n_classes": 3, "centers": [[0.0, 0.0], [1.0, 1.0]]}}
            )

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"model": {"layer_widths": 5}},
             re.escape("model.layer_widths: expected tuple[int, ...], got 5")),
            ({"training": {"train_val_ratio": 3}},
             re.escape("training.train_val_ratio: expected tuple[int, int], got 3")),
        ],
        ids=["layer_widths", "train_val_ratio"],
    )
    def test_scalar_where_list_expected(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "optimizer, message",
        [
            ({"kind": "adam", "learning_rate": -1},
             "optimizer.learning_rate must be > 0"),
            ({"kind": "sgd", "momentum": 1.5},
             r"optimizer.momentum must lie in \[0, 1\)"),
        ],
        ids=["adam_learning_rate", "sgd_momentum"],
    )
    def test_optimizer_values_checked_at_load(self, optimizer, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"optimizer": optimizer})

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"seeds": ["a"]},
             re.escape("seeds: expected tuple[int, ...], got ['a']")),
            ({"seeds": [None]},
             re.escape("seeds: expected tuple[int, ...], got [None]")),
            ({"lap": {"enabled": "no"}}, "lap.enabled: expected bool"),
            ({"sources": {"upsample": "no"}}, "sources.upsample: expected bool"),
            ({"sources": {"exclude_corrupt_from_training": "yes"}},
             "sources.exclude_corrupt_from_training: expected bool"),
            ({"output_dir": 5}, r"output_dir: expected str \| None"),
            ({"training": {"epochs": 2.5}}, "training.epochs: expected int"),
            ({"lap": {"history_length": 2.5}}, "lap.history_length: expected int"),
            ({"training": {"epochs": True}}, "training.epochs: expected int"),
        ] + [
            (raw, re.escape(message)) for raw, message in [
                ({"lap": {"leniency": True}},
                 "lap.leniency: expected float, got True"),
                ({"optimizer": {"learning_rate": True}},
                 "optimizer.learning_rate: expected float, got True"),
                ({"sources": {"corruption_rate": True}},
                 "sources.corruption_rate: expected float, got True"),
                ({"lap": {"leniency": "0.8"}},
                 "lap.leniency: expected float, got '0.8'"),
                ({"training": {"train_val_ratio": [3.7, 1]}},
                 "training.train_val_ratio: expected tuple[int, int], got [3.7, 1]"),
                ({"training": {"train_val_ratio": [True, 1]}},
                 "training.train_val_ratio: expected tuple[int, int], got [True, 1]"),
                ({"model": {"layer_widths": [2, 32.7, 3]}},
                 "model.layer_widths: expected tuple[int, ...], got [2, 32.7, 3]"),
                ({"model": {"layer_widths": [2, True, 3]}},
                 "model.layer_widths: expected tuple[int, ...], got [2, True, 3]"),
                ({"model": {"layer_widths": ["2", "3"]}},
                 "model.layer_widths: expected tuple[int, ...], got ['2', '3']"),
                ({"dataset": {"centers": [["1", 0], [0, 1], [1, 1]]}},
                 "dataset.centers: expected tuple[tuple[float, ...], ...] | None, "
                 "got [['1', 0], [0, 1], [1, 1]]"),
            ]
        ],
        ids=[
            "seed_str", "seed_null", "lap_enabled_str", "upsample_str",
            "exclude_corrupt_str", "output_dir_int", "epochs_float",
            "history_length_float", "epochs_bool", "leniency_bool",
            "learning_rate_bool", "corruption_rate_bool", "leniency_str",
            "ratio_float", "ratio_bool", "widths_float", "widths_bool",
            "widths_str", "centers_str",
        ],
    )
    def test_value_types_checked_at_load(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_int_for_float_and_null_for_optional_load(self):
        config = config_from_dict({
            "lap": {"leniency": 1},
            "dataset": {"n_test_per_class": None,
                        "centers": [[1, 0], [0, 1], [1, 1]]},
            "sources": {"reliability_flip_step": None},
        })
        assert config.lap.leniency == 1
        assert config.dataset.n_test_per_class is None
        assert config.dataset.centers == ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert config.sources.reliability_flip_step is None
        assert config_from_dict({"lap": None}).lap == config_from_dict({}).lap

    def test_csv_needs_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            config_from_dict({"dataset": {"kind": "csv"}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)


class TestRoundTrip:
    def test_load_serialize_load_identity(self, tmp_path):
        p = write_config(
            tmp_path,
            {
                "dataset": {"kind": "blobs", "n_per_class": 40, "spread": 0.7},
                "model": {"layer_widths": [2, 16, 3], "activation": "tanh"},
                "optimizer": {"kind": "sgd", "learning_rate": 0.05,
                              "momentum": 0.9},
                "lap": {"leniency": 0.4, "history_length": 10},
                "sources": {"n_sources": 6, "n_corrupt": 2,
                            "mode": "random_label",
                            "reliability_flip_step": 120},
                "training": {"epochs": 5, "batch_size": 4},
                "seeds": [3, 4, 5],
                "output_dir": "runs/demo",
            },
        )
        first = load_config(p)
        out = tmp_path / "echo.json"
        serialize_config(first, out)
        second = load_config(out)
        assert first == second
        assert config_to_dict(first) == config_to_dict(second)

    def test_serialized_form_is_sorted_json(self, tmp_path):
        config = config_from_dict({"seeds": [1]})
        out = tmp_path / "c.json"
        serialize_config(config, out)
        text = out.read_text()
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert text.endswith("\n")

    def test_replace_builds_modified_config(self):
        config = config_from_dict({})
        off = config.replace(lap=config.lap.__class__(enabled=False))
        assert off.lap.enabled is False
        assert config.lap.enabled is True


class TestBuilders:
    def test_optimizer_builders(self):
        sgd = config_from_dict(
            {"optimizer": {"kind": "sgd", "learning_rate": 0.1}}
        ).optimizer.build()
        adam = config_from_dict({}).optimizer.build()
        assert type(sgd).__name__ == "SGD"
        assert type(adam).__name__ == "Adam"
        assert adam.learning_rate == 0.001

    def test_lap_params_builder(self):
        params = config_from_dict({"lap": {"history_length": 7}}).lap
        assert isinstance(params, LapParams)
        assert params.history_length == 7
        assert params.leniency == 0.8

    def test_corruption_builder(self):
        spec = config_from_dict(
            {"sources": {"n_corrupt": 1, "mode": "chunk_shuffle", "n_chunks": 2}}
        ).sources
        assert isinstance(spec, CorruptionSpec)
        assert spec.mode == "chunk_shuffle"
        assert spec.n_chunks == 2

    def test_dataset_section_draws_the_blob_spec_data(self):
        fields = {"n_classes": 2, "n_per_class": 30, "spread": 0.7,
                  "centers": [[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]]}
        ds = config_from_dict(
            {"dataset": {**fields, "n_test_per_class": 5}}
        ).dataset
        assert isinstance(ds, BlobSpec)
        mine = make_blobs(ds, np.random.default_rng(3))
        spec = make_blobs(BlobSpec(**fields), np.random.default_rng(3))
        assert mine.x.tobytes() == spec.x.tobytes()
        assert mine.y.tobytes() == spec.y.tobytes()
        assert mine.n_classes == spec.n_classes

    def test_test_blob_spec_defaults(self):
        ds = config_from_dict(
            {"dataset": {"n_per_class": 40, "n_test_per_class": 5}}
        ).dataset
        assert ds.test_blob_spec().n_per_class == 5
        for n_per_class, expected in ((40, 10), (41, 10), (7, 1), (3, 1)):
            test_spec = config_from_dict(
                {"dataset": {"n_per_class": n_per_class}}
            ).dataset.test_blob_spec()
            assert test_spec.n_per_class == expected
            assert type(test_spec) is BlobSpec


class TestKeyDoc:
    def test_every_config_key_is_documented(self):
        config = config_from_dict({})
        raw = config_to_dict(config)
        documented = {
            line.split()[0]
            for line in CONFIG_KEY_DOC.splitlines()
            if line.strip()
        }
        for section, value in raw.items():
            if not isinstance(value, dict):
                assert section in documented
                continue
            for key in value:
                assert f"{section}.{key}" in documented, f"{section}.{key}"

    def test_every_documented_key_exists(self):
        raw = config_to_dict(config_from_dict({}))
        # continuation lines are indented; key lines start at column 0
        for line in CONFIG_KEY_DOC.splitlines():
            if not line or line[0].isspace():
                continue
            section, _, key = line.split()[0].partition(".")
            assert section in raw, section
            if key:
                assert key in raw[section], f"{section}.{key}"
