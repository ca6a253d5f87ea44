import json
import re
from dataclasses import replace
from pathlib import Path

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
from lossadapt.experiment import prepare_run
from lossadapt.trust import LapParams
from conftest import UNSHUFFLED_CHUNK_CASES, planned_steps
from test_acceptance import SEEDS, _identification_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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

    def test_negative_seeds(self):
        with pytest.raises(ConfigError, match="seeds must be >= 0"):
            config_from_dict({"seeds": [0, -1]})

    def test_empty_output_dir(self):
        # "" would write every file into the current directory
        with pytest.raises(ConfigError, match="output_dir"):
            config_from_dict({"output_dir": ""})

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
        "kind, key, value",
        [("adam", "momentum", 0.9), ("adam", "weight_decay", 0.01),
         ("sgd", "beta1", 0.1), ("sgd", "beta2", 0.5), ("sgd", "eps", 1e-6)],
    )
    def test_optimizer_refuses_keys_its_kind_never_reads(self, kind, key, value):
        reader = "sgd" if kind == "adam" else "adam"
        match = f"optimizer.{key}: only kind {reader} reads it, so kind {kind}"
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"optimizer": {"kind": kind, key: value}})

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_optimizer_loads_every_key_at_its_default(self, kind, tmp_path):
        # config.json records every key, the other kind's at their defaults
        defaults = {"momentum": 0, "weight_decay": 0.0, "beta1": 0.9,
                    "beta2": 0.999, "eps": 1e-8}
        config = config_from_dict({"optimizer": {"kind": kind, **defaults}})
        path = tmp_path / "config.json"
        serialize_config(config, path)
        assert load_config(path) == config

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"seeds": ["a"]}, re.escape("seeds[0]: expected int, got 'a'")),
            ({"seeds": [None]}, re.escape("seeds[0]: expected int, got None")),
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
                 "training.train_val_ratio[0]: expected int, got 3.7"),
                ({"training": {"train_val_ratio": [True, 1]}},
                 "training.train_val_ratio[0]: expected int, got True"),
                ({"model": {"layer_widths": [2, 32.7, 3]}},
                 "model.layer_widths[1]: expected int, got 32.7"),
                ({"model": {"layer_widths": [2, True, 3]}},
                 "model.layer_widths[1]: expected int, got True"),
                ({"model": {"layer_widths": ["2", "3"]}},
                 "model.layer_widths[0]: expected int, got '2'"),
                ({"dataset": {"centers": [["1", 0], [0, 1], [1, 1]]}},
                 "dataset.centers[0][0]: expected float, got '1'"),
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

    def test_misfit_element_is_named_alone(self):
        # one string among 10 x 784 centre coordinates: the error names its
        # index path and shows that element, not all 7840 values
        centers = [[0.01 * (c + 1)] * 784 for c in range(10)]
        centers[9][783] = "0.1"
        with pytest.raises(ConfigError) as info:
            config_from_dict({"dataset": {"n_classes": 10, "centers": centers}})
        assert str(info.value) == "dataset.centers[9][783]: expected float, got '0.1'"

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

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"dataset": {"kind": "mnist"}}, "dataset.kind"),
            ({"optimizer": {"kind": "rmsprop"}}, "optimizer.kind"),
            ({"dataset": {"kind": "idx_files", "train_images": "a",
                          "train_labels": "b", "test_images": "c"}},
             "dataset.test_images"),
            ({"dataset": {"n_test_per_class": 0}}, "dataset.n_test_per_class"),
            ({"sources": {"n_sources": 1}}, "sources.n_sources"),
            ({"sources": {"reliability_flip_step": -1}},
             "sources.reliability_flip_step"),
            ({"training": {"epochs": 0}}, "training.epochs"),
            ({"training": {"train_val_ratio": [0, 1]}},
             "training.train_val_ratio"),
            ({"model": {"kind": "mlp"}}, "model.kind"),
            ({"sources": {"chunk_axis": 0}}, "sources.chunk_axis"),
        ],
        ids=[
            "dataset_kind", "optimizer_kind", "test_images_alone",
            "n_test_per_class", "n_sources", "flip_step", "epochs",
            "train_val_ratio", "model_kind_removed", "chunk_axis_removed",
        ],
    )
    def test_rule_names_its_key(self, raw, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict(raw)

    def test_csv_needs_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            config_from_dict({"dataset": {"kind": "csv"}})

    FILE_KINDS = {
        "csv": {"kind": "csv", "path": "train.csv"},
        "idx_files": {"kind": "idx_files", "train_images": "a",
                      "train_labels": "b"},
    }

    @pytest.mark.parametrize("kind", ["csv", "idx_files"])
    @pytest.mark.parametrize(
        "key, value",
        [("n_classes", 7), ("n_per_class", 5), ("centers", [[0, 0], [1, 1], [2, 2]]),
         ("spread", 0.5), ("n_test_per_class", 3)],
    )
    def test_file_kinds_refuse_blob_values(self, kind, key, value):
        raw = {**self.FILE_KINDS[kind], key: value}
        with pytest.raises(ConfigError, match=f"dataset.{key}: only kind blobs"):
            config_from_dict({"dataset": raw})

    @pytest.mark.parametrize("kind", ["csv", "idx_files"])
    def test_file_kinds_load_blob_defaults(self, kind, tmp_path):
        # config.json records every key, the blob keys at their defaults
        defaults = {"n_classes": 3, "n_per_class": 100, "centers": None,
                    "spread": 1, "n_test_per_class": None}
        config = config_from_dict({"dataset": {**self.FILE_KINDS[kind], **defaults}})
        path = tmp_path / "config.json"
        serialize_config(config, path)
        assert load_config(path) == config

    @pytest.mark.parametrize(
        "raw, key, reader",
        [
            ({"kind": "blobs", "path": "nope.csv"}, "path", "csv"),
            ({"kind": "blobs", "test_images": "x", "test_labels": "y"},
             "test_images", "idx_files"),
            ({**FILE_KINDS["idx_files"], "path": "c.csv"}, "path", "csv"),
            ({**FILE_KINDS["idx_files"], "test_path": "t.csv"}, "test_path", "csv"),
            ({**FILE_KINDS["csv"], "train_images": "a"}, "train_images", "idx_files"),
            ({**FILE_KINDS["csv"], "test_labels": "b"}, "test_labels", "idx_files"),
        ],
        ids=["blobs_path", "blobs_test_images", "idx_files_path",
             "idx_files_test_path", "csv_train_images", "csv_test_labels"],
    )
    def test_kinds_refuse_each_others_paths(self, raw, key, reader):
        match = f"dataset.{key}: only kind {reader} reads it, so kind {raw['kind']}"
        with pytest.raises(ConfigError, match=match):
            config_from_dict({"dataset": raw})

    # a 2-feature chunk_shuffle config with 2 of 5 sources corrupt
    CHUNK_SHUFFLE = {
        "model": {"layer_widths": [2, 8, 3]},
        "sources": {"n_sources": 5, "n_corrupt": 2, "mode": "chunk_shuffle"},
    }
    CANNOT_RUN = {
        "too-many-chunks": (
            CHUNK_SHUFFLE,
            "^sources.n_chunks 4 exceeds the 2 features of an input$",
        ),
        "exclusion-leaves-one-source": (
            {"sources": {"n_sources": 4, "n_corrupt": 3,
                         "exclude_corrupt_from_training": True}},
            "^sources.exclude_corrupt_from_training leaves fewer than 2 "
            "sources: 3 of 4 are corrupt$",
        ),
        "too-many-sources": (
            {"dataset": {"n_classes": 3, "n_per_class": 4},
             "sources": {"n_sources": 12}},
            "^sources.n_sources: cannot split 9 items into 12 sources$",
        ),
    }

    @pytest.mark.parametrize("raw, message", CANNOT_RUN.values(),
                             ids=CANNOT_RUN)
    def test_config_that_cannot_run_is_refused_at_load(self, raw, message,
                                                       tmp_path):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, raw))

    def test_replace_refuses_a_config_that_cannot_run(self):
        raw = self.CHUNK_SHUFFLE
        config = config_from_dict({**raw, "sources": {**raw["sources"],
                                                      "n_chunks": 2}})
        with pytest.raises(ConfigError, match="^sources.n_chunks 4 exceeds"):
            config.replace(sources=replace(config.sources, n_chunks=4))
        with pytest.raises(ConfigError, match="leaves fewer than 2 sources"):
            replace(config.sources, n_corrupt=4,
                    exclude_corrupt_from_training=True)

    @pytest.mark.parametrize("n_per_class, ratio, expected", [
        (4, (3, 1), 9), (4, (1, 1), 6), (4, (1, 3), 3), (1, (3, 1), 2),
    ], ids=["3x4-3:1", "3x4-1:1", "3x4-1:3", "3x1-3:1-one-val-item"])
    def test_blob_sources_are_checked_against_the_training_items(
        self, n_per_class, ratio, expected
    ):
        raw = {
            "dataset": {"n_classes": 3, "n_per_class": n_per_class},
            "model": {"layer_widths": [2, 3]},
            "sources": {"n_sources": 2},
            "training": {"train_val_ratio": list(ratio)},
        }
        n_train = len(prepare_run(config_from_dict(raw), 0).train)
        assert n_train == expected
        config = config_from_dict({**raw, "sources": {"n_sources": n_train}})
        assert config.sources.n_sources == n_train
        with pytest.raises(ConfigError, match=f"^sources.n_sources: cannot "
                           f"split {n_train} items into {n_train + 1} sources$"):
            config_from_dict({**raw, "sources": {"n_sources": n_train + 1}})

    @pytest.mark.parametrize("sources", UNSHUFFLED_CHUNK_CASES.values(),
                             ids=UNSHUFFLED_CHUNK_CASES)
    def test_too_many_chunks_load_when_no_batch_is_shuffled(self, sources):
        raw = self.CHUNK_SHUFFLE
        config = config_from_dict({**raw, "sources": {**raw["sources"],
                                                      **sources}})
        assert config.sources.mode == "chunk_shuffle"

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

    def test_optimizer_builders_pass_their_kind_keys(self):
        sgd = config_from_dict({"optimizer": {
            "kind": "sgd", "learning_rate": 0.1, "momentum": 0.5,
            "weight_decay": 0.01,
        }}).optimizer.build()
        assert (sgd.learning_rate, sgd.momentum, sgd.weight_decay) == (0.1, 0.5, 0.01)
        adam = config_from_dict(
            {"optimizer": {"beta1": 0.8, "beta2": 0.99, "eps": 1e-6}}
        ).optimizer.build()
        assert (adam.beta1, adam.beta2, adam.eps) == (0.8, 0.99, 1e-6)

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
            test_spec = config_from_dict({
                "dataset": {"n_per_class": n_per_class},
                "sources": {"n_sources": 2},
            }).dataset.test_blob_spec()
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

    def test_parenthesised_defaults_are_the_defaults(self):
        raw = config_to_dict(ExperimentConfig())
        checked = 0
        # a note closes its key's line or one of its continuation lines
        for line in CONFIG_KEY_DOC.splitlines():
            if not line[0].isspace():
                section, _, key = line.split()[0].partition(".")
                default = raw[section][key] if key else raw[section]
            note = re.search(r"\(([^()]*)\)$", line)
            # "(optional)" says the key may be left out, not what it holds
            if note is None or note[1] == "optional":
                continue
            try:
                stated = json.loads(note[1])
            except json.JSONDecodeError:
                # a bare word is a string default, such as (adam)
                if not re.fullmatch(r"[a-z_]+", note[1]):
                    continue  # a description, such as (circle of radius 4)
                stated = note[1]
            assert stated == default, line
            checked += 1
        assert checked == 27


class TestCommittedConfigs:
    """``configs/*.json`` run the configs the acceptance criteria judge, over
    the criteria's seeds, each into its own output directory."""

    @staticmethod
    def load(name, judged):
        config = load_config(CONFIGS / f"{name}.json")
        assert config.seeds == SEEDS
        assert config.output_dir == f"out/{name}"
        return config.replace(seeds=judged.seeds, output_dir=judged.output_dir)

    def test_identification_is_criteria_4_and_5(self):
        judged = _identification_config()
        assert self.load("identification", judged) == judged

    def test_recovery_is_criterion_7(self):
        base = _identification_config()
        judged = base.replace(
            dataset=replace(base.dataset, spread=2.5),
            lap=replace(base.lap, leniency=1.3, history_length=10),
        )
        flip = planned_steps(judged) // 2
        judged = judged.replace(
            sources=replace(judged.sources, reliability_flip_step=flip)
        )
        assert self.load("recovery", judged) == judged

    def test_clean_only_is_criterion_5s_third_arm(self):
        base = _identification_config()
        judged = base.replace(
            lap=replace(base.lap, enabled=False),
            sources=replace(base.sources, exclude_corrupt_from_training=True),
        )
        assert self.load("clean_only", judged) == judged

    def test_standard_is_criterion_5s_second_arm(self):
        base = _identification_config()
        judged = base.replace(lap=replace(base.lap, enabled=False))
        assert self.load("standard", judged) == judged
