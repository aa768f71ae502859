"""Tests for the layered config system and generated CLI arguments."""

import argparse
import dataclasses
import json

import pytest

from repro.pipeline.config import (
    ConfigArguments,
    PipelineConfig,
    ServiceConfig,
    env_overrides,
    layered_config,
    load_config_file,
)


class TestDefaults:
    def test_pipeline_defaults_follow_paper(self):
        config = PipelineConfig()
        assert config.max_connections == 8
        assert config.n_training_datasets == 120
        assert config.n_estimators == 100
        assert config.variant == "wanify-tc"
        assert config.policy == "tetrium"

    def test_service_extends_pipeline(self):
        config = ServiceConfig()
        assert isinstance(config, PipelineConfig)
        assert config.seed == 42  # service override of the base default
        assert config.n_training_datasets == 24
        assert config.max_concurrent == 3

    def test_service_mirrors_drift_defaults(self):
        # The config layer duplicates these to stay import-light; keep
        # them honest against the source of truth.
        from repro.runtime import drift

        config = ServiceConfig()
        assert config.drift_threshold == drift.DEFAULT_THRESHOLD
        assert config.cooldown_s == drift.DEFAULT_COOLDOWN_S

    def test_frozen(self):
        with pytest.raises(Exception):
            PipelineConfig().seed = 99


class TestShardKnobValidation:
    """Shard knobs the service cannot honour fail at construction."""

    @pytest.mark.parametrize(
        ("field", "value"),
        [("scheduler_shards", 0), ("scheduler_shards", -2), ("shard_workers", -1)],
    )
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(ServiceConfig(), **{field: value})

    @pytest.mark.parametrize(
        ("field", "value"), [("scheduler_shards", 1), ("shard_workers", 0)]
    )
    def test_lowest_valid_values_accepted(self, field, value):
        assert getattr(ServiceConfig(**{field: value}), field) == value

    def test_env_layer_rejected_before_any_build(self, monkeypatch):
        from repro.pipeline.core import Pipeline
        from repro.runtime.service import PipelineService

        def no_build(*args, **kwargs):
            raise AssertionError("build work ran before validation")

        monkeypatch.setattr(Pipeline, "train", no_build)
        monkeypatch.setattr(PipelineService, "build", no_build)
        monkeypatch.setenv("WANIFY_SHARD_WORKERS", "-1")
        with pytest.raises(ValueError, match="shard_workers"):
            layered_config(ServiceConfig)

    def test_cli_exits_2_before_training(self, monkeypatch):
        import io

        from repro.cli import main
        from repro.pipeline.core import Pipeline

        def no_train(*args, **kwargs):
            raise AssertionError("training ran before validation")

        monkeypatch.setattr(Pipeline, "train", no_train)
        out = io.StringIO()
        code = main(["serve", "--scheduler-shards", "0"], out=out)
        assert code == 2
        assert "scheduler_shards" in out.getvalue()


class TestFileLayer:
    def test_toml_file(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('seed = 7\nvariant = "wanify-p"\n')
        config = layered_config(PipelineConfig, path=path, environ={})
        assert config.seed == 7
        assert config.variant == "wanify-p"

    def test_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_estimators": 5}))
        config = layered_config(PipelineConfig, path=path, environ={})
        assert config.n_estimators == 5

    def test_unknown_keys_ignored(self, tmp_path):
        # One file can feed entry points with different config classes.
        path = tmp_path / "run.toml"
        path.write_text('seed = 7\nmax_concurrent = 9\n')
        config = layered_config(PipelineConfig, path=path, environ={})
        assert config.seed == 7
        assert not hasattr(config, "max_concurrent")
        service = layered_config(ServiceConfig, path=path, environ={})
        assert service.max_concurrent == 9

    def test_non_table_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="table"):
            load_config_file(path)


class TestEnvLayer:
    def test_env_coercion(self):
        env = {
            "WANIFY_SEED": "5",
            "WANIFY_THROTTLING": "off",
            "WANIFY_MAX_REPLANS": "3",
            "WANIFY_SCENARIO": "diurnal",
            "WANIFY_UNRELATED": "ignored",
        }
        found = env_overrides(ServiceConfig, env)
        assert found == {
            "seed": 5,
            "throttling": False,
            "max_replans": 3,
            "scenario": "diurnal",
        }

    def test_cli_alias_spelling_accepted(self):
        # --datasets is the flag, so WANIFY_DATASETS must work too.
        found = env_overrides(ServiceConfig, {"WANIFY_DATASETS": "99"})
        assert found == {"n_training_datasets": 99}

    def test_field_name_wins_over_alias(self):
        found = env_overrides(
            ServiceConfig,
            {"WANIFY_DATASETS": "99", "WANIFY_N_TRAINING_DATASETS": "7"},
        )
        assert found == {"n_training_datasets": 7}

    def test_optional_none_spelling(self):
        found = env_overrides(
            ServiceConfig, {"WANIFY_MAX_REPLANS": "none"}
        )
        assert found == {"max_replans": None}

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            env_overrides(ServiceConfig, {"WANIFY_THROTTLING": "maybe"})


class TestPrecedence:
    def test_file_env_override_order(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("seed = 1\nn_estimators = 11\n")
        config = layered_config(
            PipelineConfig,
            path=path,
            environ={"WANIFY_SEED": "2"},
            overrides={},
            defaults={"seed": 0, "n_training_datasets": 33},
        )
        # file beats defaults; env beats file; untouched = defaults.
        assert config.seed == 2
        assert config.n_estimators == 11
        assert config.n_training_datasets == 33

    def test_explicit_overrides_win(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("seed = 1\n")
        config = layered_config(
            PipelineConfig,
            path=path,
            environ={"WANIFY_SEED": "2"},
            overrides={"seed": 3},
        )
        assert config.seed == 3


class TestConfigArguments:
    def _parser(self, config_args):
        parser = argparse.ArgumentParser()
        config_args.install(parser)
        return parser

    def test_flags_generated_from_fields(self):
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        args = parser.parse_args([])
        # flag-derived namespace attributes, dataclass defaults.
        assert args.datasets == 24
        assert args.max_concurrent == 3
        assert args.vm == "t2.medium"
        assert args.policy == "tetrium"
        assert args.variant == "wanify-tc"
        assert args.config_file is None

    def test_cli_false_fields_have_no_flags(self):
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        with pytest.raises(SystemExit):
            parser.parse_args(["--regions", "x"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--online"])

    def test_bool_fields_get_no_variant(self):
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        assert parser.parse_args(["--no-throttling"]).throttling is False
        assert parser.parse_args(["--throttling"]).throttling is True

    def test_explicit_detects_only_typed_flags(self):
        config_args = ConfigArguments(
            ServiceConfig, defaults={"scenario": "step-drop"}
        )
        explicit = config_args.explicit(
            ["serve", "us-east-1", "--seed", "9", "--no-throttling"]
        )
        assert explicit == {"seed": 9, "throttling": False}

    def test_resolve_layers_file_env_cli(self, tmp_path):
        path = tmp_path / "svc.toml"
        path.write_text(
            'seed = 1\nvm = "t3.large"\nmax_concurrent = 7\n'
        )
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        argv = ["--config", str(path), "--seed", "9"]
        args = parser.parse_args(argv)
        args._argv = argv
        config = config_args.resolve(
            args,
            environ={"WANIFY_VM": "t2.nano"},
            regions=("a", "b"),
        )
        assert config.seed == 9  # explicit CLI beats file
        assert config.vm == "t2.nano"  # env beats file
        assert config.max_concurrent == 7  # file beats defaults
        assert config.regions == ("a", "b")  # extra override

    def test_resolve_without_argv_uses_changed_values(self):
        config_args = ConfigArguments(
            PipelineConfig, defaults={"seed": 42}
        )
        parser = self._parser(config_args)
        args = parser.parse_args(["--estimators", "9"])
        config = config_args.resolve(args, environ={})
        assert config.n_estimators == 9
        assert config.seed == 42
