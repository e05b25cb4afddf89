import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from spi.config import (ModelConfig, SpiConfig, config_from_dict, derived_rng,
                        with_overrides)
from spi.errors import ContractError


def make_config(**kw):
    return SpiConfig(model=ModelConfig(vocab_size=16), **kw)


class TestValidate:
    """A config is checked when built, so every instance is valid."""

    def test_defaults_pass(self):
        make_config()

    def test_vocab_below_reserved_rejected(self):
        with pytest.raises(ContractError):
            ModelConfig(vocab_size=3)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ContractError, match="hidden_dim"):
            ModelConfig(vocab_size=16, hidden_dim=0)

    @pytest.mark.parametrize("kw", [
        {"prior": "flat"},
        {"selection": "beam"},
        {"top_s": 0},
        {"langevin_steps": -1},
        {"step_size": -0.1},
        {"grad_clamp": -1.0},
        {"temperature": 0.0},
        {"batch_size": 0},
        {"epochs": -1},
        {"lr_model": -0.1},
        {"lr_head": -0.1},
        {"seed": -1},
    ])
    def test_bad_run_fields_rejected(self, kw):
        [name] = kw
        with pytest.raises(ContractError, match=f"^{name} must be"):
            make_config(**kw)

    def test_zero_epochs_allowed(self):
        assert make_config(epochs=0).epochs == 0

    def test_zero_langevin_steps_allowed(self):
        assert make_config(langevin_steps=0).langevin_steps == 0

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig)])
    def test_each_model_field_is_checked_when_built(self, name):
        with pytest.raises(ContractError, match=rf"^model\.{name} must be positive, got 0$"):
            ModelConfig(**{"vocab_size": 16, name: 0})
        with pytest.raises(ContractError,
                           match=rf"^config field model\.{name} must be an integer, got '8'$"):
            ModelConfig(**{"vocab_size": 16, name: "8"})

    @pytest.mark.parametrize("name", [f.name for f in fields(SpiConfig) if f.name != "model"])
    def test_each_run_field_is_checked_when_built(self, name):
        # a string is no number or boolean, and a number is no string
        wrong = 1 if SpiConfig.__dataclass_fields__[name].type == "str" else "1"
        with pytest.raises(ContractError,
                           match=rf"^config field {name} must be an? .*, got {wrong!r}$"):
            make_config(**{name: wrong})

    def test_a_model_that_is_not_a_model_config_is_named(self):
        with pytest.raises(ContractError, match=re.escape(
                "config field model must be a ModelConfig, got {'vocab_size': 64}")):
            SpiConfig(model={"vocab_size": 64})

    def test_replace_checks_the_copy(self):
        with pytest.raises(ContractError, match="^top_s must be at least 1, got 0$"):
            replace(make_config(), top_s=0)
        with pytest.raises(ContractError, match="^model.latent_dim must be positive, got -1$"):
            replace(make_config().model, latent_dim=-1)


class TestFingerprint:
    def test_stable_across_run_fields(self):
        a = make_config(seed=0, epochs=5)
        b = make_config(seed=123, epochs=1, lr_model=0.9, top_s=2)
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_model_shape(self):
        a = make_config()
        b = SpiConfig(model=ModelConfig(vocab_size=16, hidden_dim=8))
        assert a.fingerprint() != b.fingerprint()

    def test_changes_with_prior_mode(self):
        assert make_config().fingerprint() != make_config(prior="learnable").fingerprint()

    def test_is_hex_digest(self):
        fp = make_config().fingerprint()
        assert len(fp) == 64
        int(fp, 16)


class TestSerialization:
    def test_round_trip(self):
        cfg = make_config(prior="learnable", top_s=2, epochs=9, seed=4)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_missing_vocab_size_rejected(self):
        with pytest.raises(ContractError, match="vocab_size"):
            config_from_dict({"model": {"hidden_dim": 8}})

    def test_missing_model_rejected(self):
        with pytest.raises(ContractError):
            config_from_dict({"seed": 3})

    def test_unknown_run_field_rejected(self):
        data = make_config().to_dict()
        data["momentum"] = 0.9
        with pytest.raises(ContractError, match="momentum"):
            config_from_dict(data)

    def test_old_threads_field_rejected(self):
        data = make_config().to_dict()
        data["threads"] = 1
        with pytest.raises(ContractError, match="unknown config fields.*threads"):
            config_from_dict(data)

    def test_unknown_model_field_rejected(self):
        data = make_config().to_dict()
        data["model"]["n_layers"] = 2
        with pytest.raises(ContractError, match="n_layers"):
            config_from_dict(data)

    @pytest.mark.parametrize("data, field", [
        ({"model": 5}, "model"),
        ({"model": {"vocab_size": 64}, "top_s": "a"}, "top_s"),
        ({"model": {"vocab_size": "x"}}, "model.vocab_size"),
        ({"model": {"vocab_size": 64, "hidden_dim": 8.0}}, "model.hidden_dim"),
        ({"model": {"vocab_size": True}}, "model.vocab_size"),
        ({"model": {"vocab_size": 64}, "epochs": 2.5}, "epochs"),
        ({"model": {"vocab_size": 64}, "step_size": False}, "step_size"),
        ({"model": {"vocab_size": 64}, "langevin_noise": 1}, "langevin_noise"),
        ({"model": {"vocab_size": 64}, "prior": 0}, "prior"),
    ])
    def test_mistyped_field_is_a_contract_error_naming_it(self, data, field):
        with pytest.raises(ContractError, match=rf"config field {field} must be"):
            config_from_dict(data)

    @pytest.mark.parametrize("field, text", [("step_size", "NaN"), ("temperature", "Infinity"),
                                             ("grad_clamp", "-Infinity"), ("lr_model", "1e400"),
                                             ("lr_head", "NaN")])
    def test_non_finite_number_is_a_contract_error_naming_it(self, field, text):
        # json reads NaN and Infinity, and 1e400 as inf
        data = json.loads(f'{{"model": {{"vocab_size": 64}}, "{field}": {text}}}')
        with pytest.raises(ContractError, match=rf"config field {field} must be a finite"):
            config_from_dict(data)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ContractError, match="config field step_size must be"):
            config_from_dict({"model": {"vocab_size": 64}, "step_size": 10**400})

    def test_integer_accepted_for_a_number_field(self):
        cfg = config_from_dict({"model": {"vocab_size": 64}, "temperature": 2})
        assert cfg.temperature == 2

    def test_invalid_values_rejected_on_load(self):
        data = make_config().to_dict()
        data["prior"] = "flat"
        with pytest.raises(ContractError):
            config_from_dict(data)

    @pytest.mark.parametrize("field", ["lr_model", "lr_head"])
    def test_a_negative_learning_rate_is_rejected_naming_it(self, field):
        # a negative rate would step against the gradient: train would
        # descend the likelihood it claims to ascend
        with pytest.raises(ContractError, match=rf"^{field} must be non-negative, got -1.0"):
            config_from_dict({"model": {"vocab_size": 64}, field: -1.0})
        assert getattr(config_from_dict({"model": {"vocab_size": 64}, field: 0.0}), field) == 0.0

    def test_a_negative_seed_is_rejected_naming_it(self):
        # a seed stream takes non-negative entries only
        with pytest.raises(ContractError, match=r"^seed must be non-negative, got -3"):
            config_from_dict({"model": {"vocab_size": 64}, "seed": -3})
        assert config_from_dict({"model": {"vocab_size": 64}, "seed": 0}).seed == 0


    @pytest.mark.parametrize("part, message", [
        ({"prior": "flat"}, "prior must be one of ('uniform', 'learnable'), got 'flat'"),
        ({"selection": "beam"}, "selection must be one of ('greedy', 'sampled'), got 'beam'"),
        ({"top_s": 0}, "top_s must be at least 1, got 0"),
        ({"langevin_steps": -2}, "langevin_steps must be non-negative, got -2"),
        ({"step_size": -0.5}, "step_size must be non-negative, got -0.5"),
        ({"grad_clamp": -1.0}, "grad_clamp must be non-negative, got -1.0"),
        ({"temperature": 0.0}, "temperature must be positive, got 0.0"),
        ({"lr_head": -2.0}, "lr_head must be non-negative, got -2.0"),
        ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
        ({"epochs": -1}, "epochs must be non-negative, got -1"),
        ({"seed": -3}, "seed must be non-negative, got -3"),
        ({"model": {"vocab_size": 3}},
         "model.vocab_size must cover the four reserved tokens, got 3"),
        ({"model": {"vocab_size": 64, "latent_dim": 0}},
         "model.latent_dim must be positive, got 0"),
    ])
    def test_each_out_of_range_value_is_named_with_its_field(self, part, message):
        data = {"model": {"vocab_size": 64}, **part}
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)


class TestOverrides:
    def test_run_field(self):
        cfg = with_overrides(make_config(), top_s=2, seed=9)
        assert cfg.top_s == 2 and cfg.seed == 9
        assert cfg.model == make_config().model

    def test_model_field(self):
        cfg = with_overrides(make_config(), hidden_dim=8)
        assert cfg.model.hidden_dim == 8
        assert cfg.top_s == make_config().top_s

    def test_invalid_override_rejected(self):
        with pytest.raises(ContractError):
            with_overrides(make_config(), top_s=0)

    def test_an_unknown_override_is_a_contract_error_naming_it(self):
        with pytest.raises(ContractError, match=r"^unknown config fields: \['momentum'\]$"):
            with_overrides(make_config(), momentum=0.9)

    @pytest.mark.parametrize("field, value", [("top_s", "3"), ("hidden_dim", 8.5),
                                              ("langevin_noise", 0)])
    def test_mistyped_override_names_the_field(self, field, value):
        with pytest.raises(ContractError, match=rf"config field (model\.)?{field} must be"):
            with_overrides(make_config(), **{field: value})


class TestDerivedRng:
    def test_same_key_same_stream(self):
        a = derived_rng(7, 2, 0, 5).standard_normal(8)
        b = derived_rng(7, 2, 0, 5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_key_different_stream(self):
        a = derived_rng(7, 2, 0, 5).standard_normal(8)
        b = derived_rng(7, 2, 0, 6).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_key_positions_matter(self):
        a = derived_rng(7, 1, 2).standard_normal(8)
        b = derived_rng(7, 2, 1).standard_normal(8)
        assert not np.array_equal(a, b)
