import numpy as np
import pytest

from spi.config import (ModelConfig, SpiConfig, config_from_dict, derived_rng,
                        with_overrides)
from spi.errors import ContractError


def make_config(**kw):
    return SpiConfig(model=ModelConfig(vocab_size=16), **kw)


class TestValidate:
    def test_defaults_pass(self):
        make_config().validate()

    def test_vocab_below_reserved_rejected(self):
        with pytest.raises(ContractError):
            ModelConfig(vocab_size=3).validate()

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ContractError, match="hidden_dim"):
            ModelConfig(vocab_size=16, hidden_dim=0).validate()

    @pytest.mark.parametrize("kw", [
        {"prior": "flat"},
        {"selection": "beam"},
        {"top_s": 0},
        {"langevin_steps": -1},
        {"step_size": -0.1},
        {"temperature": 0.0},
        {"batch_size": 0},
        {"epochs": -1},
    ])
    def test_bad_run_fields_rejected(self, kw):
        with pytest.raises(ContractError):
            make_config(**kw).validate()

    def test_zero_epochs_allowed(self):
        make_config(epochs=0).validate()

    def test_zero_langevin_steps_allowed(self):
        make_config(langevin_steps=0).validate()


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

    def test_integer_accepted_for_a_number_field(self):
        cfg = config_from_dict({"model": {"vocab_size": 64}, "temperature": 2})
        assert cfg.temperature == 2

    def test_invalid_values_rejected_on_load(self):
        data = make_config().to_dict()
        data["prior"] = "flat"
        with pytest.raises(ContractError):
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
