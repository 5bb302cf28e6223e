"""Unit tests for NEAT configuration validation and presets."""

from __future__ import annotations

import math

import pytest

from repro.core.config import (
    NEATConfig,
    PRESET_BALANCED,
    PRESET_DENSEST,
    PRESET_FASTEST,
    PRESET_MAX_FLOW,
    PRESET_TRAFFIC_MONITORING,
)
from repro.errors import ConfigError
from repro.tune.sweep import best_config_to_neat


class TestValidation:
    def test_defaults_valid(self):
        config = NEATConfig()
        assert config.wq + config.wk + config.wv == pytest.approx(1.0)
        assert math.isinf(config.beta)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            NEATConfig(wq=0.5, wk=0.5, wv=0.5)

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            NEATConfig(wq=-0.5, wk=1.0, wv=0.5)

    def test_beta_must_exceed_one(self):
        with pytest.raises(ConfigError):
            NEATConfig(beta=1.0)
        with pytest.raises(ConfigError):
            NEATConfig(beta=0.5)

    def test_min_card_non_negative(self):
        with pytest.raises(ConfigError):
            NEATConfig(min_card=-1)

    def test_eps_non_negative(self):
        with pytest.raises(ConfigError):
            NEATConfig(eps=-1.0)

    def test_min_pts_at_least_one(self):
        with pytest.raises(ConfigError):
            NEATConfig(min_pts=0)


class TestCopies:
    def test_with_weights(self):
        config = NEATConfig().with_weights(0.5, 0.5, 0.0)
        assert (config.wq, config.wk, config.wv) == (0.5, 0.5, 0.0)

    def test_with_eps(self):
        assert NEATConfig().with_eps(123.0).eps == 123.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NEATConfig().eps = 5.0  # type: ignore[misc]


class TestPresets:
    @pytest.mark.parametrize(
        "preset,weights",
        [
            (PRESET_BALANCED, (1 / 3, 1 / 3, 1 / 3)),
            (PRESET_DENSEST, (0.0, 1.0, 0.0)),
            (PRESET_FASTEST, (0.0, 0.0, 1.0)),
            (PRESET_TRAFFIC_MONITORING, (0.5, 0.5, 0.0)),
            (PRESET_MAX_FLOW, (1.0, 0.0, 0.0)),
        ],
    )
    def test_preset_weights_match_paper(self, preset, weights):
        assert (preset.wq, preset.wk, preset.wv) == pytest.approx(weights)


#: Keys NEATConfig dropped, with the value old documents carried.
RETIRED_KEYS = {
    "use_llb": False,
    "llb_landmarks": 8,
    "sp_backend": "csr",
    "sp_oracle": "tiered",
    "vector_backend": "auto",
}


class TestFromDict:
    """Config documents on disk fail loudly, naming the offending field."""

    @pytest.mark.parametrize(
        "document,field",
        [
            ({"eps": "400"}, "eps"),
            ({"beta": None}, "beta"),
            ({"use_elb": "no"}, "use_elb"),
            ({"use_elb": 1}, "use_elb"),
            ({"min_pts": 1.5}, "min_pts"),
            ({"min_pts": True}, "min_pts"),
            ({"min_card": "inf"}, "min_card"),
            ({"workers": 2.0}, "workers"),
            ({"wq": False, "wk": 0.5, "wv": 0.5}, "wq"),
            ({"deadline_s": "1"}, "deadline_s"),
            ({"eps": math.nan}, "eps"),
            ({"beta": math.nan}, "beta"),
        ],
    )
    def test_wrong_types_rejected(self, document, field):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            NEATConfig.from_dict(document)

    def test_accepted_types(self):
        config = NEATConfig.from_dict({
            "eps": 400, "beta": "inf", "min_card": None, "min_pts": 2,
            "use_elb": False, "workers": None, "deadline_s": 1.5,
            "slo_query_p99_s": None,
        })
        assert config.eps == 400.0 and isinstance(config.eps, float)
        assert math.isinf(config.beta)
        assert (config.min_card, config.min_pts) == (None, 2)
        assert config.use_elb is False and config.workers is None
        assert config.deadline_s == 1.5

    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_keys_rejected(self, key):
        # An old document must fail loudly, never load with a field
        # silently ignored: both the library path and the best_config
        # path behind `repro cluster --config` refuse it.
        document = {**NEATConfig().to_dict(), key: RETIRED_KEYS[key]}
        with pytest.raises(ConfigError, match=key):
            NEATConfig.from_dict(document)
        with pytest.raises(ConfigError, match=key):
            best_config_to_neat({"schema": "neat.best_config/1",
                                 "config": document})
        with pytest.raises(ConfigError, match=key):
            best_config_to_neat(document)
