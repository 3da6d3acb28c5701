"""Detector configuration: field checks and the manifest dictionary."""

import dataclasses
import math

import pytest

import hsidet as h


@pytest.mark.parametrize("field,value", [
    ("k", 0),
    ("k", 13),
    ("n_target_atoms", 0),
    ("n_bg_atoms", -3),
    ("n_target_train", 0),
    ("odl_epochs", 0),
    ("threads", 0),
    ("seed", -1),
    ("lam", math.nan),
    ("lam", math.inf),
    ("lam", -1.0),
    ("gamma", 1.5),
    ("bg_fraction", 0.0),
    ("bg_fraction", 1.0),
    ("n_bg_atoms", 64.5),
    ("n_target_train", 10.0),
    ("odl_epochs", 2.0),
    ("k", 2.5),
    ("seed", 1.5),
])
def test_bad_value_is_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        h.DetectorConfig(**{field: value})


def test_to_dict_keys_are_the_fields_with_window_split():
    config = h.DetectorConfig()
    names = {f.name for f in dataclasses.fields(config)}
    assert set(config.to_dict()) == names - {"window"} | {"owr", "iwr"}
    assert config.to_dict()["owr"] == 19 and config.to_dict()["iwr"] == 9


def test_orientation_is_a_constant_not_a_setting():
    assert h.DetectorConfig.orientation == "flip_both"
    assert "orientation" not in {f.name for f in dataclasses.fields(h.DetectorConfig)}
    with pytest.raises(TypeError):
        h.DetectorConfig(orientation="literal")
