"""Detector configuration: field checks and the manifest dictionary."""

import dataclasses
import math

import numpy as np
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
    ("window", (9, 3)),
    ("gamma", "0.3"),
    ("lam", None),
    ("bg_fraction", "0.5"),
])
def test_bad_value_is_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        h.DetectorConfig(**{field: value})


@pytest.mark.parametrize("cls,kwargs,message", [
    (h.WindowSpec, {"outer": 9.0, "inner": 3}, "outer must be an integer"),
    (h.WindowSpec, {"outer": 9, "inner": 3.0}, "inner must be an integer"),
    (h.SolverParams, {"max_nonzeros": 2.0}, "max_nonzeros must be an integer"),
    (h.OdlParams, {"n_atoms": 2.5}, "n_atoms must be an integer"),
    (h.OdlParams, {"n_atoms": 4, "epochs": 2.0}, "epochs must be an integer"),
    (h.OdlParams, {"n_atoms": 0}, "n_atoms must be >= 1"),
    (h.OdlParams, {"n_atoms": 4, "sparsity": 3.0}, "sparsity must be an integer"),
    (h.OdlParams, {"n_atoms": 4, "seed": 1.5}, "seed must be an integer"),
    (h.OdlParams, {"n_atoms": 4, "seed": -1}, "seed must be >= 0"),
    (h.SolverParams, {"lam": None}, "lam must be a real number"),
    (h.SolverParams, {"lam": "0.1"}, "lam must be a real number"),
    (h.SolverParams, {"lam": -1.0}, "lam must be finite and >= 0"),
    (h.SolverParams, {"lam": math.nan}, "lam must be finite and >= 0"),
    (h.OdlParams, {"n_atoms": 4, "lam": None}, "lam must be a real number"),
    (h.OdlParams, {"n_atoms": 4, "lam": "0.1"}, "lam must be a real number"),
    (h.OdlParams, {"n_atoms": 4, "lam": -1.0}, "lam must be finite and >= 0"),
    (h.OdlParams, {"n_atoms": 4, "lam": math.inf}, "lam must be finite and >= 0"),
])
def test_pipeline_parameters_reject_bad_counts_naming_the_field(cls, kwargs, message):
    # Caught at construction, not as a TypeError or a NumPy error mid-run.
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(**kwargs)


def test_pipeline_parameters_accept_numpy_integers():
    assert h.WindowSpec(np.int64(9), np.int64(3)).outer == 9
    assert h.SolverParams(max_nonzeros=np.int64(3)).max_nonzeros == 3
    assert h.OdlParams(n_atoms=np.int64(4), epochs=np.int32(2), seed=np.int64(0)).n_atoms == 4


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
