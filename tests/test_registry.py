"""Refusals of the model registry and the finite-state kernel, a fuzz of
single config values, and the constant model's frozen dynamics."""

import configparser
import inspect
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfilter as gf
from gridfilter.config import _KEYS


def finite_kernel(states=np.zeros((2, 1)), matrix=np.eye(2), initial=(0.5, 0.5)):
    return lambda: gf.FiniteStateKernel(states, matrix, initial)


@pytest.mark.parametrize("make, error, message", [
    (finite_kernel(states=np.zeros((2, 1, 1))), gf.ModelDefinitionError,
     r"states must be a \(K, M\) array"),
    (finite_kernel(matrix=np.eye(3)), gf.ModelDefinitionError,
     "transition matrix / initial law shape mismatch"),
    (finite_kernel(matrix=[[0.5, 0.4], [0.0, 1.0]]), gf.ModelDefinitionError,
     "transition matrix must be row-stochastic"),
    (finite_kernel(initial=(0.6, 0.6)), gf.ModelDefinitionError,
     "initial law must be a distribution"),
    (finite_kernel(matrix=[[np.nan, 1.0], [0.0, 1.0]]), gf.ModelDefinitionError,
     "transition matrix must be row-stochastic"),
    (finite_kernel(initial=(np.nan, 1.0)), gf.ModelDefinitionError,
     "initial law must be a distribution"),
    (lambda: gf.build_model("gauss_walk", step_sigma=0.0), gf.ConfigError,
     "step_sigma must be positive"),
    (lambda: gf.build_model("gauss_walk", beta=-0.25), gf.ConfigError,
     "cannot derive obs_scale for a singular covariance floor"),
    (lambda: gf.build_model("finite_chain", n_states=0), gf.ConfigError,
     "n_states must be >= 1"),
    (lambda: gf.build_model("finite_chain", stick_prob=1.0), gf.ConfigError,
     r"stick_prob must lie in \(0, 1\)"),
    (lambda: gf.build_model("finite_chain", kind="cyclic"), gf.ConfigError,
     "unknown chain kind 'cyclic'"),
    (lambda: gf.build_model("constant", value=2.0), gf.ConfigError,
     "value must lie inside the interval"),
    (lambda: gf.build_model("gauss_walk", sigma=1.0), gf.ConfigError,
     "bad parameters for model 'gauss_walk'"),
    (lambda: gf.build_model("gauss_walk", n=0), gf.ConfigError,
     "observation dimension must be >= 1"),
    (lambda: gf.build_model("gauss_walk", step_sigma=float("nan")), gf.ConfigError,
     re.escape("[model] step_sigma must be finite")),
    (lambda: gf.build_model("gauss_walk", beta=float("inf")), gf.ConfigError,
     re.escape("[model] beta must be finite")),
    (lambda: gf.build_model("gauss_walk", lower=2.0), gf.ConfigError,
     "need lower < upper in every coordinate"),
    (lambda: gf.build_model("gauss_walk", n=2.5), gf.ConfigError,
     re.escape("[model] n must be an integer, not 2.5")),
    (lambda: gf.build_model("gauss_walk", n="two"), gf.ConfigError,
     re.escape("[model] n must be an integer, not 'two'")),
    (lambda: gf.build_model("gauss_walk", obs_scale="abc"), gf.ConfigError,
     re.escape("[model] obs_scale must be a real number, not 'abc'")),
    (lambda: gf.build_model("finite_chain", kind=3), gf.ConfigError,
     re.escape("[model] kind must be a word, not 3")),
    (lambda: gf.build_model("gauss_walk", upper=1e300), gf.ConfigError,
     "model 'gauss_walk': OverflowError"),
], ids=["states_ndim", "shapes", "row_stochastic", "initial_law", "nan_matrix",
        "nan_initial_law", "step_sigma", "singular_floor", "n_states", "stick_prob",
        "kind", "value", "parameter", "observation_dimension", "nan_step_sigma",
        "inf_beta", "empty_box", "float_n", "word_n", "word_obs_scale", "int_kind",
        "overflow_upper"])
def test_registry_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_constant_demo_holds_its_state():
    spec = gf.build_model("constant", value=0.25)
    traj = gf.simulate(spec, 4, seed=0)
    assert np.array_equal(traj.states, np.full((5, 1), 0.25))


@pytest.mark.parametrize("seed", range(4))
def test_random_chain_rows_come_from_stream_seed_77(seed):
    p = gf.build_model("finite_chain", kind="random", seed=seed).kernel.transition_matrix
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 77])))
    assert np.array_equal(p, rng.dirichlet(np.ones(len(p)), size=len(p)))


# (model id, section, option): every run key, and every parameter of every builder.
FUZZ_KEYS = ([("gauss_walk", section, option) for section, option, *_ in _KEYS]
             + [(model_id, "model", name) for model_id, builder in gf.MODEL_BUILDERS.items()
                for name in inspect.signature(builder).parameters])
FUZZ_VALUES = ["0", "-1", "2.5", "1e300", "-1e300", "nan", "inf", "-inf", "", "word"]


# 500 examples exhaust the 43 x 10 pairs
@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES))
def test_one_drawn_config_value_builds_or_is_a_config_error(key, value):
    model_id, section, option = key
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(gf.render_config(gf.RunConfig(model_id=model_id)))
    parser.set(section, option, value)
    text = io.StringIO()
    parser.write(text)
    try:
        cfg = gf.parse_config(text.getvalue())
        gf.build_model(cfg.model_id, **cfg.model_params)
    except gf.ConfigError:
        pass
