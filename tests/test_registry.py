"""Refusals of the model registry and the finite-state kernel, a fuzz of
single config values, the linear families' declared constants, and the
constant model's frozen dynamics."""

import configparser
import dataclasses
import inspect
import io
import itertools
import math
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
     re.escape("[model] lower = 0 and upper = 1e+300: beta + x^2 overflows")),
    (lambda: gf.build_model("gauss_walk", lower=-1e200, upper=1e200), gf.ConfigError,
     re.escape("[model] lower = -1e+200 and upper = 1e+200: beta + x^2 overflows")),
    (lambda: gf.build_model("gauss_walk", upper=1.3e154), gf.ConfigError,
     re.escape("[model] the declared lambda_sup overflow with lower = 0 and upper = 1.3e+154")),
    (lambda: gf.build_model("gauss_walk", alpha=1e308, upper=10.0), gf.ConfigError,
     re.escape("the declared mu_sup, k_mu overflow with lower = 0 and upper = 10")),
    (lambda: gf.build_model("finite_chain", kind="random", seed=-1), gf.ConfigError,
     re.escape("[model] seed must be >= 0")),
    (lambda: gf.build_model("finite_chain", lower=-1e308, upper=1e308), gf.ConfigError,
     re.escape("[model] lower = -1e+308 and upper = 1e+308: the width of axis 0, "
               "upper - lower, overflows")),
], ids=["states_ndim", "shapes", "row_stochastic", "initial_law", "nan_matrix",
        "nan_initial_law", "step_sigma", "singular_floor", "n_states", "stick_prob",
        "kind", "value", "parameter", "observation_dimension", "nan_step_sigma",
        "inf_beta", "empty_box", "float_n", "word_n", "word_obs_scale", "int_kind",
        "overflow_upper", "overflow_box", "overflow_lambda_sup", "overflow_alpha",
        "negative_seed", "overflow_width"])
def test_registry_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_constant_demo_holds_its_state():
    spec = gf.build_model("constant", value=0.25)
    traj = gf.simulate(spec, 4, seed=0)
    assert np.array_equal(traj.states, np.full((5, 1), 0.25))


def linear_channel_constants(family, n, alpha, beta, sigma_xi_sq, lower, upper, obs_scale):
    """The declared constants of mean alpha*x and covariance beta(x) I, written
    out: beta(x) = beta + x^2 on gauss_walk, beta on finite_chain."""
    hi = max(abs(lower), abs(upper))
    lo = 0.0 if lower <= 0.0 <= upper else min(abs(lower), abs(upper))
    if family == "finite_chain":
        floor = ceiling = beta + sigma_xi_sq
    else:
        floor, ceiling = beta + lo**2 + sigma_xi_sq, beta + hi**2 + sigma_xi_sq
    s = math.sqrt(1.25 / floor) if obs_scale is None else float(obs_scale)
    walk = family == "gauss_walk"
    return gf.AssumptionConstants(
        lambda_inf=s**2 * floor, lambda_sup=s**2 * ceiling,
        mu_sup=s * abs(alpha) * math.sqrt(n) * hi, k_mu=s * abs(alpha) * math.sqrt(n),
        k_sigma=s**2 * 2.0 * hi if walk else 0.0,
        k_det=None if walk else 0.0, k_inv=None if walk else 0.0)


@pytest.mark.parametrize("family", ["gauss_walk", "finite_chain"])
def test_linear_families_declare_their_closed_form_constants(family):
    # int bounds, int and negative alpha, int beta and a given obs_scale
    for params in itertools.product([1, 3], [1.0, -2.5, 3], [0.25, 1], [0.5],
                                    [(0, 1), (-2, 3), (0.25, 2.0), (-3.5, -0.5)],
                                    [None, 0.7, 2]):
        n, alpha, beta, sigma_xi_sq, (lower, upper), obs_scale = params
        given = {} if obs_scale is None else {"obs_scale": obs_scale}
        declared = gf.build_model(family, n=n, alpha=alpha, beta=beta,
                                  sigma_xi_sq=sigma_xi_sq, lower=lower, upper=upper,
                                  **given).constants
        expected = linear_channel_constants(family, n, alpha, beta, sigma_xi_sq, lower,
                                            upper, obs_scale)
        assert declared == expected, params  # == on floats: bit for bit
        assert {type(v) for v in dataclasses.astuple(declared)} <= {float, type(None)}


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
