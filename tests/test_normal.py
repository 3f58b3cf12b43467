"""The numpy normal CDF and quantile of ``gridfilter._normal`` against
scipy.special and against mpmath at 50 digits."""

import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

import gridfilter
from gridfilter._normal import ndtr, ndtri

TINY = np.finfo(float).tiny


def assert_rel(got, want, rtol):
    err = np.abs(got - want)
    assert np.all(err <= rtol * np.abs(want)), float(np.max(err / np.abs(want)))


def test_ndtri_matches_scipy_on_uniform_and_log_uniform_p():
    rng = np.random.default_rng(0)
    p = np.concatenate([rng.uniform(0.0, 1.0, 100_000),
                        10.0 ** rng.uniform(-300.0, 0.0, 100_000)])
    assert_rel(ndtri(p), special.ndtri(p), 2e-15)
    assert_rel(ndtri(1.0 - p[:100_000]), special.ndtri(1.0 - p[:100_000]), 2e-15)


def test_ndtr_matches_scipy():
    # scipy squares a rounded x/sqrt(2), so its own relative error in the
    # left tail grows like x^2 eps: 1.1e-14 at x = -8 and 2.2e-13 at x = -37
    # against mpmath, where the port stays below 1e-15 (next test).  The
    # bound follows that growth; it is 1e-14 for x >= -5.
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(-8.0, 38.0, 100_000),
                        rng.uniform(-38.5, 38.5, 100_000)])
    want = special.ndtr(x)
    normal = want >= TINY
    x, want = x[normal], want[normal]
    tol = np.maximum(1e-14, 4e-16 * np.minimum(x, 0.0) ** 2)
    assert np.all(np.abs(ndtr(x) - want) <= tol * want)


def test_ndtr_against_mpmath_in_the_left_tail():
    x = np.concatenate([np.linspace(-37.0, -8.0, 200),
                        np.random.default_rng(2).uniform(-8.0, 8.0, 50)])
    with mpmath.workdps(50):
        want = np.array([float(mpmath.ncdf(mpmath.mpf(v))) for v in x])
    assert_rel(ndtr(x), want, 1e-14)


def test_edge_values_are_exact_and_quiet():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        cdf = ndtr(np.array([np.inf, -np.inf, np.nan, 0.0, -40.0, 40.0]))
        quantile = ndtri(np.array([0.0, 1.0, np.nan, 0.5, -0.1, 1.1]))
        tail = ndtr(np.linspace(-60.0, 60.0, 1201))
    np.testing.assert_array_equal(cdf, [1.0, 0.0, np.nan, 0.5, 0.0, 1.0])
    np.testing.assert_array_equal(quantile, [-np.inf, np.inf, np.nan, 0.0, np.nan, np.nan])
    assert np.all(np.diff(tail) >= 0.0)


def test_shapes_follow_the_input():
    x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    assert ndtr(x).shape == (2, 3)
    assert ndtri(ndtr(x)).shape == (2, 3)
    assert np.ndim(ndtr(0.3)) == 0 and np.ndim(ndtri(0.3)) == 0
    assert ndtr(np.empty(0)).shape == (0,)
    np.testing.assert_allclose(ndtri(ndtr(x)), x, rtol=1e-13, atol=1e-15)


def test_the_package_imports_without_scipy():
    src = os.path.dirname(os.path.dirname(gridfilter.__file__))
    code = ("import sys, gridfilter, gridfilter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
