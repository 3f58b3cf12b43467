"""Standard normal CDF and quantile as numpy array code.

``ndtr`` follows the cephes layout: ``0.5 + 0.5 erf(x/sqrt2)`` near zero and
``0.5 erfc(|x|/sqrt2)`` on the far side (``1 - h`` for x > 0), with erf and
erfc from W. J. Cody, "Rational Chebyshev approximations for the error
function", Math. Comp. 23 (1969), as in his SPECFUN routine CALERF.  The
erfc factor exp(-x^2/2) is split as exp(-xs^2/2) exp(-(x-xs)(x+xs)/2) with
xs = trunc(16|x|)/16, whose square is exact, so the tail keeps its relative
precision.  ``ndtri`` is Wichura's AS 241 (PPND16), Applied Statistics 37
(1988).  Both return 0/1 and -inf/+inf at the ends and pass NaN through.
"""

from __future__ import annotations

import numpy as np

# Cody: erf(y) = y A(y^2) / B(y^2) for y <= 0.46875.
_ERF_A = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3)
_ERF_B = (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)
# erfc(y) exp(y^2) = C(y) / D(y) for 0.46875 < y <= 4.
_ERFC_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
           6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
           1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3)
_ERFC_D = (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
           1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3, 1.23033935480374942e3)
# erfc(y) exp(y^2) = (1/sqrt(pi) - w P(w) / Q(w)) / y, w = 1/y^2, for y > 4.
_ERFC_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_Q = (1.0, 2.56852019228982242e0, 1.87295284992346725e0,
           5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)
_FRAC_1_SQRTPI = 5.6418958354775628695e-1
_FRAC_1_SQRT2 = 7.0710678118654752440e-1
# ndtr(-_X_MAX) is 0 and ndtr(_X_MAX) is 1 in double precision.
_X_MAX = 40.0
# Elements per pass: 128 KiB per temporary.  On whole arrays of 2e5 values
# the temporaries spill out of L2 and each pass runs up to twice as long.
_CHUNK = 1 << 14

# AS 241: q A(r) / B(r), r = 0.180625 - q^2, for |q| = |p - 1/2| <= 0.425 ...
_PPND_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
           4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
           1.3314166789178437745e2, 3.3871328727963666080e0)
_PPND_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
           2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
           4.2313330701600911252e1, 1.0)
# ... else C(s) / D(s) at s = sqrt(-log(min(p, 1-p))) - 1.6 for s <= 5 ...
_PPND_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
           1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
           4.63033784615654529590e0, 1.42343711074968357734e0)
_PPND_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
           1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
           2.05319162663775882187e0, 1.0)
# ... else E(s) / F(s) at s - 5.
_PPND_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
           2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
           5.46378491116411436990e0, 6.65790464350110377720e0)
_PPND_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
           7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
           5.99832206555887937690e-1, 1.0)


def _rational(num, den, x):
    """num(x) / den(x), coefficients highest degree first (Horner, in place)."""
    p, q = num[0] * x, den[0] * x
    for a, b in zip(num[1:-1], den[1:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def _split(mask):
    """Indices where ``mask`` holds and where it does not: integer gathers
    and scatters cost a third of boolean-mask ones on mixed masks."""
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _erfc_scaled(y):
    """erfc(y) exp(y^2) for y > 0.46875 (Cody's second and third ranges)."""
    out = np.empty(y.shape)
    mid, tail = _split(y <= 4.0)
    if mid.size:
        out[mid] = _rational(_ERFC_C, _ERFC_D, y[mid])
    if tail.size:
        y = y[tail]
        w = 1.0 / (y * y)
        out[tail] = (_FRAC_1_SQRTPI - w * _rational(_ERFC_P, _ERFC_Q, w)) / y
    return out


def _by_chunks(kernel, x):
    """``kernel`` applied to the flattened ``x`` in slices of at most _CHUNK
    elements, so that its temporaries stay in cache."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    for i in range(0, flat.size, _CHUNK):
        out[i:i + _CHUNK] = kernel(flat[i:i + _CHUNK])
    return out.reshape(x.shape)[()]


def _ndtr(x):
    out = np.empty(x.shape)
    near, far = _split(np.abs(x) * _FRAC_1_SQRT2 < 0.46875)
    if near.size:
        z = x[near] * _FRAC_1_SQRT2
        out[near] = 0.5 + 0.5 * z * _rational(_ERF_A, _ERF_B, z * z)
    if far.size:
        x = x[far]
        ax = np.minimum(np.abs(x), _X_MAX)
        xs = np.trunc(16.0 * ax) / 16.0
        h = np.exp(-0.5 * xs * xs) * np.exp(-0.5 * (ax - xs) * (ax + xs))
        h *= 0.5 * _erfc_scaled(ax * _FRAC_1_SQRT2)
        out[far] = np.where(x > 0.0, 1.0 - h, h)
    return out


def _ndtri(p):
    q = p - 0.5
    r = np.where(q < 0.0, p, 1.0 - p)  # min(p, 1 - p)
    out = np.where(r == 0.0, np.copysign(np.inf, q), np.nan)
    central, other = _split(np.abs(q) <= 0.425)
    if central.size:
        qc = q[central]
        out[central] = qc * _rational(_PPND_A, _PPND_B, 0.180625 - qc * qc)
    tail = other[r[other] > 0.0]  # not 0, 1, NaN or outside [0, 1]
    if tail.size:
        s = np.sqrt(-np.log(r[tail]))
        near, far = _split(s <= 5.0)
        z = np.empty(s.shape)
        z[near] = _rational(_PPND_C, _PPND_D, s[near] - 1.6)
        z[far] = _rational(_PPND_E, _PPND_F, s[far] - 5.0)
        out[tail] = np.copysign(z, q[tail])
    return out


def ndtr(x):
    """Standard normal CDF, elementwise."""
    with np.errstate(under="ignore"):  # tiny |x| and the far left tail
        return _by_chunks(_ndtr, x)


def ndtri(p):
    """Standard normal quantile (inverse of ``ndtr``), elementwise."""
    return _by_chunks(_ndtri, p)
