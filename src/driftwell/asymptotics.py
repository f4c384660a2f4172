"""Log-domain evaluation of the sharp large-p eigenvalue asymptotics.

The principal eigenvalue of -u'' + p a u' on (-l, l) with odd a = b'
(minimizers of b on [0, l] left of its maximizers) satisfies

    lambda_1(p) ~ ( int_0^l exp(-p b) dx )^-1 ( int_0^l exp(+p b) dy )^-1 ,

a product of two exponential integrals that over/underflow doubles long
before the interesting regime ends.  Everything here is therefore carried as
natural logs: quadrature is composite Simpson with log-sum-exp accumulation,
and the closed-form decay catalog (power law, sine, quartic) is evaluated
directly in the log domain, valid for arbitrarily large p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .potential import Potential1D, check_well_ordering, CatalogError


@dataclass(frozen=True)
class LogQuad:
    """Log of a positive integral plus a log-domain error estimate."""

    log_value: float
    abs_error_log: float


@dataclass(frozen=True)
class AsymptoticValue:
    log_lambda: float
    form: str
    p: float
    reliable: bool = True


# --------------------------------------------------------------------------
# log-domain Simpson
# --------------------------------------------------------------------------

def _simpson_weights(npts: int) -> np.ndarray:
    """Composite Simpson weights for npts uniform samples (unit spacing);
    falls back to a 3/8 tail when the interval count is odd."""
    if npts < 2:
        raise ValueError("need at least two samples")
    if npts == 2:
        return np.array([0.5, 0.5])
    intervals = npts - 1
    w = np.zeros(npts)
    if intervals % 2 == 0:
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
        return w
    if intervals == 3:
        return np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    head = _simpson_weights(npts - 3)
    w[: npts - 3] += head
    w[npts - 4:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    return w


def log_simpson(log_f: np.ndarray, h: float) -> float:
    """log of int f dx for f = exp(log_f) on a uniform grid of spacing h."""
    w = _simpson_weights(len(log_f))
    return float(logsumexp(log_f, b=w)) + np.log(h)


def _log_trapz(log_f: np.ndarray, h: float) -> float:
    w = np.ones(len(log_f))
    w[0] = w[-1] = 0.5
    return float(logsumexp(log_f, b=w)) + np.log(h)


def _error_estimate(log_f: np.ndarray, h: float, log_s: float) -> float:
    """Conservative quadrature error proxy: |Simpson - trapezoid| in logs,
    floored at the log-sum-exp summation noise (n*eps relative)."""
    log_t = _log_trapz(log_f, h)
    d = log_t - log_s
    floor = log_s + np.log(len(log_f) * np.finfo(float).eps)
    if d == 0.0:
        return floor
    return max(log_s + np.log(abs(np.expm1(d))), floor)


# --------------------------------------------------------------------------
# exponential integrals over [0, l]
# --------------------------------------------------------------------------

def _half_samples(pot: Potential1D) -> tuple[np.ndarray, np.ndarray]:
    """Samples of (x, b) on [0, l] from the stored lattice.  With an even
    interior count the lattice skips x = 0; a virtual sample is prepended
    (analytic b when available, quadratic extrapolation otherwise)."""
    xs = pot.grid.nodes_with_endpoints()
    keep = xs >= -1e-12 * pot.grid.l
    xh = xs[keep].copy()
    bh = pot.b[keep].copy()
    if xh[0] > 0.25 * pot.grid.h:
        if pot.b_fn is not None:
            b0 = float(pot.b_fn(0.0))
        else:
            c = np.polyfit(xh[:3], bh[:3], 2)
            b0 = float(np.polyval(c, 0.0))
        xh = np.concatenate([[0.0], xh])
        bh = np.concatenate([[b0], bh])
    else:
        xh[0] = 0.0
    return xh, bh


def _local_quadratic(xs, phi, idx, span=2):
    i0 = max(0, idx - span)
    i1 = min(len(xs), idx + span + 1)
    deg = min(2, i1 - i0 - 1)
    return np.polyfit(xs[i0:i1], phi[i0:i1], deg), i0, i1 - 1


def _log_exp_integral(xs: np.ndarray, bs: np.ndarray, s: float,
                      pot: Potential1D | None = None) -> float:
    """log of int_0^l exp(s*b(x)) dx from samples (s = +-p).

    When the integrand concentrates on fewer than ~3 cells around the
    extremum of s*b, the cells there are re-integrated on a fine subgrid of
    either the analytic b or a local quadratic fit.
    """
    phi = s * bs
    h = xs[1] - xs[0] if len(xs) > 2 else xs[-1] - xs[0]
    # leading strip may be half-width when the lattice skipped x = 0
    uniform_start = 0
    if len(xs) > 2 and not np.isclose(xs[1] - xs[0], xs[2] - xs[1], rtol=1e-6):
        uniform_start = 1
        h = xs[2] - xs[1]

    pieces = []
    if uniform_start == 1:
        pieces.append(_log_trapz(phi[:2], xs[1] - xs[0]))

    body = phi[uniform_start:]
    log_s = log_simpson(body, h)

    idx = uniform_start + int(np.argmax(body))
    coeffs, iw0, iw1 = _local_quadratic(xs, phi, idx)
    widths = []
    if len(coeffs) >= 3 and coeffs[0] < 0:
        widths.append(1.0 / np.sqrt(-coeffs[0]))
    if len(coeffs) >= 2 and coeffs[-2] != 0:
        widths.append(1.0 / abs(coeffs[-2]))
    width = min(widths) if widths else np.inf

    if width < 3.0 * h and iw1 > iw0 and iw0 >= uniform_start:
        nsub = int(min(20001, max(2001, 16 * np.ceil((xs[iw1] - xs[iw0]) / max(width, 1e-300)))))
        xf = np.linspace(xs[iw0], xs[iw1], nsub)
        if pot is not None and pot.b_fn is not None:
            phif = s * np.asarray(pot.b_fn(xf), dtype=float)
        else:
            phif = np.polyval(coeffs, xf)
        fine = log_simpson(phif, xf[1] - xf[0])
        segs = [fine]
        if iw0 > uniform_start:
            segs.append(log_simpson(phi[uniform_start:iw0 + 1], h))
        if iw1 < len(xs) - 1:
            segs.append(log_simpson(phi[iw1:], h))
        log_s = float(logsumexp(segs))

    pieces.append(log_s)
    return float(logsumexp(pieces))


def half_interval_exp_integral(pot: Potential1D, p: float, sign: int) -> float:
    """log of int_0^l exp(sign * p * b) dx on the sampled grid."""
    xs, bs = _half_samples(pot)
    return _log_exp_integral(xs, bs, sign * p, pot)


def product_formula(pot: Potential1D, p: float) -> AsymptoticValue:
    """log lambda_1(p) ~ -log int_0^l e^{-pb} - log int_0^l e^{+pb}.

    Computed entirely in the log domain; never overflows.  If the odd-drift
    well-ordering check fails the value is still computed but flagged
    unreliable.
    """
    minus = half_interval_exp_integral(pot, p, -1)
    plus = half_interval_exp_integral(pot, p, +1)
    ok = check_well_ordering(pot).passed
    return AsymptoticValue(
        log_lambda=-(minus + plus),
        form="product-formula",
        p=p,
        reliable=ok,
    )


# --------------------------------------------------------------------------
# power-law Laplace integrals int_0^L exp(-p g) dx with g ~ x^mu near 0
# --------------------------------------------------------------------------

def laplace_integral(g, mu: float, p: float, L: float) -> LogQuad:
    """log of int_0^L exp(-p g(x)) dx for a callable g on [0, L].

    Requires g(0) = 0, g > 0 on (0, L], and g(x)/x^mu -> 1 near 0 (checked
    numerically).
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not L > 0:
        raise ValueError(f"the interval length L must be positive, got {L!r}")
    probe = min(1e-4 * L, 1e-6)
    ratio = float(g(probe)) / probe**mu
    if not 0.8 <= ratio <= 1.2:
        raise ValueError(
            f"g(x)/x^mu = {ratio:.4g} near 0; expected ~1 for exponent mu={mu}")
    x_cross = min(L, (70.0 / p) ** (1.0 / mu))
    xf = np.linspace(0.0, x_cross, 8193)
    log_f = -p * np.asarray(g(xf), dtype=float)
    log_val = log_simpson(log_f, xf[1] - xf[0])
    err = _error_estimate(log_f, xf[1] - xf[0], log_val)
    if x_cross < L:
        xt = np.linspace(x_cross, L, 4097)
        log_t = -p * np.asarray(g(xt), dtype=float)
        tail = log_simpson(log_t, xt[1] - xt[0])
        log_val = float(np.logaddexp(log_val, tail))
    return LogQuad(log_value=log_val, abs_error_log=err)


def laplace_predict(mu: float, p: float) -> float:
    """log of Gamma(1/mu + 1) * p^(-1/mu), the large-p limit of the integral."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return float(gammaln(1.0 / mu + 1.0)) - np.log(p) / mu


# --------------------------------------------------------------------------
# closed-form decay catalog
# --------------------------------------------------------------------------

def closed_form(kind: str, p: float, **params) -> AsymptoticValue:
    """Closed-form large-p behaviour of lambda_1(p) for catalog drifts.

    power (alpha >= 1, l):  (1/alpha)^(1/alpha) l^(alpha-1) / Gamma(1/alpha+1)
                            * p^(1/alpha+1) * exp(-(l^alpha/alpha) p)
    sine (0 < l < 2 pi):    sqrt(2) sin(l)/sqrt(pi) p^(3/2) exp(-(1-cos l) p)   l < pi
                            p/(2 pi) exp(-2p)                                    l = pi
                            p/pi exp(-2p)                                        pi < l < 2 pi
    quartic (l > sqrt(2)):  (l^3 - l)/sqrt(pi) p^(3/2) exp(-((l^2-1)^2/4) p)

    These are large-p limits: p <= 0 raises ValueError.
    """
    if not p > 0:
        raise ValueError(f"closed forms are large-p limits, need p > 0, got {p!r}")
    if kind == "power":
        alpha = float(params["alpha"])
        l = float(params["l"])
        if not 1.0 <= alpha < np.inf:
            raise CatalogError(f"power-law form needs 1 <= alpha < inf, got {alpha}")
        if l <= 0:
            raise CatalogError("l must be positive")
        log_coeff = (np.log(1.0 / alpha) / alpha + (alpha - 1.0) * np.log(l)
                     - gammaln(1.0 / alpha + 1.0))
        log_lam = log_coeff + (1.0 / alpha + 1.0) * np.log(p) - (l**alpha / alpha) * p
        return AsymptoticValue(log_lambda=float(log_lam), form="closed-power", p=p)

    if kind == "sine":
        l = float(params["l"])
        if not 0.0 < l < 2.0 * np.pi:
            raise CatalogError(f"sine form needs 0 < l < 2 pi, got {l}")
        if abs(l - np.pi) <= 1e-12:
            log_lam = np.log(1.0 / (2.0 * np.pi)) + np.log(p) - 2.0 * p
        elif l < np.pi:
            log_lam = (np.log(np.sqrt(2.0) * np.sin(l) / np.sqrt(np.pi))
                       + 1.5 * np.log(p) - (1.0 - np.cos(l)) * p)
        else:
            log_lam = np.log(1.0 / np.pi) + np.log(p) - 2.0 * p
        return AsymptoticValue(log_lambda=float(log_lam), form="closed-sine", p=p)

    if kind == "quartic":
        l = float(params["l"])
        if l <= np.sqrt(2.0):
            raise CatalogError(f"quartic form needs l > sqrt(2), got {l}")
        a_l = l**3 - l
        b_l = 0.25 * (l**2 - 1.0) ** 2
        log_lam = np.log(a_l / np.sqrt(np.pi)) + 1.5 * np.log(p) - b_l * p
        return AsymptoticValue(log_lambda=float(log_lam), form="closed-quartic", p=p)

    raise CatalogError(f"no closed form for kind {kind!r} "
                       "(known: power, sine, quartic)")


# --------------------------------------------------------------------------
# separability caveat
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableComparison:
    """Correct sum of per-axis eigenvalues vs the (wrong in >= 2D) naive
    full-domain product formula, both as logs."""

    log_sum: float
    log_naive_product: float
    per_axis: tuple


def separable_product_caveat(pots: list[Potential1D], p: float) -> SeparableComparison:
    """On a product domain with separable drift the eigenvalue is the SUM of
    the per-axis eigenvalues; the full-domain product formula instead gives
    4^-n times their product, which is exponentially smaller.  Both are
    returned to make the failure mode concrete."""
    per_axis = tuple(product_formula(pot, p) for pot in pots)
    logs = np.array([v.log_lambda for v in per_axis])
    n = len(pots)
    return SeparableComparison(
        log_sum=float(logsumexp(logs)),
        log_naive_product=float(np.sum(logs) - n * np.log(4.0)),
        per_axis=per_axis,
    )
