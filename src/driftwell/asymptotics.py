"""Log-domain evaluation of the sharp large-p eigenvalue asymptotics.

The principal eigenvalue of -u'' + p a u' on (-l, l) with odd a = b'
(minimizers of b on [0, l] left of its maximizers) satisfies

    lambda_1(p) ~ ( int_0^l exp(-p b) dx )^-1 ( int_0^l exp(+p b) dy )^-1 ,

a product of two exponential integrals that over/underflow doubles long
before the interesting regime ends.  Everything here is therefore carried as
natural logs: every integral is six-point Gauss-Legendre on cells cut so
that the exponent moves by about 1 or less across a piece, summed as one
log-sum-exp, and the closed-form decay catalog (power law, sine, quartic)
is evaluated directly in the log domain, valid for arbitrarily large p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .potential import Potential1D, check_well_ordering, CatalogError


@dataclass(frozen=True)
class LogQuad:
    """Log of a positive integral plus a log-domain error estimate."""

    log_value: float
    abs_error_log: float


@dataclass(frozen=True)
class AsymptoticValue:
    log_lambda: float
    reliable: bool = True


def _logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D real array, step for step as
    scipy.special.logsumexp (1.17) evaluates it, in the accurate form of
    Blanchard, Higham & Higham (IMA J. Numer. Anal. 41, 2021): the m terms
    tied at the max are taken out, the others summed as s = sum exp(a -
    max), and the result is log1p(s/m) + log(m) + max.  A max of +-inf or
    nan gives scipy's fallback log(sum(exp(a))), an empty array -inf."""
    a = np.asarray(a, dtype=float)
    if not a.size:
        return -np.inf
    top = a.max()
    if np.isfinite(top):
        tied = a == top
        m = float(np.count_nonzero(tied))
        s = np.exp(np.where(tied, -np.inf, a) - top).sum()
        return float(np.log1p(s / m) + np.log(m) + top)
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.log(np.exp(a).sum()))


# --------------------------------------------------------------------------
# log of int exp(s b(x)) dx
# --------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
_GRADING = 0.5 ** np.arange(50, -1, -1)      # 2^-50, ..., 1/2, 1
# the most Gauss pieces one integral may take (see _log_exp_integral)
_MAX_PIECES = 2 ** 20


def _log_exp_integral(b, edges: np.ndarray, s: float,
                      halve: bool = False) -> float:
    """log of int exp(s b(x)) dx over [edges[0], edges[-1]] for a callable b.

    Six-point Gauss-Legendre on every cell.  A cell is cut into ceil(V)
    equal pieces, V the variation of s b over its ends and midpoint, so the
    exponent moves by about 1 or less across a piece (a cap of 2 leaves
    3e-8 of log lambda where a peak of e^{pb} falls inside a cell); a
    cell whose ends lie more than 745 below the largest end value cannot
    show in the double sum and stays whole.  The first cell is graded
    geometrically toward edges[0] (50 halvings), where b may be |x|^alpha.
    With halve, every piece is cut in two once more.

    Raises ValueError, before any piece is formed, when the pieces would
    number more than _MAX_PIECES = 2^20 (0.2 GB of temporaries there), or
    cannot be counted because s b overflows: for b = x^2/2 on the cells of
    a 4001-node lattice of [-1, 1] that is past s = 2e9.  No test or
    benchmark job comes near: the most pieces any takes is ~30k.
    """
    edges = np.asarray(edges, dtype=float)
    x0, x1 = edges[0], edges[1]
    edges = np.concatenate(([x0], x0 + (x1 - x0) * _GRADING, edges[2:]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(over="ignore", invalid="ignore"):   # counted below
        phi = s * np.asarray(b(edges), dtype=float)
        phi_mid = s * np.asarray(b(mid), dtype=float)
        var = np.abs(phi_mid - phi[:-1]) + np.abs(phi[1:] - phi_mid)
        peak = phi.max()
        near = np.maximum(phi[:-1], phi[1:]) > peak - 745.0
    k = np.where(near, np.maximum(np.ceil(var), 1), 1) * (1 + halve)
    pieces = float(k.sum())
    if not (pieces <= _MAX_PIECES and np.isfinite(peak)):
        raise ValueError(f"exp(s b) cannot be integrated at s = {s!r}: "
                         f"{pieces:.3g} Gauss pieces (the cap is "
                         f"{_MAX_PIECES}), max s b = {peak:.3g}")
    k = k.astype(np.int64)
    j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)   # piece in cell
    half = np.repeat(0.5 * np.diff(edges) / k, k)
    centre = np.repeat(edges[:-1], k) + (2 * j + 1) * half
    nodes = centre[:, None] + half[:, None] * _GL_X
    with np.errstate(over="ignore"):    # s b = -inf is a zero term
        terms = (s * np.asarray(b(nodes.ravel()),
                                dtype=float).reshape(nodes.shape)
                 + np.log(half)[:, None] + np.log(_GL_W))
    top = terms.max()
    return float(top + np.log(np.exp(terms - top).sum()))


def _cubic_closure(pot: Potential1D):
    """b(x) on [0, l] from the samples alone: the cubic through the four
    samples in [0, l] nearest x, one-sided at x = 0, where an even b may
    have a kink such as |x|."""
    grid, bs = pot.grid, pot.b
    lo = min((grid.n + 2) // 2, bs.size - 4)      # first node >= 0
    def b(x):
        t = (np.asarray(x, dtype=float) + grid.l) / grid.h
        i = np.clip(np.floor(t).astype(np.int64) - 1, lo, bs.size - 4)
        t = t - i
        return (-(t - 1) * (t - 2) * (t - 3) / 6 * bs[i]
                + t * (t - 2) * (t - 3) / 2 * bs[i + 1]
                - t * (t - 1) * (t - 3) / 2 * bs[i + 2]
                + t * (t - 1) * (t - 2) / 6 * bs[i + 3])
    return b


def product_formula(pot: Potential1D, p: float) -> AsymptoticValue:
    """log lambda_1(p) ~ -log int_0^l e^{-pb} - log int_0^l e^{+pb}.

    Both integrals run over cells whose edges are 0 and the lattice nodes
    in (0, l], through pot.b_fn, or the cubic through the four nearest
    samples when the potential has no closure.  Computed entirely in the
    log domain; never overflows.  If the odd-drift well-ordering check
    fails the value is still computed but flagged unreliable.
    """
    b = pot.b_fn if pot.b_fn is not None else _cubic_closure(pot)
    xs = pot.grid.nodes()
    edges = np.concatenate(([0.0], xs[xs > 0.25 * pot.grid.h], [pot.grid.l]))
    log_lam = -(_log_exp_integral(b, edges, -p) + _log_exp_integral(b, edges, p))
    return AsymptoticValue(log_lambda=log_lam,
                           reliable=check_well_ordering(pot).passed)


# --------------------------------------------------------------------------
# power-law Laplace integrals int_0^L exp(-p g) dx with g ~ x^mu near 0
# --------------------------------------------------------------------------

def laplace_integral(g, mu: float, p: float, L: float) -> LogQuad:
    """log of int_0^L exp(-p g(x)) dx for a callable g on [0, L].

    Requires g(0) = 0, g > 0 on (0, L], and g(x)/x^mu -> 1 near 0 (checked
    numerically).  64 cells cover [0, x_cross], where p g reaches about 70,
    and 64 more the rest of [0, L].  The value is taken with every Gauss
    piece halved; abs_error_log is the log of its change from the unhalved
    value, floored at npts * eps of the value, with npts = 12 nodes per cell.
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
    edges = np.unique(np.r_[np.linspace(0.0, x_cross, 65), np.linspace(x_cross, L, 65)])
    coarse = _log_exp_integral(g, edges, -p)
    log_val = _log_exp_integral(g, edges, -p, halve=True)
    rel = max(abs(np.expm1(coarse - log_val)),
              12 * (edges.size - 1) * np.finfo(float).eps)
    return LogQuad(log_value=log_val, abs_error_log=float(log_val + np.log(rel)))


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
        return AsymptoticValue(log_lambda=float(log_lam))

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
        return AsymptoticValue(log_lambda=float(log_lam))

    if kind == "quartic":
        l = float(params["l"])
        if l <= np.sqrt(2.0):
            raise CatalogError(f"quartic form needs l > sqrt(2), got {l}")
        a_l = l**3 - l
        b_l = 0.25 * (l**2 - 1.0) ** 2
        log_lam = np.log(a_l / np.sqrt(np.pi)) + 1.5 * np.log(p) - b_l * p
        return AsymptoticValue(log_lambda=float(log_lam))

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


def separable_product_caveat(pots: list[Potential1D], p: float) -> SeparableComparison:
    """On a product domain with separable drift the eigenvalue is the SUM of
    the per-axis eigenvalues; the full-domain product formula instead gives
    4^-n times their product, which is exponentially smaller.  Both are
    returned to make the failure mode concrete."""
    logs = np.array([product_formula(pot, p).log_lambda for pot in pots])
    n = len(pots)
    return SeparableComparison(
        log_sum=_logsumexp(logs),
        log_naive_product=float(np.sum(logs) - n * np.log(4.0)),
    )
