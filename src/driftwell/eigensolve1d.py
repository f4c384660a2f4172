"""Weighted-pencil eigensolver for -u'' + p a u' = lambda u on (-l, l).

With a = b' the operator is self-adjoint in the exp(-p b)-weighted inner
product, and the discretization below keeps that structure: with nodal
weights w_i = exp(-p(b_i - min b)) and midpoint weights w_{i+1/2},

    A_ii = (w_{i-1/2} + w_{i+1/2}) / h^2,   A_{i,i+1} = -w_{i+1/2} / h^2,
    M_ii = w_i,

so A is a weighted-graph Laplacian plus Dirichlet closure (positive
definite) and the Rayleigh quotient is a ratio of two all-nonnegative sums

    sum_e w_e (u_{i+1} - u_i)^2 / h   over   sum_i w_i u_i^2 h.

That positive-sum structure is the whole point: the quotient retains full
RELATIVE accuracy even when the principal eigenvalue is exponentially small
(values far below machine epsilon times the matrix norm).  The common factor
exp(-p min b) removed from both sides is logged in scale_log; generalized
eigenvalues do not feel it.

The LDL^T kernels are bit-identical to plain elementwise loops (kept as test
oracles): the pivots run the edge recursion on Python floats, and LAPACK
dpttrs solves with the same operations in the same order.  With positive
pivots and lo < 0, a solve on positive data adds only nonnegative terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .potential import Potential1D, liouville_q

OVERFLOW_GUARD = 600.0

# spread p*(max b - min b) up to which the computed eigenvalue keeps full
# relative accuracy: beyond ~350-400 the interior variation of the
# eigenfunction falls below one ulp per cell and the quotient saturates at a
# grid-dependent floor (measured: exact agreement with the asymptotic product
# at 300, order-of-magnitude garbage at 400+).  Assembly still works up to
# OVERFLOW_GUARD; derived pipelines should switch to asymptotics here.
RELIABLE_SPREAD = 300.0


class OverflowGuardError(ValueError):
    """Raised when p*(max b - min b) would underflow the weights."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, last_value=None, last_delta=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_delta = last_delta


@dataclass(frozen=True)
class TridiagPencil:
    """Symmetric tridiagonal stiffness A and diagonal mass M, A u = lam M u.

    A is stored only through its n+1 midpoint weights edge_w (including both
    boundary edges): the pivots and the positive-sum Rayleigh quotient read
    them directly, and diag_A / off_A are formed from them on demand.
    """

    n: int
    diag_M: np.ndarray
    edge_w: np.ndarray
    h: float
    scale_log: float

    @property
    def diag_A(self) -> np.ndarray:
        return (self.edge_w[:-1] + self.edge_w[1:]) / self.h**2

    @property
    def off_A(self) -> np.ndarray:
        return -self.edge_w[1:-1] / self.h**2

    def scaled(self, factor: float) -> "TridiagPencil":
        """Multiply both A and M by a positive factor (adjusting scale_log);
        generalized eigenvalues are unchanged."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, diag_M=self.diag_M * factor,
                       edge_w=self.edge_w * factor,
                       scale_log=self.scale_log - np.log(factor))


@dataclass(frozen=True)
class EigenPair:
    value: float
    u: np.ndarray
    residual: float
    index: int


def assemble_pencil(pot: Potential1D, p: float) -> TridiagPencil:
    """Assemble the weighted pencil for drift strength p >= 0.

    Midpoint weights use analytic b at midpoints when the potential carries
    that channel, else the geometric mean of the nodal weights (which
    preserves positivity and second order).
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    b = pot.b
    bmin = float(b.min())
    spread = p * (float(b.max()) - bmin)
    if spread > OVERFLOW_GUARD:
        raise OverflowGuardError(
            f"p*(max b - min b) = {spread:.3g} exceeds {OVERFLOW_GUARD:.0f}: "
            "double-precision weights would underflow to a singular pencil; "
            "use the asymptotics module (CLI subcommand 'asym') in this regime")
    w_node = np.exp(-p * (b - bmin))
    if pot.b_mid is not None:
        w_mid = np.exp(-p * (pot.b_mid - bmin))
    else:
        w_mid = np.sqrt(w_node[:-1] * w_node[1:])
    return TridiagPencil(n=pot.grid.n, diag_M=w_node[1:-1].copy(), edge_w=w_mid,
                         h=pot.grid.h, scale_log=-p * bmin)


# --------------------------------------------------------------------------
# tridiagonal LDL^T kernels (shared by solves and Sturm counts)
# --------------------------------------------------------------------------

def _edge_ldlt(pencil: TridiagPencil, sigma: float):
    """LDL^T pivots of A - sigma M through the edge variables.

    With gamma_j = w_j/h^2 the pivot recursion telescopes to

        e_0 = gamma_0 - sigma m_0,
        e_i = -sigma m_i + gamma_i e_{i-1} / (gamma_i + e_{i-1}),
        d_i = gamma_{i+1} + e_i,

    which is cancellation-free at sigma = 0 (every operation keeps e >= 0),
    so A factors with certified positive pivots even when the weights span
    hundreds of orders of magnitude.  The naive d-recursion loses the sign
    of the pivots in exactly that regime.

    Python floats round like float64 scalars and `x - s` is IEEE `x + (-s)`,
    so d and lo match the numpy recursion bit for bit.  Only a zero divisor
    raises (the guard prevents it); float(sigma) keeps slow numpy scalars out.
    """
    gamma = pencil.edge_w / pencil.h**2
    g = gamma.tolist()
    sm = (float(sigma) * pencil.diag_M).tolist()
    e = g[0] - sm[0]
    d = [g[1] + e]
    for g_i, sm_i, g_next in zip(g[1:-1], sm[1:], g[2:]):
        denom = g_i + e
        if denom == 0.0:
            denom = 1e-300
        e = g_i * e / denom - sm_i
        d.append(g_next + e)
    d = np.array(d)
    lo = -gamma[1:-1] / d[:-1]
    return d, lo


def count_below(pencil: TridiagPencil, sigma: float) -> int:
    """Number of generalized eigenvalues of (A, M) strictly below sigma
    (inertia of A - sigma M via the Sturm pivot recursion)."""
    d, _ = _edge_ldlt(pencil, sigma)
    return int(np.count_nonzero(d < 0))


def rayleigh_quotient(pencil: TridiagPencil, u: np.ndarray) -> float:
    """Positive-sum quotient sum_e w_e (du)^2/h / sum_i w_i u_i^2 h."""
    du = np.diff(u, prepend=0.0, append=0.0)
    num = float(np.sum(pencil.edge_w * du * du)) / pencil.h
    den = float(np.sum(pencil.diag_M * u * u)) * pencil.h
    return num / den


def _residual(pencil, lam, u):
    diag_A, off_A = pencil.diag_A, pencil.off_A
    Au = diag_A * u
    Au[:-1] += off_A * u[1:]
    Au[1:] += off_A * u[:-1]
    r = Au - lam * pencil.diag_M * u
    anorm = float(np.max(np.abs(diag_A))
                  + 2.0 * (np.max(np.abs(off_A)) if off_A.size else 0.0))
    return float(np.max(np.abs(r))) / (anorm * float(np.max(np.abs(u))))


def _iterate(pencil, d, lo, u, prior, rtol, max_iter):
    """Inverse iteration on the factored shift (d, lo) from u, M-orthogonal
    to prior: solve, project, scale to max |y| = 1, take the quotient; stop
    when successive quotients agree to rtol or an iterate is zero or not
    finite.  Returns the last iterate, its quotient and the last change of
    the quotient (inf after one step, nan after none)."""
    lam, delta = np.inf, np.nan
    for _ in range(max_iter):
        y, info = lapack.dpttrs(d, lo, pencil.diag_M * u)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrs: bad argument {-info}")
        y = _m_orthogonalize(pencil, y, prior)
        norm = np.max(np.abs(y))
        if not np.isfinite(norm) or norm == 0.0:
            break
        y /= norm
        lam_it = rayleigh_quotient(pencil, y)
        delta, lam, u = abs(lam_it - lam), lam_it, y
        if delta <= rtol * abs(lam):
            break
    return u, lam, delta


def principal_eig(pencil: TridiagPencil, rtol: float = 1e-10,
                  max_iter: int = 10000) -> EigenPair:
    """Inverse power iteration on (A, M) from the all-ones vector.

    A is factored once (LDL^T through the edge variables, so the pivots are
    positive and the solve is subtraction-free); every iterate stays
    strictly positive because A is an irreducible M-matrix, and the returned
    eigenfunction is positive with max = 1.  Iteration stops when successive
    Rayleigh quotients agree to rtol (relative).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 < rtol < np.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    d, lo = _edge_ldlt(pencil, 0.0)
    if np.any(d <= 0):
        raise ValueError("pencil stiffness is not positive definite")
    u, lam, delta = _iterate(pencil, d, lo, np.ones(pencil.n), [], rtol, max_iter)
    if not delta <= rtol * lam:
        raise ConvergenceError(
            f"inverse iteration did not converge in {max_iter} iterations",
            last_value=lam, last_delta=delta)
    return EigenPair(value=lam, u=u, residual=_residual(pencil, lam, u), index=1)


def _gershgorin_upper(pencil: TridiagPencil) -> float:
    m, off_A = pencil.diag_M, pencil.off_A
    center = pencil.diag_A / m
    rad = np.zeros_like(center)
    if off_A.size:
        t = np.abs(off_A) / np.sqrt(m[:-1] * m[1:])
        rad[:-1] += t
        rad[1:] += t
    return float(np.max(center + rad))


def _positive_floor(pencil: TridiagPencil) -> float:
    """Rigorous positive lower bound on lambda_1: the quotient is bounded
    below by (min edge weight / max mass) times the plain Dirichlet FD
    eigenvalue."""
    n, h = pencil.n, pencil.h
    lam_fd = (4.0 / h**2) * np.sin(np.pi / (2.0 * (n + 1))) ** 2
    return 0.5 * float(np.min(pencil.edge_w) / np.max(pencil.diag_M)) * lam_fd


def eigs_bisection(pencil: TridiagPencil, m: int, rtol: float = 1e-10) -> list[EigenPair]:
    """First m generalized eigenvalues by Sturm-count bisection, eigenvectors
    by shifted inverse iteration with M-orthogonalization.

    The bisection runs in log(sigma): every eigenvalue is positive, and the
    principal one can sit hundreds of orders of magnitude below the
    Gershgorin radius, so linear bisection would stall.  Brackets are
    refined to relative width rtol.  Degenerate eigenvalues come back as a
    cluster at the common bisected value, with M-orthogonalized eigenvectors
    in no canonical order within the cluster.
    """
    if m > pencil.n:
        raise ValueError(f"asked for {m} eigenvalues of an n={pencil.n} pencil")
    if not 0.0 < rtol < np.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    lo0 = np.log(_positive_floor(pencil))
    hi0 = np.log(_gershgorin_upper(pencil) * (1.0 + 1e-12))
    values = []
    for k in range(1, m + 1):
        lo, hi = lo0, hi0
        if values:
            lo = max(lo, np.log(values[-1]) - 40 * rtol - 1e-15)
        while hi - lo > 0.25 * rtol:
            mid = 0.5 * (lo + hi)
            if count_below(pencil, np.exp(mid)) >= k:
                hi = mid
            else:
                lo = mid
        values.append(float(np.exp(0.5 * (lo + hi))))

    pairs = []
    vectors = []
    for k, lam in enumerate(values, start=1):
        u = _inverse_iterate(pencil, lam, vectors, rtol)
        lam_rq = rayleigh_quotient(pencil, u)
        # the quotient of the converged vector is more accurate than the
        # bisection midpoint; keep it when consistent with the bracket
        if abs(lam_rq - lam) <= 4.0 * rtol * lam + 1e-300:
            lam = lam_rq
        pairs.append(EigenPair(value=lam, u=u,
                               residual=_residual(pencil, lam, u), index=k))
        vectors.append(u)
    return pairs


def _m_orthogonalize(pencil, u, vectors):
    for v in vectors:
        coeff = np.sum(pencil.diag_M * u * v) / np.sum(pencil.diag_M * v * v)
        u = u - coeff * v
    return u


def _inverse_iterate(pencil, lam, prior, rtol, max_iter=200, retries=6):
    sigma = lam * (1.0 - 16.0 * rtol)
    rng = np.random.default_rng(12345)
    for attempt in range(retries):
        d, lo = _edge_ldlt(pencil, sigma)
        if not np.all(np.isfinite(d)) or np.any(d == 0.0):
            # shift numerically indistinguishable from an eigenvalue: nudge
            sigma *= 1.0 - (attempt + 1) * 64.0 * np.finfo(float).eps
            continue
        u = np.ones(pencil.n) if not prior else rng.standard_normal(pencil.n)
        u, _, _ = _iterate(pencil, d, lo, _m_orthogonalize(pencil, u, prior),
                           prior, rtol, max_iter)
        i_star = int(np.argmax(np.abs(u)))
        if np.isfinite(u[i_star]) and u[i_star] != 0:
            return u / u[i_star]
    raise ConvergenceError(f"inverse iteration failed near sigma={sigma!r}")


def adjoint_eigenfunction(pair: EigenPair, pot: Potential1D, p: float) -> np.ndarray:
    """Adjoint (divergence-form) principal eigenfunction exp(-p b) u_1,
    renormalized to max = 1.  Positive wherever u_1 is."""
    b_int = pot.b[1:-1]
    with np.errstate(divide="ignore"):
        logv = np.where(pair.u > 0, np.log(np.maximum(pair.u, 1e-300)), -np.inf) - p * b_int
    return np.exp(logv - np.max(logv))


@dataclass(frozen=True)
class SelfadjointCheck:
    """Cross-validation of the weighted pencil against the Schrodinger form
    -w'' + q(x,p) w = lambda w solved by a standard symmetric tridiagonal
    eigensolver.  skipped=True when the absolute rounding floor of the
    Schrodinger route exceeds the requested tolerance; the weighted pencil is
    then the authoritative value."""

    lam_pencil: float
    lam_schrodinger: float | None
    rel_diff: float | None
    floor: float
    rtol: float
    skipped: bool


def selfadjoint_check(pot: Potential1D, p: float, rtol: float = 1e-6) -> SelfadjointCheck:
    pencil = assemble_pencil(pot, p)
    lam_w = principal_eig(pencil, rtol=min(rtol, 1e-10)).value
    q = liouville_q(pot, p)
    h = pot.grid.h
    floor = float(np.max(np.abs(q))) * pot.grid.n * np.finfo(float).eps / lam_w
    if floor > rtol:
        return SelfadjointCheck(lam_pencil=lam_w, lam_schrodinger=None,
                                rel_diff=None, floor=floor, rtol=rtol, skipped=True)
    diag = 2.0 / h**2 + q
    off = np.full(pot.grid.n - 1, -1.0 / h**2)
    lam_q = float(eigh_tridiagonal(diag, off, select="i",
                                   select_range=(0, 0), eigvals_only=True)[0])
    return SelfadjointCheck(lam_pencil=lam_w, lam_schrodinger=lam_q,
                            rel_diff=abs(lam_q - lam_w) / lam_w,
                            floor=floor, rtol=rtol, skipped=False)
