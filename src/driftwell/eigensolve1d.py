"""Weighted-pencil eigensolver for -u'' + p a u' = lambda u on (-l, l).

With a = b' the operator is self-adjoint in the exp(-p b)-weighted inner
product, and the discretization below keeps that structure: with nodal
weights w_i = exp(-p(b_i - min b)) and midpoint weights w_{i+1/2}, both the
exp of potential.weighted_graph, the single source of the weights,

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

The zero-shift pivots are resistances in series: one cumulative sum of
positive terms, within (i+3) 2^-53 relative of exact at pivot i however
graded the weights.  The shifted pivots run the edge recursion on Python
floats, bit for bit an elementwise loop (kept as a test oracle), and LAPACK
dpttrs solves with that loop's operations in its order.  With positive
pivots and lo < 0, a solve on positive data adds only nonnegative terms.

The first m eigenvalues come from the same factor at zero shift:
A = L D L^T gives the bidiagonal K = M^{-1/2} L D^{1/2} with K K^T similar
to M^{-1} A, and LAPACK bisection on K's zero-diagonal Golub-Kahan matrix
finds its singular values sqrt(lambda_k) to high relative accuracy
(Demmel & Kahan 1990).  principal_eig returns the first of these pairs
whenever it cannot certify its own inverse-iteration pair.  Both solvers
enter through one front door, _positive_factor: the rtol and n >= 2 checks,
then that zero-shift factor, refused unless every pivot is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .potential import Potential1D, _adjoint_density, weighted_graph

# spread p*(max b - min b) past which assembly refuses and the derived
# pipelines switch to asymptotics: a documented switch point, not a
# failure of the solvers.  On pencils built past it from weighted_graph,
# principal_eig and eigs_bisection agree in log lambda to ~1e-13 up to
# spread 600 on the power, wide-sine and quartic potentials (and match the
# product formula on the sine); at 700 the quartic's two part by 1e-2.
RELIABLE_SPREAD = 300.0


class OverflowGuardError(ValueError):
    """Raised when p*(max b - min b) exceeds RELIABLE_SPREAD."""


class ConvergenceError(RuntimeError):
    """Shifted inverse iteration found no eigenvector for a bisected value."""


@dataclass(frozen=True)
class TridiagPencil:
    """Symmetric tridiagonal stiffness A and diagonal mass M, A u = lam M u.

    A is stored only through its n+1 midpoint weights edge_w (including both
    boundary edges): the pivots and the positive-sum Rayleigh quotient read
    them directly, and diag_A / off_A are formed from them on demand.
    """

    diag_M: np.ndarray
    edge_w: np.ndarray
    h: float
    scale_log: float

    @property
    def n(self) -> int:
        return self.diag_M.size

    @property
    def diag_A(self) -> np.ndarray:
        return (self.edge_w[:-1] + self.edge_w[1:]) / self.h**2

    @property
    def off_A(self) -> np.ndarray:
        return -self.edge_w[1:-1] / self.h**2


@dataclass(frozen=True)
class EigenPair:
    value: float
    u: np.ndarray
    residual: float
    index: int


def assemble_pencil(pot: Potential1D, p: float) -> TridiagPencil:
    """Assemble the weighted pencil for drift strength p >= 0: the exp of
    weighted_graph, the single source of the weights (edges at the analytic
    midpoint b when the potential carries it, else at the mean of the end
    values).  Refuses with OverflowGuardError past the window
    p*(max b - min b) > RELIABLE_SPREAD.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    log_mass, (log_edge,), scale_log = weighted_graph(pot, p)
    spread = -float(log_mass.min())
    if spread > RELIABLE_SPREAD:
        raise OverflowGuardError(
            f"p*(max b - min b) = {spread:.3g} exceeds {RELIABLE_SPREAD:.0f}, "
            "past which the eigenvalue loses its relative accuracy; use the "
            "asymptotics module (CLI subcommand 'asym') in this regime")
    return TridiagPencil(diag_M=np.exp(log_mass[1:-1]),
                         edge_w=np.exp(log_edge), h=pot.grid.h,
                         scale_log=scale_log)


# --------------------------------------------------------------------------
# tridiagonal LDL^T kernels (shared by the solves and the Golub-Kahan factor)
# --------------------------------------------------------------------------

def _edge_ldlt(pencil: TridiagPencil, sigma: float):
    """LDL^T pivots of A - sigma M through the edge variables.

    With gamma_j = w_j/h^2 the pivot recursion telescopes to

        e_0 = gamma_0 - sigma m_0,
        e_i = -sigma m_i + gamma_i e_{i-1} / (gamma_i + e_{i-1}),
        d_i = gamma_{i+1} + e_i.

    At sigma = 0 this is resistances in series, 1/e_i = sum_{j<=i} 1/gamma_j:
    one cumulative sum of positive terms, with no subtraction and no product
    that can go subnormal, so A factors with positive pivots of relative
    error at most (i+3) 2^-53 even when the weights span hundreds of orders
    of magnitude.  The naive d-recursion loses the sign of the pivots in
    exactly that regime.  A zero or subnormal gamma gives an infinite
    resistance and e = 0 from there on.

    At sigma != 0 the recursion needs its subtraction and runs on Python
    floats, which round like float64 scalars (`x - s` is IEEE `x + (-s)`),
    so d and lo match the elementwise numpy loop bit for bit.  Only a zero
    divisor raises (the guard prevents it); float(sigma) keeps slow numpy
    scalars out.
    """
    gamma = pencil.edge_w / pencil.h**2
    if sigma == 0:
        with np.errstate(divide="ignore", over="ignore"):
            d = gamma[1:] + 1.0 / np.cumsum(1.0 / gamma[:-1])
    else:
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


def _positive_factor(pencil: TridiagPencil, rtol: float):
    """Front door of principal_eig and eigs_bisection: the rtol and n >= 2
    checks, then the zero-shift factor (d, lo), refused unless d > 0."""
    if not 0.0 < rtol < np.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    if pencil.n < 2:
        raise ValueError(f"the float solvers need at least 2 nodes, got n={pencil.n}")
    d, lo = _edge_ldlt(pencil, 0.0)
    if np.any(d <= 0):
        raise ValueError("pencil stiffness is not positive definite")
    return d, lo


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
                  max_iter: int = 64) -> EigenPair:
    """Inverse power iteration on (A, M) from the all-ones vector.

    A is factored once, by the shared front door _positive_factor (LDL^T
    through the edge variables, so the pivots are positive and the solve is
    subtraction-free), after the max_iter check; every iterate stays
    strictly positive because A is an irreducible M-matrix.  The loop's pair
    (u positive, max 1) is returned when successive Rayleigh quotients agree
    to rtol (relative) within max_iter steps and the Collatz-Wielandt bound
    min u/(A^-1 M u) lies within min(1/2, max(1e-8, 100 rtol)) of the value;
    otherwise the pair is eigs_bisection's, and its ConvergenceError
    propagates.  The default cap of 64 steps is far above the few steps a
    well-separated lambda_1 takes; a loop that needs more has lambda_2 /
    lambda_1 near 1 and crawls, and one bisection costs less than hundreds
    of steps.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    d, lo = _positive_factor(pencil, rtol)
    u, lam, delta = _iterate(pencil, d, lo, np.ones(pencil.n), [], rtol, max_iter)
    # min u/y bounds lambda_1 from below; the margin covers a loose rtol, and
    # a stall on a higher eigenvalue sits a factor of tens above lambda_1
    y, _ = lapack.dpttrs(d, lo, pencil.diag_M * u)
    margin = min(0.5, max(1e-8, 100.0 * rtol))
    with np.errstate(divide="ignore", invalid="ignore"):
        if delta <= rtol * lam and np.min(u / y) >= lam * (1.0 - margin):
            return EigenPair(value=lam, u=u,
                             residual=_residual(pencil, lam, u), index=1)
    return eigs_bisection(pencil, 1, rtol)[0]


def eigs_bisection(pencil: TridiagPencil, m: int, rtol: float = 1e-10) -> list[EigenPair]:
    """First m generalized eigenvalues by LAPACK bisection on the
    Golub-Kahan form of the subtraction-free factor, eigenvectors by shifted
    inverse iteration with M-orthogonalization.

    A = L D L^T from the zero-shift pivots in resistance form (positive, no
    cancellation, no product that can go subnormal), formed after the m
    check by _positive_factor, the front door shared with principal_eig.
    So lambda_k = s_k^2 for the singular values s_k of the lower bidiagonal
    K = M^{-1/2} L D^{1/2}: diagonal sqrt(d_i)/sqrt(m_i),
    subdiagonal gamma_{i+1}/(sqrt(d_i) sqrt(m_{i+1})), the roots taken apart
    so that no product underflows.  Bisection on the zero-diagonal
    Golub-Kahan matrix of a bidiagonal finds its singular values to high
    relative accuracy (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990),
    however far the principal one sits below the largest.  dstebz stops when
    a bracket is narrower than max(tol, pivmin, 2 ulp |s|); tol = 2 tiny and
    a power-of-two scale of the matrix leave the relative term, so rtol sets
    no bracket width, only the eigenvector stage; no Sturm count runs.  A
    zero edge weight splits the matrix, and each piece keeps its own
    eigenvalues.  Degenerate eigenvalues come back as a cluster, with
    M-orthogonalized eigenvectors in no canonical order within the cluster.
    """
    if not 1 <= m <= pencil.n:
        raise ValueError(f"asked for {m} eigenvalues of an n={pencil.n} pencil")
    d, _ = _positive_factor(pencil, rtol)
    n = pencil.n
    root_d, root_m = np.sqrt(d), np.sqrt(pencil.diag_M)
    gk = np.empty(2 * n - 1)
    gk[0::2] = root_d / root_m
    gk[1::2] = pencil.edge_w[1:-1] / pencil.h**2 / root_d[:-1] / root_m[1:]
    # dstebz splits at entries below 2^-511 and floors pivots and brackets at
    # 2^-1022 max(1, max gk^2); an exact power-of-two scale that puts max gk
    # near 2^255 balances the two, keeping s accurate while max gk/s < 2^714
    k = 255 - np.frexp(gk.max())[1]
    s = eigh_tridiagonal(np.zeros(2 * n), np.ldexp(gk, k), eigvals_only=True,
                         select="i", select_range=(n, n + m - 1),
                         lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny)
    values = (np.ldexp(s, -k) ** 2).tolist()

    pairs = []
    vectors = []
    for k, lam in enumerate(values, start=1):
        u = _inverse_iterate(pencil, lam, vectors, rtol)
        lam_rq = rayleigh_quotient(pencil, u)
        # the quotient of the converged vector is more accurate than the
        # bisected value; keep it when it lies within 4 rtol of that value
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
    return _adjoint_density(pair.u, pot.b, p)
