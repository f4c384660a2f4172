"""Characteristic-curve (semi-Lagrangian) integration of
u_t - lap u + p a . grad u = 0 on a rectangle with Dirichlet walls.

Each step evaluates the previous solution at the upstream departure points
x - p a(x) tau by bilinear interpolation (value 0 outside the domain), then
solves the implicit diffusion system (I + tau * L_h) u = u_tilde with the
5-point Laplacian exactly: the type-I discrete sine transform diagonalizes
L_h under Dirichlet walls, so the solve is a DST-I, a division by the symbol
1 + tau (lx_i + ly_j), lx_i = (2 - 2 cos(i pi/(nx+1)))/hx^2, and an inverse
DST-I (the fast Poisson solver of Buzbee, Golub & Nielson, 1970).  For a
steady field and fixed tau the gather and the symbol never change, so
`evolve`, the one stepper, builds them once per run.

At zero transport (every departure point is its own node bit for bit, as
when p = 0 or a = 0 on the interior) the gather is the identity, and each
step's forward DST-I would undo the inverse DST-I of the step before.  There
`_operator` returns no gather matrix and `evolve` keeps the state in sine
space: a step divides the coefficients by the symbol, and one inverse DST-I
gives the nodal values for the norms and snapshots.  Every transform runs
on one worker: a second thread measured slower on the 99² transport step,
and no faster on the 199² zero-transport state once the cut below keeps
its coefficients normal.
On a drifting field a node whose departure point is the node bit for bit
gets the exact identity row, one entry 1.0.

In sine space a high mode shrinks by up to the largest symbol per step (41
at 199², tau = 5e-4), so by step ~200 thousands of coefficients are
subnormal, and pocketfft works on a subnormal number ~100 times slower.
One inverse DST-I of the 199² state on one worker takes ~0.45 ms; uncut it
took 1.2-1.5 ms at step 200 (4702 subnormal coefficients), 3.5-4.1 ms at
250 and 1.3-1.6 ms at 400 (two timeit series, one shared 2-core host).  So
after each division `evolve` sets to zero every coefficient below
_CUT = 2^-200 times the current coefficient of the slowest live mode (the
nonzero, finite coefficient of least symbol).  Every other coefficient
shrinks at least as fast as that one, so one below the cut stays below for
good, and the cut never exceeds 2^-200 of the largest coefficient.  The
outputs are bit-identical to the uncut per-step loop in every case checked
(the tests and the benchmark jobs), and no subnormal reaches the
transform.  The cut follows the state: a fixed one such as finfo.tiny
would zero a whole state of 1e-300, which renormalizes and runs.

The gather is stored as one sparse (nx*ny, nx*ny) CSR matrix G acting on
the raveled interior state, so a step pads nothing and forms no (4, nx*ny)
temporary; extract_profile samples its sections with the same matrix
built at the section points.  A row holds the bilinear corners of its departure point in
gather order, (i0, j0), (i0+1, j0), (i0, j0+1), (i0+1, j0+1), without the
corners on the wall (their value is 0) or of weight exactly 0; the columns
are not sorted.  scipy's CSR product then forms 0 + w0 u0 + w1 u1 + ...,
the chain of additions of the 4-corner sum (numpy adds the corners in
order) with each dropped term, a signed zero for a finite state, left out.
So the step gives the same bits as the dense gather; only the sign of an
exact zero could differ.  Sorting the columns would reorder the additions
and change the last bits.

The scheme is first order in time, unconditionally stable, and monotone:
with data in [0, 1] every later state stays in [0, 1] (interpolation is
convex and I + tau L_h is an M-matrix), to rounding (~1e-15) since the
transform solve is exact only to rounding.

Decay-rate estimation tracks log-norms with per-step renormalization so that
amplitudes far below the double-precision underflow threshold remain
measurable; the fitted log-slope over a trailing window estimates the
principal eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn
from scipy.sparse import csr_array

from .potential import Field2D, _adjoint_density


class SolverError(RuntimeError):
    """The run cannot produce a decay rate (the state hit exact zero)."""


@dataclass(frozen=True)
class State2D:
    """Interior nodal values at time t; the boundary is implicitly zero."""

    grid: object
    u: np.ndarray
    t: float

    def __post_init__(self):
        if self.u.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("u must hold interior nodes only")


@dataclass(frozen=True)
class DecayFit:
    """The decay rates fitted to the log-norms.  plateau_flag is set when
    the slopes over the two halves of the window agree to 5% of the rate."""

    rate_l2: float
    rate_max: float
    plateau_flag: bool


def _gather(grid, xq: np.ndarray, yq: np.ndarray,
            at_node: np.ndarray | None = None) -> csr_array:
    """Bilinear interpolation at the query points as a CSR matrix of shape
    (xq.size, nx*ny) on the raveled interior state, with the boundary
    taken as zero and every point outside the closed rectangle giving an
    exact zero.  A row holds the corners of its point in gather order
    without the corners on the wall or of weight exactly 0, columns
    unsorted (see the module docstring).  Points flagged in at_node are
    interior nodes bit for bit: they take their exact lattice coordinates,
    which (node + l)/h only approximates, so their row is one entry 1.0."""
    nx, ny = grid.nx, grid.ny
    gx = (xq + grid.lx) / grid.hx
    gy = (yq + grid.ly) / grid.hy
    if at_node is not None:
        gx = np.where(at_node, np.rint(gx), gx)
        gy = np.where(at_node, np.rint(gy), gy)
    inside = ((xq >= -grid.lx) & (xq <= grid.lx)
              & (yq >= -grid.ly) & (yq <= grid.ly))
    # a point outside gets weight 0, so the clip changes no row; it keeps
    # the int cast of a far point (huge p tau) defined
    gx = np.clip(gx, -1.0, nx + 1.0)
    gy = np.clip(gy, -1.0, ny + 1.0)
    i0 = np.clip(np.floor(gx).astype(np.int64), 0, nx)
    j0 = np.clip(np.floor(gy).astype(np.int64), 0, ny)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    # corner axis last; lattice index k is interior index k - 1
    i = np.stack([i0 - 1, i0, i0 - 1, i0], axis=-1)
    j = np.stack([j0 - 1, j0 - 1, j0, j0], axis=-1)
    w = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy),
                  (1 - fx) * fy, fx * fy], axis=-1) * inside[..., None]
    keep = (w != 0) & (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
    counts = keep.reshape(-1, 4).sum(axis=1)
    return csr_array((w[keep], (i * ny + j)[keep],
                      np.concatenate(([0], np.cumsum(counts)))),
                     shape=(counts.size, nx * ny))


def _dirichlet_eigs(n: int, h: float) -> np.ndarray:
    """(2 - 2 cos(i pi/(n+1)))/h^2 for i = 1..n, as 4 sin^2(i pi/(2n+2))/h^2
    (no cancellation at small i)."""
    return (2.0 * np.sin(np.pi * np.arange(1, n + 1) / (2 * n + 2)) / h) ** 2


def _operator(field: Field2D, p: float, tau: float):
    """(G, sym) of one step of length tau: the _gather matrix at the
    departure points, with the identity row at each node that is its own
    departure point bit for bit, or None when every node is (zero
    transport: the gather is the identity), and the DST-I symbol of
    I + tau L_h."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    grid = field.grid
    a_int = field.a[1:-1, 1:-1, :]
    x, y = grid.nodes_x()[:, None], grid.nodes_y()[None, :]
    xd = x - p * a_int[:, :, 0] * tau
    yd = y - p * a_int[:, :, 1] * tau
    sym = 1.0 + tau * (_dirichlet_eigs(grid.nx, grid.hx)[:, None]
                       + _dirichlet_eigs(grid.ny, grid.hy))
    still = (xd == x) & (yd == y)
    if np.all(still):
        return None, sym
    return _gather(grid, xd, yd, at_node=still), sym


# the amplitude below which evolve renormalizes the state
_RENORM_FLOOR = 1e-60
# a zero-transport coefficient below this times the slowest live mode's is
# set to zero (see the module docstring)
_CUT = 2.0 ** -200
_TINY = np.finfo(float).tiny
# points of extract_profile's section along a given segment
_LINE_POINTS = 401


def _log_l2(u: np.ndarray, umax: float, cell: float) -> float:
    """log sqrt(sum(u^2) cell), finite at any scale of u: the direct sum
    where it is a positive, finite, normal number, else the sum of
    (u/umax)^2 with log umax taken out."""
    with np.errstate(over="ignore"):
        sq = float(np.sum(u**2) * cell)
    if _TINY <= sq < np.inf:
        return float(np.log(np.sqrt(sq)))
    return float(np.log(umax) + 0.5 * np.log(np.sum((u / umax)**2) * cell))


def _apply(op, u: np.ndarray) -> np.ndarray:
    """One transport step: gather at the departure points, then the exact
    diffusion solve.  u is left unchanged."""
    G, sym = op
    c = dstn((G @ u.ravel()).reshape(u.shape), type=1, overwrite_x=True)
    c /= sym
    return idstn(c, type=1, overwrite_x=True)


def evolve(field: Field2D, p: float, u0, t_end: float, tau: float,
           snapshot_every: float | None = None):
    """Run the scheme to t_end recording per-step norms.

    Returns (final state, samples, final log-scale, snapshots); snapshots
    holds (t, log amplitude, max-normalized field copy) every
    snapshot_every time units (empty when snapshot_every is None or 0).  The
    state is kept renormalized (max near 1) whenever the amplitude falls
    below _RENORM_FLOOR; the removed factor accumulates in the log-scale so
    the reconstructed log-norms never underflow, and the log L2 norm is
    finite at any scale of u0 (_log_l2).  The step operator is built once
    for the run.  At zero transport the state is carried as its DST-I
    coefficients c, and a step is c / sym with the coefficients below the
    cut set to zero, then one inverse DST-I (see the module docstring); a
    renormalization divides c by the max with u.  u0 holds the interior
    values (None: ones).
    """
    if snapshot_every is not None and snapshot_every < 0:
        raise ValueError("snapshot_every must be nonnegative")
    op = G, sym = _operator(field, p, tau)
    times = sample_times(t_end, tau)
    samples = np.empty((len(times), 3))
    grid = field.grid
    u = np.ones((grid.nx, grid.ny)) if u0 is None else np.array(u0, dtype=float)
    State2D(grid=grid, u=u, t=0.0)                   # validates the shape
    if G is None:
        c = dstn(u, type=1)
        # the slowest mode among the live (nonzero, finite) coefficients: no
        # other shrinks slower, so one cut below _CUT times it stays below
        slow = np.unravel_index(np.argmin(np.where(
            (c != 0) & np.isfinite(c), sym, np.inf)), u.shape)
    t = 0.0
    log_scale = 0.0
    cell = grid.hx * grid.hy
    snapshots = []
    next_snap = snapshot_every if snapshot_every else np.inf
    for k, t in enumerate(times.tolist()):
        if G is None:
            c /= sym
            c[np.abs(c) < _CUT * abs(c[slow])] = 0.0
            u = idstn(c, type=1)
        else:
            u = _apply(op, u)
        umax = float(np.max(np.abs(u)))
        if umax == 0.0:
            raise SolverError("solution hit exact zero; decay rate undefined")
        samples[k] = (t, _log_l2(u, umax, cell) + log_scale,
                      np.log(umax) + log_scale)
        if t >= next_snap - 0.5 * tau:
            snapshots.append((t, np.log(umax) + log_scale, u / umax))
            next_snap += snapshot_every
        if umax < _RENORM_FLOOR:
            u /= umax
            if G is None:
                c /= umax
            log_scale += np.log(umax)
    return State2D(grid=grid, u=u, t=t), samples, log_scale, snapshots


def sample_times(t_end: float, tau: float) -> np.ndarray:
    """The times evolve steps to and records in samples[:, 0]: t advanced by
    tau once per step from 0, round(t_end / tau) steps, summed in sequence
    (cumsum).  Raises ValueError when that many cannot be held."""
    try:
        t = np.full(int(round(t_end / tau)), tau, dtype=float)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ValueError(f"cannot record t_end / tau = {t_end / tau:.3g} steps") from exc
    return np.cumsum(t, out=t)


def select_window(t: np.ndarray, window: tuple) -> np.ndarray:
    """The mask of the sample times fit_decay fits: those within 1e-12 of
    the closed window.  Raises ValueError when fewer than 10 are."""
    sel = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
    if np.count_nonzero(sel) < 10:
        raise ValueError(f"window {window} holds fewer than 10 samples")
    return sel


def _fit_slope(t: np.ndarray, y: np.ndarray) -> float:
    tm = t - t.mean()
    with np.errstate(divide="ignore", invalid="ignore"):   # checked by caller
        return float(np.sum(tm * (y - y.mean())) / np.sum(tm * tm))


def fit_decay(samples: np.ndarray, window: tuple) -> DecayFit:
    """Least-squares slope of the recorded log-norms over the window.
    samples columns: t, log L2 norm, log max norm, as evolve records them.
    Raises ValueError when the window holds fewer than 10 samples
    (select_window) or a fitted rate is not finite (sample times too close
    to resolve)."""
    t = samples[:, 0]
    sel = select_window(t, window)
    tw = t[sel]
    rate_l2 = -_fit_slope(tw, samples[sel, 1])
    rate_max = -_fit_slope(tw, samples[sel, 2])
    if not (np.isfinite(rate_l2) and np.isfinite(rate_max)):
        raise ValueError(f"fitted decay rates ({rate_l2!r}, {rate_max!r}) over "
                         f"window {window} are not finite")
    half = len(tw) // 2
    s1 = -_fit_slope(tw[:half], samples[sel, 1][:half])
    s2 = -_fit_slope(tw[half:], samples[sel, 1][half:])
    scale = max(abs(rate_l2), 1e-3)
    plateau = abs(s1 - s2) <= 0.05 * scale
    return DecayFit(rate_l2=rate_l2, rate_max=rate_max,
                    plateau_flag=bool(plateau))


# the fit window when none is given, in fractions of t_end: the last 40%
DEFAULT_WINDOW = (0.6, 1.0)


def estimate_decay(field: Field2D, p: float, u0=None, t_end: float = 1.0,
                   tau: float = 5e-4, window: tuple | None = None):
    """Estimate the principal eigenvalue as minus the fitted slope of the
    log-norms over a trailing window (default: DEFAULT_WINDOW).

    Returns (DecayFit, final State2D)."""
    if window is None:
        window = tuple(f * t_end for f in DEFAULT_WINDOW)
    state, samples, _, _ = evolve(field, p, u0, t_end, tau)
    return fit_decay(samples, window), state


@dataclass(frozen=True)
class ProfileSections:
    """Max-normalized nodal profile plus line sections (s, values)."""

    profile: np.ndarray
    section_y0: tuple
    section_line: tuple | None


def extract_profile(state: State2D, line: tuple | None = None) -> ProfileSections:
    """Normalize the state to max = 1 and sample sections: along the x-axis
    (y = 0), and optionally along the segment between two given points."""
    umax = float(np.max(state.u))
    if umax <= 0:
        raise ValueError("cannot normalize a nonpositive state")
    prof = state.u / umax
    grid = state.grid
    xs = grid.nodes_x()
    section_y0 = (xs, _gather(grid, xs, np.zeros_like(xs)) @ prof.ravel())
    section_line = None
    if line is not None:
        (x0, y0), (x1, y1) = line
        ts = np.linspace(0.0, 1.0, _LINE_POINTS)
        xq = x0 + ts * (x1 - x0)
        yq = y0 + ts * (y1 - y0)
        s = ts * np.hypot(x1 - x0, y1 - y0)
        section_line = (s, _gather(grid, xq, yq) @ prof.ravel())
    return ProfileSections(profile=prof, section_y0=section_y0,
                           section_line=section_line)


def adjoint_profile(state: State2D, field: Field2D, p: float) -> np.ndarray:
    """Divergence-form (colony density) profile exp(-p b) u, renormalized to
    max = 1.  Computed in logs so any p is safe."""
    return _adjoint_density(state.u, field.b, p)
