"""Velocity potentials, drift fields, and potential-well detection.

All drift fields handled here are gradients of a scalar potential sampled on
uniform lattices: a = b' in 1D, a = grad b in 2D.  The module provides

* an analytic catalog of 1D potentials (power law |x|^alpha/alpha, -cos x,
  quartic double well, linear) and 2D fields (radial compactly supported
  bumps, constants, separable products of 1D entries),
* the Schrodinger-form potential q(x, p) = -(p/2) div a + (p^2/4)|a|^2
  obtained by symmetrizing the drift operator,
* sublevel-set well detection with depths.  The depth of the deepest well is
  the decay exponent target: lambda_1(p) behaves like exp(-depth * p) for
  large drift strength p.

Wells are found by 0-dimensional sublevel persistence: lattice nodes enter in
order of increasing b, components merge under union-find (2-neighbor
adjacency in 1D, 4-neighbor in 2D), and the domain boundary acts as a
pre-existing component so a well whose barrier is the boundary is still
reported.  A component dies when it merges into a component holding a
strictly lower minimum or into the boundary; components with equal minima
coalesce and keep growing.  Each death records barrier = merge level and
depth = barrier - min.  The union-find visits only the events of the sweep:
numpy first splits the lattice into basins (each node points at its
earliest neighbor, pointer jumping finds the root), and a node that neither
touches an earlier node of another basin nor ties with its basin's minimum
only joins its basin's component, so it starts hanging off the basin root.
A kept well's region is the component of {interior, b < barrier} that holds
its minimum nodes (one ndimage.label per distinct barrier), kept as the
mask inside its bounding box.  Equal minima that coalesce at a lower level
share that component; equal minima that first meet at the level where the
merged component dies lie in different components of it and are reported
as separate wells.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage

from .grids import Grid1D, Grid2D


class CatalogError(ValueError):
    """Unknown catalog entry or parameters outside its validity range."""


# --------------------------------------------------------------------------
# analytic 1D catalog
# --------------------------------------------------------------------------

def _power_funcs(alpha: float = 2.0):
    if not 1.0 <= alpha < np.inf:
        raise CatalogError(f"power-law drift needs 1 <= alpha < inf, got {alpha}")

    def b(x):
        return np.abs(x) ** alpha / alpha

    def a(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x != 0.0, np.abs(x) ** alpha / np.where(x != 0.0, x, 1.0), 0.0)
        return out

    if alpha >= 2.0:
        def bpp(x):
            x = np.asarray(x, dtype=float)
            if alpha == 2.0:
                return np.ones_like(x)
            return (alpha - 1.0) * np.abs(x) ** (alpha - 2.0)
    else:
        bpp = None  # b'' unbounded/undefined at the origin for alpha < 2
    return b, a, bpp


def _sine_funcs():
    return (lambda x: -np.cos(x)), np.sin, np.cos


def _quartic_funcs():
    def b(x):
        return 0.25 * (np.asarray(x, dtype=float) ** 2 - 1.0) ** 2

    def a(x):
        x = np.asarray(x, dtype=float)
        return x ** 3 - x

    def bpp(x):
        return 3.0 * np.asarray(x, dtype=float) ** 2 - 1.0

    return b, a, bpp


def _constant_funcs(c: float = 1.0):
    def b(x):
        return c * np.asarray(x, dtype=float)

    def a(x):
        return np.full_like(np.asarray(x, dtype=float), c)

    def bpp(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return b, a, bpp


# each 1D catalog entry: its factory and the parameters that factory reads
CATALOG_1D = {"power": (_power_funcs, ("alpha",)),
              "sine": (_sine_funcs, ()),
              "quartic": (_quartic_funcs, ()),
              "constant": (_constant_funcs, ("c",))}


def catalog_1d(kind: str, **params):
    """Return (b, a, bpp) callables for a 1D catalog entry.

    bpp is None when the second derivative is not essentially smooth on the
    whole line (power law with alpha < 2).  A parameter the entry does not
    read is refused.
    """
    if kind not in CATALOG_1D:
        raise CatalogError(f"unknown 1D potential kind {kind!r} "
                           f"(known: {', '.join(CATALOG_1D)})")
    factory, keys = CATALOG_1D[kind]
    unread = sorted(set(params) - set(keys))
    if unread:
        raise CatalogError(f"{kind} does not read {', '.join(unread)} "
                           f"(it reads: {', '.join(keys) or 'nothing'})")
    return factory(**{key: float(value) for key, value in params.items()})


@dataclass(frozen=True)
class Potential1D:
    """Sampled velocity potential on a 1D grid.

    b holds n+2 values (interior nodes plus both endpoints), a and bpp hold
    interior values only.  b_mid carries analytic midpoint samples when the
    potential was built from a closure; b_fn is that closure (the product
    formula's quadrature evaluates it between lattice nodes).  All arrays
    are treated as immutable.
    """

    grid: Grid1D
    b: np.ndarray
    a: np.ndarray
    bpp: np.ndarray | None = None
    b_mid: np.ndarray | None = None
    b_fn: Callable | None = None

    def __post_init__(self):
        if self.b.shape != (self.grid.n + 2,):
            raise ValueError("b must have n+2 samples (endpoints included)")
        if self.a.shape != (self.grid.n,):
            raise ValueError("a must have n interior samples")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.a))):
            raise ValueError("potential samples must be finite")

    def divergence(self) -> np.ndarray:
        """div a = a' at interior nodes: analytic channel when available,
        otherwise centered differences with one-sided second-order stencils
        at the nodes adjacent to the boundary."""
        if self.bpp is not None:
            return self.bpp
        return _fd_derivative(self.a, self.grid.h)

    def speed_sq(self) -> np.ndarray:
        """|a|^2 at interior nodes."""
        return self.a ** 2

    def edge_b(self) -> tuple:
        """b on the lattice edges: the analytic midpoint channel when the
        potential carries one, else the mean of the end values."""
        if self.b_mid is not None:
            return (self.b_mid,)
        return (0.5 * (self.b[:-1] + self.b[1:]),)


def _fd_derivative(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def build_potential_1d(kind: str, grid: Grid1D, **params) -> Potential1D:
    """Sample a catalog potential on the grid.

    Kinds: "power" (alpha >= 1, b = |x|^alpha/alpha), "sine" (b = -cos x),
    "quartic" (b = (x^2-1)^2/4), "constant" (c, b = c x).
    """
    b_fn, a_fn, bpp_fn = catalog_1d(kind, **params)
    xs = grid.nodes_with_endpoints()
    xin = grid.nodes()
    return Potential1D(
        grid=grid,
        b=np.asarray(b_fn(xs), dtype=float),
        a=np.asarray(a_fn(xin), dtype=float),
        bpp=None if bpp_fn is None else np.asarray(bpp_fn(xin), dtype=float),
        b_mid=np.asarray(b_fn(grid.midpoints()), dtype=float),
        b_fn=b_fn,
    )


def potential_from_samples(grid: Grid1D, b: np.ndarray,
                           a: np.ndarray | None = None) -> Potential1D:
    """Wrap raw samples; a defaults to centered differences of b."""
    b = np.asarray(b, dtype=float)
    if a is None:
        a = (b[2:] - b[:-2]) / (2.0 * grid.h)
    return Potential1D(grid=grid, b=b, a=np.asarray(a, dtype=float))


# --------------------------------------------------------------------------
# 2D fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Field2D:
    """Gradient drift field sampled on the full 2D lattice (boundary
    included).  a has shape (nx+2, ny+2, 2); diva is the analytic divergence
    when the builder provides one."""

    grid: Grid2D
    b: np.ndarray
    a: np.ndarray
    diva: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.grid.nx + 2, self.grid.ny + 2)
        if self.b.shape != shape:
            raise ValueError(f"b must have lattice shape {shape}")
        if self.a.shape != shape + (2,):
            raise ValueError(f"a must have shape {shape + (2,)}")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.a))):
            raise ValueError("field samples must be finite")

    def divergence(self) -> np.ndarray:
        """div a on the full lattice; centered differences (one-sided at the
        rim) when no analytic channel exists."""
        if self.diva is not None:
            return self.diva
        hx, hy = self.grid.hx, self.grid.hy
        d1 = np.apply_along_axis(_fd_derivative, 0, self.a[:, :, 0], hx)
        d2 = np.apply_along_axis(_fd_derivative, 1, self.a[:, :, 1], hy)
        return d1 + d2

    def speed_sq(self) -> np.ndarray:
        """|a|^2 on the full lattice."""
        return self.a[:, :, 0] ** 2 + self.a[:, :, 1] ** 2

    def edge_b(self) -> tuple:
        """b on the lattice edges of each axis: the mean of the end values."""
        b = self.b
        return 0.5 * (b[:-1, :] + b[1:, :]), 0.5 * (b[:, :-1] + b[:, 1:])


def _support_span(d, radius):
    """The slice of the monotone offsets d where |d| <= radius (empty when
    there is none); rounding keeps |d| unimodal, so the set is one run."""
    idx = np.flatnonzero(np.abs(d) <= radius)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _bump_arrays(X, Y, center, radius, strength):
    """Radial field strength*sin(pi r / R) * r_hat with compact support,
    together with its potential (strength*R/pi)(1 - cos(pi r / R)) and
    divergence.  Outside the support the potential sits at the plateau
    2*strength*R/pi.

    The formulas run only on the closed box |x - cx| <= R, |y - cy| <= R.
    It holds every node with r <= R, since a faithfully rounded hypot is
    never below either leg, and it is closed because b takes its r <= R
    branch at r == R.  Every other node gets what the formulas give there:
    the plateau, diva = 0 and a = 0.0*dx*inv_r, a zero with the sign of dx
    (-0.0 where dx < 0).  A node nearer the centre than the smallest normal
    float, where 1/r would overflow, takes the r -> 0 limit: a = 0 and
    diva = 2 pi s/R."""
    dx_line = X[:, 0] - center[0]
    dy_line = Y[0, :] - center[1]
    plateau = 2.0 * strength * radius / np.pi
    b = np.full(X.shape, plateau)
    a1 = np.broadcast_to(0.0 * dx_line[:, None], X.shape).copy()
    a2 = np.broadcast_to(0.0 * dy_line[None, :], X.shape).copy()
    diva = np.zeros(X.shape)
    box = (_support_span(dx_line, radius), _support_span(dy_line, radius))
    dx = X[box] - center[0]
    dy = Y[box] - center[1]
    r = np.hypot(dx, dy)
    off_centre = r >= np.finfo(float).tiny
    # open support: at r = radius the magnitude is sin(pi) = 0 exactly
    inside = off_centre & (r < radius)
    mag = np.where(inside, strength * np.sin(np.pi * np.minimum(r, radius) / radius), 0.0)
    inv_r = np.where(off_centre, 1.0 / np.where(off_centre, r, 1.0), 0.0)
    a1[box] = mag * dx * inv_r
    a2[box] = mag * dy * inv_r
    b[box] = np.where(
        r <= radius,
        strength * radius / np.pi * (1.0 - np.cos(np.pi * r / radius)),
        plateau,
    )
    # div a = f'(r) + f(r)/r for a radial field f(r) r_hat; limit 2 pi s/R at r=0
    div_box = np.where(
        inside,
        strength * np.pi / radius * np.cos(np.pi * np.minimum(r, radius) / radius)
        + mag * inv_r,
        0.0,
    )
    diva[box] = np.where(off_centre, div_box, 2.0 * strength * np.pi / radius)
    return b, a1, a2, diva


def build_field_2d(kind: str, grid: Grid2D, **params) -> Field2D:
    """Sample a 2D catalog field on the lattice.

    Kinds:
      "bump":      single radial bump; center=(0,0), radius, strength=1.
      "bumps":     sum of radial bumps with pairwise disjoint supports kept
                   inside the rectangle; bumps=[(center, radius, strength), ...].
      "constant":  a = (cx, cy), b = cx*x + cy*y.
      "separable": a(x, y) = (a1(x), a2(y)) from two 1D catalog entries;
                   x=("kind", {params}), y=("kind", {params}).
    """
    X, Y = grid.lattice_meshgrid()
    if kind == "bump":
        center = tuple(params.get("center", (0.0, 0.0)))
        radius = float(params["radius"])
        strength = float(params.get("strength", 1.0))
        if radius <= 0:
            raise CatalogError("bump radius must be positive")
        b, a1, a2, diva = _bump_arrays(X, Y, center, radius, strength)
        return Field2D(grid, b, np.stack([a1, a2], axis=-1), diva)

    if kind == "bumps":
        bumps = [(tuple(c), float(r), float(s)) for c, r, s in params["bumps"]]
        for c, r, _ in bumps:
            if r <= 0:
                raise CatalogError("bump radius must be positive")
            if abs(c[0]) + r >= grid.lx or abs(c[1]) + r >= grid.ly:
                raise CatalogError(
                    f"bump at {c} with radius {r} leaves the rectangle")
        for i in range(len(bumps)):
            for j in range(i + 1, len(bumps)):
                ci, ri, _ = bumps[i]
                cj, rj, _ = bumps[j]
                if np.hypot(ci[0] - cj[0], ci[1] - cj[1]) <= ri + rj:
                    raise CatalogError(
                        f"bump supports at {ci} and {cj} overlap")
        b = np.zeros_like(X)
        a = np.zeros(X.shape + (2,))
        diva = np.zeros_like(X)
        for c, r, s in bumps:
            bb, a1, a2, dd = _bump_arrays(X, Y, c, r, s)
            b += bb
            a[:, :, 0] += a1
            a[:, :, 1] += a2
            diva += dd
        return Field2D(grid, b, a, diva)

    if kind == "constant":
        c = params.get("c", (0.0, 0.0))
        cx, cy = float(c[0]), float(c[1])
        b = cx * X + cy * Y
        a = np.stack([np.full_like(X, cx), np.full_like(Y, cy)], axis=-1)
        return Field2D(grid, b, a, np.zeros_like(X))

    if kind == "separable":
        xk, xp = params["x"]
        yk, yp = params["y"]
        bx, ax, bppx = catalog_1d(xk, **xp)
        by, ay, bppy = catalog_1d(yk, **yp)
        xs = grid.lattice_x()
        ys = grid.lattice_y()
        b = np.asarray(bx(xs), dtype=float)[:, None] + np.asarray(by(ys), dtype=float)[None, :]
        a = np.stack(
            [np.broadcast_to(np.asarray(ax(xs), dtype=float)[:, None], X.shape),
             np.broadcast_to(np.asarray(ay(ys), dtype=float)[None, :], X.shape)],
            axis=-1,
        ).copy()
        diva = None
        if bppx is not None and bppy is not None:
            diva = (np.asarray(bppx(xs), dtype=float)[:, None]
                    + np.asarray(bppy(ys), dtype=float)[None, :])
        return Field2D(grid, b, a, diva)

    raise CatalogError(f"unknown 2D field kind {kind!r} "
                       "(known: bump, bumps, constant, separable)")


# --------------------------------------------------------------------------
# the exp(-p b)-weighted lattice graph
# --------------------------------------------------------------------------

def weighted_graph(pot: Potential1D | Field2D, p: float) -> tuple:
    """The single source of the exp(-p b) weights, in logs and shifted by
    min b: (log_mass, log_edge, scale_log), the node masses on the full
    lattice, a tuple of the edge weights along each axis, and -p min b, the
    log of the factor taken out of both.  Nothing is exponentiated, so the
    graph exists at any p; a log that overflows is -inf, a weight of 0."""
    bmin = float(pot.b.min())
    with np.errstate(over="ignore"):
        return (-p * (pot.b - bmin),
                tuple(-p * (e - bmin) for e in pot.edge_b()), -p * bmin)


# --------------------------------------------------------------------------
# Liouville / Schrodinger-form potential
# --------------------------------------------------------------------------

def liouville_q(pot: Potential1D | Field2D, p: float) -> np.ndarray:
    """q(., p) = -(p/2) div a + (p^2/4)|a|^2 sampled on the grid.

    1D: interior nodes (length n).  2D: full lattice.
    """
    if not np.isfinite(p):
        raise ValueError("p must be finite")
    return -0.5 * p * pot.divergence() + 0.25 * p * p * pot.speed_sq()


# --------------------------------------------------------------------------
# well detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Well:
    """One detected potential well.

    Its region is the sublevel component of the well at its barrier level
    (interior nodes only), stored as its bounding box: box holds one slice
    per axis of the lattice of the given shape, crop the region's mask
    inside that box, so a well costs memory and work in proportion to its
    box.  The library reads box and crop only; the region property, which
    rebuilds the full-lattice mask on each access, is there for callers
    that want the whole lattice."""

    min_value: float
    barrier_value: float
    min_nodes: tuple
    shape: tuple
    box: tuple
    crop: np.ndarray

    @property
    def depth(self) -> float:
        """barrier_value - min_value, the well's decay exponent."""
        return self.barrier_value - self.min_value

    @property
    def region(self) -> np.ndarray:
        """The region as a boolean mask over the full lattice."""
        full = np.zeros(self.shape, dtype=bool)
        full[self.box] = self.crop
        return full


@dataclass(frozen=True)
class WellReport:
    """The kept wells, deepest first, and the depth tolerance they passed."""

    wells: tuple
    tol: float

    @property
    def deepest(self) -> int | None:
        """Index of the deepest well (None when there is none)."""
        return 0 if self.wells else None

    @property
    def max_depth(self) -> float:
        return self.wells[0].depth if self.wells else 0.0


def default_well_tol(pot: Potential1D | Field2D) -> float:
    """One-grid-cell slack in b: h * max|a|, with h = max(hx, hy) in 2D;
    to first order the most b can change across one cell."""
    if isinstance(pot, Potential1D):
        amax = float(np.max(np.abs(pot.a))) if pot.a.size else 0.0
    else:
        amax = float(np.max(np.hypot(pot.a[:, :, 0], pot.a[:, :, 1])))
    return max(pot.grid.spacing) * amax


def _interior(shape: tuple) -> np.ndarray:
    """Boolean mask of the interior nodes of a lattice of this shape."""
    return np.pad(np.ones([n - 2 for n in shape], dtype=bool), 1)


def _neighbor_offsets(shape: tuple) -> tuple:
    """Flat-index offsets of a node's lattice neighbors: 2 in 1D, 4 in 2D."""
    return (-1, 1) if len(shape) == 1 else (-shape[1], shape[1], -1, 1)


def _node_id(k: int, shape: tuple):
    """Node id of the flat lattice index k: k itself in 1D, (i, j) in 2D."""
    return int(k) if len(shape) == 1 else divmod(int(k), shape[1])


def _adjoint_density(u: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """exp(-p b) u on the interior nodes of the lattice potential b, max = 1
    (0 where u <= 0); computed in logs so any p is safe."""
    pos = u > 0
    if not pos.any():
        raise ValueError("u has no positive values")
    logv = (np.where(pos, np.log(np.where(pos, u, 1.0)), -np.inf)
            - p * b[(slice(1, -1),) * b.ndim])
    return np.exp(logv - logv.max())


def _sublevel_labels(b: np.ndarray, level: float, interior: np.ndarray):
    """ndimage.label of {interior node, b < level}, with interior the mask
    _interior(b.shape): 2-neighbor adjacency in 1D, 4-neighbor in 2D
    (ndimage's default structure)."""
    return ndimage.label((b < level) & interior)


def _sweep_levels(s: np.ndarray, level_eps: float) -> np.ndarray:
    """The sweep's level at each of the sorted values s: a value more than
    level_eps above the current level starts a new one.  A gap wider than
    level_eps always does, so only a run of narrower gaps that spans more
    than level_eps needs a sequential scan, one searchsorted per level."""
    start = np.ones(s.size, dtype=bool)
    start[1:] = s[1:] > s[:-1] + level_eps
    runs = np.flatnonzero(start)
    ends = np.append(runs[1:], s.size)
    wide = s[ends - 1] > s[runs] + level_eps
    for a, e in zip(runs[wide].tolist(), ends[wide].tolist()):
        k = a
        while k < e:
            start[k] = True
            k = a + int(np.searchsorted(s[a:e], s[k] + level_eps, side="right"))
    return s[np.maximum.accumulate(np.where(start, np.arange(s.size), 0))]


def _sweep_events(b: np.ndarray, interior: np.ndarray, level_eps: float) -> tuple:
    """The nodes where the sublevel sweep of the lattice potential b does
    more than join a component: (rank, basin, events, levels); interior is
    the mask _interior(b.shape).

    rank is each node's place in the sweep (interior nodes by increasing b,
    stably; -1 on the boundary).  Every interior node points at its
    lowest-rank neighbor when that neighbor enters before it (a boundary
    neighbor means the pseudo-root N), and pointer jumping closes the
    chains: basin holds the root each node reaches, a rank-local minimum or
    N, with basin[N] = N (length N + 1).  A node's chain enters the sweep
    strictly before it, so the sweep's components are unions of basins, and
    a node whose earlier neighbors all share its basin, and whose b is more
    than level_eps above the basin's minimum, only joins the component
    already holding its basin root.  The events are the other nodes, in
    sweep order, and levels is the sweep's level at each.
    """
    flat = b.ravel()
    N = flat.size
    interior_ids = np.flatnonzero(interior)
    order = interior_ids[np.argsort(flat[interior_ids], kind="stable")]
    rank = np.full(N, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    nbr = interior_ids + np.array(_neighbor_offsets(b.shape))[:, None]
    nrank = rank[nbr]
    # the lowest-rank neighbor, the first of equals as argmin would pick
    low, steepest = nrank[0], nbr[0]
    for r, n in zip(nrank[1:], nbr[1:]):
        lower = r < low
        low = np.where(lower, r, low)
        steepest = np.where(lower, n, steepest)
    own = rank[interior_ids]
    down = np.where(low < 0, N, steepest)
    basin = np.full(N + 1, N, dtype=np.int64)
    basin[interior_ids] = np.where(low < own, down, interior_ids)
    while True:
        jumped = basin[basin]
        if np.array_equal(jumped, basin):
            break
        basin = jumped
    own_basin = basin[interior_ids]
    meets = ((nrank < own) & (basin[nbr] != own_basin)).any(axis=0)
    # basin N has no minimum: the nan makes the comparison false
    tied = flat[interior_ids] - np.append(flat, np.nan)[own_basin] <= level_eps
    event_rank = np.sort(own[meets | tied])
    return (rank, basin, order[event_rank],
            _sweep_levels(flat[order], level_eps)[event_rank])


def detect_wells(pot: Potential1D | Field2D, tol: float | None = None) -> WellReport:
    """Sublevel-set persistence of the sampled potential.

    Wells with depth <= tol are dropped (tol defaults to one-cell slack).
    For nested wells the surviving component's region is its full sublevel
    component at death, so regions can contain earlier-died sub-basins; for
    disjoint wells (the multi-well setting) regions are pairwise disjoint.
    """
    if tol is None:
        tol = default_well_tol(pot)
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    b = np.asarray(pot.b, dtype=float)
    flat = b.ravel()
    N = flat.size
    interior = _interior(b.shape)
    # group levels so float noise between nominally equal samples (sums of
    # plateau constants) does not split a single merge event
    brange = float(flat.max() - flat.min())
    level_eps = 1e-12 * max(1.0, brange)
    rank, basin, event_ids, levels = _sweep_events(b, interior, level_eps)

    # Union-find over flat lattice indices, visiting only the events in
    # sweep order; every other node hangs off its basin root from the start,
    # which is where the full sweep would have put it.  Boundary nodes hang
    # off the pseudo-root N.  Interior nodes never sit on the lattice edge,
    # so every neighbor offset stays in range.  A root is always one of its
    # component's minimum nodes; `ties` holds the full list only for the
    # roots that coalesced with an equal minimum.
    offsets = _neighbor_offsets(b.shape)
    basin[event_ids] = event_ids
    parent = array("q", basin.tobytes())
    entered = array("q", rank.tobytes())
    cmin = array("d", flat.tobytes())
    ties: dict[int, list] = {}
    deaths = []  # (min value, barrier, min nodes)

    for r, i, level in zip(rank[event_ids].tolist(), event_ids.tolist(),
                           levels.tolist()):
        ri = i
        for off in offsets:
            j = i + off
            if entered[j] > r:
                continue
            rj = j
            while parent[rj] != rj:  # path halving
                parent[rj] = rj = parent[parent[rj]]
            if rj == ri:
                continue
            if ri == N or rj == N:
                loser = rj if ri == N else ri
                winner = N
            else:
                mi, mj = cmin[ri], cmin[rj]
                if abs(mi - mj) <= level_eps:
                    winner, loser = (ri, rj) if mi <= mj else (rj, ri)
                    ties[winner] = ties.pop(winner, [winner]) + ties.pop(loser, [loser])
                    parent[loser] = ri = winner
                    continue
                winner, loser = (ri, rj) if mi < mj else (rj, ri)
            nodes = ties.pop(loser, None)
            # a component born at this level has no node below the barrier
            if cmin[loser] < level:
                deaths.append((cmin[loser], level, nodes or [loser]))
            parent[loser] = ri = winner

    # The region of a death is the component of {b < barrier} holding its
    # minimum nodes: the nodes that had joined it before the barrier's level.
    # Equal minima that meet only at the barrier level sit in different
    # components there and are reported as separate wells; a minimum node
    # within level_eps above the barrier lies in none and is left out.
    # Deaths come in sweep order, so equal barriers are consecutive and each
    # barrier value is labelled once.
    wells: list[Well] = []
    labelled_at = None
    for mn, barrier, nodes in deaths:
        if barrier - mn <= tol:
            continue
        if labelled_at != barrier:
            labels, _ = _sublevel_labels(b, barrier, interior)
            boxes = ndimage.find_objects(labels)
            labelled_at = barrier
        lab = labels.ravel()
        parts: dict[int, list] = {}
        for k in nodes:
            if lab[k]:
                parts.setdefault(int(lab[k]), []).append(k)
        for label, part in parts.items():
            box = boxes[label - 1]
            wells.append(Well(
                min_value=float(flat[part].min()),
                barrier_value=barrier,
                min_nodes=tuple(_node_id(k, b.shape) for k in part),
                shape=b.shape, box=box, crop=labels[box] == label,
            ))

    kept = [w for w in wells if w.depth > tol]
    kept.sort(key=lambda w: w.depth, reverse=True)
    return WellReport(wells=tuple(kept), tol=tol)


def sublevel_wells(pot: Potential1D | Field2D, level: float) -> list[Well]:
    """Connected components of {b < level} (interior nodes) as well entries
    with barrier fixed at the given level.  Useful for handing disjoint wells
    to the multi-well eigenvalue bound when persistence would coalesce them.
    """
    b = pot.b
    labels, _ = _sublevel_labels(b, level, _interior(b.shape))
    wells = []
    for lab, box in enumerate(ndimage.find_objects(labels), start=1):
        crop = labels[box] == lab
        vals = b[box][crop]
        mn = float(vals.min())
        corner = np.array([s.start for s in box])
        min_nodes = tuple(int(c[0]) if b.ndim == 1 else tuple(int(x) for x in c)
                          for c in np.argwhere(crop & (b[box] == mn)) + corner)
        wells.append(Well(min_value=mn, barrier_value=float(level),
                          min_nodes=min_nodes, shape=b.shape, box=box,
                          crop=crop))
    return wells


# --------------------------------------------------------------------------
# ordering check for the sharp 1D asymptotics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderingCheck:
    """Result of the odd-drift well-ordering test on [0, l].

    passed requires a to be odd and every near-minimizer of b on [0, l] to
    sit strictly left of every near-maximizer."""

    passed: bool
    odd_ok: bool
    ordered_ok: bool
    b_low: float
    b_high: float
    low_set_max: float
    high_set_min: float
    tol: float


def check_well_ordering(pot: Potential1D) -> OrderingCheck:
    """Check oddness of a and the min-before-max ordering of b on [0, l],
    both to the one-cell slack default_well_tol."""
    tol = default_well_tol(pot)
    a = pot.a
    odd_ok = bool(np.max(np.abs(a + a[::-1])) <= tol) if a.size else True

    xs = pot.grid.nodes_with_endpoints()
    half = xs >= -1e-12 * pot.grid.l
    xh = xs[half]
    bh = pot.b[half]
    b_low = float(bh.min())
    b_high = float(bh.max())
    low_set = xh[bh <= b_low + tol]
    high_set = xh[bh >= b_high - tol]
    low_set_max = float(low_set.max())
    high_set_min = float(high_set.min())
    ordered_ok = low_set_max < high_set_min
    return OrderingCheck(
        passed=odd_ok and ordered_ok,
        odd_ok=odd_ok,
        ordered_ok=ordered_ok,
        b_low=b_low,
        b_high=b_high,
        low_set_max=low_set_max,
        high_set_min=high_set_min,
        tol=tol,
    )
