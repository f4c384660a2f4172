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
depth = barrier - min.  A kept well's region is the component of
{interior, b < barrier} that holds its minimum nodes (one ndimage.label).
Equal minima that coalesce at a lower level share that component; equal
minima that first meet at the level where the merged component dies lie in
different components of it and are reported as separate wells.
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

def _power_funcs(alpha: float):
    if alpha < 1.0:
        raise CatalogError(f"power-law drift needs alpha >= 1, got {alpha}")

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


def _constant_funcs(c: float):
    def b(x):
        return c * np.asarray(x, dtype=float)

    def a(x):
        return np.full_like(np.asarray(x, dtype=float), c)

    def bpp(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return b, a, bpp


def catalog_1d(kind: str, **params):
    """Return (b, a, bpp) callables for a 1D catalog entry.

    bpp is None when the second derivative is not essentially smooth on the
    whole line (power law with alpha < 2).
    """
    if kind == "power":
        return _power_funcs(float(params.get("alpha", 2.0)))
    if kind == "sine":
        if params:
            raise CatalogError(f"sine takes no parameters, got {params}")
        return _sine_funcs()
    if kind == "quartic":
        if params:
            raise CatalogError(f"quartic takes no parameters, got {params}")
        return _quartic_funcs()
    if kind == "constant":
        return _constant_funcs(float(params.get("c", 1.0)))
    raise CatalogError(f"unknown 1D potential kind {kind!r} "
                       "(known: power, sine, quartic, constant)")


@dataclass(frozen=True)
class Potential1D:
    """Sampled velocity potential on a 1D grid.

    b holds n+2 values (interior nodes plus both endpoints), a and bpp hold
    interior values only.  b_mid carries analytic midpoint samples when the
    potential was built from a closure; b_fn is that closure (used by
    quadrature refinement).  All arrays are treated as immutable.
    """

    grid: Grid1D
    b: np.ndarray
    a: np.ndarray
    bpp: np.ndarray | None = None
    b_mid: np.ndarray | None = None
    b_fn: Callable | None = None
    kind: str = "custom"

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
        kind=kind,
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
    kind: str = "custom"

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


def _bump_arrays(X, Y, center, radius, strength):
    """Radial field strength*sin(pi r / R) * r_hat with compact support,
    together with its potential (strength*R/pi)(1 - cos(pi r / R)) and
    divergence.  Outside the support the potential sits at the plateau
    2*strength*R/pi."""
    dx = X - center[0]
    dy = Y - center[1]
    r = np.hypot(dx, dy)
    # open support: at r = radius the magnitude is sin(pi) = 0 exactly
    inside = (r > 0.0) & (r < radius)
    mag = np.where(inside, strength * np.sin(np.pi * np.minimum(r, radius) / radius), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = np.where(r > 0.0, 1.0 / np.where(r > 0.0, r, 1.0), 0.0)
    a1 = mag * dx * inv_r
    a2 = mag * dy * inv_r
    b = np.where(
        r <= radius,
        strength * radius / np.pi * (1.0 - np.cos(np.pi * r / radius)),
        2.0 * strength * radius / np.pi,
    )
    # div a = f'(r) + f(r)/r for a radial field f(r) r_hat; limit 2 pi s/R at r=0
    diva = np.where(
        inside,
        strength * np.pi / radius * np.cos(np.pi * np.minimum(r, radius) / radius)
        + mag * inv_r,
        0.0,
    )
    diva = np.where(r == 0.0, 2.0 * strength * np.pi / radius, diva)
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
        return Field2D(grid, b, np.stack([a1, a2], axis=-1), diva, kind="bump")

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
        return Field2D(grid, b, a, diva, kind="bumps")

    if kind == "constant":
        c = params.get("c", (0.0, 0.0))
        cx, cy = float(c[0]), float(c[1])
        b = cx * X + cy * Y
        a = np.stack([np.full_like(X, cx), np.full_like(Y, cy)], axis=-1)
        return Field2D(grid, b, a, np.zeros_like(X), kind="constant")

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
        return Field2D(grid, b, a, diva, kind="separable")

    raise CatalogError(f"unknown 2D field kind {kind!r} "
                       "(known: bump, bumps, constant, separable)")


# --------------------------------------------------------------------------
# Liouville / Schrodinger-form potential
# --------------------------------------------------------------------------

def liouville_q(pot: Potential1D | Field2D, p: float) -> np.ndarray:
    """q(., p) = -(p/2) div a + (p^2/4)|a|^2 sampled on the grid.

    1D: interior nodes (length n).  2D: full lattice.
    """
    if not np.isfinite(p):
        raise ValueError("p must be finite")
    diva = pot.divergence()
    if isinstance(pot, Potential1D):
        a_sq = pot.a ** 2
    else:
        a_sq = pot.a[:, :, 0] ** 2 + pot.a[:, :, 1] ** 2
    return -0.5 * p * diva + 0.25 * p * p * a_sq


# --------------------------------------------------------------------------
# well detection
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Well:
    """One detected potential well.

    region is a boolean mask over the full lattice: the sublevel component of
    the well at its barrier level (interior nodes only)."""

    min_value: float
    barrier_value: float
    depth: float
    min_nodes: tuple
    region: np.ndarray


@dataclass(frozen=True)
class WellReport:
    wells: tuple
    deepest: int | None
    tol: float

    @property
    def max_depth(self) -> float:
        if self.deepest is None:
            return 0.0
        return self.wells[self.deepest].depth


def default_well_tol(pot: Potential1D | Field2D) -> float:
    """One-grid-cell slack in b: h * max|a|, with h = max(hx, hy) in 2D;
    to first order the most b can change across one cell."""
    if isinstance(pot, Potential1D):
        h = pot.grid.h
        amax = float(np.max(np.abs(pot.a))) if pot.a.size else 0.0
    else:
        h = max(pot.grid.hx, pot.grid.hy)
        amax = float(np.max(np.hypot(pot.a[:, :, 0], pot.a[:, :, 1])))
    return h * amax


def _sublevel_labels(b: np.ndarray, level: float):
    """ndimage.label of {interior node, b < level}: 2-neighbor adjacency in
    1D, 4-neighbor in 2D (ndimage's default structure)."""
    mask = b < level
    mask[0] = mask[-1] = False
    if b.ndim == 2:
        mask[:, 0] = mask[:, -1] = False
    return ndimage.label(mask)


def detect_wells(pot: Potential1D | Field2D, tol: float | None = None) -> WellReport:
    """Sublevel-set persistence of the sampled potential.

    Wells with depth <= tol are dropped (tol defaults to one-cell slack).
    For nested wells the surviving component's region is its full sublevel
    component at death, so regions can contain earlier-died sub-basins; for
    disjoint wells (the multi-well setting) regions are pairwise disjoint.
    """
    if tol is None:
        tol = default_well_tol(pot)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    b = np.asarray(pot.b, dtype=float)
    if b.size == 0:
        raise ValueError("empty grid")
    flat = b.ravel()
    N = flat.size
    interior = np.zeros(b.shape, dtype=bool)
    interior[(slice(1, -1),) * b.ndim] = True
    interior_ids = np.flatnonzero(interior)
    order = interior_ids[np.argsort(flat[interior_ids], kind="stable")]

    # group levels so float noise between nominally equal samples (sums of
    # plateau constants) does not split a single merge event
    brange = float(flat.max() - flat.min())
    level_eps = 1e-12 * max(1.0, brange)

    # Union-find over flat lattice indices.  Boundary nodes start active and
    # hang off the pseudo-root N.  Interior nodes never sit on the lattice
    # edge, so every neighbor offset stays in range.  A root is always one of
    # its component's minimum nodes; `ties` holds the full list only for the
    # roots that coalesced with an equal minimum.
    offsets = (-1, 1) if b.ndim == 1 else (-b.shape[1], b.shape[1], -1, 1)
    roots = np.arange(N + 1, dtype=np.int64)
    roots[:N][~interior.ravel()] = N
    parent = array("q", roots.tobytes())
    active = bytearray((~interior).ravel().tobytes())
    cmin = array("d", flat.tobytes())
    ties: dict[int, list] = {}
    deaths = []  # (min value, barrier, min nodes)

    level = -np.inf
    for i in array("q", order.tobytes()):
        v = cmin[i]
        if v > level + level_eps:
            level = v
        active[i] = 1
        ri = i
        for off in offsets:
            j = i + off
            if not active[j]:
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
    wells: list[Well] = []
    for mn, barrier, nodes in deaths:
        if barrier - mn <= tol:
            continue
        labels, _ = _sublevel_labels(b, barrier)
        lab = labels.ravel()
        parts: dict[int, list] = {}
        for k in nodes:
            if lab[k]:
                parts.setdefault(int(lab[k]), []).append(k)
        for label, part in parts.items():
            low = float(flat[part].min())
            wells.append(Well(
                min_value=low,
                barrier_value=barrier,
                depth=barrier - low,
                min_nodes=tuple(k if b.ndim == 1 else divmod(k, b.shape[1])
                                for k in part),
                region=labels == label,
            ))

    kept = [w for w in wells if w.depth > tol]
    kept.sort(key=lambda w: w.depth, reverse=True)
    deepest = 0 if kept else None
    return WellReport(wells=tuple(kept), deepest=deepest, tol=tol)


def sublevel_wells(pot: Potential1D | Field2D, level: float) -> list[Well]:
    """Connected components of {b < level} (interior nodes) as well entries
    with barrier fixed at the given level.  Useful for handing disjoint wells
    to the multi-well eigenvalue bound when persistence would coalesce them.
    """
    b = pot.b
    labels, count = _sublevel_labels(b, level)
    wells = []
    for lab in range(1, count + 1):
        region = labels == lab
        vals = b[region]
        mn = float(vals.min())
        idx = np.argwhere(region)
        min_nodes = tuple(tuple(int(c) for c in row) if b.ndim > 1 else int(row[0])
                          for row in idx[b[region] == mn])
        wells.append(Well(min_value=mn, barrier_value=float(level),
                          depth=float(level) - mn, min_nodes=min_nodes,
                          region=region))
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


def check_well_ordering(pot: Potential1D, tol: float | None = None) -> OrderingCheck:
    """Check oddness of a and the min-before-max ordering of b on [0, l]."""
    if tol is None:
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
