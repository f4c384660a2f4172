"""Rigorous two-sided control of the principal (and m-th) eigenvalue.

Everything here evaluates an exact inequality on the sampled grid:

* comparison of Schrodinger forms: the eigenvalue difference of -lap + q and
  -lap + q~ is sandwiched by inf(q - q~) and sup(q - q~),
* the quadratic envelope lambda_domain - (p/2) sup(div a) + (p^2/4) inf|a|^2
  <= lambda_1(p) <= lambda_domain - (p/2) inf(div a) + (p^2/4) sup|a|^2,
* the no-decay certificate: inf q(., p0) >= 0 forces lambda_1 nondecreasing
  on [p0/2, inf) and rules out exponential decay,
* potential-well upper bounds from the plateau test function
  u_hat = clip(dist(x, region boundary)/eps, 0, 1): the explicit constant
  C = eps^-2 |{b <= min+beta}|^-1 |collar| gives lambda_1(p) <= C e^{-omega p},
  and the direct weighted Rayleigh quotient of the same u_hat is a sharper
  bound computed in the log domain (valid for any p, no underflow).

Grid measures are cell counts times cell volume (O(h) measure error,
documented); distances are taxicab hop counts to the region's complement
times h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .asymptotics import _logsumexp
from .potential import (Potential1D, Well, _node_id, liouville_q,
                        weighted_graph)


class CollarError(ValueError):
    """Collar condition violated on the grid or beta/omega infeasible."""


@dataclass(frozen=True)
class BoundReport:
    lower: float
    log_upper: float


@dataclass(frozen=True)
class WellUpperBound:
    """Both upper bounds from one well: the explicit-constant bound
    C e^{-omega p} and the direct quotient of the plateau test function.
    log C = log_upper_explicit + omega p."""

    omega: float
    log_upper_explicit: float
    log_upper_quotient: float


@dataclass(frozen=True)
class MultiwellBound:
    p: float
    omega_min_depth: float
    log_upper_explicit: float
    log_upper_quotient: float


@dataclass(frozen=True)
class NoDecayCertificate:
    holds: bool
    min_q: float
    witness: tuple | int | None
    message: str


# --------------------------------------------------------------------------

def comparison_bounds(q1: np.ndarray, q2: np.ndarray, lam2: float) -> tuple[float, float]:
    """Interval for the principal eigenvalue of -lap + q1 given the one of
    -lap + q2: [lam2 + min(q1-q2), lam2 + max(q1-q2)]."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != q2.shape:
        raise ValueError(f"grid mismatch: {q1.shape} vs {q2.shape}")
    d = q1 - q2
    return lam2 + float(d.min()), lam2 + float(d.max())


def dirichlet_laplacian_eigenvalue(pot_or_field) -> float:
    """Principal Dirichlet Laplacian eigenvalue of the box domain."""
    if isinstance(pot_or_field, Potential1D):
        return float(np.pi**2 / (4.0 * pot_or_field.grid.l**2))
    g = pot_or_field.grid
    return float(np.pi**2 / 4.0 * (1.0 / g.lx**2 + 1.0 / g.ly**2))


def p2_envelope(pot, p: float) -> BoundReport:
    """Quadratic-in-p envelope from comparing the Schrodinger-form potential
    against the plain Laplacian of the box; exact for constant fields."""
    lam_domain = dirichlet_laplacian_eigenvalue(pot)
    diva = pot.divergence()
    a_sq = pot.speed_sq()
    lower = lam_domain - 0.5 * p * float(diva.max()) + 0.25 * p * p * float(a_sq.min())
    upper = lam_domain - 0.5 * p * float(diva.min()) + 0.25 * p * p * float(a_sq.max())
    return BoundReport(lower=lower, log_upper=float(np.log(upper)))


def no_decay_certificate(pot, p0: float) -> NoDecayCertificate:
    """If min q(., p0) >= 0 then lambda_1 is nondecreasing for p >= p0/2 and
    no potential well exists, so the eigenvalue cannot decay exponentially."""
    if p0 <= 0:
        raise ValueError("p0 must be positive")
    q = liouville_q(pot, p0)
    flat_idx = int(np.argmin(q))
    min_q = float(q.ravel()[flat_idx])
    witness = _node_id(flat_idx, q.shape)
    holds = min_q >= 0.0
    if holds:
        msg = (f"min q(., {p0:g}) = {min_q:.6g} >= 0: lambda_1 is nondecreasing "
               f"on [{p0 / 2:g}, inf); no potential well exists")
    else:
        msg = (f"q(., {p0:g}) = {min_q:.6g} < 0 at node {witness}: "
               "certificate fails (a well may exist)")
    return NoDecayCertificate(holds=holds, min_q=min_q,
                              witness=None if holds else witness, message=msg)


# --------------------------------------------------------------------------
# well-based upper bounds
# --------------------------------------------------------------------------

def _collar_hops(region: np.ndarray) -> np.ndarray:
    """Taxicab hop distance from the complement; rim nodes get 1."""
    return ndimage.distance_transform_cdt(region, metric="taxicab")


def _log_quotient(pot, p: float, u_hat: np.ndarray, box: tuple) -> float:
    """log of the exp(-p b)-weighted Rayleigh quotient of the nodal u_hat,
    given on the lattice box `box` and zero elsewhere (the boundary
    included):

        sum_axes sum_edges w_e (du)^2 vol/h_k^2   over   sum_i w_i u_i^2 vol,

    with vol the cell volume.  The box holds every node where u_hat is
    nonzero and one node beyond on each side, so every edge with du != 0
    lies in it, in the same C order as on the full lattice.  The log
    weights are sliced from weighted_graph, the single source of the
    weights (the eigensolver pencil's too).
    """
    log_mass, log_edge, _ = weighted_graph(pot, p)
    hs = pot.grid.spacing
    terms = []
    for k, (h, log_w) in enumerate(zip(hs, log_edge)):
        du = np.diff(u_hat, axis=k)
        mask = du != 0.0
        if not mask.any():
            continue
        edges = box[:k] + (slice(box[k].start, box[k].stop - 1),) + box[k + 1:]
        terms.append(_logsumexp(log_w[edges][mask] + 2.0 * np.log(np.abs(du[mask])))
                     + (np.log(np.prod(hs[:k] + hs[k + 1:])) - np.log(h)))
    nz = u_hat != 0.0
    log_den = (_logsumexp(log_mass[box][nz] + 2.0 * np.log(u_hat[nz]))
               + np.log(np.prod(hs)))
    return float(_logsumexp(terms) - log_den)


def well_upper_bound(pot, well: Well, p: float, *, beta: float | None = None,
                     omega: float | None = None) -> WellUpperBound:
    """Upper bounds on lambda_1(p) from one potential well.

    Defaults: beta = 0.25 * depth, omega = 0.5 * depth.  The collar width
    epsilon is always the widest (in grid cells) on which
    b >= min + beta + omega still holds.

    All the work is done on the well's box widened by a one-node rim, which
    stays inside the lattice because the region holds interior nodes only
    (a well whose box reaches the boundary raises ValueError): the rim
    holds the complement nodes nearest to the region, so the taxicab hops
    equal the full lattice's, and the far end of every edge out of the
    region.  The results are those of the full-lattice computation, bit for
    bit.
    """
    depth = well.depth
    if beta is None:
        beta = 0.25 * depth
    if omega is None:
        omega = 0.5 * depth
    if not (0.0 < beta and beta + omega < depth):
        raise CollarError(
            f"need 0 < beta and beta + omega < depth; got beta={beta:.6g}, "
            f"omega={omega:.6g}, depth={depth:.6g}")
    threshold = well.min_value + beta + omega

    if any(s.start < 1 or s.stop > n - 1 for s, n in zip(well.box, well.shape)):
        raise ValueError("a well's region must hold interior nodes only")
    box = tuple(slice(s.start - 1, s.stop + 1) for s in well.box)
    region = np.zeros([n + 2 for n in well.crop.shape], dtype=bool)
    region[(slice(1, -1),) * region.ndim] = well.crop
    b = pot.b[box]
    hs = pot.grid.spacing
    h_dist, cell_vol = min(hs), np.prod(hs)

    hops = _collar_hops(region)   # 0 off the region, >= 1 on it
    violating = region & (b < threshold)
    if violating.any():
        k = int(hops[violating].min()) - 1
    else:
        k = int(hops.max())
    if k < 1:
        raise CollarError(
            "no admissible collar: b < min + beta + omega already at the "
            "region rim; reduce beta or omega")
    eps_len = k * h_dist

    u_hat = np.minimum(hops / k, 1.0)

    sub_count = int(np.count_nonzero(region & (b <= well.min_value + beta)))
    collar_count = int(np.count_nonzero((hops >= 1) & (hops <= k)))
    if sub_count == 0:
        raise CollarError("sublevel set {b <= min + beta} is empty on the grid")
    log_C = (-2.0 * np.log(eps_len)
             + np.log(collar_count * cell_vol)
             - np.log(sub_count * cell_vol))
    return WellUpperBound(
        omega=omega, log_upper_explicit=float(log_C - omega * p),
        log_upper_quotient=_log_quotient(pot, p, u_hat, box),
    )


def multiwell_upper_bound(pot, wells, p: float) -> MultiwellBound:
    """Upper bound on lambda_m(p) from m pairwise disjoint wells: the max
    over wells of the plateau-test-function quotient."""
    wells = list(wells)
    if not wells:
        raise ValueError("empty well list: the bound needs at least one well")
    seen = np.zeros(wells[0].shape, dtype=bool)
    for i, w in enumerate(wells):
        if np.any(seen[w.box] & w.crop):
            raise CollarError(f"well region {i} overlaps an earlier one")
        seen[w.box] |= w.crop
    per = tuple(well_upper_bound(pot, w, p) for w in wells)
    return MultiwellBound(
        p=p,
        omega_min_depth=min(w.depth for w in wells),
        log_upper_explicit=max(u.log_upper_explicit for u in per),
        log_upper_quotient=max(u.log_upper_quotient for u in per),
    )
