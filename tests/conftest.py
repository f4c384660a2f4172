import time

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from driftwell import (Grid1D, Grid2D, build_field_2d, build_potential_1d,
                       evolve)
from driftwell.potential import Well


@pytest.fixture(scope="session")
def grid_fine():
    return Grid1D(1.0, 4001)


@pytest.fixture(scope="session")
def pot_ax(grid_fine):
    """a = x on (-1, 1): b = x^2/2."""
    return build_potential_1d("power", grid_fine, alpha=2)


@pytest.fixture(scope="session")
def pot_sine_wide():
    """a = sin x on (-3pi/2, 3pi/2): deepest well depth 2."""
    return build_potential_1d("sine", Grid1D(1.5 * np.pi, 4001))


@pytest.fixture(scope="session")
def pot_quartic():
    """a = x^3 - x on (-2, 2): symmetric double well."""
    return build_potential_1d("quartic", Grid1D(2.0, 4001))


@pytest.fixture(scope="session")
def grid2d_acceptance():
    """h = 0.02 on (-1,1)^2."""
    return Grid2D(1.0, 1.0, 99, 99)


@pytest.fixture(scope="session")
def field_two_bump(grid2d_acceptance):
    """Two disjoint radial bumps (strengths 1 and 2)."""
    return build_field_2d("bumps", grid2d_acceptance,
                          bumps=[((0.5, 0.4), 0.4, 1.0),
                                 ((-2.0 / 3.0, -0.3), 0.25, 2.0)])


@pytest.fixture(scope="session")
def field_vortex(grid2d_acceptance):
    return build_field_2d("bump", grid2d_acceptance, radius=0.5)


@pytest.fixture(scope="session")
def vortex_run(field_vortex):
    """The p = 40 vortex on the h = 0.02 grid, run from u = 1 to t = 1 with
    tau = 5e-4; shared by the acceptance suite and the 2D vortex tests.

    Returns (final state, {t: max-normalized snapshot} for t = 0.2, 0.3,
    ..., 1.0, wall seconds of the run)."""
    t0 = time.perf_counter()
    state, _, _, snaps = evolve(field_vortex, 40.0, None, t_end=1.0,
                                tau=5e-4, snapshot_every=0.1)
    elapsed = time.perf_counter() - t0
    snapshots = {round(t, 1): u for t, _, u in snaps if round(t, 1) >= 0.2}
    return state, snapshots, elapsed


def _radial_vortex_lambda(p, R=0.5, n=3000):
    """Independent oracle: principal eigenvalue of the vortex well on the
    unit disk (radial weighted FD, regularity condition at r = 0).  The disk
    is inscribed in the square, so this value dominates the square's one.

    Returns (lambda, r_nodes, u) with u normalized to max 1.  Checked for
    10 <= p <= 160: doubling p multiplies lambda by e^{-p depth} (depth =
    2R/pi) times a prefactor that settles smoothly toward 2 (2.43, 2.21,
    2.14 from p = 20, 40, 80), and the closed-support dip 1 - min_{r<=R} u
    is 0.347, 0.287, 0.208, 0.150, 0.108 at p = 10, 20, 40, 80, 160.  Past
    that the pencil is singular to working precision: at p = 320 it returns
    lambda = 2.6e-24 where the trend predicts ~1e-41, and at p = 640
    solveh_banded raises "not positive definite".  So a p outside the
    checked range raises ValueError."""
    if not 10.0 <= p <= 160.0:
        raise ValueError(f"the radial oracle is checked for 10 <= p <= 160, got {p!r}")
    h = 1.0 / (n + 1)
    r_nodes = h * np.arange(1, n + 1)
    r_mid = h * (np.arange(0, n + 1) + 0.5)

    def b_of(r):
        return np.where(r <= R, R / np.pi * (1 - np.cos(np.pi * r / R)),
                        2 * R / np.pi)

    gamma = r_mid * np.exp(-p * b_of(r_mid)) / h**2
    gamma[0] = 0.0
    m = r_nodes * np.exp(-p * b_of(r_nodes))
    ab = np.zeros((2, n))
    ab[0, 1:] = -gamma[1:-1]
    ab[1, :] = gamma[:-1] + gamma[1:]
    u = np.ones(n)
    for _ in range(60):
        u = solveh_banded(ab, m * u, lower=False)
        u /= np.abs(u).max()
    du = np.diff(np.concatenate([u, [0.0]]))
    num = np.sum(gamma[1:] * du * du)
    return num / np.sum(m * u * u), r_nodes, u / u.max()


@pytest.fixture(scope="session")
def radial_vortex_lambda():
    """The radial vortex oracle, shared by the acceptance suite and the 2D
    vortex tests; call it as radial_vortex_lambda(p)."""
    return _radial_vortex_lambda


def _bounding_box(mask):
    """One slice per axis spanning the True entries of mask (empty slices
    when there are none)."""
    box = []
    for axis in range(mask.ndim):
        hit = np.flatnonzero(mask.any(axis=tuple(k for k in range(mask.ndim)
                                                 if k != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1) if hit.size
                   else slice(0, 0))
    return tuple(box)


def well_from_mask(min_value, barrier_value, depth, min_nodes, region):
    """The Well whose region is the full-lattice mask region, kept inside
    the mask's bounding box: the form the test oracles build wells in.
    depth is the oracle's own depth, which the Well's derived depth must
    equal bit for bit."""
    region = np.asarray(region, dtype=bool)
    box = _bounding_box(region)
    well = Well(min_value, barrier_value, min_nodes, region.shape, box,
                region[box].copy())
    assert well.depth == depth
    return well
