"""Uniform Dirichlet grids on symmetric intervals and rectangles.

Interior nodes only carry unknowns; the domain boundary is implicit
(homogeneous Dirichlet).  A 1D grid on (-l, l) with n interior nodes has
spacing h = 2l/(n+1) and nodes x_i = -l + (i+1)h for i = 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on the interval (-l, l) with n interior nodes."""

    l: float
    n: int

    def __post_init__(self):
        if not 0 < self.l < np.inf:
            raise ValueError(f"half-length must be positive and finite, "
                             f"got {self.l}")
        if self.n < 3:
            raise ValueError(f"need at least 3 interior nodes, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.l / (self.n + 1)

    @property
    def spacing(self) -> tuple:
        return (self.h,)

    def nodes(self) -> np.ndarray:
        """Interior nodes, length n."""
        return -self.l + self.h * np.arange(1, self.n + 1)

    def nodes_with_endpoints(self) -> np.ndarray:
        """All lattice points including +-l, length n+2."""
        return -self.l + self.h * np.arange(self.n + 2)

    def midpoints(self) -> np.ndarray:
        """Cell midpoints between consecutive lattice points, length n+1."""
        return -self.l + self.h * (np.arange(self.n + 1) + 0.5)


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on the rectangle (-lx, lx) x (-ly, ly)."""

    lx: float
    ly: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ValueError("half-lengths must be positive and finite")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("need at least 3 interior nodes per axis")

    @property
    def hx(self) -> float:
        return 2.0 * self.lx / (self.nx + 1)

    @property
    def hy(self) -> float:
        return 2.0 * self.ly / (self.ny + 1)

    @property
    def spacing(self) -> tuple:
        return (self.hx, self.hy)

    def nodes_x(self) -> np.ndarray:
        return -self.lx + self.hx * np.arange(1, self.nx + 1)

    def nodes_y(self) -> np.ndarray:
        return -self.ly + self.hy * np.arange(1, self.ny + 1)

    def lattice_x(self) -> np.ndarray:
        return -self.lx + self.hx * np.arange(self.nx + 2)

    def lattice_y(self) -> np.ndarray:
        return -self.ly + self.hy * np.arange(self.ny + 2)

    def lattice_meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) over the full lattice including boundary, indexing='ij'."""
        return np.meshgrid(self.lattice_x(), self.lattice_y(), indexing="ij")
