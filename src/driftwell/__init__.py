"""Principal Dirichlet eigenvalues of -lap + p a . grad with gradient drift.

Modules: grids (uniform lattices), potential (drift catalog, wells),
eigensolve1d (weighted-pencil solver), asymptotics (log-domain large-p
formulas), bounds (rigorous two-sided control), pde2d (semi-Lagrangian
parabolic runs), cli (command-line front end).
"""

from .grids import Grid1D, Grid2D
from .potential import (
    CatalogError,
    Field2D,
    OrderingCheck,
    Potential1D,
    Well,
    WellReport,
    build_field_2d,
    build_potential_1d,
    check_well_ordering,
    detect_wells,
    liouville_q,
    potential_from_samples,
    sublevel_wells,
)
from .eigensolve1d import (
    ConvergenceError,
    EigenPair,
    OverflowGuardError,
    TridiagPencil,
    adjoint_eigenfunction,
    assemble_pencil,
    eigs_bisection,
    principal_eig,
    rayleigh_quotient,
)
from .asymptotics import (
    AsymptoticValue,
    LogQuad,
    closed_form,
    laplace_integral,
    laplace_predict,
    product_formula,
    separable_product_caveat,
)
from .bounds import (
    BoundReport,
    CollarError,
    MultiwellBound,
    NoDecayCertificate,
    WellUpperBound,
    comparison_bounds,
    multiwell_upper_bound,
    no_decay_certificate,
    p2_envelope,
    well_upper_bound,
)
from .pde2d import (
    DecayFit,
    ProfileSections,
    State2D,
    adjoint_profile,
    estimate_decay,
    evolve,
    extract_profile,
)

__version__ = "0.1.0"
