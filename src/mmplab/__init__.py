"""Spectral laboratory for the 3D incompressible magneto-micropolar system.

The package evolves the coupled velocity / micro-rotation / magnetic-field
state z = (u, w, b) on a periodic box with a pseudo-spectral method, evolves
its linearization exactly through the per-mode matrix semigroup, and measures
L2 decay exponents against the sharp predictions expressed in terms of the
decay character r* of the initial datum.

Submodules
----------
grid            periodic box, wavevectors, transforms, dealias mask
fields          9-component spectral state, Leray projection, norms
symbol          9x9 Fourier symbol matrix, eigenvalue bounds, semigroup
propagator      closed-form sector kernel for exp/phi1/phi2 of the symbol,
                and the exact propagator on the grid's retained block
decay_character decay character estimation, data generator
linear          exact linear evolution on a continuum radial quadrature
                (whole-space decay rates)
solver          nonlinear pseudo-spectral integrator (ETD-RK2 / IF-RK4) on
                the 2/3-rule retained block
analysis        decay-exponent fitting, Fourier-splitting ball integrals,
                predicted-rate tables and reports
harness         run orchestration, manifests, CSV persistence
snapshots       binary state files
selftest        fast invariant suite behind `mmplab selftest`
cli             command-line entry point
"""

__version__ = "0.1.0"

from .fields import Grid, PhysParams, StateField
from .symbol import assemble_symbol, spectral_bound

__all__ = [
    "Grid",
    "PhysParams",
    "StateField",
    "assemble_symbol",
    "spectral_bound",
    "__version__",
]
