"""Near-ground-state modeling of curved phonon-trapping acoustic cavities.

Mode shapes, trapping and tunneling figures, frequencies, effective masses,
zero-point fluctuations, piezoelectric/optomechanical readout quantities and
electrode sizing for curved bulk-acoustic-wave plates, each closed form
backed by an independent brute-force numerical check.
"""

from .cavity import (
    CavityGeometry,
    ModeCharacterization,
    ModeIndex,
    characterize,
    effective_mass,
    envelope_curvatures,
    escape_probability,
    escape_probability_log10,
    in_plane_quanta,
    mode_frequency,
    mode_shape,
    thermal_occupancy,
    trapping_over_radii,
    trapping_parameters,
    zpf,
)
from .detection import (
    MU_OPT_3SIGMA,
    ElectrodeDesign,
    design_electrode,
    optimal_electrode,
    overlap_factor,
    piezo_current_zpf,
    shunt_impedance,
)
from .material import (
    DispersionPoleError,
    MaterialFileError,
    MaterialParams,
    bundled_material_path,
    dispersion_parameters,
    load_material,
    stiffened_constants,
)
from .membrane import MembraneSpec, compare, membrane_effective_mass, membrane_frequency, membrane_zpf
from .oracle import (
    EigensolveConvergenceError,
    escape_integral_oracle,
    mass_integral_oracle,
    overlap_integral_oracle,
    trap_eigensolve,
)
from .specfun import (
    QuadratureConvergenceError,
    QuadratureSpec,
    erf,
    erf_inv,
    erfc,
    erfcx,
    hermite,
    integrate_1d,
    integrate_2d,
    integrate_intervals,
)

__version__ = "0.1.0"
