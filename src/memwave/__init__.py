"""memwave: spectral null-control numerics for a fractional wave equation with memory.

The package follows one pipeline: eigenvalue tables of the fractional
Dirichlet Laplacian -> per-mode memory cubic -> moving-frame spectrum with
gap diagnostics -> canonical product and biorthogonal family -> minimum-norm
moment control -> exact modal simulation confirming that displacement,
velocity, and the accumulated memory all vanish at the control time.
"""

__version__ = "0.1.0"

from .fractional import (
    EigenvalueTable,
    OperatorSample,
    apply_fractional_laplacian,
    build_eigenvalue_table,
    compare_backends,
    normalization_constant,
    verify_symbol_identity,
)
from .cubic import (
    SpectralTriple,
    solve_cubic,
    spectral_triples,
    verify_mu1_asymptotics,
    verify_mu1_monotone,
)
from .moving import (
    GapReport,
    MovingSpectrum,
    build_moving_spectrum,
    critical_velocities,
    frame_bounds,
    gap_diagnostics,
)
from .product import (
    ProductFunction,
    growth_compensator,
    verify_product_properties,
)
from .biorthogonal import (
    BiorthogonalFamily,
    FamilyConstructionError,
    build_biorthogonal,
    horizon_threshold,
    verify_lower_summation,
)
from .control import (
    ControlField,
    InitialData,
    assemble_gram,
    assemble_moments,
    certify_observability,
    random_initial_data,
    synthesize_control,
)
from .simulate import (
    GalerkinSimulator,
    GalerkinState,
    PlaneWaveGram,
    duality_residuals,
    verify_duality,
)
from .runner import RunConfig, load_config, run_pipeline, sweep

__all__ = [name for name in dir() if not name.startswith("_")]
