"""Tomography on flat tori: periodic X-ray and d-plane Radon transforms,
exact spectral inversion, and Tikhonov-regularized reconstruction."""

from .bridge import EuclideanSinogram, bridge_ingest, disk_sinogram
from .errors import TorusRadonError
from .fields import (
    TorusField,
    bessel_norm,
    evaluate_at,
    field_from_coeffs,
    random_field,
    sobolev_norm,
    to_samples,
    unit_harmonic,
)
from .inversion import (
    ReconstructionReport,
    adjoint,
    adjoint_normalized,
    invert_filtered,
    invert_sum,
    normal_multiplier,
    reconstruct_slices,
    slice_reconstruct_coeff,
)
from .lattice import (
    PrimitiveDirection,
    RationalSubspace,
    canonicalize_subspace,
    direction_cover,
    enumerate_directions,
    enumerate_grassmannian,
    hyperplane_cover,
    line_cover,
    orthogonal_complement,
    orthogonal_primitive,
    primitive_reduce,
)
from .phantoms import Phantom, phantom
from .regularization import (
    alpha_schedule,
    error_bound,
    strategy_constant,
    tikhonov_objective,
    tikhonov_reconstruct,
)
from .sinogram import (
    TorusSinogram,
    WeightRule,
    canonical_weight,
    sinogram_norm,
    weight_build,
    weight_on_family,
)
from .transforms import (
    GeodesicSpec,
    forward_direction,
    forward_sinogram,
    forward_subspace,
    quadrature_line_integral,
)

__version__ = "0.1.0"
