"""Mixed volumes, quermassintegral inequalities and spectra for convex caps.

The package works with convex bodies in 3-space that rest on a plane with a
prescribed contact angle, represented through their support functions on a
geodesic polar grid of the model spherical cap.  It provides the discrete
shape calculus (capgrid), admissible fields and random bodies (capfun), mixed
volumes and integral identities (mixedvol), the weighted operator spectrum and
quadratic inequalities (spectral), the embedding back into 3-space
(reconstruct), and a batch verification driver (cli).
"""

from .capgrid import (
    CapGrid,
    ShapeTensor,
    a_of,
    build_grid,
    robin_residual,
    surface_gradient,
)
from .capfun import (
    CapillaryBody,
    CapillaryField,
    certify,
    ell,
    ell_values,
    enforce_contact_angle,
    horizontal_linear,
    load_body,
    random_body,
    random_capillary_field,
    save_body,
)
from .mixedvol import (
    QuermassReport,
    SteinerReport,
    b_theta,
    h_k_field,
    minkowski_identity_residual,
    mixed_sequence,
    mixed_volume,
    quermass_report,
    quermassintegral,
    steiner_check,
)
from .spectral import (
    AFReport,
    ChainReport,
    SpectrumReport,
    WeightedSpace,
    af_chain_check,
    af_check,
    assemble_operator,
    equality_decompose,
    quermass_chain_check,
    spectrum,
)
from .reconstruct import (
    EmbeddedPatch,
    boundary_form_quermass,
    contact_angle_residual,
    embed,
    enclosed_volume,
    export_mesh,
    interior_min_height,
    planarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "CapGrid", "ShapeTensor", "a_of", "build_grid", "robin_residual", "surface_gradient",
    "CapillaryBody", "CapillaryField", "certify", "ell",
    "ell_values", "enforce_contact_angle", "horizontal_linear", "load_body",
    "random_body", "random_capillary_field", "save_body",
    "QuermassReport", "SteinerReport", "b_theta", "h_k_field",
    "minkowski_identity_residual", "mixed_sequence", "mixed_volume", "quermass_report",
    "quermassintegral", "steiner_check",
    "AFReport", "ChainReport", "SpectrumReport", "WeightedSpace",
    "af_chain_check", "af_check", "assemble_operator", "equality_decompose",
    "quermass_chain_check", "spectrum",
    "EmbeddedPatch", "boundary_form_quermass", "contact_angle_residual", "embed",
    "enclosed_volume", "export_mesh", "interior_min_height", "planarity_residual",
    "__version__",
]
