"""Triangle shape-space analysis of in-betweenness.

Quantifies whether the centroid of group B lies between the centroids of
groups A and C in multivariate feature space, and attaches uncertainty
via stratified bootstrap, permutation tests, and Tukey-depth confidence
regions on the shape-space disk.
"""

from ._version import __version__
from .depth import tukey_depth, tukey_depths
from .errors import (
    CsvParseError,
    DegenerateConfigurationError,
    DimensionMismatchError,
    DomainError,
    FewerThanThreeGroupsError,
    IbistatError,
    InsufficientDataError,
    InsufficientReplicatesError,
    OutOfDiskError,
    SingularCovarianceError,
    UndefinedCosineIBIError,
    UnknownGroupLabelError,
)
from .inference import (
    BootstrapEnsemble,
    ConfidenceRegion,
    GroupedDataset,
    centroid_configuration,
    confidence_region,
    coverage_simulation,
    observed_ibi,
    percentile_ci,
    permutation_test,
    region_summary,
    standardize,
    stratified_bootstrap,
)
from .metrics import (
    IbiPair,
    cosine_ibi,
    null_density_polar,
    null_density_sides,
    null_density_uv,
    offset_normal_density,
    radius_null_cdf,
    tau_ibi,
    tau_null_cdf,
    tau_null_density,
)
from .sampling import (
    GroupSpec,
    mean_configuration_from_shape,
    sample_grouped_dataset,
    sample_null_configuration,
    sample_null_shapes,
    stream_generator,
)
from .shape import (
    HELMERT,
    MIDPOINT_SHAPE,
    PAIRWISE_DIFFERENCES,
    Configuration,
    EdgeMatrix,
    KendallSpherical,
    PreShape,
    ShapePoint,
    SideLengths,
    aligned_transformation_matrix,
    center,
    configuration_from_sides,
    distance_to_midpoint,
    edge_matrix,
    kendall_spherical,
    preshape,
    riemannian_distance_disk,
    riemannian_distance_preshape,
    shape_from_sides,
    shape_point,
    side_lengths,
    sides_from_shape,
    transformation_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
