"""Triangle shape-space kernel.

Maps triangular configurations (three labeled landmarks A, B, C in
p-dimensional space) to their shape -- the equivalence class under
translation, rotation, and positive scaling.  Triangle shape space is the
closed unit disk: the origin is the equilateral triangle, the boundary
holds the degenerate (collinear) triangles, and the point (r, phi) =
(1, pi/3) is the "B-midpoint" triangle with B halfway between A and C.

Coordinates used throughout:

* polar shape coordinates (r, phi) and rectangular (u, v) = (r cos phi,
  r sin phi);
* normalized squared side lengths (a2, b2, c2) with a opposite A (the
  segment BC), b opposite B (segment AC), c opposite C (segment AB),
  scaled so a2 + b2 + c2 = 1.

The two systems are linked by the fixed linear map::

    a2 = (1 - u) / 3
    b2 = (1 + u/2 + sqrt(3)/2 v) / 3
    c2 = (1 + u/2 - sqrt(3)/2 v) / 3

All functions are pure; the value types are frozen dataclasses.

The scalar functions are the paper's exposition and the tests' reference.
The program's statistics come from the vectorized ``_centroid_shape_stats``.
Of the scalar functions, the SVD gives the observed r, phi, u, v and tau
the report prints; each region record's shape point and side lengths come
from ``ShapePoint.from_rect`` and ``sides_from_shape``, and the SVG's
glyphs from ``SideLengths`` and ``configuration_from_sides``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    DimensionMismatchError,
    OutOfDiskError,
)

__all__ = [
    "HELMERT",
    "PAIRWISE_DIFFERENCES",
    "MIDPOINT_SHAPE",
    "Configuration",
    "EdgeMatrix",
    "PreShape",
    "ShapePoint",
    "SideLengths",
    "KendallSpherical",
    "center",
    "edge_matrix",
    "transformation_matrix",
    "aligned_transformation_matrix",
    "shape_point",
    "side_lengths",
    "sides_from_shape",
    "shape_from_sides",
    "configuration_from_sides",
    "preshape",
    "riemannian_distance_preshape",
    "riemannian_distance_disk",
    "distance_to_midpoint",
    "kendall_spherical",
]

#: 2x3 Helmert submatrix (orthonormal rows; the edge frame of an
#: equilateral triangle).
HELMERT = np.array(
    [
        [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0],
        [1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0)],
    ]
)
HELMERT.setflags(write=False)

#: 3x3 pairwise difference matrix: right-multiplying the p x 3 landmark
#: matrix by it produces the edge vectors (A-C, B-A, C-B).
PAIRWISE_DIFFERENCES = np.array(
    [
        [1.0, -1.0, 0.0],
        [0.0, 1.0, -1.0],
        [-1.0, 0.0, 1.0],
    ]
)
PAIRWISE_DIFFERENCES.setflags(write=False)

# Landmarks closer (relatively) than this are treated as coincident.
_COINCIDENT_RTOL = 1e-12
# Below this gap between normalized singular values the angle phi is
# numerically meaningless and the ShapePoint is flagged.
_ANGLE_DEGENERATE_GAP = 1e-10

_SQRT3 = math.sqrt(3.0)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Configuration:
    """Three labeled landmarks (rows A, B, C) in p-dimensional space."""

    landmarks: np.ndarray

    def __post_init__(self):
        lm = np.asarray(self.landmarks, dtype=float)
        if lm.ndim != 2 or lm.shape[0] != 3 or lm.shape[1] < 1:
            raise ValueError(
                f"landmarks must be a 3 x p array with p >= 1, got shape {lm.shape}"
            )
        if not np.all(np.isfinite(lm)):
            raise ValueError("landmark coordinates must be finite")
        object.__setattr__(self, "landmarks", _as_readonly(lm))

    @property
    def p(self) -> int:
        return self.landmarks.shape[1]

    def embedded(self) -> "Configuration":
        """Return self with p >= 2, appending a zero coordinate if p == 1.

        The embedding preserves all pairwise distances, so shape is
        unchanged; the rotational theory below needs at least two
        ambient dimensions.
        """
        if self.p >= 2:
            return self
        return Configuration(np.hstack([self.landmarks, np.zeros((3, 1))]))

    def is_degenerate(self) -> bool:
        """True when all three landmarks coincide (no defined shape)."""
        centered = self.landmarks - self.landmarks.mean(axis=0)
        scale = 1.0 + float(np.max(np.abs(self.landmarks)))
        return float(np.linalg.norm(centered)) < _COINCIDENT_RTOL * scale


@dataclass(frozen=True)
class EdgeMatrix:
    """p x 3 matrix of edge vectors; columns sum to the zero vector."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != 3:
            raise ValueError(f"edge matrix must be p x 3, got shape {m.shape}")
        scale = 1.0 + float(np.max(np.abs(m)))
        if np.max(np.abs(m.sum(axis=1))) > 1e-9 * scale:
            raise ValueError("edge vectors of a closed triangle must sum to zero")
        object.__setattr__(self, "matrix", _as_readonly(m))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PreShape:
    """2 x p matrix with unit Frobenius norm (location and scale removed)."""

    matrix: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.matrix, dtype=float)
        if z.ndim != 2 or z.shape[0] != 2:
            raise ValueError(f"pre-shape must be 2 x p, got shape {z.shape}")
        if abs(float(np.linalg.norm(z)) - 1.0) > 1e-12:
            raise ValueError("pre-shape must have unit Frobenius norm")
        object.__setattr__(self, "matrix", _as_readonly(z))

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ShapePoint:
    """A point of the closed unit disk in both polar and rectangular form.

    ``angle_degenerate`` marks points where phi carries no information:
    the equilateral triangle (r = 0, phi reported as 0 by convention) and
    near-equilateral shapes whose angle is numerically unstable.
    """

    r: float
    phi: float
    u: float = field(default=None)  # type: ignore[assignment]
    v: float = field(default=None)  # type: ignore[assignment]
    angle_degenerate: bool = False

    def __post_init__(self):
        r = float(self.r)
        if not (math.isfinite(r) and -1e-12 <= r <= 1.0 + 1e-9):
            raise OutOfDiskError(f"radius {r} outside [0, 1]")
        r = min(max(r, 0.0), 1.0)
        phi = float(self.phi) % (2.0 * math.pi)
        u = r * math.cos(phi) if self.u is None else float(self.u)
        v = r * math.sin(phi) if self.v is None else float(self.v)
        if abs(u * u + v * v - r * r) > 1e-12:
            raise ValueError("rectangular coordinates inconsistent with radius")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_rect(cls, u: float, v: float) -> "ShapePoint":
        r = math.hypot(u, v)
        if r > 1.0 + 1e-9:
            raise OutOfDiskError(f"(u, v) = ({u}, {v}) outside the unit disk")
        phi = math.atan2(v, u) % (2.0 * math.pi)
        return cls(r=r, phi=phi)


#: Shape of the B-midpoint triangle, the unique maximizer of the in-betweenness
#: index: the degenerate triangle with B at the midpoint of segment AC.
MIDPOINT_SHAPE = ShapePoint(r=1.0, phi=math.pi / 3.0)


@dataclass(frozen=True)
class SideLengths:
    """Normalized squared side lengths; a opposite A, b opposite B, c opposite C."""

    a2: float
    b2: float
    c2: float

    def __post_init__(self):
        vals = (float(self.a2), float(self.b2), float(self.c2))
        if any(not math.isfinite(x) or x < -1e-12 for x in vals):
            raise ValueError(f"squared side lengths must be nonnegative, got {vals}")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ValueError(f"squared side lengths must sum to 1, got {sum(vals)}")
        a, b, c = (math.sqrt(max(x, 0.0)) for x in vals)
        tol = 1e-9
        if a > b + c + tol or b > a + c + tol or c > a + b + tol:
            raise ValueError("side lengths violate the triangle inequality")
        object.__setattr__(self, "a2", max(vals[0], 0.0))
        object.__setattr__(self, "b2", max(vals[1], 0.0))
        object.__setattr__(self, "c2", max(vals[2], 0.0))

    def as_tuple(self) -> tuple:
        return (self.a2, self.b2, self.c2)


@dataclass(frozen=True)
class KendallSpherical:
    """Hemisphere coordinates of triangle shape: polar angle theta, azimuth psi."""

    theta: float
    psi: float

    def __post_init__(self):
        theta = float(self.theta)
        if not (-1e-12 <= theta <= math.pi / 2.0 + 1e-12):
            raise ValueError(f"theta {theta} outside [0, pi/2]")
        object.__setattr__(self, "theta", min(max(theta, 0.0), math.pi / 2.0))
        object.__setattr__(self, "psi", float(self.psi) % (2.0 * math.pi))


def center(config: Configuration) -> Configuration:
    """Translate the configuration so the landmark mean is the origin."""
    lm = config.landmarks
    return Configuration(lm - lm.mean(axis=0))


def edge_matrix(config: Configuration) -> EdgeMatrix:
    """Edge vectors of the triangle as a p x 3 matrix.

    Computed as X'T with X the landmark matrix and T the pairwise
    difference matrix; the columns are (A-C, B-A, C-B) and always sum to
    the zero vector.
    """
    return EdgeMatrix(config.landmarks.T @ PAIRWISE_DIFFERENCES)


def transformation_matrix(config: Configuration) -> np.ndarray:
    """The p x 2 matrix M = E Helmert' used to extract shape coordinates.

    Carries the same scale and orientation as the input; the edge matrix
    is recoverable exactly as E = M Helmert because the Helmert rows are
    orthonormal and span the zero-sum subspace.
    """
    return edge_matrix(config).matrix @ HELMERT.T


def _svd_shape(config: Configuration):
    """Shared SVD step: normalized singular values and the angle phi."""
    if config.is_degenerate():
        raise DegenerateConfigurationError(
            "all landmarks coincide; shape coordinates are undefined"
        )
    m = transformation_matrix(config.embedded())
    _, d, vt = np.linalg.svd(m, full_matrices=False)
    v = vt.T
    if np.linalg.det(v) < 0.0:  # force V into SO(2) for a deterministic angle
        v = v.copy()
        v[:, 1] = -v[:, 1]
    d1, d2 = float(d[0]), float(d[1])
    scale = math.sqrt(d1 * d1 + d2 * d2)
    d1n, d2n = d1 / scale, d2 / scale
    gap = d1n - d2n
    angle_degenerate = gap < _ANGLE_DEGENERATE_GAP
    if gap < 1e-14:
        phi = 0.0  # equilateral: the angle is undefined, report 0
    else:
        phi = (2.0 * math.atan2(v[1, 0], v[0, 0])) % (2.0 * math.pi)
    # identical to sqrt(1 - 4 d1^2 d2^2 / (d1^2 + d2^2)^2) but without the
    # cancellation under the square root near r = 0
    r = (d1n * d1n - d2n * d2n)
    return r, phi, d1n, d2n, angle_degenerate


def shape_point(config: Configuration) -> ShapePoint:
    """Polar/rectangular shape coordinates of a triangular configuration.

    The singular values d1 >= d2 >= 0 of the transformation matrix give
    the radius r = (d1^2 - d2^2)/(d1^2 + d2^2); the right singular
    vectors, oriented to a rotation, give the angle phi = 2 * atan2
    of the leading vector.  Invariant to translation, rotation,
    reflection, and positive scaling of the input.

    Raises DegenerateConfigurationError when all landmarks coincide.
    """
    r, phi, _, _, angle_degenerate = _svd_shape(config)
    return ShapePoint(r=r, phi=phi, angle_degenerate=angle_degenerate)


def aligned_transformation_matrix(config: Configuration) -> np.ndarray:
    """Scale-normalized transformation matrix with orientation removed.

    Returns the 2 x 2 canonical residual D W' with D the normalized
    singular values and W the fixed frame [[cos(phi/2), sin(phi/2)],
    [sin(phi/2), -cos(phi/2)]]: what remains of M after discarding the
    left factor and the overall size.
    """
    _, phi, d1n, d2n, _ = _svd_shape(config)
    ch, sh = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[d1n * ch, d1n * sh], [d2n * sh, -d2n * ch]])


def side_lengths(config: Configuration) -> SideLengths:
    """Squared side lengths normalized by their sum."""
    if config.is_degenerate():
        raise DegenerateConfigurationError(
            "all landmarks coincide; side lengths are all zero"
        )
    xa, xb, xc = config.landmarks
    a2 = float(np.sum((xb - xc) ** 2))
    b2 = float(np.sum((xa - xc) ** 2))
    c2 = float(np.sum((xa - xb) ** 2))
    total = a2 + b2 + c2
    return SideLengths(a2 / total, b2 / total, c2 / total)


def _squared_sides(means: np.ndarray) -> tuple:
    """The unnormalized squared sides (a2, b2, c2) of K triangles, from
    the (3, K, p) array of their A, B and C vertices."""
    xa, xb, xc = means
    return (
        np.sum((xb - xc) ** 2, axis=1),
        np.sum((xa - xc) ** 2, axis=1),
        np.sum((xa - xb) ** 2, axis=1),
    )


def _centroid_shape_stats(means: np.ndarray) -> dict:
    """Vectorized shape statistics for K centroid triangles, from the
    (3, K, p) array of their A, B and C vertices; degenerate triangles
    hold NaN instead of raising.  The sides and gamma have the bits of
    ``side_lengths`` and ``cosine_ibi``."""
    a2, b2, c2 = _squared_sides(means)
    total = a2 + b2 + c2
    scale = 1.0 + np.max(np.abs(means), axis=(0, 2))
    # coincident-centroid rule matching Configuration.is_degenerate:
    # centered Frobenius norm (= sqrt(total/3)) below _COINCIDENT_RTOL * scale
    degenerate = np.sqrt(np.maximum(total, 0.0) / 3.0) < _COINCIDENT_RTOL * scale
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_total = np.where(degenerate, 1.0, total)
        a2n, b2n, c2n = a2 / safe_total, b2 / safe_total, c2 / safe_total
        u = 1.0 - 3.0 * a2n
        v = _SQRT3 * (b2n - c2n)
        tau = np.clip(3.0 * b2n - 1.0, -1.0, 1.0)
        gamma_undefined = (a2 == 0.0) | (c2 == 0.0)
        gamma = np.clip(
            (2.0 * b2n - 1.0)
            / (2.0 * np.sqrt(np.where(gamma_undefined, 1.0, a2n * c2n))),
            -1.0,
            1.0,
        )
    gamma = np.where(gamma_undefined, np.nan, gamma)
    for arr in (a2n, b2n, c2n, u, v, tau, gamma):
        arr[degenerate] = np.nan
    return {
        "tau": tau, "gamma": gamma, "u": u, "v": v,
        "a2": a2n, "b2": b2n, "c2": c2n,
        "degenerate": degenerate,
        "gamma_undefined": gamma_undefined & ~degenerate,
    }


def sides_from_shape(sp: ShapePoint) -> SideLengths:
    """Squared side lengths from disk coordinates via the fixed linear map."""
    u, v = sp.u, sp.v
    if u * u + v * v > 1.0 + 1e-9:
        raise OutOfDiskError(f"(u, v) = ({u}, {v}) outside the unit disk")
    a2 = (1.0 - u) / 3.0
    b2 = (1.0 + 0.5 * u + 0.5 * _SQRT3 * v) / 3.0
    c2 = (1.0 + 0.5 * u - 0.5 * _SQRT3 * v) / 3.0
    # boundary points can land epsilon-negative
    a2, b2, c2 = (min(max(x, 0.0), 1.0) for x in (a2, b2, c2))
    total = a2 + b2 + c2
    return SideLengths(a2 / total, b2 / total, c2 / total)


def shape_from_sides(sides: SideLengths) -> ShapePoint:
    """Inverse of :func:`sides_from_shape`: disk coordinates from side lengths."""
    u = 1.0 - 3.0 * sides.a2
    v = _SQRT3 * (sides.b2 - sides.c2)
    return ShapePoint.from_rect(u, v)


def configuration_from_sides(sides: SideLengths, p: int = 2) -> Configuration:
    """A planar triangle realizing the given side lengths, embedded in p dims.

    Places A at the origin and B on the first axis; degenerate side
    patterns (collinear triangles, coincident pairs) are handled exactly.
    """
    if p < 2:
        raise ValueError("ambient dimension must be at least 2")
    a, b, c = (math.sqrt(x) for x in sides.as_tuple())
    if c < 1e-15:
        lm = np.array([[0.0, 0.0], [0.0, 0.0], [b, 0.0]])
    else:
        x = (b * b + c * c - a * a) / (2.0 * c)
        y = math.sqrt(max(b * b - x * x, 0.0))
        lm = np.array([[0.0, 0.0], [c, 0.0], [x, y]])
    if p > 2:
        lm = np.hstack([lm, np.zeros((3, p - 2))])
    return Configuration(lm)


def preshape(config: Configuration) -> PreShape:
    """Helmertized, unit-norm version of the configuration (2 x p).

    Removes location (Helmert rows sum to zero) and scale (Frobenius
    normalization); rotation remains.
    """
    if config.is_degenerate():
        raise DegenerateConfigurationError(
            "all landmarks coincide; the pre-shape is undefined"
        )
    hx = HELMERT @ config.embedded().landmarks
    return PreShape(hx / np.linalg.norm(hx))


def riemannian_distance_preshape(z1: PreShape, z2: PreShape) -> float:
    """Geodesic shape distance from pre-shapes: arccos of the nuclear norm
    of Z1'Z2 (the best great-circle alignment over rotations).

    Value in [0, pi/2].  Sums the unsigned singular values as defined,
    which identifies reflected planar shapes.
    """
    if z1.p != z2.p:
        raise DimensionMismatchError(
            f"pre-shapes have ambient dimensions {z1.p} and {z2.p}"
        )
    lam = np.linalg.svd(z1.matrix.T @ z2.matrix, compute_uv=False)
    return math.acos(min(max(float(lam.sum()), -1.0), 1.0))


def riemannian_distance_disk(s1: ShapePoint, s2: ShapePoint) -> float:
    """Geodesic shape distance between two disk points.

    rho = 1/2 arccos{ r1 r2 cos(phi1 - phi2) + sqrt((1-r1^2)(1-r2^2)) },
    in [0, pi/2]; when either point is on the boundary the square-root
    term vanishes and the argument reduces to the Euclidean inner product
    of the disk representations.
    """
    arg = s1.r * s2.r * math.cos(s1.phi - s2.phi) + math.sqrt(
        max(1.0 - s1.r ** 2, 0.0) * max(1.0 - s2.r ** 2, 0.0)
    )
    return 0.5 * math.acos(min(max(arg, -1.0), 1.0))


def distance_to_midpoint(s: ShapePoint) -> float:
    """Geodesic distance to the B-midpoint triangle at (1, pi/3)."""
    arg = s.r * math.cos(s.phi - math.pi / 3.0)
    return 0.5 * math.acos(min(max(arg, -1.0), 1.0))


def _planar_complex(config: Configuration) -> np.ndarray:
    """Landmarks as complex numbers in the triangle's own plane."""
    lm = config.embedded().landmarks
    if lm.shape[1] == 2:
        coords = lm
    else:
        centered = lm - lm.mean(axis=0)
        # top-2 right singular vectors span the triangle's plane
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        coords = lm @ vt[:2].T
    return coords[:, 0] + 1j * coords[:, 1]


def kendall_spherical(config: Configuration) -> KendallSpherical:
    """Hemisphere coordinates (theta, psi) of the triangle's shape.

    Built from the ratio of the two Helmertized complex coordinates;
    formulas stay projective so coincident leading landmarks are fine.
    Related to the disk coordinates by r = sin(theta) and
    phi = 2*pi/3 - psi (mod 2*pi).
    """
    if config.is_degenerate():
        raise DegenerateConfigurationError(
            "all landmarks coincide; spherical coordinates are undefined"
        )
    z = HELMERT @ _planar_complex(config)
    z1, z2 = complex(z[0]), complex(z[1])
    cross = z2 * z1.conjugate()
    norm = abs(z1) ** 2 + abs(z2) ** 2
    # |imag| folds the reflected copy onto the upper hemisphere, so the
    # in-plane basis orientation is irrelevant
    cos_theta = 2.0 * abs(cross.imag) / norm
    theta = math.acos(min(max(cos_theta, -1.0), 1.0))
    psi = math.atan2(2.0 * cross.real, abs(z2) ** 2 - abs(z1) ** 2)
    return KendallSpherical(theta=theta, psi=psi)
