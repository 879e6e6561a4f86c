"""In-betweenness indices and closed-form null shape densities.

Two indices quantify how much landmark B sits between A and C:

* ``cosine_ibi`` (gamma): cosine of the supplement of the interior angle
  at B; +/-1 on degenerate triangles, discontinuous where side a or c
  vanishes.
* ``tau_ibi`` (tau): cosine of twice the geodesic distance to the
  B-midpoint triangle; continuous on the whole disk and equal to
  3 b^2 - 1.

The null densities describe the shape of a triangle whose landmarks are
iid isotropic normal in p dimensions.

The scalar indices are the tests' reference; the program's gamma and tau
come from the vectorized ``shape._centroid_shape_stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedCosineIBIError
from .shape import ShapePoint, SideLengths

__all__ = [
    "IbiPair",
    "cosine_ibi",
    "tau_ibi",
    "null_density_polar",
    "null_density_uv",
    "null_density_sides",
    "radius_null_cdf",
    "tau_null_density",
    "tau_null_cdf",
    "offset_normal_density",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class IbiPair:
    """Both in-betweenness indices for one triangle; gamma may be NaN when
    undefined (side a or c exactly zero)."""

    gamma: float
    tau: float

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.tau <= 1.0 + 1e-12:
            raise ValueError(f"tau {self.tau} outside [-1, 1]")
        if math.isfinite(self.gamma) and not -1.0 - 1e-12 <= self.gamma <= 1.0 + 1e-12:
            raise ValueError(f"gamma {self.gamma} outside [-1, 1]")


def _check_p(p: int) -> int:
    if int(p) != p or p < 2:
        raise DomainError(f"dimension p must be an integer >= 2, got {p}")
    return int(p)


def cosine_ibi(sides: SideLengths) -> float:
    """Cosine in-betweenness gamma = (2 b^2 - 1) / (2 a c).

    Equals cos(pi - B) by the law of cosines under the unit side-sum
    normalization: 1 for degenerate triangles with B strictly between A
    and C, -1 for degenerate triangles with B outside the segment.

    Raises UndefinedCosineIBIError at the discontinuity points a = 0 or
    c = 0 (B coincident with C or A).
    """
    if sides.a2 == 0.0 or sides.c2 == 0.0:
        raise UndefinedCosineIBIError(
            "gamma is undefined when side a or side c has zero length"
        )
    value = (2.0 * sides.b2 - 1.0) / (2.0 * math.sqrt(sides.a2 * sides.c2))
    return min(max(value, -1.0), 1.0)


def tau_ibi(sp: ShapePoint) -> float:
    """Shape in-betweenness index tau = cos(2 * distance to the B-midpoint).

    Computed in rectangular form tau = u/2 + sqrt(3)/2 v, which equals
    r cos(pi/3 - phi) and 3 b^2 - 1; well defined on the whole disk.
    """
    value = 0.5 * sp.u + 0.5 * _SQRT3 * sp.v
    return min(max(value, -1.0), 1.0)


def null_density_polar(r, p: int):
    """Marginal null density of the shape radius: (p-1) r (1 - r^2)^((p-3)/2).

    The angle phi is independent and uniform on [0, 2pi); the joint
    density is this marginal divided by 2 pi.  For p = 2 the density
    diverges at r = 1 and +inf is returned there.
    """
    p = _check_p(p)
    r = np.asarray(r, dtype=float)
    if np.any((r < 0.0) | (r > 1.0)):
        raise DomainError("radius outside [0, 1]")
    with np.errstate(divide="ignore"):
        out = (p - 1) * r * (1.0 - r * r) ** ((p - 3) / 2.0)
    return out if out.ndim else float(out)


def radius_null_cdf(r, p: int):
    """Null distribution function of the shape radius: 1 - (1-r^2)^((p-1)/2)."""
    p = _check_p(p)
    r = np.asarray(r, dtype=float)
    if np.any((r < 0.0) | (r > 1.0)):
        raise DomainError("radius outside [0, 1]")
    out = 1.0 - (1.0 - r * r) ** ((p - 1) / 2.0)
    return out if out.ndim else float(out)


def null_density_uv(u, v, p: int):
    """Joint null density on the disk: ((p-1)/2pi) (1 - u^2 - v^2)^((p-3)/2)."""
    p = _check_p(p)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = u * u + v * v
    if np.any(s > 1.0 + 1e-12):
        raise DomainError("(u, v) outside the closed unit disk")
    with np.errstate(divide="ignore"):
        out = (p - 1) / (2.0 * math.pi) * np.maximum(1.0 - s, 0.0) ** ((p - 3) / 2.0)
    return out if out.ndim else float(out)


def null_density_sides(sides: SideLengths, p: int) -> float:
    """Joint null density of the normalized squared side lengths.

    (3(p-1)/2pi) (-1/4 + a2 b2 + a2 c2 + b2 c2)^((p-3)/2); the argument of
    the power equals (1 - r^2)/12 and vanishes exactly on the degenerate
    boundary.
    """
    p = _check_p(p)
    a2, b2, c2 = sides.as_tuple()
    q = -0.25 + a2 * b2 + a2 * c2 + b2 * c2
    if q < -1e-12:
        raise DomainError("side lengths outside the attainable shape region")
    q = max(q, 0.0)
    if q == 0.0 and p < 3:  # divergent on the degenerate boundary
        return math.inf
    return float(3.0 * (p - 1) / (2.0 * math.pi) * q ** ((p - 3) / 2.0))


def tau_null_density(t, p: int):
    """Null density of tau: Gamma((p+1)/2)/(sqrt(pi) Gamma(p/2)) (1-t^2)^((p-2)/2).

    Uniform on [-1, 1] for p = 2, the semicircle law for p = 3.  Uses
    log-gamma so large p does not overflow.
    """
    p = _check_p(p)
    t = np.asarray(t, dtype=float)
    if np.any((t < -1.0) | (t > 1.0)):
        raise DomainError("tau outside [-1, 1]")
    const = math.exp(math.lgamma((p + 1) / 2.0) - math.lgamma(p / 2.0))
    with np.errstate(divide="ignore"):
        out = const / math.sqrt(math.pi) * (1.0 - t * t) ** ((p - 2) / 2.0)
    return out if out.ndim else float(out)


def tau_null_cdf(t, p: int):
    """Null distribution function of tau: (tau+1)/2 follows Beta(p/2, p/2)."""
    # imported here, so importing ibistat loads no part of scipy
    from scipy import special

    p = _check_p(p)
    t = np.asarray(t, dtype=float)
    if np.any((t < -1.0) | (t > 1.0)):
        raise DomainError("tau outside [-1, 1]")
    out = special.betainc(p / 2.0, p / 2.0, (t + 1.0) / 2.0)
    return out if out.ndim else float(out)


def offset_normal_density(rho, kappa: float):
    """Unnormalized offset-normal shape density kernel in the distance rho.

    {1 + kappa [1 + cos(2 rho)]} exp{-kappa [1 - cos(2 rho)]} for
    rho in [0, pi/2]; constant 1 at kappa = 0.  Exposed as a kernel (no
    normalizing constant is applied).  The concentration is
    kappa = S^2 / (4 sigma^2) for centroid size S of the mean
    configuration and per-coordinate noise variance sigma^2.
    """
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa}")
    rho = np.asarray(rho, dtype=float)
    if np.any((rho < 0.0) | (rho > math.pi / 2.0 + 1e-12)):
        raise DomainError("rho outside [0, pi/2]")
    c = np.cos(2.0 * rho)
    out = (1.0 + kappa * (1.0 + c)) * np.exp(-kappa * (1.0 - c))
    return out if out.ndim else float(out)
