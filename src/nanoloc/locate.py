"""Trilateration: range estimates to four known anchors -> 3D position.

Subtracting the first anchor's sphere equation from the others yields a
linear system in the unknown position, solved by least squares.  With all
anchors in one z-plane the system only determines (x, y); z is recovered
from the mean squared range residual, taking the root on the modeled side
of the anchor plane (nodes live above it).  The linear estimate is then
refined by damped Gauss-Newton iterations on the full nonlinear range
residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Anchors whose z coordinates differ by less than this (relative to the
# anchor span) are treated as coplanar in z.
_COPLANAR_REL_TOL = 1e-9

_GN_MAX_ITERATIONS = 20
_GN_STEP_TOL_M = 1e-9
_GN_MAX_BACKTRACKS = 8
_GN_DAMPING = 1e-9 * np.eye(3)
# Step scales tried after the full step: 1/2 ... 1/128.  Exact powers of
# two, so each equals the repeatedly halved scale bit for bit.
_GN_HALVED_SCALES = np.ldexp(1.0, -np.arange(1, _GN_MAX_BACKTRACKS))


class DegenerateGeometryError(ValueError):
    """Anchor geometry insufficient to determine a position."""


@dataclass(frozen=True)
class AnchorSet:
    """Four anchors at known positions (meters, 3D)."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.shape != (4, 3):
            raise ValueError("positions must have shape (4, 3)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("anchor positions must be finite")
        object.__setattr__(self, "positions", pos)
        for i in range(4):
            for j in range(i + 1, 4):
                if np.array_equal(pos[i], pos[j]):
                    raise ValueError(f"anchors {i} and {j} coincide")
        # Collinear anchors cannot fix a position in any plane.
        spans = pos[1:] - pos[0]
        if np.linalg.matrix_rank(spans, tol=1e-12 * max(1.0, self.span_m)) < 2:
            raise DegenerateGeometryError("anchors are collinear")

    @cached_property
    def span_m(self) -> float:
        """Largest pairwise anchor separation; scales tolerances."""
        pos = self.positions
        return float(max(np.linalg.norm(pos[i] - pos[j])
                         for i in range(4) for j in range(i + 1, 4)))

    @cached_property
    def coplanar_z(self) -> bool:
        """True when all anchors share one z-plane."""
        z = self.positions[:, 2]
        return float(np.ptp(z)) <= _COPLANAR_REL_TOL * max(1.0, self.span_m)

    @cached_property
    def reduced_lhs(self) -> np.ndarray:
        """(3, 3) matrix of the linear system left after subtracting the
        first anchor's sphere equation from the others."""
        return 2.0 * (self.positions[1:] - self.positions[0])

    @cached_property
    def reduced_rank(self) -> int:
        """Rank of the reduced linear system; of its (x, y) columns only
        when the anchors are coplanar in z."""
        lhs = self.reduced_lhs[:, :2] if self.coplanar_z else self.reduced_lhs
        return int(np.linalg.matrix_rank(lhs, tol=1e-12 * max(1.0, self.span_m)))

    @property
    def z_plane_m(self) -> float:
        return float(self.positions[0, 2])


@dataclass(frozen=True)
class LocationEstimate:
    """Estimated position and the RMS range residual at that position."""

    position_m: np.ndarray
    residual_m: float


def trilaterate(anchors: AnchorSet, distances_m: Sequence[float] | np.ndarray,
                refine: bool = True) -> LocationEstimate:
    """Estimate a 3D position from four range measurements.

    Negative measurements (possible under heavy noise) are clamped to
    zero.  Raises DegenerateGeometryError when the reduced linear system
    is rank-deficient.
    """
    d = np.asarray(distances_m, dtype=np.float64)
    if d.shape != (4,):
        raise ValueError("distances_m must contain exactly 4 values")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances_m must be finite")
    positions = trilaterate_batch(anchors, d[None, :], refine=refine)
    position = positions[0]
    residual = float(np.sqrt(np.mean(
        (np.linalg.norm(position[None, :] - anchors.positions, axis=1) - np.maximum(d, 0.0)) ** 2)))
    return LocationEstimate(position_m=position, residual_m=residual)


def localization_error(true_position_m: Sequence[float] | np.ndarray,
                       estimate: LocationEstimate | Sequence[float] | np.ndarray
                       ) -> float:
    """Euclidean distance between the true and estimated positions."""
    if isinstance(estimate, LocationEstimate):
        estimated = estimate.position_m
    else:
        estimated = np.asarray(estimate, dtype=np.float64)
    true_pos = np.asarray(true_position_m, dtype=np.float64)
    if true_pos.shape != (3,) or estimated.shape != (3,):
        raise ValueError("positions must be 3D points")
    if not (np.all(np.isfinite(true_pos)) and np.all(np.isfinite(estimated))):
        raise ValueError("positions must be finite")
    return float(np.linalg.norm(true_pos - estimated))


def trilaterate_batch(anchors: AnchorSet, distances_m: np.ndarray,
                      refine: bool = True) -> np.ndarray:
    """Solve many independent 4-range problems against one anchor set.

    distances_m has shape (m, 4); returns positions of shape (m, 3).
    The scalar trilaterate() is a thin wrapper around this.
    """
    d = np.maximum(np.asarray(distances_m, dtype=np.float64), 0.0)
    if d.ndim != 2 or d.shape[1] != 4:
        raise ValueError("distances_m must have shape (m, 4)")
    if d.shape[0] == 0:
        return np.empty((0, 3))
    pos = anchors.positions
    a0 = pos[0]
    lhs = anchors.reduced_lhs                            # (3, 3)
    rhs = (d[:, 0:1] ** 2 - d[:, 1:] ** 2
           + np.sum(pos[1:] ** 2, axis=1)[None, :]
           - float(np.sum(a0 ** 2)))                     # (m, 3)

    if anchors.coplanar_z:
        if anchors.reduced_rank < 2:
            raise DegenerateGeometryError(
                "anchor geometry does not determine a horizontal position")
        xy, *_ = np.linalg.lstsq(lhs[:, :2], rhs.T, rcond=None)
        xy = xy.T                                        # (m, 2)
        # Mean over anchors of d_i^2 - |xy - a_i|^2 estimates the squared
        # height above the anchor plane; noise can push it negative, in
        # which case the node is projected onto the plane.
        dz2 = d ** 2 - np.sum((xy[:, None, :] - pos[None, :, :2]) ** 2, axis=2)
        z_off = np.sqrt(np.maximum(0.0, dz2.mean(axis=1)))
        estimate = np.column_stack([xy, anchors.z_plane_m + z_off])
    else:
        if anchors.reduced_rank < 3:
            raise DegenerateGeometryError(
                "anchor geometry does not determine a 3D position")
        sol, *_ = np.linalg.lstsq(lhs, rhs.T, rcond=None)
        estimate = sol.T

    if refine:
        estimate = _gauss_newton_batch(pos, d, estimate)
    if anchors.coplanar_z:
        # The mirror image below the anchor plane has identical residuals;
        # keep the modeled half-space.
        z0 = anchors.z_plane_m
        estimate[:, 2] = z0 + np.abs(estimate[:, 2] - z0)
    return estimate


def norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1), same arithmetic, less call overhead."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _gauss_newton_batch(anchor_pos: np.ndarray, d: np.ndarray,
                        p0: np.ndarray) -> np.ndarray:
    """Gauss-Newton on range residuals with backtracking step halving.

    Plain Gauss-Newton can diverge when a node sits near the anchor plane
    (ill-conditioned Jacobian); each step is only accepted if it reduces
    the residual norm, and the step is halved otherwise.  Rows the full
    step does not improve try all halved scales in one batch and take the
    first that lowers the cost; a row that finds none stops.  The working
    arrays hold only the rows still moving, and an accepted trial's anchor
    offsets and ranges build the next Jacobian.
    """
    out = p0.copy()
    rows = np.arange(p0.shape[0])        # output row of each working row
    # C order: the bits of the stacked products follow the Jacobian's layout.
    p = np.ascontiguousarray(p0)
    diff = p[:, None, :] - anchor_pos
    dist = norm(diff)
    res = dist - d
    for _ in range(_GN_MAX_ITERATIONS):
        if rows.size == 0:
            break
        jac = np.divide(diff, np.maximum(dist[:, :, None], 1e-18), out=diff)
        # Damped normal equations; the damping keeps the solve regular for
        # the rank-deficient Jacobian of points on the anchor plane while
        # staying far below the 1e-9 m step tolerance.
        jt = np.swapaxes(jac, 1, 2)
        hess = jt @ jac + _GN_DAMPING
        grad = (jt @ res[:, :, None])
        step = -np.linalg.solve(hess, grad)[:, :, 0]
        del jac, jt, hess, grad      # memory (jac reused diff's buffer)

        # From here on diff, dist and res describe the trial positions.
        cost = np.add.reduce(res * res, axis=-1)
        trial_p = p + step
        diff = trial_p[:, None, :] - anchor_pos
        dist = norm(diff)
        res = dist - d
        accepted = np.add.reduce(res * res, axis=-1) < cost
        rejected = np.flatnonzero(~accepted)
        if rejected.size:
            halved_p = (p[rejected, None, :]
                        + _GN_HALVED_SCALES[:, None] * step[rejected, None, :])
            halved_diff = halved_p[:, :, None, :] - anchor_pos
            halved_dist = norm(halved_diff)
            halved_res = halved_dist - d[rejected, None, :]
            lower = (np.add.reduce(halved_res * halved_res, axis=-1)
                     < cost[rejected, None])
            found = lower.any(axis=1)
            first = lower[found].argmax(axis=1)
            taken = rejected[found]
            trial_p[taken] = halved_p[found, first]
            diff[taken] = halved_diff[found, first]
            dist[taken] = halved_dist[found, first]
            res[taken] = halved_res[found, first]
            accepted[taken] = True

        out[rows[accepted]] = trial_p[accepted]
        moving = accepted & (norm(trial_p - p) >= _GN_STEP_TOL_M)
        p, diff, dist, res, d, rows = (
            a[moving] for a in (trial_p, diff, dist, res, d, rows))
    return out
