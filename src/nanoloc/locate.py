"""Trilateration: range estimates to four known anchors -> 3D position.

The anchors share one horizontal plane, as the controllers at the corners
of the metamaterial do.  Subtracting the first anchor's sphere equation
from the others yields a linear system in the unknown (x, y), solved by
least squares; z is recovered from the mean squared range residual, taking
the root on the modeled side of the anchor plane (nodes live above it).
The linear estimate is then refined by damped Gauss-Newton iterations on
the full nonlinear range residuals.

The refinement keeps x, y and z apart as (k, 4) anchor-offset blocks.  Every
length in the package is _norm3's (dx*dx + dy*dy) + dz*dz (norm() is its
vector form): add.reduce's left-to-right order over an axis shorter than 8,
so it keeps the bits of numpy's norm over the last axis.  J^T and J are
separate C-ordered stacks: J^T @ J on one buffer runs as BLAS syrk per 3x3
product, on two as faster gemm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Anchors whose z coordinates differ by at most this (relative to the
# anchor span) share one z-plane.
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
    """Four anchors at known positions (meters, 3D) in one horizontal
    plane, whose (x, y) fix a horizontal position."""

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
        # The ranges give the height above one z-plane, and the reduced
        # system must fix (x, y); the latter rejects collinear anchors.
        scale = max(1.0, self.span_m)
        if float(np.ptp(pos[:, 2])) > _COPLANAR_REL_TOL * scale:
            raise DegenerateGeometryError("anchors must share one z-plane")
        if np.linalg.matrix_rank(self.reduced_lhs, tol=1e-12 * scale) < 2:
            raise DegenerateGeometryError(
                "anchor geometry does not determine a horizontal position")

    @cached_property
    def span_m(self) -> float:
        """Largest pairwise anchor separation; scales tolerances."""
        pos = self.positions
        return float(norm(pos[:, None, :] - pos[None, :, :]).max())

    @cached_property
    def reduced_lhs(self) -> np.ndarray:
        """(3, 2) matrix of the linear system in (x, y) left after
        subtracting the first anchor's sphere equation from the others."""
        pos = self.positions[:, :2]
        return 2.0 * (pos[1:] - pos[0])

    @property
    def z_plane_m(self) -> float:
        return float(self.positions[0, 2])


def trilaterate(anchors: AnchorSet, distances_m: Sequence[float] | np.ndarray
                ) -> np.ndarray:
    """Estimate a 3D position, shape (3,), from four range measurements.

    Negative measurements (possible under heavy noise) are clamped to
    zero.  Never fails on geometry: AnchorSet rejects, when built, anchors
    whose reduced linear system cannot fix a position.
    """
    d = np.asarray(distances_m, dtype=np.float64)
    if d.shape != (4,):
        raise ValueError("distances_m must contain exactly 4 values")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances_m must be finite")
    return trilaterate_batch(anchors, d[None, :])[0]


def localization_error(true_position_m: Sequence[float] | np.ndarray,
                       estimate: Sequence[float] | np.ndarray) -> float:
    """Euclidean distance between the true and estimated positions."""
    true_pos = np.asarray(true_position_m, dtype=np.float64)
    estimated = np.asarray(estimate, dtype=np.float64)
    if true_pos.shape != (3,) or estimated.shape != (3,):
        raise ValueError("positions must be 3D points")
    if not (np.all(np.isfinite(true_pos)) and np.all(np.isfinite(estimated))):
        raise ValueError("positions must be finite")
    return float(norm(true_pos - estimated))


def trilaterate_batch(anchors: AnchorSet, distances_m: np.ndarray,
                      refine: bool = True) -> np.ndarray:
    """Solve many independent 4-range problems against one anchor set.

    distances_m has shape (m, 4); returns positions of shape (m, 3).
    The scalar trilaterate() is a thin wrapper around this.
    """
    d = np.maximum(np.asarray(distances_m, dtype=np.float64), 0.0)
    if d.ndim != 2 or d.shape[1] != 4:
        raise ValueError("distances_m must have shape (m, 4)")
    estimate = _linear_estimate(anchors, d)
    if refine:
        estimate = _gauss_newton_batch(anchors.positions, d, estimate)
    # The mirror image below the anchor plane has identical residuals;
    # keep the modeled half-space.
    z0 = anchors.z_plane_m
    estimate[:, 2] = z0 + np.abs(estimate[:, 2] - z0)
    return estimate


def _linear_estimate(anchors: AnchorSet, d: np.ndarray) -> np.ndarray:
    """(m, 3) linear estimate; its temporaries die before the refinement."""
    pos = anchors.positions
    rhs = (d[:, 0:1] ** 2 - d[:, 1:] ** 2
           + np.sum(pos[1:] ** 2, axis=1)[None, :]
           - float(np.sum(pos[0] ** 2)))                 # (m, 3)
    xy = np.linalg.lstsq(anchors.reduced_lhs, rhs.T, rcond=None)[0].T  # (m, 2)
    # Mean over anchors of d_i^2 - |xy - a_i|^2 estimates the squared
    # height above the anchor plane; noise can push it negative, in
    # which case the node is projected onto the plane.
    dz2 = d ** 2 - np.sum((xy[:, None, :] - pos[None, :, :2]) ** 2, axis=2)
    z_off = np.sqrt(np.maximum(0.0, dz2.mean(axis=1)))
    return np.column_stack([xy, anchors.z_plane_m + z_off])


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length of 3-vectors along the last axis."""
    return _norm3(v[..., 0], v[..., 1], v[..., 2])


def _norm3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Length of vectors given as components, summed in the order of
    numpy's norm over the last axis (add.reduce's, left to right)."""
    return np.sqrt((x * x + y * y) + z * z)


def _gauss_newton_batch(anchor_pos: np.ndarray, d: np.ndarray,
                        p0: np.ndarray) -> np.ndarray:
    """Gauss-Newton on range residuals with backtracking step halving.

    Plain Gauss-Newton can diverge when a node sits near the anchor plane
    (ill-conditioned Jacobian); each step is only accepted if it reduces
    the residual norm, and the step is halved otherwise.  Rows the full
    step does not improve try all halved scales in one batch and take the
    first that lowers the cost; a row that finds none stops.  The working
    arrays hold only the rows still moving, and an accepted trial's anchor
    offsets and ranges build the next Jacobian.  Each stack is freed once
    dead, as the Jacobian build is the memory peak.  p0 is refined in place
    and returned.
    """
    out = p0
    rows = np.arange(p0.shape[0])        # output row of each working row
    anchors = anchor_pos.T[:, None, :]   # (3, 1, 4)
    # (3, k): x, y and z rows.  A copy: the transpose of a Fortran-ordered
    # p0 is already C-ordered, and out must not move with p.
    p = p0.T.copy()
    diff = p[:, :, None] - anchors       # (3, k, 4)
    dist = _norm3(*diff)
    res = dist - d
    for _ in range(_GN_MAX_ITERATIONS):
        if rows.size == 0:
            break
        jt = np.ascontiguousarray(np.divide(
            diff, np.maximum(dist, 1e-18), out=diff).transpose(1, 0, 2))
        del diff
        jac = np.ascontiguousarray(jt.transpose(0, 2, 1))
        hess, grad = jt @ jac, (res[:, None, :] @ jac).reshape(-1, 3, 1)
        del jt, jac
        # Damped normal equations; the damping keeps the solve regular for
        # the rank-deficient Jacobian of points on the anchor plane while
        # staying far below the 1e-9 m step tolerance.
        hess += _GN_DAMPING
        step = -np.linalg.solve(hess, grad)[:, :, 0].T
        del hess, grad

        # From here on diff, dist and res describe the trial positions.
        cost = np.add.reduce(res * res, axis=-1)
        trial_p = p + step
        diff = trial_p[:, :, None] - anchors
        dist = _norm3(*diff)
        res = dist - d
        accepted = np.add.reduce(res * res, axis=-1) < cost
        rejected = np.flatnonzero(~accepted)
        if rejected.size:
            halved_p = (p[:, rejected, None]
                        + _GN_HALVED_SCALES * step[:, rejected, None])
            halved_diff = halved_p[:, :, :, None] - anchors[:, None]
            halved_dist = _norm3(*halved_diff)
            halved_res = halved_dist - d[rejected, None, :]
            lower = (np.add.reduce(halved_res * halved_res, axis=-1)
                     < cost[rejected, None])
            found = lower.any(axis=1)
            first = lower[found].argmax(axis=1)
            taken = rejected[found]
            trial_p[:, taken] = halved_p[:, found, first]
            diff[:, taken] = halved_diff[:, found, first]
            dist[taken] = halved_dist[found, first]
            res[taken] = halved_res[found, first]
            accepted[taken] = True
            del halved_p, halved_diff, halved_dist, halved_res

        out[rows[accepted]] = trial_p[:, accepted].T
        keep = np.flatnonzero(accepted & (_norm3(*(trial_p - p)) >= _GN_STEP_TOL_M))
        p, diff = trial_p.take(keep, 1), diff.take(keep, 1)
        dist, res, d, rows = (a.take(keep, 0) for a in (dist, res, d, rows))
        del step, cost, trial_p, accepted, keep
    return out
