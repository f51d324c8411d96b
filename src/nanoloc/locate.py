"""Trilateration: range estimates to four known anchors -> 3D position.

The anchors share one horizontal plane, as the controllers at the corners
of the metamaterial do.  Subtracting the first anchor's sphere equation
from the others yields a linear system in the unknown (x, y), solved by
least squares; z is recovered from the mean squared range residual, taking
the root on the modeled side of the anchor plane (nodes live above it).
A call runs this linear stage once, in blocks of _GN_WINDOW_ROWS rows,
then refines its estimates in place by damped Gauss-Newton iterations on
the full nonlinear range residuals, the rows streaming through a window of
at most _GN_WINDOW_ROWS rows, each row with its own pass count.

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
# Added to the diagonal of each J^T J.
_GN_DAMPING = 1e-9
# Rows one refinement pass solves at most; bounds the solver's memory.
_GN_WINDOW_ROWS = 2048
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


def trilaterate_batch(anchors: AnchorSet, distances_m: np.ndarray,
                      refine: bool = True) -> np.ndarray:
    """Solve many independent 4-range problems against one anchor set.

    distances_m has shape (m, 4); returns positions of shape (m, 3).
    The scalar trilaterate() is a thin wrapper around this.
    """
    d = np.asarray(distances_m, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != 4:
        raise ValueError("distances_m must have shape (m, 4)")
    # The linear stage runs in window-sized blocks, each clamping its
    # negative ranges to zero.  Its lstsq runs on such blocks only: over a
    # few thousand right-hand sides OpenBLAS may split it into threads.  On
    # a 2-core host running two such processes, 4096 of them took 2 to 4 us
    # per row against 0.08 us at 2048 (alone, both took about 0.05 us).
    estimate = np.empty((len(d), 3))
    for start in range(0, len(d), _GN_WINDOW_ROWS):
        block = np.maximum(d[start:start + _GN_WINDOW_ROWS], 0.0)
        estimate[start:start + len(block)] = _linear_estimate(anchors, block)
    if refine:
        _gauss_newton_batch(anchors, d, estimate)
    # The mirror image below the anchor plane has identical residuals;
    # keep the modeled half-space.
    z0 = anchors.z_plane_m
    estimate[:, 2] = z0 + np.abs(estimate[:, 2] - z0)
    return estimate


def _linear_estimate(anchors: AnchorSet, d: np.ndarray) -> np.ndarray:
    """(m, 3) linear estimate, its height summed one anchor at a time."""
    pos = anchors.positions
    squared = d * d
    rhs = squared[:, 0:1] - squared[:, 1:]
    rhs += np.sum(pos[1:] ** 2, axis=1)
    rhs -= float(np.sum(pos[0] ** 2))                    # (m, 3)
    x, y = np.linalg.lstsq(anchors.reduced_lhs, rhs.T, rcond=None)[0]
    del rhs
    # Mean over anchors of d_i^2 - |xy - a_i|^2 estimates the squared
    # height above the anchor plane; noise can push it negative, in
    # which case the node is projected onto the plane.

    def term(j: int) -> np.ndarray:
        dx, dy = x - pos[j, 0], y - pos[j, 1]
        return squared[:, j] - (dx * dx + dy * dy)

    # Left to right, as the mean's add.reduce sums an axis shorter than 8.
    height2 = ((term(0) + term(1)) + term(2)) + term(3)
    z_off = np.sqrt(np.maximum(0.0, height2 / 4))
    return np.column_stack([x, y, anchors.z_plane_m + z_off])


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length of 3-vectors along the last axis."""
    return _norm3(v[..., 0], v[..., 1], v[..., 2])


def _norm3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Length of vectors given as components, summed in the order of
    numpy's norm over the last axis (add.reduce's, left to right)."""
    return np.sqrt((x * x + y * y) + z * z)


def _anchor_ranges(p: np.ndarray, anchor_cols: np.ndarray,
                   offsets: np.ndarray, ranges: np.ndarray) -> None:
    """Offsets (3, k, 4) of positions p (3, k) from the anchors, written one
    anchor column at a time, and their lengths (k, 4) in _norm3's order."""
    for j in range(4):
        np.subtract(p, anchor_cols[j], out=offsets[:, :, j])
    x, y, z = offsets
    np.multiply(x, x, out=ranges)
    square = y * y
    ranges += square
    np.multiply(z, z, out=square)
    ranges += square
    np.sqrt(ranges, out=ranges)


def _sum_of_squares(r: np.ndarray) -> np.ndarray:
    """Sum over the last (length 4) axis of r * r, left to right as
    add.reduce sums an axis shorter than 8."""
    q = r * r
    total = q[..., 0] + q[..., 1]
    total += q[..., 2]
    total += q[..., 3]
    return total


def _gauss_newton_pass(anchors: AnchorSet, x: np.ndarray, t: np.ndarray,
                       dk: np.ndarray) -> np.ndarray:
    """One pass over k rows at positions x (3, k) with measured ranges dk
    (k, 4): writes the accepted trial positions to t, or x where no trial
    lowers the cost, and returns the accepted mask.  Every array it makes
    dies on return.
    """
    k = x.shape[1]
    anchor_cols = anchors.positions[:, :, None]            # (4, 3, 1)
    r = np.empty((k, 4))
    # One buffer holds the anchor offsets, then J^T (k, 3, 4), then the
    # trial's anchor offsets; J (k, 4, 3) is a separate C-ordered stack,
    # freed once dead, as the Jacobian build is the memory peak.
    buffer = np.empty(12 * k)
    offsets = buffer.reshape(3, k, 4)
    _anchor_ranges(x, anchor_cols, offsets, r)
    jac = np.empty((k, 4, 3))
    np.divide(offsets, np.maximum(r, 1e-18), out=jac.transpose(2, 0, 1))
    jt = buffer.reshape(k, 3, 4)
    np.copyto(jt, jac.transpose(0, 2, 1))
    r -= dk                                             # residuals
    cost = _sum_of_squares(r)
    hess, grad = jt @ jac, (r[:, None, :] @ jac).reshape(k, 3, 1)
    del jac
    # Damped normal equations; the damping keeps the solve regular for
    # the rank-deficient Jacobian of points on the anchor plane while
    # staying far below the 1e-9 m step tolerance.  One diagonal entry
    # at a time: an in-place add through a 2-D strided view buffers.
    for i in range(3):
        hess[:, i, i] += _GN_DAMPING
    # The step is minus the solution: x - s * solved is x + s * step
    # bit for bit, as IEEE subtraction adds the negated operand.
    solved = np.linalg.solve(hess, grad)[:, :, 0].T
    del hess, grad

    np.subtract(x, solved, out=t)
    _anchor_ranges(t, anchor_cols, offsets, r)
    r -= dk
    accepted = _sum_of_squares(r) < cost
    rejected = np.flatnonzero(~accepted)
    if rejected.size:
        halved = (x[:, rejected, None]
                  - _GN_HALVED_SCALES * solved[:, rejected, None])
        halved_res = (_norm3(*(halved[:, :, :, None]
                               - anchors.positions.T[:, None, None, :]))
                      - dk[rejected, None, :])
        lower = _sum_of_squares(halved_res) < cost[rejected, None]
        found = lower.any(axis=1)
        first = halved[:, np.arange(rejected.size), lower.argmax(axis=1)]
        t[:, rejected] = np.where(found, first, x[:, rejected])
        accepted[rejected] = found
    return accepted


def _gauss_newton_batch(anchors: AnchorSet, d: np.ndarray,
                        out: np.ndarray) -> None:
    """Refine the (m, 3) estimates in out, in place, by Gauss-Newton on the
    range residuals, with backtracking step halving.  The measured ranges
    d (m, 4) are clamped at zero as each row is read.

    Plain Gauss-Newton can diverge when a node sits near the anchor plane
    (ill-conditioned Jacobian); each step is only accepted if it reduces
    the residual norm, and the step is halved otherwise.  Rows the full
    step does not improve try all halved scales in one batch and take the
    first that lowers the cost; a row that finds none stops, as does a row
    that moved less than the step tolerance or made its last pass.

    The rows stream through a window of at most _GN_WINDOW_ROWS slots, each
    with its own pass counter: a stopped row's slot takes the call's next
    row in place, so every pass but those of the call's last rows is a full
    window, and a pass where no row stops moves no row.  A row of out is
    read as the row joins and written once, when it stops.  Each pass
    recomputes its positions' anchor offsets, which costs less than carrying
    them through a refill.  Every row keeps the floating-point operations it
    would have alone, so a row's result does not depend on the others.
    """
    m = d.shape[0]
    size = min(m, _GN_WINDOW_ROWS)
    # Slot i holds row rows[i] of the call, at position p[:, i] (x, y and z
    # rows), with its measured ranges dw[i] and the passes it has made.
    p, trial = np.empty((3, size)), np.empty((3, size))
    dw = np.empty((size, 4))
    rows = np.empty(size, dtype=np.intp)
    passes = np.empty(size, dtype=np.int8)
    k, free = size, np.arange(size)
    joined = 0
    while True:
        new = min(free.size, m - joined)
        if new:
            slots = free[:new]
            p[:, slots] = out[joined:joined + new].T
            dw[slots] = np.maximum(d[joined:joined + new], 0.0)
            rows[slots] = np.arange(joined, joined + new)
            passes[slots] = 0
            joined += new
        if new < free.size:
            # The call has no rows left to join: drop the idle slots.
            kept = np.delete(np.arange(k), free[new:])
            k = kept.size
            p[:, :k] = p[:, kept]
            for array in (dw, rows, passes):
                array[:k] = array[kept]
        if k == 0:
            return

        x, t = p[:, :k], trial[:, :k]
        accepted = _gauss_newton_pass(anchors, x, t, dw[:k])
        passes[:k] += 1
        moving = (accepted & (_norm3(*(t - x)) >= _GN_STEP_TOL_M)
                  & (passes[:k] < _GN_MAX_ITERATIONS))
        free = np.flatnonzero(~moving)
        out[rows[free]] = t[:, free].T
        p, trial = trial, p
