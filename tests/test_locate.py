"""Locate module: trilateration exactness, symmetry handling, error metric."""

import math
import tracemalloc

import numpy as np
import pytest

from nanoloc import locate
from nanoloc.channel import ChannelParams, raw_resolution
from nanoloc.locate import (_GN_MAX_ITERATIONS, _GN_WINDOW_ROWS, AnchorSet,
                            DegenerateGeometryError, _norm3, norm,
                            trilaterate, trilaterate_batch)
from nanoloc.sim import (_LOCATE_CHUNK_ROWS, SimConfig, build_topology,
                         initial_world, run_iteration)

L = 21.6e-3
CORNERS = AnchorSet(positions=np.array([
    [0.0, 0.0, 0.0],
    [L, 0.0, 0.0],
    [0.0, L, 0.0],
    [L, L, 0.0],
]))


def exact_distances(anchors: AnchorSet, point) -> np.ndarray:
    return np.linalg.norm(np.asarray(point)[None, :] - anchors.positions, axis=1)


class TestExactRecovery:
    def test_center_on_anchor_plane(self):
        point = np.array([L / 2, L / 2, 0.0])
        est = trilaterate(CORNERS, exact_distances(CORNERS, point))
        assert np.linalg.norm(est - point) < 1e-9

    def test_mirror_ambiguity_resolved_upward(self):
        point = np.array([L / 2, L / 2, L / 4])
        est = trilaterate(CORNERS, exact_distances(CORNERS, point))
        assert np.linalg.norm(est - point) < 1e-9
        assert est[2] > 0

    def test_random_nodes_in_half_space(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            point = rng.uniform([0, 0, 0], [L, L, L / 2])
            est = trilaterate(CORNERS, exact_distances(CORNERS, point))
            assert np.linalg.norm(est - point) < 1e-9

    @pytest.mark.parametrize("offset_m", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6,
                                          1e-5, 1e-4])
    def test_next_to_each_anchor(self, offset_m):
        # Criterion 8's bound where exact ranges are hardest to invert:
        # offset_m from each anchor, straight up, along both edges, along
        # both diagonals and in random directions into the modeled box.
        rng = np.random.default_rng(24)
        unit = np.vstack([[[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 0],
                           [1, 1, 1]], np.abs(rng.standard_normal((20, 3)))])
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        inward = np.where(CORNERS.positions == 0.0, 1.0, -1.0)
        inward[:, 2] = 1.0
        points = (CORNERS.positions[:, None, :]
                  + offset_m * inward[:, None, :] * unit).reshape(-1, 3)
        ranges = np.linalg.norm(points[:, None, :] - CORNERS.positions, axis=2)
        est = trilaterate_batch(CORNERS, ranges)
        assert np.linalg.norm(est - points, axis=1).max() < 1e-9

    def test_refine_off_still_exact(self):
        point = np.array([3e-3, 15e-3, 7e-3])
        est = trilaterate_batch(CORNERS, exact_distances(CORNERS, point)[None, :],
                                refine=False)[0]
        assert np.linalg.norm(est - point) < 1e-9

    @pytest.mark.parametrize("z_plane", [0.0, 5e-3], ids=["coplanar", "lifted"])
    def test_no_rows(self, z_plane):
        anchors = AnchorSet(positions=CORNERS.positions + [0.0, 0.0, z_plane])
        assert trilaterate_batch(anchors, np.empty((0, 4))).shape == (0, 3)

    def test_lifted_plane(self):
        lifted = AnchorSet(positions=CORNERS.positions + [0.0, 0.0, 5e-3])
        rng = np.random.default_rng(23)
        for _ in range(200):
            point = rng.uniform([0, 0, 5e-3], [L, L, 5e-3 + L / 2])
            est = trilaterate(lifted, exact_distances(lifted, point))
            assert np.linalg.norm(est - point) < 1e-9

    def test_noncoplanar_anchors_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="z-plane"):
            AnchorSet(positions=np.array([
                [0.0, 0.0, 0.0],
                [L, 0.0, 0.0],
                [0.0, L, 0.0],
                [L / 2, L / 2, L / 2],
            ]))


class TestEquivariance:
    def test_rotation_about_z_and_translation(self):
        rng = np.random.default_rng(24)
        theta = 0.7
        rot = np.array([
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        shift = np.array([0.13, -0.05, 0.02])
        point = rng.uniform([0, 0, 0], [L, L, L / 2])
        noisy = exact_distances(CORNERS, point) + 1e-4 * rng.standard_normal(4)

        base = trilaterate(CORNERS, noisy)
        moved = AnchorSet(positions=CORNERS.positions @ rot.T + shift)
        transformed = trilaterate(moved, noisy)
        expected = base @ rot.T + shift
        assert np.linalg.norm(transformed - expected) < 1e-9


class TestDegenerateGeometry:
    def test_collinear_anchors_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            AnchorSet(positions=np.array([
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [2.0, 0.0, 0.0],
                [3.0, 0.0, 0.0],
            ]))

    def test_coincident_anchors_rejected(self):
        with pytest.raises(ValueError):
            AnchorSet(positions=np.array([
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]))

    def test_tilted_coplanar_anchors_rejected(self):
        # Coplanar in a non-horizontal plane: the anchors do not share
        # one z-plane, so the ranges give no height above it.
        with pytest.raises(DegenerateGeometryError):
            AnchorSet(positions=np.array([
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 1.0],
                [0.0, 1.0, 1.0],
                [1.0, 1.0, 2.0],
            ]))


class TestMalformedInput:
    @pytest.mark.parametrize("function, args, message", [
        (AnchorSet, (CORNERS.positions[:3],), r"shape \(4, 3\)"),
        (AnchorSet, (CORNERS.positions + [0.0, 0.0, math.inf],), "finite"),
        (trilaterate, (CORNERS, [L, L, L]), "exactly 4 values"),
        (trilaterate, (CORNERS, [L, L, L, math.nan]), "finite"),
        (trilaterate_batch, (CORNERS, np.full((2, 3), L)), r"shape \(m, 4\)"),
    ], ids=["anchor_shape", "anchor_inf", "range_count", "range_nan",
            "batch_shape"])
    def test_rejected(self, function, args, message):
        with pytest.raises(ValueError, match=message):
            function(*args)


class TestNoisyInput:
    def test_negative_distances_are_clamped(self):
        point = np.array([1e-4, 1e-4, 0.0])
        d = exact_distances(CORNERS, point)
        d[0] = -2e-4
        est = trilaterate(CORNERS, d)
        assert np.all(np.isfinite(est))
        assert est[2] >= 0.0

    def test_z_clamped_into_half_space(self):
        rng = np.random.default_rng(25)
        sigma = 3e-4
        for _ in range(200):
            point = rng.uniform([0, 0, 0], [L, L, L / 2])
            noisy = exact_distances(CORNERS, point) + sigma * rng.standard_normal(4)
            est = trilaterate(CORNERS, noisy)
            assert est[2] >= 0.0

    def test_refinement_does_not_hurt_accuracy(self):
        rng = np.random.default_rng(26)
        sigma = 3e-4
        plain = []
        refined = []
        for _ in range(400):
            point = rng.uniform([0, 0, 0], [L, L, L / 2])
            noisy = exact_distances(CORNERS, point) + sigma * rng.standard_normal(4)
            plain.append(np.linalg.norm(
                trilaterate_batch(CORNERS, noisy[None, :], refine=False)[0] - point))
            refined.append(np.linalg.norm(trilaterate(CORNERS, noisy) - point))
        assert np.mean(refined) <= np.mean(plain) * 1.05

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(27)
        points = rng.uniform([0, 0, 0], [L, L, L / 2], size=(64, 3))
        dmat = np.linalg.norm(points[:, None, :] - CORNERS.positions[None, :, :],
                              axis=2) + 2e-4 * rng.standard_normal((64, 4))
        batch = trilaterate_batch(CORNERS, dmat)
        for i in range(64):
            single = trilaterate(CORNERS, dmat[i])
            assert np.linalg.norm(batch[i] - single) < 1e-12


def _reference_range_residuals(anchor_pos, d, p):
    return np.linalg.norm(p[:, None, :] - anchor_pos[None, :, :], axis=2) - d


def _reference_gauss_newton_batch(anchor_pos, d, p0, passes=None):
    """The step-halving refinement as first written: one backtracking
    round of numpy calls per halving, every row of the call in step.  The
    batched line search must give the same bits.  passes, if given, counts
    each row's passes."""
    p = p0.copy()
    res = _reference_range_residuals(anchor_pos, d, p)
    cost = np.sum(res ** 2, axis=1)
    active = np.ones(p.shape[0], dtype=bool)
    for _ in range(20):
        if not np.any(active):
            break
        if passes is not None:
            passes[active] += 1
        pa = p[active]
        ra = res[active]
        diff = pa[:, None, :] - anchor_pos[None, :, :]
        ranges = np.linalg.norm(diff, axis=2)
        jac = diff / np.maximum(ranges[:, :, None], 1e-18)
        jt = np.swapaxes(jac, 1, 2)
        hess = jt @ jac + 1e-9 * np.eye(3)
        grad = (jt @ ra[:, :, None])
        step = -np.linalg.solve(hess, grad)[:, :, 0]
        scale = np.ones(len(pa))
        accepted = np.zeros(len(pa), dtype=bool)
        trial_p = pa.copy()
        trial_res = ra.copy()
        trial_cost = cost[active].copy()
        for _ in range(8):
            pending = ~accepted
            if not np.any(pending):
                break
            candidate = pa[pending] + scale[pending, None] * step[pending]
            cand_res = _reference_range_residuals(
                anchor_pos, d[active][pending], candidate)
            cand_cost = np.sum(cand_res ** 2, axis=1)
            better = cand_cost < trial_cost[pending]
            idx = np.flatnonzero(pending)[better]
            trial_p[idx] = candidate[better]
            trial_res[idx] = cand_res[better]
            trial_cost[idx] = cand_cost[better]
            accepted[idx] = True
            scale[np.flatnonzero(pending)[~better]] *= 0.5
        moved = np.linalg.norm(trial_p - pa, axis=1)
        p[active] = trial_p
        res[active] = trial_res
        cost[active] = trial_cost
        still = accepted & (moved >= 1e-9)
        next_active = active.copy()
        next_active[active] = still
        active = next_active
    return p


def _bit_exact_corpus():
    """(anchors, distances) cases covering every line-search path."""
    config = SimConfig()
    topology = build_topology(config)
    anchors = topology.anchors
    pos = anchors.positions
    d = config.edge_length_m
    rng = np.random.default_rng(28)

    def ranges(points):
        return np.linalg.norm(points[:, None, :] - pos[None, :, :], axis=2)

    nodes = ranges(topology.node_true_positions)
    near_plane = rng.uniform([0, 0, 0], [d, d, 1e-6], size=(200, 3))
    clamped = ranges(rng.uniform([0, 0, 0], [d, d, d / 2], size=(100, 3)))
    clamped[::3, 0] = -rng.uniform(0.0, 1e-3, size=clamped[::3].shape[0])
    clamped[1::3, 1:3] = -1e-4
    cases = [
        # Exact ranges: the full step and every halving fail to lower the
        # cost once the estimate is converged.
        pytest.param(anchors, nodes, id="exact"),
        pytest.param(anchors, ranges(near_plane), id="near_plane_exact"),
        pytest.param(anchors, ranges(np.vstack([pos, pos + 1e-7])),
                     id="on_anchor"),
        pytest.param(anchors, clamped, id="clamped_negative"),
    ]
    for bandwidth in (1e12, 1e11):
        sigma = raw_resolution(bandwidth)
        cases.append(pytest.param(
            anchors, nodes + sigma * rng.standard_normal(nodes.shape),
            id=f"nodes_bw{bandwidth:g}"))
        cases.append(pytest.param(
            anchors, ranges(near_plane) + sigma * rng.standard_normal((200, 4)),
            id=f"near_plane_bw{bandwidth:g}"))
    return cases


def _reference_refinement(anchors, d, out, passes=None):
    """_gauss_newton_batch's contract, met by the reference: the estimates
    in out refined in place against the clamped ranges."""
    out[:] = _reference_gauss_newton_batch(
        anchors.positions, np.maximum(d, 0.0), out, passes)


class TestRefinementBitExact:
    @pytest.mark.parametrize("anchors, distances", _bit_exact_corpus())
    def test_matches_step_halving_reference(self, monkeypatch, anchors,
                                            distances):
        actual = trilaterate_batch(anchors, distances)
        monkeypatch.setattr(locate, "_gauss_newton_batch",
                            _reference_refinement)
        expected = trilaterate_batch(anchors, distances)
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("anchors, distances", _bit_exact_corpus())
    def test_linear_stage_reads_clamped_ranges(self, anchors, distances):
        # The reference refines the estimates it is given, so the linear
        # stage both settings share is pinned here.
        assert np.array_equal(
            trilaterate_batch(anchors, distances, refine=False),
            locate._linear_estimate(anchors, np.maximum(distances, 0.0)))

    def test_corpus_reaches_the_pass_cap(self):
        # Each row counts its own passes; a row still moving at the cap
        # checks that count against the reference's shared loop bound.
        capped = 0
        for case in _bit_exact_corpus():
            anchors, distances = case.values
            passes = np.zeros(len(distances), dtype=int)
            # The linear stage both settings share.
            estimate = trilaterate_batch(anchors, distances, refine=False)
            _reference_refinement(anchors, distances, estimate, passes)
            capped += np.count_nonzero(passes == _GN_MAX_ITERATIONS)
        assert capped > 0


class TestNumpyOrder:
    """Two numpy behaviours the refinement's bits rest on.  If numpy changes
    either, TestRefinementBitExact fails; these say which assumption broke."""

    def test_norm_sums_components_left_to_right(self):
        # The pinned result hashes were first computed with np.linalg.norm.
        rng = np.random.default_rng(31)
        v = rng.standard_normal((100_000, 3)) * 10.0 ** rng.uniform(-6, 2, (100_000, 3))
        x, y, z = v.T
        assert np.array_equal(_norm3(x, y, z), np.linalg.norm(v, axis=-1)), (
            "numpy's add.reduce no longer sums a length-3 axis left to right: "
            "locate._norm3 must change its order to keep np.linalg.norm's bits")

    def test_contiguous_transpose_product_equals_swapaxes_view(self):
        rng = np.random.default_rng(32)
        jac = rng.standard_normal((1024, 4, 3)) * 10.0 ** rng.uniform(-3, 3, (1024, 4, 1))
        jt = np.ascontiguousarray(np.swapaxes(jac, 1, 2))
        assert np.array_equal(jt @ jac, np.swapaxes(jac, 1, 2) @ jac), (
            "J^T @ J on a contiguous transpose (BLAS gemm) no longer equals "
            "the swapaxes view product (syrk): the Hessian stacks in "
            "locate._gauss_newton_batch must change to keep their bits")
        # The gradient must stay r @ J although the pass holds the contiguous
        # stack jt: jt @ r[:, :, None] gives other bits (numpy 2.4.6, on random
        # stacks of 1 to 2048 rows), and in the pass it moves the seed-0 result
        # hash.  Only the swapaxes view's J^T @ r has r @ J's bits.
        res = rng.standard_normal((1024, 4))
        assert np.array_equal((res[:, None, :] @ jac)[:, 0, :],
                              (np.swapaxes(jac, 1, 2) @ res[:, :, None])[:, :, 0]), (
            "r @ J no longer equals the swapaxes view's J^T @ r bit for bit; "
            "the gradient in locate._gauss_newton_pass is r @ J, not the "
            "contiguous jt @ r, whose bits differ")


class TestRowIndependence:
    """A row's estimate must not depend on the other rows of its call:
    the simulator solves many periods' rows together, in chunks, and the
    refinement streams a chunk's rows through its window."""

    @pytest.mark.parametrize("anchors, distances", _bit_exact_corpus())
    @pytest.mark.parametrize("split", ["single_rows", "uneven", "chunk_rows",
                                       "window_refill"])
    def test_parts_equal_whole(self, anchors, distances, split):
        if split == "chunk_rows":
            # Enough rows for two full chunks and a shorter last one.
            copies = 2 * _LOCATE_CHUNK_ROWS // len(distances) + 2
            distances = np.tile(distances, (copies, 1))
            cuts = np.arange(_LOCATE_CHUNK_ROWS, len(distances),
                             _LOCATE_CHUNK_ROWS)
        elif split == "window_refill":
            # More rows than the window: whole, every stopped row's slot
            # takes a new row; in parts that are no multiple of the window,
            # the rows meet other rows in their passes.
            copies = 2 * _GN_WINDOW_ROWS // len(distances) + 2
            distances = np.tile(distances, (copies, 1))
            cuts = np.cumsum([_GN_WINDOW_ROWS // 3, _GN_WINDOW_ROWS + 7])
        elif split == "single_rows":
            cuts = np.arange(1, len(distances))
        else:
            cuts = np.cumsum([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233])
            cuts = cuts[cuts < len(distances)]
        whole = trilaterate_batch(anchors, distances)
        parts = [trilaterate_batch(anchors, part)
                 for part in np.split(distances, cuts)]
        assert len(parts) > 1
        assert np.array_equal(whole, np.concatenate(parts))


    @pytest.mark.parametrize("anchors, distances", _bit_exact_corpus())
    def test_linear_blocks_equal_parts(self, anchors, distances):
        # Unrefined, the linear stage runs in window-sized blocks.
        copies = _GN_WINDOW_ROWS // len(distances) + 2
        distances = np.tile(distances, (copies, 1))
        whole = trilaterate_batch(anchors, distances, refine=False)
        parts = [trilaterate_batch(anchors, part, refine=False)
                 for part in np.split(distances, [7, _GN_WINDOW_ROWS + 3])]
        assert np.array_equal(whole, np.concatenate(parts))


class TestRefinementMemory:
    def test_peak_heap_per_row(self):
        # A simulator-sized call: its (m, 3) linear estimates, refined in
        # place, 24 B per row, are the only allocation that grows with m.
        # The rest is bounded by the window and peaks at the Jacobian build,
        # after the linear stage's blocks have died.  Per window row: the
        # positions and trial positions, measured ranges, row index and
        # pass count (24 + 24 + 32 + 8 + 1), the pass's ranges and costs
        # (32 + 8), J^T and J (96 each), the Hessian (72) and gradient (24)
        # add up to 417 B; the last pass's masks and stopped slots add up to
        # 10.  Keeping a Jacobian stack or the Hessian alive past its last
        # use adds 72 B per row or more.
        config = SimConfig()
        topology = build_topology(config)
        anchors = topology.anchors
        nodes = np.linalg.norm(topology.node_true_positions[:, None, :]
                               - anchors.positions[None, :, :], axis=2)
        copies = -(-_LOCATE_CHUNK_ROWS // len(nodes))
        d = np.tile(nodes, (copies, 1))[:_LOCATE_CHUNK_ROWS]
        rng = np.random.default_rng(33)
        sigma = raw_resolution(config.channel.bandwidth_hz)
        d = d + sigma * rng.standard_normal(d.shape)
        assert len(d) > 2 * _GN_WINDOW_ROWS
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = trilaterate_batch(anchors, d, refine=False)
            locate._gauss_newton_batch(anchors, d, out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert (peak - 24 * len(d)) / _GN_WINDOW_ROWS < 448


def _horizontal_crlb(points: np.ndarray, anchor_pos: np.ndarray,
                     sigma: float) -> np.ndarray:
    """Cramér-Rao bound on the squared horizontal error of an unbiased
    estimate at each point, for range noise of standard deviation sigma:
    sigma^2 trace of the xy block of (J^T J)^-1, J's rows being the unit
    vectors from the anchors to the point."""
    diff = points[:, None, :] - anchor_pos[None, :, :]
    unit = diff / np.linalg.norm(diff, axis=2, keepdims=True)
    info = np.einsum("kai,kaj->kij", unit, unit)
    a, b, c = info[:, :2, :2], info[:, :2, 2], info[:, 2, 2]
    # The xy block of the inverse is the inverse of the Schur complement
    # F = A - b b^T / c, which stays well conditioned for nodes near the
    # anchor plane, where c and b vanish together.
    f = a - b[:, :, None] * b[:, None, :] / c[:, None, None]
    det = f[:, 0, 0] * f[:, 1, 1] - f[:, 0, 1] * f[:, 1, 0]
    return sigma ** 2 * (f[:, 0, 0] + f[:, 1, 1]) / det


class TestCramerRaoBound:
    # Seed-0 defaults: every successful row of the run, solved in the
    # simulator's chunks.  The bound comes from the true positions and
    # anchors alone; the tolerance is four standard errors of the mean
    # squared error, from the rows' own spread.

    def test_defaults_reach_the_horizontal_bound(self):
        ratio, se, rows = _crlb_ratio(SimConfig())
        assert abs(ratio - 1.0) <= 4.0 * se, (
            f"mean squared xy error / CRLB = {ratio:.5f}, "
            f"z = {(ratio - 1.0) / se:.2f} over {rows} rows")

    def test_rows_above_the_noise_meet_the_bound_at_100_ghz(self):
        # At 100 GHz sigma = c/B is 3 mm, and folding the estimate into
        # z >= 0 biases the rows near the anchor plane, where the bound for
        # unbiased estimates need not hold: over all rows the ratio reads
        # below 1.  On rows more than sigma above the plane the error must
        # not beat the bound by more than four standard errors.
        config = SimConfig(channel=ChannelParams(bandwidth_hz=1e11))
        ratio, se, rows = _crlb_ratio(config, min_height_m=raw_resolution(1e11))
        assert ratio >= 1.0 - 4.0 * se, (
            f"mean squared xy error / CRLB = {ratio:.5f}, "
            f"z = {(ratio - 1.0) / se:.2f} over {rows} rows")


def _crlb_ratio(config: SimConfig, min_height_m: float = -math.inf
                ) -> tuple[float, float, int]:
    """Mean squared horizontal error over mean horizontal CRLB of a run's
    successful rows whose true height above the anchor plane exceeds
    min_height_m, its standard error and the row count."""
    world = initial_world(config)
    anchors = world.topology.anchors
    measured, truth = [], []
    for t in range(config.iterations):
        result = run_iteration(world, config, t)
        measured.append(result.measured)
        truth.append(world.topology.node_true_positions[result.success])
    measured, truth = np.concatenate(measured), np.concatenate(truth)
    estimates = np.concatenate([
        trilaterate_batch(anchors, measured[start:start + _LOCATE_CHUNK_ROWS])
        for start in range(0, len(measured), _LOCATE_CHUNK_ROWS)])
    high = truth[:, 2] - anchors.z_plane_m > min_height_m
    estimates, truth = estimates[high], truth[high]
    squared = np.sum((estimates - truth)[:, :2] ** 2, axis=1)
    bound = _horizontal_crlb(truth, anchors.positions,
                             raw_resolution(config.channel.bandwidth_hz))
    se = squared.std(ddof=1) / math.sqrt(squared.size) / bound.mean()
    return squared.mean() / bound.mean(), se, squared.size


class TestLocalizationError:
    """run_simulation's error: norm of the estimate less the true position."""

    def test_identical_points(self):
        point = np.array([1.0, 2.0, 3.0])
        assert norm(point - point) == 0.0

    def test_three_four_five(self):
        assert norm(np.array([3e-3, 4e-3, 0.0]) - np.zeros(3)) == \
            pytest.approx(5e-3, rel=1e-12)

    def test_unit_diagonal(self):
        assert norm(np.full(3, 2e-3) - np.full(3, 1e-3)) == \
            pytest.approx(math.sqrt(3) * 1e-3, rel=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            a, b, c = rng.uniform(-1, 1, size=(3, 3))
            dab = norm(a - b)
            assert dab >= 0.0
            assert dab == norm(b - a)
            assert norm(a - a) == 0.0
            assert dab <= norm(a - c) + norm(c - b) + 1e-12
