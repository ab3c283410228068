import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rtensor.corona import (
    AberrationState,
    SceneConfig,
    TrustRegionOptions,
    fft2,
    hess_mult,
    ifft2,
    make_aberration,
    make_ground_truth,
    make_instance,
    make_source,
    optimize,
    sse,
    state_at,
    hess_mult_cached,
)
from rtensor.errors import BoundsError, DimMismatchError, SpecError
from rtensor.corona.model import _rev
from rtensor.corona.optimize import _DIAG_FLOOR, _jacobi_scaling, _steihaug

from oracles import azimuthal_profile, count_local_minima, rt_model


def small_instance(m=8, n=8, seed=11, phi_seed=6, phi_scale=0.3):
    rng = np.random.default_rng(seed)
    gt = np.abs(rng.standard_normal((m, n)))
    r = np.hypot(*np.meshgrid(np.arange(m) - m // 2, np.arange(n) - n // 2, indexing="ij"))
    wb = (r < 1) | (r > 3)
    gt[wb] = 0
    phi_true = make_aberration(m, n, 5)
    xa = np.real(ifft2(fft2(gt) * np.exp(1j * phi_true)))
    phi = make_aberration(m, n, phi_seed) * phi_scale
    return xa, wb, phi


# -- scene ---------------------------------------------------------------------


def test_source_normalized_and_centered():
    src = make_source(64, 64)
    assert src.max() == 1.0
    assert src[32, 32] == 1.0
    assert src.min() >= 0.0


def test_source_has_rings_at_full_format():
    src = make_source(401, 401)
    profile = azimuthal_profile(src)
    assert count_local_minima(profile[:150]) >= 3


def test_source_rejects_tiny_formats():
    with pytest.raises(SpecError):
        make_source(8, 8)


def test_ground_truth_background_zero_and_mask_radial():
    src = make_source(64, 64)
    gt, wb = make_ground_truth(src)
    assert np.all(gt[wb] == 0.0)
    assert gt.min() >= 0.0
    # mask value depends only on the distance to the center
    r = np.hypot(*np.meshgrid(np.arange(64) - 32, np.arange(64) - 32, indexing="ij"))
    for d in np.unique(r.ravel()):
        assert len(set(wb[r == d].tolist())) == 1


@pytest.mark.parametrize("m, n", [(16, 16), (17, 17), (37, 37), (127, 127), (16, 40), (41, 16)])
def test_ground_truth_planets_lie_inside_the_annulus(m, n):
    src = make_source(m, n)
    gt, wb = make_ground_truth(src)
    planets = gt != np.where(wb, 0.0, np.sqrt(src))
    assert np.all(gt[wb] == 0.0)
    # one disc on each side of the center
    rows, cols = np.nonzero(planets)
    assert np.any(rows < m // 2) and np.any(rows > m // 2)
    assert np.any(cols < n // 2) and np.any(cols > n // 2)


def test_aberration_antisymmetric_and_pinned_entries():
    for m, n in [(8, 8), (9, 7), (16, 12)]:
        phi = make_aberration(m, n, 3)
        flipped = phi[(-np.arange(m)) % m][:, (-np.arange(n)) % n]
        np.testing.assert_array_equal(phi, -flipped)
        assert phi[0, 0] == 0.0
        free = np.abs(phi) > 0
        assert np.all(np.abs(phi[free]) <= np.pi)


def test_aberration_keeps_images_real():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16))
    phi = make_aberration(16, 16, 1)
    out = ifft2(fft2(x) * np.exp(1j * phi))
    assert np.abs(out.imag).max() <= 1e-10 * np.abs(x).max()


def test_instance_solves_exactly_at_negated_phase():
    inst = make_instance(SceneConfig(size=32, seed=2))
    e, _, _ = sse(-inst.phi_true, inst.aberrated, inst.mask)
    assert e <= 1e-20


# -- sse / gradient -------------------------------------------------------------


def test_sse_zero_on_ground_truth():
    inst = make_instance(SceneConfig(size=32, seed=1))
    e, grad, xt = sse(np.zeros_like(inst.ground_truth), inst.ground_truth, inst.mask,
                      want_gradient=True)
    assert e <= 1e-20
    assert np.abs(grad).max() <= 1e-12


def test_sse_nonnegative_and_matches_direct_loop():
    xa, wb, phi = small_instance(16, 16)
    e, _, xt = sse(phi, xa, wb)
    direct = 0.0
    for r in range(16):
        for c in range(16):
            if wb[r, c] or (not wb[r, c] and xt[r, c] < 0):
                direct += xt[r, c] ** 2
    assert e >= 0
    np.testing.assert_allclose(e, direct, rtol=1e-12)


def test_foreground_mask_orthogonal_to_background():
    xa, wb, phi = small_instance(16, 16)
    _, _, xt = sse(phi, xa, wb)
    wf = ~wb & (xt < 0)
    assert not np.any(wf & wb)


def test_sse_shape_checks():
    xa, wb, phi = small_instance()
    with pytest.raises(DimMismatchError):
        sse(phi[:4], xa, wb)
    with pytest.raises(DimMismatchError):
        sse(phi, xa, wb.astype(float))


def test_hess_mult_checks_mask_like_sse():
    xa, wb, phi = small_instance()
    _, _, xt = sse(phi, xa, wb)
    for mask in (wb.astype(int), wb.astype(int).tolist()):
        with pytest.raises(DimMismatchError):
            hess_mult(xt, np.ones((8, 8)), mask)
    np.testing.assert_array_equal(hess_mult(xt, np.ones((8, 8)), wb.tolist()), hess_mult(xt, np.ones((8, 8)), wb))


def test_complex_image_rejected_before_any_cast():
    # a float64 cast would drop the imaginary part with only a ComplexWarning
    xa = np.ones((8, 8)) + 1j
    mask = np.zeros((8, 8), dtype=bool)
    real = np.ones((8, 8))
    state = state_at(np.zeros((8, 8)), real, mask)
    for run in (lambda: sse(np.zeros((8, 8)), xa, mask),
                lambda: state_at(np.zeros((8, 8)), xa, mask),
                lambda: sse(xa, real, mask),
                lambda: optimize(xa, mask, TrustRegionOptions(max_iter=1)),
                lambda: hess_mult(xa, real, mask),
                lambda: hess_mult(real, xa, mask),
                lambda: hess_mult_cached(state, xa)):
        with pytest.raises(DimMismatchError):
            run()


def test_gradient_matches_central_differences():
    xa, wb, phi = small_instance()
    e, grad, xt = sse(phi, xa, wb, want_gradient=True)
    assert np.abs(xt[~wb]).min() > 1e-3  # away from mask switches
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(20):
        d = rng.standard_normal(phi.shape)
        ep, _, _ = sse(phi + eps * d, xa, wb)
        em, _, _ = sse(phi - eps * d, xa, wb)
        fd = (ep - em) / (2 * eps)
        an = float((grad * d).sum())
        assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an))


def test_gradient_zero_where_error_zero():
    inst = make_instance(SceneConfig(size=32, seed=4))
    e, grad, _ = sse(-inst.phi_true, inst.aberrated, inst.mask, want_gradient=True)
    assert np.abs(grad).max() <= 1e-10


# -- hessian multiply -------------------------------------------------------------


def test_hess_mult_shape_check():
    # a (1, 1, P) step must not broadcast to a full (M*N) x P result
    xa, wb, phi = small_instance()
    state = state_at(phi, xa, wb)
    for steps in ((4, 8, 2), (1, 1, 2), (8,), (8, 8, 2, 1)):
        with pytest.raises(DimMismatchError):
            hess_mult(state.xt, np.zeros(steps), wb)
        with pytest.raises(DimMismatchError):
            hess_mult_cached(state, np.zeros(steps))


def test_hess_mult_zero_step():
    xa, wb, phi = small_instance()
    _, _, xt = sse(phi, xa, wb)
    f = hess_mult(xt, np.zeros((8, 8, 2)), wb)
    assert f.shape == (64, 2)
    np.testing.assert_array_equal(f, 0.0)


def test_hess_mult_matches_gradient_differences():
    xa, wb, phi = small_instance()
    _, _, xt = sse(phi, xa, wb)
    assert np.abs(xt[~wb]).min() > 1e-3
    rng = np.random.default_rng(9)
    dphi = rng.standard_normal((8, 8, 3))
    f = hess_mult(xt, dphi, wb)
    eps = 1e-5
    for k in range(3):
        _, gp, _ = sse(phi + eps * dphi[:, :, k], xa, wb, want_gradient=True)
        _, gm, _ = sse(phi - eps * dphi[:, :, k], xa, wb, want_gradient=True)
        fd = (gp - gm) / (2 * eps)
        hv = f[:, k].reshape(8, 8)
        assert np.abs(fd - hv).max() <= 1e-5 * np.abs(fd).max()


def test_hess_mult_linear_in_steps():
    xa, wb, phi = small_instance()
    _, _, xt = sse(phi, xa, wb)
    rng = np.random.default_rng(10)
    d1 = rng.standard_normal((8, 8))
    d2 = rng.standard_normal((8, 8))
    f1 = hess_mult(xt, d1, wb)
    f2 = hess_mult(xt, d2, wb)
    f12 = hess_mult(xt, 2.0 * d1 - 3.0 * d2, wb)
    scale = max(np.abs(f12).max(), 1.0)
    assert np.abs(f12 - (2 * f1 - 3 * f2)).max() <= 1e-12 * scale


def test_hess_mult_cached_matches_direct():
    xa, wb, phi = small_instance()
    state = state_at(phi, xa, wb)
    rng = np.random.default_rng(12)
    dphi = rng.standard_normal((8, 8, 2))
    desired = hess_mult(state.xt, dphi, wb)
    np.testing.assert_allclose(
        hess_mult_cached(state, dphi), desired, rtol=1e-13, atol=1e-13 * np.abs(desired).max()
    )


def _uniform_state(m, n, seed):
    rng = np.random.default_rng(seed)
    state = state_at(rng.uniform(-np.pi, np.pi, (m, n)), rng.standard_normal((m, n)),
                     rng.random((m, n)) < 0.5)
    return state, rng


@given(
    size=st.sampled_from([(5, 5), (7, 7), (11, 13), (4, 6), (9, 4), (3, 8), (13, 7)]),  # odd, prime, non-square
    pages=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_each_page_of_a_product_is_its_own_product(size, pages, seed):
    m, n = size
    state, rng = _uniform_state(m, n, seed)
    dphi = rng.standard_normal((m, n, pages))
    f = hess_mult_cached(state, dphi)
    assert f.shape == (m * n, pages)
    for k in range(pages):
        one = hess_mult_cached(state, dphi[:, :, k])
        assert np.abs(f[:, k] - one[:, 0]).max() <= 1e-12 * np.abs(f).max()


@pytest.mark.parametrize("pages", [1, 2, 3, 4, 5])
def test_a_product_transforms_each_pair_of_pages_once(monkeypatch, pages):
    model_module = sys.modules[state_at.__module__]
    planes = {"fft2": 0, "ifft2": 0}

    def counted(name):
        transform = getattr(model_module, name)

        def count(x):
            planes[name] += 1 if x.ndim == 2 else x.shape[2]
            return transform(x)

        return count

    state, rng = _uniform_state(9, 7, 5)
    for name in planes:
        monkeypatch.setattr(model_module, name, counted(name))
    hess_mult_cached(state, rng.standard_normal((9, 7, pages)))
    assert planes == {"fft2": (pages + 1) // 2, "ifft2": (pages + 1) // 2}


def test_a_two_page_product_peaks_under_five_planes():
    m = 127  # prime: a transform length with no small factors
    state, rng = _uniform_state(m, m, 8)
    dphi = rng.standard_normal((m, m, 2))
    hess_mult_cached(state, dphi)  # numpy sets up its transform plans once
    tracemalloc.start()
    try:
        hess_mult_cached(state, dphi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * m * m * np.dtype(np.complex128).itemsize


def _agrees(got, want, tol=1e-10):
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * max(np.abs(want).max(), 1.0))


@given(
    size=st.sampled_from([(5, 5), (7, 7), (11, 13), (4, 6), (9, 4), (3, 8)]),  # odd, prime, non-square
    symmetric=st.booleans(),
    density=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_model_matches_the_engine_oracle_at_any_phase(size, symmetric, density, seed):
    m, n = size
    rng = np.random.default_rng(seed)
    xa = rng.standard_normal((m, n))
    wb = rng.random((m, n)) < density
    phi = make_aberration(m, n, seed) if symmetric else rng.uniform(-np.pi, np.pi, (m, n))
    dphi = rng.standard_normal((m, n, 2))
    e, grad, xt, hess = rt_model(phi, xa, wb, dphi)
    assume(np.abs(xt).min() > 1e-8)  # no pixel sits on the switch of the deviant mask
    got_e, got_grad, got_xt = sse(phi, xa, wb, want_gradient=True)
    _agrees(got_e, e)
    _agrees(got_grad, grad)
    _agrees(got_xt, xt)
    assert sse(phi, xa, wb)[0] == got_e
    state = state_at(phi, xa, wb)
    _agrees(hess_mult_cached(state, dphi), hess)
    moved = state_at(np.zeros((m, n)), xa, wb).at(phi)
    _agrees(moved.e, e)
    _agrees(moved.grad, grad)
    _agrees(hess_mult_cached(moved, dphi), hess)
    if symmetric:  # the xt-only form needs fft2(xt) == yt, true only for an odd-symmetric phase
        _agrees(hess_mult(state.xt, dphi, wb), hess)


@pytest.mark.parametrize("phase", ["odd-symmetric", "uniform"])
def test_state_at_another_phase_equals_a_fresh_evaluation(phase):
    xa, wb, phi = small_instance()
    if phase == "uniform":
        phi = np.random.default_rng(4).uniform(-np.pi, np.pi, phi.shape)
    got = state_at(np.zeros_like(phi), xa, wb).at(phi)
    want = state_at(phi, xa, wb)
    assert got.e == want.e
    for name in ("grad", "xt", "curvature"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_state_at_another_phase_checks_it():
    xa, wb, phi = small_instance()
    state = state_at(phi, xa, wb)
    for bad in (np.nan, np.inf):
        with pytest.raises(SpecError):
            state.at(np.full(phi.shape, bad))
    with pytest.raises(DimMismatchError):
        state.at(phi.astype(complex))
    with pytest.raises(DimMismatchError):
        state.at(phi[:, :7])


# -- optimizer ----------------------------------------------------------------------


def test_optimize_terminates_immediately_when_corrected():
    inst = make_instance(SceneConfig(size=32, seed=3))
    report = optimize(inst.ground_truth, inst.mask)
    assert report.iterations == 0
    assert report.sse_trajectory[-1] <= 1e-20
    assert report.stop_reason in ("grad_tol", "sse_floor")


def test_optimize_reduces_sse_on_small_instance():
    inst = make_instance(SceneConfig(size=32, seed=9))
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=60))
    traj = report.sse_trajectory
    assert traj[-1] < 0.05 * traj[0]
    assert all(traj[k + 1] <= traj[k] for k in range(len(traj) - 1))


def test_criterion_9_instance_reaches_its_floor_in_few_hessian_products():
    # unpreconditioned CG spends 953 products here, and CG scaled by the odd-subspace diagonal 95
    inst = make_instance(SceneConfig(size=64, seed=7))
    floor = 1e-3 * sse(np.zeros(inst.aberrated.shape), inst.aberrated, inst.mask)[0]
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=200, sse_floor=floor))
    assert report.stop_reason == "sse_floor"
    assert sum(report.cg_iterations) <= 300


@pytest.mark.parametrize("field, value", [
    ("max_iter", -3), ("grad_tol", float("nan")), ("grad_tol", -1e-8),
    ("sse_floor", float("nan")), ("sse_floor", -1.0),
])
def test_options_that_would_disable_the_solver_are_rejected(field, value):
    with pytest.raises(BoundsError, match=f"^{field} must be nonnegative, got "):
        TrustRegionOptions(**{field: value})


@pytest.mark.parametrize("value", [2.5, float("inf"), float("nan")])
def test_an_iteration_cap_that_is_not_an_integer_is_rejected(value):
    with pytest.raises(BoundsError, match="^max_iter must be an integer, got "):
        TrustRegionOptions(max_iter=value)


def test_a_numpy_integer_stays_a_valid_cap():
    assert TrustRegionOptions(max_iter=np.int64(3)).max_iter == 3


def test_zero_iterations_stay_a_valid_cap():
    inst = make_instance(SceneConfig(size=32, seed=9))
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=0))
    assert report.iterations == 0 and report.stop_reason == "max_iter"
    assert report.sse_trajectory == [report.sse_trajectory[0]]


def test_solve_transforms_the_image_once(monkeypatch):
    calls = {"fft2": 0, "ifft2": 0}

    def counted(module, name):
        transform = getattr(module, name)

        def count(x):
            calls[name] += 1
            return transform(x)

        monkeypatch.setattr(module, name, count)

    for module in (sys.modules[state_at.__module__], sys.modules[_steihaug.__module__]):
        for name in calls:
            if hasattr(module, name):
                counted(module, name)
    inst = make_instance(SceneConfig(size=32, seed=9))
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=15))
    evaluations = 1 + report.iterations  # the start and one trial per iteration
    products = sum(report.cg_iterations)  # one Hessian-vector product per CG iteration
    scalings = len(report.sse_trajectory)  # one transform of the mask at the start and each accepted point
    assert report.iterations == 15 and products > 0
    assert calls["fft2"] == 1 + evaluations + scalings + products
    assert calls["ifft2"] == evaluations + products


def test_jacobi_scaling_is_the_exact_curvature_of_the_odd_subspace():
    inst = make_instance(SceneConfig(size=16, seed=2))
    phi = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=3)).phi
    phi = 0.5 * (phi - _rev(phi))  # drop the rounding drift out of the odd subspace
    state = state_at(phi, inst.aberrated, inst.mask)
    s = np.empty(phi.shape)
    _jacobi_scaling(state, s)
    mn = phi.size
    steps = np.eye(mn).reshape(mn, *phi.shape)
    steps -= _rev(steps)  # step k is e_k - e_-k, indices mod (M, N)
    paired = steps.any(axis=(1, 2))  # a self-paired k, -k = k, has no odd direction
    v = steps[paired].reshape(-1, mn)
    hv = hess_mult_cached(state, np.moveaxis(steps[paired], 0, 2))
    curvature = np.einsum("pk,kp->p", v, hv) / (v * v).sum(1)
    d = 1.0 / s.ravel()[paired] ** 2
    above = d > _DIAG_FLOOR * (1.0 / s**2).max() * (1 + 1e-9)  # rounding lifts a floored entry a little
    assert above.sum() > paired.sum() // 2
    np.testing.assert_allclose(d[above], np.abs(curvature[above]), rtol=1e-12, atol=0)


def test_optimize_shrinks_radius_on_nan_ratio(monkeypatch):
    inst = make_instance(SceneConfig(size=32, seed=9))
    real_at = AberrationState.at

    def nan_trials(state, phi):
        trial = real_at(state, phi)
        trial.e = float("nan")  # every trial point evaluates to NaN
        return trial

    monkeypatch.setattr(AberrationState, "at", nan_trials)
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=200))
    assert report.stop_reason == "radius_collapse"
    assert len(report.sse_trajectory) == 1  # no NaN step was accepted
    # 0.25**21 >= 1e-13 > 0.25**22, so the radius shrank at every iteration
    assert report.iterations == 22


def test_wall_times_follow_the_accepted_steps():
    # 35 of the 40 steps are accepted on this scene
    inst = make_instance(SceneConfig(size=32, seed=1))
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=40))
    assert len(report.sse_trajectory) < report.iterations + 1
    assert len(report.wall_times) == len(report.sse_trajectory)
    assert report.wall_times == sorted(report.wall_times)


# -- non-finite inputs -----------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_planes(bad):
    xa, wb, phi = small_instance()
    bad_xa = xa.copy()
    bad_xa[2, 3] = bad
    bad_phi = phi.copy()
    bad_phi[4, 1] = bad
    for fn in (sse, state_at):
        with pytest.raises(SpecError):
            fn(phi, bad_xa, wb)
        with pytest.raises(SpecError):
            fn(bad_phi, xa, wb)
    dphi = np.ones((8, 8, 2))
    with pytest.raises(SpecError):
        hess_mult(bad_xa, dphi, wb)
    dphi[5, 5, 1] = bad
    with pytest.raises(SpecError):
        hess_mult(xa, dphi, wb)
    with pytest.raises(SpecError):
        hess_mult_cached(state_at(phi, xa, wb), dphi)


def test_optimize_rejects_nan_pixel():
    inst = make_instance(SceneConfig(size=32, seed=9))
    xa = inst.aberrated.copy()
    xa[7, 7] = np.nan
    with pytest.raises(SpecError):
        optimize(xa, inst.mask, TrustRegionOptions(max_iter=5))


# -- Steihaug CG ------------------------------------------------------------------------


def _spd(n, seed, shift):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + shift * np.eye(n)


def _run_steihaug(h, g, radius, tol=1e-12):
    """Steihaug on ``h``, also returning the curvature ``d.Hd`` of each CG direction."""
    curvatures = []

    def hv(d):
        hd = h @ d
        curvatures.append(float(d @ hd))
        return hd

    step, h_step, boundary, k = _steihaug(g, hv, radius, tol, 100)
    want = h @ step
    assert np.abs(h_step - want).max() <= 1e-10 * np.abs(want).max()
    return step, boundary, k, curvatures


def test_steihaug_h_step_interior_convergence():
    h = _spd(12, 0, 12.0)
    g = np.random.default_rng(1).standard_normal(12)
    step, boundary, k, _ = _run_steihaug(h, g, 1e6)
    assert not boundary and 1 < k < 100
    np.testing.assert_allclose(h @ step, -g, atol=1e-10)


def test_steihaug_h_step_on_trust_boundary():
    h = _spd(12, 2, 0.1)
    g = np.random.default_rng(3).standard_normal(12)
    step, boundary, k, curvatures = _run_steihaug(h, g, 0.05)
    assert boundary and min(curvatures) > 0
    assert abs(np.linalg.norm(step) - 0.05) <= 1e-12


def test_steihaug_h_step_on_negative_curvature():
    h = np.diag([2.0, 1.0, -3.0])
    g = np.array([1.0, -1.0, 0.5])
    step, boundary, k, curvatures = _run_steihaug(h, g, 10.0)
    assert boundary and k == 2 and curvatures[-1] < 0
    assert abs(np.linalg.norm(step) - 10.0) <= 1e-10


def test_steihaug_zero_step_when_gradient_small():
    g = np.full(4, 1e-9)
    step, h_step, boundary, k = _steihaug(g, lambda d: d, 1.0, 1e-6, 100)
    assert k == 0 and not boundary
    assert not np.any(step) and not np.any(h_step)
