import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmed.baselines import (GRAM_CHECK_BLOCK, SvmModel, TwoStageModel,
                              kkt_violation, solve_svm_dual, train_svm,
                              train_two_stage)
from gemmed.dataset import LabeledDataset
from gemmed.gem import GemConfig, loo_threshold
from gemmed.kernels import KernelSpec, gram_matrix, kernel_matrix
from gemmed.synthdata import RingExperimentConfig, generate
from instances import assert_refused


def brute_force_box_qp(K, y, C):
    """Global max of sum(a) - 0.5 (a*y)'K(a*y) over the box [0, C]^n.

    Enumerates every split of the coordinates into {at 0, at C, free} and
    solves the free block exactly. Concavity means the optimum is one of
    these KKT points, so the enumeration is an independent oracle for the
    solver.
    """
    n = len(y)
    Q = np.outer(y, y) * K
    best = -np.inf
    best_a = None
    for assignment in itertools.product((0, 1, 2), repeat=n):
        a = np.zeros(n)
        upper = [i for i, s in enumerate(assignment) if s == 1]
        free = [i for i, s in enumerate(assignment) if s == 2]
        a[upper] = C
        if free:
            rhs = np.ones(len(free)) - Q[np.ix_(free, upper)] @ (C * np.ones(len(upper)))
            try:
                sol = np.linalg.solve(Q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol < -1e-10) or np.any(sol > C + 1e-10):
                continue
            a[free] = np.clip(sol, 0.0, C)
        val = a.sum() - 0.5 * (a * y) @ K @ (a * y)
        if val > best:
            best, best_a = val, a
    return best, best_a


def test_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = 6
        xs = rng.normal(size=(n, 2))
        K = kernel_matrix(KernelSpec("rbf", gamma=0.5), xs)
        y = rng.choice([-1.0, 1.0], size=n)
        C = [0.5, 1.0, 5.0][trial % 3]
        alpha, converged, trace = solve_svm_dual(K, y, C, max_passes=5000,
                                                 tol=1e-10)
        assert converged
        value = alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y)
        best, _ = brute_force_box_qp(K, y, C)
        assert value == pytest.approx(best, abs=1e-8)
        assert np.all(alpha >= 0) and np.all(alpha <= C)


def dual_objective(K, y, alpha):
    return alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y)


def kkt_holds(K, y, alpha, C, tol):
    """The box dual's KKT conditions within tol, recomputed from scratch."""
    grad = 1.0 - np.asarray(y, dtype=float) * (K @ (alpha * y))
    at_zero = (alpha <= 0) & (grad <= tol)
    at_cap = (alpha >= C) & (grad >= -tol)
    free = (alpha > 0) & (alpha < C) & (np.abs(grad) <= tol)
    return bool(np.all(at_zero | at_cap | free))


def test_objective_trace_never_increases():
    # the trace holds the smoothed primal objective after each Newton
    # step; an exact line search on a convex function never raises it
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(12, 2))
    K = kernel_matrix(KernelSpec("linear"), xs)
    y = rng.choice([-1.0, 1.0], size=12)
    alpha, converged, trace = solve_svm_dual(K, y, C=2.0, max_passes=50,
                                             tol=1e-12)
    assert converged and len(trace) >= 2
    assert np.all(np.diff(trace) <= 1e-12 * abs(trace[0]))
    # F(w) at a stationary point is the smoothed dual optimum, which lies
    # below the hinge dual's optimum
    assert trace[-1] <= dual_objective(K, y, alpha) + 1e-9


def test_two_point_problem_frozen():
    # one point per class at -1 and +1 on the line. Q = (y y') * K has
    # rank 1, so only alpha_1 + alpha_2 = 1 is determined: the dual
    # optimum is 1/2 and the decision function is x, both within tol
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([-1.0, 1.0])
    alpha, converged, _ = solve_svm_dual(K, y, C=10.0)
    assert converged
    assert dual_objective(K, y, alpha) == pytest.approx(0.5, abs=1e-9)
    assert (K @ (alpha * y)) == pytest.approx([-1.0, 1.0], abs=1e-3)

    model = train_svm(LabeledDataset(np.array([[-1.0], [1.0]]),
                                     np.array([-1, 1])),
                      KernelSpec("linear"), C=10.0)
    assert model.decision_function(np.array([[2.0]]))[0] == pytest.approx(
        2.0, abs=2e-3)
    assert model.predict(np.array([[-0.5]]))[0] == -1
    assert model.predict(np.array([[0.0]]))[0] == 1  # ties go positive
    assert 0.0 <= model.kkt_violation <= 1e-3


def test_kkt_residuals_at_solution():
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(15, 3))
    K = kernel_matrix(KernelSpec("rbf", gamma=0.4), xs)
    y = rng.choice([-1.0, 1.0], size=15)
    C = 1.5
    alpha, converged, _ = solve_svm_dual(K, y, C, tol=1e-6, max_passes=2000)
    assert converged
    grad = 1.0 - y * (K @ (alpha * y))
    interior = (alpha > 1e-9) & (alpha < C - 1e-9)
    assert np.all(np.abs(grad[interior]) <= 1e-6)
    assert np.all(grad[alpha <= 1e-9] <= 1e-6)
    assert np.all(grad[alpha >= C - 1e-9] >= -1e-6)


def test_solver_input_validation():
    for C in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^C must lie in \(0, inf\)"):
            solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=C)
    # an infinite tol would pass the all-zero start as converged
    for tol in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^tol must lie in \(0, inf\)"):
            solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=1.0, tol=tol)
    with pytest.raises(ValueError, match="both classes"):
        train_svm(LabeledDataset(np.zeros((2, 1)), np.array([1, 1])),
                  KernelSpec("linear"))


@pytest.mark.parametrize("K, y, match", [
    (np.ones((2, 3)), np.array([1.0, -1.0]), "square"),
    (np.ones(3), np.array([1.0, -1.0, 1.0]), "square"),
    (np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]]),
     np.array([1.0, -1.0]), "symmetric"),
    (np.eye(3), np.array([1.0, -1.0]), "3 labels"),
    (np.eye(2), np.array([[1.0, -1.0]]), "2 labels"),
    (np.eye(2), np.array([1.0, 0.0]), "-1 or \\+1"),
    (np.eye(2), np.array([2, -1]), "-1 or \\+1"),
    (np.eye(2), np.array([1.0, np.nan]), "-1 or \\+1"),
])
def test_solver_rejects_malformed_problems(K, y, match):
    with pytest.raises(ValueError, match=match):
        solve_svm_dual(K, y, C=1.0)


def test_solver_checks_symmetry_in_every_row_block():
    # the one asymmetric pair sits in the last rows, far off the diagonal
    rng = np.random.default_rng(4)
    K = kernel_matrix(KernelSpec("linear"), rng.normal(size=(300, 2)))
    y = rng.choice([-1.0, 1.0], size=300)
    K[299, 250] = np.nextafter(K[299, 250], np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        solve_svm_dual(K, y, C=1.0)


@pytest.mark.parametrize("entries, match", [
    # (i, j, value) spoils K[i, j]; value None nudges it one ulp up
    ([(3, 100, None)], "symmetric"),  # first row block, off its diagonal tile
    ([(70, 100, None)], "symmetric"),  # inside a diagonal tile
    ([(120, 10, None)], "symmetric"),  # below the diagonal only
    ([(140, 145, None)], "symmetric"),  # the last, partial row block
    ([(120, 10, np.nan)], "finite"),  # below the diagonal only
    ([(77, 77, np.inf)], "finite"),  # on the diagonal
    ([(3, 100, None), (140, 145, np.nan)], "finite"),  # finite is checked first
])
def test_solver_checks_every_entry_of_K(entries, match):
    n = 150
    assert n % GRAM_CHECK_BLOCK and n > 2 * GRAM_CHECK_BLOCK
    rng = np.random.default_rng(4)
    K = kernel_matrix(KernelSpec("linear"), rng.normal(size=(n, 2)))
    for i, j, value in entries:
        K[i, j] = np.nextafter(K[i, j], np.inf) if value is None else value
    with pytest.raises(ValueError, match=match):
        solve_svm_dual(K, rng.choice([-1.0, 1.0], size=n), C=1.0)


def test_zero_and_negative_zero_are_a_symmetric_pair():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(150, 2))
    x[5], x[90] = (1.0, 0.0), (0.0, 1.0)  # orthogonal: K[5, 90] is 0.0
    K = kernel_matrix(KernelSpec("linear"), x)
    K[90, 5] = -0.0
    assert K[5, 90] == 0.0 and not np.signbit(K[5, 90]) and np.signbit(K[90, 5])
    alpha, _, _ = solve_svm_dual(K, rng.choice([-1.0, 1.0], size=150), C=1.0)
    assert np.isfinite(alpha).all()


def test_solver_leaves_inputs_unchanged():
    rng = np.random.default_rng(6)
    K = kernel_matrix(KernelSpec("rbf", gamma=0.5), rng.normal(size=(20, 2)))
    for y in (rng.choice([-1.0, 1.0], size=20), rng.choice([-1, 1], size=20)):
        K_before, y_before = K.copy(), y.copy()
        solve_svm_dual(K, y, C=1.0, max_passes=20)
        assert np.array_equal(K, K_before) and np.array_equal(y, y_before)


def reference_solve_svm_dual(K, y, C, max_passes=200, tol=1e-3):
    """Cyclic dual coordinate ascent (Hsieh et al. 2008), written plainly.

    Each pass makes an exact 1-D update of every coordinate in index
    order. It is an independent reference that solve_svm_dual must match
    or beat; it often stops at its pass cap far from the optimum.
    """
    n = K.shape[0]
    if C <= 0:
        raise ValueError("C must be positive")
    alpha = np.zeros(n)
    yf = np.zeros(n)  # y_i * f(x_i) with f = K (alpha * y)
    diag = np.diag(K).copy()
    trace = []

    def objective():
        a = alpha * y
        return float(alpha.sum() - 0.5 * a @ K @ a)

    converged = False
    for _ in range(max_passes):
        for i in range(n):
            if diag[i] <= 0:
                continue
            new = alpha[i] + (1.0 - yf[i]) / diag[i]
            new = min(max(new, 0.0), C)
            delta = new - alpha[i]
            if delta != 0.0:
                yf += delta * y[i] * y * K[:, i]
                alpha[i] = new
        trace.append(objective())
        grad = 1.0 - yf
        ok_zero = (alpha <= 0) & (grad <= tol)
        ok_cap = (alpha >= C) & (grad >= -tol)
        ok_mid = (alpha > 0) & (alpha < C) & (np.abs(grad) <= tol)
        if np.all(ok_zero | ok_cap | ok_mid):
            converged = True
            break
    return alpha, converged, trace


# small integers and halves give tied entries and exact cancellations;
# the arbitrary floats exercise rounding
_entries = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                     st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


@st.composite
def _dual_problems(draw):
    """(K, y, C, max_passes, tol, psd): K symmetric, PSD when psd is set."""
    m = draw(st.integers(1, 6))
    base = np.array(draw(st.lists(_entries, min_size=m * m, max_size=m * m)))
    base = base.reshape(m, m)
    base = np.triu(base) + np.triu(base, 1).T
    psd = draw(st.booleans())
    if psd:
        base = base @ base.T + np.eye(m)  # positive definite, still symmetric
        base = np.triu(base) + np.triu(base, 1).T
    # rows drawn with repetition make repeated rows and columns
    idx = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=9))
    K = base[np.ix_(idx, idx)]
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(idx),
                           max_size=len(idx)))
    y = np.array(labels, dtype=draw(st.sampled_from([np.float64, np.int64])))
    return (K, y, draw(st.sampled_from([0.5, 1.0, 5.0])),
            draw(st.integers(1, 50)),
            draw(st.sampled_from([1e-12, 1e-6, 1e-3, 0.1, 1.0, 50.0])), psd)


def _overflowing_step_problem():
    """The reference's step 5 / K[5, 5] overflows to inf on its second
    coordinate; K is finite and indefinite."""
    K = np.full((6, 6), -2.0)
    K[4, 4], K[5, 5] = 0.5, 2.2250738585072014e-308
    return K, np.full(6, -1.0), 5.0, 1, 1e-12, False


@settings(max_examples=300, deadline=None)
@given(_dual_problems())
@example(_overflowing_step_problem())
def test_solver_objective_at_least_reference(problem):
    K, y, C, max_passes, tol, psd = problem
    alpha, converged, trace = solve_svm_dual(K, y, C, max_passes=max_passes, tol=tol)
    assert np.all((alpha >= 0) & (alpha <= C))
    assert len(trace) <= max_passes
    if converged:
        assert kkt_holds(K, y, alpha, C, tol)
    if psd:
        # at tol 1e-10 the objective is within n C 1e-10 of the optimum,
        # which no feasible point of the reference can beat
        ref_alpha, _, _ = reference_solve_svm_dual(K, y, C, max_passes=max_passes,
                                                   tol=tol)
        alpha, converged, _ = solve_svm_dual(K, y, C, tol=1e-10)
        assert converged
        n = len(y)
        scale = n * C * (1.0 + n * C * np.abs(K).max())
        assert (dual_objective(K, y, alpha)
                >= dual_objective(K, y, ref_alpha) - 1e-9 * scale)


@pytest.mark.parametrize("K", [
    np.array([[5e-324, 1.0], [1.0, 1.0]]),     # the reference's step overflows
    np.array([[1.0, 1e308], [1e308, 1e-308]]),  # the reference's f overflows
    np.array([[np.inf, 1.0], [1.0, 1.0]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
])
@pytest.mark.parametrize("y", [[1.0, -1.0], [1.0, 1.0]])
def test_solver_matches_reference_on_extreme_entries(K, y):
    # where the reference overflows into inf or NaN duals, the solver
    # refuses non-finite K and returns a bounded alpha with an honest
    # flag for finite K
    y = np.array(y)
    if not np.isfinite(K).all():
        with pytest.raises(ValueError, match="finite"):
            solve_svm_dual(K, y, C=1.0, max_passes=5)
        return
    with np.errstate(all="ignore"):
        alpha, converged, _ = solve_svm_dual(K, y, 1.0, max_passes=5)
        assert converged == kkt_holds(K, y, alpha, 1.0, 1e-3)
    assert np.all(np.isfinite(alpha) & (alpha >= 0) & (alpha <= 1.0))


def test_solver_survives_a_numerically_singular_newton_system():
    # C max diag(K) / tol is about 1e136, so the identity term of the
    # Newton system is lost to rounding and the system is singular in
    # floating point; the solve still returns a bounded alpha and an
    # honest flag
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    x[3:] = x[0]
    K = x @ x.T * 1e128
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    with np.errstate(all="ignore"):
        alpha, converged, _ = solve_svm_dual(K, y, 45.0, tol=1e-6)
        assert converged == kkt_holds(K, y, alpha, 45.0, 1e-6)
    assert np.all(np.isfinite(alpha) & (alpha >= 0) & (alpha <= 45.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y, max_passes", [
    ([-1.0, 1.0], 1),   # a line-search breakpoint overflows
    ([-1.0, -1.0], 2),  # the Newton system (C / h) Gf Gf' overflows
])
def test_solver_overflow_raises_no_runtime_warning(y, max_passes):
    K = np.array([[-2.0, -2.0], [-2.0, 3.23142107e-304]])
    y = np.array(y)
    alpha, converged, _ = solve_svm_dual(K, y, 0.5, max_passes=max_passes, tol=1e-12)
    assert np.all((alpha >= 0) & (alpha <= 0.5))
    if converged:
        assert kkt_holds(K, y, alpha, 0.5, 1e-12)


def test_solver_beats_reference_on_ring_instances():
    train_set, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2,
                                                 n_test_per_class=1, seed=3))
    big, _ = generate(RingExperimentConfig(R=55.0, r_a=0.2,
                                           n_train_per_class=500,
                                           n_test_per_class=1, seed=4))
    cases = [
        # the linear SVM cell; the reference stops at its pass cap
        (kernel_matrix(KernelSpec("linear"), train_set.x),
         train_set.y.astype(float), 200),
        # the init_duals path: jittered RBF Gram matrix, labels as int64
        (gram_matrix(KernelSpec("rbf", gamma=0.1), train_set.x).values,
         train_set.y, 200),
        # the n=1000 linear cell; a short reference run keeps this quick
        (kernel_matrix(KernelSpec("linear"), big.x), big.y.astype(float), 20),
    ]
    for K, y, ref_passes in cases:
        ref_alpha, ref_converged, _ = reference_solve_svm_dual(
            K, y, 1.0, max_passes=ref_passes)
        assert not ref_converged
        alpha, converged, trace = solve_svm_dual(K, y, C=1.0)
        assert converged and kkt_holds(K, y, alpha, 1.0, 1e-3)
        assert len(trace) < 100
        assert dual_objective(K, y, alpha) > dual_objective(K, y, ref_alpha)


def test_pass_cap_grows_with_the_problem():
    # a narrow rbf kernel at a large C takes 211 Newton steps on these 300
    # rows; a fixed cap of 200 stopped it unconverged
    train_set, _ = generate(RingExperimentConfig(R=3.0, r_a=0.2, n_train_per_class=150,
                                                 n_test_per_class=1, seed=0))
    K = kernel_matrix(KernelSpec("rbf", gamma=2.0), train_set.x)
    alpha, converged, trace = solve_svm_dual(K, train_set.y, C=30.0)
    assert converged and kkt_holds(K, train_set.y, alpha, 30.0, 1e-3)
    assert 200 < len(trace) <= train_set.n
    _, converged, trace = solve_svm_dual(K, train_set.y, C=30.0, max_passes=200)
    assert not converged and len(trace) == 200


def test_kkt_violation_matches_the_convergence_test():
    rng = np.random.default_rng(11)
    K = kernel_matrix(KernelSpec("rbf", gamma=0.5), rng.normal(size=(30, 2)))
    y = rng.choice([-1.0, 1.0], size=30)
    alpha, converged, _ = solve_svm_dual(K, y, C=1.0, tol=1e-4)
    assert converged
    assert 0.0 <= kkt_violation(K, y, alpha, 1.0) <= 1e-4
    # alpha = 0 violates by max(grad) = 1; alpha = C by max(-grad)
    assert kkt_violation(K, y, np.zeros(30), 1.0) == 1.0
    f = K @ y
    assert kkt_violation(K, y, np.ones(30), 1.0) == max(0.0, np.max(y * f - 1.0))


def _planted_dataset():
    """Two tight clusters plus two obvious far-away points per class."""
    rng = np.random.default_rng(21)
    x_neg = rng.normal(loc=(-4.0, 0.0), scale=0.3, size=(10, 2))
    x_pos = rng.normal(loc=(4.0, 0.0), scale=0.3, size=(10, 2))
    far_neg = np.array([[40.0, 40.0], [-40.0, 40.0]])
    far_pos = np.array([[40.0, -40.0], [-40.0, -40.0]])
    x = np.vstack([x_neg, far_neg, x_pos, far_pos])
    y = np.array([-1] * 12 + [1] * 12)
    planted = np.array([10, 11, 22, 23])
    return LabeledDataset(x, y), planted


def test_two_stage_screens_planted_outliers():
    ds, planted = _planted_dataset()
    config = GemConfig(k=2, partition_ratio=0.4, target_coverage=10.0 / 12.0,
                       alpha=0.1, seed=1)
    model = train_two_stage(ds, KernelSpec("linear"), config, C=1.0)
    assert np.array_equal(model.removed_idx, planted)
    assert model.kept_idx.size == 20
    assert np.array_equal(np.sort(np.concatenate([model.kept_idx,
                                                  model.removed_idx])),
                          np.arange(ds.n))
    # threshold is calibrated on survivors only
    expected_theta = loo_threshold(ds.x[model.kept_idx], k=2, alpha=0.1)
    assert model.theta == expected_theta

    assert model.predict(np.array([[4.0, 0.0]]))[0] == 1
    assert model.predict(np.array([[-4.0, 0.0]]))[0] == -1
    calls = model.detect(np.array([[30.0, 30.0], [-4.0, 0.1]]))
    assert calls.tolist() == [True, False]
    scores = model.anomaly_scores(np.array([[30.0, 30.0]]))
    assert scores[0] > model.theta


def test_two_stage_detector_rejects_mismatched_queries():
    ds, _ = _planted_dataset()
    config = GemConfig(k=2, partition_ratio=0.4, target_coverage=10.0 / 12.0,
                       seed=1)
    model = train_two_stage(ds, KernelSpec("linear"), config)
    with pytest.raises(ValueError, match="1 feature column.* have 2"):
        model.anomaly_scores(np.array([30.0]))
    with pytest.raises(ValueError, match="3 feature column.* have 2"):
        model.detect(np.zeros((2, 3)))


def test_models_round_trip_through_dataclass_fields():
    ds, _ = _planted_dataset()
    model = train_svm(ds, KernelSpec("rbf", gamma=0.2), C=1.0)
    assert isinstance(model, SvmModel)
    clone = SvmModel(kernel=model.kernel, x=model.x, y=model.y,
                     alpha=model.alpha, C=model.C, converged=model.converged)
    grid = np.random.default_rng(0).normal(size=(20, 2)) * 5
    assert np.array_equal(model.predict(grid), clone.predict(grid))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_decision_values_raise():
    # w = (10, -10): row 1 overflows <x, w> to inf, row 2 to inf - inf = nan
    svm = SvmModel(kernel=KernelSpec("linear"), x=np.eye(2),
                   y=np.array([1, -1]), alpha=np.array([10.0, 10.0]),
                   C=10.0, converged=True)
    two_stage = TwoStageModel(**vars(svm), kept_idx=np.arange(2),
                              removed_idx=np.arange(0), theta=1.0, k=1,
                              alpha_level=0.05)
    xs = np.array([[1.0, 2.0], [1e308, -1e308], [1e308, 1e308]])
    for score in (svm.decision_function, svm.predict,
                  two_stage.decision_function, two_stage.predict):
        with pytest.raises(ValueError, match=r"not finite for 2 of 3 query "
                           r"rows \(first: row 1\); rescale the features"):
            score(xs)


def _svm_fields():
    """A two-row SVM's fields, alpha in [0, C]."""
    return dict(kernel=KernelSpec("linear"), x=np.array([[-1.0], [2.0]]),
                y=np.array([-1, 1]), alpha=np.array([0.5, 1.0]), C=1.0, converged=True)


# Each value an SVM refuses, built in Python or read from a model file, as
# (JSON key, value, message). solve_svm_dual refuses such a C and returns
# alpha = C * clip(u / h, 0, 1), or a free-set solve clipped into [0, C].
@pytest.mark.parametrize("key,bad,message", [
    pytest.param("C", 0.0, "C must lie in (0, inf), got 0.0", id="C-zero"),
    pytest.param("C", -1.0, "C must lie in (0, inf), got -1.0", id="C-negative"),
    pytest.param("C", 0.75, "alpha must lie in [0, C], C = 0.75", id="C-below-alpha"),
    pytest.param("alpha", [0.5, 1.5], "alpha must lie in [0, C], C = 1.0", id="alpha-above-C"),
    pytest.param("alpha", [-0.5, 1.0], "alpha must lie in [0, C], C = 1.0",
                 id="alpha-negative"),
    pytest.param("alpha", [0.5, 1.0, 1.0], "alpha must hold one entry per row of x",
                 id="alpha-long"),
    pytest.param("y", [-1, 2], "labels must be -1 or +1", id="y-not-a-label"),
])
def test_svm_refuses_what_the_solver_cannot_produce(tmp_path, key, bad, message):
    assert_refused(SvmModel(**_svm_fields()), key, bad, message, tmp_path)


# The same for the two-stage model, beyond its SVM's values. train_two_stage
# splits range(n) into GemStats.kept and the rest, fits x on the kept rows,
# and calibrates theta, a quantile of k-NN distance sums, by loo_threshold,
# which needs more than k survivors and an alpha_level in (0, 1).
@pytest.mark.parametrize("key,bad,message", [
    pytest.param("alpha_level", 5.0, "alpha_level must lie in (0, 1), got 5.0",
                 id="alpha_level-above-1"),
    pytest.param("alpha_level", 0.0, "alpha_level must lie in (0, 1), got 0.0",
                 id="alpha_level-zero"),
    pytest.param("theta", -1.0, "theta must lie in [0, inf), got -1.0", id="theta-negative"),
    pytest.param("k", 0, "k must be at least 1, got 0", id="k-zero"),
    pytest.param("k", 3, "k=3 exceeds the 2 point(s) of the survivors x",
                 id="k-above-survivors"),
    pytest.param("kept_idx", [0], "kept_idx must hold one entry per row of x",
                 id="kept_idx-short"),
    pytest.param("kept_idx", [0, 1], "kept_idx and removed_idx must list each of the 3 "
                 "training rows once between them", id="kept_idx-overlaps-removed_idx"),
    pytest.param("removed_idx", [3], "kept_idx and removed_idx must list each of the 3 "
                 "training rows once between them", id="removed_idx-leaves-a-gap"),
    pytest.param("C", -1.0, "C must lie in (0, inf), got -1.0", id="C-negative"),
])
def test_two_stage_refuses_what_training_cannot_produce(tmp_path, key, bad, message):
    model = TwoStageModel(**_svm_fields(), kept_idx=np.array([0, 2]),
                          removed_idx=np.array([1]), theta=2.5, k=1, alpha_level=0.05)
    assert_refused(model, key, bad, message, tmp_path)
