import numpy as np
import pytest

from manisearch import solvers
from manisearch.errors import BudgetExhausted
from manisearch.manifolds import (
    Euclidean,
    Manifold,
    Product,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
    SymmetricPositiveDefinite,
    TangentVector,
)
from manisearch.problems import build_instance
from manisearch.solvers import (
    CHUNK_MAX,
    DEFAULT_PARAMS,
    SOLVER_NAMES,
    STEP_FLOOR,
    SolverConfig,
    default_config,
    linesearch_extrapolate,
    run_solver,
)

from conftest import deadline, make_problem


def _circle_setup():
    sph = Sphere(2)
    x = sph.point(np.array([0.0, 1.0]))
    f = lambda p: float(-p.value[0])
    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha0=1.0, budget=100)
    return sph, x, f, cfg


# ---------------------------------------------------------------------------
# extrapolation linesearch
# ---------------------------------------------------------------------------

def test_linesearch_descent_example():
    # oracle: f(R(x, a d)) = -a / sqrt(1 + a^2); a=1 gives -0.7071 < -0.11
    # (success), a=3.12 gives -0.9523 >= -1.0708 (first failure)
    sph, x, f, cfg = _circle_setup()
    d = TangentVector(x, np.array([1.0, 0.0]))
    res = linesearch_extrapolate(f, x, 1.0, d, cfg)
    assert res.alpha == 1.0
    assert res.alpha_next == 1.0
    assert not res.truncated
    assert res.f_accepted == pytest.approx(-1 / np.sqrt(2.0))


def test_linesearch_ascent_direction_fails_fast():
    sph, x, f, cfg = _circle_setup()
    d = TangentVector(x, np.array([-1.0, 0.0]))
    calls = []
    res = linesearch_extrapolate(
        lambda p: calls.append(1) or f(p), x, 1.0, d, cfg, f_x=f(x)
    )
    assert (res.alpha, res.alpha_next) == (0.0, 0.81)
    assert len(calls) == 1  # the early exit costs exactly one evaluation


def test_linesearch_constant_objective():
    sph, x, _, cfg = _circle_setup()
    d = TangentVector(x, np.array([1.0, 0.0]))
    for alpha_tilde in (1.0, 0.3, 7.0):
        res = linesearch_extrapolate(lambda p: 5.0, x, alpha_tilde, d, cfg, f_x=5.0)
        assert res.alpha == 0.0
        assert res.alpha_next == cfg.gamma1 * alpha_tilde


def test_linesearch_zero_direction_spends_nothing():
    sph, x, f, cfg = _circle_setup()
    calls = []
    res = linesearch_extrapolate(
        lambda p: calls.append(1) or f(p), x, 1.0, sph.zero_tangent(x), cfg, f_x=0.0
    )
    assert (res.alpha, res.alpha_next) == (0.0, 0.81)
    assert not calls


def test_linesearch_non_expanding_returns_first_success():
    sph, x, f, _ = _circle_setup()
    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=1.0, alpha0=1.0, budget=100)
    d = TangentVector(x, np.array([1.0, 0.0]))
    calls = []
    res = linesearch_extrapolate(
        lambda p: calls.append(1) or f(p), x, 1.0, d, cfg, f_x=f(x)
    )
    assert (res.alpha, res.alpha_next) == (1.0, 1.0)
    assert len(calls) == 1


def test_linesearch_truncated_keeps_best_success():
    sph, x, f, cfg = _circle_setup()
    d = TangentVector(x, np.array([1.0, 0.0]))

    class Budgeted:
        def __init__(self, n):
            self.left = n

        def __call__(self, p):
            if self.left == 0:
                raise BudgetExhausted
            self.left -= 1
            return f(p)

    res = linesearch_extrapolate(Budgeted(1), x, 1.0, d, cfg, f_x=0.0)
    assert res.truncated and res.alpha == 1.0 and res.alpha_next == 1.0
    res = linesearch_extrapolate(Budgeted(0), x, 1.0, d, cfg, f_x=0.0)
    assert res.truncated and res.alpha == 0.0 and res.alpha_next == 1.0


def test_linesearch_alpha_lies_on_expansion_grid():
    # accepted steps are gamma2^m * alpha_tilde for integer m >= 0
    sph = Sphere(2)
    x = sph.point(np.array([0.0, 1.0]))
    rng = np.random.default_rng(3)
    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha0=1.0, budget=10**6)
    for _ in range(50):
        a, b = rng.uniform(-2, 2, 2)
        f = lambda p: float(a * p.value[0] + b * abs(p.value[1]))
        alpha_tilde = rng.uniform(0.01, 2.0)
        d = TangentVector(x, np.array([rng.choice([-1.0, 1.0]), 0.0]))
        fx = f(x)
        res = linesearch_extrapolate(f, x, alpha_tilde, d, cfg, f_x=fx)
        if res.alpha == 0.0:
            assert res.alpha_next == cfg.gamma1 * alpha_tilde
        else:
            grid = alpha_tilde
            for _ in range(200):
                if grid == res.alpha:
                    break
                grid *= cfg.gamma2
            assert grid == res.alpha
            # accepted step re-verifies sufficient decrease when replayed
            y = sph.retract(x, d.scaled(res.alpha))
            assert f(y) <= fx - cfg.gamma * res.alpha**2


def test_linesearch_rejects_nonpositive_alpha():
    sph, x, f, cfg = _circle_setup()
    d = TangentVector(x, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        linesearch_extrapolate(f, x, 0.0, d, cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    good = dict(gamma=1.0, gamma1=0.5, gamma2=2.0, alpha0=1.0, budget=10)
    SolverConfig(**good)
    for field, bad in (
        ("gamma", 0.0),
        ("gamma1", 1.0),
        ("gamma1", 0.0),
        ("gamma2", 0.9),
        ("alpha0", 0.0),
        ("budget", 0),
        ("alpha_eps", 0.0),
        ("mu", 0.0),
        ("mu", np.nan),
        # +inf passes every "> 0" test; each float parameter must be finite
        ("gamma", np.inf),
        ("gamma2", np.inf),
        ("alpha0", np.inf),
        ("alpha_eps", np.inf),
        ("mu", np.inf),
    ):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolverConfig(**dict(good, **{field: bad}))


def test_linesearch_solvers_reject_gamma2_one():
    prob = make_problem(Sphere(3), lambda v: 1.0)
    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=1.0, alpha0=1.0, budget=10)
    with pytest.raises(ValueError):
        run_solver("rdse-sb", prob, cfg)
    with pytest.raises(ValueError):
        run_solver("rdse-dd", prob, cfg)


# ---------------------------------------------------------------------------
# constant-objective stepsize dynamics
# ---------------------------------------------------------------------------

def test_rds_sb_constant_objective_geometric_decay():
    man = Sphere(4)
    prob = make_problem(man, lambda v: 2.5)
    k = 6
    n_dirs = 2 * man.ambient_dim
    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0,
                       budget=1 + k * n_dirs)
    trace = run_solver("rds-sb", prob, cfg)
    expected = 1.0
    for _ in range(k):
        expected *= cfg.gamma1
    assert trace.final_alpha == expected
    assert trace.success_count == 0
    assert trace.evals_used == cfg.budget
    assert np.all(trace.history == 2.5)
    assert trace.final_point is prob.start


def test_rds_dd_constant_objective_geometric_decay():
    prob = make_problem(Sphere(4), lambda v: -1.0)
    k = 9
    cfg = SolverConfig(gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0, budget=1 + k)
    trace = run_solver("rds-dd", prob, cfg)
    expected = 1.0
    for _ in range(trace.iterations):
        expected *= cfg.gamma1
    assert trace.final_alpha == expected
    assert trace.iterations == k  # generic projections are nonzero


def test_rdse_sb_constant_objective_one_shrink_per_sweep():
    man = Sphere(4)
    prob = make_problem(man, lambda v: 0.0)
    n_dirs = 2 * man.ambient_dim
    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha0=1.0,
                       budget=1 + n_dirs)
    trace = run_solver("rdse-sb", prob, cfg)
    alphas = np.array([trace.final_alpha_by_slot[i] for i in range(n_dirs)])
    assert np.all(alphas == cfg.gamma1 * cfg.alpha0)


def test_rdse_dd_constant_objective_shrinks_tentative():
    prob = make_problem(Sphere(4), lambda v: 0.0)
    k = 7
    cfg = SolverConfig(gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0, budget=1 + k)
    trace = run_solver("rdse-dd", prob, cfg)
    expected = 1.0
    for _ in range(trace.iterations):
        expected *= cfg.gamma1
    assert trace.final_alpha == expected
    assert trace.success_count == 0


def test_rds_dd_zero_direction_costs_nothing(monkeypatch):
    man = Sphere(3)
    start = man.point(np.array([1.0, 0.0, 0.0]))
    prob = make_problem(man, lambda v: 3.0, start=start)

    class NormalStream:
        ambient_dim = 3
        counter = 0

        def next_ambient(self):
            self.counter += 1
            return np.array([1.0, 0.0, 0.0])  # collinear with x: projects to zero

        def peek(self, k):
            return np.tile([1.0, 0.0, 0.0], (k, 1))

    cfg = SolverConfig(gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0, budget=50)
    monkeypatch.setattr(solvers, "DenseDirectionStream", lambda seed, n: NormalStream())
    trace = run_solver("rds-dd", prob, cfg)
    assert trace.evals_used == 1  # only f(x0)
    assert trace.final_alpha < STEP_FLOOR
    assert trace.final_point is start
    # every iteration shrank the stepsize without an evaluation
    expected = 1.0
    for _ in range(trace.iterations):
        expected *= cfg.gamma1
    assert trace.final_alpha == expected


# ---------------------------------------------------------------------------
# budget accounting
# ---------------------------------------------------------------------------

def test_budget_cap_exact():
    prob = make_problem(Sphere(3), lambda v: 1.0)
    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0, budget=3)
    trace = run_solver("rds-sb", prob, cfg)
    assert trace.evals_used == 3
    assert trace.history.shape == (3,)


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_history_is_one_float64_per_evaluation(name):
    inst = build_instance("largest-eig", 5, 1)
    trace = run_solver(name, inst, default_config(name, budget=60, seed=2))
    assert trace.history.dtype == np.float64
    assert trace.history.shape == (trace.evals_used,)
    assert trace.history.nbytes == 8 * trace.evals_used
    assert type(trace.best_f) is float
    assert trace.best_f == trace.history[-1]


def test_budget_refuses_extra_call():
    prob = make_problem(Sphere(3), lambda v: 1.0)
    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0, budget=2)
    values = []
    trace = run_solver("rds-sb", prob, cfg, on_eval=lambda p, f: values.append(f))
    assert values == [1.0, 1.0]
    assert trace.stop_reason == "budget"


def test_opportunistic_break_spends_one_poll():
    man = Sphere(3)
    start = man.point(np.array([1.0, 0.0, 0.0]))
    prob = make_problem(man, lambda v: float(-v[1]), start=start)
    cfg = SolverConfig(gamma=0.1, gamma1=0.61, gamma2=1.0, alpha0=1.0, budget=2)
    trace = run_solver("rds-sb", prob, cfg)
    # basis order at e1 is (+e2, +e3, -e2, -e3); the first poll succeeds
    assert trace.success_count == 1
    assert trace.evals_used == 2
    np.testing.assert_allclose(
        trace.final_point.value, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12
    )


# ---------------------------------------------------------------------------
# switching strategies
# ---------------------------------------------------------------------------

def test_switching_constant_objective_switches_at_first_shrink():
    man = Sphere(4)
    prob = make_problem(man, lambda v: 1.0)
    n_dirs = 2 * man.ambient_dim
    extra = 10
    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0,
                       budget=1 + n_dirs + extra, alpha_eps=1.0)
    trace = run_solver("rds-dd-plus", prob, cfg)
    assert trace.switch_eval == 1 + n_dirs
    assert trace.evals_used == cfg.budget
    # dense phase behaves like rds-dd from here: one evaluation per
    # iteration, each a failure shrinking by the dense-phase gamma1
    expected = 1.0
    for _ in range(extra):
        expected *= 0.95
    assert trace.final_alpha == expected


def test_switching_extrapolated_switches_when_all_slots_small():
    man = Sphere(3)
    prob = make_problem(man, lambda v: 1.0)
    n_dirs = 2 * man.ambient_dim
    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha0=1.0,
                       budget=1 + n_dirs + 5, alpha_eps=0.9)
    trace = run_solver("rdse-dd-plus", prob, cfg)
    # every slot must shrink once (one full sweep) before max drops to 0.81
    assert trace.switch_eval == 1 + n_dirs
    assert trace.evals_used == cfg.budget


def test_switching_requires_alpha_eps():
    prob = make_problem(Sphere(3), lambda v: 1.0)
    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0, budget=10)
    with pytest.raises(ValueError):
        run_solver("rds-dd-plus", prob, cfg)


def test_switching_records_no_switch_when_budget_dies_first():
    prob = make_problem(Sphere(3), lambda v: 1.0)
    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0,
                       budget=3, alpha_eps=1e-12)
    trace = run_solver("rds-dd-plus", prob, cfg)
    assert trace.switch_eval is None
    assert trace.evals_used == 3


def test_rdse_dd_plus_without_switch_keeps_slot_stepsizes():
    # a run that never switches is an rdse-sb run and reports the same stepsizes
    inst = build_instance("largest-eig", 10, 1)
    cfg = default_config("rdse-dd-plus", budget=30, seed=1)
    trace = run_solver("rdse-dd-plus", inst, cfg)
    assert trace.switch_eval is None
    reference = run_solver("rdse-sb", inst, cfg)
    assert trace.history.tobytes() == reference.history.tobytes()
    assert trace.final_alpha_by_slot == reference.final_alpha_by_slot
    assert len(trace.final_alpha_by_slot) == 2 * inst.ambient_dim


# ---------------------------------------------------------------------------
# stop reasons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_stop_reason_names_the_stop(name):
    # f = 0 never passes 0 <= 0 - gamma alpha^2, so every stepsize shrinks
    # geometrically below STEP_FLOOR well within 5000 evaluations
    prob = make_problem(Sphere(3), lambda v: 0.0)
    short = run_solver(name, prob, default_config(name, budget=3, seed=0))
    assert short.stop_reason == "budget"
    assert short.evals_used == 3
    cfg = default_config(name, budget=5000, seed=0)
    trace = run_solver(name, prob, cfg)
    if name == "zo-rgd":  # no stepsize: only the budget stops it
        assert trace.stop_reason == "budget"
        assert trace.evals_used == cfg.budget
    else:
        assert trace.stop_reason == "step-floor"
        assert trace.evals_used < cfg.budget
    if name.endswith("-plus"):  # the phase switch is still recorded apart
        assert trace.switch_eval is not None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_solver_names_order():
    assert SOLVER_NAMES == ("rds-sb", "rdse-sb", "rds-dd", "rdse-dd",
                            "rds-dd-plus", "rdse-dd-plus", "zo-rgd")


def test_unknown_solver_name_rejected():
    prob = make_problem(Sphere(3), lambda v: 1.0)
    cfg = default_config("rds-sb", budget=10, seed=0)
    with pytest.raises(ValueError, match="unknown solver 'nope'"):
        run_solver("nope", prob, cfg)
    with pytest.raises(ValueError, match="unknown solver 'nope'"):
        default_config("nope", budget=10, seed=0)


# a value other than every default, for each parameter a solver reads
_OTHER = dict(gamma=0.3, gamma1=0.3, gamma2=1.5, alpha0=0.3, alpha_eps=0.2, mu=1e-2)
SETTABLE = [(name, p) for name, params in DEFAULT_PARAMS.items() for p in params]


@pytest.mark.parametrize("name, param", SETTABLE)
def test_every_settable_parameter_changes_the_run(name, param):
    # a parameter that a solver lists but its loop ignores would leave the
    # history unchanged; the dense solvers run on a nonsmooth problem
    assert len(SETTABLE) == 27
    problem = "sparsest-vector" if name in ("rds-dd", "rdse-dd") else "largest-eig"
    inst = build_instance(problem, 10, 0)
    value = _OTHER[param]
    assert value != DEFAULT_PARAMS[name][param]
    base = run_solver(name, inst, default_config(name, budget=500, seed=1))
    moved = run_solver(name, inst, default_config(name, budget=500, seed=1, **{param: value}))
    assert base.history.tolist() != moved.history.tolist()


# ---------------------------------------------------------------------------
# zeroth-order baseline
# ---------------------------------------------------------------------------

def test_zo_rgd_constant_objective_fixed_iterates():
    prob = make_problem(Sphere(5), lambda v: 4.0)
    cfg = SolverConfig(gamma=1.0, gamma1=0.5, gamma2=1.0, alpha0=1.0,
                       budget=21, seed=11, mu=1e-6)
    trace = run_solver("zo-rgd", prob, cfg)
    assert trace.final_point is prob.start  # zero estimate, zero retraction
    assert trace.evals_used == 21
    assert trace.iterations == 10  # 1 + 2 per iteration


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_zo_rgd_spends_its_budget_past_a_non_finite_value(bad):
    # f is non-finite on half the sphere, so some probe or step lands there;
    # that iteration fails, and the run still ends at its budget at a
    # finite, feasible point instead of moving to a NaN iterate
    sph = Sphere(4)
    prob = make_problem(sph, lambda v: bad if v[0] > 0 else float(v[1]),
                        start=sph.point(np.array([0.0, 1.0, 0.0, 0.0])))
    cfg = default_config("zo-rgd", budget=200, seed=0)
    with deadline(3):
        trace = run_solver("zo-rgd", prob, cfg)
    assert trace.stop_reason == "budget"
    assert trace.evals_used == cfg.budget
    assert np.isfinite(trace.final_point.value).all()
    assert trace.final_point.residual() <= sph.feasibility_tol
    assert np.isfinite(trace.best_f)


def test_zo_rgd_rejects_nonsmooth():
    prob = make_problem(Sphere(3), lambda v: float(abs(v[0])), smooth=False)
    cfg = SolverConfig(gamma=1.0, gamma1=0.5, gamma2=1.0, budget=10)
    with pytest.raises(ValueError):
        run_solver("zo-rgd", prob, cfg)


# ---------------------------------------------------------------------------
# cross-solver contracts
# ---------------------------------------------------------------------------

def _diag_eig_problem(n=5, seed=1):
    a = np.diag(np.arange(1.0, n + 1.0))
    man = Sphere(n)
    return make_problem(man, lambda v: float(-(v @ a @ v)), seed=seed,
                        known_opt=-float(n))


def test_traces_monotone_and_deterministic():
    prob = _diag_eig_problem()
    for name in SOLVER_NAMES:
        cfg = default_config(name, budget=500, seed=7)
        t1 = run_solver(name, prob, cfg)
        t2 = run_solver(name, prob, cfg)
        assert t1.history.tobytes() == t2.history.tobytes(), name
        assert t1.evals_used <= cfg.budget
        assert np.all(np.diff(t1.history) <= 0), name


def test_accepted_steps_replay_sufficient_decrease():
    prob = _diag_eig_problem()
    records = []

    def on_accept(x, d, alpha, f_before, f_after):
        records.append((x, d, alpha, f_before, f_after))

    # the dense phase of a *-plus run tests with gamma = 1 >= cfg.gamma,
    # so its accepts replay under cfg.gamma too
    for name in (n for n in SOLVER_NAMES if n != "zo-rgd"):
        records.clear()
        cfg = default_config(name, budget=800, seed=3)
        run_solver(name, prob, cfg, on_accept=on_accept)
        assert records, name
        for x, d, alpha, f_before, f_after in records:
            assert alpha > 0
            y = prob.manifold.retract(x, d.scaled(alpha))
            replayed = prob.evaluate(y.value)
            assert replayed == f_after  # bitwise deterministic
            assert replayed <= f_before - cfg.gamma * alpha**2


@pytest.mark.xfail(strict=True, reason="open defect: the sufficient-decrease test "
                   "degenerates to f_new <= f_old once gamma * alpha^2 < ulp(f)")
def test_accepts_stay_strict_once_decrease_is_below_rounding():
    # rds-sb reaches the optimum of largest-eig n=3 early; afterwards
    # gamma * alpha^2 falls below ulp(f), so f - gamma * alpha^2 rounds
    # back to f and a trial equal to f would pass a bare <= test
    prob = build_instance("largest-eig", 3, 0)
    cfg = default_config("rds-sb", budget=2000, seed=0)
    accepts = []
    trace = run_solver("rds-sb", prob, cfg, on_accept=lambda x, d, a, f_old, f_new:
                       accepts.append((f_old, f_new)))
    assert accepts
    assert all(f_new < f_old for f_old, f_new in accepts)
    assert trace.stop_reason == "step-floor"
    assert trace.evals_used < cfg.budget


@pytest.mark.parametrize("name", [n for n in SOLVER_NAMES if n != "zo-rgd"])
@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf], ids=["nan", "-inf", "+inf"])
def test_nan_trial_is_a_failed_poll(value, name):
    # f is NaN (or -inf) on the cap x_0 > 0.9 and -x_0 elsewhere: such a
    # trial must fail every sufficient-decrease test, not become the
    # incumbent value.  f is +inf off the cap x_0 >= 0.95, the start
    # included, where inf <= inf - gamma alpha^2 would accept a +inf trial
    sph = Sphere(3)
    start = sph.point(np.array([0.8, 0.6, 0.0]))
    where = (lambda v: v[0] < 0.95) if value == np.inf else (lambda v: v[0] > 0.9)
    prob = make_problem(sph, lambda v: value if where(v) else float(-v[0]),
                        start=start)
    cfg = default_config(name, budget=200, seed=0)
    accepts = []
    trace = run_solver(name, prob, cfg, on_accept=lambda x, d, a, f_old, f_new:
                       accepts.append((f_old, f_new)))
    assert accepts
    assert all(f_new < f_old for f_old, f_new in accepts)
    if name == "rdse-sb" and np.isnan(value):
        assert prob.evaluate(trace.final_point.value) == trace.best_f
    else:
        assert all(np.isfinite(f_new) for _, f_new in accepts)
        assert np.isfinite(trace.best_f)


def _steep_linear(m):
    # one point's _unpack views, a product's a tuple of them, read as its
    # flat value
    g = np.random.default_rng(3).standard_normal(m.ambient_dim)
    return lambda v: 1e100 * float(g @ (np.concatenate([b.ravel() for b in v])
                                        if isinstance(v, tuple) else v.ravel()))


# the last is gmm's shape: two spd(3) covariances and the mixture's log-odds
_SWEEP_MANIFOLDS = {"so3": SpecialOrthogonal(3), "sphere8": Sphere(8),
                    "spd4": SymmetricPositiveDefinite(4),
                    "gmm-shape": Product([SymmetricPositiveDefinite(3),
                                          SymmetricPositiveDefinite(3), Euclidean((1,))])}
_SWEEP_OBJECTIVES = {"plateau": lambda m: lambda v: 1e300, "steep-linear": _steep_linear}
_SWEEP_XFAIL = {
    ("so3", "plateau", "rds-dd"): pytest.mark.xfail(
        strict=True, reason="open defect: f_new <= f_old - gamma alpha^2 accepts "
        "f_new == f_old at 1e300, so rds-dd doubles alpha until a long step leaves "
        "so(3) and the NaN point it lands on is accepted"),
    **{(kind, "steep-linear", name): pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="open defect: x + xi + xi x^-1 xi / 2 "
        "is positive definite in exact arithmetic only, so a long step ends at a "
        "symmetric point whose smallest eigenvalue rounds below 0 and residual() is inf")
       for kind in ("spd4", "gmm-shape") for name in ("rdse-sb", "rdse-dd-plus")},
    ("spd4", "steep-linear", "zo-rgd"): pytest.mark.xfail(
        strict=True, raises=TimeoutError, reason="open defect: after one step the "
        "eigenvalues are near 1e195, every projected draw has a norm near 1e-195 "
        "<= 1e-12, and random_tangent redraws forever"),
}


@pytest.mark.parametrize("kind, objective, name", [
    pytest.param(kind, objective, name, marks=_SWEEP_XFAIL.get((kind, objective, name), ()))
    for kind in _SWEEP_MANIFOLDS for objective in _SWEEP_OBJECTIVES for name in SOLVER_NAMES])
def test_adversarial_objectives_end_at_a_feasible_point(kind, objective, name):
    # a huge constant and a linear objective of slope 1e100: every run
    # must end for a stated reason at a finite point on the manifold
    m = _SWEEP_MANIFOLDS[kind]
    prob = make_problem(m, _SWEEP_OBJECTIVES[objective](m), seed=0)
    with deadline(3):
        trace = run_solver(name, prob, default_config(name, budget=200, seed=0))
    assert trace.stop_reason in ("budget", "step-floor")
    assert np.isfinite(trace.final_point.value).all()
    assert trace.final_point.residual() <= 1e-8


def test_visited_points_stay_feasible():
    prob = _diag_eig_problem()
    worst = 0.0

    def on_eval(point, f):
        nonlocal worst
        worst = max(worst, point.residual())

    for name in SOLVER_NAMES:
        cfg = default_config(name, budget=400, seed=5)
        run_solver(name, prob, cfg, on_eval=on_eval)
    assert worst <= 1e-8


def test_direct_search_reaches_known_optimum():
    prob = _diag_eig_problem()
    cfg = default_config("rdse-sb", budget=3000, seed=2)
    trace = run_solver("rdse-sb", prob, cfg)
    assert trace.best_f <= -5.0 + 1e-2


def test_extrapolation_matches_poller_on_eigen_toy():
    # both reach the optimum; the linesearch variant never needs more
    # evaluations than the poller on the same seed (ties allowed)
    wins = 0
    for seed in range(10):
        a = np.diag(np.arange(1.0, 6.0))
        prob = make_problem(Sphere(5), lambda v: float(-(v @ a @ v)), seed=seed)
        used = {}
        ok = True
        for name in ("rds-sb", "rdse-sb"):
            cfg = default_config(name, budget=5000, seed=seed)
            trace = run_solver(name, prob, cfg)
            used[name] = trace.evals_used
            if name == "rdse-sb":
                ok = trace.best_f <= -5.0 + 1e-3
        if ok and used["rdse-sb"] <= used["rds-sb"]:
            wins += 1
    assert wins >= 7, f"only {wins}/10 seeds"


def test_rdse_dd_single_iteration_steps_to_accepted_point(monkeypatch):
    # with the worked circle example, the first dense iteration accepts
    # alpha = 1 and the iterate moves to R(x0, 1 * d)
    man = Sphere(2)
    start = man.point(np.array([0.0, 1.0]))
    prob = make_problem(man, lambda v: float(-v[0]), start=start)

    class OneDirection:
        ambient_dim = 2
        counter = 0

        def next_ambient(self):
            self.counter += 1
            return np.array([1.0, 0.0])

        def peek(self, k):
            return np.tile([1.0, 0.0], (k, 1))

    cfg = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha0=1.0, budget=3)
    monkeypatch.setattr(solvers, "DenseDirectionStream", lambda seed, n: OneDirection())
    trace = run_solver("rdse-dd", prob, cfg)
    np.testing.assert_allclose(
        trace.final_point.value, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12
    )
    assert trace.success_count == 1


# ---------------------------------------------------------------------------
# poll-batched geometry
# ---------------------------------------------------------------------------

def _manifold_classes():
    classes, todo = [], [Manifold]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


def _recorded_run(name, prob, cfg):
    log = []
    trace = run_solver(
        name, prob, cfg,
        on_eval=lambda p, f: log.append(("eval", p.value.tobytes(), repr(f))),
        on_accept=lambda x, d, a, f0, f1: log.append(
            ("accept", x.value.tobytes(), d.value.tobytes(), a, repr(f0), repr(f1))),
    )
    return (log, trace.history.tobytes(), trace.final_point.value.tobytes(), trace.evals_used,
            trace.iterations, trace.success_count, trace.final_alpha,
            trace.final_alpha_by_slot, trace.switch_eval, trace.stop_reason)


def _row_by_row(many):
    # a stacked retraction as its rows' stacks of one
    def retract(self, x, T):
        xs = x if x.ndim == 2 else [x] * len(T)
        return np.array([many(self, xi, t[None])[0] for xi, t in zip(xs, T)])
    return retract


@pytest.mark.parametrize("problem", ["largest-eig", "largest-sv", "procrustes",
                                     "matrix-completion", "top-sv", "sync-rotations",
                                     "gmm", "dict-learning", "sparsest-vector",
                                     "nonsmooth-mc"])
def test_stacked_geometry_leaves_runs_unchanged(problem, monkeypatch):
    # the same runs three ways: as shipped; with every stacked retraction
    # done row by row as stacks of one, base point by base point; and with
    # chunks of one search, where every direction is projected and every
    # trial point retracted and evaluated on its own.  Evaluations, accepts
    # and traces must be identical
    prob = build_instance(problem, 6, 1)
    names = (("rds-sb", "rdse-sb", "rds-dd-plus", "rdse-dd-plus") if prob.smooth
             else ("rds-dd", "rdse-dd"))
    runs = []
    for variant in ("shipped", "stacks of one", "chunks of one"):
        if variant == "stacks of one":
            for cls in _manifold_classes():
                if "_retract_many" in vars(cls):
                    monkeypatch.setattr(cls, "_retract_many",
                                        _row_by_row(vars(cls)["_retract_many"]))
        elif variant == "chunks of one":
            monkeypatch.undo()
            monkeypatch.setattr(solvers, "CHUNK_MAX", 1)
        got = []
        for name in names:
            # a large alpha_eps makes the *-plus runs reach their dense phase
            extra = {"alpha_eps": 0.2} if name.endswith("plus") else {}
            cfg = default_config(name, budget=30 * (prob.ambient_dim + 1), seed=4, **extra)
            got.append(_recorded_run(name, prob, cfg))
        runs.append(got)
    if prob.smooth:
        assert any(r[8] is not None for r in runs[0])  # a *-plus run switched
    else:
        assert all(r[5] > 0 for r in runs[0])  # some searches accepted
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("budget", [7, 23])
@pytest.mark.parametrize("name", [n for n in SOLVER_NAMES if n != "zo-rgd"])
def test_evaluating_ahead_spends_exactly_the_budget(name, budget):
    # a chunk is evaluated ahead of its searches, and past the budget; the
    # run still consumes one value per evaluation and refuses the next, on
    # a built instance and on a constant objective that fails every search
    for prob in (build_instance("largest-eig", 6, 0), make_problem(Sphere(3), lambda v: 1.0)):
        seen = []
        trace = run_solver(name, prob, default_config(name, budget=budget, seed=1),
                           on_eval=lambda p, f: seen.append(f))
        assert trace.stop_reason == "budget"
        assert len(seen) == trace.evals_used == budget


@pytest.mark.parametrize("problem,n", [("sparsest-vector", 6), ("nonsmooth-mc", 9),
                                       ("largest-eig", 5)])
@pytest.mark.parametrize("budget", [50, 300, 3000])
@pytest.mark.parametrize("name", ["rds-dd", "rdse-dd"])
def test_stream_source_draws_one_direction_per_search(name, problem, n, budget,
                                                      monkeypatch):
    # each search draws its direction when it starts, never ahead of it:
    # one draw per iteration, plus the search the budget cut short
    draws = []

    class Counted(solvers.DenseDirectionStream):
        def next_ambient(self):
            draws.append(self.counter)
            return super().next_ambient()

    monkeypatch.setattr(solvers, "DenseDirectionStream", Counted)
    prob = build_instance(problem, n, 0)
    trace = run_solver(name, prob, default_config(name, budget=budget, seed=2))
    assert len(draws) == trace.iterations + (trace.stop_reason == "budget")


def _stack_sizes(monkeypatch, name, budget, manifold):
    # a constant objective fails every search, so the iterate never moves
    # and every chunk of the sweep over the slots is reached
    prob = make_problem(manifold, lambda v: 1.0)
    sizes = []
    cls = type(manifold)
    many = cls._retract_many
    monkeypatch.setattr(cls, "_retract_many",
                        lambda self, x, T: sizes.append(len(T)) or many(self, x, T))
    run_solver(name, prob, default_config(name, budget=budget, seed=0))
    return sizes


def test_poll_chunks_hold_chunk_max_slots(monkeypatch):
    # every chunk holds CHUNK_MAX slots and stops at the last slot, each
    # chunk one stack, and one generator serves every failed round: the
    # 80 slots of Sphere(40) fill five chunks a round, the 40 of
    # Sphere(20) two full chunks and the 8 slots left.  Slot 0 of the
    # third round starts a chunk before the budget refuses its evaluation
    assert CHUNK_MAX == 16
    assert _stack_sizes(monkeypatch, "rds-sb", 1 + 2 * 80, Sphere(40)) == [16] * 11
    assert _stack_sizes(monkeypatch, "rds-sb", 1 + 2 * 40, Sphere(20)) == [16, 16, 8] * 2 + [16]


@pytest.mark.parametrize("name", ["rds-dd", "rdse-dd"])
@pytest.mark.parametrize("manifold", [Sphere(6), Stiefel(5, 2)], ids=["sphere", "stiefel"])
def test_stream_source_stacks_every_chunk(name, manifold, monkeypatch):
    # every search fails and spends one evaluation, so the budget's
    # 5 * CHUNK_MAX - 1 searches fill five chunks of CHUNK_MAX, on a cheap
    # retraction as on a costly one
    sizes = _stack_sizes(monkeypatch, name, 5 * CHUNK_MAX, manifold)
    assert sizes == [CHUNK_MAX] * 5


@pytest.mark.parametrize("manifold", [Stiefel(8, 5), Sphere(40)], ids=["stiefel", "sphere"])
def test_linesearch_chunks_hold_chunk_max_slots(manifold, monkeypatch):
    # one rule on a costly retraction and on a cheap one: both keep all 80
    # slots, a chunk stops at the last slot and the next starts at slot 0;
    # the first chunk of the third sweep is retracted before the budget
    # refuses its first evaluation
    assert _stack_sizes(monkeypatch, "rdse-sb", 1 + 2 * 80, manifold) == [CHUNK_MAX] * 11


@pytest.mark.parametrize("name", [n for n in SOLVER_NAMES if n != "zo-rgd"])
def test_one_trial_generator_per_iterate(name, monkeypatch):
    # a failed poll round or linesearch reads on from the generator of
    # its iterate; a new one starts only where the iterate moves or a
    # phase begins
    bases = []
    ahead = solvers._ahead

    def counted(x, *args):
        bases.append(x)
        return ahead(x, *args)

    monkeypatch.setattr(solvers, "_ahead", counted)
    prob = build_instance("largest-eig", 6, 0)
    extra = {"alpha_eps": 0.2} if name.endswith("plus") else {}
    trace = run_solver(name, prob, default_config(name, budget=300, seed=1, **extra))
    phases = 1 + name.endswith("plus")
    assert trace.success_count > 0
    assert (trace.switch_eval is not None) == (phases == 2)  # a *-plus run switched
    assert len(bases) == trace.success_count + phases
