"""Desk-scale invariant suites behind the ``check`` CLI subcommand.

Each suite exercises one module's contracts on seeded inputs and reports
pass/fail with the measured margin, so a release can be gated on
``manisearch check``.  The manifold list is injectable to keep the
suites testable against deliberately broken geometry.  The manifold zoo,
point sampler and hand-built problem defined here double as the test
suite's fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import (
    DenseDirectionStream,
    dense_direction,
    dense_directions,
    measure_tau,
    spanning_basis,
)
from .manifolds import (
    Euclidean,
    FixedRank,
    PositiveSimplex,
    Product,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
    SymmetricPositiveDefinite,
    TangentVector,
    product_spheres,
    random_tangent,
)
from .problems import ProblemInstance
from .solvers import SolverConfig, run_solver


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def manifold_zoo():
    """One representative instance per manifold kind.

    The last three products hold runs of equal blocks, which a product
    retracts in one call with one base point per block.
    """
    return [
        Sphere(8),
        product_spheres([4, 5]),
        Stiefel(7, 3),
        SpecialOrthogonal(3),
        FixedRank(6, 5, 2),
        SymmetricPositiveDefinite(4),
        PositiveSimplex(3),
        Euclidean((3, 2)),
        Product([Sphere(3), Stiefel(4, 2)]),
        product_spheres([4, 4]),
        Product([Stiefel(4, 2), Stiefel(4, 2)]),
        Product([SymmetricPositiveDefinite(3), SymmetricPositiveDefinite(3),
                 PositiveSimplex(2)]),
    ]


def sample_point(m, rng):
    """Seeded point; simplex weights kept away from the boundary.

    Retraction bounds degrade toward the simplex boundary, so the suites
    sample weights from a compact interior subset.
    """
    if isinstance(m, PositiveSimplex):
        while True:
            p = m.random_point(rng)
            if np.min(p.value) >= 0.5 / m.k:
                return p
    return m.random_point(rng)


def make_problem(man, f_val, seed=0, smooth=True, grad=None, start=None,
                 name="custom", known_opt=None):
    """Hand-built problem instance for engineered objectives."""
    if start is None:
        start = man.random_point(np.random.default_rng([seed, 97]))
    return ProblemInstance(
        name=name, manifold=man, ambient_dim=man.ambient_dim,
        requested_dim=man.ambient_dim, seed=seed, smooth=smooth, data={},
        start=start, f0=float(f_val(man._unpack(start.value))), known_opt=known_opt,
        _value_f=f_val, _grad_f=grad,
    )


def geometry_checks(manifolds=None, seed=0, cases=100):
    """Projection, metric, retraction, and feasibility contracts."""
    manifolds = manifold_zoo() if manifolds is None else manifolds
    results = []
    for m in manifolds:
        rng = np.random.default_rng([seed, 11])
        idem = adj = feas = bound = stack_feas = 0.0
        ratio_lo, ratio_hi = np.inf, 0.0
        block_gap = 0.0
        stack_gap = False
        coords = np.eye(m.ambient_dim)[[0, -1]]
        for _ in range(cases):
            x = sample_point(m, rng)
            u_amb = rng.standard_normal(m.ambient_dim)
            w_amb = rng.standard_normal(m.ambient_dim)
            pu = m.project_tangent(x, u_amb)
            pw = m.project_tangent(x, w_amb)

            ppu = m.project_tangent(x, pu.ambient())
            idem = max(idem, np.linalg.norm(ppu.ambient() - pu.ambient())
                       / (1.0 + np.linalg.norm(u_amb)))
            adj = max(adj, abs(float(pu.ambient() @ w_amb)
                               - float(u_amb @ pw.ambient())))

            t_dir = random_tangent(x, rng, unit=False)
            nrm = t_dir.ambient_norm()
            if nrm > 1e-12:
                big = t_dir.scaled(rng.uniform(0.1, 10.0) / nrm)
                feas = max(feas, m.retract(x, big).residual())
                unit = t_dir.scaled(1.0 / nrm)
                small = unit.scaled(rng.uniform(0.1, 1.0))
                moved = m.retract(x, small).ambient() - x.ambient()
                bound = max(bound, np.linalg.norm(moved)
                            / small.ambient_norm())
                for t in (1e-2, 1e-3):
                    e1 = np.linalg.norm(
                        m.retract(x, unit.scaled(t)).ambient()
                        - (x.ambient() + t * unit.ambient()))
                    e2 = np.linalg.norm(
                        m.retract(x, unit.scaled(t / 2)).ambient()
                        - (x.ambient() + (t / 2) * unit.ambient()))
                    if e1 >= 1e-14 and e2 >= 1e-14:
                        ratio_lo = min(ratio_lo, e1 / e2)
                        ratio_hi = max(ratio_hi, e1 / e2)

                # a poll chunk's stacked retraction, less its zero steps;
                # row i must equal its stack of one, which retract passes
                T = np.vstack([pu.value, pw.value, big.value, small.value,
                               m._project_many(x.value, coords)])
                T = T[T.any(axis=1)]
                for row, y in zip(T, m._retract_many(x.value, T)):
                    stack_feas = max(stack_feas, m.point(y, validate=False).residual())
                    single = m.retract(x, TangentVector(x, row)).value
                    stack_gap |= not np.array_equal(y, single)

            if isinstance(m, Product):
                manual = np.concatenate([
                    b._project_many(x.value[sl], u_amb[None, sl])[0]
                    for b, sl in zip(m.blocks, m._slices)
                ])
                if not np.array_equal(m.project_tangent(x, u_amb).value, manual):
                    block_gap = 1.0

        name = m.spec_string()
        results.append(CheckResult(
            f"geometry/idempotence {name}", idem <= 1e-10, f"max {idem:.2e}"))
        results.append(CheckResult(
            f"geometry/self-adjoint {name}", adj <= 1e-10, f"max {adj:.2e}"))
        results.append(CheckResult(
            f"geometry/feasibility {name}", feas <= 1e-8, f"max residual {feas:.2e}"))
        results.append(CheckResult(
            f"geometry/bounded-step {name}", bound <= 2.0, f"max |R-x|/|d| {bound:.3f}"))
        if np.isfinite(ratio_lo):
            ok = 3.5 <= ratio_lo and ratio_hi <= 4.5
            results.append(CheckResult(
                f"geometry/retraction-order {name}", ok,
                f"ratios in [{ratio_lo:.3f}, {ratio_hi:.3f}]"))
        else:
            results.append(CheckResult(
                f"geometry/retraction-order {name}", True, "exact (skipped)"))
        results.append(CheckResult(
            f"geometry/stacked-retraction {name}", stack_feas <= 1e-8 and not stack_gap,
            f"max residual {stack_feas:.2e}, rows of each k-stack"
            f" {'differ from' if stack_gap else 'equal'} their stacks of one"))
        if isinstance(m, Product):
            results.append(CheckResult(
                f"geometry/blockwise {name}", block_gap == 0.0, "exact equality"))
    return results


def direction_checks(manifolds=None, seed=0, points=50, trials=200):
    """Spanning-basis and dense-direction contracts."""
    manifolds = manifold_zoo() if manifolds is None else manifolds
    results = []
    for m in manifolds:
        rng = np.random.default_rng([seed, 23])
        tangency = 0.0
        max_norm = 0.0
        tau_min = np.inf
        for i in range(points):
            x = sample_point(m, rng)
            basis = spanning_basis(x)
            for v in basis.vectors:
                tangency = max(tangency, m.tangency_residual(x, v))
                max_norm = max(max_norm, v.ambient_norm())
            tau_min = min(tau_min, measure_tau(basis, trials, [seed, 29, i]))
        x = sample_point(m, np.random.default_rng([seed, 31]))
        stream = DenseDirectionStream(seed=seed, ambient_dim=m.ambient_dim)
        dense_tangency = max(m.tangency_residual(x, dense_direction(stream, x))
                             for _ in range(20))
        # a solver's stream chunk, the next 20 draws projected in one stack,
        # against each draw's stack of one
        ahead = DenseDirectionStream(seed=seed, ambient_dim=m.ambient_dim)
        rows = dense_directions(ahead, x, 20)
        stream = DenseDirectionStream(seed=seed, ambient_dim=m.ambient_dim)
        lookahead_same = all(np.array_equal(row, dense_direction(stream, x).value)
                             for row in rows)
        name = m.spec_string()
        results.append(CheckResult(
            f"directions/tangency {name}", tangency <= 1e-10, f"max {tangency:.2e}"))
        results.append(CheckResult(
            f"directions/norm-bound {name}", max_norm <= 1 + 1e-12,
            f"max {max_norm:.12f}"))
        results.append(CheckResult(
            f"directions/cosine-measure {name}", tau_min > 0,
            f"min tau estimate {tau_min:.4f}"))
        results.append(CheckResult(
            f"directions/dense-tangency {name}", dense_tangency <= 1e-10,
            f"max {dense_tangency:.2e} over 20 dense directions"))
        results.append(CheckResult(
            f"directions/stream-lookahead {name}", lookahead_same,
            f"rows of a 20-stack {'equal' if lookahead_same else 'differ from'}"
            " their stacks of one"))

    s1 = DenseDirectionStream(seed=3, ambient_dim=7)
    s2 = DenseDirectionStream(seed=3, ambient_dim=7)
    same = all(np.array_equal(s1.next_ambient(), s2.next_ambient())
               for _ in range(50))
    results.append(CheckResult(
        "directions/stream-determinism", same, "50 emissions identical"))

    sph = Sphere(5)
    x = sph.random_point(np.random.default_rng(seed))
    stream = DenseDirectionStream(seed=7, ambient_dim=5)
    norms = [dense_direction(stream, x).norm() for _ in range(100)]
    ok = all(n == 0.0 or abs(n - 1.0) <= 1e-10 for n in norms)
    results.append(CheckResult(
        "directions/dense-unit-norm", ok,
        f"norms within 1e-10 of {{0, 1}} over {len(norms)} draws"))
    return results


def solver_checks(seed=0):
    """Stepsize dynamics, budget accounting, and determinism contracts."""
    results = []
    man = Sphere(6)
    prob = make_problem(man, lambda v: 1.0, seed=seed, name="constant",
                        start=man.random_point(np.random.default_rng([seed, 41])))
    k_iters = 5
    n_dirs = 2 * man.ambient_dim

    cfg = SolverConfig(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha0=1.0,
                       budget=1 + k_iters * n_dirs, seed=seed)
    trace = run_solver("rds-sb", prob, cfg)
    expected = cfg.alpha0
    for _ in range(k_iters):
        expected *= cfg.gamma1
    results.append(CheckResult(
        "solvers/rds-sb-geometric-decay", trace.final_alpha == expected,
        f"alpha {trace.final_alpha!r} vs expected {expected!r}"))
    results.append(CheckResult(
        "solvers/rds-sb-budget", trace.evals_used == cfg.budget,
        f"{trace.evals_used} of {cfg.budget}"))

    cfg_dd = SolverConfig(gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0,
                          budget=1 + k_iters, seed=seed)
    trace_dd = run_solver("rds-dd", prob, cfg_dd)
    expected = cfg_dd.alpha0
    for _ in range(trace_dd.iterations):
        expected *= cfg_dd.gamma1
    results.append(CheckResult(
        "solvers/rds-dd-geometric-decay", trace_dd.final_alpha == expected,
        f"alpha {trace_dd.final_alpha!r} after {trace_dd.iterations} iterations"))

    cfg_e = SolverConfig(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha0=1.0,
                         budget=1 + n_dirs, seed=seed)
    trace_e = run_solver("rdse-sb", prob, cfg_e)
    slot_alphas = np.array(list(trace_e.final_alpha_by_slot.values()))
    one_shrink = cfg_e.gamma1 * cfg_e.alpha0
    results.append(CheckResult(
        "solvers/rdse-sb-sweep-shrink",
        bool(np.all(slot_alphas == one_shrink)),
        f"all {len(slot_alphas)} slots at gamma1*alpha0 after one sweep"))

    mono_ok = all(bool(np.all(t.history[:-1] >= t.history[1:]))
                  for t in (trace, trace_dd, trace_e))
    results.append(CheckResult(
        "solvers/monotone-history", mono_ok, "best_f non-increasing"))

    t1 = run_solver("rds-sb", prob, cfg)
    t2 = run_solver("rds-sb", prob, cfg)
    results.append(CheckResult(
        "solvers/determinism", t1.history.tobytes() == t2.history.tobytes(),
        f"{len(t1.history)} evaluations identical"))
    return results


def run_all(seed=0, cases=100, points=50, trials=200):
    results = []
    results += geometry_checks(seed=seed, cases=cases)
    results += direction_checks(seed=seed, points=points, trials=trials)
    results += solver_checks(seed=seed)
    return results
