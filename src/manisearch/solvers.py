"""Direct-search solvers on manifolds.

Seven runners share one contract: consume a problem instance and a
``SolverConfig``, spend at most ``budget`` objective evaluations, and
return a ``RunTrace`` with the per-evaluation best-value history.

    rds-sb        poll a projected spanning basis, fixed stepsize update
    rdse-sb       cycle through the basis, one extrapolation linesearch per iteration
    rds-dd        one dense projected direction per iteration, accept/shrink
    rdse-dd       dense direction explored with the extrapolation linesearch
    rds-dd-plus   rds-sb until the stepsize falls below alpha_eps, then rds-dd
    rdse-dd-plus  rdse-sb until every tentative stepsize falls below alpha_eps, then rdse-dd
    zo-rgd        two-point gradient-estimate baseline with stepsize 1.64/n

A step is accepted only under sufficient decrease
``f(new) <= f(old) - gamma * alpha^2``; a NaN value fails that test, so
it counts as a failed poll.  Everything is deterministic:
the problem seed fixes the instance and the config seed fixes all
direction randomness, so identical inputs give identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .directions import (
    DEFAULT_DROP_TOL,
    DenseDirectionStream,
    SpanningBasis,
    dense_direction,
    spanning_basis,
)
from .errors import BudgetExhausted
from .manifolds import ManifoldPoint, TangentVector, random_tangent

STEP_FLOOR = 1e-16


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by every solver.

    gamma      sufficient-decrease coefficient (> 0)
    gamma1     stepsize shrink factor, in (0, 1)
    gamma2     stepsize expansion factor, >= 1 (> 1 where a linesearch runs)
    alpha0     initial stepsize (> 0)
    budget     maximum number of objective evaluations (>= 1)
    alpha_eps  switching threshold for the *-plus strategies (> 0 when set)
    seed       seed for all direction randomness of the run
    drop_tol   threshold below which projected directions count as zero
    """

    gamma: float
    gamma1: float
    gamma2: float
    alpha0: float = 1.0
    budget: int = 1000
    alpha_eps: Optional[float] = None
    seed: int = 0
    drop_tol: float = DEFAULT_DROP_TOL

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not 0 < self.gamma1 < 1:
            raise ValueError("gamma1 must lie in (0, 1)")
        if not self.gamma2 >= 1:
            raise ValueError("gamma2 must be >= 1")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be > 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.alpha_eps is not None and not self.alpha_eps > 0:
            raise ValueError("alpha_eps must be > 0")
        if not 0 < self.drop_tol < 1:
            raise ValueError("drop_tol must lie in (0, 1)")

    def require_expanding(self, who: str) -> None:
        if not self.gamma2 > 1:
            raise ValueError(f"{who} needs gamma2 > 1 for the linesearch to terminate")


@dataclass
class RunTrace:
    """Per-evaluation record of one solver run.

    ``history`` holds one ``(eval_index, best_f)`` pair per objective
    evaluation (1-based, best_f non-increasing).  ``switch_eval`` is the
    evaluation count at which a *-plus strategy changed phase, when it did.
    ``stop_reason`` says why the run ended: ``"budget"`` when an evaluation
    was refused, ``"step-floor"`` when the stepsize fell below ``STEP_FLOOR``.
    """

    history: list
    final_point: ManifoldPoint
    evals_used: int
    iterations: int
    success_count: int
    final_alpha: Optional[float] = None
    final_alpha_by_slot: Optional[dict] = None
    switch_eval: Optional[int] = None
    stop_reason: Optional[str] = None

    @property
    def best_f(self) -> float:
        return self.history[-1][1] if self.history else np.inf


@dataclass(frozen=True)
class LinesearchResult:
    """Outcome of one extrapolation linesearch.

    ``alpha`` is the accepted step (0 on failure) and ``alpha_next`` the
    tentative stepsize handed to the next round: ``gamma1 * alpha_tilde``
    after a failure, the accepted step otherwise.  ``truncated`` marks a
    search cut short by budget exhaustion.
    """

    alpha: float
    alpha_next: float
    truncated: bool = False
    f_accepted: Optional[float] = None
    accepted_point: Optional[ManifoldPoint] = None


AcceptHook = Callable[[ManifoldPoint, TangentVector, float, float, float], None]


def linesearch_extrapolate(
    f,
    x: ManifoldPoint,
    alpha_tilde: float,
    d: TangentVector,
    cfg: SolverConfig,
    f_x: Optional[float] = None,
    on_accept: Optional[AcceptHook] = None,
) -> LinesearchResult:
    """Test ``alpha_tilde`` along ``d`` and extrapolate while decrease holds.

    One evaluation decides failure: unless ``f(R(x, alpha_tilde d))`` is
    at most ``f(x) - gamma alpha_tilde^2`` (a NaN value is not) the result
    is ``(0, gamma1 * alpha_tilde)``.  On success the step is expanded by
    ``gamma2`` until the decrease test first fails, and the last
    successful step is returned as both the accepted and the next
    tentative stepsize.  With ``gamma2 == 1`` no expansion is attempted
    and a first-test success returns ``(alpha_tilde, alpha_tilde)``.

    ``f`` may raise ``BudgetExhausted``; the best result so far is then
    returned with ``truncated=True``.  A zero direction fails without
    spending an evaluation.
    """
    if not alpha_tilde > 0:
        raise ValueError("alpha_tilde must be > 0")
    gamma, gamma1, gamma2 = cfg.gamma, cfg.gamma1, cfg.gamma2
    if d.is_zero():
        return LinesearchResult(0.0, gamma1 * alpha_tilde)
    if f_x is None:
        f_x = f(x)
    retract = x.manifold.retract
    try:
        trial = retract(x, d.scaled(alpha_tilde))
        f_trial = f(trial)
    except BudgetExhausted:
        return LinesearchResult(0.0, alpha_tilde, truncated=True)
    if not f_trial <= f_x - gamma * alpha_tilde * alpha_tilde:
        return LinesearchResult(0.0, gamma1 * alpha_tilde)

    alpha, f_alpha, pt = alpha_tilde, f_trial, trial
    truncated = False
    if gamma2 > 1:
        while True:
            cand = gamma2 * alpha
            try:
                trial = retract(x, d.scaled(cand))
                f_trial = f(trial)
            except BudgetExhausted:
                truncated = True
                break
            if f_trial < f_x - gamma * cand * cand:
                alpha, f_alpha, pt = cand, f_trial, trial
            else:
                break
    if on_accept is not None:
        on_accept(x, d, alpha, f_x, f_alpha)
    return LinesearchResult(alpha, alpha, truncated=truncated,
                            f_accepted=f_alpha, accepted_point=pt)


# ---------------------------------------------------------------------------
# run plumbing
# ---------------------------------------------------------------------------

class _Eval:
    """Budgeted objective wrapper that records the best-value history."""

    def __init__(self, inst, on_eval=None):
        self.inst = inst
        self.best = np.inf
        self.history = []
        self.on_eval = on_eval

    def __call__(self, point: ManifoldPoint) -> float:
        f = self.inst.evaluate(point.value)
        if f < self.best:
            self.best = f
        self.history.append((self.inst.counter, self.best))
        if self.on_eval is not None:
            self.on_eval(point, f)
        return f


class _BasisCache:
    """Reuses the spanning basis while the iterate does not move."""

    def __init__(self, drop_tol: float):
        self.drop_tol = drop_tol
        self._point = None
        self._basis = None

    def get(self, x: ManifoldPoint) -> SpanningBasis:
        if self._point is not x:
            self._basis = spanning_basis(x, self.drop_tol)
            self._point = x
        return self._basis


class _State:
    """Mutable per-run state shared between solver phases."""

    __slots__ = ("x", "fx", "alpha", "iters", "succ", "exhausted")

    def __init__(self, x, fx):
        self.x = x
        self.fx = fx
        self.alpha = None
        self.iters = 0
        self.succ = 0
        self.exhausted = False


def _trace(ev: _Eval, st: _State, **extra) -> RunTrace:
    return RunTrace(
        history=ev.history,
        final_point=st.x,
        evals_used=ev.inst.counter,
        iterations=st.iters,
        success_count=st.succ,
        stop_reason="budget" if st.exhausted else "step-floor",
        **extra,
    )


def _slot_alphas(atil) -> dict:
    return {int(i): float(a) for i, a in enumerate(atil)}


def _start(problem, cfg, on_eval):
    """Fresh instance, evaluator, and state seeded with f(x0)."""
    inst = problem.fresh(budget=cfg.budget)
    ev = _Eval(inst, on_eval)
    x = problem.start_point()
    st = _State(x, ev(x))  # budget >= 1, so the first evaluation never raises
    return ev, st


# ---------------------------------------------------------------------------
# spanning-basis family
# ---------------------------------------------------------------------------

def _rds_sb_phase(ev, st, alpha, cfg, cache, on_accept, stop_leq=None) -> bool:
    """Poll loop.  Returns True when the phase ended on the switch test."""
    st.alpha = alpha
    try:
        while st.alpha >= STEP_FLOOR:
            basis = cache.get(st.x)
            accepted = False
            for d in basis.vectors:
                trial = st.x.manifold.retract(st.x, d.scaled(st.alpha))
                f_trial = ev(trial)
                if f_trial <= st.fx - cfg.gamma * st.alpha * st.alpha:
                    if on_accept is not None:
                        on_accept(st.x, d, st.alpha, st.fx, f_trial)
                    st.x, st.fx = trial, f_trial
                    st.alpha *= cfg.gamma2
                    st.succ += 1
                    accepted = True
                    break
            if not accepted:
                st.alpha *= cfg.gamma1
            st.iters += 1
            if stop_leq is not None and st.alpha <= stop_leq:
                return True
    except BudgetExhausted:
        st.exhausted = True
    return False


def run_rds_sb(problem, cfg: SolverConfig, *, on_accept=None, on_eval=None) -> RunTrace:
    """Spanning-basis direct search with a single stepsize.

    Each iteration polls the projected basis directions in order and
    accepts the first sufficient decrease (expanding the stepsize by
    gamma2); if every poll fails the stepsize shrinks by gamma1 and the
    iterate stays.  Stops at the budget or below the stepsize floor.
    """
    ev, st = _start(problem, cfg, on_eval)
    cache = _BasisCache(cfg.drop_tol)
    _rds_sb_phase(ev, st, cfg.alpha0, cfg, cache, on_accept)
    return _trace(ev, st, final_alpha=st.alpha)


def _rdse_sb_phase(ev, st, atil, cfg, cache, on_accept, k0=0, stop_max_leq=None) -> bool:
    """Cyclic linesearch loop.  Returns True when the switch test fired."""
    k = k0
    try:
        seen = None
        while True:
            basis = cache.get(st.x)
            if basis is not seen:
                seen, slots = basis, np.array(basis.slots)
            if atil[slots].max() < STEP_FLOOR:
                return False
            j = k % len(basis)
            slot = basis.slots[j]
            res = linesearch_extrapolate(
                ev, st.x, float(atil[slot]), basis.vectors[j], cfg,
                f_x=st.fx, on_accept=on_accept,
            )
            atil[slot] = res.alpha_next
            if res.alpha > 0:
                st.x, st.fx = res.accepted_point, res.f_accepted
                st.succ += 1
            if res.truncated:
                st.exhausted = True
                return False
            k += 1
            st.iters += 1
            if stop_max_leq is not None and atil[slots].max() <= stop_max_leq:
                return True
    except BudgetExhausted:
        st.exhausted = True
    return False


def run_rdse_sb(problem, cfg: SolverConfig, *, on_accept=None, on_eval=None) -> RunTrace:
    """Spanning-basis direct search with per-direction extrapolation.

    Keeps one tentative stepsize per signed coordinate slot, cycles
    through the current basis (iteration k explores direction k mod K),
    and runs the extrapolation linesearch along the selected direction.
    Stepsizes of directions that drop out of the basis are retained and
    reattached if the direction reappears.
    """
    cfg.require_expanding("rdse-sb")
    ev, st = _start(problem, cfg, on_eval)
    cache = _BasisCache(cfg.drop_tol)
    atil = np.full(2 * problem.manifold.ambient_dim, float(cfg.alpha0))
    _rdse_sb_phase(ev, st, atil, cfg, cache, on_accept)
    return _trace(ev, st, final_alpha_by_slot=_slot_alphas(atil))


# ---------------------------------------------------------------------------
# dense-direction family
# ---------------------------------------------------------------------------

def _rds_dd_phase(ev, st, alpha, cfg, stream, on_accept) -> None:
    st.alpha = alpha
    try:
        while st.alpha >= STEP_FLOOR:
            d = dense_direction(stream, st.x, cfg.drop_tol)
            if d.is_zero():
                st.alpha *= cfg.gamma1  # unsuccessful, no evaluation spent
                st.iters += 1
                continue
            trial = st.x.manifold.retract(st.x, d.scaled(st.alpha))
            f_trial = ev(trial)
            if f_trial <= st.fx - cfg.gamma * st.alpha * st.alpha:
                if on_accept is not None:
                    on_accept(st.x, d, st.alpha, st.fx, f_trial)
                st.x, st.fx = trial, f_trial
                st.alpha *= cfg.gamma2
                st.succ += 1
            else:
                st.alpha *= cfg.gamma1
            st.iters += 1
    except BudgetExhausted:
        st.exhausted = True


def run_rds_dd(problem, cfg: SolverConfig, *, on_accept=None, on_eval=None,
               _stream=None) -> RunTrace:
    """Dense-direction direct search for nonsmooth objectives.

    One projected stream direction per iteration; sufficient decrease
    expands the stepsize by gamma2, failure shrinks it by gamma1.  A
    zero projection counts as a failure without costing an evaluation.
    """
    ev, st = _start(problem, cfg, on_eval)
    stream = _stream or DenseDirectionStream(cfg.seed, problem.manifold.ambient_dim)
    _rds_dd_phase(ev, st, cfg.alpha0, cfg, stream, on_accept)
    return _trace(ev, st, final_alpha=st.alpha)


def _rdse_dd_phase(ev, st, atil, cfg, stream, on_accept) -> None:
    st.alpha = atil
    try:
        while st.alpha >= STEP_FLOOR:
            d = dense_direction(stream, st.x, cfg.drop_tol)
            res = linesearch_extrapolate(
                ev, st.x, st.alpha, d, cfg, f_x=st.fx, on_accept=on_accept
            )
            st.alpha = res.alpha_next
            if res.alpha > 0:
                st.x, st.fx = res.accepted_point, res.f_accepted
                st.succ += 1
            if res.truncated:
                st.exhausted = True
                return
            st.iters += 1
    except BudgetExhausted:
        st.exhausted = True


def run_rdse_dd(problem, cfg: SolverConfig, *, on_accept=None, on_eval=None,
                _stream=None) -> RunTrace:
    """Dense-direction search with the extrapolation linesearch.

    Threads a single tentative stepsize through the iterations; each
    stream direction is explored with ``linesearch_extrapolate``.
    """
    cfg.require_expanding("rdse-dd")
    ev, st = _start(problem, cfg, on_eval)
    stream = _stream or DenseDirectionStream(cfg.seed, problem.manifold.ambient_dim)
    _rdse_dd_phase(ev, st, cfg.alpha0, cfg, stream, on_accept)
    return _trace(ev, st, final_alpha=st.alpha)


# ---------------------------------------------------------------------------
# switching strategies
# ---------------------------------------------------------------------------

def default_nonsmooth_phase(cfg: SolverConfig) -> SolverConfig:
    """Dense-phase parameters used by the *-plus strategies."""
    return replace(cfg, gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0)


def run_switching(problem, cfg: SolverConfig, variant: str,
                  cfg2: Optional[SolverConfig] = None,
                  *, on_accept=None, on_eval=None) -> RunTrace:
    """Smooth-phase search that hands over to a dense-direction phase.

    ``variant="plain"`` runs the spanning-basis poll until the stepsize
    falls to ``alpha_eps`` or below, then continues with dense-direction
    search from the current point, stepsize reset to ``cfg2.alpha0``.
    ``variant="extrapolated"`` runs the cyclic linesearch until every
    tentative stepsize attached to the current basis falls to
    ``alpha_eps`` or below, then continues with the dense linesearch.
    Budget and trace span both phases.
    """
    if variant not in ("plain", "extrapolated"):
        raise ValueError("variant must be 'plain' or 'extrapolated'")
    if cfg.alpha_eps is None:
        raise ValueError("switching strategies need alpha_eps set")
    if cfg2 is None:
        cfg2 = default_nonsmooth_phase(cfg)
    if variant == "extrapolated":
        cfg.require_expanding("rdse-dd-plus phase 1")
        cfg2.require_expanding("rdse-dd-plus phase 2")

    ev, st = _start(problem, cfg, on_eval)
    cache = _BasisCache(cfg.drop_tol)
    switch_eval = None
    by_slot = None
    if variant == "plain":
        switched = _rds_sb_phase(
            ev, st, cfg.alpha0, cfg, cache, on_accept, stop_leq=cfg.alpha_eps
        )
    else:
        atil = np.full(2 * problem.manifold.ambient_dim, float(cfg.alpha0))
        switched = _rdse_sb_phase(
            ev, st, atil, cfg, cache, on_accept, stop_max_leq=cfg.alpha_eps
        )
        by_slot = _slot_alphas(atil)
    if switched and not st.exhausted:
        switch_eval = ev.inst.counter
        stream = DenseDirectionStream(cfg.seed, problem.manifold.ambient_dim)
        if variant == "plain":
            _rds_dd_phase(ev, st, cfg2.alpha0, cfg2, stream, on_accept)
        else:
            _rdse_dd_phase(ev, st, cfg2.alpha0, cfg2, stream, on_accept)
    return _trace(ev, st, switch_eval=switch_eval, final_alpha=st.alpha,
                  final_alpha_by_slot=by_slot)


# ---------------------------------------------------------------------------
# zeroth-order gradient baseline
# ---------------------------------------------------------------------------

def run_zo_rgd(problem, cfg: SolverConfig, mu: float = 1e-6,
               *, on_eval=None) -> RunTrace:
    """Two-point gradient-estimate descent baseline (smooth problems).

    Each iteration probes a random unit tangent direction u, forms the
    directional estimate ``(f(R(x, mu u)) - f(x)) / mu``, and retracts
    the step ``-eta * estimate * u`` with ``eta = 1.64 / n`` for ambient
    dimension n.  Two evaluations per iteration (probe and new iterate).
    """
    if not mu > 0:
        raise ValueError("mu must be > 0")
    if not problem.smooth:
        raise ValueError("zo-rgd applies to smooth problems only")
    ev, st = _start(problem, cfg, on_eval)
    m = problem.manifold
    eta = 1.64 / m.ambient_dim
    rng = np.random.default_rng([cfg.seed, 90])
    try:
        while True:
            u = random_tangent(st.x, rng, unit=True)
            f_probe = ev(m.retract(st.x, u.scaled(mu)))
            coef = (f_probe - st.fx) / mu
            x_new = m.retract(st.x, u.scaled(-eta * coef))
            f_new = ev(x_new)
            if f_new < st.fx:
                st.succ += 1
            st.x, st.fx = x_new, f_new
            st.iters += 1
    except BudgetExhausted:
        st.exhausted = True
    return _trace(ev, st)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_HOOKS = ("on_accept", "on_eval")

# name -> (runner, the run_solver keywords it takes, tuned defaults);
# alpha0 = 1 for all direct-search methods
_SOLVERS = {
    "rds-sb": (run_rds_sb, _HOOKS, dict(gamma=0.77, gamma1=0.61, gamma2=1.0)),
    "rdse-sb": (run_rdse_sb, _HOOKS, dict(gamma=0.11, gamma1=0.81, gamma2=3.12)),
    "rds-dd": (run_rds_dd, _HOOKS, dict(gamma=1.0, gamma1=0.95, gamma2=2.0)),
    "rdse-dd": (run_rdse_dd, _HOOKS, dict(gamma=1.0, gamma1=0.95, gamma2=2.0)),
    "rds-dd-plus": (partial(run_switching, variant="plain"), ("cfg2", *_HOOKS),
                    dict(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha_eps=1e-3)),
    "rdse-dd-plus": (partial(run_switching, variant="extrapolated"), ("cfg2", *_HOOKS),
                     dict(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha_eps=1e-3)),
    "zo-rgd": (run_zo_rgd, ("mu", "on_eval"),
               dict(gamma=1.0, gamma1=0.5, gamma2=1.0)),  # gamma* unused here
}

SOLVER_NAMES = tuple(_SOLVERS)
DEFAULT_PARAMS = {name: params for name, (_, _, params) in _SOLVERS.items()}
DEFAULT_MU = 1e-6


def _lookup(name: str) -> tuple:
    if name not in _SOLVERS:
        raise ValueError(f"unknown solver '{name}'")
    return _SOLVERS[name]


def default_config(solver: str, budget: int, seed: int, **overrides) -> SolverConfig:
    """Config with the tuned defaults for ``solver``, plus overrides."""
    params = {**_lookup(solver)[2], **overrides}
    return SolverConfig(budget=budget, seed=seed, **params)


def run_solver(name: str, problem, cfg: SolverConfig, *, mu: float = DEFAULT_MU,
               cfg2: Optional[SolverConfig] = None,
               on_accept=None, on_eval=None) -> RunTrace:
    """Run a solver by its stable name; keywords it does not take are ignored."""
    run, takes, _ = _lookup(name)
    given = dict(mu=mu, cfg2=cfg2, on_accept=on_accept, on_eval=on_eval)
    return run(problem, cfg, **{k: given[k] for k in takes})
