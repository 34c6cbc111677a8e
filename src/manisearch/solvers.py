"""Direct-search solvers on manifolds.

The paper's two direct-search algorithms are two search loops, each fed
by a direction source:

    poll loop (RDS)        poll the directions in order, accept the first
                           sufficient decrease, else shrink one stepsize
    linesearch loop (RDSE) one extrapolation linesearch per iteration along
                           direction k mod K, one tentative stepsize per slot

    spanning basis  the projected signed coordinate set at the iterate
                    (smooth problems)
    dense stream    one fresh projected stream direction per search
                    (nonsmooth problems)

One registry names each solver by its loop and its sources:

    rds-sb        poll loop over the spanning basis
    rdse-sb       linesearch loop over the spanning basis
    rds-dd        poll loop over the dense stream
    rdse-dd       linesearch loop over the dense stream
    rds-dd-plus   rds-sb until the stepsize falls to alpha_eps, then rds-dd
    rdse-dd-plus  rdse-sb until every tentative stepsize falls to alpha_eps, then rdse-dd
    zo-rgd        two-point gradient-estimate baseline with stepsize 1.64/n

Both loops read their trial points ``R(x, alpha d)`` from one generator
per iterate, ``_ahead``, which takes the direction rows of the next
``CHUNK_MAX`` searches from their source and retracts them as one stack;
on the spanning basis a chunk stops at the last slot.  It evaluates the
chunk's trial points in one stacked call too, ahead of their searches (as
parallel direct search evaluates its poll set together); the run still
consumes the values one search at a time, in search order, so budgets,
traces, hooks and stream emissions are those of one search at a time.

``run_solver`` runs any of them: it reads an immutable problem instance
and a ``SolverConfig``, spends at most ``budget`` objective evaluations,
and returns a ``RunTrace`` with the per-evaluation best-value history,
one float64 entry per evaluation.  The run (``_Run``) counts and caps
its own evaluations, so one instance serves any number of runs.

A step is accepted only under sufficient decrease
``f(new) <= f(old) - gamma * alpha^2`` by a finite value; a NaN or
infinite trial value fails that test, so it counts as a failed poll, and
never becomes the best value of the history.  Everything is deterministic:
the problem seed fixes the instance and the config seed fixes all
direction randomness, so identical inputs give identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from math import inf, isfinite
from typing import Callable, Optional

import numpy as np

from .directions import (
    DenseDirectionStream,
    dense_direction,  # no solver calls it; perfbench's tracer wraps it here
    dense_directions,
    spanning_basis,
)
from .errors import BaseMismatch, BudgetExhausted
from .manifolds import ManifoldPoint, TangentVector, _same_point, random_tangent

STEP_FLOOR = 1e-16
# searches per trial chunk (on the basis, fewer where a chunk reaches the last
# slot); their trial points are projected and retracted in one stacked call
CHUNK_MAX = 16
_NEG_INF = -np.inf


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the solvers; ``DEFAULT_PARAMS`` names those each one reads.

    gamma      sufficient-decrease coefficient (finite, > 0)
    gamma1     stepsize shrink factor, in (0, 1)
    gamma2     stepsize expansion factor, finite, >= 1 (> 1 where a linesearch runs)
    alpha0     initial stepsize (finite, > 0)
    budget     maximum number of objective evaluations (>= 1)
    alpha_eps  switching threshold for the *-plus strategies (finite, > 0 when set)
    seed       seed for all direction randomness of the run
    mu         probe length of zo-rgd (finite, > 0)
    """

    gamma: float
    gamma1: float
    gamma2: float
    alpha0: float = 1.0
    budget: int = 1000
    alpha_eps: Optional[float] = None
    seed: int = 0
    mu: float = 1e-6

    def __post_init__(self):
        eps = self.alpha_eps
        for name, ok, rule in (
            ("gamma", 0 < self.gamma < inf, "finite and > 0"),
            ("gamma1", 0 < self.gamma1 < 1, "in (0, 1)"),
            ("gamma2", 1 <= self.gamma2 < inf, "finite and >= 1"),
            ("alpha0", 0 < self.alpha0 < inf, "finite and > 0"),
            ("budget", self.budget >= 1, ">= 1"),
            ("alpha_eps", eps is None or 0 < eps < inf, "finite and > 0 when set"),
            ("mu", 0 < self.mu < inf, "finite and > 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class RunTrace:
    """Per-evaluation record of one solver run.

    ``history`` is a 1-D float64 array with one entry per objective
    evaluation: entry i is the best value after evaluation i + 1, so it is
    non-increasing, and ``evals_used`` is its length.  ``switch_eval`` is the
    evaluation count at which a *-plus strategy changed phase, when it did.
    ``stop_reason`` says why the run ended: ``"budget"`` when an evaluation
    was refused, ``"step-floor"`` when the stepsize fell below ``STEP_FLOOR``.
    """

    history: np.ndarray
    final_point: ManifoldPoint
    iterations: int
    success_count: int
    final_alpha: Optional[float] = None
    final_alpha_by_slot: Optional[dict] = None
    switch_eval: Optional[int] = None
    stop_reason: Optional[str] = None

    @property
    def evals_used(self) -> int:
        return len(self.history)

    @property
    def best_f(self) -> float:
        return float(self.history[-1]) if len(self.history) else np.inf


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
    first: Optional[ManifoldPoint] = None,
    f_first: Optional[float] = None,
) -> LinesearchResult:
    """Test ``alpha_tilde`` along ``d`` and extrapolate while decrease holds.

    One evaluation decides failure: unless ``f(R(x, alpha_tilde d))`` is
    finite and at most ``f(x) - gamma alpha_tilde^2`` the result
    is ``(0, gamma1 * alpha_tilde)``.  On success the step is expanded by
    ``gamma2`` until the decrease test first fails, and the last
    successful step is returned as both the accepted and the next
    tentative stepsize.  With ``gamma2 == 1`` no expansion is attempted
    and a first-test success returns ``(alpha_tilde, alpha_tilde)``.

    ``f`` may raise ``BudgetExhausted``; the best result so far is then
    returned with ``truncated=True``.  A zero direction fails without
    spending an evaluation.  ``first``, when given, must be the first
    trial point ``R(x, alpha_tilde d)``, retracted ahead by the caller
    (the linesearch loop takes it from ``_ahead``); ``d`` must still be
    rooted at ``x``.  ``f_first``, when given, is its value, computed
    ahead: ``f(first, f_first)`` then consumes it, as a run does.
    """
    if not alpha_tilde > 0:
        raise ValueError("alpha_tilde must be > 0")
    gamma, gamma1, gamma2 = cfg.gamma, cfg.gamma1, cfg.gamma2
    if d.is_zero():
        return LinesearchResult(0.0, gamma1 * alpha_tilde)
    if first is not None and not _same_point(d.point, x):
        raise BaseMismatch("tangent vector is rooted at a different point")
    if f_x is None:
        f_x = f(x)
    retract = x.manifold.retract
    try:
        trial = retract(x, d.scaled(alpha_tilde)) if first is None else first
        f_trial = f(trial) if f_first is None else f(trial, f_first)
    except BudgetExhausted:
        return LinesearchResult(0.0, alpha_tilde, truncated=True)
    if not (isfinite(f_trial) and f_trial <= f_x - gamma * alpha_tilde * alpha_tilde):
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
            if isfinite(f_trial) and f_trial < f_x - gamma * cand * cand:
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

class _Run:
    """One solver run: its budgeted evaluations, iterate and counts.

    Calling the run evaluates a point, or consumes its value computed
    ahead.  An evaluation past ``cfg.budget`` is refused before the
    objective runs or the value is consumed, by raising
    ``BudgetExhausted``; that refusal is the one place a run is marked
    exhausted.  A NaN or -inf value never becomes the best value.
    ``history`` lists the best value after each evaluation, so its length
    is the evaluations made; entries share one float object until it
    improves, so an entry costs one list slot.  ``fields`` collects the
    stepsize fields of the ``RunTrace``; a later phase overwrites what an
    earlier one set.
    """

    __slots__ = ("inst", "budget", "on_eval", "best", "history",
                 "x", "fx", "iters", "succ", "exhausted", "fields")

    def __init__(self, problem, cfg, on_eval):
        self.inst = problem
        self.budget = cfg.budget
        self.on_eval = on_eval
        self.best = np.inf
        self.history = []
        self.iters = 0
        self.succ = 0
        self.exhausted = False
        self.fields = {}
        self.x = problem.start
        self.fx = self(problem.start)  # budget >= 1: never refused

    def __call__(self, point: ManifoldPoint, f: Optional[float] = None) -> float:
        if len(self.history) >= self.budget:
            self.exhausted = True
            raise BudgetExhausted(
                f"budget of {self.budget} evaluations spent on {self.inst.name}")
        if f is None:
            f = self.inst.evaluate(point.value)
        if _NEG_INF < f < self.best:
            self.best = f
        self.history.append(self.best)
        if self.on_eval is not None:
            self.on_eval(point, f)
        return f

    def trace(self) -> RunTrace:
        return RunTrace(
            history=np.array(self.history, dtype=np.float64),
            final_point=self.x,
            iterations=self.iters,
            success_count=self.succ,
            stop_reason="budget" if self.exhausted else "step-floor",
            **self.fields,
        )


# ---------------------------------------------------------------------------
# direction sources
# ---------------------------------------------------------------------------

class _Basis:
    """The projected spanning basis at the iterate, one slot per signed coordinate.

    The basis is rebuilt only when the iterate has moved, so a failed
    poll or linesearch reuses the directions already projected.  The
    directions of slots start..stop-1 are rows of the basis' ``values``.
    """

    def __init__(self, problem, cfg):
        self.n_slots = 2 * problem.manifold.ambient_dim
        self.basis = None

    def slots(self, x: ManifoldPoint) -> np.ndarray:
        if self.basis is None or self.basis.base is not x:
            self.basis = spanning_basis(x)
            self._slots = np.array(self.basis.slots)
        return self._slots

    def directions(self, x: ManifoldPoint, start: int, stop: int) -> np.ndarray:
        return self.basis.values[start:stop]

    def trace_fields(self, atil) -> dict:
        return dict(final_alpha_by_slot={int(i): float(a) for i, a in enumerate(atil)})


class _Stream:
    """One fresh dense stream direction per search, always in slot 0.

    A search emits its direction when the loop reaches it, after its
    stepsize test, so every emission is spent on a search.  A chunk
    projects the stream's next draws ahead, peeked and not yet emitted;
    draws a moved iterate leaves unused are projected again at the new
    iterate.  ``gamma1`` is the shrink that each failed search
    applies to the stepsize of the next.
    """

    n_slots = 1
    _SLOTS = np.zeros(1, dtype=int)

    def __init__(self, problem, cfg):
        self.stream = DenseDirectionStream(cfg.seed, problem.manifold.ambient_dim)
        self.gamma1 = cfg.gamma1

    def slots(self, x: ManifoldPoint) -> np.ndarray:
        return self._SLOTS

    def directions(self, x: ManifoldPoint, start: int, stop: int) -> np.ndarray:
        # the next stop - start directions as one stack, peeked and not emitted
        return dense_directions(self.stream, x, stop - start)

    def trace_fields(self, atil) -> dict:
        return dict(final_alpha=float(atil[0]))


# ---------------------------------------------------------------------------
# trial points
# ---------------------------------------------------------------------------

def _ahead(x: ManifoldPoint, source, j: int, stepsizes: np.ndarray, evaluate_many):
    """Yield ``(d, alpha, R(x, alpha d), f)`` for the searches ahead at ``x``.

    On the spanning basis the searches run through the slots j, j + 1,
    ..., wrapping to 0 after the last, and ``alpha`` is ``stepsizes`` at
    the slot's id, as a float.  On a dense stream every search draws the
    next stream direction; the first search of a chunk takes
    ``stepsizes[0]``, and search i of the chunk that times gamma1 once
    per earlier search, by repeated multiplication: the stepsize that i
    failed searches leave behind, bitwise.  ``stepsizes`` is read as
    each chunk starts.  A zero direction comes with ``None`` for its
    trial point, so it fails without an evaluation.  ``f`` is the trial
    point's objective value, computed ahead by ``evaluate_many``.

    The chunk rule: trials are computed ``CHUNK_MAX`` searches at a time,
    when the consumer reaches the chunk.  On the basis a chunk stops at
    the last slot, and the next starts at the slot after it, wrapping to
    0.  Every chunk is a stack: ``source.directions`` hands out its
    directions as rows (on a stream, one stacked ``_project_many`` call
    of the peeked draws, each emitted when its search is yielded), and
    one ``_retract_many`` call retracts the rows times their stepsizes,
    and one ``evaluate_many`` call evaluates the rows that moved.  A row
    is wrapped as a tangent vector only when its search is yielded.
    Both loops keep one generator per iterate: the poll starts it at
    slot 0, the linesearch at slot k mod K.
    """
    m = x.manifold
    slots = source.slots(x)
    stream = isinstance(source, _Stream)
    n = len(slots)
    while True:
        if stream:
            stop, a, alphas = j + CHUNK_MAX, float(stepsizes[0]), []
            for _ in range(CHUNK_MAX):
                alphas.append(a)
                a *= source.gamma1
            alphas = np.array(alphas)
        else:
            stop = min(j + CHUNK_MAX, n)
            alphas = stepsizes[slots[j:stop]]
        rows = source.directions(x, j, stop)
        T = rows * alphas[:, None]
        Y = m._retract_many(x.value, T)
        moved = T.any(axis=1)
        fs = np.zeros(len(T))
        if moved.any():
            fs[moved] = evaluate_many(Y[moved])
        for row, a1, mv, y, f in zip(rows, alphas.tolist(), moved.tolist(), Y, fs.tolist()):
            if stream:
                source.stream.next_ambient()  # the search emits its draw
            # a kept point owns a copy of its row, not a view holding the stack
            yield TangentVector(x, row), a1, ManifoldPoint(m, y.copy()) if mv else None, f
        j = stop % n  # a stream has one slot, so its j stays 0


# ---------------------------------------------------------------------------
# search loops
# ---------------------------------------------------------------------------

def _poll(run, source, cfg, on_accept, switch_at=None) -> bool:
    """RDS: poll the source's directions in order with one stepsize.

    The first sufficient decrease moves the iterate and expands the
    stepsize by gamma2; if every poll fails it shrinks by gamma1.  A zero
    direction fails without spending an evaluation.  Runs until the
    budget or the stepsize floor stops it; returns True when it stopped
    because the stepsize fell to ``switch_at``.
    """
    alpha = cfg.alpha0
    # alpha in every slot, as _ahead reads it when a chunk starts; a basis
    # chunk never crosses the last slot, so each round's chunks see its alpha
    alphas = np.empty(source.n_slots)
    trials = None
    try:
        while alpha >= STEP_FLOOR:
            n = len(source.slots(run.x))
            bound = run.fx - cfg.gamma * alpha * alpha
            alphas.fill(alpha)
            if trials is None:
                trials = _ahead(run.x, source, 0, alphas, run.inst.evaluate_many)
            for d, _, trial, f_trial in islice(trials, n):
                if trial is None:
                    continue
                f_trial = run(trial, f_trial)
                if isfinite(f_trial) and f_trial <= bound:
                    if on_accept is not None:
                        on_accept(run.x, d, alpha, run.fx, f_trial)
                    run.x, run.fx = trial, f_trial
                    run.succ += 1
                    alpha *= cfg.gamma2
                    trials = None
                    break
            else:
                alpha *= cfg.gamma1
            run.iters += 1
            if switch_at is not None and alpha <= switch_at:
                return True
    except BudgetExhausted:
        pass
    finally:
        run.fields["final_alpha"] = alpha
    return False


def _linesearch(run, source, cfg, on_accept, switch_at=None) -> bool:
    """RDSE: iteration k runs the extrapolation linesearch along direction k mod K.

    Keeps one tentative stepsize per source slot; a slot whose direction
    drops out of the basis keeps its stepsize until it reappears.  Stops
    when every stepsize of the current directions is below the floor, or
    at the budget; returns True when it stopped because every one fell
    to ``switch_at``.  The first trial of each linesearch comes from
    ``_ahead``, restarted whenever the iterate moves.
    """
    atil = np.full(source.n_slots, float(cfg.alpha0))
    k = 0
    trials = None
    try:
        while True:
            slots = source.slots(run.x)
            if atil[slots].max() < STEP_FLOOR:
                break
            j = k % len(slots)
            if trials is None:
                trials = _ahead(run.x, source, j, atil, run.inst.evaluate_many)
            d, a, first, f_first = next(trials)
            res = linesearch_extrapolate(
                run, run.x, a, d, cfg, f_x=run.fx, on_accept=on_accept,
                first=first, f_first=f_first,
            )
            atil[slots[j]] = res.alpha_next
            if res.alpha > 0:
                run.x, run.fx = res.accepted_point, res.f_accepted
                run.succ += 1
                trials = None
            if res.truncated:  # the run refused an evaluation
                break
            k += 1
            run.iters += 1
            if switch_at is not None and atil[slots].max() <= switch_at:
                return True
    finally:
        run.fields.update(source.trace_fields(atil))
    return False


def default_nonsmooth_phase(cfg: SolverConfig) -> SolverConfig:
    """Dense-phase parameters used by the *-plus strategies."""
    return replace(cfg, **_DENSE)


def _direct_search(problem, cfg, loop, sources, on_accept, on_eval) -> RunTrace:
    """Run ``loop`` over each direction source in turn, on one budget and trace.

    With two sources (the *-plus strategies) the search starts on the
    spanning basis and hands over to the dense stream, from the current
    point and with ``default_nonsmooth_phase(cfg)``, once the stepsize (for
    the linesearch: every tentative stepsize of the current basis) falls
    to ``alpha_eps`` or below.
    """
    cfgs = [cfg] + [default_nonsmooth_phase(cfg)] * (len(sources) - 1)
    run = _Run(problem, cfg, on_eval)
    for i, (source, c) in enumerate(zip(sources, cfgs)):
        if i:
            run.fields["switch_eval"] = len(run.history)
        switch_at = cfg.alpha_eps if i + 1 < len(sources) else None
        if not loop(run, source(problem, c), c, on_accept, switch_at):
            break
    return run.trace()


# ---------------------------------------------------------------------------
# zeroth-order gradient baseline
# ---------------------------------------------------------------------------

def _zo_rgd(problem, cfg: SolverConfig, on_eval) -> RunTrace:
    """Two-point gradient-estimate descent baseline (smooth problems).

    Each iteration probes a random unit tangent direction u, forms the
    directional estimate ``(f(R(x, mu u)) - f(x)) / mu``, and retracts
    the step ``-eta * estimate * u`` with ``eta = 1.64 / n`` for ambient
    dimension n.  Two evaluations per iteration (probe and new iterate).
    The new iterate is taken whatever its value, unless the estimate or
    that value is not finite: the iteration then fails, the iterate stays,
    and the evaluations it made still count against the budget.
    """
    run = _Run(problem, cfg, on_eval)
    m, mu = problem.manifold, cfg.mu
    eta = 1.64 / m.ambient_dim
    rng = np.random.default_rng([cfg.seed, 90])
    try:
        while True:
            u = random_tangent(run.x, rng, unit=True)
            f_probe = run(m.retract(run.x, u.scaled(mu)))
            coef = (f_probe - run.fx) / mu
            if isfinite(coef):
                x_new = m.retract(run.x, u.scaled(-eta * coef))
                f_new = run(x_new)
                if isfinite(f_new):
                    if f_new < run.fx:
                        run.succ += 1
                    run.x, run.fx = x_new, f_new
            run.iters += 1
    except BudgetExhausted:
        pass
    return run.trace()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# the tuned defaults, each stated once; every direct-search method starts at
# SolverConfig's alpha0 = 1, and so does the dense phase of a *-plus strategy
_RDS_SB = dict(gamma=0.77, gamma1=0.61, gamma2=1.0)
_RDSE_SB = dict(gamma=0.11, gamma1=0.81, gamma2=3.12)
_DENSE = dict(gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0)
_ALPHA_EPS = 1e-3

# name -> (search loop, direction sources in phase order, tuned defaults);
# zo-rgd runs its own loop and reads no gamma: the dense ones fill its config
_SOLVERS = {
    "rds-sb": (_poll, (_Basis,), _RDS_SB),
    "rdse-sb": (_linesearch, (_Basis,), _RDSE_SB),
    "rds-dd": (_poll, (_Stream,), _DENSE),
    "rdse-dd": (_linesearch, (_Stream,), _DENSE),
    "rds-dd-plus": (_poll, (_Basis, _Stream), dict(_RDS_SB, alpha_eps=_ALPHA_EPS)),
    "rdse-dd-plus": (_linesearch, (_Basis, _Stream), dict(_RDSE_SB, alpha_eps=_ALPHA_EPS)),
    "zo-rgd": (_zo_rgd, (), _DENSE),
}

SOLVER_NAMES = tuple(_SOLVERS)


def _lookup(name: str) -> tuple:
    if name not in _SOLVERS:
        raise ValueError(f"unknown solver '{name}'")
    return _SOLVERS[name]


def check_config(name: str, cfg: SolverConfig, problem=None) -> None:
    """Raise ``ValueError`` where ``cfg``, or ``problem`` when given, misses
    what solver ``name`` needs.

    ``SolverConfig`` checks each parameter alone; this adds the needs of
    the solver's row: a switching strategy needs ``alpha_eps``, a
    linesearch needs ``gamma2 > 1`` to terminate, and zo-rgd, which
    estimates gradients, needs a smooth problem.
    """
    loop, sources, _ = _lookup(name)
    if loop is _zo_rgd and problem is not None and not problem.smooth:
        raise ValueError(f"{name} applies to smooth problems only, not {problem.name}")
    if len(sources) > 1 and cfg.alpha_eps is None:
        raise ValueError("switching strategies need alpha_eps set")
    if loop is _linesearch and not cfg.gamma2 > 1:  # the dense phase has gamma2 = 2
        who = name if len(sources) == 1 else f"{name} phase 1"
        raise ValueError(f"{who} needs gamma2 > 1 for the linesearch to terminate")


# solver -> {each parameter it reads: its default}; direct search reads the
# gammas and alpha0, a switching strategy alpha_eps too, zo-rgd only mu; a
# default the row does not state is SolverConfig's
_DIRECT = ("gamma", "gamma1", "gamma2", "alpha0")
DEFAULT_PARAMS = {
    name: {p: tuned[p] if p in tuned else getattr(SolverConfig, p)
           for p in (_DIRECT + ("alpha_eps",) * (len(src) > 1) if src else ("mu",))}
    for name, (_, src, tuned) in _SOLVERS.items()}


def check_overrides(solver: str, params) -> None:
    """Raise ``ValueError`` for an override name that is not a parameter in
    ``DEFAULT_PARAMS[solver]``.  A config line's name is checked here before
    it reaches ``default_config``, where ``budget`` or ``seed`` would bind
    that function's own argument."""
    _lookup(solver)
    for param in params:
        if param not in DEFAULT_PARAMS[solver]:
            raise ValueError(f"{solver} does not read '{param}'")


def default_config(solver: str, budget: int, seed: int, **overrides) -> SolverConfig:
    """Config with the tuned defaults for ``solver`` plus overrides, checked by
    ``check_overrides`` and ``check_config``."""
    check_overrides(solver, overrides)
    cfg = SolverConfig(budget=budget, seed=seed, **{**_SOLVERS[solver][2], **overrides})
    check_config(solver, cfg)
    return cfg


def run_solver(name: str, problem, cfg: SolverConfig, *, on_accept=None,
               on_eval=None) -> RunTrace:
    """Run a solver by its stable name once ``check_config`` passes; ``on_accept`` is
    called on every accepted step of a direct-search solver, ``on_eval`` on every evaluation."""
    check_config(name, cfg, problem)
    loop, sources, _ = _lookup(name)
    if not sources:
        return loop(problem, cfg, on_eval)
    return _direct_search(problem, cfg, loop, sources, on_accept, on_eval)
