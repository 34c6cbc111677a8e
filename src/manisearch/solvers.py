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

Both loops read their trial points ``R(x, alpha d)`` from one generator,
``_ahead``, which takes the direction rows of upcoming searches at one
iterate from their source and retracts them as one stack, a chunk at a
time, a chunk of one included; its docstring states the chunk rule.
Evaluation stays lazy and in search order, so budgets, traces, hooks and
stream emissions are those of one search at a time.

``run_solver`` runs any of them: it consumes a problem instance and a
``SolverConfig``, spends at most ``budget`` objective evaluations, and
returns a ``RunTrace`` with the per-evaluation best-value history, one
float64 entry per evaluation.

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
from math import isfinite
from typing import Callable, Optional

import numpy as np

from .directions import (
    DEFAULT_DROP_TOL,
    DenseDirectionStream,
    dense_direction,  # no solver calls it; perfbench's tracer wraps it here
    dense_directions,
    spanning_basis,
)
from .errors import BaseMismatch, BudgetExhausted
from .manifolds import ManifoldPoint, TangentVector, _same_point, random_tangent

STEP_FLOOR = 1e-16
# largest number of trial points projected and retracted in one stacked call
CHUNK_MAX = 16
_NEG_INF = -np.inf


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


@dataclass
class RunTrace:
    """Per-evaluation record of one solver run.

    ``history`` is a 1-D float64 array with one entry per objective
    evaluation: entry i is the best value after evaluation i + 1, so it is
    non-increasing and its length is ``evals_used``.  ``switch_eval`` is the
    evaluation count at which a *-plus strategy changed phase, when it did.
    ``stop_reason`` says why the run ended: ``"budget"`` when an evaluation
    was refused, ``"step-floor"`` when the stepsize fell below ``STEP_FLOOR``.
    """

    history: np.ndarray
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
    rooted at ``x``.
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
        f_trial = f(trial)
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

class _Eval:
    """Budgeted objective wrapper that records the best-value history.

    A NaN or -inf value never becomes the best value.  ``history`` lists
    the best value after each evaluation; entries share one float object
    until it improves, so an entry costs one list slot.
    """

    def __init__(self, inst, on_eval=None):
        self.inst = inst
        self.best = np.inf
        self.history = []
        self.on_eval = on_eval

    def __call__(self, point: ManifoldPoint) -> float:
        f = self.inst.evaluate(point.value)
        if _NEG_INF < f < self.best:
            self.best = f
        self.history.append(self.best)
        if self.on_eval is not None:
            self.on_eval(point, f)
        return f


class _State:
    """Mutable per-run state shared between solver phases.

    ``fields`` collects the stepsize fields of the ``RunTrace``; a later
    phase overwrites what an earlier one set.
    """

    __slots__ = ("x", "fx", "iters", "succ", "exhausted", "fields")

    def __init__(self, x, fx):
        self.x = x
        self.fx = fx
        self.iters = 0
        self.succ = 0
        self.exhausted = False
        self.fields = {}


def _trace(ev: _Eval, st: _State) -> RunTrace:
    return RunTrace(
        history=np.array(ev.history, dtype=np.float64),
        final_point=st.x,
        evals_used=ev.inst.counter,
        iterations=st.iters,
        success_count=st.succ,
        stop_reason="budget" if st.exhausted else "step-floor",
        **st.fields,
    )


def _start(problem, cfg, on_eval):
    """Fresh instance, evaluator, and state seeded with f(x0)."""
    inst = problem.fresh(budget=cfg.budget)
    ev = _Eval(inst, on_eval)
    st = _State(problem.start, ev(problem.start))  # budget >= 1: never raises
    return ev, st


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
        self.drop_tol = cfg.drop_tol
        self.basis = None

    def slots(self, x: ManifoldPoint) -> np.ndarray:
        if self.basis is None or self.basis.base is not x:
            self.basis = spanning_basis(x, self.drop_tol)
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
        self.drop_tol = cfg.drop_tol
        self.gamma1 = cfg.gamma1

    def slots(self, x: ManifoldPoint) -> np.ndarray:
        return self._SLOTS

    def directions(self, x: ManifoldPoint, start: int, stop: int) -> np.ndarray:
        # the next stop - start directions as one stack, peeked and not emitted
        return dense_directions(self.stream, x, stop - start, self.drop_tol)

    def trace_fields(self, atil) -> dict:
        return dict(final_alpha=float(atil[0]))


# ---------------------------------------------------------------------------
# trial points
# ---------------------------------------------------------------------------

def _ahead(x: ManifoldPoint, source, j: int, stepsizes: np.ndarray, cap: int):
    """Yield ``(d, alpha, R(x, alpha d))`` for the searches ahead at ``x``.

    On the spanning basis the searches run through the slots j, j + 1,
    ..., wrapping to 0 after the last, and ``alpha`` is ``stepsizes`` at
    the slot's id, as a float.  On a dense stream every search draws the
    next stream direction; the first search of a chunk takes
    ``stepsizes[0]``, and search i of the chunk that times gamma1 once
    per earlier search, by repeated multiplication: the stepsize that i
    failed searches leave behind, bitwise.  ``stepsizes`` is read as
    each chunk starts.  A zero direction comes with ``None`` for its
    trial point, so it fails without an evaluation.

    The chunk rule: trials are computed a chunk of searches at a time,
    when the consumer reaches the chunk.  On the basis the chunks hold 1,
    2, 4, ... up to ``cap`` slots and never run past the last slot; on a
    stream every chunk holds ``cap`` searches.  Every chunk, one of one
    included, is a stack: ``source.directions`` hands out its directions
    as rows (on a stream, one stacked ``_project_many`` call of the
    peeked draws, each emitted when its search is yielded), and one
    ``_retract_many`` call retracts the rows times their stepsizes.  A
    row is wrapped as a tangent vector only when its search is yielded.
    The poll reads one round of the basis from a fresh generator at slot
    0, and a stream from one generator per iterate, with
    ``cap = CHUNK_MAX``.  The linesearch starts one at slot
    k mod K whenever the iterate moves, with ``cap = CHUNK_MAX`` on a
    stream or where a retraction factorises a matrix
    (``Manifold.costly_retraction``), and 1 elsewhere, where a stacked
    basis chunk costs more than the unused trials it computes.
    """
    m = x.manifold
    slots = source.slots(x)
    stream = isinstance(source, _Stream)
    n, c = len(slots), cap if stream else 1
    while True:
        if stream:
            stop, a, alphas = j + c, float(stepsizes[0]), []
            for _ in range(c):
                alphas.append(a)
                a *= source.gamma1
            alphas = np.array(alphas)
        else:
            stop = min(j + c, n)
            alphas = stepsizes[slots[j:stop]]
        rows = source.directions(x, j, stop)
        T = rows * alphas[:, None]
        Y = m._retract_many(x.value, T)
        for row, a1, moved, y in zip(rows, alphas.tolist(), T.any(axis=1).tolist(), Y):
            if stream:
                source.stream.next_ambient()  # the search emits its draw
            # a kept point owns a copy of its row, not a view holding the stack
            yield TangentVector(x, row), a1, ManifoldPoint(m, y.copy()) if moved else None
        j, c = (stop, c) if stream else (stop % n, min(2 * c, cap))


# ---------------------------------------------------------------------------
# search loops
# ---------------------------------------------------------------------------

def _poll(ev, st, source, cfg, on_accept, switch_at=None) -> bool:
    """RDS: poll the source's directions in order with one stepsize.

    The first sufficient decrease moves the iterate and expands the
    stepsize by gamma2; if every poll fails it shrinks by gamma1.  A zero
    direction fails without spending an evaluation.  Runs until the
    budget or the stepsize floor stops it; returns True when it stopped
    because the stepsize fell to ``switch_at``.
    """
    alpha = cfg.alpha0
    alphas = np.empty(source.n_slots)  # alpha in every slot, as _ahead reads it
    # a basis round starts a fresh generator; a stream keeps one per iterate
    per_round = not isinstance(source, _Stream)
    trials = None
    try:
        while alpha >= STEP_FLOOR:
            n = len(source.slots(st.x))
            bound = st.fx - cfg.gamma * alpha * alpha
            alphas.fill(alpha)
            if trials is None or per_round:
                trials = _ahead(st.x, source, 0, alphas, CHUNK_MAX)
            for d, _, trial in islice(trials, n):
                if trial is None:
                    continue
                f_trial = ev(trial)
                if isfinite(f_trial) and f_trial <= bound:
                    if on_accept is not None:
                        on_accept(st.x, d, alpha, st.fx, f_trial)
                    st.x, st.fx = trial, f_trial
                    st.succ += 1
                    alpha *= cfg.gamma2
                    trials = None
                    break
            else:
                alpha *= cfg.gamma1
            st.iters += 1
            if switch_at is not None and alpha <= switch_at:
                return True
    except BudgetExhausted:
        st.exhausted = True
    finally:
        st.fields["final_alpha"] = alpha
    return False


def _linesearch(ev, st, source, cfg, on_accept, switch_at=None) -> bool:
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
    stacks = isinstance(source, _Stream) or st.x.manifold.costly_retraction
    cap = CHUNK_MAX if stacks else 1
    trials = None
    try:
        while True:
            slots = source.slots(st.x)
            if atil[slots].max() < STEP_FLOOR:
                break
            j = k % len(slots)
            if trials is None:
                trials = _ahead(st.x, source, j, atil, cap)
            d, a, first = next(trials)
            res = linesearch_extrapolate(
                ev, st.x, a, d, cfg, f_x=st.fx, on_accept=on_accept, first=first,
            )
            atil[slots[j]] = res.alpha_next
            if res.alpha > 0:
                st.x, st.fx = res.accepted_point, res.f_accepted
                st.succ += 1
                trials = None
            if res.truncated:
                st.exhausted = True
                break
            k += 1
            st.iters += 1
            if switch_at is not None and atil[slots].max() <= switch_at:
                return True
    except BudgetExhausted:
        st.exhausted = True
    finally:
        st.fields.update(source.trace_fields(atil))
    return False


def default_nonsmooth_phase(cfg: SolverConfig) -> SolverConfig:
    """Dense-phase parameters used by the *-plus strategies."""
    return replace(cfg, gamma=1.0, gamma1=0.95, gamma2=2.0, alpha0=1.0)


def _direct_search(name, problem, cfg, loop, sources, on_accept, on_eval) -> RunTrace:
    """Run ``loop`` over each direction source in turn, on one budget and trace.

    With two sources (the *-plus strategies) the search starts on the
    spanning basis and hands over to the dense stream, from the current
    point and with ``default_nonsmooth_phase(cfg)``, once the stepsize (for
    the linesearch: every tentative stepsize of the current basis) falls
    to ``alpha_eps`` or below.
    """
    check_config(name, cfg)
    cfgs = [cfg] + [default_nonsmooth_phase(cfg)] * (len(sources) - 1)
    ev, st = _start(problem, cfg, on_eval)
    for i, (source, c) in enumerate(zip(sources, cfgs)):
        if i:
            st.fields["switch_eval"] = ev.inst.counter
        switch_at = cfg.alpha_eps if i + 1 < len(sources) else None
        if not loop(ev, st, source(problem, c), c, on_accept, switch_at):
            break
    return _trace(ev, st)


# ---------------------------------------------------------------------------
# zeroth-order gradient baseline
# ---------------------------------------------------------------------------

def _zo_rgd(problem, cfg: SolverConfig, mu: float, on_eval) -> RunTrace:
    """Two-point gradient-estimate descent baseline (smooth problems).

    Each iteration probes a random unit tangent direction u, forms the
    directional estimate ``(f(R(x, mu u)) - f(x)) / mu``, and retracts
    the step ``-eta * estimate * u`` with ``eta = 1.64 / n`` for ambient
    dimension n.  Two evaluations per iteration (probe and new iterate).
    The new iterate is taken whatever its value, unless the estimate or
    that value is not finite: the iteration then fails, the iterate stays,
    and the evaluations it made still count against the budget.
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
            if isfinite(coef):
                x_new = m.retract(st.x, u.scaled(-eta * coef))
                f_new = ev(x_new)
                if isfinite(f_new):
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

# name -> (search loop, direction sources in phase order, tuned defaults);
# zo-rgd runs its own loop and takes no direction source.
# alpha0 = 1 for all direct-search methods
_SOLVERS = {
    "rds-sb": (_poll, (_Basis,), dict(gamma=0.77, gamma1=0.61, gamma2=1.0)),
    "rdse-sb": (_linesearch, (_Basis,), dict(gamma=0.11, gamma1=0.81, gamma2=3.12)),
    "rds-dd": (_poll, (_Stream,), dict(gamma=1.0, gamma1=0.95, gamma2=2.0)),
    "rdse-dd": (_linesearch, (_Stream,), dict(gamma=1.0, gamma1=0.95, gamma2=2.0)),
    "rds-dd-plus": (_poll, (_Basis, _Stream),
                    dict(gamma=0.77, gamma1=0.61, gamma2=1.0, alpha_eps=1e-3)),
    "rdse-dd-plus": (_linesearch, (_Basis, _Stream),
                     dict(gamma=0.11, gamma1=0.81, gamma2=3.12, alpha_eps=1e-3)),
    "zo-rgd": (_zo_rgd, (), dict(gamma=1.0, gamma1=0.5, gamma2=1.0)),  # gamma* unused here
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


def check_config(name: str, cfg: SolverConfig) -> None:
    """Raise ``ValueError`` where ``cfg`` misses what solver ``name`` needs.

    ``SolverConfig`` checks each parameter alone; this adds the needs of
    the solver's row: a switching strategy needs ``alpha_eps``, and a
    linesearch needs ``gamma2 > 1`` to terminate.
    """
    loop, sources, _ = _lookup(name)
    if len(sources) > 1 and cfg.alpha_eps is None:
        raise ValueError("switching strategies need alpha_eps set")
    if loop is _linesearch and not cfg.gamma2 > 1:  # the dense phase has gamma2 = 2
        who = name if len(sources) == 1 else f"{name} phase 1"
        raise ValueError(f"{who} needs gamma2 > 1 for the linesearch to terminate")


def run_solver(name: str, problem, cfg: SolverConfig, *, mu: float = DEFAULT_MU,
               on_accept=None, on_eval=None) -> RunTrace:
    """Run a solver by its stable name.

    ``mu`` is the probe length of zo-rgd, and ``on_accept`` is called on
    every accepted step of the direct-search solvers; each solver ignores
    the keyword it does not take.
    """
    loop, sources, _ = _lookup(name)
    if not sources:
        return loop(problem, cfg, mu, on_eval)
    return _direct_search(name, problem, cfg, loop, sources, on_accept, on_eval)
