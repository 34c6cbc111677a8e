"""Search-direction generation: projected coordinate bases and dense streams.

Two direction sources feed the solvers.  For smooth problems, the signed
ambient coordinate directions (+e_1..+e_n, -e_1..-e_n) are projected onto
the current tangent space, which yields a positive spanning set of that
space whenever the point is non-degenerate.  Which directions survive is
read off the closed-form diagonal of the tangent projector; a direction
itself is projected only on first access and then cached in its basis,
so a poll that moves the iterate early pays for the directions it tried;
the solvers take the directions a chunk of slots at a time, and the
chunk's coordinates are projected in one stacked call.
For nonsmooth problems, a deterministic stream of random unit ambient
vectors (dense in the unit sphere with probability one) is projected and
normalised one direction per iteration.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasis, InvalidShape
from .manifolds import ManifoldPoint, TangentVector, random_tangent

DEFAULT_DROP_TOL = 1e-12
# a squared norm this close to drop_tol**2 is within rounding of the
# threshold; such slots are decided on the projected vector itself
_ROUNDING_BAND = 1e-9


def _project_coordinate(x: ManifoldPoint, i: int):
    """Raw tangent value of the projection of +e_i onto T_x."""
    m = x.manifold
    e = np.zeros(m.ambient_dim)
    e[i] = 1.0
    return m._project(x.value, e)


class BasisVectors(Sequence):
    """The signed projected coordinate directions of one basis, lazily.

    Entry j < k is the projection of +e_{coords[j]} and entry k + j its
    negative.  Reaching either sign projects the coordinate once and
    caches both, so every entry is computed at most once per basis.  A
    slice projects the coordinates it reaches that are not cached yet in
    one stacked ``_project_many`` call.
    """

    __slots__ = ("_base", "_coords", "_cache")

    def __init__(self, base: ManifoldPoint, coords):
        self._base = base
        self._coords = coords
        self._cache = [None] * (2 * len(coords))

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, j):
        if isinstance(j, slice):
            js = range(*j.indices(len(self)))
            self._fill(js)
            return tuple(self._cache[i] for i in js)
        if self._cache[j] is None:
            self._fill((j,))
        return self._cache[j]

    def _fill(self, js):
        """Project the coordinates behind entries ``js`` that are not cached yet."""
        k = len(self._coords)
        todo = []
        for j in js:
            if self._cache[j] is None and j % k not in todo:
                todo.append(j % k)
        if not todo:
            return
        x = self._base
        if len(todo) == 1:
            values = [_project_coordinate(x, self._coords[todo[0]])]
        else:
            e = np.zeros((len(todo), x.manifold.ambient_dim))
            for row, i in enumerate(todo):
                e[row, self._coords[i]] = 1.0
            # copied rows: every value owns its buffer, as a lone projection does
            values = [row.copy() for row in x.manifold._project_many(x.value, e)]
        for i, value in zip(todo, values):
            plus = TangentVector(x, value)
            self._cache[i], self._cache[i + k] = plus, plus.scaled(-1.0)

    def __iter__(self):
        for j in range(len(self._cache)):
            yield self[j]


@dataclass(frozen=True)
class SpanningBasis:
    """Projected signed coordinate directions spanning T_x positively.

    ``vectors[i]`` is the projection of the signed ambient coordinate
    direction identified by ``slots[i]`` (slot s < n means +e_s, slot
    n + s means -e_s); it is projected on first access and cached in this
    basis.  ``measured_b`` is the largest ambient norm among the kept
    vectors; it never exceeds 1 because orthogonal projection contracts
    ambient norms.
    """

    base: ManifoldPoint
    vectors: BasisVectors
    slots: tuple
    measured_b: float

    def __len__(self) -> int:
        return len(self.vectors)


def spanning_basis(x: ManifoldPoint, drop_tol: float = DEFAULT_DROP_TOL) -> SpanningBasis:
    """Projected signed ambient coordinate basis of T_x.

    Every projector here is ambient-orthogonal, so the projection of e_i
    has squared ambient norm P_ii; the manifold's closed-form diagonal
    decides which directions survive and gives ``measured_b`` without
    projecting anything.  Directions whose projection has ambient norm at
    most ``drop_tol`` are discarded (their negatives drop with them); the
    survivors keep the order +e_1..+e_n, -e_1..-e_n and are projected on
    first access.

    Raises
    ------
    DegenerateBasis
        If every projection is dropped.
    """
    if not 0.0 < drop_tol < 1.0:
        raise ValueError("drop_tol must lie in (0, 1)")
    m = x.manifold
    n = m.ambient_dim
    q = m._coord_sqnorms(x.value)
    norms = np.sqrt(np.maximum(q, 0.0))
    for i in np.flatnonzero(np.abs(q - drop_tol * drop_tol) <= _ROUNDING_BAND):
        norms[i] = m.tangent_ambient_norm(x.value, _project_coordinate(x, i))
    kept = np.flatnonzero(norms > drop_tol)
    if kept.size == 0:
        raise DegenerateBasis(
            f"all {2 * n} projected coordinate directions fell below {drop_tol}"
        )
    coords = kept.tolist()
    return SpanningBasis(
        base=x,
        vectors=BasisVectors(x, coords),
        slots=tuple(coords) + tuple(i + n for i in coords),
        measured_b=float(norms[kept].max()),
    )


def measure_tau(basis: SpanningBasis, trials: int, seed) -> float:
    """Lower estimate of the basis' cosine measure.

    Draws ``trials`` random unit tangent directions r at the base point
    and returns the smallest observed ``max_j <r, p_j>`` (Riemannian
    inner products; r has unit Riemannian norm).  Positive values
    certify that some basis direction correlates with every sampled
    direction; this is a diagnostic, not an enforced bound.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = basis.base
    m = x.manifold
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # the minus half negates the plus half exactly, and so do the inner
    # products, so |<r, p>| over the plus half covers both signs
    plus = basis.vectors[: len(basis) // 2]
    worst = np.inf
    for _ in range(trials):
        r = random_tangent(x, rng, unit=True)
        best = max(abs(m._inner(x.value, r.value, p.value)) for p in plus)
        worst = min(worst, best)
    return float(worst)


@dataclass
class DenseDirectionStream:
    """Deterministic stream of unit ambient directions.

    The k-th emitted direction depends only on ``(seed, k, ambient_dim)``:
    a standard normal vector keyed on the pair, normalised to unit
    ambient norm.  Streams are owned by a single solver run.
    """

    seed: int
    ambient_dim: int
    counter: int = field(default=0)

    def next_ambient(self) -> np.ndarray:
        attempt = 0
        while True:
            rng = np.random.default_rng([self.seed, self.counter, attempt])
            d = rng.standard_normal(self.ambient_dim)
            nrm = np.linalg.norm(d)
            if nrm > 1e-12:
                self.counter += 1
                return d / nrm
            attempt += 1


def dense_direction(
    stream: DenseDirectionStream,
    x: ManifoldPoint,
    drop_tol: float = DEFAULT_DROP_TOL,
) -> TangentVector:
    """Next stream direction projected onto T_x, unit Riemannian norm.

    Returns the zero tangent vector when the projection's ambient norm
    does not exceed ``drop_tol`` (the stream direction was normal to
    the tangent space).
    """
    m = x.manifold
    if stream.ambient_dim != m.ambient_dim:
        raise InvalidShape(
            f"stream dimension {stream.ambient_dim} != ambient {m.ambient_dim}"
        )
    d_bar = stream.next_ambient()
    t = m.project_tangent(x, d_bar)
    if t.ambient_norm() <= drop_tol:
        return m.zero_tangent(x)
    return t.scaled(1.0 / t.norm())
