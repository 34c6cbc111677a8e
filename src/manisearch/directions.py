"""Search-direction generation: projected coordinate bases and dense streams.

Two direction sources feed the solvers.  For smooth problems, the signed
ambient coordinate directions (+e_1..+e_n, -e_1..-e_n) are projected onto
the current tangent space and those that vanish are dropped, which
yields a positive spanning set of that space whenever the point is
non-degenerate.  One stacked ``_project_many`` call projects every
coordinate, and the basis keeps the survivors as the rows of one array.
For nonsmooth problems, one seeded generator per run draws a sequence of
independent standard normal ambient vectors; normalised, they are
i.i.d. uniform on the unit sphere and so dense in it with probability
one.  Each is projected and normalised, one direction per search.
Both sources hand out directions as rows of one array of tangent values.
``dense_directions`` projects the next k draws in one stacked
``_project_many`` call, peeked and not emitted, so a solver can fix the
trial points of several searches at one iterate before it reaches them;
``dense_direction`` is its stack of one, emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasis, InvalidShape
from .kernels import row_dots
from .manifolds import ManifoldPoint, TangentVector, random_tangent

# a projected direction whose norm does not exceed this is zero: it was
# normal to the tangent space, up to rounding
DROP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpanningBasis:
    """Projected signed coordinate directions spanning T_x positively.

    Row i of ``values`` is the tangent value of the projection of the
    signed ambient coordinate direction identified by ``slots[i]`` (slot
    s < n means +e_s, slot n + s means -e_s); ``vectors`` wraps the rows
    as tangent vectors at ``base``.  ``measured_b`` is the largest ambient
    norm among the kept vectors; it never exceeds 1 because orthogonal
    projection contracts ambient norms.
    """

    base: ManifoldPoint
    values: np.ndarray
    slots: tuple
    measured_b: float

    @property
    def vectors(self) -> tuple:
        return tuple(TangentVector(self.base, v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)


def spanning_basis(x: ManifoldPoint) -> SpanningBasis:
    """Projected signed ambient coordinate basis of T_x.

    Projects +e_1..+e_n in one stacked call and keeps each projection
    whose ambient norm exceeds ``DROP_TOL``; a dropped direction's
    negative drops with it.  The survivors keep the order +e_1..+e_n,
    -e_1..-e_n, and each negative is its projection times -1.

    Raises
    ------
    DegenerateBasis
        If every projection is dropped.
    """
    m = x.manifold
    n = m.ambient_dim
    P = m._project_many(x.value, np.eye(n))
    # every packed tangent value has the ambient norm of its embedding
    norms = np.sqrt(row_dots(P, P))
    kept = np.flatnonzero(norms > DROP_TOL)
    if kept.size == 0:
        raise DegenerateBasis(
            f"all {2 * n} projected coordinate directions fell below {DROP_TOL}"
        )
    plus = P[kept]
    coords = tuple(kept.tolist())
    return SpanningBasis(
        base=x,
        values=np.concatenate((plus, plus * -1.0)),
        slots=coords + tuple(i + n for i in coords),
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
    rng = np.random.default_rng(seed)
    # the minus half negates the plus half exactly, and so do the inner
    # products, so |<r, p>| over the plus half covers both signs
    plus = basis.values[: len(basis) // 2]
    worst = np.inf
    for _ in range(trials):
        r = random_tangent(x, rng, unit=True)
        worst = min(worst, np.abs(m._inners(x.value, r.value[None], plus)).max())
    return float(worst)


@dataclass
class DenseDirectionStream:
    """Deterministic stream of unit ambient directions.

    The k-th emitted direction is the k-th usable draw of one generator
    keyed on ``(seed, ambient_dim)``: a standard normal vector,
    normalised to unit ambient norm.  A draw whose norm does not exceed
    1e-12 is skipped.  ``peek(k)`` returns the next k emissions without
    emitting them; ``next_ambient`` emits the peeked draws first, so
    peeking never changes what is emitted.  The peeked draws wait as the
    rows of one array: ``peek`` copies its first k rows, and
    ``next_ambient`` slices the first row off.  ``counter`` counts the
    emitted directions only.  Streams are owned by a single solver run.
    """

    seed: int
    ambient_dim: int
    counter: int = field(default=0, init=False)

    def __post_init__(self):
        self._rng = np.random.default_rng([self.seed, self.ambient_dim])
        self._peeked = np.empty((0, self.ambient_dim))

    def _fill(self, k: int) -> None:
        # draw until k usable draws wait unemitted; a stack of draws takes
        # the generator's values in the order single draws would
        while len(self._peeked) < k:
            D = self._rng.standard_normal((k - len(self._peeked), self.ambient_dim))
            nrm = np.sqrt(row_dots(D, D))
            kept = nrm > 1e-12
            self._peeked = np.concatenate((self._peeked, D[kept] / nrm[kept, None]))

    def peek(self, k: int) -> np.ndarray:
        """The next ``k`` emissions as a (k, ambient_dim) stack, not emitted."""
        self._fill(k)
        return self._peeked[:k].copy()

    def next_ambient(self) -> np.ndarray:
        self._fill(1)
        self.counter += 1
        d, self._peeked = self._peeked[0], self._peeked[1:]
        return d


def dense_directions(stream: DenseDirectionStream, x: ManifoldPoint, k: int) -> np.ndarray:
    """The next ``k`` stream directions at ``x``, peeked and not emitted.

    Returns a (k, len) stack of tangent values: each peeked draw projected
    onto T_x and scaled to unit Riemannian norm, or a zero row where that
    norm does not exceed ``DROP_TOL`` (the draw was normal to the tangent
    space).  One stacked ``_project_many`` call projects the k draws and
    one ``_norms`` call measures them, so row i is bitwise the same in
    any stack holding it, a stack of one included.  On the kinds with the
    embedded metric (sphere, product-spheres, stiefel, so, fixed-rank,
    euclidean) the norm is the ambient norm; on spd and products holding
    it, it is the kind's own metric.
    """
    m = x.manifold
    if stream.ambient_dim != m.ambient_dim:
        raise InvalidShape(
            f"stream dimension {stream.ambient_dim} != ambient {m.ambient_dim}"
        )
    rows = m._project_many(x.value, stream.peek(k))
    nrm = m._norms(x.value, rows)
    kept = nrm > DROP_TOL
    rows[kept] *= (1.0 / nrm[kept])[:, None]
    rows[~kept] = 0.0
    return rows


def dense_direction(stream: DenseDirectionStream, x: ManifoldPoint) -> TangentVector:
    """The next stream direction at ``x``, emitted.

    It is the stack of one of ``dense_directions``, as a tangent vector:
    unit Riemannian norm, or zero where the draw was normal to T_x.
    """
    d = TangentVector(x, dense_directions(stream, x, 1)[0])
    stream.next_ambient()
    return d
