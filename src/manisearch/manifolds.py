"""Embedded manifolds: tangent projections, metrics, retractions, sampling.

Every manifold here is a submanifold of some flat ambient space R^n.
Every point and every tangent vector is stored as one flat 1-D float64
array.  For all kinds except fixed-rank that array is the flat ambient
coordinate vector of length ``ambient_dim`` itself (matrices in row-major
order, products as their blocks' vectors concatenated), so scaling a
tangent is ``c * t`` and the zero test is ``not t.any()``.  Fixed-rank
points and tangents are stored factored, packed flat by
``FixedRank.pack``.  This module alone knows the layouts: ``_unpack``
returns reshaped views of a point value in the shapes the objectives
read.  Random ambient directions enter through ``project_tangent``, the
coordinate directions of a spanning basis through ``_project_many``, and
the resulting tangent vectors are moved along with ``retract``.

A search fixes several trial points at one iterate before it evaluates
any of them, and numpy call overhead, not arithmetic, dominates the cost
of one small retraction.  ``_retract_many`` and ``_project_many`` take a
(k, len) stack of rows and return the k results in one stacked numpy
call (``np.linalg.qr``, ``svd``, ``solve`` and ``matmul`` loop over a
stack matrix by matrix).  They are a kind's one retraction and one
projection: ``retract`` and ``project_tangent`` pass a stack of one, and
row i of a stack is bitwise the same in any stack holding it.  The
retraction's base point is one flat value or a (k, len) stack of them,
one per row; numpy broadcasting covers both.  A product retracts each
run of adjacent equal blocks in one call, on the stack of the block
values that move.  ``_sqnorms`` gives the squared Riemannian norms of a
tangent stack, each bitwise its ``_inner``; sphere and fixed-rank, the
kinds of the nonsmooth problems, compute it in one stacked call, the
others row by row.

Supported kinds and their stable names:

    sphere(n)            unit vectors in R^n
    product-spheres(...) product of unit spheres
    stiefel(n,p)         n-by-p matrices with orthonormal columns
    so(d)                rotation matrices (det +1)
    fixed-rank(m,h,r)    m-by-h matrices of rank r, stored factored (U, s, V)
    spd(d)               symmetric positive definite matrices, affine-invariant metric
    simplex(K)           strictly positive weights summing to one, Fisher metric
    euclidean(...)       an unconstrained block (used inside products)
    product(...)         direct product of any of the above except fixed-rank
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import BaseMismatch, InvalidShape


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A feasible point, stored as its manifold's flat value."""

    manifold: "Manifold"
    value: np.ndarray

    def ambient(self) -> np.ndarray:
        """Flat ambient coordinates of the point."""
        return self.manifold._point_ambient(self.value)

    def residual(self) -> float:
        """Constraint violation of the stored value (0 within rounding iff feasible)."""
        return float(self.manifold._point_residual(self.value))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector tagged with its base point."""

    point: ManifoldPoint
    value: np.ndarray

    @property
    def manifold(self) -> "Manifold":
        return self.point.manifold

    def scaled(self, c: float) -> "TangentVector":
        return TangentVector(self.point, self.value * c)

    def norm(self) -> float:
        """Riemannian norm at the base point."""
        m = self.manifold
        return float(np.sqrt(max(0.0, m._inner(self.point.value, self.value, self.value))))

    def ambient(self) -> np.ndarray:
        """Flat ambient coordinates of the tangent vector."""
        return self.manifold._embed(self.point.value, self.value)

    def ambient_norm(self) -> float:
        return self.manifold.tangent_ambient_norm(self.point.value, self.value)

    def is_zero(self) -> bool:
        return not self.value.any()


def _same_point(a: ManifoldPoint, b: ManifoldPoint) -> bool:
    if a is b:
        return True
    return a.manifold is b.manifold and np.array_equal(a.value, b.value)


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class Manifold:
    """Common surface for all manifold kinds.

    Subclasses implement the raw-value geometry (single underscore
    methods, on flat values); this class adds validation and the
    point/tangent wrappers used by the solvers.  The defaults below hold
    for every kind whose point and tangent values are their own ambient
    vectors.  All operations are pure functions of their inputs and
    instances are immutable after construction, so a manifold may be
    shared freely between concurrent runs.
    """

    kind: str = "abstract"
    ambient_dim: int
    intrinsic_dim: int
    feasibility_tol: float = 1e-10
    # True where one retraction factorises a matrix (QR, SVD or a linear
    # solve): a stacked call then costs little more than one retraction,
    # so retracting trial points that may go unused still pays
    costly_retraction: bool = False

    # ---- raw geometry on flat values, per kind ------------------------

    def _unpack(self, x):
        """Views of the point value ``x`` in the shapes its objective reads."""
        return x

    def _project_many(self, x, A) -> np.ndarray:
        # the projections of the rows of a (k, ambient_dim) stack A; row i
        # is bitwise the same in any stack holding A[i], one of one included
        raise NotImplementedError

    def _retract_many(self, x, T) -> np.ndarray:
        # the retractions of the rows of a (k, len) tangent stack T at x,
        # one flat base point or a (k, len) stack of them; row i is
        # bitwise the same in any stack holding it, one of one included
        raise NotImplementedError

    def _inner(self, x, u, v) -> float:
        raise NotImplementedError

    def _sqnorms(self, x, T) -> np.ndarray:
        # row i is _inner(x, T[i], T[i]) for a (k, len) tangent stack T, bitwise
        return np.array([self._inner(x, t, t) for t in T], dtype=float)

    def _embed(self, x, t) -> np.ndarray:
        return t

    def _point_ambient(self, x) -> np.ndarray:
        return x

    def _point_residual(self, x) -> float:
        raise NotImplementedError

    def _ambient_residual(self, a_flat: np.ndarray) -> float:
        return self._point_residual(a_flat)

    def _tangent_residual(self, x, t) -> float:
        raise NotImplementedError

    def _random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _zero_tangent(self, x) -> np.ndarray:
        return np.zeros(self.ambient_dim)

    # ---- public surface ---------------------------------------------

    def spec_string(self) -> str:
        raise NotImplementedError

    def point(self, value, validate: bool = True) -> ManifoldPoint:
        """Wrap a flat point value as a point, checking feasibility."""
        value = np.asarray(value, dtype=float)
        if value.ndim != 1:
            raise InvalidShape(f"a point value is a flat vector, got shape {value.shape}")
        p = ManifoldPoint(self, value)
        if validate:
            r = p.residual()
            if not r <= 10 * self.feasibility_tol:
                raise InvalidShape(
                    f"value is not on {self.spec_string()} (residual {r:.3e})"
                )
        return p

    def project_tangent(self, x: ManifoldPoint, a) -> TangentVector:
        """Orthogonal projection of a flat ambient vector onto T_x.

        Parameters
        ----------
        x : ManifoldPoint
        a : array-like of length ``ambient_dim``

        Returns
        -------
        TangentVector at ``x``.  The projection is idempotent and
        self-adjoint with respect to the ambient inner product.
        """
        a_flat = np.asarray(a, dtype=float).ravel()
        if a_flat.size != self.ambient_dim:
            raise InvalidShape(
                f"expected ambient dimension {self.ambient_dim}, got {a_flat.size}"
            )
        return TangentVector(x, self._project_many(x.value, a_flat[None])[0])

    def retract(self, x: ManifoldPoint, d: TangentVector) -> ManifoldPoint:
        """Move from ``x`` along tangent ``d`` and land back on the manifold.

        Agrees with ``x + d`` to first order; ``retract(x, 0)`` returns
        ``x`` unchanged.
        """
        if not _same_point(d.point, x):
            raise BaseMismatch("tangent vector is rooted at a different point")
        if not d.value.any():
            return x
        return ManifoldPoint(self, self._retract_many(x.value, d.value[None])[0])

    def inner(self, x: ManifoldPoint, u: TangentVector, v: TangentVector) -> float:
        """Riemannian scalar product of two tangent vectors at ``x``."""
        if not (_same_point(u.point, x) and _same_point(v.point, x)):
            raise BaseMismatch("inner product requires tangents based at x")
        return float(self._inner(x.value, u.value, v.value))

    def constraint_residual(self, a) -> float:
        """Feasibility residual of a flat ambient vector (0 iff on the manifold)."""
        a_flat = np.asarray(a, dtype=float).ravel()
        if a_flat.size != self.ambient_dim:
            raise InvalidShape(
                f"expected ambient dimension {self.ambient_dim}, got {a_flat.size}"
            )
        return float(self._ambient_residual(a_flat))

    def tangency_residual(self, x: ManifoldPoint, t: TangentVector) -> float:
        return float(self._tangent_residual(x.value, t.value))

    def tangent_ambient_norm(self, x_value, t_value) -> float:
        return float(np.linalg.norm(self._embed(x_value, t_value)))

    def zero_tangent(self, x: ManifoldPoint) -> TangentVector:
        return TangentVector(x, self._zero_tangent(x.value))

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        return ManifoldPoint(self, self._random_point(rng))


# ---------------------------------------------------------------------------
# concrete kinds
# ---------------------------------------------------------------------------

def _qr_fixed(a: np.ndarray) -> np.ndarray:
    """Thin QR factor with the sign convention diag(R) >= 0, of a matrix or a stack."""
    q, r = np.linalg.qr(a)
    d = np.sign(np.diagonal(r, 0, -2, -1))
    d[d == 0] = 1.0
    return q * d[..., None, :]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _row_dots(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (k, 1) column of A[i] @ b, b one vector or a stack like A.  A (1, n)
    # @ (n, 1) product rounds as the 1-D dot and np.linalg.norm do;
    # einsum and norm(axis=1) sum in another order
    return (A[:, None, :] @ b[..., :, None])[:, 0]


def _hstack_rows(a: np.ndarray, B: np.ndarray) -> np.ndarray:
    # np.hstack([a, B[i]]) for each matrix of the stack B
    out = np.empty((*B.shape[:-1], a.shape[1] + B.shape[-1]))
    out[..., :a.shape[1]] = a
    out[..., a.shape[1]:] = B
    return out


class Sphere(Manifold):
    """Unit sphere in R^n with the induced metric."""

    kind = "sphere"

    def __init__(self, n: int, feasibility_tol: float = 1e-10):
        if n < 2:
            raise InvalidShape("sphere needs ambient dimension >= 2")
        self.n = int(n)
        self.ambient_dim = self.n
        self.intrinsic_dim = self.n - 1
        self.feasibility_tol = feasibility_tol

    def spec_string(self) -> str:
        return f"sphere({self.n})"

    def _project_many(self, x, A):
        return A - _row_dots(A, x) * x

    def _retract_many(self, x, T):
        Y = x + T
        return Y / np.sqrt(_row_dots(Y, Y))

    def _inner(self, x, u, v):
        return float(u @ v)

    def _sqnorms(self, x, T):
        return _row_dots(T, T)[:, 0]

    def _point_residual(self, x):
        return abs(np.linalg.norm(x) - 1.0)

    def _tangent_residual(self, x, t):
        return abs(float(x @ t))

    def _random_point(self, rng):
        while True:
            v = rng.standard_normal(self.n)
            nrm = np.linalg.norm(v)
            if nrm > 1e-12:
                return v / nrm


class Stiefel(Manifold):
    """Matrices with orthonormal columns, embedded metric, QR retraction."""

    kind = "stiefel"
    costly_retraction = True

    def __init__(self, n: int, p: int, feasibility_tol: float = 1e-10):
        if not 1 <= p <= n:
            raise InvalidShape("stiefel needs 1 <= p <= n")
        self.n, self.p = int(n), int(p)
        self.ambient_dim = self.n * self.p
        self.intrinsic_dim = self.n * self.p - self.p * (self.p + 1) // 2
        self.feasibility_tol = feasibility_tol

    def spec_string(self) -> str:
        return f"stiefel({self.n},{self.p})"

    def _unpack(self, x):
        return x.reshape(self.n, self.p)

    def _project_many(self, x, A):
        x, Z = self._unpack(x), A.reshape(len(A), self.n, self.p)
        return (Z - x @ _sym(x.T @ Z)).reshape(len(A), -1)

    def _retract_many(self, x, T):
        return _qr_fixed((x + T).reshape(len(T), self.n, self.p)).reshape(len(T), -1)

    def _inner(self, x, u, v):
        return float(np.sum(u * v))

    def _point_residual(self, x):
        x = self._unpack(x)
        return float(np.linalg.norm(x.T @ x - np.eye(self.p)))

    def _tangent_residual(self, x, t):
        return float(np.linalg.norm(_sym(self._unpack(x).T @ self._unpack(t))))

    def _random_point(self, rng):
        return _qr_fixed(rng.standard_normal((self.n, self.p))).ravel()


class SpecialOrthogonal(Stiefel):
    """Rotation group: orthogonal d-by-d matrices with determinant +1."""

    kind = "so"

    def __init__(self, d: int, feasibility_tol: float = 1e-10):
        if d < 2:
            raise InvalidShape("so needs d >= 2")
        super().__init__(d, d, feasibility_tol)
        self.d = int(d)
        self.intrinsic_dim = d * (d - 1) // 2

    def spec_string(self) -> str:
        return f"so({self.d})"

    def _retract_many(self, x, T):
        Q = super()._retract_many(x, T)
        if (np.linalg.det(Q.reshape(len(T), self.d, self.d)) <= 0).any():
            # cannot happen for genuinely tangent steps x @ skew
            raise InvalidShape("so retraction left the det=+1 component")
        return Q

    def _point_residual(self, x):
        r = super()._point_residual(x)
        if np.linalg.det(self._unpack(x)) <= 0:
            r += 2.0
        return r

    def _random_point(self, rng):
        q = _qr_fixed(rng.standard_normal((self.d, self.d)))
        if np.linalg.det(q) < 0:
            q = q.copy()
            q[:, -1] = -q[:, -1]
        return q.ravel()


class FixedRank(Manifold):
    """Rank-r matrices in R^{m x h}, stored factored as (U, s, V).

    ``U`` (m x r) and ``V`` (h x r) have orthonormal columns and ``s``
    holds positive singular values, so the represented matrix is
    ``(U * s) @ V.T``.  Tangent vectors are the triple (M, Up, Vp) with
    ``U.T @ Up = 0`` and ``V.T @ Vp = 0``, embedding as
    ``U @ M @ V.T + Up @ V.T + U @ Vp.T``.  A point value is
    ``pack(U, s, V)`` and a tangent value ``pack(M, Up, Vp)``.  The
    retraction is the rank-r truncated SVD of ``X + t``, computed on a
    (2r x 2r) core; singular values that fall below ``feasibility_tol``
    are clamped up to it so iterates never leave the rank-r set.  The
    retraction takes one base point, not a stack: a product cannot hold
    a fixed-rank block, so no caller has more than one.
    """

    kind = "fixed-rank"
    costly_retraction = True

    def __init__(self, m: int, h: int, r: int, feasibility_tol: float = 1e-10):
        if not (1 <= r <= min(m, h)) or min(m, h) < 2:
            raise InvalidShape("fixed-rank needs 1 <= r <= min(m,h) and min(m,h) >= 2")
        self.m, self.h, self.r = int(m), int(h), int(r)
        self.ambient_dim = self.m * self.h
        self.intrinsic_dim = (self.m + self.h - self.r) * self.r
        self.feasibility_tol = feasibility_tol
        # where the second and third factor start in a point / tangent value
        self._point_cuts = (self.m * self.r, (self.m + 1) * self.r)
        self._tangent_cuts = (self.r * self.r, (self.r + self.m) * self.r)

    def spec_string(self) -> str:
        return f"fixed-rank({self.m},{self.h},{self.r})"

    @staticmethod
    def pack(*factors) -> np.ndarray:
        """One flat value from ``(U, s, V)`` (a point) or ``(M, Up, Vp)`` (a tangent)."""
        return np.concatenate([np.ravel(f) for f in factors])

    def _unpack(self, x):
        i, j = self._point_cuts
        return x[:i].reshape(self.m, self.r), x[i:j], x[j:].reshape(self.h, self.r)

    def _unpack_tangent(self, t):
        i, j = self._tangent_cuts
        r = self.r
        return t[:i].reshape(r, r), t[i:j].reshape(self.m, r), t[j:].reshape(self.h, r)

    def _unpack_tangents(self, T):
        # _unpack_tangent of each row of a (k, len) stack, as stacked factors
        i, j = self._tangent_cuts
        k, r = len(T), self.r
        return (T[:, :i].reshape(k, r, r), T[:, i:j].reshape(k, self.m, r),
                T[:, j:].reshape(k, self.h, r))

    @staticmethod
    def _pack_rows(*factors) -> np.ndarray:
        # pack of each row of stacked factors
        return np.concatenate([f.reshape(len(f), -1) for f in factors], axis=1)

    def _project_many(self, x, A):
        u, s, v = self._unpack(x)
        z = A.reshape(len(A), self.m, self.h)
        zv = z @ v
        ztu = z.swapaxes(-1, -2) @ u
        mid = u.T @ zv
        up = zv - u @ mid
        vp = ztu - v @ mid.swapaxes(-1, -2)
        return self._pack_rows(mid, up, vp)

    @staticmethod
    def _complement_factors(u, up):
        # qr of each block of the stack up; qr of a rank-deficient block
        # can emit filler columns leaking into span(u), so the blocks that
        # leak (most coordinate directions do) are re-orthogonalised, in
        # one stack, to keep [u, q] orthonormal
        q, ru = np.linalg.qr(up)
        leak = np.abs(u.T @ q).max(axis=(1, 2)) > 1e-12
        if leak.any():
            ql = q[leak]
            ql, _ = np.linalg.qr(ql - u @ (u.T @ ql))
            q[leak], ru[leak] = ql, ql.swapaxes(-1, -2) @ up[leak]
        return q, ru

    def _retract_many(self, x, T):
        u, s, v = self._unpack(x)
        mid, up, vp = self._unpack_tangents(T)
        k, r = len(T), self.r
        qu, ru = self._complement_factors(u, up)
        qv, rv = self._complement_factors(v, vp)
        core = np.zeros((k, 2 * r, 2 * r))
        core[:, :r, :r] = np.diag(s) + mid
        core[:, :r, r:] = rv.swapaxes(-1, -2)
        core[:, r:, :r] = ru
        w, sv, zt = np.linalg.svd(core)
        sv = np.maximum(sv[:, :r], self.feasibility_tol)
        new_u = _hstack_rows(u, qu) @ w[:, :, :r]
        new_v = _hstack_rows(v, qv) @ zt[:, :r, :].swapaxes(-1, -2)
        return self._pack_rows(new_u, sv, new_v)

    def _inner(self, x, u, v):
        # one sum per factor block, added in factor order: bitwise np.sum
        # over each unpacked factor
        w = u * v
        i, j = self._tangent_cuts
        return float(w[:i].sum() + w[i:j].sum() + w[j:].sum())

    def _sqnorms(self, x, T):
        # a row's block sums round as the 1-D sums of _inner do
        W = T * T
        i, j = self._tangent_cuts
        return W[:, :i].sum(axis=1) + W[:, i:j].sum(axis=1) + W[:, j:].sum(axis=1)

    def _embed(self, x, t):
        u, s, v = self._unpack(x)
        mid, up, vp = self._unpack_tangent(t)
        return (u @ mid @ v.T + up @ v.T + u @ vp.T).ravel()

    def tangent_ambient_norm(self, x_value, t_value):
        # the three blocks embed orthogonally, so the Frobenius norm
        # of the embedding equals the factored norm
        return float(np.sqrt(self._inner(x_value, t_value, t_value)))

    def _point_ambient(self, x):
        u, s, v = self._unpack(x)
        return ((u * s) @ v.T).ravel()

    def _point_residual(self, x):
        u, s, v = self._unpack(x)
        r = float(np.linalg.norm(u.T @ u - np.eye(self.r)))
        r += float(np.linalg.norm(v.T @ v - np.eye(self.r)))
        if np.min(s) <= 0:
            return np.inf
        return r

    def _ambient_residual(self, a):
        z = a.reshape(self.m, self.h)
        sv = np.linalg.svd(z, compute_uv=False)
        tail = float(np.linalg.norm(sv[self.r:])) if sv.size > self.r else 0.0
        rank_gap = max(0.0, self.feasibility_tol - float(sv[self.r - 1]))
        return tail + rank_gap

    def _tangent_residual(self, x, t):
        u, s, v = self._unpack(x)
        mid, up, vp = self._unpack_tangent(t)
        return float(np.linalg.norm(u.T @ up) + np.linalg.norm(v.T @ vp))

    def _random_point(self, rng):
        u = _qr_fixed(rng.standard_normal((self.m, self.r)))
        v = _qr_fixed(rng.standard_normal((self.h, self.r)))
        s = np.sort(rng.uniform(0.5, 2.0, self.r))[::-1]
        return self.pack(u, s, v)

    def _zero_tangent(self, x):
        return np.zeros(self.r * (self.r + self.m + self.h))


class SymmetricPositiveDefinite(Manifold):
    """Symmetric positive definite matrices with the affine-invariant metric.

    The tangent space is the symmetric matrices (ambient-orthogonal
    projection is the symmetric part); the metric at X is
    ``<u, v> = trace(X^-1 u X^-1 v)`` and the retraction
    ``X + t + t X^-1 t / 2`` stays positive definite for any symmetric t.
    """

    kind = "spd"
    costly_retraction = True

    def __init__(self, d: int, feasibility_tol: float = 1e-10):
        if d < 1:
            raise InvalidShape("spd needs d >= 1")
        self.d = int(d)
        self.ambient_dim = self.d * self.d
        self.intrinsic_dim = self.d * (self.d + 1) // 2
        self.feasibility_tol = feasibility_tol

    def spec_string(self) -> str:
        return f"spd({self.d})"

    def _unpack(self, x):
        return x.reshape(self.d, self.d)

    def _project_many(self, x, A):
        return _sym(A.reshape(len(A), self.d, self.d)).reshape(len(A), -1)

    def _retract_many(self, x, T):
        x, T = x.reshape(-1, self.d, self.d), T.reshape(len(T), self.d, self.d)
        W = np.linalg.solve(x, T)
        return _sym(x + T + 0.5 * (T @ W)).reshape(len(T), -1)

    def _inner(self, x, u, v):
        x = self._unpack(x)
        a = np.linalg.solve(x, self._unpack(u))
        b = np.linalg.solve(x, self._unpack(v))
        return float(np.sum(a * b.T))

    def _point_residual(self, x):
        x = self._unpack(x)
        r = float(np.linalg.norm(x - x.T))
        lam = float(np.linalg.eigvalsh(_sym(x))[0])
        if lam <= 0:
            return np.inf
        return r

    def _tangent_residual(self, x, t):
        t = self._unpack(t)
        return float(np.linalg.norm(t - t.T))

    def _random_point(self, rng):
        a = rng.standard_normal((self.d, self.d))
        return (a @ a.T + np.eye(self.d)).ravel()


class PositiveSimplex(Manifold):
    """Strictly positive weights summing to one, with the Fisher metric.

    Metric ``<u, v> = sum(u_i v_i / w_i)``; the retraction
    ``w * exp(t / w)``, renormalised, preserves positivity.  Entries
    that underflow are clamped to ``feasibility_tol`` before the final
    renormalisation so iterates never reach the boundary.
    """

    kind = "simplex"

    def __init__(self, k: int, feasibility_tol: float = 1e-10):
        if k < 2:
            raise InvalidShape("simplex needs K >= 2")
        self.k = int(k)
        self.ambient_dim = self.k
        self.intrinsic_dim = self.k - 1
        self.feasibility_tol = feasibility_tol

    def spec_string(self) -> str:
        return f"simplex({self.k})"

    def _project_many(self, x, A):
        return A - A.mean(axis=1, keepdims=True)

    def _retract_many(self, x, T):
        Z = T / x
        Z -= Z.max(axis=1, keepdims=True)  # rescaling cancels in the normalisation
        W = x * np.exp(Z)
        W = np.maximum(W / W.sum(axis=1, keepdims=True), self.feasibility_tol)
        return W / W.sum(axis=1, keepdims=True)

    def _inner(self, x, u, v):
        return float(np.sum(u * v / x))

    def _point_residual(self, x):
        if np.min(x) <= 0:
            return np.inf
        return abs(float(np.sum(x)) - 1.0)

    def _tangent_residual(self, x, t):
        return abs(float(np.sum(t)))

    def _random_point(self, rng):
        w = rng.uniform(0.0, 1.0, self.k)
        w = np.maximum(w, 1e-6)
        return w / w.sum()


class Euclidean(Manifold):
    """An unconstrained block; projection is the identity."""

    kind = "euclidean"

    def __init__(self, shape, feasibility_tol: float = 1e-10):
        self.shape = tuple(int(s) for s in np.atleast_1d(shape))
        self.ambient_dim = int(np.prod(self.shape))
        if self.ambient_dim < 1:
            raise InvalidShape("euclidean block needs at least one entry")
        self.intrinsic_dim = self.ambient_dim
        self.feasibility_tol = feasibility_tol

    def spec_string(self) -> str:
        return f"euclidean({'x'.join(str(s) for s in self.shape)})"

    def _unpack(self, x):
        return x.reshape(self.shape)

    def _project_many(self, x, A):
        return A.copy()

    def _retract_many(self, x, T):
        return x + T

    def _inner(self, x, u, v):
        return float(np.sum(u * v))

    def _point_residual(self, x):
        return 0.0

    def _tangent_residual(self, x, t):
        return 0.0

    def _random_point(self, rng):
        return rng.standard_normal(self.ambient_dim)


class Product(Manifold):
    """Direct product of manifolds; every operation applies blockwise.

    A value is the blocks' values concatenated, so one offsets table
    locates every block.  Fixed-rank blocks are rejected: their point,
    tangent and ambient vectors have different lengths.
    """

    def __init__(self, blocks, kind: str = "product", feasibility_tol: float = 1e-10):
        blocks = tuple(blocks)
        if not blocks:
            raise InvalidShape("product needs at least one block")
        if any(isinstance(b, FixedRank) for b in blocks):
            raise InvalidShape("a product cannot hold a fixed-rank block")
        self.blocks = blocks
        self.kind = kind
        self.ambient_dim = sum(b.ambient_dim for b in blocks)
        self.intrinsic_dim = sum(b.intrinsic_dim for b in blocks)
        self.feasibility_tol = feasibility_tol
        self.costly_retraction = any(b.costly_retraction for b in blocks)
        offsets = np.cumsum([0] + [b.ambient_dim for b in blocks]).tolist()
        self._slices = tuple(slice(a, b) for a, b in zip(offsets, offsets[1:]))
        # (block, g, slice) per run of g adjacent blocks that retract alike;
        # their values are contiguous, so a row's run reshapes into g block values
        self._runs, start = [], 0
        for _, run in groupby(blocks, lambda b: (type(b), b.spec_string(), b.feasibility_tol)):
            run = list(run)
            stop = start + sum(b.ambient_dim for b in run)
            self._runs.append((run[0], len(run), slice(start, stop)))
            start = stop

    def spec_string(self) -> str:
        inner = ",".join(b.spec_string() for b in self.blocks)
        return f"{self.kind}({inner})"

    def _unpack(self, x):
        return tuple(b._unpack(x[sl]) for b, sl in zip(self.blocks, self._slices))

    def _project_many(self, x, A):
        return np.concatenate(
            [b._project_many(x[sl], A[:, sl]) for b, sl in zip(self.blocks, self._slices)],
            axis=1,
        )

    def _retract_many(self, x, T):
        # a run of g equal blocks retracts its (k * g, len) stack of block
        # values in one call, on the block values that move; a coordinate
        # direction moves one block
        k = len(T)
        Y = np.empty_like(T)
        Y[:] = x
        for b, g, sl in self._runs:
            Tb = T[:, sl].reshape(k * g, -1)
            moved = Tb.any(axis=1)
            if moved.any():
                Yb = Y[:, sl].reshape(k * g, -1)
                Yb[moved] = b._retract_many(Yb[moved], Tb[moved])
                Y[:, sl] = Yb.reshape(k, -1)
        return Y

    def _inner(self, x, u, v):
        return float(sum(b._inner(x[sl], u[sl], v[sl])
                         for b, sl in zip(self.blocks, self._slices)))

    def _point_residual(self, x):
        return float(sum(b._point_residual(x[sl])
                         for b, sl in zip(self.blocks, self._slices)))

    def _tangent_residual(self, x, t):
        return float(sum(b._tangent_residual(x[sl], t[sl])
                         for b, sl in zip(self.blocks, self._slices)))

    def _random_point(self, rng):
        return np.concatenate([b._random_point(rng) for b in self.blocks])


def product_spheres(dims) -> Product:
    """Product of unit spheres with the dedicated kind name."""
    return Product([Sphere(n) for n in dims], kind="product-spheres")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_point(m: Manifold, seed) -> ManifoldPoint:
    """Deterministic seeded sample from ``m``."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return m.random_point(rng)


def random_tangent(
    x: ManifoldPoint, rng: np.random.Generator, unit: bool = True
) -> TangentVector:
    """Seeded tangent vector at ``x``: projected ambient normal, optionally unit.

    A unit draw raises ``ValueError`` at a non-finite ``x``, where every
    projection is non-finite and no draw would ever pass the norm test.
    """
    m = x.manifold
    while True:
        t = m.project_tangent(x, rng.standard_normal(m.ambient_dim))
        if not unit:
            return t
        nrm = t.norm()
        if nrm > 1e-12:
            return t.scaled(1.0 / nrm)
        if not np.isfinite(x.value).all():
            raise ValueError(
                f"random_tangent at a non-finite point of {m.spec_string()}: {x.value}"
            )
