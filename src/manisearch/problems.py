"""Seeded benchmark problem instances on manifolds.

Eight smooth and two nonsmooth problems, each generated deterministically
from ``(name, n_p, seed)``.  Every objective is posed as a minimisation
(maximisation problems are negated).  ``n_p`` is a requested ambient
dimension; each problem maps it to concrete shapes through a fixed
schedule (below) and records the resulting true ambient dimension, which
is what budgets and profiles use.

    name               manifold                     shapes from n_p
    ----------------   --------------------------   -------------------------------
    largest-eig        sphere(n)                    n = n_p
    largest-sv         product-spheres(m,h)         m = max(2, ceil(n_p/2)), h = max(2, floor(n_p/2))
    top-sv             stiefel(m,r) x stiefel(h,r)  m = h = max(2, round(n_p/4)); r = 2, or r = 1
                                                    with m = h = max(2, round(n_p/2)) when that m < 3
    dict-learning      spheres(d)^h x R^{h x k}     d = h = max(2, round(sqrt(n_p/2))), k = 2h
    sync-rotations     so(d) x so(d)                d = max(2, round(sqrt(n_p/2)))
    matrix-completion  fixed-rank(m,h,r)            m = max(2, round(sqrt(n_p))), h = max(2, round(n_p/m)),
                                                    r = 2 if min(m,h) >= 3 else 1
    gmm                spd(d+1)^2 x R               d minimises |2(d+1)^2 + 1 - n_p|
    procrustes         stiefel(n,p)                 p = 2, n = max(p, round(n_p/2)), l = n + 5
    sparsest-vector    sphere(n)                    n = n_p, with a 4n x n orthonormal Q
    nonsmooth-mc       fixed-rank(m,h,r)            as matrix-completion

The resolved ``n_p`` does not always name the instance: built again at
its resolved ``n_p``, a problem can resolve once more.  dict-learning
targets 2h^2 but its ambient dimension is 3h^2, so every requested dim
from 13 to 200 moves (50 -> 75 -> 108), and top-sv moves at 9 (9 -> 10 ->
12).  Only the requested dim rebuilds such an instance.

gmm is the augmented-covariance form of Hosseini & Sra (NeurIPS 2015):
two (d+1)-dim covariances and one unconstrained log-odds coordinate eta,
with mixture weights sigmoid(eta) and 1 - sigmoid(eta).

sync-rotations measures R1 R2^T N, where the noise rotation N is the
exponential of a small skew matrix, computed with numpy by scaling and
squaring (``_expm``).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import InvalidDimension, UnknownProblem
from .manifolds import (
    Euclidean,
    FixedRank,
    Manifold,
    ManifoldPoint,
    Product,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
    SymmetricPositiveDefinite,
    _qr_fixed,
    _sym,
    product_spheres,
    random_point,
)

DICT_LAMBDA = 0.01
DICT_EPS = 0.001


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One seeded benchmark instance: manifold, objective, start point.

    An instance is immutable, and ``evaluate`` is the pure objective on a
    point value: it counts nothing and knows no budget, so one instance
    serves any number of runs (a solver run counts and caps its own
    evaluations).  It carries one objective and no derivatives: point
    values are flat, and ``_value_f`` takes the manifold's ``_unpack``
    views of a (k, len) stack of point values and returns their k values,
    value i bitwise the same in any stack holding row i.
    ``evaluate_many`` is that stack and ``evaluate`` its stack of one; a
    solver run evaluates a trial chunk at a time.  ``f0`` is the value at
    the start point.  ``ambient_dim``, the n_p of the result table, is the
    manifold's: a requested dimension can resolve to another
    (matrix-completion 50 -> 49).
    """

    name: str
    manifold: Manifold
    seed: int
    smooth: bool
    data: dict
    start: ManifoldPoint
    known_opt: Optional[float]
    _value_f: Callable = field(repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.manifold.ambient_dim

    @property
    def f0(self) -> float:
        return self.evaluate(self.start.value)

    def evaluate(self, value) -> float:
        return float(self._value_f(self.manifold._unpack(value[None]))[0])

    def evaluate_many(self, values) -> np.ndarray:
        """The objective at each row of a (k, len) stack of point values."""
        return self._value_f(self.manifold._unpack(values))


def _round(x: float) -> int:
    return int(math.floor(x + 0.5))


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


def _payload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _tag(name)])


# ---------------------------------------------------------------------------
# builders: each returns (manifold, payload, f_vals, known_opt), where
# f_vals is the objective: it takes the _unpack views of a stack of point
# values and returns their values
# ---------------------------------------------------------------------------

def _build_largest_eig(n_p, seed):
    n = n_p
    rng = _payload_rng("largest-eig", seed)
    a = _sym(rng.standard_normal((n, n)))
    man = Sphere(n)

    def f_vals(x):
        return -kernels.row_dots((x[:, None, :] @ a)[:, 0], x)

    known = float(-np.linalg.eigvalsh(a)[-1])
    return man, dict(a=a), f_vals, known


def _build_largest_sv(n_p, seed):
    m = max(2, math.ceil(n_p / 2))
    h = max(2, n_p // 2)
    rng = _payload_rng("largest-sv", seed)
    a = rng.standard_normal((m, h))
    man = product_spheres([m, h])

    def f_vals(v):
        x, y = v
        return -kernels.row_dots((x[:, None, :] @ a)[:, 0], y)

    known = float(-np.linalg.svd(a, compute_uv=False)[0])
    return man, dict(a=a), f_vals, known


def _build_top_sv(n_p, seed):
    m = max(2, _round(n_p / 4))
    if m >= 3:
        r = 2
    else:
        r = 1
        m = max(2, _round(n_p / 2))
    h = m
    rng = _payload_rng("top-sv", seed)
    a = rng.standard_normal((m, h))
    man = Product([Stiefel(m, r), Stiefel(h, r)])

    def f_vals(v):
        x, y = v
        return -kernels.row_sums(x * (a @ y))

    known = float(-np.sum(np.linalg.svd(a, compute_uv=False)[:r]))
    return man, dict(a=a, r=r), f_vals, known


def _build_dict_learning(n_p, seed):
    h = max(2, _round(math.sqrt(n_p / 2)))
    d, k = h, 2 * h
    rng = _payload_rng("dict-learning", seed)
    d_bar = rng.standard_normal((d, h))
    d_bar /= np.linalg.norm(d_bar, axis=0)
    mask = rng.random((h, k)) < 0.3
    if not mask.any():
        mask.flat[0] = True
    c_bar = np.where(mask, rng.standard_normal((h, k)), 0.0)
    y = d_bar @ c_bar
    man = Product([product_spheres([d] * h), Euclidean((h, k))])

    def f_vals(v):
        cols, c = v
        dm = np.stack(cols, axis=-1)  # each row's columns side by side
        r = y - dm @ c
        return np.sqrt(kernels.row_dots(r, r)) + DICT_LAMBDA * kernels.smooth_l1_sum(c, DICT_EPS)

    payload = dict(y=y, d_bar=d_bar, c_bar=c_bar, lam=DICT_LAMBDA, eps=DICT_EPS)
    return man, payload, f_vals, None


def _expm(a):
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 2005): the Taylor series of ``a / 2**s``, with ``s`` the
    least power that brings the 1-norm below 1, summed until a term no
    longer changes the sum, then squared ``s`` times."""
    s = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()))[1])
    a = a / 2.0**s
    e = term = np.eye(len(a))
    k = 0
    while True:
        k += 1
        term = term @ a / k
        nxt = e + term
        if np.array_equal(nxt, e):
            break
        e = nxt
    for _ in range(s):
        e = e @ e
    return e


def _build_sync_rotations(n_p, seed):
    # the measurement noise is the rotation exp(S) of a small skew matrix
    # S = 0.1 (G - G^T) / 2, computed with numpy by scaling and squaring
    d = max(2, _round(math.sqrt(n_p / 2)))
    rng = _payload_rng("sync-rotations", seed)
    man = Product([SpecialOrthogonal(d), SpecialOrthogonal(d)])
    r1 = man.blocks[0]._random_point(rng).reshape(d, d)
    r2 = man.blocks[1]._random_point(rng).reshape(d, d)
    g = rng.standard_normal((d, d))
    noise = _expm(0.1 * (g - g.T) / 2.0)
    h_meas = r1 @ r2.T @ noise

    def f_vals(v):
        a, b = v
        diff = a - h_meas @ b
        return kernels.row_sums(diff * diff)

    sv = np.linalg.svd(h_meas, compute_uv=False)
    known = float(d + np.sum(h_meas * h_meas) - 2.0 * np.sum(sv))
    return man, dict(h=h_meas), f_vals, known


def _mc_shapes(n_p):
    m = max(2, _round(math.sqrt(n_p)))
    h = max(2, _round(n_p / m))
    r = 2 if min(m, h) >= 3 else 1
    return m, h, r


def _build_completion(name, n_p, seed, absolute):
    m, h, r = _mc_shapes(n_p)
    rng = _payload_rng(name, seed)
    u_bar = _qr_fixed(rng.standard_normal((m, r)))
    v_bar = _qr_fixed(rng.standard_normal((h, r)))
    s_bar = np.sort(rng.uniform(0.5, 2.0, r))[::-1].copy()
    m_true = (u_bar * s_bar) @ v_bar.T
    mask = rng.random((m, h)) < 0.5
    if not mask.any():
        mask[0, 0] = True
    rows, cols = (idx.astype(np.int64) for idx in np.nonzero(mask))
    vals = np.ascontiguousarray(m_true[rows, cols])
    man = FixedRank(m, h, r)
    kernel = kernels.masked_residual_abs if absolute else kernels.masked_residual_sq

    def f_vals(v):
        u, s, vt = v
        return kernel(u, s, vt, rows, cols, vals)

    payload = dict(m_true=m_true, rows=rows, cols=cols, vals=vals,
                   u_bar=u_bar, s_bar=s_bar, v_bar=v_bar, rank=r)
    return man, payload, f_vals, 0.0


def _build_matrix_completion(n_p, seed):
    return _build_completion("matrix-completion", n_p, seed, absolute=False)


def _build_nonsmooth_mc(n_p, seed):
    return _build_completion("nonsmooth-mc", n_p, seed, absolute=True)


def _gmm_base_dim(n_p):
    def size(d):
        return 2 * (d + 1) ** 2 + 1

    d = 1
    while size(d + 1) <= n_p:
        d += 1
    if abs(size(d + 1) - n_p) < abs(size(d) - n_p):
        return d + 1
    return d


def _build_gmm(n_p, seed):
    d = _gmm_base_dim(n_p)
    dd = d + 1
    rng = _payload_rng("gmm", seed)
    n_obs = 10 * dd
    w_bar = np.array([0.6, 0.4])
    means = 3.0 * rng.standard_normal((2, d))
    covs = []
    for _ in range(2):
        b = rng.standard_normal((d, d))
        covs.append(np.eye(d) + b @ b.T / d)
    labels = (rng.random(n_obs) >= w_bar[0]).astype(int)
    chols = [np.linalg.cholesky(c) for c in covs]
    noise = rng.standard_normal((n_obs, d))
    xs = np.empty((n_obs, d))
    for k in range(2):
        idx = labels == k
        xs[idx] = means[k] + noise[idx] @ chols[k].T
    y_aug = np.vstack([xs.T, np.ones(n_obs)])  # (d+1) x n_obs, columns (x; 1)
    log_c = 0.5 + (1.0 - dd / 2.0) * math.log(2.0 * math.pi)
    man = Product([SymmetricPositiveDefinite(dd), SymmetricPositiveDefinite(dd),
                   Euclidean((1,))])

    def f_vals(v):
        # both covariances of every row in one slogdet and one solve.  A row
        # with a covariance whose determinant is not positive and finite is
        # +inf; such a covariance is swapped for the identity before the
        # solve, so that a singular one cannot raise.  The log-weights
        # log sigmoid(+-eta) are -logaddexp(0, -+eta), finite for finite eta
        s1, s2, eta = v
        k = len(eta)
        s = np.concatenate((s1, s2))  # row i's covariances at i and k + i
        sign, logdet = np.linalg.slogdet(s)
        not_pd = (sign <= 0) | ~np.isfinite(logdet)
        s[not_pd] = np.eye(dd)
        ok = ~(not_pd[:k] | not_pd[k:])
        quad = np.add.reduce(y_aug * np.linalg.solve(s, y_aug), axis=1)
        lq = log_c - 0.5 * logdet[:, None] - 0.5 * quad
        ll = np.logaddexp(lq[:k] - np.logaddexp(0.0, -eta), lq[k:] - np.logaddexp(0.0, eta))
        return np.where(ok, -kernels.row_sums(ll), np.inf)

    payload = dict(observations=xs, y_aug=y_aug, w_bar=w_bar, means=means,
                   covs=covs, base_dim=d)
    return man, payload, f_vals, None


def _build_procrustes(n_p, seed):
    p = 2
    n = max(p, _round(n_p / p))
    l = n + 5
    rng = _payload_rng("procrustes", seed)
    a = rng.standard_normal((l, n))
    x_bar = _qr_fixed(rng.standard_normal((n, p)))
    b = a @ x_bar + 0.01 * rng.standard_normal((l, p))
    man = Stiefel(n, p)

    def f_vals(x):
        diff = a @ x - b
        return kernels.row_sums(diff * diff)

    return man, dict(a=a, b=b, x_bar=x_bar), f_vals, None


def _build_sparsest_vector(n_p, seed):
    n = n_p
    rng = _payload_rng("sparsest-vector", seed)
    # subspace fraction n/m = 1/4: tall enough that the l1 relaxation
    # landscape is informative rather than saturated with spurious basins
    q = _qr_fixed(rng.standard_normal((4 * n, n)))
    man = Sphere(n)

    def f_vals(x):
        return kernels.row_sums(np.abs((q @ x[:, :, None])[..., 0]))

    return man, dict(q=q), f_vals, None


_BUILDERS = {
    "largest-eig": _build_largest_eig,
    "largest-sv": _build_largest_sv,
    "top-sv": _build_top_sv,
    "dict-learning": _build_dict_learning,
    "sync-rotations": _build_sync_rotations,
    "matrix-completion": _build_matrix_completion,
    "gmm": _build_gmm,
    "procrustes": _build_procrustes,
    "sparsest-vector": _build_sparsest_vector,
    "nonsmooth-mc": _build_nonsmooth_mc,
}

PROBLEM_NAMES = tuple(_BUILDERS)
NONSMOOTH_PROBLEMS = ("sparsest-vector", "nonsmooth-mc")
SMOOTH_PROBLEMS = tuple(n for n in PROBLEM_NAMES if n not in NONSMOOTH_PROBLEMS)


def build_instance(name: str, n_p: int, seed: int) -> ProblemInstance:
    """Build the seeded instance of ``name`` at requested dimension ``n_p``.

    The start point is a seeded random manifold point.  Raises
    ``UnknownProblem`` for names outside the registry and
    ``InvalidDimension`` for ``n_p < 2``.
    """
    if name not in _BUILDERS:
        raise UnknownProblem(f"unknown problem '{name}'")
    if int(n_p) != n_p or n_p < 2:
        raise InvalidDimension(f"n_p must be an integer >= 2, got {n_p}")
    man, payload, f_vals, known = _BUILDERS[name](int(n_p), seed)
    start = random_point(man, seed)
    return ProblemInstance(
        name=name,
        manifold=man,
        seed=seed,
        smooth=name not in NONSMOOTH_PROBLEMS,
        data=payload,
        start=start,
        known_opt=known,
        _value_f=f_vals,
    )
