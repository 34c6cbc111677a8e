import numpy as np
import pytest

from manisearch.directions import (
    DEFAULT_DROP_TOL,
    DenseDirectionStream,
    dense_direction,
    dense_directions,
    measure_tau,
    spanning_basis,
)
from manisearch.errors import DegenerateBasis
from manisearch.manifolds import (
    FixedRank,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
)

from conftest import manifold_zoo, sample_point


# ---------------------------------------------------------------------------
# spanning bases
# ---------------------------------------------------------------------------

def test_sphere_basis_at_pole_drops_normal_directions():
    # oracle: v - <v, x> x on each of the six signed coordinate vectors
    x = Sphere(3).point(np.array([1.0, 0.0, 0.0]))
    basis = spanning_basis(x, drop_tol=1e-12)
    assert len(basis) == 4
    expected = [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
    ]
    for vec, exp in zip(basis.vectors, expected):
        np.testing.assert_allclose(vec.value, exp, atol=1e-15)
    assert basis.slots == (1, 2, 4, 5)
    assert basis.measured_b == pytest.approx(1.0, abs=1e-12)


def test_sphere2_diagonal_point_basis():
    # oracle: same projection formula; all four projections have norm 1/sqrt(2)
    x = Sphere(2).point(np.array([1.0, 1.0]) / np.sqrt(2.0))
    basis = spanning_basis(x)
    assert len(basis) == 4
    for vec in basis.vectors:
        np.testing.assert_allclose(np.abs(vec.value), [0.5, 0.5], atol=1e-12)
        assert vec.ambient_norm() == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_square_stiefel_drops_symmetric_directions():
    # at X = I the projection X skew(X^T E) kills diagonal coordinate matrices
    st = Stiefel(2, 2)
    x = st.point(np.eye(2).ravel())
    basis = spanning_basis(x)
    assert len(basis) == 4  # only the off-diagonal slots survive
    assert basis.slots == (1, 2, 5, 6)


def test_all_projections_dropped_raises():
    x = Sphere(3).point(np.full(3, 1.0 / np.sqrt(3.0)))
    with pytest.raises(DegenerateBasis):
        spanning_basis(x, drop_tol=0.9)


def test_drop_tol_validation():
    x = Sphere(3).point(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        spanning_basis(x, drop_tol=0.0)
    with pytest.raises(ValueError):
        spanning_basis(x, drop_tol=1.5)


def test_basis_vectors_tangent_and_bounded():
    for m in manifold_zoo():
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = sample_point(m, rng)
            basis = spanning_basis(x)
            assert basis.measured_b <= 1 + 1e-10
            for vec in basis.vectors:
                assert m.tangency_residual(x, vec) <= 1e-10
                assert vec.ambient_norm() <= 1 + 1e-12


# ---------------------------------------------------------------------------
# the basis against an eager oracle
# ---------------------------------------------------------------------------

def _coordinate(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _eager_basis(x, drop_tol=DEFAULT_DROP_TOL):
    """Project every +e_i up front; keep i iff the projection's norm > drop_tol."""
    m = x.manifold
    n = m.ambient_dim
    kept = []
    for i in range(n):
        t = m.project_tangent(x, _coordinate(n, i)).value
        nrm = m.tangent_ambient_norm(x.value, t)
        if nrm > drop_tol:
            kept.append((i, t, nrm))
    slots = tuple(i for i, _, _ in kept) + tuple(n + i for i, _, _ in kept)
    values = [t for _, t, _ in kept] + [t * -1.0 for _, t, _ in kept]
    return slots, values, max(nrm for _, _, nrm in kept)


def _rotation_near_identity(eps):
    # I + A + A^2/2 for a skew A with entries of size eps (orthonormalised
    # by the caller): the diagonal rounds to 1, so the closed-form squared
    # norms of the diagonal slots cancel to 0, while their projections
    # have norm about eps
    a = np.array([[0.0, -eps, 2 * eps], [eps, 0.0, -3 * eps], [-2 * eps, 3 * eps, 0.0]])
    return np.eye(3) + a + 0.5 * a @ a


def _degenerate_points():
    so = SpecialOrthogonal(3)
    fr = FixedRank(6, 5, 2)
    rng = np.random.default_rng(5)
    u = np.insert(np.linalg.qr(rng.standard_normal((5, 2)))[0], 3, 0.0, axis=0)
    v = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    near_pole = np.array([1.0, 1e-9, 0.0])
    return [
        Sphere(3).point(np.array([1.0, 0.0, 0.0])),
        Sphere(3).point(near_pole / np.linalg.norm(near_pole)),
        Stiefel(2, 2).point(np.eye(2).ravel()),
        so.point(np.eye(3).ravel()),
        so.point(so._retract_many(_rotation_near_identity(1e-9).ravel(), np.zeros((1, 9)))[0]),
        fr.point(fr.pack(u, np.array([2.0, 1.0]), v)),
    ]


def _sampled_points():
    for m in manifold_zoo():
        rng = np.random.default_rng(83)
        for _ in range(5):
            yield sample_point(m, rng)


def _assert_matches_eager(x):
    slots, values, measured_b = _eager_basis(x)
    basis = spanning_basis(x)
    assert basis.slots == slots
    assert len(basis.vectors) == len(values)
    for vec, value in zip(basis.vectors, values):
        assert vec.point is x
        assert np.array_equal(vec.value, value)
    assert abs(basis.measured_b - measured_b) <= 1e-14


def test_lazy_basis_matches_eager_oracle_at_sampled_points():
    for x in _sampled_points():
        _assert_matches_eager(x)


def test_lazy_basis_matches_eager_oracle_at_degenerate_points():
    # the near-pole and near-identity points sit within rounding of the
    # drop_tol boundary of the closed-form diagonal, where 1 - x_i^2
    # cancels to 0 but the projected vectors have norm about 1e-9
    for x in _degenerate_points():
        _assert_matches_eager(x)


def test_basis_build_projects_in_one_stacked_call(monkeypatch):
    m = Stiefel(7, 3)
    x = sample_point(m, np.random.default_rng(101))
    calls = []
    project_many = m._project_many
    monkeypatch.setattr(m, "_project_many",
                        lambda xv, A: calls.append("many") or project_many(xv, A))
    basis = spanning_basis(x)
    assert len(basis.vectors) == len(basis) > 0  # wrapping the rows projects nothing
    assert calls == ["many"]


# ---------------------------------------------------------------------------
# cosine measure
# ---------------------------------------------------------------------------

def test_measure_tau_sphere_pole():
    # brute-force oracle: tangent directions (0, cos t, sin t); the worst
    # max_j <r, p_j> over a fine grid is cos(pi/4)
    x = Sphere(3).point(np.array([1.0, 0.0, 0.0]))
    basis = spanning_basis(x)
    grid = np.linspace(0.0, 2 * np.pi, 10001)
    worst = min(max(abs(np.cos(t)), abs(np.sin(t))) for t in grid)
    assert worst == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    est = measure_tau(basis, trials=500, seed=2)
    assert est >= 1 / np.sqrt(2) - 1e-9
    assert est <= 1.0 + 1e-12


def test_measure_tau_one_dimensional_tangent_is_one():
    # on S^1 every unit tangent is collinear with a basis vector
    x = Sphere(2).point(np.array([0.0, 1.0]))
    basis = spanning_basis(x)
    assert measure_tau(basis, trials=1, seed=0) == pytest.approx(1.0, abs=1e-12)
    assert measure_tau(basis, trials=50, seed=1) == pytest.approx(1.0, abs=1e-12)


def test_measure_tau_positive_across_kinds():
    for m in manifold_zoo():
        rng = np.random.default_rng(67)
        for i in range(5):
            x = sample_point(m, rng)
            assert measure_tau(spanning_basis(x), trials=50, seed=[3, i]) > 0


def test_measure_tau_validates_trials():
    x = Sphere(2).point(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        measure_tau(spanning_basis(x), trials=0, seed=0)


# ---------------------------------------------------------------------------
# dense direction streams
# ---------------------------------------------------------------------------

class _FixedStream:
    """Stream stub emitting one prescribed ambient direction."""

    def __init__(self, d):
        self.d = np.asarray(d, dtype=float)
        self.ambient_dim = self.d.size
        self.counter = 0

    def next_ambient(self):
        self.counter += 1
        return self.d

    def peek(self, k):
        return np.tile(self.d, (k, 1))


def test_dense_direction_keeps_unit_tangent_fixed():
    x = Sphere(2).point(np.array([0.0, 1.0]))
    out = dense_direction(_FixedStream([1.0, 0.0]), x)
    np.testing.assert_allclose(out.value, [1.0, 0.0], atol=1e-15)


def test_dense_direction_normal_gives_zero():
    x = Sphere(2).point(np.array([0.0, 1.0]))
    out = dense_direction(_FixedStream([0.0, 1.0]), x)
    assert out.is_zero()
    out = dense_direction(_FixedStream([0.0, -1.0]), x)
    assert out.is_zero()


def test_dense_direction_projects_and_normalises():
    # oracle: project (0.6, 0.8) at x = (0, 1) to (0.6, 0), then normalise
    x = Sphere(2).point(np.array([0.0, 1.0]))
    out = dense_direction(_FixedStream([0.6, 0.8]), x)
    np.testing.assert_allclose(out.value, [1.0, 0.0], atol=1e-12)


def test_stream_determinism_and_unit_norm():
    a = DenseDirectionStream(seed=9, ambient_dim=12)
    b = DenseDirectionStream(seed=9, ambient_dim=12)
    for _ in range(100):
        da, db = a.next_ambient(), b.next_ambient()
        assert np.array_equal(da, db)
        assert abs(np.linalg.norm(da) - 1.0) <= 1e-12
    assert a.counter == b.counter == 100


def test_stream_differs_across_seeds():
    a = DenseDirectionStream(seed=1, ambient_dim=6)
    b = DenseDirectionStream(seed=2, ambient_dim=6)
    assert not np.array_equal(a.next_ambient(), b.next_ambient())


@pytest.mark.parametrize("seed, n", [(0, 3), (5, 49), (123, 100)])
def test_stream_is_one_sequential_generator(seed, n):
    # oracle: successive draws of one generator keyed on (seed, n),
    # each divided by its norm
    stream = DenseDirectionStream(seed, n)
    rng = np.random.default_rng([seed, n])
    for _ in range(50):
        d = rng.standard_normal(n)
        assert np.array_equal(stream.next_ambient(), d / np.linalg.norm(d))


def test_stream_emissions_differ_in_sequence():
    stream = DenseDirectionStream(seed=3, ambient_dim=4)
    draws = [stream.next_ambient() for _ in range(50)]
    assert all(not np.array_equal(a, b) for a, b in zip(draws, draws[1:]))


def test_stream_differs_across_ambient_dims():
    # the shorter stream is not a prefix of the longer one
    a = DenseDirectionStream(seed=8, ambient_dim=6)
    b = DenseDirectionStream(seed=8, ambient_dim=7)
    for _ in range(10):
        da, db = a.next_ambient(), b.next_ambient()
        assert not np.allclose(da, db[:6] / np.linalg.norm(db[:6]))


def test_stream_counter_counts_emissions_and_is_not_an_argument():
    stream = DenseDirectionStream(seed=2, ambient_dim=5)
    assert stream.counter == 0
    for k in range(1, 8):
        stream.next_ambient()
        assert stream.counter == k
    with pytest.raises(TypeError):
        DenseDirectionStream(2, 5, counter=5)


@pytest.mark.parametrize("k", [1, 3, 16])
def test_stream_peek_emits_nothing_and_changes_no_emission(k):
    fresh = DenseDirectionStream(seed=5, ambient_dim=9)
    peeking = DenseDirectionStream(seed=5, ambient_dim=9)
    peeking.next_ambient()
    fresh.next_ambient()
    ahead = peeking.peek(k)
    assert ahead.shape == (k, 9)
    assert np.array_equal(peeking.peek(k), ahead)  # peeking twice draws nothing new
    assert peeking.counter == 1
    # a peeked stack and an emitted draw are the caller's own: writing into
    # them changes no later emission
    peeking.peek(k)[:] = np.nan
    for i in range(k + 2):
        d = peeking.next_ambient()
        assert np.array_equal(d, fresh.next_ambient())
        if i < k:
            assert np.array_equal(d, ahead[i])
        d[:] = np.nan
    assert peeking.counter == k + 3


def test_dense_directions_rows_equal_their_stacks_of_one_bitwise():
    # row i of a k-stack is the i-th next stack of one, which
    # dense_direction wraps and emits
    for m in manifold_zoo():
        x = sample_point(m, np.random.default_rng(72))
        ahead = DenseDirectionStream(seed=6, ambient_dim=m.ambient_dim)
        lone = DenseDirectionStream(seed=6, ambient_dim=m.ambient_dim)
        rows = dense_directions(ahead, x, 12)
        assert ahead.counter == 0
        for i, row in enumerate(rows):
            assert np.array_equal(row, dense_directions(lone, x, 1)[0])
            d = dense_direction(lone, x)
            assert np.array_equal(row, d.value) and d.point is x
            assert lone.counter == i + 1


def test_dense_directions_zero_row_for_a_normal_draw():
    x = Sphere(2).point(np.array([0.0, 1.0]))
    rows = dense_directions(_FixedStream([0.0, 1.0]), x, 3)
    assert rows.shape == (3, 2) and not rows.any()


def test_dense_direction_norms_across_kinds():
    for m in manifold_zoo():
        rng = np.random.default_rng(71)
        x = sample_point(m, rng)
        stream = DenseDirectionStream(seed=4, ambient_dim=m.ambient_dim)
        for _ in range(20):
            out = dense_direction(stream, x)
            n = out.norm()
            assert n == 0.0 or abs(n - 1.0) <= 1e-10
