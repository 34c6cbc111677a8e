import numpy as np
import pytest

from manisearch.errors import BaseMismatch, InvalidShape
from manisearch.manifolds import (
    FixedRank,
    ManifoldPoint,
    PositiveSimplex,
    Product,
    SpecialOrthogonal,
    Sphere,
    Stiefel,
    SymmetricPositiveDefinite,
    TangentVector,
    product_spheres,
    random_point,
    random_tangent,
)
from manisearch.problems import build_instance

from conftest import deadline, manifold_zoo, sample_point


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_sphere_projection_removes_normal_component():
    # oracle: v - <v, x> x evaluated by hand
    sph = Sphere(3)
    x = sph.point(np.array([1.0, 0.0, 0.0]))
    t = sph.project_tangent(x, [0.3, 0.4, 0.5])
    np.testing.assert_allclose(t.value, [0.0, 0.4, 0.5], atol=1e-15)


def test_sphere_projection_annihilates_normal_vector():
    sph = Sphere(3)
    x = sph.point(np.array([1.0, 0.0, 0.0]))
    t = sph.project_tangent(x, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(t.value, [0.0, 0.0, 0.0], atol=1e-15)


def test_stiefel_single_column_matches_sphere():
    st = Stiefel(3, 1)
    x = st.point(np.array([1.0, 0.0, 0.0]))
    t = st.project_tangent(x, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(t.value, np.zeros(3), atol=1e-15)


def test_sphere_retraction_normalises():
    # oracle: (x + d) / |x + d| = (1, 0.75, 0) / 1.25
    sph = Sphere(3)
    x = sph.point(np.array([1.0, 0.0, 0.0]))
    d = TangentVector(x, np.array([0.0, 0.75, 0.0]))
    y = sph.retract(x, d)
    np.testing.assert_allclose(y.value, [0.8, 0.6, 0.0], atol=1e-15)


def test_retract_zero_returns_same_point(zoo):
    rng = np.random.default_rng(5)
    for m in zoo:
        x = sample_point(m, rng)
        assert m.retract(x, m.zero_tangent(x)) is x


def test_so2_zero_tangent_keeps_identity():
    so = SpecialOrthogonal(2)
    x = so.point(np.eye(2).ravel())
    theta = 0.0
    d = TangentVector(x, np.array([0.0, -theta, theta, 0.0]))
    np.testing.assert_array_equal(so.retract(x, d).value, np.eye(2).ravel())


def test_sphere_inner_examples():
    sph = Sphere(3)
    x = sph.point(np.array([1.0, 0.0, 0.0]))
    u = TangentVector(x, np.array([0.0, 1.0, 0.0]))
    v = TangentVector(x, np.array([0.0, 0.0, 1.0]))
    assert sph.inner(x, u, u) == 1.0
    assert sph.inner(x, u, v) == 0.0


def test_spd_affine_invariant_inner_at_identity():
    # oracle: trace(X^-1 u X^-1 v) at X = I with u = v = E11
    spd = SymmetricPositiveDefinite(2)
    x = spd.point(np.eye(2).ravel())
    u = TangentVector(x, np.array([1.0, 0.0, 0.0, 0.0]))
    assert spd.inner(x, u, u) == pytest.approx(1.0, abs=1e-14)


def test_constraint_residual_examples():
    assert Sphere(2).constraint_residual([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert Sphere(2).constraint_residual([2.0, 0.0]) == pytest.approx(1.0)
    assert Stiefel(2, 2).constraint_residual(np.eye(2).ravel()) == pytest.approx(
        0.0, abs=1e-15
    )


def test_constraint_residual_rejects_bad_shape():
    with pytest.raises(InvalidShape):
        Sphere(3).constraint_residual([1.0, 0.0])


def test_project_rejects_bad_shape():
    sph = Sphere(3)
    x = sph.point(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidShape):
        sph.project_tangent(x, [1.0, 0.0])


def test_inner_rejects_base_mismatch():
    sph = Sphere(3)
    x = sph.point(np.array([1.0, 0.0, 0.0]))
    y = sph.point(np.array([0.0, 1.0, 0.0]))
    u = TangentVector(x, np.array([0.0, 1.0, 0.0]))
    w = TangentVector(y, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(BaseMismatch):
        sph.inner(x, u, w)
    with pytest.raises(BaseMismatch):
        sph.retract(x, w)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_random_point_deterministic(zoo):
    for m in zoo:
        a = random_point(m, 123)
        b = random_point(m, 123)
        assert np.array_equal(a.ambient(), b.ambient())


def test_random_sphere_norm_and_so_det():
    for seed in range(10):
        x = random_point(Sphere(10), seed)
        assert abs(np.linalg.norm(x.value) - 1.0) <= 1e-12
        so = SpecialOrthogonal(3)
        q = random_point(so, seed)
        assert abs(np.linalg.det(so._unpack(q.value)) - 1.0) <= 1e-10


def test_random_tangent_rejects_a_non_finite_base_point():
    # every projection at a NaN point has a NaN norm, which never exceeds
    # the unit threshold: the draw loop would never end
    x = ManifoldPoint(Sphere(4), np.full(4, np.nan))
    with deadline(3), pytest.raises(ValueError, match="non-finite"):
        random_tangent(x, np.random.default_rng(0))


def test_random_point_feasible(zoo):
    for m in zoo:
        for seed in range(5):
            assert random_point(m, seed).residual() <= 1e-8


# ---------------------------------------------------------------------------
# invariants (desk scale; the acceptance suite runs 100 cases per kind)
# ---------------------------------------------------------------------------

def test_projection_idempotent_and_self_adjoint(zoo):
    for m in zoo:
        rng = np.random.default_rng(17)
        for _ in range(25):
            x = sample_point(m, rng)
            u = rng.standard_normal(m.ambient_dim)
            w = rng.standard_normal(m.ambient_dim)
            pu = m.project_tangent(x, u)
            pw = m.project_tangent(x, w)
            twice = m.project_tangent(x, pu.ambient())
            gap = np.linalg.norm(twice.ambient() - pu.ambient())
            assert gap <= 1e-10 * (1 + np.linalg.norm(u))
            assert abs(pu.ambient() @ w - u @ pw.ambient()) <= 1e-10


def test_retraction_feasible_for_large_steps(zoo):
    for m in zoo:
        rng = np.random.default_rng(29)
        for _ in range(25):
            x = sample_point(m, rng)
            t = random_tangent(x, rng, unit=False)
            nrm = t.ambient_norm()
            if nrm <= 1e-12:
                continue
            d = t.scaled(rng.uniform(0.1, 10.0) / nrm)
            y = m.retract(x, d)
            assert y.residual() <= 1e-8, m.spec_string()
            assert m.constraint_residual(y.ambient()) <= 1e-8, m.spec_string()
            assert m.tangency_residual(x, d) <= 1e-8 * (1 + d.ambient_norm())


def test_retraction_first_order_ratio(zoo):
    for m in zoo:
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = sample_point(m, rng)
            t = random_tangent(x, rng, unit=False)
            nrm = t.ambient_norm()
            if nrm <= 1e-12:
                continue
            unit = t.scaled(1.0 / nrm)
            for step in (1e-2, 1e-3):
                e1 = np.linalg.norm(
                    m.retract(x, unit.scaled(step)).ambient()
                    - (x.ambient() + step * unit.ambient())
                )
                e2 = np.linalg.norm(
                    m.retract(x, unit.scaled(step / 2)).ambient()
                    - (x.ambient() + (step / 2) * unit.ambient())
                )
                if e1 < 1e-14 or e2 < 1e-14:
                    continue
                assert 3.5 <= e1 / e2 <= 4.5, (m.spec_string(), step, e1 / e2)


def test_retraction_step_bounded(zoo):
    for m in zoo:
        rng = np.random.default_rng(37)
        for _ in range(25):
            x = sample_point(m, rng)
            t = random_tangent(x, rng, unit=False)
            nrm = t.ambient_norm()
            if nrm <= 1e-12:
                continue
            d = t.scaled(rng.uniform(0.05, 1.0) / nrm)
            moved = np.linalg.norm(m.retract(x, d).ambient() - x.ambient())
            assert moved <= 2.0 * d.ambient_norm(), m.spec_string()


def test_product_operations_match_blockwise():
    prod = Product([Sphere(3), Stiefel(4, 2)])
    rng = np.random.default_rng(43)
    for _ in range(10):
        x = prod.random_point(rng)
        a = rng.standard_normal(prod.ambient_dim)
        got = prod.project_tangent(x, a)
        xs, xst = x.value[:3], x.value[3:]
        a_s, a_st = a[:3], a[3:]
        sph, st = prod.blocks
        man_s = sph._project_many(xs, a_s[None])[0]
        man_st = st._project_many(xst, a_st[None])[0]
        assert np.array_equal(got.value[:3], man_s)
        assert np.array_equal(got.value[3:], man_st)

        y = prod.retract(x, got)
        assert np.array_equal(y.value[:3], sph._retract_many(xs, man_s[None])[0])
        assert np.array_equal(y.value[3:], st._retract_many(xst, man_st[None])[0])

        u = prod.project_tangent(x, rng.standard_normal(prod.ambient_dim))
        assert prod.inner(x, got, u) == (
            sph._inner(xs, got.value[:3], u.value[:3])
            + st._inner(xst, got.value[3:], u.value[3:])
        )


def test_product_retract_leaves_untouched_blocks_bitwise():
    prod = Product([Sphere(3), Stiefel(4, 2)])
    x = prod.random_point(np.random.default_rng(44))
    t = prod.project_tangent(x, np.concatenate([np.zeros(3), np.ones(8)]))
    y = prod.retract(x, t)
    assert np.array_equal(y.value[:3], x.value[:3])
    assert not np.array_equal(y.value[3:], x.value[3:])


# ---------------------------------------------------------------------------
# stacked geometry: one call for a (k, len) stack of rows
# ---------------------------------------------------------------------------

def _tangent_stacks(m, x, rng):
    """Stacks of tangents at x, projected with ``_project_many``.

    The projected coordinate directions of both signs (each touches one
    product block, and they drive fixed-rank into its
    re-orthogonalisation), random tangents (every block) mixed with a
    few coordinate directions and a zero row, and a single row.
    """
    n = m.ambient_dim
    coords = m._project_many(x, np.eye(n))
    randoms = m._project_many(x, rng.standard_normal((4, n)))
    mixed = np.vstack([randoms[:2], coords[:3], np.zeros((1, coords.shape[1])), randoms[2:]])
    for scale in (1e-6, 0.5, 4.0):
        yield np.vstack([coords, -coords]) * scale
        yield mixed * scale
        yield randoms[:1] * scale


@pytest.mark.parametrize("m", manifold_zoo(), ids=lambda m: m.spec_string())
def test_projection_rows_are_independent_of_their_stack(m):
    # a basis projects its n coordinates as one stack and a dense direction
    # is a stack of one, so a row may not depend on its neighbours
    rng = np.random.default_rng(61)
    n = m.ambient_dim
    for _ in range(3):
        x = sample_point(m, rng)
        A = np.vstack([np.eye(n), rng.standard_normal((3, n))])
        P = m._project_many(x.value, A)
        for i, a in enumerate(A):
            assert np.array_equal(P[i], m._project_many(x.value, A[i:i + 1])[0])
            assert np.array_equal(P[i], m.project_tangent(x, a).value)


@pytest.mark.parametrize("m", manifold_zoo(), ids=lambda m: m.spec_string())
def test_stacked_geometry_matches_per_row_bitwise(m):
    # row i of a k-stack is its stack of one.  Every kind a product may
    # hold also takes one base point per row, as a run of equal blocks
    # passes them; fixed-rank takes one base point only
    rng = np.random.default_rng(61)
    for _ in range(3):
        x = sample_point(m, rng).value
        points = (x, sample_point(m, rng).value, sample_point(m, rng).value)
        for T in _tangent_stacks(m, x, rng):
            want = np.array([m._retract_many(x, t[None])[0] for t in T])
            assert np.array_equal(m._retract_many(x, T), want)
            want = np.array([m._inner(x, t, t) for t in T])
            assert np.array_equal(m._sqnorms(x, T), want)
            if isinstance(m, FixedRank):
                continue
            X = np.array([points[i % 3] for i in range(len(T))])
            TX = np.vstack([m._project_many(xi, t[None]) for xi, t in zip(X, T)])
            want = np.array([m._retract_many(xi, t[None])[0] for xi, t in zip(X, TX)])
            assert np.array_equal(m._retract_many(X, TX), want)


def test_product_stack_retracts_each_block_on_its_rows_only(monkeypatch):
    prod = Product([Sphere(3), Stiefel(4, 2)])
    x = prod.random_point(np.random.default_rng(67)).value
    seen = []
    for b in prod.blocks:
        many = b._retract_many
        monkeypatch.setattr(b, "_retract_many",
                            lambda xb, T, many=many: seen.append(len(T)) or many(xb, T))
    T = prod._project_many(x, np.eye(11)[[0, 1, 5]])
    prod._retract_many(x, T)
    assert seen == [2, 1]  # rows 0 and 1 move the sphere, row 2 the Stiefel block


def _leaf_calls(monkeypatch, m):
    # (kind, rows) of each _retract_many call the product m makes to a leaf block
    seen, todo = [], list(m.blocks)
    while todo:
        b = todo.pop()
        if isinstance(b, Product):
            todo.extend(b.blocks)
        else:
            monkeypatch.setattr(b, "_retract_many", lambda x, T, b=b, many=b._retract_many:
                                seen.append((b.kind, len(T))) or many(x, T))
    return seen


@pytest.mark.parametrize("problem,calls", [
    ("top-sv", [("stiefel", 2)]),
    ("sync-rotations", [("so", 2)]),
    ("gmm", [("spd", 2), ("simplex", 1)]),
    # product(product-spheres(sphere(2),sphere(2)),euclidean(2x4)): h = 2
    ("dict-learning", [("sphere", 2), ("euclidean", 1)]),
])
def test_lone_product_retraction_is_one_call_per_run_of_equal_blocks(problem, calls,
                                                                    monkeypatch):
    m = build_instance(problem, 10, 0).manifold
    rng = np.random.default_rng(73)
    x = m.random_point(rng)
    t = random_tangent(x, rng)
    want = m._retract_many(x.value, t.value[None])[0]
    seen = _leaf_calls(monkeypatch, m)
    assert np.array_equal(m.retract(x, t).value, want)
    assert seen == calls


def test_coordinate_chunk_retracts_only_the_blocks_it_moves(monkeypatch):
    prod = product_spheres([4, 4, 4])
    x = prod.random_point(np.random.default_rng(79)).value
    T = prod._project_many(x, np.eye(12)[[0, 1, 9]])  # rows 0, 1 move block 0, row 2 block 2
    seen = _leaf_calls(monkeypatch, prod)
    Y = prod._retract_many(x, T)
    assert seen == [("sphere", 3)]  # three of the nine block values, in one call
    assert np.array_equal(Y[:2, 4:], np.tile(x[4:], (2, 1)))
    assert np.array_equal(Y[2, :8], x[:8])
    for y, t in zip(Y, T):
        assert np.array_equal(y, prod._retract_many(x, t[None])[0])


def test_fixed_rank_coordinate_steps_leak_into_span_u():
    # what the stacked test's mixed stack relies on: QR of the rank-one Up
    # block of a coordinate direction emits columns inside span(U), QR of
    # a random tangent's block does not
    fr = FixedRank(6, 5, 2)
    rng = np.random.default_rng(71)
    x = fr.random_point(rng).value
    u = fr._unpack(x)[0]
    A = np.vstack([np.eye(30), rng.standard_normal((4, 30))])
    T = fr._project_many(x, A)
    q, _ = np.linalg.qr(fr._unpack_tangents(T)[1])
    leaks = np.abs(u.T @ q).max(axis=(1, 2)) > 1e-12
    assert leaks[:30].all() and not leaks[30:].any()


# ---------------------------------------------------------------------------
# kind-specific corners
# ---------------------------------------------------------------------------

def test_fixed_rank_embedding_norm_matches_factored():
    fr = FixedRank(6, 5, 2)
    rng = np.random.default_rng(47)
    x = fr.random_point(rng)
    t = fr.project_tangent(x, rng.standard_normal(30))
    assert t.ambient_norm() == pytest.approx(np.linalg.norm(t.ambient()), rel=1e-12)
    assert t.norm() == pytest.approx(t.ambient_norm(), rel=1e-12)


@pytest.mark.parametrize("shape", [(7, 7, 2), (10, 10, 2), (50, 60, 3), (3, 40, 1)])
def test_fixed_rank_norms_equal_three_block_sums_bitwise(shape):
    # oracle: np.sum over each unpacked factor, added in factor order
    fr = FixedRank(*shape)
    rng = np.random.default_rng(53)
    for _ in range(20):
        x = fr.random_point(rng)
        u = fr.project_tangent(x, rng.standard_normal(fr.ambient_dim))
        v = fr.project_tangent(x, rng.standard_normal(fr.ambient_dim))
        (um, uu, uv), (vm, vu, vv) = fr._unpack_tangent(u.value), fr._unpack_tangent(v.value)
        inner = float(np.sum(um * vm) + np.sum(uu * vu) + np.sum(uv * vv))
        sq = np.sum(um * um) + np.sum(uu * uu) + np.sum(uv * uv)
        assert fr._inner(x.value, u.value, v.value) == inner
        assert u.ambient_norm() == float(np.sqrt(sq))
        assert u.norm() == u.ambient_norm()


def test_fixed_rank_degenerate_tangent_blocks_stay_feasible():
    # rank-deficient or zero Up/Vp blocks must not leak filler directions
    # from the QR factor into the new orthonormal factors
    fr = FixedRank(6, 5, 2)
    rng = np.random.default_rng(3)
    x = fr.random_point(rng)
    u, s, v = fr._unpack(x.value)
    vp_raw = rng.standard_normal((5, 2))
    vp = vp_raw - v @ (v.T @ vp_raw)
    zero_up = TangentVector(x, fr.pack(rng.standard_normal((2, 2)), np.zeros((6, 2)), vp))
    assert fr.tangency_residual(x, zero_up) < 1e-12
    assert fr.retract(x, zero_up).residual() <= 1e-10
    up_raw = np.outer(rng.standard_normal(6), np.array([1.0, 0.0]))
    up = up_raw - u @ (u.T @ up_raw)
    rank1_up = TangentVector(x, fr.pack(rng.standard_normal((2, 2)), up, vp))
    assert fr.retract(x, rank1_up.scaled(5.0)).residual() <= 1e-10


def test_fixed_rank_retraction_keeps_rank():
    fr = FixedRank(6, 5, 2)
    rng = np.random.default_rng(53)
    x = fr.random_point(rng)
    t = random_tangent(x, rng, unit=True).scaled(5.0)
    y = fr.retract(x, t)
    u, s, v = fr._unpack(y.value)
    assert s.shape == (2,)
    assert np.min(s) > 0
    assert np.linalg.matrix_rank((u * s) @ v.T) == 2


def test_simplex_retraction_survives_huge_steps():
    sx = PositiveSimplex(3)
    x = sx.point(np.array([0.2, 0.3, 0.5]))
    d = TangentVector(x, np.array([400.0, -100.0, -300.0]))
    y = sx.retract(x, d)
    assert y.residual() <= 1e-8
    assert np.min(y.value) > 0


def test_spd_retraction_stays_positive_definite():
    spd = SymmetricPositiveDefinite(3)
    rng = np.random.default_rng(59)
    x = spd.random_point(rng)
    t = random_tangent(x, rng, unit=False).scaled(20.0)
    y = spd.retract(x, t)
    assert np.linalg.eigvalsh(spd._unpack(y.value))[0] > 0


def test_point_constructor_validates():
    with pytest.raises(InvalidShape):
        Sphere(3).point(np.array([2.0, 0.0, 0.0]))
    with pytest.raises(InvalidShape):
        Stiefel(2, 2).point(np.eye(2))  # a point value is flat


# ---------------------------------------------------------------------------
# flat layout
# ---------------------------------------------------------------------------

def _documented_sizes(m):
    """(point, tangent) value lengths: the ambient length except fixed-rank."""
    if isinstance(m, FixedRank):
        return (m.m + 1 + m.h) * m.r, (m.r + m.m + m.h) * m.r
    return m.ambient_dim, m.ambient_dim


def _leaves(views):
    if isinstance(views, tuple):
        return [leaf for v in views for leaf in _leaves(v)]
    return [views]


def test_values_are_flat_with_documented_sizes(zoo):
    rng = np.random.default_rng(61)
    for m in zoo:
        x = sample_point(m, rng)
        t = random_tangent(x, rng)
        n_point, n_tangent = _documented_sizes(m)
        for value, n in ((x.value, n_point), (t.value, n_tangent),
                         (m.zero_tangent(x).value, n_tangent),
                         (m.retract(x, t).value, n_point)):
            assert value.dtype == np.float64 and value.shape == (n,), m.spec_string()


def test_unpack_returns_views_of_the_flat_value(zoo):
    rng = np.random.default_rng(67)
    for m in zoo:
        x = sample_point(m, rng)
        leaves = _leaves(m._unpack(x.value))
        assert all(np.shares_memory(leaf, x.value) for leaf in leaves), m.spec_string()
        assert sum(leaf.size for leaf in leaves) == x.value.size


def test_fixed_rank_pack_round_trips():
    fr = FixedRank(6, 5, 2)
    rng = np.random.default_rng(71)
    x = fr.random_point(rng)
    u, s, v = fr._unpack(x.value)
    assert (u.shape, s.shape, v.shape) == ((6, 2), (2,), (5, 2))
    assert np.array_equal(fr.pack(u, s, v), x.value)
    factors = (rng.standard_normal((2, 2)), rng.standard_normal((6, 2)),
               rng.standard_normal((5, 2)))
    for got, want in zip(fr._unpack_tangent(fr.pack(*factors)), factors):
        assert np.array_equal(got, want)


def test_product_rejects_fixed_rank_block():
    with pytest.raises(InvalidShape):
        Product([FixedRank(6, 5, 2), Sphere(3)])
    with pytest.raises(InvalidShape):
        Product([Sphere(3), Product([FixedRank(4, 4, 1)])])


def test_intrinsic_dims():
    assert Sphere(5).intrinsic_dim == 4
    assert Stiefel(5, 2).intrinsic_dim == 10 - 3
    assert SpecialOrthogonal(3).intrinsic_dim == 3
    assert FixedRank(6, 5, 2).intrinsic_dim == (6 + 5 - 2) * 2
    assert SymmetricPositiveDefinite(3).intrinsic_dim == 6
    assert PositiveSimplex(4).intrinsic_dim == 3
