import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import protometric as pm
from protometric import DistanceSpec, geometry

from conftest import (NonDifferentiableError, distance, distance_gradient, one_shot_sqnorms,
                      pairwise_distances)

EUC = DistanceSpec("euclidean")
SQ = DistanceSpec("squared-euclidean")
HUB = DistanceSpec("huber", delta=0.1)

finite_vec = st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6)


class TestDistanceValues:
    def test_euclidean_345(self):
        assert distance(EUC, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_squared(self):
        assert distance(SQ, np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 2.0

    def test_huber_at_zero(self):
        assert distance(HUB, np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_huber_at_unit_gap(self):
        # 0.1 * (sqrt(101) - 1), evaluated directly
        got = distance(HUB, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert got == pytest.approx(0.1 * (np.sqrt(101) - 1), rel=1e-12)
        assert got == pytest.approx(0.904987562112089, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            distance(EUC, np.zeros(2), np.zeros(3))

    @given(finite_vec)
    def test_zero_iff_equal_and_symmetric(self, u):
        u = np.asarray(u)
        v = u + 1.0
        for spec in (EUC, SQ, HUB):
            assert distance(spec, u, u) == 0.0
            assert distance(spec, u, v) == distance(spec, v, u)
            assert distance(spec, u, v) > 0.0


class TestHuberShape:
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e2))
    def test_within_delta_of_euclidean(self, norm, delta):
        spec = DistanceSpec("huber", delta=delta)
        u = np.array([norm, 0.0])
        h = distance(spec, u, np.zeros(2))
        assert abs(h - norm) <= delta + 1e-12

    def test_small_gap_is_half_squared_over_delta(self):
        # H(x) * 2 delta / |x|^2 -> 1 as |x| -> 0, checked at |x| = 1e-3 delta
        for delta in (0.05, 0.1, 1.0):
            spec = DistanceSpec("huber", delta=delta)
            norm = 1e-3 * delta
            h = distance(spec, np.array([norm, 0.0]), np.zeros(2))
            assert h * 2 * delta / norm**2 == pytest.approx(1.0, rel=1e-4)

    def test_monotone_in_norm(self):
        norms = np.linspace(0.01, 20, 200)
        for spec in (EUC, SQ, HUB):
            vals = [distance(spec, np.array([r, 0.0]), np.zeros(2)) for r in norms]
            assert np.all(np.diff(vals) > 0)


class TestGradients:
    def test_squared_simple(self):
        g_u, g_v = distance_gradient(SQ, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(g_u, [2.0, 0.0])
        np.testing.assert_array_equal(g_v, [-2.0, 0.0])

    def test_grad_v_is_negated_grad_u(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        for spec in (EUC, SQ, HUB):
            g_u, g_v = distance_gradient(spec, u, v)
            np.testing.assert_array_equal(g_v, -g_u)

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        for spec in (EUC, SQ, HUB):
            g_uv, _ = distance_gradient(spec, u, v)
            g_vu, _ = distance_gradient(spec, v, u)
            np.testing.assert_allclose(g_uv, -g_vu, atol=1e-15)

    def test_euclidean_at_coincident_points_raises(self):
        u = np.array([1.0, 2.0])
        with pytest.raises(NonDifferentiableError):
            distance_gradient(EUC, u, u.copy())

    @pytest.mark.parametrize("spec,tol", [(HUB, 1e-5), (SQ, 1e-5), (EUC, 1e-4)])
    def test_matches_finite_differences(self, spec, tol):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)

            def evaluate(flat):
                uu, vv = flat[:4], flat[4:]
                g_u, g_v = distance_gradient(spec, uu, vv)
                return distance(spec, uu, vv), np.concatenate([g_u, g_v])

            worst = max(worst, pm.finite_difference_check(
                evaluate, np.concatenate([u, v]), h=1e-6))
        assert worst < tol


def test_spec_validation():
    with pytest.raises(ValueError):
        DistanceSpec("cosine")
    with pytest.raises(ValueError):
        DistanceSpec("huber", delta=0.0)


def test_spec_serialization_roundtrip():
    for spec in (EUC, SQ, DistanceSpec("huber", delta=0.35)):
        assert DistanceSpec.from_dict(spec.to_dict()) == spec


def test_pairwise_distances_agree_with_scalar():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 3))
    Y = rng.standard_normal((4, 3))
    for spec in (EUC, SQ, HUB):
        table = pairwise_distances(spec, X, Y)
        for i in range(5):
            for j in range(4):
                assert table[i, j] == pytest.approx(
                    distance(spec, X[i], Y[j]), rel=1e-12, abs=1e-15)


def _row_bound(X, Y):
    """B of the pairwise_sqnorms docstring, per row of X."""
    m, eps = X.shape[1], np.finfo(np.float64).eps
    x2, y2 = (X * X).sum(axis=1), (Y * Y).sum(axis=1)
    return 2 * (m + 4) * (eps * (x2 + y2.max()) + 2.0 ** -1073)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1, 2, 50)), st.integers(1, 60),
       st.integers(1, 70), st.sampled_from(("normal", "grid", "midpoints", "radii", "near")))
@example(0, 0, 1, 1, "normal")
@example(0, 1, 1, 1, "grid")
@example(0, 50, 1, 70, "grid")
@example(0, 50, 2, 3, "midpoints")
@example(0, 50, 60, 1, "radii")
@example(0, 50, 60, 64, "radii")
@example(0, 50, 20, 8, "near")
def test_expanded_sqnorms_against_explicit_differences(seed, n, k, m, layout):
    rng = np.random.default_rng(seed)
    if layout == "grid":  # a small grid, full of equal norms and ties
        X, Y = (rng.integers(-1, 2, (rows, m)).astype(float) for rows in (n, k))
    elif layout == "normal":
        X, Y = rng.standard_normal((n, m)), rng.standard_normal((k, m))
    elif layout == "midpoints":  # ties in exact arithmetic that each kernel rounds its own way
        Y = rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-2, 2, (k, 1))
        X = (Y[rng.integers(0, k, n)] + Y[rng.integers(0, k, n)]) / 2
    elif layout == "near":  # normal draws shifted by 5, in pairs 1e-8 to 1e-2 apart
        Y = rng.standard_normal((k, m)) + 5.0
        dirs = rng.standard_normal((k // 2, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        Y[1::2] = Y[::2][:k // 2] + 10.0 ** rng.uniform(-8, -2, (k // 2, 1)) * dirs
        X = Y[rng.integers(0, k, n)]
    else:  # criterion 8's layout: prototypes at radii 1e-3 to 1e6 about a centre
        centre = rng.standard_normal(m)

        def around(rows):
            dirs = rng.standard_normal((rows, m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            return centre + 10.0 ** rng.uniform(-3, 6, (rows, 1)) * dirs

        X, Y = around(n), around(k)
        X[:n // 2] = centre
    if n and layout != "radii":
        X[rng.integers(0, n, k)] = Y  # coincident rows
    got = geometry.pairwise_sqnorms(X, Y)
    want = one_shot_sqnorms(X, Y)
    assert got.shape == (n, k)
    if n == 0:
        return
    np.testing.assert_array_equal(got.min(axis=1), want.min(axis=1))
    np.testing.assert_array_equal(got.argmin(axis=1), want.argmin(axis=1))
    assert np.all(got[want == 0] == 0)
    assert np.all(np.abs(got - want) <= _row_bound(X, Y)[:, None])
    assert np.all(np.abs(got - want) <= geometry.TAU * want)
    for r in range(n):  # a row alone is the same row in a batch
        np.testing.assert_array_equal(geometry.pairwise_sqnorms(X[r:r + 1], Y)[0], got[r])


@pytest.mark.parametrize("m", [1, 7, 64])
def test_pair_sqnorms_blocks_equal_one_gather(m):
    step = geometry.BUDGET // (8 * m)
    rng = np.random.default_rng(m)
    X, Y = rng.standard_normal((30, m)), rng.standard_normal((20, m))
    X[3] = Y[5]
    for count in (0, 1, step - 1, step, step + 1, 2 * step + 1):
        i, j = rng.integers(0, 30, count), rng.integers(0, 20, count)
        diff = X[i] - Y[j]
        got = geometry.pair_sqnorms(X, Y, i, j)
        np.testing.assert_array_equal(got, np.einsum("pm,pm->p", diff, diff))
        np.testing.assert_array_equal(got, one_shot_sqnorms(X, Y)[i, j])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(0, 300), st.booleans())
def test_pair_sqnorms_takes_the_rows_of_fancy_indexing(seed, m, count, strided):
    # the rows are gathered by take; fancy indexing is the oracle, on
    # contiguous inputs and on strided views of them
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((25, 2 * m)), rng.standard_normal((12, 2 * m))
    X, Y = (X[:, ::2], Y[:, 1::2]) if strided else (X[:, :m].copy(), Y[:, :m].copy())
    i, j = rng.integers(0, 25, count), rng.integers(0, 12, count)
    diff = X[i] - Y[j]
    np.testing.assert_array_equal(geometry.pair_sqnorms(X, Y, i, j),
                                  np.einsum("pm,pm->p", diff, diff))


def test_pair_contract_sums_weighted_differences():
    rng = np.random.default_rng(3)
    C, A, B = rng.standard_normal((5, 4)), rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    want = np.einsum("ij,ijm->im", C, A[:, None, :] - B[None, :, :])
    np.testing.assert_allclose(geometry.pair_contract(C, A, B), want, rtol=1e-13, atol=1e-14)
