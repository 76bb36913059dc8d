"""Stanley-Reisner products, non-equivariant reduction, integration, restriction.

Independent oracles used here:
  * Betti numbers of the reduced ring are cross-checked against the h-vector
    computed purely from face counting (h_p = sum_k (-1)^(p-k) C(D-k, p-k) f_k
    for a smooth fan with convex support).
  * Intersection numbers on the Hirzebruch surface (f1) are frozen from the
    divisor relations D1 = D3, D4 = D2 + D3 and the vanishing products
    D1 D3 = D2 D4 = 0, worked out by hand: D2^2 = -1, D3^2 = 0, D4^2 = 1.
  * The cached Stanley-Reisner product Context.phi_mul is checked against
    localization: restricted to every torus fixed point as a product of
    linear forms in the equivariant parameters, it is multiplicative over all
    in-window pairs.
"""

import itertools
from math import comb

import pytest

from conftest import C2, F1, P1, P2, make_ctx
from toricmirror.cohomology import (
    NoneqBasis,
    lambda_class,
    phi_product,
    poincare_integral,
)
from toricmirror.errors import NonCompactFan, TruncationLoss
from toricmirror.fans import fixed_point_weights
from toricmirror.linalg import QQ
from toricmirror.series import HSeries
from toricmirror.verify import LinearFraction


def h_vector(fan_dict):
    """Face-count oracle for the reduced Betti numbers of a complete fan."""
    dim = len(fan_dict["rays"][0])
    faces = set()
    for cone in fan_dict["max_cones"]:
        for r in range(len(cone) + 1):
            faces.update(itertools.combinations(sorted(cone), r))
    f = [0] * (dim + 1)
    for face in faces:
        f[len(face)] += 1
    return [
        sum((-1) ** (p - k) * comb(dim - k, p - k) * f[k] for k in range(p + 1))
        for p in range(dim + 1)
    ]


def top_degree(fan_dict):
    return len(fan_dict["rays"][0])


@pytest.mark.parametrize("fan_dict", [P1, P2, F1], ids=["p1", "p2", "f1"])
def test_betti_matches_h_vector(fan_dict):
    ctx = make_ctx(fan_dict, kcoh=4)
    nb = NoneqBasis(ctx)
    dim = top_degree(fan_dict)
    assert nb.betti[: dim + 1] == h_vector(fan_dict)
    assert all(b == 0 for b in nb.betti[dim + 1 :])


def test_betti_affine_space():
    ctx = make_ctx(C2, kcoh=3, qcap=0, gcap=3)
    nb = NoneqBasis(ctx)
    assert nb.betti[0] == 1
    assert all(b == 0 for b in nb.betti[1:])


def test_phi_product_points():
    ctx = make_ctx(P2)
    assert phi_product(ctx, (1, 0), (0, 1)) == (1, 1)
    assert phi_product(ctx, (1, 0), (-1, -1)) == (0, -1)
    ctx1 = make_ctx(P1)
    assert phi_product(ctx1, (1,), (-1,)) is None  # Stanley-Reisner zero


def test_phi_product_window():
    ctx = make_ctx(P2, kcoh=2)
    assert ctx.losses["phi_window"] == 0
    assert phi_product(ctx, (2, 0), (1, 0)) is None
    assert ctx.losses["phi_window"] == 1
    with pytest.raises(TruncationLoss):
        phi_product(ctx, (2, 0), (1, 0), strict=True)


def test_lambda_class_coefficients():
    ctx = make_ctx(P2)
    lam = lambda_class(ctx, (1, 0))
    recs = lam.records()
    by_point = {tuple(r["k"]): (r["num"], r["den"]) for r in recs}
    assert by_point == {(1, 0): (1, 1), (-1, -1): (-1, 1)}


@pytest.mark.parametrize("fan_dict", [P1, P2, F1, C2], ids=["p1", "p2", "f1", "c2"])
def test_relations_reduce_to_zero(fan_dict):
    ctx = make_ctx(fan_dict, kcoh=3)
    nb = NoneqBasis(ctx)
    dim = ctx.fan.dim
    for c in range(dim):
        for l, pd in enumerate(ctx.points):
            if pd.norm > nb.max_degree - 1:
                continue
            vec = {}
            for i, ray in enumerate(ctx.fan.rays):
                if ray[c] == 0:
                    continue
                tgt = ctx.phi_mul(ctx.ray_pidx[i], l)
                if tgt is None or tgt == -1:
                    continue
                vec[tgt] = vec.get(tgt, QQ(0)) + QQ(ray[c])
            assert nb.reduce_class(vec) == {}


def test_reduction_idempotent_and_linear():
    ctx = make_ctx(F1, kcoh=4)
    nb = NoneqBasis(ctx)
    vec = {i: QQ(2 * i - 3) for i, pd in enumerate(ctx.points) if pd.norm <= 4}
    red = nb.reduce_class(vec)
    assert nb.reduce_class(red) == red
    doubled = nb.reduce_class({p: 2 * c for p, c in vec.items()})
    assert doubled == {p: 2 * c for p, c in red.items()}


def test_reduction_beyond_basis_rejected():
    ctx = make_ctx(P2)
    nb = NoneqBasis(ctx, max_degree=1)
    deep = ctx.pindex[(1, 1)]
    with pytest.raises(TruncationLoss):
        nb.reduce_class({deep: QQ(1)})


@pytest.mark.parametrize("fan_dict", [P1, P2, F1], ids=["p1", "p2", "f1"])
def test_fixed_point_classes_integrate_to_one(fan_dict):
    ctx = make_ctx(fan_dict, kcoh=4)
    nb = NoneqBasis(ctx)
    for cone in ctx.fan.max_cones:
        point = tuple(
            sum(ctx.fan.rays[i][a] for i in cone) for a in range(ctx.fan.dim)
        )
        pidx = ctx.pindex[point]
        assert poincare_integral(ctx, {pidx: QQ(1)}, nb) == 1


def test_intersection_numbers_p2():
    ctx = make_ctx(P2, kcoh=4)
    nb = NoneqBasis(ctx)

    def pair(a, b):
        prod = phi_product(ctx, a, b)
        if prod is None:
            return QQ(0)
        return poincare_integral(ctx, {ctx.pindex[prod]: QQ(1)}, nb)

    rays = [(1, 0), (0, 1), (-1, -1)]
    for a in rays:
        for b in rays:
            assert pair(a, b) == 1  # every line pairing on the plane is H^2


def test_intersection_numbers_f1():
    ctx = make_ctx(F1, kcoh=4)
    nb = NoneqBasis(ctx)

    def square(ray):
        prod = phi_product(ctx, ray, ray)
        if prod is None:
            return QQ(0)
        return poincare_integral(ctx, {ctx.pindex[prod]: QQ(1)}, nb)

    assert square((0, 1)) == -1   # the exceptional curve
    assert square((-1, 1)) == 0   # the fiber
    assert square((0, -1)) == 1   # the degree-one section
    assert square((1, 0)) == 0    # linearly equivalent to the fiber
    mixed = phi_product(ctx, (0, 1), (-1, 1))
    assert poincare_integral(ctx, {ctx.pindex[mixed]: QQ(1)}, nb) == 1


def test_below_top_degree_integrates_to_zero():
    ctx = make_ctx(P2, kcoh=4)
    nb = NoneqBasis(ctx)
    assert poincare_integral(ctx, {ctx.unit_pidx: QQ(1)}, nb) == 0
    assert poincare_integral(ctx, {ctx.ray_pidx[0]: QQ(1)}, nb) == 0


def test_integral_of_series():
    ctx = make_ctx(P1)
    y0 = HSeries.variable(ctx, ctx.var((0,)))
    s = (y0 * HSeries.phi(ctx, ctx.ray_pidx[0])).z_shift(2) + HSeries.unit(ctx)
    out = poincare_integral(ctx, s)
    expected = y0.z_shift(2)
    assert out.records() == expected.records()


def test_integral_requires_complete_fan():
    ctx = make_ctx(C2, qcap=0, gcap=3)
    with pytest.raises(NonCompactFan):
        poincare_integral(ctx, {ctx.unit_pidx: QQ(1)})


def test_reduce_series_kills_equivariant_classes():
    ctx = make_ctx(P2)
    nb = NoneqBasis(ctx)
    lam = lambda_class(ctx, (0, 1)).z_shift(1)
    assert nb.reduce_series(lam).is_zero()
    one_ray = HSeries.phi(ctx, ctx.ray_pidx[2])
    red = nb.reduce_series(one_ray)
    recs = red.records()
    assert len(recs) == 1
    assert tuple(recs[0]["k"]) == (1, 0)  # all three lines reduce to the same rep
    assert (recs[0]["num"], recs[0]["den"]) == (1, 1)


@pytest.mark.parametrize("fan_dict", [P1, P2, F1], ids=["p1", "p2", "f1"])
def test_restriction_multiplicative(fan_dict):
    # phi_k restricts to prod_i (u_i(x) . lam)^{psi_i(k)}; an off-cone ray has
    # the zero form, so a class not supported on the cone restricts to 0
    ctx = make_ctx(fan_dict, kcoh=2)
    for cone in ctx.fan.max_cones:
        weights = fixed_point_weights(ctx.fan, cone)
        restricted = []
        for pd in ctx.points:
            form = LinearFraction.one()
            for w, e in zip(weights, pd.psi):
                form = form.times_form(w + (0,), e)
            restricted.append(form)
        for a in range(len(ctx.points)):
            for b in range(len(ctx.points)):
                if ctx.norms[a] + ctx.norms[b] > ctx.kwork:
                    continue
                prod = ctx.phi_mul(a, b)
                lhs = restricted[a] * restricted[b]
                rhs = LinearFraction.zero() if prod in (None, -1) else restricted[prod]
                assert lhs == rhs
