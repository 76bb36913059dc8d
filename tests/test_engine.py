"""Hypergeometric series, Birkhoff factorization, Seidel classes, products.

Independent oracles used here:
  * The degree-zero mirror map on the projective line is recomputed by a
    standalone matrix factorization over plain Fractions (explicit dict
    arithmetic, no shared code with the engine) and compared term by term.
  * The leading Novikov coefficients of the hypergeometric series on the
    projective line come from expanding z/((u1+z)(u2+z)) by hand with
    u1 u2 = 0: z^-1 - (u1+u2) z^-2 + (u1^2+u2^2) z^-3 - ...
  * The affine-plane variable coefficients are the closed products
    y_(1,1) phi_(1,1) and y_(2,0) (u1^2 - z u1), worked out from the
    factor recursion F(l-1) = (u + l z) F(l).
  * Quantum-product pins are the classical small-ring values: on the line
    u1 * u2 = Q, on the plane (D1 * D2) * D3 = Q, both at the origin of the
    deformation space (the variable-free part of the big product).
  * Ray derivative columns are checked against the offset enumeration of
    the same column -- two different formulas for one object.
"""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct

import pytest

import conftest
from conftest import C2, F1, F3, P1, P2, make_ctx
from toricmirror import engine
from toricmirror.cohomology import phi_product
from toricmirror.errors import (
    FactorizationResidue,
    IdentityViolation,
    PolicyMismatch,
    TruncationLoss,
)
from toricmirror.gaussmanin import gm_add, gm_multiply
from toricmirror.linalg import QQ
from toricmirror.series import HSeries, OperatorSeries, compose, invert_map


def mirror(fan_dict, **kw):
    """Shared mirror data for a fan at the default policy (c2 without Novikov)."""
    if fan_dict["name"] == "c2":
        kw.setdefault("qcap", 0)
    return conftest.mirror(fan_dict, **kw)


def g_free(s):
    """The variable-free part of a series."""
    kept = {k: dict(v) for k, v in s.terms.items() if not k[1]}
    return HSeries(s.ctx, kept)


def var_coefficient(s, vidx):
    """The coefficient of a single bare variable, as a series."""
    out = {}
    for (eidx, g), inner in s.terms.items():
        if g == ((vidx, 1),):
            out[(eidx, ())] = dict(inner)
    return HSeries(s.ctx, out)


# ------------------------------------------------------ hypergeometric series


@pytest.mark.parametrize("fan_dict", [P1, P2, C2, F1], ids=["p1", "p2", "c2", "f1"])
def test_ifunction_leading_term(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    assert md.I.order_part(0) == HSeries.phi(ctx, ctx.unit_pidx, 1)
    assert md.I.is_homogeneous(1)


def test_ifunction_p1_novikov_coefficients():
    md = mirror(P1)
    ctx = md.ctx
    inner = md.I.terms.get((ctx.eindex[(1, 1)], ()), {})
    for zexp, vec in [
        (-1, {(0,): 1}),
        (-2, {(1,): -1, (-1,): -1}),
        (-3, {(2,): 1, (-2,): 1}),
    ]:
        got = {p: c for (p, z), c in inner.items() if z == zexp}
        assert got == {ctx.pindex[p]: c for p, c in vec.items()}, zexp


def test_ifunction_c2_variable_coefficients():
    md = mirror(C2)
    ctx = md.ctx
    c11 = var_coefficient(md.I, ctx.var((1, 1)))
    assert c11 == HSeries.phi(ctx, ctx.pindex[(1, 1)])
    c20 = var_coefficient(md.I, ctx.var((2, 0)))
    want = HSeries.phi(ctx, ctx.pindex[(2, 0)]) - HSeries.phi(
        ctx, ctx.pindex[(1, 0)], 1
    )
    assert c20 == want


# ----------------------------------------------------------- the column family


@pytest.mark.parametrize("fan_dict", [P1, C2], ids=["p1", "c2"])
def test_active_columns_are_derivatives_where_complete(fan_dict):
    """Below the top variable order the column is the honest derivative."""
    md = mirror(fan_dict)
    ctx = md.ctx
    cap = ctx.policy.gcap - 1
    for vi, gv in enumerate(ctx.gvars):
        if gv.kind != "y":
            continue
        col = md.dI.col(gv.pidx).y_degree_part(cap)
        dv = md.I.derive_var(vi).y_degree_part(cap)
        assert col == dv, ctx.points[gv.pidx].point


@pytest.mark.parametrize("fan_dict", [P1, P2, C2], ids=["p1", "p2", "c2"])
def test_ray_columns_match_offset_enumeration(fan_dict):
    """(u_i/z) I + gauge flow equals the offset-enumerated column."""
    md = mirror(fan_dict)
    ctx = md.ctx
    for rp in ctx.ray_pidx:
        assert md.dI.col(rp) == engine._series_sum(ctx, offset_pidx=rp)


def test_p0_is_unit_triangular():
    md = mirror(C2)
    ctx = md.ctx
    for k, col in md.P0.cols.items():
        inner = col.terms.get((ctx.zero_eidx, ()), {})
        assert inner.get((k, 0)) == 1
        for (p, z), c in inner.items():
            if p != k:
                assert ctx.norms[p] < ctx.norms[k]
    frozen = md.P0.col(ctx.pindex[(2, 0)])
    want = HSeries.phi(ctx, ctx.pindex[(2, 0)]) - HSeries.phi(
        ctx, ctx.pindex[(1, 0)], 1
    )
    assert frozen == want


# ------------------------------------------------------------- factorization


@pytest.mark.parametrize("fan_dict", [P1, P2, C2, F1], ids=["p1", "p2", "c2", "f1"])
def test_factorization_shape_and_exactness(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    # M = Id + strictly negative z powers
    ident = OperatorSeries.identity(ctx)
    tail = md.M - ident
    for col in tail.cols.values():
        for inner in col.terms.values():
            assert all(z < 0 for (_, z) in inner)
    # P has no negative z powers
    for col in md.P.cols.values():
        for inner in col.terms.values():
            assert all(z >= 0 for (_, z) in inner)
    # M . P reproduces the columns exactly and nothing was clipped
    assert (md.M.compose(md.P) - md.dI).is_zero()
    assert dict(ctx.losses) == {}


@pytest.mark.parametrize("fan_dict", [P1, P2, C2, F1], ids=["p1", "p2", "c2", "f1"])
def test_weight_homogeneity(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    assert md.tau.is_homogeneous(1)
    assert md.upsilon.is_homogeneous(0)
    for k, col in md.P.cols.items():
        assert col.is_homogeneous(ctx.norms[k])


@pytest.mark.parametrize("fan_dict", [P1, P2, C2, F1], ids=["p1", "p2", "c2", "f1"])
def test_p_columns_do_not_involve_the_unit_variable(fan_dict):
    """The unit direction enters dI only through a z^{-1} exponential factor,
    so the factorization pushes it entirely into M."""
    md = mirror(fan_dict)
    ctx = md.ctx
    y0 = ctx.var(tuple([0] * ctx.fan.dim))
    for col in md.P.cols.values():
        for (_, g) in col.terms:
            assert all(v != y0 for v, _ in g)


def test_corrupted_columns_are_rejected():
    md = mirror(P1)
    ctx = md.ctx
    bad_col = md.dI.col(ctx.unit_pidx) + HSeries.phi(ctx, ctx.unit_pidx, -1)
    bad = OperatorSeries(ctx, {**md.dI.cols, ctx.unit_pidx: bad_col})
    with pytest.raises(FactorizationResidue):
        engine.birkhoff_factorize(ctx, bad)


@pytest.mark.parametrize("fan_dict", [P1, C2], ids=["p1", "c2"])
def test_columns_without_their_top_order_leave_a_residue(fan_dict):
    """With dI's top order cut away, products of the lower slices reach an
    order the caps allow but the loop never solves: the check must see them."""
    ctx = make_ctx(fan_dict)
    dI = engine.build_dI(ctx)
    nmax = max(ctx.order(*key) for c in dI.cols.values() for key in c.terms)
    cut = dI.map_cols(lambda s: HSeries(ctx, {
        key: dict(inner) for key, inner in s.terms.items() if ctx.order(*key) < nmax
    }))
    engine.birkhoff_factorize(ctx, cut, check=False)
    with pytest.raises(FactorizationResidue):
        engine.birkhoff_factorize(ctx, cut)


def test_starved_window_is_accounted():
    ctx = make_ctx(P1, zneg=2)
    engine.compute_mirror_data(ctx, check=False)
    assert ctx.losses["z"] > 0
    with pytest.raises(TruncationLoss):
        engine.compute_mirror_data(make_ctx(P1, zneg=2))


def test_mirror_data_leaves_the_context_alone():
    ctx = make_ctx(P1)
    fields = set(vars(ctx))
    window = (ctx.zneg, ctx.zpos)
    engine.compute_mirror_data(ctx)
    assert set(vars(ctx)) == fields
    assert (ctx.zneg, ctx.zpos) == window


def test_columns_below_kwork_clip_where_pinned():
    """p2 with zpos 3, below kwork 5: finished terms are windowed one by one.

    The z-clip count and the digest of the column records are pinned from
    a build that multiplied the ray factors in a widened z window and
    clipped the finished sum back; the z^0 build must clip where it did.
    """
    ctx = make_ctx(P2, zpos=3)
    assert ctx.kwork == 5
    dI = engine.build_dI(ctx)
    assert dict(ctx.losses) == {"z": 459}
    recs = sorted([list(ctx.points[k].point), c.records()] for k, c in dI.cols.items())
    digest = hashlib.sha256(json.dumps(recs).encode()).hexdigest()
    assert digest == (
        "1bab1617e73c50d483963c880d51941e558e531428cc1335f1c9a909147d93b4"
    )


KP1 = {"name": "kp1", "dim": 2, "rays": [[1, 0], [0, 1], [-1, 2]],
       "max_cones": [[0, 1], [1, 2]]}

# six lossy windows (z-clips) and the deep loss-free p1 window
RESIDUAL_WINDOWS = [
    (P1, dict(zneg=1)), (P1, dict(zneg=2)), (P1, dict(qcap=6, gcap=4)),
    (P2, dict(zneg=4)), (F1, dict(qcap=1, zneg=3)),
    (KP1, dict(qcap=2, gcap=1, zneg=3)), (P1, dict(qcap=5, gcap=3, zneg=14)),
]


@pytest.mark.parametrize("fan_dict,caps", RESIDUAL_WINDOWS, ids=[
    "p1-zneg1", "p1-zneg2", "p1-q6g4", "p2-zneg4", "f1-q1-zneg3", "kp1-zneg3", "p1-deep",
])
def test_residual_is_the_cross_term_sum(fan_dict, caps):
    """M . P - dI equals the sum of M_a . P_b over a, b >= 1, a + b > nmax.

    The full residual is recomposed here from the merged M and P; the
    factorization's own check computes only the cross terms.
    """
    ctx = make_ctx(fan_dict, **caps)
    dI = engine.build_dI(ctx)
    M, P = engine.birkhoff_factorize(ctx, dI, check=False)
    nmax = max(ctx.order(*key) for c in dI.cols.values() for key in c.terms)
    Mparts = {n: M.order_part(n) for n in range(nmax + 1)}
    Pparts = {n: P.order_part(n) for n in range(nmax + 1)}
    full = M.compose(P) - dI
    cross = engine._cross_residual(Mparts, Pparts)
    for k in set(full.cols) | set(cross.cols):
        assert full.col(k) == cross.col(k)
    for n in range(nmax + 1):
        assert full.order_part(n).is_zero()
    # A one-term spike planted in the top slice.  It sits at order zero: a
    # spike at the slice's own order would meet the caps in every product
    # with M_a, a >= 1, and only the full residual would see it.
    u = ctx.unit_pidx
    spike = HSeries.phi(ctx, u)
    Pparts[nmax] = OperatorSeries(ctx, {**Pparts[nmax].cols, u: Pparts[nmax].col(u) + spike})
    spiked = OperatorSeries(ctx, {**P.cols, u: P.col(u) + spike})
    assert not (M.compose(spiked) - dI).is_zero()
    assert not engine._cross_residual(Mparts, Pparts).is_zero()


def chain_term_factor(ctx, ell):
    """{point: coefficient} of a term factor as a chain of HSeries products.

    The reference for the closed form: for ell_i >= 0 the factor of ray i
    multiplies 1/(x_i + c) = sum_t (-1)^t x_i^t / c^(t+1), t <= kwork, over
    c = 1..ell_i; for ell_i < 0 it multiplies x_i + c over c = ell_i+1..0.
    """
    acc = HSeries.unit(ctx)
    for i, l in enumerate(ell):
        ray = ctx.fan.rays[i]
        for c in range(1, l + 1):
            acc = acc * HSeries(ctx, {(ctx.zero_eidx, ()): {
                (ctx.pindex[tuple(t * x for x in ray)], 0): QQ((-1) ** t, c ** (t + 1))
                for t in range(ctx.kwork + 1)
            }})
        for c in range(l + 1, 1):
            acc = acc * (HSeries.phi(ctx, ctx.ray_pidx[i]) + HSeries.phi(ctx, ctx.unit_pidx, 0, c))
    return {p: c for (p, _), c in acc.terms.get((ctx.zero_eidx, ()), {}).items()}


SOLVE_WINDOWS = [
    (P1, dict(qcap=5, gcap=3, zneg=14)), (P2, dict(gcap=1)), (C2, {}),
    (F1, dict(qcap=1, gcap=1)), (KP1, dict(qcap=1, gcap=1)), (F3, dict(qcap=1, gcap=1)),
]


@pytest.mark.parametrize("fan_dict,caps", SOLVE_WINDOWS,
                         ids=["p1", "p2", "c2", "f1", "kp1", "f3"])
def test_term_factors_match_the_product_chain(fan_dict, caps):
    """Every term factor of I and dI equals the product of its ray factors."""
    ctx = make_ctx(fan_dict, **caps)
    caches = engine._build_caches(ctx)
    offsets = [None] + [p for p in range(len(ctx.points))
                        if p != ctx.unit_pidx and p not in ctx.ray_pidx]
    want: dict = {}
    for offset in offsets:
        for d in ctx.eff:
            for g in ctx.g_monomials:
                ell = ctx.ray_exponents(d, g, offset)
                if ell not in want:
                    want[ell] = chain_term_factor(ctx, ell)
                assert dict(engine._term_factor(ctx, ell, caches)) == want[ell], ell
    assert any(len(w) > 1 for w in want.values())


@pytest.mark.parametrize("fan_dict,caps", [
    (P1, dict(qcap=5, gcap=3, kwork=4)), (P2, dict(kwork=3)),
], ids=["p1-kwork4", "p2-kwork3"])
def test_narrow_kwork_stays_loud(fan_dict, caps):
    """Below kcoh + gcap (kvar - 1) a term factor reaches past kwork within
    reach of the user window: I alone must count it, and the run must fail."""
    ctx = make_ctx(fan_dict, **caps)
    engine.build_I(ctx)
    assert ctx.losses["degree"] > 0
    with pytest.raises(TruncationLoss):
        engine.compute_mirror_data(make_ctx(fan_dict, **caps))


def neumann_inverse(ctx, P0):
    """The finite Neumann sum X = Id - N . X, iterated kwork + 1 times."""
    N = P0 - OperatorSeries.identity(ctx)
    X = OperatorSeries.identity(ctx)
    for _ in range(ctx.kwork + 1):
        X = OperatorSeries.identity(ctx) - N.compose(X)
    return X


@pytest.mark.parametrize("fan_dict,caps", [
    (P1, {}), (P2, {}), (F1, dict(qcap=1, gcap=1)), (F3, dict(qcap=1, gcap=1)),
], ids=["p1", "p2", "f1", "f3"])
def test_grading_inverse_is_two_sided(fan_dict, caps):
    ctx = make_ctx(fan_dict, **caps)
    P0 = engine.build_dI(ctx).order_part(0)
    X = engine._grading_inverse(ctx, P0)
    ident = OperatorSeries.identity(ctx)
    assert (X.compose(P0) - ident).is_zero()
    assert (P0.compose(X) - ident).is_zero()
    assert any(len(c.terms[(ctx.zero_eidx, ())]) > 1 for c in X.cols.values())


def test_grading_inverse_is_the_neumann_sum_where_clipped():
    """p2 with zpos 3, below kwork 5: the inverse is clipped at z^3 where
    the Neumann sum clipped it."""
    ctx = make_ctx(P2, zpos=3)
    P0 = engine.build_dI(ctx).order_part(0)
    clips = ctx.losses["z"]
    X = engine._grading_inverse(ctx, P0)
    assert ctx.losses["z"] > clips
    ref = neumann_inverse(ctx, P0)
    assert set(X.cols) == set(ref.cols)
    for k in X.cols:
        assert X.col(k) == ref.col(k), ctx.points[k].point


# --------------------------------------------------------------- mirror map


@pytest.mark.parametrize("fan_dict", [P1, P2, C2, F1], ids=["p1", "p2", "c2", "f1"])
def test_mirror_map_linear_part(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    # tau vanishes at the origin, and its Novikov-free linear part is the
    # identity y |-> sum y_v phi_v (Novikov-dependent linear terms are the
    # genuine quantum corrections and are not pinned here)
    assert md.tau.y_degree_part(0).is_zero()
    kept = {
        key: dict(inner)
        for key, inner in md.tau.terms.items()
        if key[0] == ctx.zero_eidx and len(key[1]) == 1 and key[1][0][1] == 1
    }
    want = HSeries.zero(ctx)
    for vi, gv in enumerate(ctx.gvars):
        if gv.kind != "y":
            continue
        want = want + HSeries.variable(ctx, vi) * HSeries.phi(ctx, gv.pidx)
    assert HSeries(ctx, kept) == want


def _p1_degree_zero_oracle():
    """Standalone matrix Birkhoff for the line at Novikov degree zero.

    Returns {(point, (a, b, c)): Fraction} for the z^-1 column entry at the
    unit, with (a, b, c) the exponents of (y_(2), y_(-2), y_(0)).
    """
    KMAX, GCAP = 5, 2

    def mul_phi(m1, m2):
        if m1 * m2 < 0:
            return None
        m = m1 + m2
        return m if abs(m) <= KMAX else None

    def madd(acc, key, val):
        acc[key] = acc.get(key, Fraction(0)) + val
        if not acc[key]:
            del acc[key]

    def smul(s1, s2):
        out = {}
        for (m1, z1, g1), c1 in s1.items():
            for (m2, z2, g2), c2 in s2.items():
                g = tuple(x + y for x, y in zip(g1, g2))
                if sum(g) > GCAP:
                    continue
                m = mul_phi(m1, m2)
                if m is not None:
                    madd(out, (m, z1 + z2, g), c1 * c2)
        return out

    def ssub(s1, s2):
        out = dict(s1)
        for k, v in s2.items():
            madd(out, k, -v)
        return out

    def fact(sign, ell):
        acc = {(0, 0, (0, 0, 0)): Fraction(1)}
        for c in range(ell + 1, 1):
            lin = {(sign, 0, (0, 0, 0)): Fraction(1)}
            if c:
                lin[(0, 1, (0, 0, 0))] = Fraction(c)
            acc = smul(acc, lin)
        return acc

    def col(k):
        out = {}
        for a, b, c in iproduct(range(GCAP + 1), repeat=3):
            if a + b + c > GCAP:
                continue
            fac = smul(
                fact(1, -2 * a - max(k, 0)), fact(-1, -2 * b - max(-k, 0))
            )
            coeff = Fraction(1)
            for e in (a, b, c):
                for t in range(1, e + 1):
                    coeff /= t
            for (m, z, g0), cv in fac.items():
                madd(out, (m, z - (a + b + c), (a, b, c)), cv * coeff)
        return out

    cols = {k: col(k) for k in range(-KMAX, KMAX + 1)}

    def order(s, n):
        return {k: v for k, v in s.items() if sum(k[2]) == n}

    def comp(A, B):
        out = {}
        for k, bc in B.items():
            acc = {}
            for (m, z, g), cv in bc.items():
                for (m2, z2, g2), cv2 in A.get(m, {}).items():
                    gg = tuple(x + y for x, y in zip(g, g2))
                    if sum(gg) > GCAP:
                        continue
                    madd(acc, (m2, z + z2, gg), cv * cv2)
            out[k] = acc
        return out

    dI = {n: {k: order(c, n) for k, c in cols.items()} for n in (0, 1, 2)}
    ident = {k: {(k, 0, (0, 0, 0)): Fraction(1)} for k in cols}
    N = {k: ssub(dI[0][k], ident[k]) for k in cols}
    X = ident
    for _ in range(KMAX + 1):
        NX = comp(N, X)
        X = {k: ssub(ident[k], NX[k]) for k in ident}
    R1 = dI[1]
    M1 = {k: {kk: v for kk, v in c.items() if kk[1] < 0} for k, c in comp(R1, X).items()}
    P1row = {k: ssub(R1[k], comp(M1, dI[0])[k]) for k in R1}
    R2 = {k: ssub(dI[2][k], comp(M1, P1row)[k]) for k in dI[2]}
    M2 = {k: {kk: v for kk, v in c.items() if kk[1] < 0} for k, c in comp(R2, X).items()}
    tau = {}
    for src in (M1, M2):
        for (m, z, g), cv in src[0].items():
            if z == -1:
                madd(tau, (m, g), cv)
    return tau


def test_p1_mirror_map_degree_zero_against_matrix_oracle():
    oracle = _p1_degree_zero_oracle()
    md = mirror(P1)
    ctx = md.ctx
    vp, vm, v0 = ctx.var((2,)), ctx.var((-2,)), ctx.var((0,))
    got = {}
    for (eidx, g), inner in md.tau.terms.items():
        if ctx.eff[eidx] != tuple([0] * len(ctx.fan.rays)):
            continue
        e = {v: x for v, x in g}
        key_g = (e.get(vp, 0), e.get(vm, 0), e.get(v0, 0))
        for (p, z), c in inner.items():
            assert z == 0
            got[(ctx.points[p].point[0], key_g)] = Fraction(
                int(c.numerator), int(c.denominator)
            )
    # the unit-variable direction is exactly linear, so the oracle monomial
    # (0, 0, 1) is the only place the unit variable shows up
    assert got == {(m, g): v for (m, g), v in oracle.items()}


def test_upsilon_c2_frozen():
    md = mirror(C2, kcoh=2, gcap=1)
    ctx = md.ctx
    want = (
        HSeries.phi(ctx, ctx.unit_pidx)
        - HSeries.variable(ctx, ctx.var((2, 0))) * HSeries.phi(ctx, ctx.pindex[(1, 0)])
        - HSeries.variable(ctx, ctx.var((0, 2))) * HSeries.phi(ctx, ctx.pindex[(0, 1)])
    )
    assert md.upsilon == want


def test_c2_mirror_map_is_linear_at_first_order():
    md = mirror(C2, kcoh=2, gcap=1)
    ctx = md.ctx
    want = HSeries.zero(ctx)
    for vi, gv in enumerate(ctx.gvars):
        if gv.kind == "y":
            want = want + HSeries.variable(ctx, vi) * HSeries.phi(ctx, gv.pidx)
    assert md.tau == want


@pytest.mark.parametrize("fan_dict", [P1, F1], ids=["p1", "f1"])
def test_inverse_mirror_map_roundtrip(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    targets = {vi: engine.phi_component(md.tau, gv.pidx)
               for vi, gv in enumerate(ctx.gvars)}
    inverse = invert_map(targets)
    for vi, gv in enumerate(ctx.gvars):
        if gv.kind != "y":
            continue
        back = compose(targets[vi], inverse)
        assert back == HSeries.variable(ctx, vi)


# ------------------------------------------------------------ Seidel classes


@pytest.mark.parametrize("fan_dict", [P1, P2, F1], ids=["p1", "p2", "f1"])
def test_seidel_ray_flow(fan_dict):
    """S at a ray is the fixed-point weight class plus the gauge flow."""
    md = mirror(fan_dict)
    ctx = md.ctx
    for i, rp in enumerate(ctx.ray_pidx):
        assert md.S[rp] == HSeries.phi(ctx, rp) + md.tau.ray_gauge(i)


def test_seidel_unit_is_one():
    md = mirror(P1)
    ctx = md.ctx
    assert md.S[ctx.unit_pidx] == HSeries.phi(ctx, ctx.unit_pidx)


def test_seidel_coordinates_recover_frame_labels():
    md = mirror(P1)
    ctx = md.ctx
    p1 = ctx.pindex[(1,)]
    p2 = ctx.pindex[(-2,)]
    target = md.S[p1] + md.S[p2].scale(3)
    coords = engine.seidel_coordinates(md, target)
    coords = {k: v for k, v in coords.items() if not v.is_zero()}
    assert set(coords) == {p1, p2}
    assert coords[p1] == HSeries.phi(ctx, ctx.unit_pidx)
    assert coords[p2] == HSeries.phi(ctx, ctx.unit_pidx).scale(3)


# ------------------------------------------------------------ quantum product


def test_quantum_unit_p1():
    md = mirror(P1)
    ctx = md.ctx
    one = HSeries.phi(ctx, ctx.unit_pidx)
    u1 = HSeries.phi(ctx, ctx.pindex[(1,)])
    assert engine.quantum_product(md, one, u1) == u1


def test_quantum_p1_point_relation():
    md = mirror(P1)
    ctx = md.ctx
    u1 = HSeries.phi(ctx, ctx.pindex[(1,)])
    u2 = HSeries.phi(ctx, ctx.pindex[(-1,)])
    prod = engine.quantum_product(md, u1, u2)
    assert g_free(prod) == HSeries.novikov(ctx, ctx.eindex[(1, 1)])


def test_quantum_p2_point_relation():
    md = mirror(P2)
    ctx = md.ctx
    D = [HSeries.phi(ctx, ctx.pindex[p]) for p in [(1, 0), (0, 1), (-1, -1)]]
    p12 = engine.quantum_product(md, D[0], D[1])
    p123 = engine.quantum_product(md, p12, D[2])
    assert g_free(p123) == HSeries.novikov(ctx, ctx.eindex[(1, 1, 1)])


def test_quantum_c2_classical_product():
    md = mirror(C2)
    ctx = md.ctx
    b1 = HSeries.phi(ctx, ctx.pindex[(1, 0)])
    b2 = HSeries.phi(ctx, ctx.pindex[(0, 1)])
    prod = engine.quantum_product(md, b1, b2)
    assert g_free(prod) == HSeries.phi(ctx, ctx.pindex[(1, 1)])


@pytest.mark.parametrize("fan_dict", [P1, P2], ids=["p1", "p2"])
def test_quantum_commutative_and_associative(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    rays = [HSeries.phi(ctx, rp) for rp in ctx.ray_pidx[:3]]
    a, b = rays[0], rays[-1]
    q = engine.quantum_product
    assert q(md, a, b) == q(md, b, a)
    c = rays[1] if len(rays) > 1 else a
    assert q(md, q(md, a, b), c) == q(md, a, q(md, b, c))


def test_quantum_product_reads_the_frame_live():
    """A Seidel class replaced after a product was taken changes the next one.

    Each product must equal the one from mirror data whose class was replaced
    before any product, in place or through ``replace``: a frame cached
    anywhere would keep the old columns.
    """

    def spiked(md):
        """The frame with the first ray's class moved by z phi_0."""
        rp = md.ctx.ray_pidx[0]
        return {**md.S, rp: md.S[rp] + HSeries.phi(md.ctx, md.ctx.unit_pidx, 1)}

    def product(md):
        try:
            return engine.quantum_product(md, *md.ctx.ray_pidx).records()
        except IdentityViolation:
            return None

    # own data, not the shared one: S is replaced in place below
    fresh = engine.compute_mirror_data(make_ctx(P1))
    fresh.S.update(spiked(fresh))
    want = product(fresh)
    md = engine.compute_mirror_data(make_ctx(P1))
    before = product(md)
    assert before is not None and want != before
    assert product(replace(md, S=spiked(md))) == want
    assert product(md) == before
    md.S.update(spiked(md))
    assert product(md) == want


@pytest.mark.parametrize("fan_dict,caps", [
    (P1, {}), (C2, {}), (P2, {}),
    (F1, {"qcap": 1, "gcap": 1}), (F3, {"qcap": 1, "gcap": 1}),
], ids=["p1", "c2", "p2", "f1", "f3"])
def test_quantum_product_at_q0_y0_is_the_classical_product(fan_dict, caps):
    """The Q^0 y^0 part of a * b, within |k| <= kcoh, is phi_a phi_b.

    With |a| + |b| <= kcoh the classical product never leaves the window, so
    phi_product counts no loss.  The frame solve does not imply this.
    """
    md = conftest.mirror(fan_dict, **caps)
    ctx = md.ctx
    kcoh = ctx.policy.kcoh
    basis = [p for p in range(len(ctx.points)) if ctx.norms[p] <= kcoh]
    pairs = 0
    for a in basis:
        for b in basis:
            if ctx.norms[a] + ctx.norms[b] > kcoh:
                continue
            prod = engine.quantum_product(md, a, b)
            got = {
                (p, z): c
                for (p, z), c in prod.terms.get((ctx.zero_eidx, ()), {}).items()
                if ctx.norms[p] <= kcoh
            }
            pt = phi_product(ctx, ctx.points[a].point, ctx.points[b].point, strict=True)
            assert got == ({} if pt is None else {(ctx.pindex[pt], 0): 1}), (
                ctx.points[a].point, ctx.points[b].point)
            pairs += 1
    assert pairs > len(basis)


def _coefficients(obj):
    """Every stored coefficient of a series or of an operator's columns."""
    if isinstance(obj, OperatorSeries):
        return [c for col in obj.cols.values() for c in _coefficients(col)]
    return [c for inner in obj.terms.values() for c in inner.values()]


@pytest.mark.parametrize("fan_dict", [P1, C2, P2], ids=["p1", "c2", "p2"])
def test_coefficients_are_canonical_scalars(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    prod = engine.quantum_product(md, ctx.ray_pidx[0], ctx.ray_pidx[-1])
    parts = {"I": md.I, "dI": md.dI, "M": md.M, "P": md.P, "tau": md.tau,
             "product": prod, **{f"S{k}": s for k, s in md.S.items()}}
    for name, obj in parts.items():
        for c in _coefficients(obj):
            assert not isinstance(c, float), name
            if c.denominator == 1:
                assert type(c) is int, (name, c)
            else:
                assert type(c) is QQ, (name, c)
    two = HSeries.phi(ctx, ctx.unit_pidx, coeff=Fraction(4, 2))
    assert type(two.terms[(ctx.zero_eidx, ())][(ctx.unit_pidx, 0)]) is int


# ------------------------------------------------------------ primitive form


@pytest.mark.parametrize("fan_dict", [P1, P2, C2], ids=["p1", "p2", "c2"])
def test_primitive_form_routes_agree(fan_dict):
    md = mirror(fan_dict)
    ctx = md.ctx
    pf = engine.primitive_form(md, route="both")
    assert pf.tau_check == md.tau
    unit = pf.coefficients[ctx.unit_pidx]
    assert unit.order_part(0) == HSeries.phi(ctx, ctx.unit_pidx)
    for s in pf.coefficients.values():
        for inner in s.terms.values():
            assert all(z >= 0 for (_, z) in inner)


def test_route_b_needs_all_variables():
    ctx = make_ctx(P1, active_points=[(2,)])
    md = engine.compute_mirror_data(ctx)
    with pytest.raises(PolicyMismatch):
        engine.primitive_form(md, route="b")


# ------------------------------------------------------------ the w-algebra


def _w_elements(ctx):
    """p2 w-algebra elements with mixed z powers and variable content.

    a, b and c sit on the unit and the rays (|k| <= 1), d on the point
    (1, 1); with one Novikov class and gcap 2 no product of three leaves
    kwork, and the z powers stay far inside the window.
    """
    def z(e, c=1):
        return HSeries.phi(ctx, ctx.unit_pidx, e, c)

    def y(point):
        return HSeries.variable(ctx, ctx.var(point))

    q = HSeries.novikov(ctx, ctx.eindex[(1, 1, 1)])
    unit = ctx.unit_pidx
    r0, r1, r2 = ctx.ray_pidx
    a = {unit: z(0, 2) + y((-1, 0)) * z(1), r0: z(-1, QQ(1, 3)) + q,
         r1: y((1, 1)) * z(2, -1)}
    b = {unit: y((0, 0)) * z(-1), r1: z(0, 5) + q * z(1),
         r2: y((0, -1)) + z(1, QQ(-2, 7))}
    c = {r0: y((2, 0)) * z(0, 3), r2: z(-2) + q * y((-2, -2))}
    d = {ctx.pindex[(1, 1)]: z(1) + y((0, 2))}
    return a, b, c, d


def test_w_multiply_is_unital_and_commutative():
    ctx = make_ctx(P2)
    elems = _w_elements(ctx)
    one = {ctx.unit_pidx: HSeries.unit(ctx)}
    for v in elems:
        assert engine.w_multiply(ctx, one, v) == v
        assert engine.w_multiply(ctx, v, one) == v
        for u in elems:
            assert engine.w_multiply(ctx, u, v) == engine.w_multiply(ctx, v, u)
    # the three rays multiply to Q at the unit
    r0, r1, r2 = ctx.ray_pidx
    q = HSeries.novikov(ctx, ctx.eindex[(1, 1, 1)])
    unit = HSeries.unit(ctx)
    pair = engine.w_multiply(ctx, {r0: unit}, {r1: unit})
    assert engine.w_multiply(ctx, pair, {r2: unit}) == {ctx.unit_pidx: q}


def test_w_multiply_is_associative_inside_the_window():
    ctx = make_ctx(P2)
    a, b, c, _ = _w_elements(ctx)
    mul = engine.w_multiply
    left = mul(ctx, mul(ctx, a, b), c)
    assert left and left == mul(ctx, a, mul(ctx, b, c))


def test_w_multiply_by_a_generator_is_the_shift():
    ctx = make_ctx(P2)
    unit = HSeries.unit(ctx)
    for v in _w_elements(ctx):
        for k in range(len(ctx.points)):
            want = gm_multiply(ctx, k, v, strict=False)
            assert engine.w_multiply(ctx, {k: unit}, v) == want


def test_w_exp_turns_sums_into_products():
    ctx = make_ctx(P2)
    q = HSeries.novikov(ctx, ctx.eindex[(1, 1, 1)])
    r0, r1, r2 = ctx.ray_pidx
    y = HSeries.variable
    A = {r0: y(ctx, ctx.var((-1, 0))).z_shift(-1), r1: q,
         ctx.unit_pidx: y(ctx, ctx.var((1, 1))).z_shift(1)}
    B = {r2: y(ctx, ctx.var((0, -1))),
         ctx.pindex[(1, 1)]: q.z_shift(-1).scale(QQ(1, 2))}
    exp_a, exp_b = engine.w_exp(ctx, A), engine.w_exp(ctx, B)
    assert len(exp_a) > len(A) + 1  # powers beyond the linear term
    assert engine.w_exp(ctx, gm_add(A, B)) == engine.w_multiply(ctx, exp_a, exp_b)


# ----------------------------------------------------------- record plumbing


def test_determinism():
    ctx1 = make_ctx(P1)
    ctx2 = make_ctx(P1)
    md1 = engine.compute_mirror_data(ctx1)
    md2 = engine.compute_mirror_data(ctx2)
    assert md1.tau.records() == md2.tau.records()
    for k in md1.P.cols:
        assert md1.P.col(k).records() == md2.P.col(k).records()
