"""Truncated-series kernel tests: ring laws, parts, derivations, inversion."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F3
from toricmirror import fans, series
from toricmirror.errors import PolicyMismatch, SingularJacobian
from toricmirror.linalg import QQ, canon

P1 = {"name": "p1", "dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
P2 = {
    "name": "p2",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
}


def make_ctx(fan_dict=P1, **kw):
    args = dict(kcoh=3, kvar=2, qcap=3, gcap=2, zneg=10)
    args.update(kw)
    return series.Context(fans.load_fan(fan_dict), series.TruncationPolicy(**args))


def test_context_tables():
    ctx = make_ctx()
    assert ctx.kwork == 5
    assert ctx.points[ctx.unit_pidx].point == (0,)
    # variables: the non-ray points of norm <= 2 are 0 and +-2
    pts = sorted(ctx.points[v.pidx].point for v in ctx.gvars)
    assert pts == [(-2,), (0,), (2,)]
    assert ctx.eff == [(0, 0), (1, 1)]  # degree cap 3 on theta=(1,1)


@pytest.mark.parametrize("fan_dict,gcap", [(P1, 0), (P1, 2), (P2, 3)])
def test_g_monomials_table(fan_dict, gcap):
    ctx = make_ctx(fan_dict, gcap=gcap)
    monos = ctx.g_monomials
    assert monos == sorted(set(monos))
    assert all(series.g_deg(g) <= gcap for g in monos)
    assert all(list(g) == sorted(dict(g).items()) for g in monos)
    assert len(monos) == comb(len(ctx.gvars) + gcap, gcap)


def test_phi_products():
    ctx = make_ctx()
    b1 = ctx.pindex[(1,)]
    b2 = ctx.pindex[(-1,)]
    assert ctx.phi_mul(b1, b1) == ctx.pindex[(2,)]
    # opposite rays do not span a cone
    assert ctx.phi_mul(b1, b2) is None
    top = ctx.pindex[(5,)]
    assert ctx.phi_mul(top, b1) == series.OVERFLOW


F1 = {"name": "f1", "dim": 2, "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
      "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
P3 = {"name": "p3", "dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
      "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}


@pytest.mark.parametrize("fan_dict,caps", [
    (P2, {}), (F1, {}), (F3, {}), (P3, {"gcap": 1}),
], ids=["p2", "f1", "f3", "p3"])
def test_translate_is_the_pairing_cocycle(fan_dict, caps):
    """translate reads d(k, l) off the stored psi; fans.pairing_d recomputes it."""
    ctx = make_ctx(fan_dict, **caps)
    assert not ctx._shift  # memoized on demand, not in __init__
    hits = 0
    for p1, a in enumerate(ctx.points):
        for p2, b in enumerate(ctx.points):
            tp = ctx.pindex.get(tuple(x + y for x, y in zip(a.point, b.point)))
            de = None
            if tp is not None:
                de = ctx.eindex.get(fans.pairing_d(ctx.fan, a.point, b.point))
            want = None if de is None else (tp, de)
            assert ctx.translate(p1, p2) == want
            hits += want is not None
    assert hits > len(ctx.points)


# ----------------------------------------------------------- random algebra


def random_series(ctx, draw):
    n_terms = draw(st.integers(0, 5))
    s = series.HSeries.zero(ctx)
    for _ in range(n_terms):
        eidx = draw(st.integers(0, len(ctx.eff) - 1))
        pidx = draw(st.integers(0, len(ctx.points) - 1))
        z = draw(st.integers(-2, 2))
        c = QQ(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        term = series.HSeries.phi(ctx, pidx, zexp=z, coeff=c)
        term = series._key_shift(term, eidx, (), 0)
        if draw(st.booleans()):
            v = draw(st.integers(0, len(ctx.gvars) - 1))
            term = term * series.HSeries.variable(ctx, v)
        s = s + term
    return s


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ring_laws(data):
    ctx = make_ctx(data.draw(st.sampled_from([P1, P2])))
    a = random_series(ctx, data.draw)
    b = random_series(ctx, data.draw)
    c = random_series(ctx, data.draw)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = series.HSeries.unit(ctx)
    assert a * one == a
    assert (a - a).is_zero()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_parts_decompose(data):
    ctx = make_ctx()
    a = random_series(ctx, data.draw)
    neg = a.z_negative()
    assert all(z < 0 for inner in neg.terms.values() for (_, z) in inner)
    assert all(z >= 0 for inner in (a - neg).terms.values() for (_, z) in inner)
    total = series.HSeries.zero(ctx)
    for n in range(max((ctx.order(*key) for key in a.terms), default=0) + 1):
        total = total + a.order_part(n)
    assert total == a


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_derivation_leibniz(data):
    ctx = make_ctx()
    a = random_series(ctx, data.draw)
    b = random_series(ctx, data.draw)
    v = data.draw(st.integers(0, len(ctx.gvars) - 1))
    lhs = (a * b).derive_var(v)
    rhs = a.derive_var(v) * b + a * b.derive_var(v)
    # Leibniz can only fail through truncation at the gcap boundary; compare
    # below it, where both sides are exact
    cap = ctx.policy.gcap - 1
    def trim(s):
        return series.HSeries(
            ctx,
            {k: dict(val) for k, val in s.terms.items() if series.g_deg(k[1]) <= cap},
        )
    assert trim(lhs) == trim(rhs)


# ------------------------------------------------- reference kernel on Fraction
#
# The all-pairs product and operator application, written without the
# kernel's degree pruning, dense class table or int coefficients: every
# coefficient is a Fraction and every key pair is visited.  The kernel must
# give the same terms and record the same losses.


def _ref_eadd(ctx, e1, e2):
    return ctx.eindex.get(tuple(a + b for a, b in zip(ctx.eff[e1], ctx.eff[e2])))


def _ref_add(ctx, out, key, ik, val):
    if ik[1] < -ctx.zneg or ik[1] > ctx.zpos:
        ctx.note_z_clip()
        return
    bucket = out.setdefault(key, {})
    nv = bucket.get(ik, Fraction(0)) + val
    if nv == 0:
        bucket.pop(ik, None)
    else:
        bucket[ik] = nv


def ref_mul(a, b):
    ctx = a.ctx
    gcap = ctx.policy.gcap
    out = {}
    for (e1, g1), c1 in a.terms.items():
        for (e2, g2), c2 in b.terms.items():
            eidx = _ref_eadd(ctx, e1, e2)
            if eidx is None:
                continue
            g = series.g_merge(g1, g2)
            gd = series.g_deg(g)
            if gd > gcap:
                continue
            for (p1, z1), v1 in c1.items():
                for (p2, z2), v2 in c2.items():
                    tgt = ctx.phi_mul(p1, p2)
                    if tgt is None:
                        continue
                    if tgt == series.OVERFLOW:
                        ctx.note_degree_overflow(
                            ctx.norms[p1] + ctx.norms[p2], gcap - gd
                        )
                        continue
                    _ref_add(ctx, out, (eidx, g), (tgt, z1 + z2),
                             Fraction(v1) * Fraction(v2))
    return {k: v for k, v in out.items() if v}


def ref_apply(op, s):
    ctx = s.ctx
    gcap = ctx.policy.gcap
    out = {}
    for (eidx, g), inner in s.terms.items():
        for (p, z), c in inner.items():
            col = op.cols.get(p)
            if col is None:
                continue
            for (e1, g1), inner1 in col.terms.items():
                e2 = _ref_eadd(ctx, e1, eidx)
                if e2 is None:
                    continue
                gm = series.g_merge(g1, g)
                if series.g_deg(gm) > gcap:
                    continue
                for (p1, z1), c1 in inner1.items():
                    _ref_add(ctx, out, (e2, gm), (p1, z1 + z),
                             Fraction(c1) * Fraction(c))
    return {k: v for k, v in out.items() if v}


REFERENCE_CTXS = {
    "p1": lambda: make_ctx(P1, qcap=5, gcap=3),
    "p2": lambda: make_ctx(P2),
    # kwork at kcoh + 1: a basis-degree drop is counted iff the variable
    # budget left (0, 1 or 2) could bring it back below kcoh
    "p1-kwork4": lambda: make_ctx(P1, qcap=5, gcap=3, kwork=4),
}

coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10 ** 30), 10 ** 30),
    st.builds(Fraction, st.integers(-50, 50), st.integers(2, 12)),
)


def raw_series(ctx, draw):
    """A series with keys up to gcap + 1 and canonical int or QQ coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        eidx = draw(st.integers(0, len(ctx.eff) - 1))
        nvars = draw(st.integers(0, ctx.policy.gcap + 1))
        vs = [draw(st.integers(0, len(ctx.gvars) - 1)) for _ in range(nvars)]
        g = tuple(sorted(Counter(vs).items()))
        inner = terms.setdefault((eidx, g), {})
        for _ in range(draw(st.integers(1, 4))):
            pidx = draw(st.integers(0, len(ctx.points) - 1))
            z = draw(st.integers(-ctx.zneg, ctx.zpos))
            c = canon(draw(coefficients))
            if c:
                inner[(pidx, z)] = c
    return series.HSeries(ctx, {k: v for k, v in terms.items() if v})


def losses_of(ctx, fn, *args):
    before = dict(ctx.losses)
    out = fn(*args)
    return out, {k: v - before.get(k, 0) for k, v in ctx.losses.items()
                 if v != before.get(k, 0)}


def assert_canonical(s):
    for inner in s.terms.values():
        for c in inner.values():
            assert type(c) is (int if c.denominator == 1 else QQ), c


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_product_matches_reference(data):
    ctx = REFERENCE_CTXS[data.draw(st.sampled_from(sorted(REFERENCE_CTXS)))]()
    a = raw_series(ctx, data.draw)
    b = raw_series(ctx, data.draw)
    got, got_loss = losses_of(ctx, lambda: a * b)
    want, want_loss = losses_of(ctx, ref_mul, a, b)
    assert got.terms == want
    assert got_loss == want_loss
    assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_apply_matches_reference(data):
    ctx = REFERENCE_CTXS[data.draw(st.sampled_from(sorted(REFERENCE_CTXS)))]()
    pts = data.draw(st.sets(st.integers(0, len(ctx.points) - 1), max_size=6))
    op = series.OperatorSeries(ctx, {p: raw_series(ctx, data.draw) for p in pts})
    s = raw_series(ctx, data.draw)
    got, got_loss = losses_of(ctx, op.apply, s)
    want, want_loss = losses_of(ctx, ref_apply, op, s)
    assert got.terms == want
    assert got_loss == want_loss
    assert_canonical(got)


@pytest.mark.parametrize("nvars,counted", [(1, 1), (2, 0)])
def test_degree_overflow_at_the_budget_edge(nvars, counted):
    # p1 at kwork 4: phi_(2) * phi_(3) overflows with norm sum 5, counted iff
    # the budget gcap - |g| = 3 - nvars is at least 5 - kcoh = 2
    ctx = make_ctx(P1, qcap=5, gcap=3, kwork=4)
    y = ctx.var((0,))
    a = series.HSeries(ctx, {(0, ((y, nvars),)): {(ctx.pindex[(2,)], 0): 1}})
    b = series.HSeries.phi(ctx, ctx.pindex[(3,)], coeff=Fraction(1, 3))
    for x, w in ((a, b), (b, a)):
        got, got_loss = losses_of(ctx, lambda: x * w)
        want, want_loss = losses_of(ctx, ref_mul, x, w)
        assert got.is_zero() and not want
        assert got_loss == want_loss == ({"degree": counted} if counted else {})


def test_novikov_derivations():
    ctx = make_ctx()
    q = series.HSeries.novikov(ctx, 1)  # the degree-(1,1) class on the line fan
    y0 = series.HSeries.variable(ctx, ctx.var((0,)))
    prod = q * y0
    # gauge derivative: d_0 - psi_0(j) g_j; the origin variable has psi = 0
    assert prod.ray_gauge(0) == prod
    y2 = series.HSeries.variable(ctx, ctx.var((2,)))
    prod2 = q * y2
    # psi_0((2,)) = 2, so the gauge factor is 1 - 2 = -1
    assert prod2.ray_gauge(0) == prod2.scale(-1)


def test_weights_and_homogeneity():
    ctx = make_ctx()
    # phi_{b1} * z^2 * Q^{(1,1)}: weight = 1 + 2 + c1 . d = 5
    t = series._key_shift(series.HSeries.phi(ctx, ctx.ray_pidx[0], zexp=2), 1, (), 0)
    assert t.weights() == {5}
    y0 = series.HSeries.variable(ctx, ctx.var((0,)))
    assert y0.weights() == {1}  # ewt(y_0) = 1
    mixed = t + y0
    assert not mixed.is_homogeneous()
    assert mixed.is_homogeneous is not None


def test_zwindow_clip_counts_loss():
    ctx = make_ctx(zneg=2, zpos=3, kwork=3)
    deep = series.HSeries.phi(ctx, 0, zexp=-2)
    shallow = series.HSeries.phi(ctx, 0, zexp=-1)
    before = ctx.losses["z"]
    prod = deep * shallow
    assert prod.is_zero()
    assert ctx.losses["z"] == before + 1


def test_policy_mismatch():
    a = series.HSeries.unit(make_ctx())
    b = series.HSeries.unit(make_ctx())
    with pytest.raises(PolicyMismatch):
        _ = a + b


def test_serialization_roundtrip():
    ctx = make_ctx()
    s = series.HSeries.phi(ctx, ctx.ray_pidx[0], zexp=-1, coeff=Fraction(6, 14))
    s = series._key_shift(s, 1, ((0, 1),), 0) + series.HSeries.unit(ctx)
    y0 = list(ctx.points[ctx.gvars[0].pidx].point)
    # sorted by (d, gexp, k, zexp), coefficients in lowest terms
    recs = s.records()
    assert recs == [
        {"k": [0], "zexp": 0, "d": [0, 0], "gexp": [], "num": 1, "den": 1},
        {"k": [1], "zexp": -1, "d": [1, 1], "gexp": [[y0, 0, 1]], "num": 3, "den": 7},
    ]
    # the records are plain JSON and survive a JSON round trip unchanged
    assert json.loads(json.dumps(recs)) == recs
    # canonical: an equal series built another way has the same records
    t = series.HSeries.phi(ctx, ctx.ray_pidx[0], zexp=-1, coeff=Fraction(3, 7))
    t = series.HSeries.unit(ctx) + series._key_shift(t, 1, ((0, 1),), 0)
    assert t == s and t.records() == recs


def test_from_records_rejects_nonzero_variable_order():
    """Records are only written now, and a variable is named by its point
    alone, so every record carries the order slot 0."""
    ctx = make_ctx()
    rec = series.HSeries.variable(ctx, ctx.var((0,))).records()[0]
    assert rec["gexp"] == [[[0], 0, 1]]


def test_compose_simple():
    ctx = make_ctx(gcap=4)
    v = ctx.var((0,))
    y = series.HSeries.variable(ctx, v)
    s = y * y + y  # y + y^2
    sub = {v: y * y}  # y -> y^2
    out = series.compose(s, sub)
    expect = y * y + (y * y) * (y * y)
    assert out == expect


def test_invert_single_variable():
    # t = y + y^2  ==>  y = t - t^2 + 2 t^3 - 5 t^4 (Catalan signs)
    ctx = make_ctx(gcap=4)
    v = ctx.var((0,))
    y = series.HSeries.variable(ctx, v)
    inv = series.invert_map({v: y + y * y})
    t = y  # same slot, read as t
    expect = t - t * t + (t * t * t).scale(2) - (t * t * t * t).scale(5)
    assert inv[v] == expect
    # composing back gives the identity within the cap
    assert series.compose(y + y * y, inv) == t


def test_invert_two_variables_with_novikov_linear_part():
    ctx = make_ctx(fan_dict=P2, gcap=3)
    va = ctx.var((0, 0))
    vb = ctx.var((1, 1))
    q = series.HSeries.novikov(ctx, 1)
    a = series.HSeries.variable(ctx, va)
    b = series.HSeries.variable(ctx, vb)
    targets = {va: a + q * b + b * b, vb: b + a * a}
    inv = series.invert_map(targets)
    for v, target in targets.items():
        assert series.compose(target, inv) == series.HSeries.variable(ctx, v)


def test_invert_singular_rejected():
    ctx = make_ctx()
    v = ctx.var((0,))
    y = series.HSeries.variable(ctx, v)
    with pytest.raises(SingularJacobian):
        series.invert_map({v: y * y})


def test_exp_log_roundtrip():
    ctx = make_ctx(gcap=4)
    y = series.HSeries.variable(ctx, ctx.var((0,)))
    q = series.HSeries.novikov(ctx, 1)
    s = y + q.scale(QQ(1, 2))
    e = series.exp_series(s)
    assert series.log_series(e) == s
    # exp turns sums into products
    assert series.exp_series(s + s) == e * e
