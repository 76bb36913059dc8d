"""Shift-operator module, theta transport, and non-equivariant descent.

Independent oracles used here:
  * The base value of every transported generator (all variables and
    Novikov powers at zero) is recomputed in the test from the cone
    coordinates as the falling product over rays
    prod_i prod_{c=0}^{psi_i(k)-1} (u_i - c z), using only the classical
    cup arithmetic -- no factorization machinery.
  * Cocycle exponents on the line are worked out by hand: translating
    w^{psi(b2)} by b1 crosses the wall, so the product carries the full
    curve class (1,1); translating w^{psi(b1)} stays in one cone, so the
    cocycle is trivial.
  * The restricted superpotential of the line is the classical pencil
    x + Q/x shifted by the unit coordinate, recorded as exactly three
    monomials with split Novikov exponents (0,0), (1,1), (0,0).
  * The leading structure constant of the point class on the plane is the
    classical small-ring value: (point) * (point) = Q^{line} (line), i.e.
    a single constant record in the degree-one coordinate.
  * Commutator identities (flatness, lambda-axis commutation, the
    z k_i bookkeeping between the lambda-action and translation) are
    asserted exactly on elements assembled from scalar series with mixed
    z powers and variable content.
"""

from dataclasses import replace

import pytest

import conftest
from conftest import C2, F1, P1, P2, make_ctx
from toricmirror import engine, gaussmanin
from toricmirror.errors import (
    PropertyViolation,
    SectionNotALift,
    TruncationLoss,
)
from toricmirror.gaussmanin import (
    check_theta,
    gm_add,
    gm_connection,
    gm_element,
    gm_equal,
    gm_lambda_action,
    gm_multiply,
    gm_scale,
    jacobi_structure_constants,
    noneq_restrict,
    theta_apply,
)
from toricmirror.linalg import QQ
from toricmirror.series import HSeries


def mirror(fan_dict, **kw):
    """Shared mirror data for a fan at the default policy (c2 without Novikov)."""
    if fan_dict["name"] == "c2":
        kw.setdefault("qcap", 0)
    return conftest.mirror(fan_dict, **kw)


def novikov_unit(ctx, dvec):
    return HSeries.novikov(ctx, ctx.eindex[tuple(dvec)])


# ----------------------------------------------------------- module action


def test_translation_cocycle_on_line():
    ctx = mirror(P1).ctx
    crossing = gm_multiply(ctx, (1,), gm_element(ctx, (-1,)))
    expected = {ctx.unit_pidx: novikov_unit(ctx, (1, 1))}
    assert gm_equal(crossing, expected)

    same_cone = gm_multiply(ctx, (1,), gm_element(ctx, (1,)))
    assert gm_equal(same_cone, gm_element(ctx, (2,)))

    v = gm_add(gm_element(ctx, (1,)), gm_scale(gm_element(ctx, (-2,)), QQ(3)))
    assert gm_equal(gm_multiply(ctx, (0,), v), v)


def test_translation_composition_matches_single_step():
    ctx = mirror(P2).ctx
    b1, b2, b3 = (1, 0), (0, 1), (-1, -1)
    for m in [(0, 0), b1, (1, 1)]:
        two = gm_multiply(ctx, b1, gm_multiply(ctx, b2, gm_element(ctx, m)))
        one = gm_multiply(
            ctx, (1, 1), gm_element(ctx, m)
        )  # b1 + b2 lies in the same cone: trivial cocycle between them
        assert gm_equal(two, one)
    # the full ray triple out of the unit generator picks up the line class
    three = gm_element(ctx, (0, 0))
    for b in (b3, b2, b1):
        three = gm_multiply(ctx, b, three)
    line = novikov_unit(ctx, (1, 1, 1))
    assert gm_equal(three, {ctx.unit_pidx: line})


def test_translation_strict_raises_past_window():
    ctx = mirror(P1).ctx
    top = (ctx.kwork, )
    with pytest.raises(TruncationLoss):
        gm_multiply(ctx, (1,), gm_element(ctx, top))
    dropped = gm_multiply(ctx, (1,), gm_element(ctx, top), strict=False)
    assert dropped == {}


def test_connection_unit_direction_is_z_inverse():
    ctx = mirror(P1).ctx
    out = gm_connection(ctx, (0,), gm_element(ctx, (0,)))
    assert gm_equal(out, {ctx.unit_pidx: HSeries.unit(ctx).z_shift(-1)})


def test_connection_leibniz_rule():
    ctx = mirror(P2).ctx
    f = HSeries.variable(ctx, ctx.var((1, 1))) + HSeries.unit(ctx).scale(QQ(2))
    v = gm_add(gm_element(ctx, (0, 1)), gm_element(ctx, (0, 0)))
    fv = gm_scale(v, f)

    vidx = ctx.var((0, 0))
    lhs = gm_connection(ctx, (0, 0), fv)
    rhs = gm_add(
        gm_scale(v, f.derive_var(vidx)),
        gm_scale(gm_connection(ctx, (0, 0), v), f),
    )
    assert gm_equal(lhs, rhs)

    lhs = gm_connection(ctx, (1, 0), fv)
    rhs = gm_add(
        gm_scale(v, f.ray_gauge(0)),
        gm_scale(gm_connection(ctx, (1, 0), v), f),
    )
    assert gm_equal(lhs, rhs)


def sample_element(ctx, max_norm):
    """A deterministic element with mixed scalar coefficients."""
    out = {}
    for p in range(len(ctx.points)):
        if ctx.norms[p] > max_norm:
            continue
        coeff = HSeries.unit(ctx).scale(QQ(p + 1, 2))
        if p % 2:
            coeff = coeff + HSeries.unit(ctx).z_shift(1)
        if ctx.gvars:
            coeff = coeff + HSeries.variable(ctx, p % len(ctx.gvars))
        out[p] = coeff
    return out


def commutator(ctx, k1, k2, v):
    return gm_add(
        gm_connection(ctx, k1, gm_connection(ctx, k2, v)),
        gm_scale(gm_connection(ctx, k2, gm_connection(ctx, k1, v)), QQ(-1)),
    )


def test_connection_flatness_active_directions():
    ctx = mirror(P2).ctx
    cap = ctx.kwork - 2 * ctx.policy.kvar
    v = sample_element(ctx, cap)
    assert commutator(ctx, (0, 0), (1, 1), v) == {}
    assert commutator(ctx, (1, 1), (2, 0), v) == {}


def test_connection_bracket_with_ray_directions():
    # the slice fields do not commute: [ray_i, active_k] = psi_i(k) active_k,
    # while distinct ray directions commute with each other
    ctx = mirror(P2).ctx
    cap = ctx.kwork - 2 * ctx.policy.kvar
    v = sample_element(ctx, cap)
    k = (1, 1)
    got = commutator(ctx, (1, 0), k, v)
    want = gm_connection(ctx, k, v)  # psi_0((1,1)) = 1
    assert gm_equal(got, want)
    assert commutator(ctx, (1, 0), (0, 1), v) == {}


def test_lambda_action_on_unit_generator():
    ctx = mirror(C2).ctx
    out = gm_lambda_action(ctx, 0, gm_element(ctx, (0, 0)))
    # no z part at the unit generator; every active point k contributes
    # k_0 y_k at its own generator, rays contribute 1
    assert ctx.unit_pidx not in out
    for p, s in out.items():
        k = ctx.points[p].point
        if p in ctx.ray_pidx:
            assert s == HSeries.unit(ctx).scale(k[0]) or k[0] == 0
        else:
            assert s == HSeries.variable(ctx, ctx.var(k)).scale(k[0])


def test_lambda_action_z_part_tracks_the_point():
    ctx = mirror(P1).ctx
    out = gm_lambda_action(ctx, 0, gm_element(ctx, (1,)))
    b1 = ctx.pindex[(1,)]
    assert out[b1].z_coefficient(1) == HSeries.unit(ctx)
    for p, s in out.items():
        if p != b1:
            assert s.z_coefficient(1).is_zero()


def test_lambda_axes_commute():
    ctx = mirror(P2).ctx
    v = sample_element(ctx, 1)
    ab = gm_lambda_action(ctx, 0, gm_lambda_action(ctx, 1, v))
    ba = gm_lambda_action(ctx, 1, gm_lambda_action(ctx, 0, v))
    assert gm_equal(ab, ba)


def test_lambda_translation_bookkeeping():
    # moving the lambda-action past a translation by k costs z k_i, the
    # operator form of shifting the equivariant argument by -k z
    ctx = mirror(P2).ctx
    v = sample_element(ctx, 1)
    for k in [(1, 0), (1, 1)]:
        for i in range(2):
            left = gm_lambda_action(ctx, i, gm_multiply(ctx, k, v, strict=False))
            right = gm_multiply(ctx, k, gm_lambda_action(ctx, i, v), strict=False)
            diff = gm_add(left, gm_scale(right, QQ(-1)))
            shift = {
                p: s.z_shift(1).scale(k[i])
                for p, s in gm_multiply(ctx, k, v, strict=False).items()
            }
            assert gm_equal(diff, shift)


# ------------------------------------------------------------ the transport


def test_theta_unit_generator_is_normalized_section():
    md = mirror(P1)
    assert theta_apply(md, gm_element(md.ctx, (0,))) == md.upsilon


def test_theta_base_values_are_falling_products():
    for fan in (P1, P2, C2, F1):
        md = mirror(fan)
        ctx = md.ctx
        base_key = (ctx.zero_eidx, ())
        for kp in range(len(ctx.points)):
            expect = HSeries.unit(ctx)
            for i, e in enumerate(ctx.points[kp].psi):
                for c in range(e):
                    expect = expect * (
                        HSeries.phi(ctx, ctx.ray_pidx[i])
                        - HSeries.unit(ctx).z_shift(1).scale(c)
                    )
            col = md.P.col(kp)
            base = HSeries(
                ctx, {k: dict(v) for k, v in col.terms.items() if k == base_key}
            )
            assert base == expect


def test_check_theta_all_fans():
    for fan in (P1, P2, C2, F1):
        caps = {"qcap": 0} if fan is C2 else {}
        report = conftest.theta_report(fan, **caps)
        assert [e["status"] for e in report] == ["pass"] * len(report)
        assert {e["property"] for e in report} == {
            "theta-unit",
            "theta-shift",
            "theta-connection-active",
            "theta-connection-ray",
            "theta-lambda",
            "theta-grading",
        }


def test_check_theta_flags_perturbed_column():
    ctx = make_ctx(P1)
    md = engine.compute_mirror_data(ctx)
    b1 = ctx.pindex[(1,)]
    # homogeneous of the right weight, so only the identities can catch it
    bad = novikov_unit(ctx, (1, 1)).z_shift(-1)
    md.P.cols[b1] = md.P.cols[b1] + bad
    with pytest.raises(PropertyViolation):
        check_theta(md)
    report = check_theta(md, strict=False)
    assert any(e["status"] == "fail" for e in report)


def _without_psi(real):
    def connection(ctx, k, v):
        out = real(ctx, k, v)
        if k not in ctx.ray_pidx:
            return out
        i = ctx.ray_pidx.index(k)
        return gm_add(out, {lp: f.scale(-ctx.points[lp].psi[i]) for lp, f in v.items()})

    return connection


def _without_pole(real):
    def connection(ctx, k, v):
        pole = gm_multiply(ctx, k, v, strict=False)
        return gm_add(real(ctx, k, v), {tp: s.z_shift(-1).scale(-1) for tp, s in pole.items()})

    return connection


@pytest.mark.parametrize("fan_dict", [P1, P2], ids=["p1", "p2"])
@pytest.mark.parametrize(
    "fault,failing",
    [
        (_without_psi, {"theta-connection-ray"}),
        (_without_pole, {"theta-connection-active", "theta-connection-ray"}),
    ],
    ids=["psi", "pole"],
)
def test_check_theta_flags_planted_connection_fault(monkeypatch, fan_dict, fault, failing):
    # check_theta reads its connection right side from gm_connection, so a
    # fault planted there must surface in the connection entries
    md = mirror(fan_dict)
    monkeypatch.setattr(gaussmanin, "gm_connection", fault(gaussmanin.gm_connection))
    report = check_theta(md, strict=False)
    assert {e["property"] for e in report if e["status"] == "fail"} == failing


def test_check_theta_flags_wrong_weight():
    ctx = make_ctx(P1)
    md = engine.compute_mirror_data(ctx)
    b1 = ctx.pindex[(1,)]
    md.P.cols[b1] = md.P.cols[b1] + novikov_unit(ctx, (1, 1))
    report = check_theta(md, strict=False)
    graded = next(e for e in report if e["property"] == "theta-grading")
    assert graded["status"] == "fail"


def _spiked_frame(md, pidx):
    """md with the unit class added to its Seidel element at pidx."""
    ctx = md.ctx
    frame = dict(md.S)
    frame[pidx] = frame[pidx] + HSeries.phi(ctx, ctx.unit_pidx, 1)
    return replace(md, S=frame)


@pytest.mark.parametrize("fan_dict", [P1, P2, C2], ids=["p1", "p2", "c2"])
def test_check_theta_flags_corrupted_seidel_frame(fan_dict):
    # a ray's S_k plus the unit class still solves (lower-degree terms at
    # order zero are absorbed), so only the quantum side of the connection
    # moves; the check must see the frame it is given, not a stored one
    md = mirror(fan_dict)
    report = check_theta(_spiked_frame(md, md.ctx.ray_pidx[0]), strict=False)
    assert {e["property"] for e in report if e["status"] == "fail"} == {
        "theta-connection-active",
        "theta-connection-ray",
    }


@pytest.mark.parametrize("fan_dict", [P1, P2, C2], ids=["p1", "p2", "c2"])
def test_frame_without_coordinates_is_reported(fan_dict):
    # S at the unit point becomes twice the unit class at order zero, so the
    # triangular solve leaves a residual for every class
    md = mirror(fan_dict)
    bad = _spiked_frame(md, md.ctx.unit_pidx)
    report = check_theta(bad, strict=False)
    failed = {e["property"]: e["witness"] for e in report if e["status"] == "fail"}
    assert set(failed) == {"theta-connection-active", "theta-connection-ray"}
    assert all("not in the span" in w["error"] for w in failed.values())
    with pytest.raises(PropertyViolation):
        check_theta(bad)

    table = jacobi_structure_constants(bad, strict=False)
    broken = [r for r in table["pairs"] if "witness" in r]
    assert broken and table["failures"] >= len(broken)
    assert all(r["status"] == "fail" and "not in the span" in r["witness"] for r in broken)
    with pytest.raises(PropertyViolation):
        jacobi_structure_constants(bad)


def _count_frame_solves(monkeypatch):
    """Record every Seidel-frame solve, whichever module calls it."""
    real, calls = engine.seidel_coordinates, []

    def counted(md, target):
        calls.append(target)
        return real(md, target)

    monkeypatch.setattr(engine, "seidel_coordinates", counted)
    monkeypatch.setattr(gaussmanin, "seidel_coordinates", counted)
    return calls


def test_check_theta_solves_each_frame_class_once(monkeypatch):
    # one solve per direction S_k and per column P(phi_l); solving per
    # (direction, column) pair took 120 here
    md = conftest.mirror(C2)
    ctx = md.ctx
    calls = _count_frame_solves(monkeypatch)
    report = check_theta(md, strict=False)
    assert [e["status"] for e in report] == ["pass"] * len(report)
    directions = len(ctx.gvars) + len(ctx.ray_pidx)
    columns = sum(1 for n in ctx.norms if n <= ctx.policy.kcoh)
    assert 0 < len(calls) <= directions + columns


def test_jacobi_table_solves_each_class_once(monkeypatch):
    md = conftest.mirror(C2)
    calls = _count_frame_solves(monkeypatch)
    table = jacobi_structure_constants(md)
    classes = {tuple(r[side]) for r in table["pairs"] for side in ("k", "l")}
    assert 0 < len(calls) <= len(classes)


def test_jacobi_structure_constants_all_fans():
    for fan in (P1, P2, C2, F1):
        table = jacobi_structure_constants(mirror(fan))
        assert table["failures"] == 0
        assert table["pairs"]


def test_jacobi_table_entries_on_line():
    table = jacobi_structure_constants(mirror(P1))
    rows = {(tuple(r["k"]), tuple(r["l"])): r for r in table["pairs"]}
    crossing = rows[((-1,), (1,))]
    assert crossing["pairing"] == [1, 1]
    assert crossing["target"] == [0]
    same = rows[((1,), (2,))]
    assert same["pairing"] == [0, 0]
    assert same["target"] == [3]


# ------------------------------------------------- non-equivariant descent


def test_restriction_of_line_is_classical_pencil():
    nr = noneq_restrict(mirror(P1))
    assert nr.rank == 2
    pts = [tuple(t["point"]) for t in nr.potential]
    assert pts == [(1,), (-1,), (0,)]
    betas = [tuple(t["beta"]) for t in nr.potential]
    assert betas == [(0, 0), (1, 1), (0, 0)]
    unit = [{"k": [0], "zexp": 0, "d": [0, 0], "gexp": [], "num": 1, "den": 1}]
    assert nr.potential[0]["coefficient"] == unit
    assert nr.potential[1]["coefficient"] == unit
    lead = nr.potential[2]["coefficient"][0]
    assert lead == {
        "k": [0], "zexp": 0, "d": [0, 0], "gexp": [["s", 0, 1]],
        "num": 1, "den": 1,
    }


def test_restriction_of_plane_point_class():
    nr = noneq_restrict(mirror(P2))
    assert nr.rank == 3
    assert nr.basis.betti[:3] == [1, 1, 1]
    row = next(r for r in nr.products if (r["a"], r["b"]) == (2, 2))
    # (point) * (point) = Q^{line} (line) at the corrected base point
    lead = row["coords"]["1"][0]
    assert lead == {
        "k": [0, 0], "zexp": 0, "d": [1, 1, 1], "gexp": [],
        "num": 1, "den": 1,
    }
    constant = [r for r in row["coords"]["2"] if not r["gexp"]]
    assert constant == []
    constant = [r for r in row["coords"]["0"] if not r["gexp"]]
    assert constant == []


def test_restriction_lift_independence():
    md = mirror(P2)
    default = noneq_restrict(md)
    assert default.section == [(0, 0), (1, 0), (2, 0)]
    other_point = noneq_restrict(md, section=[(0, 0), (1, 0), (1, 1)])
    other_ray = noneq_restrict(md, section=[(0, 0), (0, 1), (1, 1)])
    assert default.products == other_point.products
    assert default.products == other_ray.products


def test_restriction_of_affine_plane_is_classical():
    nr = noneq_restrict(mirror(C2))
    assert nr.rank == 1
    assert nr.basis.betti[0] == 1 and sum(nr.basis.betti) == 1
    (row,) = nr.products
    assert row["coords"]["0"] == [
        {"k": [0, 0], "zexp": 0, "d": [0, 0], "gexp": [], "num": 1, "den": 1}
    ]


def test_restriction_unfolds_the_surface():
    nr = noneq_restrict(mirror(F1))
    assert nr.rank == 4
    assert len(nr.divisors) == 2
    assert len(nr.activated) == 2


def test_section_validation():
    md = mirror(P2)
    with pytest.raises(SectionNotALift):
        noneq_restrict(md, section=[(0, 0), (1, 0)])
    with pytest.raises(SectionNotALift):
        noneq_restrict(md, section=[(0, 0), (1, 1), (1, 0)])
    with pytest.raises(SectionNotALift):
        noneq_restrict(md, section=[(0, 0), (1, 0), (9, 9)])
    with pytest.raises(SectionNotALift):
        noneq_restrict(mirror(F1), section=[(0, 0), (1, 0), (1, 0), (1, 1)])


def test_restriction_serializes_deterministically():
    md = mirror(P1)
    assert noneq_restrict(md).to_json() == noneq_restrict(md).to_json()
