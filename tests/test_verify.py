"""Localization, property-suite, and enumerative cross-check tests.

Independent oracles used here:

* factored fixed-point coefficients on the line, evaluated by hand from the
  falling-factorial formula (1/(L+z) at the positive cone, -1/(L-z) at the
  negative one, pure z powers for off-cone rays);
* the fixed-point weight ratios and Novikov shifts of the line, worked out
  directly from the cone duals;
* rational plane curve counts 1, 1, 12, 620, 87304 -- classical values, the
  first two being "one line through two points" and "one conic through five
  points" -- against which the associativity recursion is frozen before any
  engine comparison.
"""

import json
from dataclasses import replace

import pytest

import conftest
from conftest import C2, F1, F3, FANS, P1, P2, make_ctx
from toricmirror import fans, verify
from toricmirror.errors import (
    IdentityViolation,
    MismatchedInvariant,
    OutsideSupport,
    PolicyMismatch,
)
from toricmirror.gaussmanin import jacobi_structure_constants
from toricmirror.series import HSeries, QQ
from toricmirror.verify import (
    LinearFraction,
    LocalizedSeries,
    localization_check,
    negative_controls,
    run_property_suite,
    wdvv_compare,
    wdvv_oracle_p2,
)

ONE = LinearFraction.one()


# ---------------------------------------------------------- factored forms


def test_forms_canonicalize_content_and_sign():
    # 2L1 + 4L2 + 6z = 2 (L1 + 2L2 + 3z)
    a = ONE.times_form((2, 4, 6), 1)
    assert a.scalar == 2
    assert a.factors == (((1, 2, 3), 1),)
    # leading sign moves into the scalar, once per power
    b = ONE.times_form((-1, 0, 1), 2)
    assert b.scalar == 1
    assert b.factors == (((1, 0, -1), 2),)
    c = ONE.times_form((-1, 0, 1), -1)
    assert c.scalar == -1
    assert c.factors == (((1, 0, -1), -1),)


def test_forms_multiply_and_cancel():
    a = ONE.times_form((1, 1), 1).scale(QQ(3, 2))
    b = ONE.times_form((1, 1), -1).scale(2)
    assert a * b == LinearFraction(3)
    assert (a * LinearFraction.zero()).is_zero()
    # vanishing form: multiplication kills the monomial, division is an error
    assert ONE.times_form((0, 0), 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        ONE.times_form((0, 0), -1)


def test_forms_shift_replaces_z_coefficient():
    # L1 - z under lambda -> lambda - (2,) z becomes L1 - 3z
    a = ONE.times_form((1, -1), 1)
    assert a.shifted((2,)) == ONE.times_form((1, -3), 1)
    # pure z powers and scalars are untouched
    z2 = ONE.times_form((0, 1), 2).scale(QQ(1, 6))
    assert z2.shifted((5,)) == z2


# --------------------------------------------- localized series on the line


def line_context():
    return make_ctx(P1)


def test_localized_coefficients_match_hand_values():
    ctx = line_context()
    pos = LocalizedSeries(ctx, (0,))
    neg = LocalizedSeries(ctx, (1,))
    assert pos.weights == ((1,), (0,))
    assert neg.weights == ((0,), (-1,))

    # constant term: z at either fixed point
    z = ONE.times_form((0, 1), 1)
    assert pos.coefficient((0, 0), ()) == z
    assert neg.coefficient((0, 0), ()) == z

    # first Novikov order: 1/(L+z) at the positive cone, -1/(L-z) opposite
    assert pos.coefficient((1, 1), ()) == ONE.times_form((1, 1), -1)
    assert neg.coefficient((1, 1), ()) == ONE.times_form((-1, 1), -1)
    assert neg.coefficient((1, 1), ()).scalar == -1

    # unit-variable square: (1/2!) z^{-1}, exponents untouched
    v0 = ctx.var_index[("y", ctx.unit_pidx, 0)]
    half = ONE.times_form((0, 1), -1).scale(QQ(1, 2))
    assert pos.coefficient((0, 0), ((v0, 2),)) == half

    # a negative exponent on an off-cone ray kills the term
    vm = ctx.var_index[("y", ctx.pindex[(-2,)], 0)]
    assert ctx.ray_exponents((1, 1), ((vm, 1),)) == (1, -1)
    assert pos.coefficient((1, 1), ((vm, 1),)).is_zero()

    # ineffective classes contribute nothing
    assert pos.coefficient((2, 1), ()).is_zero()


def test_localized_series_rejects_non_maximal_cone():
    ctx = line_context()
    with pytest.raises(Exception):
        LocalizedSeries(ctx, (0, 1))


def test_shift_data_of_the_line():
    # the ray direction b1 = (1,): no Novikov shift at its own cone, the
    # full fiber class at the opposite one, weight ratios L and -1/(L-z)
    ctx = line_context()
    pd = fans.point_data(ctx.fan, (1,))
    for cone, shift in (((0,), (0, 0)), ((1,), (1, 1))):
        w = fans.fixed_point_weights(ctx.fan, cone)
        coords = [sum(a * b for a, b in zip(wv, (1,))) for wv in w]
        assert tuple(p - c for p, c in zip(pd.psi, coords)) == shift


def test_localization_identity_on_all_fans():
    for name, fan_dict in FANS.items():
        ctx = make_ctx(fan_dict)
        directions = [(0,) * ctx.fan.dim] + list(ctx.fan.rays)
        for k in directions:
            entries = localization_check(ctx, k, strict=True)
            assert len(entries) == len(ctx.fan.max_cones)
            assert all(e["status"] == "pass" for e in entries)
            assert all(e["checked"] > 0 for e in entries)


def test_localization_identity_in_variable_directions():
    ctx = make_ctx(P2)
    for k in ((1, 1), (2, 0), (-2, -2)):
        entries = localization_check(ctx, k, strict=True)
        assert all(e["status"] == "pass" for e in entries)


def test_localization_flags_twisted_coefficient():
    ctx = line_context()
    unit = (0,)
    twist = ((0, 0), ())
    entries = localization_check(ctx, unit, strict=False, _twist=twist)
    assert all(e["status"] == "fail" for e in entries)
    assert all("witness" in e for e in entries)
    with pytest.raises(IdentityViolation):
        localization_check(ctx, unit, strict=True, _twist=twist)


def test_localization_direction_validation():
    ctx = make_ctx(C2)
    with pytest.raises(OutsideSupport):
        localization_check(ctx, (-1, 0))
    ctx1 = line_context()
    with pytest.raises(PolicyMismatch):
        localization_check(ctx1, (3,))  # beyond the variable window


# ---------------------------------------------------------- property suite

SUITE_PROPERTIES = [
    "factorization-residual",
    "mirror-flow",
    "theta-unit",
    "theta-shift",
    "theta-connection-active",
    "theta-connection-ray",
    "theta-lambda",
    "theta-grading",
    "linear-relation",
    "jacobi-associativity",
    "route-agreement",
    "localization",
    "unfolding-rank",
]


def test_property_suite_on_the_line():
    entries = run_property_suite(fans.load_fan(dict(P1)), strict=True)
    assert all(e["status"] == "pass" for e in entries)
    names = [e["property"] for e in entries]
    # one entry per property, one localization entry per direction
    assert [n for n in SUITE_PROPERTIES if n != "localization"] == [
        n for n in names if n != "localization"
    ]
    assert names.count("localization") == 5
    points = [e["point"] for e in entries if e["property"] == "localization"]
    assert points == [[0], [1], [-1], [-2], [2]]
    # the report is plain data
    assert json.loads(json.dumps(entries)) == entries


def test_property_suite_on_the_affine_plane():
    entries = run_property_suite(fans.load_fan(dict(C2)))
    assert all(e["status"] == "pass" for e in entries)
    assert sum(e["property"] == "localization" for e in entries) == 6


def test_property_suite_reports_a_frame_without_coordinates(monkeypatch):
    # S at the unit point doubled at order zero: no class has coordinates
    # in the frame, which the suite must report, not raise
    real = verify.compute_mirror_data

    def spiked(ctx, check=True):
        md = real(ctx, check=check)
        frame = dict(md.S)
        frame[ctx.unit_pidx] = frame[ctx.unit_pidx] + HSeries.phi(ctx, ctx.unit_pidx, 1)
        return replace(md, S=frame)

    monkeypatch.setattr(verify, "compute_mirror_data", spiked)
    entries = run_property_suite(fans.load_fan(dict(P1)))
    failed = {e["property"]: e.get("witness") for e in entries if e["status"] == "fail"}
    assert set(failed) == {
        "mirror-flow",
        "theta-connection-active",
        "theta-connection-ray",
        "jacobi-associativity",
    }
    assert "not in the span" in failed["theta-connection-active"]["error"]


CONTROLS = [
    "factorization-detects-corruption",
    "flow-detects-corruption",
    "transport-detects-corruption",
    "jacobi-detects-corruption",
    "linear-relation-detects-corruption",
    "localization-detects-corruption",
]


def test_negative_controls_all_fire():
    entries = negative_controls(fans.load_fan(dict(P1)))
    assert [e["control"] for e in entries] == CONTROLS
    assert all(e["status"] == "pass" for e in entries)


# ------------------------------------------ a fan that is not semipositive

# F3 at qcap 1, gcap 1: its mirror map has Novikov-only terms at y = 0, so it
# is not invertible there, and no stage of the pipeline may need it to be.
F3_CAPS = {"qcap": 1, "gcap": 1}


def test_f3_mirror_data_is_loss_free():
    md = conftest.mirror(F3, **F3_CAPS)
    assert dict(md.ctx.losses) == {}


def test_f3_jacobi_table_covers_every_target():
    report = jacobi_structure_constants(conftest.mirror(F3, **F3_CAPS), strict=True)
    assert report["failures"] == 0
    assert report["pairs"]


def test_property_suite_on_f3():
    entries = run_property_suite(make_ctx(F3, **F3_CAPS))
    assert len(entries) == 25
    assert all(e["status"] == "pass" for e in entries)


def test_negative_controls_fire_on_f3():
    entries = negative_controls(make_ctx(F3, **F3_CAPS))
    assert [e["control"] for e in entries] == CONTROLS
    assert all(e["status"] == "pass" for e in entries)


# ------------------------------------------------------- enumerative check


def test_curve_count_recursion_matches_classical_values():
    assert wdvv_oracle_p2(5) == [1, 1, 12, 620, 87304]
    with pytest.raises(ValueError):
        wdvv_oracle_p2(0)


def test_curve_counts_extracted_from_the_quantum_product():
    report = wdvv_compare(dmax=2)
    assert report["status"] == "pass"
    assert report["oracle"] == [1, 1]
    assert report["engine"] == ["1", "1"]
    assert report["losses"] == {}
    assert report["zero_coefficients_checked"] == 16
    caps = report["order"]
    assert (caps["qcap"], caps["gcap"], caps["zneg"]) == (6, 2, 14)
    assert json.loads(json.dumps(report)) == report


def test_curve_count_comparison_detects_a_wrong_count():
    with pytest.raises(MismatchedInvariant):
        wdvv_compare(dmax=2, _oracle=[1, 2])
