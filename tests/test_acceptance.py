"""Acceptance gate: the nine headline properties, one pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact rational equality at the stated caps; the
shared truncation losses are asserted to stay empty throughout, so nothing
was silently dropped in any run that feeds these checks.
"""

import json
import subprocess
import sys
import time

import pytest

from conftest import FANS, mirror_timed, theta_report
from toricmirror import verify
from toricmirror.engine import (
    _check_flow_identities,
    primitive_form,
    quantum_product,
)
from toricmirror.errors import MismatchedInvariant
from toricmirror.gaussmanin import jacobi_structure_constants
from toricmirror.series import HSeries

FAN_NAMES = ("p1", "p2", "c2", "f1")


@pytest.fixture(scope="module")
def mirror_data():
    out = {}
    for name in FAN_NAMES:
        out[name] = mirror_timed(FANS[name])
        assert dict(out[name][0].ctx.losses) == {}, f"truncation loss on {name}"
    return out


def base_point_part(series):
    terms = {key: dict(inner) for key, inner in series.terms.items() if not key[1]}
    return HSeries(series.ctx, terms)


def test_criterion_1_factorization(mirror_data):
    for name in FAN_NAMES:
        md, seconds = mirror_data[name]
        assert verify._residual_window(md).is_zero()
        for p, col in md.P.cols.items():
            assert col._filter_inner(lambda _, z: z < 0).is_zero()
        assert dict(md.ctx.losses) == {}
        assert seconds < 300
    print("[criterion 1] PASS factorization residual vanishes on the certified "
          "window, quotient part is a z-polynomial, zero loss, all four fans")


def test_criterion_2_flow_equations(mirror_data):
    for name in FAN_NAMES:
        md, _ = mirror_data[name]
        _check_flow_identities(md.ctx, md.tau, md.S)
        entries = {e["property"]: e["status"] for e in theta_report(FANS[name])}
        assert entries["theta-connection-active"] == "pass"
        assert entries["theta-connection-ray"] == "pass"
    print("[criterion 2] PASS mirror-map flows equal the Seidel classes and the "
          "unit-column flow equation holds on all four fans")


def test_criterion_3_linear_relation_and_homogeneity(mirror_data):
    for name in FAN_NAMES:
        md, _ = mirror_data[name]
        ctx = md.ctx
        assert verify._linear_relation_failures(md) == []
        assert md.tau.is_homogeneous(1)
        assert md.upsilon.is_homogeneous(0)
        for p, col in md.P.cols.items():
            assert col.is_homogeneous(ctx.norms[p])
        for p, s in md.S.items():
            assert s.is_homogeneous(ctx.norms[p])
    print("[criterion 3] PASS ray-weighted Seidel classes sum to the equivariant "
          "class and every series is weight-homogeneous on all four fans")


def test_criterion_4_localization(mirror_data):
    total = 0
    for name in FAN_NAMES:
        ctx = mirror_data[name][0].ctx
        for k in verify._suite_directions(ctx):
            entries = verify.localization_check(ctx, k, strict=True)
            assert len(entries) == len(ctx.fan.max_cones)
            total += sum(e["checked"] for e in entries)
    print(f"[criterion 4] PASS shift identity at every fixed point, every "
          f"direction with norm <= 2, all four fans ({total} factored "
          f"coefficient identities)")


def test_criterion_5_transport_and_jacobi(mirror_data):
    pairs = 0
    for name in FAN_NAMES:
        md, _ = mirror_data[name]
        entries = theta_report(FANS[name])
        assert all(e["status"] == "pass" for e in entries)
        rep = jacobi_structure_constants(md, strict=True)
        assert rep["failures"] == 0
        assert rep["pairs"]
        pairs += len(rep["pairs"])
    print(f"[criterion 5] PASS transport isomorphism properties and shift-module "
          f"structure constants match quantum products ({pairs} pairs)")


def test_criterion_6_quantum_relations(mirror_data):
    md, _ = mirror_data["p1"]
    ctx = md.ctx
    u1 = HSeries.phi(ctx, ctx.ray_pidx[0])
    u2 = HSeries.phi(ctx, ctx.ray_pidx[1])
    expected = HSeries.novikov(ctx, ctx.eindex[(1, 1)])
    assert base_point_part(quantum_product(md, u1, u2)) == expected

    md2, _ = mirror_data["p2"]
    ctx2 = md2.ctx
    us = [HSeries.phi(ctx2, p) for p in ctx2.ray_pidx]
    triple = quantum_product(md2, quantum_product(md2, us[0], us[1]), us[2])
    assert base_point_part(triple) == HSeries.novikov(ctx2, ctx2.eindex[(1, 1, 1)])

    mdc, _ = mirror_data["c2"]
    ctxc = mdc.ctx
    for a, b in (((1, 0), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 0))):
        pa = HSeries.phi(ctxc, ctxc.pindex[a])
        pb = HSeries.phi(ctxc, ctxc.pindex[b])
        assert quantum_product(mdc, pa, pb) == pa * pb
    for name in FAN_NAMES:
        assert dict(mirror_data[name][0].ctx.losses) == {}
    print("[criterion 6] PASS ray products give the Novikov relation on the "
          "line and the plane; affine products stay classical at all "
          "parameters; zero loss")


def test_criterion_7_route_agreement(mirror_data):
    for name in FAN_NAMES:
        md, _ = mirror_data[name]
        pf = primitive_form(md, route="both")
        assert pf.coefficients is not None
        assert pf.tau_check == md.tau
    print("[criterion 7] PASS both volume-form normalizations agree and the "
          "renormalized mirror map reproduces the mirror map, all four fans")


def test_criterion_8_curve_counts():
    t0 = time.time()
    report = verify.wdvv_compare(dmax=3)
    seconds = time.time() - t0
    assert report["status"] == "pass"
    assert report["oracle"] == [1, 1, 12]
    assert report["engine"] == ["1", "1", "12"]
    assert report["losses"] == {}
    assert seconds < 900
    print(f"[criterion 8] PASS plane curve counts 1, 1, 12 extracted from the "
          f"quantum product match the recursion ({seconds:.0f}s, "
          f"{report['zero_coefficients_checked']} window zeros)")


def test_criterion_9_determinism_and_controls():
    argv = [sys.executable, "-m", "toricmirror", "validate", "--fan", "p1"]
    runs = [subprocess.run(argv, capture_output=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    import os

    golden = os.path.join(os.path.dirname(__file__), "golden", "validate_p1.json")
    with open(golden, "rb") as fh:
        assert runs[0] == fh.read()

    controls = verify.negative_controls(
        verify.fans.load_fan(dict(FANS["p1"]))
    )
    assert all(e["status"] == "pass" for e in controls)
    assert len(controls) == 6

    with pytest.raises(MismatchedInvariant):
        verify.wdvv_compare(dmax=2, _oracle=[1, 2])
    print("[criterion 9] PASS byte-identical reruns against the pinned output "
          "and every check detects its one-term corruption")
