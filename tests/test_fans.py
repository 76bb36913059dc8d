"""Fan combinatorics tests.

The oracle functions at the top are deliberately dumb (bounded brute-force
searches): they recompute cone memberships, wall classes and effective classes
without any of the linear algebra the library uses, so the two routes are
independent.  Expected values frozen below were produced by these oracles.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmirror import fans
from toricmirror.errors import (
    BadPolarization,
    FanError,
    NonConvexSupport,
    NonUnimodularCone,
    OutsideSupport,
    PolicyMismatch,
)

P1 = {"name": "p1", "dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
P2 = {
    "name": "p2",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
}
C2 = {"name": "c2", "dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
F1 = {
    "name": "f1",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
}

ALL = [P1, P2, C2, F1]


def hirzebruch(a):
    return {"name": f"F{a}", "dim": 2, "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}


def a_n(n):
    """The A_n resolution of C^2/Z_{n+1}; K_P1 is A_1."""
    return {"name": f"A{n}", "dim": 2, "rays": [[1, 0]] + [[-i, i + 1] for i in range(n + 1)],
            "max_cones": [[i, i + 1] for i in range(n + 1)]}


P3 = {"name": "p3", "dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
      "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
KP2 = {"name": "kp2", "dim": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -1, 1]],
       "max_cones": [[0, 1, 2], [0, 2, 3], [0, 1, 3]]}
# fans on which the all-ones form fails some wall class
OFF_ONES = [hirzebruch(2), hirzebruch(3), a_n(1), a_n(2), KP2]


# ------------------------------------------------------------------ oracles


def brute_cone_coords(rays, cone, k, bound):
    """Non-negative integer combination of the cone's rays equal to k, if any."""
    dim = len(rays[0])
    for coeffs in itertools.product(range(bound + 1), repeat=len(cone)):
        vec = [0] * dim
        for c, i in zip(coeffs, cone):
            for a in range(dim):
                vec[a] += c * rays[i][a]
        if vec == list(k):
            return dict(zip(cone, coeffs))
    return None


def brute_psi(fan_dict, k):
    """First (in sorted cone order) non-negative cone decomposition of k."""
    rays = fan_dict["rays"]
    bound = 2 * sum(abs(c) for c in k) + 2
    for cone in sorted(tuple(sorted(c)) for c in fan_dict["max_cones"]):
        coords = brute_cone_coords(rays, cone, k, bound)
        if coords is not None:
            psi = [0] * len(rays)
            for i, c in coords.items():
                psi[i] = c
            return tuple(psi), cone
    return None


def brute_wall_classes(fan_dict):
    """All classes e_j - sum_i c_i e_i with b_j = sum_i c_i b_i, i in a cone."""
    rays = fan_dict["rays"]
    out = set()
    for cone in fan_dict["max_cones"]:
        cone = tuple(sorted(cone))
        for j in range(len(rays)):
            if j in cone:
                continue
            dim = len(rays[0])
            for coeffs in itertools.product(range(-6, 7), repeat=len(cone)):
                vec = [sum(c * rays[i][a] for c, i in zip(coeffs, cone))
                       for a in range(dim)]
                if vec == list(rays[j]):
                    d = [0] * len(rays)
                    d[j] = 1
                    for c, i in zip(coeffs, cone):
                        d[i] -= c
                    out.add(tuple(d))
                    break
    return out


def brute_effective(fan_dict, theta, cap):
    """Box scan: d in the ray lattice kernel, single-cone nonnegativity test."""
    rays = fan_dict["rays"]
    m, dim = len(rays), len(rays[0])
    walls = brute_wall_classes(fan_dict)
    if not walls:
        return [(0,) * m] if cap >= 0 else []
    bounds = [cap * max(abs(w[j]) for w in walls) for j in range(m)]
    found = set()
    for d in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if any(sum(d[i] * rays[i][a] for i in range(m)) for a in range(dim)):
            continue  # not in the kernel lattice
        if sum(t * di for t, di in zip(theta, d)) > cap:
            continue
        for cone in fan_dict["max_cones"]:
            if all(d[j] >= 0 for j in range(m) if j not in cone):
                found.add(d)
                break
    return sorted(found, key=lambda d: (sum(t * x for t, x in zip(theta, d)), d))


# ------------------------------------------------------- frozen example data


def test_point_decomposition_p2():
    f = fans.load_fan(P2)
    pd = fans.point_data(f, (-1, 0))
    assert pd.psi == (0, 1, 1)
    assert pd.cone == (1, 2)
    assert pd.norm == 2
    # matches the brute-force decomposition
    assert brute_psi(P2, (-1, 0))[0] == pd.psi


def test_splitting_class_p1():
    f = fans.load_fan(P1)
    pd = fans.point_data(f, (-1,))  # the second ray
    assert pd.psi == (0, 1)
    # splitting through the first cone {0}: -1 = -1 * b_0
    assert pd.beta == (1, 1)


def test_pairing_examples():
    p1 = fans.load_fan(P1)
    assert fans.pairing_d(p1, (1,), (-1,)) == (1, 1)
    p2 = fans.load_fan(P2)
    assert fans.pairing_d(p2, (1, 0), (-1, -1)) == (0, 0, 0)
    # same-cone pairs have trivial pairing
    assert fans.pairing_d(p2, (1, 0), (0, 1)) == (0, 0, 0)


def test_effective_enumeration_p1():
    f = fans.load_fan(P1)
    assert f.polarization == (1, 1)
    assert fans.enumerate_effective(f, 4) == [(0, 0), (1, 1), (2, 2)]


def test_effective_enumeration_p2():
    f = fans.load_fan(P2)
    assert fans.enumerate_effective(f, 3) == [(0, 0, 0), (1, 1, 1)]


def test_effective_enumeration_matches_oracle():
    for fd in ALL:
        f = fans.load_fan(fd)
        cap = 4
        assert fans.enumerate_effective(f, cap) == brute_effective(
            fd, f.polarization, cap
        ), fd["name"]


def test_wall_classes_match_oracle():
    for fd in ALL:
        f = fans.load_fan(fd)
        assert set(fans.wall_classes(f)) == brute_wall_classes(fd), fd["name"]


def test_wall_classes_are_semigroup_generators():
    # Gordan-style cross-check: every effective class is a non-negative
    # integer combination of wall classes (free generation per cone).
    for fd in ALL:
        f = fans.load_fan(fd)
        walls = sorted(fans.wall_classes(f))
        effectives = fans.enumerate_effective(f, 4)
        m = len(fd["rays"])
        reachable = {(0,) * m}
        frontier = {(0,) * m}
        cap_deg = 4
        while frontier:
            new = set()
            for d in frontier:
                for w in walls:
                    s = tuple(a + b for a, b in zip(d, w))
                    deg = sum(t * x for t, x in zip(f.polarization, s))
                    if deg <= cap_deg and s not in reachable:
                        new.add(s)
            reachable |= new
            frontier = new
        assert set(effectives) <= reachable, fd["name"]


def test_fixed_point_weights_p1():
    f = fans.load_fan(P1)
    w = fans.fixed_point_weights(f, (0,))
    assert w == ((1,), (0,))
    w2 = fans.fixed_point_weights(f, (1,))
    assert w2 == ((0,), (-1,))


def test_fixed_point_weights_p2():
    f = fans.load_fan(P2)
    w = fans.fixed_point_weights(f, (0, 1))
    assert w == ((1, 0), (0, 1), (0, 0))
    # defining property at every fixed point: u_i(x) . b_j = delta_ij on the cone
    for cone in f.max_cones:
        wx = fans.fixed_point_weights(f, cone)
        for i in cone:
            for j in cone:
                dot = sum(a * b for a, b in zip(wx[i], f.rays[j]))
                assert dot == (1 if i == j else 0)
        for i in range(len(f.rays)):
            if i not in cone:
                assert wx[i] == (0,) * f.dim


def test_enumerate_points_c2():
    f = fans.load_fan(C2)
    pts = fans.enumerate_points(f, 2)
    assert pts == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for k in pts:
        assert fans.point_data(f, k).norm <= 2


def test_point_outside_support():
    f = fans.load_fan(C2)
    with pytest.raises(OutsideSupport):
        fans.point_data(f, (-1, 0))


# ----------------------------------------------------------------- validation


def test_non_unimodular_cone_rejected():
    bad = {"name": "wp", "dim": 1, "rays": [[1], [-2]], "max_cones": [[0], [1]]}
    with pytest.raises(NonUnimodularCone):
        fans.load_fan(bad)
    bad2 = {
        "name": "sing",
        "dim": 2,
        "rays": [[1, 0], [1, 2]],
        "max_cones": [[0, 1]],
    }
    with pytest.raises(NonUnimodularCone):
        fans.load_fan(bad2)


def test_non_convex_support_rejected():
    halfplanes = {
        "name": "bowtie",
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "max_cones": [[0, 1], [2, 3]],
    }
    with pytest.raises(NonConvexSupport):
        fans.load_fan(halfplanes)


def test_missing_cone_rejected():
    missing = {
        "name": "p2-missing",
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2]],
    }
    with pytest.raises(NonConvexSupport):
        fans.load_fan(missing)


def test_overlapping_cones_rejected():
    overlap = {
        "name": "overlap",
        "dim": 2,
        "rays": [[1, 0], [0, 1], [1, 1]],
        "max_cones": [[0, 1], [0, 2]],
    }
    # cone(b0,b1) and cone(b0,b2) overlap: intersection is not a common face
    with pytest.raises(FanError):
        fans.load_fan(overlap)


def test_bad_user_polarization():
    with pytest.raises(BadPolarization):
        fans.load_fan({**P1, "polarization": [1, -1]})
    # a valid user polarization is accepted verbatim
    f = fans.load_fan({**P1, "polarization": [2, 1]})
    assert f.polarization == (2, 1)


def test_certificate_search_infeasible():
    # internal certificate finder: opposite wall classes admit no positive form
    assert fans.find_positive_form([( 1, -1), (-1, 1)]) is None
    assert fans.find_positive_form([(1, 0), (0, 1)]) is not None


def test_positive_form_is_the_sum_of_extreme_rays():
    # forms >= 0 on both classes: the cone spanned by (0, 1) and (1, 5)
    assert fans.find_positive_form([(1, 0), (-5, 1)]) == (1, 6)
    # (1, 0) + (0, 1) + (-1, -1) = 0: no form is positive on all three
    assert fans.find_positive_form([(1, 0), (0, 1), (-1, -1)]) is None


@pytest.mark.parametrize("fd,degrees", [
    (hirzebruch(2), [1, 1, 3]),
    (hirzebruch(3), [1, 1, 4]),
    (a_n(1), [1]),
    (a_n(2), [1, 1, 3, 3]),
    (a_n(3), [1, 1, 3, 3, 1, 3, 6, 3, 6]),
    (KP2, [1]),
], ids=["F2", "F3", "kp1", "A2", "A3", "kp2"])
def test_wall_degrees_off_the_all_ones_form(fd, degrees):
    f = fans.load_fan(fd)
    assert [f.degree(w) for w in fans.wall_classes(f)] == degrees
    if fd["name"] in ("F2", "F3"):
        assert f.polarization == (0, 0, 1, 1)


@pytest.mark.parametrize("fd", [P1, P2, C2, F1, P3], ids=["p1", "p2", "c2", "f1", "p3"])
def test_all_ones_polarization_kept(fd):
    f = fans.load_fan(fd)
    assert f.polarization == (1,) * len(fd["rays"])


def test_fan_layer_imports_no_float_library():
    code = (
        "import json, sys\n"
        "from toricmirror.fans import load_fan\n"
        "for fd in json.loads(sys.argv[1]):\n"
        "    load_fan(fd)\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(OFF_ONES)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_effective_box_past_the_limit_refuses():
    f = fans.load_fan(a_n(5))
    start = time.perf_counter()
    with pytest.raises(PolicyMismatch, match="27556675 points"):
        fans.enumerate_effective(f, 3)
    assert time.perf_counter() - start < 1.0


def test_positive_form_past_the_limit_refuses():
    start = time.perf_counter()
    with pytest.raises(PolicyMismatch, match="36 classes of rank 6 needs 376992 subsets"):
        fans.load_fan(a_n(6))
    assert time.perf_counter() - start < 1.0


def test_positive_form_below_the_limit_loads():
    # 25 wall classes of rank 5: 12650 subsets
    f = fans.load_fan(a_n(5))
    assert all(f.degree(w) >= 1 for w in fans.wall_classes(f))


def test_duplicate_rays_rejected():
    dup = {"name": "dup", "dim": 1, "rays": [[1], [1]], "max_cones": [[0], [1]]}
    with pytest.raises(FanError):
        fans.load_fan(dup)


def test_completeness_flag():
    assert fans.load_fan(P1).complete
    assert fans.load_fan(P2).complete
    assert fans.load_fan(F1).complete
    assert not fans.load_fan(C2).complete


# ------------------------------------------------------------ property tests


small_coord = st.integers(min_value=-4, max_value=4)


@st.composite
def support_point(draw, fan_dict):
    dim = fan_dict["dim"]
    k = tuple(draw(small_coord) for _ in range(dim))
    f = fans.load_fan(fan_dict)
    try:
        fans.point_data(f, k)
    except OutsideSupport:
        # fold outside points into the support for complete-fan independence
        k = tuple(abs(c) for c in k)
    return k


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairing_properties(data):
    fan_dict = data.draw(st.sampled_from([P1, P2, F1]))
    f = fans.load_fan(fan_dict)
    k = data.draw(support_point(fan_dict))
    l = data.draw(support_point(fan_dict))
    d = fans.pairing_d(f, k, l)
    # symmetric, effective, and compatible with the degree bookkeeping
    assert d == fans.pairing_d(f, l, k)
    assert fans.is_effective(f, d)
    pk, pl, pkl = (fans.point_data(f, x) for x in (k, l, tuple(a + b for a, b in zip(k, l))))
    assert tuple(a + b - c for a, b, c in zip(pk.psi, pl.psi, pkl.psi)) == d
    if set(pk.psi_support) | set(pl.psi_support) <= set(pkl.cone):
        assert d == (0,) * len(f.rays)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_splitting_classes_are_lattice_classes(data):
    fan_dict = data.draw(st.sampled_from([P1, P2, F1]))
    f = fans.load_fan(fan_dict)
    k = data.draw(support_point(fan_dict))
    pd = fans.point_data(f, k)
    # beta(k) lies in the kernel of the ray matrix
    for a in range(f.dim):
        assert sum(pd.beta[i] * f.rays[i][a] for i in range(len(f.rays))) == 0
    assert sum(pd.psi) == pd.norm
