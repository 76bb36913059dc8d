"""Smooth semi-projective fans and their curve-class combinatorics.

A fan is given by primitive integer rays b_0..b_{m-1} in Z^D and a list of
maximal cones, each a D-subset of ray indices with |det| = 1 (unimodular).
Validation enforces that the cones glue into a fan (pairwise intersections are
common faces), that the support is a full-dimensional convex region, and that
a strictly convex piecewise-linear support function exists; its ray values
double as the polarization used to grade curve classes.

Curve classes live in the kernel lattice of the ray matrix and are always
represented by their full coordinate vector d = (d_0, .., d_{m-1}), i.e. by
the pairings with the ray divisors, which avoids choosing a kernel basis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb, gcd, prod
from pathlib import Path

from .errors import (
    BadPolarization,
    FanError,
    NonConvexSupport,
    NonUnimodularCone,
    NoStrictlyConvexSupportFunction,
    OutsideSupport,
    PolarizationUnbounded,
    PolicyMismatch,
)
from .linalg import det_int, mat_inv

Vec = tuple[int, ...]

# enumerate_effective scans a box whose size is exponential in the Picard
# rank; past this many points it refuses instead of running for minutes
MAX_EFFECTIVE_BOX = 10**6
# find_positive_form tries every (n-1)-subset of the classes; past this many
# it refuses too (A_5 needs 12650, A_6 376992)
MAX_FORM_SUBSETS = 10**5


@dataclass(frozen=True)
class PointData:
    """Cone decomposition of a lattice point of the support."""

    point: Vec
    cone: tuple[int, ...]      # ray indices of the (first) containing max cone
    psi: Vec                   # non-negative cone coordinates, one per ray
    norm: int                  # sum of the coordinates
    beta: Vec                  # psi minus the splitting through the base cone

    @property
    def psi_support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.psi) if c)


class Fan:
    """Validated fan with cached dual bases and polarization."""

    def __init__(self, name, dim, rays, max_cones, polarization, splitting_cone):
        self.name = name
        self.dim = dim
        self.rays: tuple[Vec, ...] = rays
        self.max_cones: tuple[tuple[int, ...], ...] = max_cones
        self.polarization: Vec | None = polarization
        self.splitting_cone: tuple[int, ...] = splitting_cone
        # dual basis per cone: duals[I][i] is the integer vector u with
        # u . b_j = delta_ij for j in I (rows of the inverse ray matrix)
        self.duals: dict[tuple[int, ...], dict[int, Vec]] = {}
        for cone in max_cones:
            mat = [list(self.rays[i]) for i in cone]
            inv = mat_inv(mat)  # unimodular, so integer entries
            cols = list(zip(*inv))
            self.duals[cone] = {
                i: tuple(int(x) for x in col) for i, col in zip(cone, cols)
            }
        self.complete = _is_complete(self)

    # -- convenience -------------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def cone_coords(self, cone: tuple[int, ...], k) -> dict[int, int]:
        """Coordinates of k in the dual basis of the given maximal cone."""
        return {
            i: sum(u * c for u, c in zip(self.duals[cone][i], k)) for i in cone
        }

    def degree(self, d) -> int:
        if self.polarization is None:
            raise PolarizationUnbounded(
                "fan has no polarization; degrees are unbounded"
            )
        return sum(t * x for t, x in zip(self.polarization, d))

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
            "splitting_cone": list(self.splitting_cone),
        }
        if self.polarization is not None:
            out["polarization"] = list(self.polarization)
        return out


# ---------------------------------------------------------------- validation


def _check_unimodular(rays, cones, dim):
    for cone in cones:
        if len(set(cone)) != dim:
            raise NonUnimodularCone(f"cone {cone} is not a {dim}-subset")
        det = det_int([rays[i] for i in cone])
        if abs(det) != 1:
            raise NonUnimodularCone(f"cone {cone} has determinant {det}")


def _extreme_rays(rows, dim):
    """Primitive extreme rays of the cone {x : r . x >= 0 for r in rows}.

    Each is cut out by dim-1 independent rows: it is their integer kernel
    vector, with the sign that satisfies every row.  The rows must span Q^dim,
    so that the cone is pointed and these rays generate it.
    """
    found = []
    for sub in itertools.combinations(rows, dim - 1):
        kern = _integer_kernel_vector(sub, dim)
        if kern is None:
            continue
        for cand in (kern, tuple(-c for c in kern)):
            if all(sum(r[a] * cand[a] for a in range(dim)) >= 0 for r in rows):
                if cand not in found:
                    found.append(cand)
    return found


def _integer_kernel_vector(rows, dim):
    """A primitive integer kernel vector of a (dim-1) x dim integer matrix."""
    # Cramer-style: signed maximal minors
    out = []
    for a in range(dim):
        cols = [c for c in range(dim) if c != a]
        minor = det_int([[r[c] for c in cols] for r in rows]) if rows else 1
        out.append((-1) ** a * minor)
    if all(x == 0 for x in out):
        return None
    g = gcd(*out)
    return tuple(x // g for x in out)


def _check_fan_gluing(fan: Fan):
    """Pairwise cone intersections must be spanned by the shared rays."""
    for ci, cj in itertools.combinations(fan.max_cones, 2):
        rows = [fan.duals[ci][i] for i in ci] + [fan.duals[cj][j] for j in cj]
        shared = sorted(set(ci) & set(cj))
        for ray in _extreme_rays(rows, fan.dim):
            if not any(_is_positive_multiple(ray, fan.rays[t]) for t in shared):
                raise FanError(
                    f"cones {ci} and {cj} intersect outside their common face"
                )


def _is_positive_multiple(v, w):
    # v, w integer vectors; is v == c*w for some rational c > 0?
    if all(x == 0 for x in w):
        return all(x == 0 for x in v)
    num = den = None  # candidate c = num/den
    for a, b in zip(v, w):
        if b == 0:
            if a != 0:
                return False
        elif num is None:
            num, den = a, b
        elif num * b != a * den:
            return False
    return num is not None and num * den > 0


def _facet_census(fan: Fan):
    """Yield (cone, missing_ray, facet_rayset, n_cones_containing_facet)."""
    for cone in fan.max_cones:
        for i in cone:
            facet = tuple(sorted(set(cone) - {i}))
            count = sum(1 for other in fan.max_cones if set(facet) <= set(other))
            yield cone, i, facet, count


def _check_support_convex(fan: Fan):
    for cone, i, facet, count in _facet_census(fan):
        if count > 2:
            raise FanError(f"facet {facet} is shared by {count} cones")
        if count == 1:
            # boundary facet: its inward normal must see every ray on one side
            normal = fan.duals[cone][i]
            for ray in fan.rays:
                if sum(n * r for n, r in zip(normal, ray)) < 0:
                    raise NonConvexSupport(
                        f"boundary facet {facet} of cone {cone} does not "
                        "support the fan"
                    )


def _is_complete(fan: Fan) -> bool:
    return all(count == 2 for _, _, _, count in _facet_census(fan))


# ---------------------------------------------------- polarization discovery


def find_positive_form(classes) -> Vec | None:
    """An integer vector t with t . g >= 1 for every g in classes, or None.

    The classes must span their space Q^n.  Then the cone of forms
    {t : t . g >= 0 for all g} is pointed, and t is the sum of its extreme
    rays.  That sum is interior exactly when the cone is full-dimensional, and
    by Gordan's alternative the cone is full-dimensional exactly when some t is
    positive on every class; so an integer t . g is then >= 1, and None proves
    that no such t exists.  More than MAX_FORM_SUBSETS subsets of n - 1 classes
    raise PolicyMismatch before any is tried.
    """
    classes = [tuple(g) for g in classes]
    if not classes:
        return None
    n = len(classes[0])
    count = comb(len(classes), n - 1)
    if count > MAX_FORM_SUBSETS:
        raise PolicyMismatch(
            f"a positive form on {len(classes)} classes of rank {n} needs "
            f"{count} subsets, over the limit of {MAX_FORM_SUBSETS}"
        )
    rays = _extreme_rays(classes, n)
    t = tuple(sum(r[a] for r in rays) for a in range(n))
    if all(sum(a * b for a, b in zip(t, g)) >= 1 for g in classes):
        return t
    return None


def _wall_class(fan: Fan, cone, j) -> Vec:
    """The class d(I, j) = e_j - sum_{i in I} (u_i . b_j) e_i of ray j off cone I."""
    d = [0] * fan.n_rays
    d[j] = 1
    for i, c in fan.cone_coords(cone, fan.rays[j]).items():
        d[i] -= c
    return tuple(d)


def wall_classes(fan: Fan) -> list[Vec]:
    """The classes d(I, j) = e_j - sum_{i in I} (u_i . b_j) e_i, deduplicated.

    For a unimodular fan these freely generate C_I before summing over cones:
    the projection d -> (d_j)_{j not in I} is a lattice isomorphism onto
    Z^{m-D}, so the semigroup C_I cap kernel is free on exactly these classes.
    """
    return sorted({
        _wall_class(fan, cone, j)
        for cone in fan.max_cones
        for j in range(fan.n_rays)
        if j not in cone
    })


def _find_polarization(fan: Fan, user: Vec | None) -> Vec:
    walls = wall_classes(fan)
    if user is not None:
        user = tuple(int(x) for x in user)
        bad = [g for g in walls if sum(a * b for a, b in zip(user, g)) < 1]
        if bad:
            raise BadPolarization(
                f"polarization {user} is not >= 1 on wall class {bad[0]}"
            )
        return user
    if all(sum(g) >= 1 for g in walls):  # also when there are none
        return (1,) * fan.n_rays
    # a kernel class is determined by its coordinates off the splitting cone,
    # where that cone's own walls are the unit vectors, so the rows span
    free = [j for j in range(fan.n_rays) if j not in fan.splitting_cone]
    form = find_positive_form([tuple(g[j] for j in free) for g in walls])
    if form is None:
        raise NoStrictlyConvexSupportFunction(
            "no strictly convex support function exists for this fan"
        )
    t = [0] * fan.n_rays
    for j, x in zip(free, form):
        t[j] = x
    return tuple(t)


# --------------------------------------------------------------------- loading


def load_fan(source, require_polarization: bool = True) -> Fan:
    """Build and fully validate a Fan from a dict, JSON string, or file path."""
    if isinstance(source, (str, Path)):
        path = None
        try:
            if Path(source).exists():
                path = Path(source)
        except (OSError, ValueError):
            path = None
        text = path.read_text() if path is not None else str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FanError(f"not valid fan JSON: {exc}") from exc
        if "name" not in data and path is not None:
            data["name"] = path.stem.replace(".fan", "")
    elif isinstance(source, dict):
        data = dict(source)
    else:
        raise FanError(f"cannot load a fan from {type(source)!r}")

    try:
        dim = int(data["dim"])
        rays = tuple(tuple(int(c) for c in r) for r in data["rays"])
        cones = tuple(tuple(sorted(int(i) for i in c)) for c in data["max_cones"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FanError(f"malformed fan description: {exc}") from exc

    if not rays or any(len(r) != dim for r in rays):
        raise FanError("rays must be non-empty vectors of length dim")
    if len(set(rays)) != len(rays):
        raise FanError("duplicate rays")
    if any(all(c == 0 for c in r) for r in rays):
        raise FanError("zero ray")
    if not cones:
        raise FanError("no maximal cones")
    used = {i for c in cones for i in c}
    if used != set(range(len(rays))):
        raise FanError("every ray must appear in some maximal cone")
    if len(set(cones)) != len(cones):
        raise FanError("duplicate maximal cones")

    _check_unimodular(rays, cones, dim)

    cones = tuple(sorted(cones))
    splitting = data.get("splitting_cone")
    splitting = tuple(sorted(splitting)) if splitting else cones[0]
    if splitting not in cones:
        raise FanError(f"splitting_cone {splitting} is not a maximal cone")

    fan = Fan(data.get("name", "fan"), dim, rays, cones, None, splitting)
    _check_fan_gluing(fan)
    _check_support_convex(fan)
    if require_polarization or data.get("polarization") is not None:
        fan.polarization = _find_polarization(fan, data.get("polarization"))
    return fan


# ------------------------------------------------------------ point queries


def point_data(fan: Fan, k) -> PointData:
    """Cone decomposition of a lattice point of the support.

    The containing cone is chosen deterministically (first in sorted order);
    the decomposition itself does not depend on the choice.
    """
    k = tuple(int(c) for c in k)
    for cone in fan.max_cones:
        coords = fan.cone_coords(cone, k)
        if all(v >= 0 for v in coords.values()):
            psi = [0] * fan.n_rays
            for i, v in coords.items():
                psi[i] = v
            base = fan.cone_coords(fan.splitting_cone, k)
            beta = list(psi)
            for i, v in base.items():
                beta[i] -= v
            return PointData(k, cone, tuple(psi), sum(psi), tuple(beta))
    raise OutsideSupport(f"{k} is not in the support of fan {fan.name!r}")


def pairing_d(fan: Fan, k, l) -> Vec:
    """The curve class psi(k) + psi(l) - psi(k+l)."""
    pk = point_data(fan, k)
    pl = point_data(fan, l)
    ps = point_data(fan, tuple(a + b for a, b in zip(k, l)))
    return tuple(a + b - c for a, b, c in zip(pk.psi, pl.psi, ps.psi))


def is_effective(fan: Fan, d) -> bool:
    """Membership test for the effective semigroup: some cone sees d >= 0."""
    d = tuple(d)
    if any(
        sum(d[i] * fan.rays[i][a] for i in range(fan.n_rays))
        for a in range(fan.dim)
    ):
        return False
    return any(
        all(d[j] >= 0 for j in range(fan.n_rays) if j not in cone)
        for cone in fan.max_cones
    )


def enumerate_points(fan: Fan, cap: int) -> list[Vec]:
    """All lattice points of the support with norm <= cap, sorted by (norm, lex)."""
    seen: dict[Vec, int] = {}
    for cone in fan.max_cones:
        gens = [fan.rays[i] for i in cone]
        for total in range(cap + 1):
            for comp in _compositions(total, fan.dim):
                key = tuple(
                    sum(c * g[a] for c, g in zip(comp, gens)) for a in range(fan.dim)
                )
                if key not in seen:
                    seen[key] = total
    return sorted(seen, key=lambda p: (seen[p], p))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_effective(fan: Fan, cap: int) -> list[Vec]:
    """All effective classes with polarization degree <= cap.

    Authoritative route: bounded box scan over the kernel lattice with the
    single-cone membership test (this realizes saturation).  The wall classes
    generate the same set; tests cross-check the two.
    """
    if fan.polarization is None:
        raise PolarizationUnbounded("enumerate_effective needs a polarization")
    if cap < 0:
        return []
    walls = wall_classes(fan)
    m = fan.n_rays
    if not walls:
        return [(0,) * m]
    bounds = [cap * max(abs(w[j]) for w in walls) for j in range(m)]
    # the kernel lattice is parametrized by the coordinates outside the
    # splitting cone (unimodularity), so scan those and solve for the rest
    free = [j for j in range(m) if j not in fan.splitting_cone]
    size = prod(2 * bounds[j] + 1 for j in free)
    if size > MAX_EFFECTIVE_BOX:
        raise PolicyMismatch(
            f"effective classes of degree <= {cap} on {fan.name!r} need a box "
            f"scan of {size} points, over the limit of {MAX_EFFECTIVE_BOX}"
        )
    basis = {j: _wall_class(fan, fan.splitting_cone, j) for j in free}
    out = []
    for combo in itertools.product(
        *[range(-bounds[j], bounds[j] + 1) for j in free]
    ):
        d = [0] * m
        for n, j in zip(combo, free):
            if n:
                for a in range(m):
                    d[a] += n * basis[j][a]
        t = tuple(d)
        if fan.degree(t) > cap:
            continue
        if any(abs(x) > b for x, b in zip(t, bounds)):
            continue
        if is_effective(fan, t):
            out.append(t)
    return sorted(out, key=lambda d: (fan.degree(d), d))


def fixed_point_weights(fan: Fan, x) -> tuple[Vec, ...]:
    """Equivariant weights of the ray classes at the fixed point of cone x.

    Returns one vector per ray: the coefficients of u_i restricted to the
    fixed point, expressed in the equivariant parameters; rays outside the
    cone restrict to zero.
    """
    cone = tuple(sorted(x))
    if cone not in fan.duals:
        raise FanError(f"{cone} is not a maximal cone of {fan.name!r}")
    return tuple(
        fan.duals[cone][i] if i in cone else (0,) * fan.dim
        for i in range(fan.n_rays)
    )


def fan_fingerprint(fan: Fan) -> str:
    """Stable content hash of the validated fan (used to key artifacts)."""
    import hashlib

    blob = json.dumps(fan.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


__all__ = [
    "Fan",
    "PointData",
    "load_fan",
    "point_data",
    "pairing_d",
    "is_effective",
    "enumerate_points",
    "enumerate_effective",
    "fixed_point_weights",
    "wall_classes",
    "find_positive_form",
    "fan_fingerprint",
]
