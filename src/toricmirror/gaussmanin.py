"""Shift-operator module over the deformation base and its quantum transport.

The module is free over scalar coefficient series, with one generator w^k per
lattice point k of the fan support.  A point k acts by translating the
generator index, weighted by the Novikov cocycle Q^{d(k,l)}; the equivariant
parameters act componentwise through a lambda-action; and differentiating
the superpotential gives a connection that is flat along the stored
deformation directions.

The module is the w-algebra of `engine`: its shift, product and transport
are `engine.w_shift`, `engine.w_multiply` and `engine.w_transport`, which
`gm_multiply`, `gm_lambda_action` and `theta_apply` call.  Every quantum
product here is one of `engine.frame_products`, the one Seidel-frame product.

`theta_apply` transports module elements to cohomology-valued series through
the columns of the positive Birkhoff factor, and `check_theta` replays the
identities that make this transport compatible with the quantum product: it
transports the module connection `gm_connection` and compares the image
with the quantum connection on the same columns.
`noneq_restrict` descends the whole package along a chosen section of the
non-equivariant cohomology and certifies the restricted family as a
universal unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .cohomology import NoneqBasis, lambda_class
from .engine import (
    MirrorData,
    _add_into,
    frame_products,
    w_multiply,
    w_shift,
    w_transport,
)
from .errors import (
    IdentityViolation,
    PolicyMismatch,
    PropertyViolation,
    RankDeficientUnfolding,
    SectionNotALift,
    SingularJacobian,
)
from .linalg import QQ, ZERO, canon, mat_inv, rref
from .series import (
    Context,
    HSeries,
    _key_shift,
    compose,
    exp_series,
    invert_map,
)

# A module element is a map {generator index -> scalar coefficient series}.
# Coefficients live on the unit class of the cohomology basis but may carry
# arbitrary z powers within the policy window.
GMElement = dict[int, HSeries]


# ----------------------------------------------------------- small helpers


def _as_pidx(ctx: Context, k) -> int:
    """Resolve a lattice point (tuple) or raw index to a basis point index."""
    if isinstance(k, int):
        if not 0 <= k < len(ctx.points):
            raise PolicyMismatch(f"basis point index {k} out of range")
        return k
    key = tuple(int(c) for c in k)
    pidx = ctx.pindex.get(key)
    if pidx is None:
        raise PolicyMismatch(f"point {key} is not in the stored window")
    return pidx


def gm_element(ctx: Context, k, coeff: HSeries | None = None) -> GMElement:
    """The element coeff * w^k (coeff defaults to 1)."""
    pidx = _as_pidx(ctx, k)
    return {pidx: HSeries.unit(ctx) if coeff is None else coeff}


def gm_add(a: GMElement, b: GMElement) -> GMElement:
    out = {p: s for p, s in a.items() if not s.is_zero()}
    for p, s in b.items():
        _add_into(out, p, s)
    return {p: s for p, s in out.items() if not s.is_zero()}


# ------------------------------------------------------- module operations


def gm_multiply(ctx: Context, k, v: GMElement, strict: bool = True) -> GMElement:
    """Act by the lattice point k: w^k . (f w^l) = Q^{d(k,l)} f w^{k+l}.

    With strict=True (default) a translation that leaves the stored window
    raises TruncationLoss; otherwise such terms are dropped, which is the
    quotient semantics used by the internal identity checks.
    """
    return w_shift(ctx, _as_pidx(ctx, k), v, strict)


def lambda_element(ctx: Context, i: int) -> GMElement:
    """lambda_i as a module element: sum_j (b_j)_i w^{b_j} + sum_k k_i y_k w^k.

    j runs over the rays, whose deformation coordinate is 1 on the slice,
    and k over the active deformation points.
    """
    if not 0 <= i < ctx.fan.dim:
        raise PolicyMismatch(f"no equivariant direction {i}")
    out: GMElement = {}
    for j, rp in enumerate(ctx.ray_pidx):
        _add_into(out, rp, HSeries.phi(ctx, ctx.unit_pidx, coeff=ctx.fan.rays[j][i]))
    for vidx, gv in enumerate(ctx.gvars):
        ki = ctx.points[gv.pidx].point[i]
        _add_into(out, gv.pidx, HSeries.variable(ctx, vidx).scale(ki))
    return out


def gm_lambda_action(ctx: Context, i: int, v: GMElement) -> GMElement:
    """Action of the i-th equivariant parameter.

    lambda_i . (f w^l) = z l_i f w^l
                       + sum_j (b_j)_i Q^{d(b_j,l)} f w^{b_j+l}
                       + sum_k k_i y_k Q^{d(k,l)} f w^{k+l}
    where j runs over rays (whose deformation coordinate is 1 on the slice)
    and k over the active deformation points; that is, z l_i f w^l plus the
    module product of `lambda_element(ctx, i)` with f w^l.  Out-of-window
    translations are dropped, matching the ambient truncation quotient.
    """
    lam = lambda_element(ctx, i)
    diag = {lp: f.z_shift(1).scale(ctx.points[lp].point[i]) for lp, f in v.items()}
    return gm_add(diag, w_multiply(ctx, lam, v))


def gm_connection(ctx: Context, k, v: GMElement) -> GMElement:
    """Covariant derivative along the deformation direction of the point k.

    For an active point the horizontal part is the plain partial derivative
    in its variable; for a ray b_i it is the Novikov/variable gauge operator
    plus the diagonal weight psi_i(l) that the slice normalization attaches
    to the generator w^l.  Both get the singular term z^{-1} w^k .
    """
    kp = _as_pidx(ctx, k)
    out: GMElement = {}
    if kp in ctx.ray_pidx:
        i = ctx.ray_pidx.index(kp)
        for lp, f in v.items():
            base = f.ray_gauge(i)
            psi = ctx.points[lp].psi[i]
            if psi:
                base = base + f.scale(psi)
            _add_into(out, lp, base)
    else:
        if kp not in ctx.var_index:
            raise PolicyMismatch(
                f"point {ctx.points[kp].point} has no deformation variable"
            )
        vidx = ctx.var_index[kp]
        for lp, f in v.items():
            _add_into(out, lp, f.derive_var(vidx))
    for tp, s in gm_multiply(ctx, kp, v, strict=False).items():
        _add_into(out, tp, s.z_shift(-1))
    return {p: s for p, s in out.items() if not s.is_zero()}


# ------------------------------------------------------------ the transport


def theta_apply(md: MirrorData, v: GMElement) -> HSeries:
    """Transport a module element through the positive-factor columns."""
    return w_transport(md.ctx, v, md.P.cols)


def _difference(lhs: HSeries, rhs: HSeries, ycap: int | None, kcap: int) -> HSeries:
    if ycap is not None:
        lhs, rhs = lhs.y_degree_part(ycap), rhs.y_degree_part(ycap)
    return lhs.degree_cap(kcap) - rhs.degree_cap(kcap)


def _witness(diff: HSeries) -> dict:
    recs = diff.records()
    return recs[0] if recs else {}


def check_theta(md: MirrorData, strict: bool = True) -> list[dict]:
    """Replay the structural identities of the transport; report per property.

    Identities are compared on basis components of degree at most Kcoh (the
    user window); identities that differentiate in an active variable are
    additionally compared at variable degree at most Gcap-1, which is the
    order to which the derivative of a truncated series is complete.  Raises
    PropertyViolation on the first failure when strict, otherwise records
    the failure in the returned report, a class the Seidel frame does not
    span included.  Each class is solved in the frame once per call.
    """
    ctx = md.ctx
    pol = ctx.policy
    kcoh, gcap = pol.kcoh, pol.gcap
    cols = [p for p in range(len(ctx.points)) if ctx.norms[p] <= kcoh]
    actives = [(gv.pidx, vidx) for vidx, gv in enumerate(ctx.gvars)]
    rays = list(enumerate(ctx.ray_pidx))
    report: list[dict] = []
    product = frame_products(md)
    theta = partial(w_transport, ctx, cols=md.P.cols, by_deg={})

    def emit(name: str, checked: int, skipped: int, failures: list[dict]):
        entry = {
            "property": name,
            "fan": ctx.fan.name,
            "order": pol.label(),
            "checked": checked,
            "skipped": skipped,
            "status": "fail" if failures else "pass",
        }
        if failures:
            entry["witness"] = failures[0]
            if strict:
                raise PropertyViolation(
                    f"{name} failed on fan {ctx.fan.name!r}: {failures[0]}"
                )
        report.append(entry)

    # (1) the unit generator maps to the normalized unit section
    diff = theta(gm_element(ctx, ctx.unit_pidx)) - md.upsilon
    emit("theta-unit", 1, 0, [] if diff.is_zero() else [_witness(diff)])

    # (2) transport intertwines the shift action with the column cocycle
    fails, done, skip = [], 0, 0
    for kp, _ in actives[:2] + [(rp, None) for _, rp in rays[:2]]:
        for lp in cols:
            hit = ctx.translate(kp, lp)
            if hit is None:
                skip += 1
                continue
            tp, de = hit
            lhs = theta(gm_multiply(ctx, kp, gm_element(ctx, lp), strict=False))
            rhs = _key_shift(md.P.col(tp), de, (), 0)
            done += 1
            if lhs != rhs:
                fails.append({"k": ctx.points[kp].point, "l": ctx.points[lp].point})
    emit("theta-shift", done, skip, fails)

    # (3) the transported module connection is the quantum connection
    def connection(name: str, dirs: list, ycap: int | None, label: str):
        """dirs: (point, horizontal derivative, witness value) per direction."""
        fails, done, skip = [], 0, 0
        for kp, derive, where in dirs:
            for lp in cols:
                if ctx.translate(kp, lp) is None:
                    skip += 1
                    continue
                col = md.P.col(lp)
                done += 1
                try:
                    prod = product(("S", kp), md.S[kp], ("P", lp), col)
                except IdentityViolation as exc:
                    fails.append({label: where, "l": ctx.points[lp].point, "error": str(exc)})
                    continue
                rhs = theta(gm_connection(ctx, kp, gm_element(ctx, lp))).z_shift(1)
                diff = _difference(derive(col).z_shift(1) + prod, rhs, ycap, kcoh)
                if not diff.is_zero():
                    fails.append(
                        {label: where, "l": ctx.points[lp].point, "diff": _witness(diff)}
                    )
        emit(name, done, skip, fails)

    connection(
        "theta-connection-active",
        [(kp, lambda s, v=vidx: s.derive_var(v), ctx.points[kp].point) for kp, vidx in actives],
        gcap - 1,
        "k",
    )
    connection(
        "theta-connection-ray",
        [(rp, lambda s, i=i: s.ray_gauge(i), ctx.fan.rays[i]) for i, rp in rays],
        None,
        "ray",
    )

    # (4) transport intertwines the lambda-action with cup product
    fails, done, skip = [], 0, 0
    for i in range(ctx.fan.dim):
        cls = lambda_class(ctx, tuple(int(a == i) for a in range(ctx.fan.dim)))
        for lp in cols:
            if ctx.norms[lp] > kcoh - 1:
                skip += 1
                continue
            lhs = theta(gm_lambda_action(ctx, i, gm_element(ctx, lp)))
            rhs = cls * md.P.col(lp)
            diff = _difference(lhs, rhs, None, kcoh)
            done += 1
            if not diff.is_zero():
                fails.append(
                    {"i": i, "l": ctx.points[lp].point, "diff": _witness(diff)}
                )
    emit("theta-lambda", done, skip, fails)

    # (5) weight homogeneity of every transported generator
    fails = []
    for kp, col in md.P.cols.items():
        if not col.is_homogeneous(ctx.norms[kp]):
            fails.append({"k": ctx.points[kp].point, "weights": sorted(col.weights())})
    if not md.tau.is_homogeneous(1):
        fails.append({"target": "mirror map", "weights": sorted(md.tau.weights())})
    if not md.upsilon.is_homogeneous(0):
        fails.append({"target": "unit section", "weights": sorted(md.upsilon.weights())})
    emit("theta-grading", len(md.P.cols) + 2, 0, fails)

    return report


def jacobi_structure_constants(md: MirrorData, strict: bool = True) -> dict:
    """Structure constants of the shift-operator basis under the transport.

    For basis points k, l inside the user window the transported product is
    a single Novikov-weighted basis element:
        S_k * S_l = Q^{d(k,l)} S_{k+l}.
    The product expands both factors in the S frame, so a pair also fails
    when one of its three classes is not phi_k at order zero: the frame
    solve would absorb such a term instead of exposing it.  Returns the
    table of pairs together with a pass/fail status for each; failures
    raise PropertyViolation when strict.  Each S_k is solved once per call;
    one the frame does not span fails its pairs, the message as witness.
    """
    ctx = md.ctx
    kcoh = ctx.policy.kcoh
    pts = [p for p in range(len(ctx.points)) if ctx.norms[p] <= kcoh]
    normal = {p: s.order_part(0) == HSeries.phi(ctx, p) for p, s in md.S.items()}
    rows = []
    bad = 0
    product = frame_products(md)
    for kp in pts:
        for lp in pts:
            if lp < kp or ctx.norms[kp] + ctx.norms[lp] > kcoh:
                continue
            hit = ctx.translate(kp, lp)
            if hit is None:
                continue
            tp, de = hit
            try:
                prod, error = product(kp, md.S[kp], lp, md.S[lp]), {}
            except IdentityViolation as exc:
                prod, error = None, {"witness": str(exc)}
            ok = normal[kp] and normal[lp] and normal[tp]
            ok = ok and prod == _key_shift(md.S[tp], de, (), 0)
            if not ok:
                bad += 1
                if strict:
                    raise PropertyViolation(
                        f"structure constant mismatch at k={ctx.points[kp].point}, "
                        f"l={ctx.points[lp].point}"
                    )
            rows.append(
                {
                    "k": list(ctx.points[kp].point),
                    "l": list(ctx.points[lp].point),
                    "pairing": list(ctx.eff[de]),
                    "target": list(ctx.points[tp].point),
                    "status": "pass" if ok else "fail",
                    **error,
                }
            )
    return {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "pairs": rows,
        "failures": bad,
    }


# ----------------------------------------- descent to a non-equivariant basis


@dataclass
class NoneqRestriction:
    """A mirror family restricted along a section of non-equivariant classes.

    The section picks one lattice point per basis class.  Points of degree
    other than one must carry a deformation variable; the solved curve makes
    the degree-c coordinate of the reduced mirror map equal to the parameter
    s_c exactly (measured from the reduced base point).  Degree-one
    directions have no variable of their own: they act through Novikov
    rescaling, and their riding coordinates are removed from every reported
    series by the exact exponential divisor rule.
    """

    md: MirrorData
    basis: NoneqBasis
    section: list[tuple[int, ...]]
    generators: list[dict]
    activated: list[tuple[int, int]]       # (generator slot, variable index)
    divisors: list[tuple[int, int]]        # (generator slot, ray index)
    cinv: list[list]                       # inverse of the section's class matrix
    base_coords: dict[int, HSeries]
    curve: dict[int, HSeries]
    riders: dict[int, HSeries]
    tangent_matrix: list[list]
    rank: int = 0
    potential: list[dict] = field(default_factory=list)
    products: list[dict] = field(default_factory=list)

    # -- coordinate machinery ------------------------------------------

    def coordinates_of(self, target: HSeries) -> dict[int, HSeries]:
        """Coordinates of a reduced series in the section's class basis."""
        ctx = self.md.ctx
        red = self.basis.reduce_series(target)
        reps = self.basis.representatives()
        pos = {p: a for a, p in enumerate(reps)}
        n = len(reps)
        coords: dict[int, dict] = {a: {} for a in range(n)}
        for (eidx, g), inner in red.terms.items():
            for z in {zz for (_, zz) in inner}:
                vec = [ZERO] * n
                for (p, zz), c in inner.items():
                    if zz == z:
                        vec[pos[p]] = QQ(c)
                for a in range(n):
                    val = sum((self.cinv[a][b] * vec[b] for b in range(n)), ZERO)
                    if val:
                        coords[a].setdefault((eidx, g), {})[
                            (ctx.unit_pidx, z)
                        ] = canon(val)
        return {a: HSeries(ctx, coords[a]) for a in range(n)}

    def restrict_scalar(self, s: HSeries) -> HSeries:
        """Evaluate a scalar y-series along the curve, divisor-corrected.

        Non-activated variables are set to zero, activated ones follow the
        solved curve, and every Novikov power Q^d picks up the exponential
        factor that moves the riding degree-one coordinates back to zero.
        """
        ctx = self.md.ctx
        allowed = {v for _, v in self.activated}
        kept = {
            key: dict(inner)
            for key, inner in s.terms.items()
            if all(v in allowed for v, _ in key[1])
        }
        composed = compose(HSeries(ctx, kept), self.curve)
        if not self.divisors:
            return composed
        groups: dict[int, dict] = {}
        for (eidx, g), inner in composed.terms.items():
            groups.setdefault(eidx, {})[(eidx, g)] = dict(inner)
        out = HSeries.zero(ctx)
        cache: dict[tuple, HSeries] = {}
        for eidx, td in sorted(groups.items()):
            d = ctx.eff[eidx]
            pair = tuple(d[j] for _, j in self.divisors)
            factor = cache.get(pair)
            if factor is None:
                arg = HSeries.zero(ctx)
                for (a, j), w in zip(self.divisors, pair):
                    if w:
                        arg = arg + self._full_rider(a).scale(-w)
                factor = exp_series(arg)
                cache[pair] = factor
            out = out + HSeries(ctx, td) * factor
        return out

    def _full_rider(self, a: int) -> HSeries:
        rider = self.riders[a]
        base = self.base_coords.get(a)
        return rider if base is None else rider + base

    def parameter_records(self, s: HSeries) -> list[dict]:
        """Series records with activated variables renamed to parameters.

        A restricted series lives in the activated variable slots, read as
        the section parameters; renaming them to their generator slot makes
        records comparable across different lifts of the same classes.
        """
        ctx = self.md.ctx
        slot_of = {}
        for a, v in self.activated:
            gv = ctx.gvars[v]
            slot_of[tuple(ctx.points[gv.pidx].point)] = a
        recs = s.records()
        for r in recs:
            r["gexp"] = sorted(
                [["s", slot_of[tuple(pt)], e] for pt, _, e in r["gexp"]]
            )
        return recs

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        ctx = self.md.ctx
        return {
            "fan": ctx.fan.name,
            "order": ctx.policy.label(),
            "splitting_cone": list(ctx.fan.splitting_cone),
            "section": [list(p) for p in self.section],
            "generators": self.generators,
            "base_coordinates": {
                str(a): s.records() for a, s in sorted(self.base_coords.items())
            },
            "curve": {
                str(a): self.parameter_records(self.curve[v])
                for a, v in self.activated
            },
            "riders": {
                str(a): self.parameter_records(s)
                for a, s in sorted(self.riders.items())
            },
            "tangent_matrix": [[str(x) for x in row] for row in self.tangent_matrix],
            "rank": self.rank,
            "potential": self.potential,
            "products": self.products,
        }


def noneq_restrict(md: MirrorData, section=None, products: bool = True) -> NoneqRestriction:
    """Restrict the mirror family along a section of non-equivariant classes.

    `section` lists one lattice point per basis class, ordered to match
    NoneqBasis.representatives() (by degree, then stored point order); the
    default takes the representatives themselves.  The reductions of the
    section points must form a basis (SectionNotALift otherwise) and the
    restricted family must pass the unfolding tangent rank test
    (RankDeficientUnfolding otherwise).
    """
    ctx = md.ctx
    nb = NoneqBasis(ctx)
    reps = nb.representatives()
    n = len(reps)
    if section is None:
        sec_pts = [ctx.points[p].point for p in reps]
    else:
        sec_pts = [tuple(int(c) for c in p) for p in section]
    if len(sec_pts) != n:
        raise SectionNotALift(
            f"section has {len(sec_pts)} points, basis has {n} classes"
        )
    sec_pidx = []
    for pt in sec_pts:
        pidx = ctx.pindex.get(pt)
        if pidx is None:
            raise SectionNotALift(f"section point {pt} is outside the window")
        sec_pidx.append(pidx)
    for pidx, rep in zip(sec_pidx, reps):
        if ctx.norms[pidx] != ctx.norms[rep]:
            raise SectionNotALift(
                f"section point {ctx.points[pidx].point} has degree "
                f"{ctx.norms[pidx]}, expected {ctx.norms[rep]}"
            )

    pos = {p: a for a, p in enumerate(reps)}
    cmatrix = [[ZERO] * n for _ in range(n)]
    for a, pidx in enumerate(sec_pidx):
        red = nb.reduce_class({pidx: QQ(1)})
        for p, c in red.items():
            cmatrix[pos[p]][a] = QQ(c)
    try:
        cinv = mat_inv(cmatrix)
    except ZeroDivisionError:
        raise SectionNotALift("section reductions do not form a basis") from None

    activated: list[tuple[int, int]] = []
    divisors: list[tuple[int, int]] = []
    generators: list[dict] = []
    for a, pidx in enumerate(sec_pidx):
        info = {"slot": a, "point": list(ctx.points[pidx].point),
                "degree": ctx.norms[pidx]}
        if ctx.norms[pidx] == 1:
            i = ctx.ray_pidx.index(pidx)
            divisors.append((a, i))
            info["kind"] = "divisor"
            info["ray"] = i
        else:
            if pidx not in ctx.var_index:
                raise SectionNotALift(
                    f"section point {ctx.points[pidx].point} has no "
                    "deformation variable at this policy"
                )
            vidx = ctx.var_index[pidx]
            activated.append((a, vidx))
            info["kind"] = "active"
            info["variable"] = vidx
        generators.append(info)

    restriction = NoneqRestriction(
        md=md, basis=nb, section=sec_pts, generators=generators,
        activated=activated, divisors=divisors, cinv=cinv,
        base_coords={}, curve={}, riders={}, tangent_matrix=[],
    )

    # coordinates of the mirror map in the section's class basis, with the
    # non-activated variables frozen at zero
    coords = restriction.coordinates_of(md.tau)
    allowed = {v for _, v in activated}
    base_coords: dict[int, HSeries] = {}
    reduced: dict[int, HSeries] = {}
    for a in range(n):
        kept: dict = {}
        for (eidx, g), inner in coords[a].terms.items():
            if any(v not in allowed for v, _ in g):
                continue
            if not g:
                base_coords.setdefault(a, HSeries.zero(ctx))
                base_coords[a] = base_coords[a] + HSeries(ctx, {(eidx, g): dict(inner)})
            else:
                kept[(eidx, g)] = dict(inner)
        reduced[a] = HSeries(ctx, kept)
    restriction.base_coords = base_coords

    # solve the curve: the activated coordinates become the parameters
    try:
        curve = invert_map({v: reduced[a] for a, v in activated})
    except SingularJacobian as exc:
        raise RankDeficientUnfolding(
            f"activated directions do not unfold: {exc}"
        ) from None
    restriction.curve = curve

    composed = {a: compose(reduced[a], curve) for a in range(n)}
    for a, v in activated:
        if composed[a] != HSeries.variable(ctx, v):
            raise RankDeficientUnfolding(
                f"coordinate {a} failed to linearize along the curve"
            )
    restriction.riders = {a: composed[a] for a, _ in divisors}

    # unfolding tangent rank, recomputed from the composed coordinates
    tangent = [[ZERO] * n for _ in range(n)]
    for a, v in activated:
        for b in range(n):
            der = composed[b].derive_var(v)
            tangent[b][a] = QQ(
                der.terms.get((ctx.zero_eidx, ()), {}).get((ctx.unit_pidx, 0), 0)
            )
    for a, _ in divisors:
        tangent[a][a] = QQ(1)
    restriction.tangent_matrix = tangent
    _, pivots = rref(tangent)
    restriction.rank = len(pivots)
    if restriction.rank < n:
        raise RankDeficientUnfolding(
            f"unfolding tangent rank {restriction.rank} < {n}"
        )

    # the restricted superpotential, recorded against the split Novikov form
    # w^{psi(k)} = Q^{beta(k)} x^k
    terms = []
    for j, rp in enumerate(ctx.ray_pidx):
        terms.append(
            {
                "point": list(ctx.points[rp].point),
                "beta": list(ctx.points[rp].beta),
                "coefficient": HSeries.unit(ctx).records(),
            }
        )
    for a, v in activated:
        pidx = sec_pidx[a]
        terms.append(
            {
                "point": list(ctx.points[pidx].point),
                "beta": list(ctx.points[pidx].beta),
                "coefficient": restriction.parameter_records(curve[v]),
            }
        )
    restriction.potential = terms

    if products:
        table = []
        product = frame_products(md)
        phis = [HSeries.phi(ctx, p) for p in sec_pidx]
        for a in range(n):
            for b in range(a, n):
                prod = product(a, phis[a], b, phis[b])
                pc = restriction.coordinates_of(prod)
                table.append(
                    {
                        "a": a,
                        "b": b,
                        "coords": {
                            str(c): restriction.parameter_records(
                                restriction.restrict_scalar(pc[c])
                            )
                            for c in range(n)
                        },
                    }
                )
        restriction.products = table

    return restriction


__all__ = [
    "GMElement",
    "NoneqRestriction",
    "check_theta",
    "gm_add",
    "gm_connection",
    "gm_element",
    "gm_lambda_action",
    "gm_multiply",
    "jacobi_structure_constants",
    "lambda_element",
    "noneq_restrict",
    "theta_apply",
]
