"""Structural identity checks: fixed-point localization, property suites,
and an enumerative cross-check against a classical recursion.

The localization checks work with coefficients kept in *factored* form: a
rational scalar times a product of integer linear forms in the equivariant
parameters and z, with signed exponents.  Factored coefficients compare
exactly (unique factorization of primitive linear forms), so the shift
identity satisfied by the hypergeometric series at each torus fixed point
can be verified without expanding any denominators.
"""

from dataclasses import replace
from math import comb, factorial, gcd

from . import fans
from .cohomology import lambda_class, poincare_integral
from .engine import (
    _check_flow_identities,
    compute_mirror_data,
    primitive_form,
    quantum_product,
    w_transport,
)
from .errors import (
    IdentityViolation,
    MismatchedInvariant,
    PolicyMismatch,
    PropertyViolation,
    ToricMirrorError,
)
from .gaussmanin import (
    check_theta,
    jacobi_structure_constants,
    lambda_element,
    noneq_restrict,
)
from .series import QQ, Context, HSeries, TruncationPolicy, g_deg, g_merge

__all__ = [
    "LinearFraction",
    "LocalizedSeries",
    "localization_check",
    "run_property_suite",
    "negative_controls",
    "wdvv_oracle_p2",
    "wdvv_compare",
]


# ---------------------------------------------------------- factored forms
#
# A linear form is an integer vector (a_1, ..., a_D, c) standing for
# a.lambda + c z.  Canonical representatives have content 1 and positive
# leading coefficient; the extracted content and sign move into the scalar.


def _canonical_form(vec):
    """Primitive representative of an integer linear form.

    Returns (form, m) with vec == m * form, form content-1 with positive
    leading entry; (None, 0) for the zero form.
    """
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        return None, 0
    v = tuple(x // g for x in vec)
    for x in v:
        if x > 0:
            return v, g
        if x < 0:
            return tuple(-y for y in v), -g
    return v, g


def _render_form(form, dim):
    parts = []
    for i, a in enumerate(form):
        if not a:
            continue
        sym = "z" if i == dim else f"L{i + 1}"
        if a == 1:
            term = sym
        elif a == -1:
            term = f"-{sym}"
        else:
            term = f"{a}{sym}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) or "0"


class LinearFraction:
    """A rational scalar times a product of linear forms with signed powers."""

    __slots__ = ("scalar", "factors")

    def __init__(self, scalar, factors=()):
        scalar = QQ(scalar)
        if scalar == 0:
            factors = ()
        self.scalar = scalar
        self.factors = tuple(factors)

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    def is_zero(self):
        return self.scalar == 0

    def scale(self, q):
        return LinearFraction(self.scalar * QQ(q), self.factors)

    def times_form(self, vec, power=1):
        """Multiply by (a.lambda + c z)^power, canonicalizing the form."""
        if power == 0 or self.scalar == 0:
            return self
        form, m = _canonical_form(vec)
        if form is None:
            if power > 0:
                return LinearFraction.zero()
            raise ZeroDivisionError("division by a vanishing linear form")
        scalar = self.scalar * QQ(m) ** power
        d = dict(self.factors)
        e = d.get(form, 0) + power
        if e:
            d[form] = e
        else:
            del d[form]
        return LinearFraction(scalar, sorted(d.items()))

    def __mul__(self, other):
        if self.scalar == 0 or other.scalar == 0:
            return LinearFraction.zero()
        d = dict(self.factors)
        for form, e in other.factors:
            e2 = d.get(form, 0) + e
            if e2:
                d[form] = e2
            else:
                del d[form]
        return LinearFraction(self.scalar * other.scalar, sorted(d.items()))

    def shifted(self, k):
        """Substitute lambda -> lambda - k z into every factor."""
        out = LinearFraction(self.scalar)
        for form, e in self.factors:
            a, c = form[:-1], form[-1]
            out = out.times_form(a + (c - sum(x * y for x, y in zip(a, k)),), e)
        return out

    def __eq__(self, other):
        if not isinstance(other, LinearFraction):
            return NotImplemented
        return self.scalar == other.scalar and self.factors == other.factors

    def __hash__(self):
        return hash((self.scalar, self.factors))

    def __str__(self):
        if self.scalar == 0:
            return "0"
        dim = len(self.factors[0][0]) - 1 if self.factors else 0
        num, den = [], []
        for form, e in self.factors:
            txt = _render_form(form, dim)
            (num if e > 0 else den).append(
                f"({txt})" if abs(e) == 1 else f"({txt})^{abs(e)}"
            )
        body = str(self.scalar)
        if num:
            body += " " + " ".join(num)
        if den:
            body += " / " + " ".join(den)
        return body

    __repr__ = __str__

    def to_dict(self):
        return {
            "scalar": str(self.scalar),
            "factors": [[list(form), e] for form, e in self.factors],
        }


# ------------------------------------------------- localized hypergeometry


class LocalizedSeries:
    """The hypergeometric series restricted to one torus fixed point.

    Coefficients are produced on demand from the per-ray exponents, one
    factored monomial per (Novikov class, variable monomial) key; off-cone
    rays restrict to zero, which turns their nonnegative-exponent factors
    into pure z powers and kills any term with a negative exponent there.
    """

    def __init__(self, ctx: Context, cone):
        self.ctx = ctx
        self.cone = tuple(cone)
        self.weights = fans.fixed_point_weights(ctx.fan, self.cone)
        self.zform = (0,) * ctx.fan.dim + (1,)
        self._cache: dict = {}

    def coefficient(self, d_vec, g) -> LinearFraction:
        key = (tuple(d_vec), g)
        if key in self._cache:
            return self._cache[key]
        out = self._coefficient(*key)
        self._cache[key] = out
        return out

    def _coefficient(self, d_vec, g):
        if not fans.is_effective(self.ctx.fan, d_vec):
            return LinearFraction.zero()
        gsum = g_deg(g)
        lf = LinearFraction.one()
        for _, e in g:
            lf = lf.scale(QQ(1, factorial(e)))
        lf = lf.times_form(self.zform, 1 - gsum)
        for i, ell in enumerate(self.ctx.ray_exponents(d_vec, g)):
            u = self.weights[i]
            if ell > 0:
                for c in range(1, ell + 1):
                    lf = lf.times_form(u + (c,), -1)
            elif ell < 0:
                for c in range(ell + 1, 1):
                    lf = lf.times_form(u + (c,), 1)
                    if lf.is_zero():
                        return lf
        return lf


def _direction_data(ctx: Context, k):
    """Classify a direction point: ray index or deformation-variable index."""
    k = tuple(int(x) for x in k)
    pd = fans.point_data(ctx.fan, k)
    kp = ctx.pindex.get(k)
    if kp is None:
        raise PolicyMismatch(f"direction {k} is beyond the working window")
    if kp in ctx.ray_pidx:
        return k, pd, ctx.ray_pidx.index(kp), None
    vidx = ctx.var_index.get(("y", kp, 0))
    if vidx is None:
        raise PolicyMismatch(f"direction {k} has no deformation variable")
    return k, pd, None, vidx


def localization_check(subject, k, policy=None, strict=True, _twist=None):
    """Check the shift identity for one direction at every torus fixed point.

    For each maximal cone x, each Novikov class d and variable monomial g,
    the localized series must satisfy (coefficientwise, in factored form)

        z d_k I_x            (variable direction), or
        (u_k(x) + ell_k z) I_x   (ray direction)
      ==  Delta_x(k) * [I_x shifted by lambda -> lambda - k z] * Q^{shift},

    where the Novikov shift is psi(k) minus the cone coordinates of k at x
    and Delta_x(k) is the finite weight ratio of the fixed point.  Returns
    one report entry per fixed point; raises IdentityViolation when strict.
    """
    ctx = _as_context(subject, policy)
    fan = ctx.fan
    k, pd, ray_i, vidx = _direction_data(ctx, k)

    def coeff(loc, d_vec, g):
        c = loc.coefficient(d_vec, g)
        if _twist is not None and (tuple(d_vec), g) == _twist:
            return c.scale(2)
        return c

    entries = []
    for cone in fan.max_cones:
        loc = LocalizedSeries(ctx, cone)
        coords = [sum(w * x for w, x in zip(wv, k)) for wv in loc.weights]
        qshift = tuple(p - c for p, c in zip(pd.psi, coords))
        delta = LinearFraction.one()
        for i, c in enumerate(coords):
            a = -c
            if a > 0:
                for cc in range(1, a + 1):
                    delta = delta.times_form(loc.weights[i] + (cc,), -1)
            elif a < 0:
                for cc in range(a + 1, 1):
                    delta = delta.times_form(loc.weights[i] + (cc,), 1)
        checked = 0
        witness = None
        for d in ctx.eff:
            for g in ctx.g_monomials:
                if ray_i is not None:
                    ell = ctx.ray_exponents(d, g)[ray_i]
                    lhs = coeff(loc, d, g).times_form(
                        loc.weights[ray_i] + (ell,), 1
                    )
                else:
                    g2 = g_merge(g, ((vidx, 1),))
                    mult = dict(g2)[vidx]
                    lhs = coeff(loc, d, g2).scale(mult).times_form(loc.zform, 1)
                dp = tuple(a - b for a, b in zip(d, qshift))
                rhs = delta * coeff(loc, dp, g).shifted(k)
                checked += 1
                if lhs != rhs:
                    witness = {
                        "novikov": list(d),
                        "monomial": [
                            [list(ctx.points[ctx.gvars[v].pidx].point), e]
                            for v, e in g
                        ],
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }
                    if strict:
                        raise IdentityViolation(
                            f"localization failure at fixed point {cone}, "
                            f"direction {k}, class {tuple(d)}, monomial {g}: "
                            f"{lhs} != {rhs}"
                        )
                    break
            if witness:
                break
        entry = {
            "property": "localization",
            "fan": fan.name,
            "order": ctx.policy.label(),
            "point": list(k),
            "fixed_point": list(cone),
            "checked": checked,
            "status": "fail" if witness else "pass",
        }
        if witness:
            entry["witness"] = witness
        entries.append(entry)
    return entries


# --------------------------------------------------------- property suite

_DEFAULT_CAPS = dict(kcoh=3, kvar=2, qcap=3, gcap=2, zneg=10)


def _as_context(fan, policy=None):
    if isinstance(fan, Context):
        return fan
    f = fan if isinstance(fan, fans.Fan) else fans.load_fan(fan)
    return Context(f, policy or TruncationPolicy(**_DEFAULT_CAPS))


def _residual_window(md):
    """Factorization residual restricted to the certified z window."""
    ctx = md.ctx
    lo = -(ctx.zneg - ctx.zpos)
    hi = ctx.zpos
    resid = md.M.compose(md.P) - md.dI
    return resid.map_cols(lambda s: s._filter_inner(lambda p, z: lo <= z <= hi))


def _linear_relation_failures(md):
    """Directions where sum (chi.b_i) S_i + sum (chi.k) y_k S_k != lambda(chi)."""
    ctx = md.ctx
    dim = ctx.fan.dim
    bad = []
    for a in range(dim):
        chi = tuple(1 if b == a else 0 for b in range(dim))
        if w_transport(ctx, lambda_element(ctx, a), md.S) != lambda_class(ctx, chi):
            bad.append(a)
    return bad


def _suite_directions(ctx: Context):
    dirs = [(0,) * ctx.fan.dim]
    dirs.extend(ctx.fan.rays)
    for gv in ctx.gvars:
        if gv.pidx != ctx.unit_pidx:
            dirs.append(ctx.points[gv.pidx].point)
    return dirs


def run_property_suite(fan, policy=None, *, section=None, strict=False):
    """Run every structural check on one fan and return the report entries.

    Entries carry the property name, the fan, the truncation caps, how many
    instances were checked, and pass/fail (with a witness on failure).  With
    strict=True the first failure raises instead.
    """
    ctx = _as_context(fan, policy)
    md = compute_mirror_data(ctx, check=False)
    base = {"fan": ctx.fan.name, "order": ctx.policy.label()}
    entries = []

    def push(name, ok, checked, witness=None):
        entry = {"property": name, **base, "checked": checked,
                 "status": "pass" if ok else "fail"}
        if witness is not None and not ok:
            entry["witness"] = witness
        if strict and not ok:
            raise PropertyViolation(f"{name} failed on {ctx.fan.name}: {witness}")
        entries.append(entry)

    resid = _residual_window(md)
    push("factorization-residual", resid.is_zero(), len(md.P.cols))

    try:
        _check_flow_identities(ctx, md.tau, md.S)
        push("mirror-flow", True, len(ctx.gvars) + ctx.fan.n_rays)
    except IdentityViolation as e:
        push("mirror-flow", False, len(ctx.gvars) + ctx.fan.n_rays, str(e))

    theta_entries = check_theta(md, strict=strict)
    entries.extend(theta_entries)
    if strict and any(e["status"] == "fail" for e in theta_entries):
        raise PropertyViolation(f"transport checks failed on {ctx.fan.name}")

    bad = _linear_relation_failures(md)
    push("linear-relation", not bad, ctx.fan.dim,
         bad and f"characters {bad}" or None)

    jac = jacobi_structure_constants(md, strict=strict)
    push("jacobi-associativity", jac["failures"] == 0, len(jac["pairs"]))

    try:
        primitive_form(md, route="both")
        push("route-agreement", True, 1)
    except ToricMirrorError as e:
        push("route-agreement", False, 1, str(e))

    for k in _suite_directions(ctx):
        reports = localization_check(ctx, k, strict=strict)
        checked = sum(r["checked"] for r in reports)
        fails = [r for r in reports if r["status"] == "fail"]
        push("localization", not fails, checked,
             fails[0]["witness"] if fails else None)
        entries[-1]["point"] = list(k)

    try:
        nr = noneq_restrict(md, section=section, products=False)
        push("unfolding-rank", True, nr.rank)
    except ToricMirrorError as e:
        push("unfolding-rank", False, 0, str(e))

    return entries


def negative_controls(fan, policy=None):
    """Perturb each checked structure by one term and confirm detection.

    Every control passes exactly when the corresponding check reports the
    planted corruption; a control failure means a checker has gone blind.
    """
    ctx = _as_context(fan, policy)
    md = compute_mirror_data(ctx)
    base = {"fan": ctx.fan.name, "order": ctx.policy.label()}
    entries = []

    def push(name, fired):
        entries.append({"control": name, **base,
                        "status": "pass" if fired else "fail"})

    spike = HSeries.phi(ctx, ctx.unit_pidx, 1)

    cols = dict(md.P.cols)
    cols[ctx.unit_pidx] = cols[ctx.unit_pidx] + spike
    bad_p = type(md.P)(ctx, cols)
    resid = _residual_window(replace(md, P=bad_p))
    push("factorization-detects-corruption", not resid.is_zero())

    try:
        _check_flow_identities(ctx, md.tau + HSeries.variable(ctx, 0), md.S)
        push("flow-detects-corruption", False)
    except IdentityViolation:
        push("flow-detects-corruption", True)

    theta = check_theta(replace(md, P=bad_p), strict=False)
    push("transport-detects-corruption",
         any(e["status"] == "fail" for e in theta))

    bad_s = dict(md.S)
    rp = ctx.ray_pidx[0]
    bad_s[rp] = bad_s[rp] + spike
    try:
        jac = jacobi_structure_constants(replace(md, S=bad_s), strict=False)
        push("jacobi-detects-corruption", jac["failures"] > 0)
    except ToricMirrorError:
        push("jacobi-detects-corruption", True)

    push("linear-relation-detects-corruption",
         bool(_linear_relation_failures(replace(md, S=bad_s))))

    unit = (0,) * ctx.fan.dim
    zero_d = (0,) * ctx.fan.n_rays
    reports = localization_check(ctx, unit, strict=False, _twist=(zero_d, ()))
    push("localization-detects-corruption",
         any(r["status"] == "fail" for r in reports))

    return entries


# ------------------------------------------------------- enumerative check

_P2_FAN = {
    "name": "p2",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
}


def wdvv_oracle_p2(dmax: int) -> list[int]:
    """Degree-d rational plane curve counts N_1..N_dmax by the associativity
    recursion: N_1 = 1 and

      N_d = sum over d1+d2=d of N_d1 N_d2 (d1^2 d2^2 C(3d-4, 3d1-2)
                                           - d1^3 d2 C(3d-4, 3d1-1)).
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    ns = {1: 1}
    for d in range(2, dmax + 1):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += ns[d1] * ns[d2] * (
                d1 * d1 * d2 * d2 * comb(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * d2 * comb(3 * d - 4, 3 * d1 - 1)
            )
        ns[d] = total
    return [ns[d] for d in range(1, dmax + 1)]


def _scalar_coefficient(series, eidx, g):
    """The plain number at one (Novikov, monomial) key of a scalar series."""
    inner = series.terms.get((eidx, g), {})
    out = QQ(0)
    for (p, z), c in inner.items():
        if p != series.ctx.unit_pidx or z != 0:
            raise MismatchedInvariant(
                f"correlator has a non-scalar term at key {(eidx, g)}"
            )
        out += c
    return out


def wdvv_compare(dmax: int = 3, *, strict: bool = True, _oracle=None) -> dict:
    """Extract plane-curve counts from the quantum product and compare.

    Runs the engine on the projective plane with caps wide enough to see
    degrees up to dmax, restricts the triple correlators of the point and
    hyperplane classes to the canonical unfolding coordinates, and reads the
    counts off against the associativity recursion.  Every coefficient in
    the inspected window that the theory says must vanish is asserted to
    vanish.  Raises MismatchedInvariant on any discrepancy when strict.
    """
    qcap = 3 * dmax
    gcap = 3 * dmax - 4
    if gcap < 0:
        raise ValueError("dmax must be at least 2 to see a curve count")
    # The factorization's intermediate products reach twice the depth of the
    # series itself; this z window keeps the whole run loss-free.
    policy = TruncationPolicy(
        kcoh=4, kvar=2, qcap=qcap, gcap=gcap, zneg=2 * (qcap + gcap - 1),
        active_points=((0, 0), (1, 1)),
    )
    ctx = Context(fans.load_fan(dict(_P2_FAN)), policy)
    md = compute_mirror_data(ctx)
    nr = noneq_restrict(md, section=[(0, 0), (1, 0), (1, 1)], products=False)

    point = HSeries.phi(ctx, ctx.pindex[(1, 1)])
    line = HSeries.phi(ctx, ctx.pindex[(1, 0)])
    ppp = nr.restrict_scalar(
        poincare_integral(ctx, quantum_product(md, point, point) * point,
                          nr.basis)
    )
    hpp = nr.restrict_scalar(
        poincare_integral(ctx, quantum_product(md, line, point) * point,
                          nr.basis)
    )

    s2 = None
    for slot, vidx in nr.activated:
        if nr.section[slot] == (1, 1):
            s2 = vidx
    counts = list(_oracle) if _oracle is not None else wdvv_oracle_p2(dmax)
    engine = [None] * dmax
    zero_checked = 0
    mismatches = []

    def expect(series, d, j, value, label):
        nonlocal zero_checked
        eidx = ctx.eindex[(d, d, d)]
        g = ((s2, j),) if j else ()
        got = _scalar_coefficient(series, eidx, g)
        if got != value:
            mismatches.append(
                {"series": label, "degree": d, "power": j,
                 "expected": str(value), "got": str(got)}
            )
        elif value == 0:
            zero_checked += 1

    for d in range(0, dmax + 1):
        for j in range(0, gcap + 1):
            expect(ppp, d, j,
                   QQ(counts[d - 1], factorial(j)) if d >= 2 and j == 3 * d - 4
                   else QQ(0), "point-point-point")
            expect(hpp, d, j,
                   QQ(counts[d - 1] * d, factorial(j)) if d >= 1 and j == 3 * d - 3 and j <= gcap
                   else QQ(0), "line-point-point")
    for (eidx, g) in list(ppp.terms) + list(hpp.terms):
        for v, _ in g:
            if v != s2:
                mismatches.append(
                    {"series": "support", "witness":
                     f"unexpected variable at key {(tuple(ctx.eff[eidx]), g)}"}
                )

    for d in range(2, dmax + 1):
        eidx = ctx.eindex[(d, d, d)]
        got = _scalar_coefficient(ppp, eidx, ((s2, 3 * d - 4),))
        engine[d - 1] = got * factorial(3 * d - 4)
    engine[0] = _scalar_coefficient(hpp, ctx.eindex[(1, 1, 1)], ())

    losses = {k: v for k, v in ctx.losses.items() if v}
    report = {
        "dmax": dmax,
        "order": policy.label(),
        "oracle": [int(n) for n in counts],
        "engine": [str(n) for n in engine],
        "zero_coefficients_checked": zero_checked,
        "losses": {str(k): v for k, v in losses.items()},
        "status": "pass" if not mismatches and not losses
        and [QQ(n) for n in counts] == engine else "fail",
    }
    if mismatches:
        report["witness"] = mismatches[:4]
    if strict and report["status"] != "pass":
        raise MismatchedInvariant(
            f"curve counts disagree with the recursion: {report}"
        )
    return report
