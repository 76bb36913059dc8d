"""Mirror map, Birkhoff factorization, Seidel classes, and quantum products.

The pipeline starts from the cohomology-valued hypergeometric series attached
to a smooth semi-projective fan and produces, in exact arithmetic over the
truncated ring of a :class:`~toricmirror.series.Context`:

1. ``build_I``            -- the hypergeometric series I(y, z) on the gauge
   slice where the divisor variables are absorbed into the Novikov variables.
   Each term is indexed by a curve class d and a monomial in the deformation
   variables; its class part is a product over the rays of linear factors
   u_i + c z (or their expansions when the factor sits in the denominator).
2. ``build_dI``           -- the column family of first derivatives of I: the
   honest partial derivative for every deformation variable, the gauge-slice
   divisor derivative (u_i/z) I + (log-Novikov minus variable-weighted Euler)
   for every ray, and an extension column for every remaining basis point.
3. ``birkhoff_factorize`` -- the unique factorization dI = M . P with
   M = Id + (strictly negative z powers) and P a z-polynomial family,
   computed order by order through the order-zero block.
4. ``compute_mirror_data``-- the mirror map tau (the z^{-1} coefficient of
   M(phi_0)), Upsilon = P(phi_0), the Seidel classes S_k obtained from the
   z-free parts of the P columns and the pairing cocycle.
5. ``frame_products``     -- the big quantum product, transported through the
   Seidel-class frame: expand both factors in the S_k, multiply the frame
   labels with the cocycle Q^{d(k,l)}, and map back, solving each class once
   per call; ``quantum_product`` is its one-shot use.  The labels form the
   shift module of ``gaussmanin``, whose operations live here once.
6. ``primitive_form``     -- the volume-form normalization, solved either as
   a z-polynomial coefficient vector against the P columns (route "a") or as
   a z-dependent reparametrization of the deformation variables that kills
   every positive z power of I except z itself (route "b"); route "both"
   additionally checks that the exponential of the route-b reparametrization
   reproduces the route-a coefficients inside the w-algebra.

Everything is homogeneous for the weight |k| + z-exponent + age: I and tau
have weight 1, the columns indexed by a point k have weight |k|, and Upsilon
has weight 0.  These gradings, the flow identities for the Seidel classes,
and the factorization residual are asserted when ``check=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from . import fans
from .errors import (
    FactorizationResidue,
    IdentityViolation,
    NegativePowerInP,
    NonPolynomialCoefficient,
    NormalizationFailure,
    PolicyMismatch,
    RouteDisagreement,
    TruncationLoss,
)
from .linalg import QQ, canon
from .series import (
    Context,
    HSeries,
    OperatorSeries,
    _apply_into,
    _by_degree,
    _key_shift,
    _mul_into,
    compose,
    exp_series,
    g_deg,
    log_series,
)


# ----------------------------------------------------------- shared helpers


def phi_component(s: HSeries, pidx: int) -> HSeries:
    """The scalar (z-carrying) series multiplying phi_k in s."""
    unit = s.ctx.unit_pidx
    out = {}
    for key, inner in s.terms.items():
        picked = {(unit, z): c for (p, z), c in inner.items() if p == pidx}
        if picked:
            out[key] = picked
    return HSeries(s.ctx, out)


# The ray factors are built in x_i = u_i/z: each basis class phi_k stands for
# u^k/z^{|k|} and sits at z^0, so no partial product can leave the z window.
# A finished term gets its z powers back from the grading in _series_sum.


def _hyper_factor(ell: int, top: int, factors: dict) -> list:
    """Coefficients of x_i^t, t <= top, of a ray factor times z^ell.

    For ell >= 0 this is the product over c = 1..ell of 1/(x_i + c); for
    ell < 0 it is the polynomial product over c = ell+1..0 of (x_i + c),
    which includes the bare x_i at c = 0.  It does not depend on the ray.
    """
    if ell in factors:
        return factors[ell]
    acc = [1] + [0] * top
    for c in range(1, ell + 1):  # divide by x + c
        prev = 0
        for t, a in enumerate(acc):
            prev = acc[t] = canon((a - prev) / QQ(c))
    for c in range(ell + 1, 1):  # multiply by x + c
        acc = [c * acc[0]] + [c * a + b for a, b in zip(acc[1:], acc)]
    factors[ell] = acc
    return acc


def _build_caches(ctx: Context) -> tuple:
    """Ray factors, term factors and the points by psi-support, for one build.

    Points past kwork (index None) are kept only where a product could drop
    one within reach of the user window: an explicit kwork < kcoh + gcap (kvar - 1).
    """
    reach = ctx.policy.kcoh + ctx.policy.gcap * max(ctx.policy.kvar - 1, 0)
    past = fans.enumerate_points(ctx.fan, reach)[len(ctx.points):] if reach > ctx.kwork else []
    groups: dict = {}
    for p, pd in [*enumerate(ctx.points), *((None, fans.point_data(ctx.fan, k)) for k in past)]:
        groups.setdefault(frozenset(pd.psi_support), []).append((p, pd.psi, pd.norm))
    return {}, {}, list(groups.items()), max(ctx.kwork, reach)


def _term_factor(ctx: Context, ell: tuple, caches: tuple) -> list:
    """(point, coefficient) pairs of the product of the ray factors F_i of ell.

    As phi_k = prod_i x_i^{psi_i(k)}, the coefficient at k is prod_i
    F_i[psi_i(k)]; it can be nonzero only if the psi-support of k holds every
    ray with ell_i < 0 and no ray with ell_i = 0.  A nonzero point past kwork
    is counted as a product counts it: ``note_degree_overflow(|k|, gcap)``.
    """
    factors, terms, groups, top = caches
    if ell in terms:
        return terms[ell]
    rays = {i for i, l in enumerate(ell) if l}
    neg = {i for i in rays if ell[i] < 0}
    fs = [(i, _hyper_factor(ell[i], top, factors)) for i in sorted(rays)]
    out = []
    for support, pts in groups:
        if neg <= support <= rays:
            for p, psi, norm in pts:
                c = 1
                for i, f in fs:
                    c *= f[psi[i]]
                if c and p is None:
                    ctx.note_degree_overflow(norm, ctx.policy.gcap)
                elif c:
                    out.append((p, canon(c)))
    terms[ell] = out
    return out


def _series_sum(ctx: Context, offset_pidx=None, caches=None) -> HSeries:
    """The hypergeometric sum; offset None gives I, a point gives its column.

    ``caches`` (``_build_caches``) is shared by the sums of one build.  The
    term at (Q^d, y^g) places phi_k of its factor at z^(base - |g| - sum(ell)
    - |k|), windowed and counted there; it is the only term at that key.
    """
    caches = caches or _build_caches(ctx)
    base_shift = 1 if offset_pidx is None else 0
    out: dict = {}
    for eidx in range(len(ctx.eff)):
        for g in ctx.g_monomials:
            ell = ctx.ray_exponents(ctx.eff[eidx], g, offset_pidx)
            den = prod(factorial(e) for _, e in g)
            shift = base_shift - g_deg(g) - sum(ell)
            inner = {}
            for p, c in _term_factor(ctx, ell, caches):
                z = shift - ctx.norms[p]
                if -ctx.zneg <= z <= ctx.zpos:
                    inner[(p, z)] = c if den == 1 else canon(c / QQ(den))
                else:
                    ctx.note_z_clip()
            if inner:
                out[(eidx, g)] = inner
    return HSeries(ctx, out)


# --------------------------------------------------------------- the series


def build_I(ctx: Context) -> HSeries:
    """The hypergeometric series I(y, z) on the gauge slice.

    The order-zero term is z phi_0; every term is homogeneous of weight 1.
    """
    out = _series_sum(ctx)
    if not out.is_homogeneous(1):
        raise IdentityViolation("hypergeometric series is not of pure weight 1")
    return out


def build_dI(ctx: Context, I: HSeries | None = None) -> OperatorSeries:
    """The derivative columns of I, one for every basis point up to kwork."""
    if I is None:
        I = build_I(ctx)
    ray_pos = {rp: i for i, rp in enumerate(ctx.ray_pidx)}
    caches = _build_caches(ctx)
    cols = {}
    for pidx in range(len(ctx.points)):
        if pidx == ctx.unit_pidx:
            col = I.z_shift(-1)
        elif pidx in ray_pos:
            i = ray_pos[pidx]
            col = (HSeries.phi(ctx, pidx) * I).z_shift(-1) + I.ray_gauge(i)
        else:
            # For an active point this is the y-derivative of I, but summed
            # directly so the column is complete at the top y-order (the
            # derivative of the truncated I would lose that order).
            col = _series_sum(ctx, pidx, caches)
        cols[pidx] = col
    return OperatorSeries(ctx, cols)


# ------------------------------------------------------------- factorization


def _grading_inverse(ctx: Context, P0: OperatorSeries) -> OperatorSeries:
    """Inverse X of the unit-triangular order-zero block.

    N = P0 - Id has z >= 1 at weight zero, so it strictly lowers the basis
    degree: X = Id - X . N is solved one column at a time in increasing
    degree, each from the columns below it.
    """
    X = OperatorSeries(ctx)
    by_deg: dict = {}
    for k in sorted(range(len(ctx.points)), key=ctx.norms.__getitem__):
        out = {(ctx.zero_eidx, ()): {(k, 0): 1}}
        _apply_into(out, X, P0.col(k) - HSeries.phi(ctx, k), -1, by_deg)
        X.cols[k] = HSeries(ctx, HSeries._cleanup(out))
    return X


def _merge_slices(ctx: Context, parts: dict) -> OperatorSeries:
    """The sum of the order slices; their keys are disjoint, so no arithmetic."""
    cols: dict = {}
    for n in sorted(parts):
        for k, col in parts[n].cols.items():
            cols.setdefault(k, {}).update(col.terms)
    return OperatorSeries(ctx, {k: HSeries(ctx, t) for k, t in cols.items()})


def _has_negative_z(op: OperatorSeries) -> bool:
    return any(z < 0 for c in op.cols.values() for inner in c.terms.values() for _, z in inner)


def _cross_residual(Mparts: dict, Pparts: dict) -> OperatorSeries:
    """Sum of M_a . P_b over a, b >= 1 with a + b past the last order.

    On the slices of ``birkhoff_factorize`` this is exactly M . P - dI.
    """
    nmax = max(Pparts)
    acc = OperatorSeries(Pparts[0].ctx)
    for a in range(1, nmax + 1):
        for b in range(nmax + 1 - a, nmax + 1):
            acc._add_composed(Mparts[a], Pparts[b], 1)
    return acc


def birkhoff_factorize(ctx: Context, dI: OperatorSeries, check: bool = True):
    """Factor dI = M . P with M = Id + z^{<0} and P a z-polynomial family.

    The columns are solved order by order in the combined (Novikov plus
    variable) degree; at each order the negative part of the residue composed
    with the inverse of the order-zero block is the new slice of M, and what
    remains is the new slice of P; products accumulate in place into R_n.

    With ``check``, M . P - dI must vanish on the window.  Orders add and
    ``compose`` is bilinear term by term, caps and z-clips included, so at
    each n <= nmax the residual is P_n + M_n . P_0 + sum_{a=1}^{n-1}
    M_a . P_{n-a} - dI_n, which the loop made zero; what is left is exactly
    the sum of M_a . P_b over a, b >= 1 with a + b > nmax (``_cross_residual``).
    On a dI built by ``build_dI`` nmax is the largest order the caps allow,
    so every cross term meets a cap and the check can fire only on a dI that
    lacks its top orders; a term dropped at the z window shows in
    ``ctx.losses`` instead.  dI is split into its order slices in one pass.
    """
    slices: dict = {}
    for k, col in dI.cols.items():
        for key, inner in col.terms.items():
            slices.setdefault(ctx.order(*key), {}).setdefault(k, {})[key] = dict(inner)
    slices = {n: OperatorSeries(ctx, {k: HSeries(ctx, t) for k, t in cols.items()})
              for n, cols in slices.items()}
    P0 = slices.pop(0, OperatorSeries(ctx))
    if _has_negative_z(P0):
        raise FactorizationResidue(
            "order-zero block of the column family has negative z powers"
        )
    P0inv = _grading_inverse(ctx, P0)
    nmax = max(slices, default=0)
    Mparts = {0: OperatorSeries.identity(ctx)}
    Pparts = {0: P0}
    for n in range(1, nmax + 1):
        R = slices.get(n, OperatorSeries(ctx))
        for a in range(1, n):
            R._add_composed(Mparts[a], Pparts[n - a], -1)
        Mn = R.compose(P0inv).map_cols(HSeries.z_negative)
        R._add_composed(Mn, P0, -1)
        if _has_negative_z(R):
            raise NegativePowerInP(
                f"order-{n} slice of P acquired negative z powers"
            )
        Mparts[n] = Mn
        Pparts[n] = R
    if check and not _cross_residual(Mparts, Pparts).is_zero():
        raise FactorizationResidue(
            "factorization residual is nonzero; the columns lack their top orders"
        )
    return _merge_slices(ctx, Mparts), _merge_slices(ctx, Pparts)


# ------------------------------------------------- Seidel classes and frames


def _frame_coordinates(frame: dict, target: HSeries, by_deg: dict | None = None):
    """Coordinates x with sum_p x_p frame[p] = target, and the residual left.

    Each frame[p] is phi_p plus terms of lower basis degree or higher combined
    order, so the system is triangular: at each order the residual is cleared
    one basis-degree level at a time, highest first.  A nonzero residual
    means the target is not in the span of the frame at these caps.  Lower
    degree terms of frame[p] at order zero are absorbed, not rejected; a
    frame that must be exactly phi_p there is checked by its caller.

    The residual is one terms dict that each -x_p frame[p] is multiplied into
    in place; each column is sorted by variable degree once, into ``by_deg``
    (as in ``w_transport``; share one dict over solves in the same frame).
    """
    ctx = target.ctx
    coords: dict = {}
    resid = HSeries(ctx, {k: dict(v) for k, v in target.terms.items()})
    by_deg = {} if by_deg is None else by_deg
    for r in range(ctx.policy.qcap + ctx.policy.gcap + 1):
        rem = resid.order_part(r)
        top = None
        while not rem.is_zero():
            seen = {p for inner in rem.terms.values() for (p, _) in inner}
            level = max(ctx.norms[p] for p in seen)
            if top is not None and level >= top:
                break  # the top level did not fall: not triangular here
            top = level
            for p in sorted(seen):
                if ctx.norms[p] == level:
                    delta = phi_component(rem, p)
                    coords[p] = coords[p] + delta if p in coords else delta
                    right = by_deg.get(p)
                    if right is None:
                        right = by_deg[p] = _by_degree(frame[p])
                    _mul_into(resid.terms, -delta, right)
            HSeries._cleanup(resid.terms)
            rem = resid.order_part(r)
    return {p: c for p, c in coords.items() if not c.is_zero()}, resid


def _seidel_family(ctx: Context, V: dict, c0: dict) -> dict:
    """S_k = sum_l c0_l Q^{d(k,l)} V_{k+l} for every basis point k."""
    cache: dict = {}
    return {
        k: w_transport(ctx, w_shift(ctx, k, c0), V, cache)
        for k in range(len(ctx.points))
    }


def _check_flow_identities(ctx: Context, tau: HSeries, S: dict):
    """The Seidel classes are the flows of the mirror map.

    Differentiating the truncated mirror map by an active variable loses the
    top y-order, so active directions are compared one order short, which at
    gcap 0 is none; ray directions (a gauge flow, no derivative) are
    compared in full.
    """
    short = ctx.policy.gcap - 1
    for vi, gv in enumerate(ctx.gvars if short >= 0 else ()):
        want = tau.derive_var(vi)
        if S[gv.pidx].y_degree_part(short) != want.y_degree_part(short):
            pt = ctx.points[gv.pidx].point
            raise IdentityViolation(
                f"Seidel class at {pt} differs from the mirror-map flow"
            )
    for i, rp in enumerate(ctx.ray_pidx):
        want = HSeries.phi(ctx, rp) + tau.ray_gauge(i)
        if S[rp] != want:
            raise IdentityViolation(
                f"Seidel class of ray {i} differs from u_i + gauge flow"
            )


@dataclass
class MirrorData:
    """Everything the factorization of one context produces."""

    ctx: Context
    I: HSeries
    dI: OperatorSeries
    M: OperatorSeries
    P: OperatorSeries
    P0: OperatorSeries
    tau: HSeries
    upsilon: HSeries
    S: dict


def compute_mirror_data(ctx: Context, check: bool = True) -> MirrorData:
    """Run the full pipeline on one context."""
    I = build_I(ctx)
    dI = build_dI(ctx, I)
    M, P = birkhoff_factorize(ctx, dI, check=check)
    P0 = dI.order_part(0)
    tau = M.col(ctx.unit_pidx).z_coefficient(-1)
    upsilon = P.col(ctx.unit_pidx)
    V = {k: P.col(k).z_coefficient(0) for k in P.cols}
    c0, resid = _frame_coordinates(V, HSeries.unit(ctx))
    if not resid.is_zero():
        raise NormalizationFailure("unit class has no coordinates in this frame")
    S = _seidel_family(ctx, V, c0)
    if check:
        if not tau.is_homogeneous(1):
            raise IdentityViolation("mirror map is not of pure weight 1")
        if not upsilon.is_homogeneous(0):
            raise IdentityViolation("P(phi_0) is not of pure weight 0")
        for k, col in P.cols.items():
            if not col.is_homogeneous(ctx.norms[k]):
                raise IdentityViolation("P column has mixed weight")
        _check_flow_identities(ctx, tau, S)
        if any(ctx.losses.values()):
            raise TruncationLoss(
                f"truncation losses {dict(ctx.losses)}; widen the window"
            )
    return MirrorData(ctx, I, dI, M, P, P0, tau, upsilon, S)


# ------------------------------------------------------------- the w-algebra

# The shift module: free over scalar series, one generator w^k per basis
# point, w^k . w^l = Q^{d(k,l)} w^{k+l}; an element is {point index -> scalar
# series}.  The cocycle (w_shift), the product and the transport through a
# column family are written here once; gaussmanin's module calls them.


def _add_into(out: dict, pidx: int, s: HSeries) -> None:
    """out[pidx] += s, skipping a zero s."""
    if s.is_zero():
        return
    cur = out.get(pidx)
    out[pidx] = s if cur is None else cur + s


def w_shift(ctx: Context, k: int, v: dict, strict: bool = False) -> dict:
    """w^k . v: each f w^l goes to Q^{d(k,l)} f w^{k+l}.

    A translation that leaves the stored window is dropped (the truncation
    quotient), or raises TruncationLoss when ``strict``.
    """
    out: dict = {}
    for lp in sorted(v):
        f = v[lp]
        if f.is_zero():
            continue
        hit = ctx.translate(k, lp)
        if hit is None:
            if strict:
                raise TruncationLoss(
                    f"translation by {ctx.points[k].point} moves the "
                    f"generator at {ctx.points[lp].point} beyond the window"
                )
            continue
        tp, de = hit
        _add_into(out, tp, _key_shift(f, de, (), 0))
    return out


def w_multiply(ctx: Context, A: dict, B: dict) -> dict:
    """Product of frame-label vectors: sum_l (w^l . A) B_l.

    This is sum_k A_k (w^k . B), as d(k, l) = d(l, k) and ``_mul_into`` is
    symmetric in its operands, loss counts included; shifting A instead
    sorts each B_l once.  A translation that leaves the window is skipped.
    """
    terms: dict = {}
    for l, fl in B.items():
        right = _by_degree(fl)
        for t, s in w_shift(ctx, l, A).items():
            _mul_into(terms.setdefault(t, {}), s, right)
    out = {t: HSeries(ctx, HSeries._cleanup(d)) for t, d in terms.items()}
    return {t: s for t, s in out.items() if not s.is_zero()}


def w_exp(ctx: Context, A: dict) -> dict:
    """Exponential in the w-algebra of a vector with no order-zero part."""
    for s in A.values():
        if any(ctx.order(e, g) == 0 for (e, g) in s.terms):
            raise NormalizationFailure("w-exponential needs a positive-order vector")
    acc = {ctx.unit_pidx: HSeries.unit(ctx)}
    power = {ctx.unit_pidx: HSeries.unit(ctx)}
    nmax = ctx.policy.qcap + ctx.policy.gcap
    for n in range(1, nmax + 1):
        power = w_multiply(ctx, power, A)
        if not power:
            break
        for k, s in power.items():
            term = s.scale(QQ(1, factorial(n)))
            acc[k] = acc.get(k, HSeries.zero(ctx)) + term
    return {k: v for k, v in acc.items() if not v.is_zero()}


def w_transport(ctx: Context, v: dict, cols: dict, by_deg: dict | None = None) -> HSeries:
    """sum_t v_t cols[t]: a vector of labels mapped through a column family.

    ``by_deg`` caches the columns as ``_by_degree`` lists (as in
    ``series._apply_into``); share one dict over calls on the same columns.
    """
    if by_deg is None:
        by_deg = {}
    out: dict = {}
    for t in sorted(v):
        right = by_deg.get(t)
        if right is None:
            right = by_deg[t] = _by_degree(cols[t])
        _mul_into(out, v[t], right)
    return HSeries(ctx, HSeries._cleanup(out))


# --------------------------------------------------------- quantum products


def seidel_coordinates(md: MirrorData, target: HSeries, by_deg: dict | None = None) -> dict:
    """Coordinates x with sum_k x_k S_k = target (triangular in the order);
    ``by_deg`` caches sorted columns of md.S, as in ``_frame_coordinates``."""
    coords, resid = _frame_coordinates(md.S, target, by_deg)
    if not resid.is_zero():
        raise IdentityViolation(
            "class is not in the span of the Seidel frame at these caps"
        )
    return coords


def frame_products(md: MirrorData):
    """``product(ka, a, kb, b)``: big quantum products, for use within one call.

    Both factors are expanded in the Seidel frame, the frame labels are
    multiplied with the pairing cocycle, and the result is mapped back.
    Each key is solved once, its failure included, and one sorted-column
    dict serves the solves and the transport; as both are kept, take a new
    one after md.S changes (nothing is stored on md, so it reads md.S anew).
    """
    memo, by_deg = {}, {}

    def coordinates(key, target):
        if key not in memo:
            try:
                memo[key] = seidel_coordinates(md, target, by_deg)
            except IdentityViolation as exc:
                memo[key] = exc
        if isinstance(memo[key], IdentityViolation):
            raise memo[key].with_traceback(None)
        return memo[key]

    def product(ka, a, kb, b):
        ca, cb = coordinates(ka, a), coordinates(kb, b)
        return w_transport(md.ctx, w_multiply(md.ctx, ca, cb), md.S, by_deg)
    return product


def quantum_product(md: MirrorData, a, b) -> HSeries:
    """Big quantum product of two classes at the mirror-map point, the
    one-shot use of ``frame_products``; an integer is a basis-point index."""
    a = HSeries.phi(md.ctx, a) if isinstance(a, int) else a
    b = HSeries.phi(md.ctx, b) if isinstance(b, int) else b
    return frame_products(md)("a", a, "b", b)


# ------------------------------------------------------------ primitive form


@dataclass
class PrimitiveForm:
    """Solved volume-form normalizations (either or both routes)."""

    coefficients: dict | None        # route a: point index -> z-polynomial scalar
    reparametrization: dict | None   # route b: (point index, n) -> scalar series
    tau_check: HSeries | None        # route b: z-free part of the new series


def _route_a(md: MirrorData) -> dict:
    """Solve sum_k c_k(z, y) P(phi_k) = 1 with z-polynomial coefficients."""
    coeffs, resid = _frame_coordinates(md.P.cols, HSeries.unit(md.ctx))
    if any(not c.z_negative().is_zero() for c in coeffs.values()):
        raise NonPolynomialCoefficient(
            "volume-form coordinate needs a negative z power"
        )
    if not resid.is_zero():
        raise NormalizationFailure("volume-form coordinates do not close")
    return coeffs


def _substituted_series(md: MirrorData, sol: dict) -> HSeries:
    """I with y_k replaced by y_k + sum_n sol[(k, n)] z^n (rays via dressing).

    The ray corrections move the gauge slice to y_{b_i} = 1 + eps_i, which
    multiplies each term by (1 + eps_i)^{ell_i} and the whole sum by
    exp(u_i log(1 + eps_i)/z).  All corrections are simultaneous: the
    dressing prefactors stay in the original variables, so each term of I is
    composed with the variable corrections first and dressed afterwards
    (the ray exponents belong to the term's original key).
    """
    ctx = md.ctx
    ray_pos = {rp: i for i, rp in enumerate(ctx.ray_pidx)}
    eps: dict = {}
    subs: dict = {}
    for (p, n), s in sol.items():
        if s.is_zero():
            continue
        if p in ray_pos:
            i = ray_pos[p]
            eps[i] = eps.get(i, HSeries.zero(ctx)) + s.z_shift(n)
        else:
            v = ctx.var(ctx.points[p].point)
            if v not in subs:
                subs[v] = HSeries.variable(ctx, v)
            subs[v] = subs[v] + s.z_shift(n)
    if not eps and not subs:
        return md.I

    powers = {(i, 1): HSeries.unit(ctx) + e for i, e in eps.items()}
    logs = {i: log_series(powers[(i, 1)]) for i in eps}

    def power(i, m):
        """(1 + eps_i)^m, one product away from the power next to it."""
        if (i, m) not in powers:
            if m == -1:
                powers[(i, m)] = exp_series(-logs[i])
            else:
                step = 1 if m > 0 else -1
                powers[(i, m)] = power(i, m - step) * power(i, step)
        return powers[(i, m)]

    total = HSeries.zero(ctx)
    for (eidx, g), inner in md.I.terms.items():
        piece = HSeries(ctx, {(eidx, g): dict(inner)})
        if subs:
            piece = compose(piece, subs)
        if eps:
            ell = ctx.ray_exponents(ctx.eff[eidx], g)
            for i in eps:
                if ell[i]:
                    piece = piece * power(i, ell[i])
        total = total + piece
    for i in eps:
        dressing = (HSeries.phi(ctx, ctx.ray_pidx[i]) * logs[i]).z_shift(-1)
        total = total * exp_series(dressing)
    return total


def _positive_defect(ctx: Context, s: HSeries) -> HSeries:
    """The z^{>=1} part of s minus the normalization term z phi_0."""
    return s._filter_inner(lambda p, z: z >= 1) - HSeries.phi(
        ctx, ctx.unit_pidx, 1
    )


def _route_b(md: MirrorData):
    """Reparametrize the variables in z so that I becomes z + tau + O(1/z)."""
    ctx = md.ctx
    if ctx.policy.active_points is not None:
        raise PolicyMismatch(
            "route b needs every deformation variable up to kvar"
        )
    sol: dict = {}
    nmax = ctx.policy.qcap + ctx.policy.gcap
    for r in range(1, nmax + 1):
        cur = _substituted_series(md, sol)
        bad_r = _positive_defect(ctx, cur).order_part(r)
        for a in range(1, ctx.zpos + 1):
            if bad_r.is_zero():
                break
            level = []
            for (eidx, g), inner in bad_r.terms.items():
                for (p, z), c in inner.items():
                    if z == a:
                        level.append((eidx, g, p, c))
            for eidx, g, p, c in level:
                mono = HSeries(ctx, {(eidx, g): {(ctx.unit_pidx, 0): -c}})
                key = (p, a)
                sol[key] = sol.get(key, HSeries.zero(ctx)) + mono
                bad_r = bad_r - _key_shift(md.P0.col(p), eidx, g, a).scale(c)
        if not bad_r.is_zero():
            raise NormalizationFailure(
                "variable reparametrization cannot kill the positive z part"
            )
    final = _substituted_series(md, sol)
    if not _positive_defect(ctx, final).is_zero():
        raise NormalizationFailure(
            "variable reparametrization left a positive z part"
        )
    tau_b = final.z_coefficient(0)
    if tau_b != md.tau:
        raise RouteDisagreement(
            "z-free part of the reparametrized series is not the mirror map"
        )
    sol = {k: v for k, v in sol.items() if not v.is_zero()}
    return sol, tau_b


def primitive_form(md: MirrorData, route: str = "both") -> PrimitiveForm:
    """Solve the volume-form normalization along the requested route(s)."""
    if route not in ("a", "b", "both"):
        raise ValueError(f"unknown route {route!r}")
    coeffs = None
    sol = None
    tau_b = None
    if route in ("a", "both"):
        coeffs = _route_a(md)
    if route in ("b", "both"):
        sol, tau_b = _route_b(md)
    if route == "both":
        ctx = md.ctx
        A: dict = {}
        for (p, n), s in sol.items():
            A[p] = A.get(p, HSeries.zero(ctx)) + s.z_shift(n - 1)
        expd = w_exp(ctx, A)
        if expd != coeffs:
            raise RouteDisagreement(
                "exponential of the reparametrization differs from the "
                "coefficient route"
            )
    return PrimitiveForm(coeffs, sol, tau_b)


__all__ = [
    "MirrorData",
    "PrimitiveForm",
    "build_I",
    "build_dI",
    "birkhoff_factorize",
    "compute_mirror_data",
    "seidel_coordinates",
    "frame_products",
    "quantum_product",
    "primitive_form",
    "phi_component",
    "w_shift",
    "w_multiply",
    "w_exp",
    "w_transport",
]
