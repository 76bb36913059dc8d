"""Independent answers and structural properties that benchmark outputs must meet.

Nothing here reuses the engine's product tables or its own checkers: the
classical cup product comes from cone coordinates solved here, the plane
curve counts from Kontsevich's recursion written out here, and the mirror-data
properties are re-derived term by term.  Each function returns a list of
problems (empty when the output is right) so a caller can report a witness.
"""

from fractions import Fraction
from math import comb

from toricmirror.series import HSeries


def kontsevich(dmax):
    """N_1..N_dmax, rational plane curves of degree d through 3d-1 points.

    N_d = sum over dA + dB = d of N_dA N_dB dA^2 dB (dB C(3d-4, 3dA-2)
    - dA C(3d-4, 3dA-1)), with N_1 = 1.
    """
    n = {1: 1}
    for d in range(2, dmax + 1):
        n[d] = sum(
            n[a] * n[d - a] * a * a * (d - a)
            * ((d - a) * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
            for a in range(1, d)
        )
    return [n[d] for d in range(1, dmax + 1)]


def _solve(cols, k):
    """x with sum_j x_j cols[j] = k (square, exact), or None when singular."""
    dim = len(k)
    rows = [[Fraction(cols[j][i]) for j in range(dim)] + [Fraction(k[i])]
            for i in range(dim)]
    for c in range(dim):
        piv = next((r for r in range(c, dim) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(dim):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][dim] / rows[i][i] for i in range(dim)]


def cone_norms(fan_spec, point):
    """{cone index: |point|} over the maximal cones that contain the point."""
    out = {}
    for ci, cone in enumerate(fan_spec["max_cones"]):
        x = _solve([fan_spec["rays"][r] for r in cone], point)
        if x is not None and all(v >= 0 and v.denominator == 1 for v in x):
            out[ci] = int(sum(x))
    return out


def classical_product(fan_spec, a, b, cap):
    """The equivariant cup product of two classes {point: coeff}, up to degree cap.

    phi_k phi_l is phi_{k+l} when k and l lie in one maximal cone (the
    monomials then share a cone of the Stanley-Reisner ring) and 0 otherwise.
    """
    out = {}
    for k, ck in a.items():
        nk = cone_norms(fan_spec, k)
        for l, cl in b.items():
            nl = cone_norms(fan_spec, l)
            common = set(nk) & set(nl)
            if not common:
                continue
            ci = min(common)
            if nk[ci] + nl[ci] > cap:
                continue
            kl = tuple(x + y for x, y in zip(k, l))
            out[kl] = out.get(kl, 0) + ck * cl
    return {p: c for p, c in out.items() if c != 0}


def window(series, cap):
    """{(eidx, g): {(point, z): coeff}} of the terms with |point| <= cap."""
    ctx = series.ctx
    out = {}
    for key, inner in series.terms.items():
        part = {(ctx.points[p].point, z): c for (p, z), c in inner.items()
                if ctx.points[p].norm <= cap}
        if part:
            out[key] = part
    return out


def product_problems(fan_spec, a, b, product, classical_only):
    """Compare a quantum product with the classical cup product.

    Inside the user window |k| <= kcoh the Novikov- and variable-free part
    must equal the cup product; with classical_only (a fan with no curves)
    nothing else may appear in the window.
    """
    ctx = product.ctx
    cap = ctx.policy.kcoh
    want = {(p, 0): c for p, c in classical_product(fan_spec, a, b, cap).items()}
    got = window(product, cap)
    base = (ctx.zero_eidx, ())
    problems = []
    if got.get(base, {}) != want:
        problems.append(f"Q^0 y^0 part {got.get(base, {})} != cup product {want}")
    if classical_only and set(got) - {base}:
        problems.append(f"quantum corrections {sorted(set(got) - {base})} on a fan with no curves")
    return problems


def weight_problems(series, weight, label):
    """|k| + z + c1(d) + sum (1 - |k_v|) e_v must equal weight on every term."""
    ctx = series.ctx
    for (eidx, g), inner in series.terms.items():
        age = sum(ctx.eff[eidx]) + sum(
            (1 - ctx.points[ctx.gvars[v].pidx].norm) * e for v, e in g
        )
        for (p, z) in inner:
            w = ctx.points[p].norm + z + age
            if w != weight:
                return [f"{label} has a term of weight {w}, not {weight}"]
    return []


def mirror_data_problems(md):
    """Loss-freeness, P polynomial in z, weights, and the linear relation.

    The linear relation is sum_i (chi.b_i) S_{b_i} + sum_k (chi.k) y_k S_k
    = lambda(chi) = sum_i (chi.b_i) u_i for every coordinate character chi.
    """
    ctx = md.ctx
    problems = []
    losses = {k: v for k, v in ctx.losses.items() if v}
    if losses:
        problems.append(f"truncation losses {losses}")
    for k, col in md.P.cols.items():
        if any(z < 0 for inner in col.terms.values() for (_, z) in inner):
            problems.append(f"P column {ctx.points[k].point} has negative z powers")
            break
    problems += weight_problems(md.tau, 1, "tau")
    problems += weight_problems(md.upsilon, 0, "Upsilon")
    for k, s in md.S.items():
        problems += weight_problems(s, ctx.points[k].norm, f"S_{ctx.points[k].point}")
    rays = ctx.fan.rays
    for a in range(ctx.fan.dim):
        lhs = HSeries.zero(ctx)
        lam = HSeries.zero(ctx)
        for i, rp in enumerate(ctx.ray_pidx):
            if rays[i][a]:
                lhs = lhs + md.S[rp].scale(rays[i][a])
                lam = lam + HSeries.phi(ctx, rp, coeff=rays[i][a])
        for v, gv in enumerate(ctx.gvars):
            c = ctx.points[gv.pidx].point[a]
            if gv.kind == "y" and c:
                lhs = lhs + (HSeries.variable(ctx, v) * md.S[gv.pidx]).scale(c)
        if lhs != lam:
            problems.append(f"linear relation fails for character e_{a}")
    return problems
