"""Cohomology-side operations on the cone-point basis.

The equivariant ring is the Stanley-Reisner ring of the fan: one generator
u_i per ray, monomials supported on cones survive, everything else dies.  The
monomials with cone support biject with lattice points of the fan support
(phi_k = prod u_i^{psi_i(k)}), which is the basis the series kernel uses.

The non-equivariant reduction quotients by the classes of the equivariant
parameters; representatives are chosen pivot-free under graded-lex
elimination, which makes the reduction canonical and idempotent.
"""

from __future__ import annotations

from .engine import phi_component
from .errors import NonCompactFan, TruncationLoss
from .linalg import QQ, ZERO, canon, rref
from .series import Context, HSeries

ClassVec = dict  # {point_idx: QQ}


def phi_product(ctx: Context, a, b, strict: bool = False):
    """Product of two basis classes given by lattice points.

    Returns the resulting lattice point, or None when the supports do not
    span a cone (a Stanley-Reisner zero).  Degrees past the user window are
    recorded as truncation loss and also return None; with strict=True they
    raise instead.
    """
    pa, pb = ctx.pindex[tuple(a)], ctx.pindex[tuple(b)]
    res = ctx.phi_mul(pa, pb)
    if res is None:
        return None
    norm = ctx.norms[pa] + ctx.norms[pb]
    if res == -1 or norm > ctx.policy.kcoh:
        if strict:
            raise TruncationLoss(
                f"product degree {norm} exceeds the window {ctx.policy.kcoh}"
            )
        ctx.losses["phi_window"] += 1
        return None
    return ctx.points[res].point


def lambda_class(ctx: Context, chi) -> HSeries:
    """The equivariant parameter sum(chi . b_i) u_i as a basis series."""
    out = HSeries.zero(ctx)
    for i, ray in enumerate(ctx.fan.rays):
        c = sum(x * y for x, y in zip(chi, ray))
        if c:
            out = out + HSeries.phi(ctx, ctx.ray_pidx[i], coeff=c)
    return out


# ------------------------------------------------------------- noneq basis


class NoneqBasis:
    """Graded-lex elimination of the equivariant parameters.

    Per degree p the relations are (sum_i (chi . b_i) u_i) * phi_l over the
    standard dual basis chi and the points l of degree p-1.  Pivot columns
    are eliminated; the pivot-free points represent the reduced ring.
    """

    def __init__(self, ctx: Context, max_degree: int | None = None):
        self.ctx = ctx
        self.max_degree = ctx.kwork if max_degree is None else max_degree
        self.reps: list[list[int]] = []     # per degree: representative pidx
        self.elim: dict[int, list[tuple]] = {}  # pivot pidx -> [(rep pidx, coeff)]
        by_deg: dict[int, list[int]] = {}
        for i, pd in enumerate(ctx.points):
            if pd.norm <= self.max_degree:
                by_deg.setdefault(pd.norm, []).append(i)
        for p in by_deg:
            by_deg[p].sort(key=lambda i: ctx.points[i].point)

        self.reps.append(list(by_deg.get(0, [])))  # degree 0: the unit
        for p in range(1, self.max_degree + 1):
            cols = by_deg.get(p, [])
            col_pos = {pidx: j for j, pidx in enumerate(cols)}
            rows = []
            for c in range(ctx.fan.dim):
                coeffs = [(i, ray[c]) for i, ray in enumerate(ctx.fan.rays)]
                for l in by_deg.get(p - 1, []):
                    row = [ZERO] * len(cols)
                    nonzero = False
                    for i, cf in coeffs:
                        if cf == 0:
                            continue
                        tgt = ctx.phi_mul(ctx.ray_pidx[i], l)
                        if tgt is None or tgt == -1:
                            continue
                        row[col_pos[tgt]] += QQ(cf)
                        nonzero = nonzero or row[col_pos[tgt]] != 0
                    if nonzero:
                        rows.append(row)
            if not rows:
                self.reps.append(list(cols))
                continue
            reduced, pivots = rref(rows)
            pivset = set(pivots)
            self.reps.append([cols[j] for j in range(len(cols)) if j not in pivset])
            for row, pj in zip(reduced, pivots):
                tail = [
                    (cols[j], -row[j])
                    for j in range(len(cols))
                    if j not in pivset and row[j] != 0
                ]
                self.elim[cols[pj]] = tail

    @property
    def betti(self) -> list[int]:
        return [len(r) for r in self.reps]

    def representatives(self) -> list[int]:
        return [i for r in self.reps for i in r]

    def reduce_class(self, vec: ClassVec) -> ClassVec:
        out: ClassVec = {}
        for pidx, c in vec.items():
            if c == 0:
                continue
            if self.ctx.norms[pidx] > self.max_degree:
                raise TruncationLoss(
                    f"cannot reduce degree {self.ctx.norms[pidx]} beyond the basis"
                )
            if pidx in self.elim:
                for rp, rc in self.elim[pidx]:
                    out[rp] = out.get(rp, ZERO) + c * rc
            else:
                out[pidx] = out.get(pidx, ZERO) + c
        return {p: c for p, c in out.items() if c != 0}

    def reduce_series(self, s: HSeries) -> HSeries:
        """Reduce every coefficient class; z-exponents ride along."""
        out: dict = {}
        for key, inner in s.terms.items():
            by_z: dict[int, ClassVec] = {}
            for (p, z), c in inner.items():
                by_z.setdefault(z, {})[p] = c
            new_inner = {}
            for z, vec in by_z.items():
                for p, c in self.reduce_class(vec).items():
                    new_inner[(p, z)] = canon(c)
            if new_inner:
                out[key] = new_inner
        return HSeries(s.ctx, out)


# -------------------------------------------------------------- integration


def poincare_integral(ctx: Context, target, basis: NoneqBasis | None = None):
    """Integrate over the compact toric variety of a complete fan.

    Normalized so that every top-degree point class supported on a maximal
    cone integrates to 1; classes below the top degree integrate to 0.
    For an HSeries the result is a scalar series (z-powers ride along).
    """
    if not ctx.fan.complete:
        raise NonCompactFan(f"fan {ctx.fan.name!r} is not complete")
    nb = basis if basis is not None else NoneqBasis(ctx)
    top = ctx.fan.dim
    reps = nb.reps[top]
    if len(reps) != 1:
        raise NonCompactFan("top reduced cohomology is not one-dimensional")
    top_rep = reps[0]
    if isinstance(target, HSeries):
        return phi_component(nb.reduce_series(target.degree_cap(top)), top_rep)
    red = nb.reduce_class({p: c for p, c in target.items() if ctx.norms[p] <= top})
    return red.get(top_rep, ZERO)


__all__ = [
    "phi_product",
    "lambda_class",
    "NoneqBasis",
    "poincare_integral",
]
