"""Truncated multi-graded series over the cone-point cohomology basis.

An HSeries is a finite sum of terms

    c * phi_k * z^a * Q^d * y^g

where phi_k is the basis class of a lattice point k of the fan support, z is
the loop parameter (negative powers allowed inside a managed window), Q^d is a
Novikov monomial indexed by an effective curve class, and y^g is a monomial in
the deformation variables (one variable y_j per non-ray support point with
|j| <= Kvar).

Truncation semantics
--------------------
Novikov degree > Qcap and variable degree > Gcap are genuine ring quotients
and are dropped silently.  Everything else is managed-window bookkeeping:

* basis degree: the engine works in an internally extended window
  |k| <= Kwork = Kcoh + max(Kvar, Gcap*(Kvar-1)).  A product escaping Kwork is
  dropped; it is counted as a loss only if the remaining variable budget could
  have transported it back inside the user window |k| <= Kcoh (each extra
  variable power lowers the basis degree by at most Kvar - 1, which is where
  the Kwork margin comes from).
* z window: exponents outside [-Zneg, Zpos] are dropped and always counted.

Products go through two accumulating kernels, ``_mul_into`` (series times
series, behind ``HSeries.__mul__``) and ``_apply_into`` (operator on a series,
behind ``OperatorSeries.apply`` and ``compose``); each adds its product into
a terms dict the caller passes in, so sums of products need no copies.

The shared Context keeps the loss counters, the one record of truncation:
a run lost terms iff one of them is nonzero, and
``compute_mirror_data(check=True)`` raises TruncationLoss then.

Every stored coefficient is an ``int`` when integral and a ``QQ`` otherwise
(``linalg.canon``); the arithmetic below keeps that invariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

from fractions import Fraction

from . import fans
from .errors import PolicyMismatch, SingularJacobian
from .linalg import QQ, ZERO, canon, mat_inv

OVERFLOW = -1
SCALARS = (int, Fraction, type(QQ(0)))


@dataclass(frozen=True)
class TruncationPolicy:
    """Caps of the working quotient ring.

    zpos/kwork default to windows wide enough that every engine computation
    at these caps is loss-free (see module docstring); active_points narrows
    the deformation-variable set to the listed support points.
    """

    kcoh: int
    kvar: int
    qcap: int
    gcap: int
    zneg: int
    zpos: int | None = None
    kwork: int | None = None
    active_points: tuple | None = None

    def label(self) -> dict:
        return {
            "kcoh": self.kcoh,
            "kvar": self.kvar,
            "qcap": self.qcap,
            "gcap": self.gcap,
            "zneg": self.zneg,
            "zpos": self.zpos,
            "kwork": self.kwork,
            "active_points": None
            if self.active_points is None
            else [list(p) for p in self.active_points],
        }


@dataclass(frozen=True)
class GVar:
    kind: str   # always "y": an ordinary deformation variable
    pidx: int   # support-point index
    order: int  # always 0; the order slot of a record's gexp entry


class Context:
    """A fan together with a truncation policy and all derived tables."""

    def __init__(self, fan: fans.Fan, policy: TruncationPolicy):
        for cap in ("kcoh", "kvar", "qcap", "gcap", "zneg"):
            if getattr(policy, cap) < 0:
                raise PolicyMismatch(f"{cap} must be nonnegative")
        self.fan = fan
        self.policy = policy
        self.kwork = (
            policy.kwork
            if policy.kwork is not None
            else policy.kcoh + max(policy.kvar, policy.gcap * max(policy.kvar - 1, 0))
        )
        self.zpos = (
            policy.zpos
            if policy.zpos is not None
            else self.kwork + policy.gcap * max(policy.kvar - 1, 0)
        )
        self.zneg = policy.zneg
        if self.zpos < policy.kcoh:
            raise PolicyMismatch("zpos must be at least kcoh")

        self.points = [
            fans.point_data(fan, k) for k in fans.enumerate_points(fan, self.kwork)
        ]
        self.pindex = {pd.point: i for i, pd in enumerate(self.points)}
        self.norms = [pd.norm for pd in self.points]
        self.unit_pidx = self.pindex[(0,) * fan.dim]
        self.ray_pidx = [self.pindex[r] for r in fan.rays]

        self.eff = fans.enumerate_effective(fan, policy.qcap)
        self.eindex = {d: i for i, d in enumerate(self.eff)}
        self.eff_deg = [fan.degree(d) for d in self.eff]
        self.c1_deg = [sum(d) for d in self.eff]  # anticanonical degree
        self.zero_eidx = self.eindex[(0,) * fan.n_rays]
        # eadd[e1][e2]: index of the class e1 + e2, None past Qcap
        self.eadd = [
            [self.eindex.get(tuple(x + y for x, y in zip(d1, d2))) for d2 in self.eff]
            for d1 in self.eff
        ]

        ray_set = set(self.ray_pidx)
        active = (
            None
            if policy.active_points is None
            else {tuple(p) for p in policy.active_points}
        )
        self.gvars: list[GVar] = []
        for i, pd in enumerate(self.points):
            if pd.norm > policy.kvar or i in ray_set:
                continue
            if active is not None and pd.point not in active:
                continue
            self.gvars.append(GVar("y", i, 0))
        if active is not None and len(self.gvars) != len(active):
            raise PolicyMismatch("active_points must be non-ray points with |k| <= kvar")
        self.var_index = {(v.kind, v.pidx, v.order): vi for vi, v in enumerate(self.gvars)}
        self.var_ewt = [1 - self.norms[v.pidx] for v in self.gvars]
        # every variable monomial of degree <= gcap, as sorted (var, exp) pairs
        self.g_monomials = sorted(
            tuple(sorted(Counter(vs).items()))
            for deg in range(policy.gcap + 1)
            for vs in combinations_with_replacement(range(len(self.gvars)), deg)
        )
        self.g_degree = _Degrees((g, g_deg(g)) for g in self.g_monomials)

        self.losses: Counter = Counter()
        self._prod: dict[tuple[int, int], int | None] = {}
        self._shift: dict[tuple[int, int], tuple[int, int] | None] = {}

    # ------------------------------------------------------------- tables

    def phi_mul(self, p1: int, p2: int) -> int | None:
        """Index of phi_{k1} * phi_{k2}; None if zero; OVERFLOW past kwork."""
        key = (p1, p2) if p1 <= p2 else (p2, p1)
        hit = self._prod.get(key, "miss")
        if hit != "miss":
            return hit
        a, b = self.points[key[0]], self.points[key[1]]
        support = set(a.psi_support) | set(b.psi_support)
        res: int | None
        if not any(support <= set(c) for c in self.fan.max_cones):
            res = None
        elif a.norm + b.norm > self.kwork:
            res = OVERFLOW
        else:
            target = tuple(x + y for x, y in zip(a.point, b.point))
            res = self.pindex[target]
        self._prod[key] = res
        return res

    def translate(self, p1: int, p2: int) -> tuple[int, int] | None:
        """Target point and cocycle class of w^{k1} w^{k2} = Q^{d(k1,k2)} w^{k1+k2}.

        d(k1, k2) = psi(k1) + psi(k2) - psi(k1 + k2), read off the stored
        points.  None when k1 + k2 lies past kwork or d(k1, k2) past Qcap.
        Memoized per context like ``phi_mul``; both are symmetric.
        """
        key = (p1, p2) if p1 <= p2 else (p2, p1)
        if key not in self._shift:
            a, b = self.points[p1], self.points[p2]
            tp = self.pindex.get(tuple(x + y for x, y in zip(a.point, b.point)))
            de = None if tp is None else self.eindex.get(
                tuple(x + y - z for x, y, z in zip(a.psi, b.psi, self.points[tp].psi)))
            self._shift[key] = None if de is None else (tp, de)
        return self._shift[key]

    def ray_exponents(self, d, g: tuple, offset_pidx=None) -> tuple:
        """Per-ray exponents of the term at (Q^d, y^g), shifted once by a point.

        The exponent on the ray b_i is d_i minus the psi_i-weighted variable
        degrees; the optional offset subtracts psi_i of one more point (the
        shape of a first-order extension column).  d is a class vector and
        need not be effective.
        """
        ell = list(d)
        for v, e in g:
            for i, p in enumerate(self.points[self.gvars[v].pidx].psi):
                if p:
                    ell[i] -= p * e
        if offset_pidx is not None:
            for i, p in enumerate(self.points[offset_pidx].psi):
                if p:
                    ell[i] -= p
        return tuple(ell)

    def note_degree_overflow(self, norm_sum: int, g_budget: int):
        """Count a basis-degree drop if it could matter below Kcoh."""
        reachable = norm_sum - g_budget * max(self.policy.kvar - 1, 0)
        if reachable <= self.policy.kcoh:
            self.losses["degree"] += 1

    def note_z_clip(self):
        self.losses["z"] += 1

    # --------------------------------------------------------- gradings

    def age(self, eidx: int, g: tuple) -> int:
        return self.c1_deg[eidx] + sum(self.var_ewt[v] * e for v, e in g)

    def order(self, eidx: int, g: tuple) -> int:
        return self.eff_deg[eidx] + sum(e for _, e in g)

    def var(self, point, order: int = 0) -> int:
        """Variable index for the point; only order 0 is registered."""
        key = ("y", self.pindex[tuple(point)], order)
        if key not in self.var_index:
            raise PolicyMismatch(f"no registered variable for point {point}, order {order}")
        return self.var_index[key]


# ---------------------------------------------------------------- g-monomials


def g_merge(g1: tuple, g2: tuple) -> tuple:
    if not g1:
        return g2
    if not g2:
        return g1
    acc = dict(g1)
    for v, e in g2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def g_deg(g: tuple) -> int:
    return sum(e for _, e in g)


class _Degrees(dict):
    """Variable degree by monomial; a key past the table is summed, not stored."""

    def __missing__(self, g):
        return g_deg(g)


def _add_to(bucket: dict, key, val):
    """bucket[key] += val, dropping a zero and storing an integral QQ as int."""
    nv = bucket.get(key, 0) + val
    if nv == 0:
        bucket.pop(key, None)
    elif nv.__class__ is int or nv.denominator != 1:
        bucket[key] = nv
    else:
        bucket[key] = int(nv.numerator)


def _by_degree(s: "HSeries") -> list:
    """(variable degree, class, monomial, inner) per key, lowest degree first."""
    deg = s.ctx.g_degree
    return sorted(
        ((deg[g], e, g, inner) for (e, g), inner in s.terms.items()),
        key=lambda t: t[0],
    )


def _mul_into(out: dict, left: HSeries, right: list) -> dict:
    """out += left * right, with right given as _by_degree of a series."""
    ctx = left.ctx
    gcap = ctx.policy.gcap
    zlo, zhi = -ctx.zneg, ctx.zpos
    deg = ctx.g_degree
    # a left key of degree d1 meets only right keys of degree <= gcap - d1
    for (e1, g1), c1 in left.terms.items():
        room = gcap - deg[g1]
        row = ctx.eadd[e1]
        for d2, e2, g2, c2 in right:
            if d2 > room:
                break
            eidx = row[e2]
            if eidx is None:
                continue  # Novikov quotient
            g = g_merge(g1, g2)
            budget = room - d2
            bucket = out.setdefault((eidx, g), {})
            for (p1, z1), v1 in c1.items():
                for (p2, z2), v2 in c2.items():
                    tgt = ctx.phi_mul(p1, p2)
                    if tgt is None:
                        continue
                    if tgt == OVERFLOW:
                        ctx.note_degree_overflow(ctx.norms[p1] + ctx.norms[p2], budget)
                        continue
                    ze = z1 + z2
                    if ze < zlo or ze > zhi:
                        ctx.note_z_clip()
                        continue
                    _add_to(bucket, (tgt, ze), v1 * v2)
    return out


def _apply_into(out: dict, op: "OperatorSeries", s: HSeries, sign: int, by_deg: dict) -> dict:
    """out += sign * op(s); by_deg caches op's columns sorted by variable degree."""
    ctx = op.ctx
    gcap = ctx.policy.gcap
    zlo, zhi = -ctx.zneg, ctx.zpos
    eadd = ctx.eadd
    deg = ctx.g_degree
    for (eidx, g), inner in s.terms.items():
        room = gcap - deg[g]
        for (p, z), c in inner.items():
            keys = by_deg.get(p)
            if keys is None:
                col = op.cols.get(p)
                keys = by_deg[p] = () if col is None else _by_degree(col)
            c = c if sign > 0 else -c
            for d1, e1, g1, inner1 in keys:
                if d1 > room:
                    break
                e2 = eadd[e1][eidx]
                if e2 is None:
                    continue
                bucket = out.setdefault((e2, g_merge(g1, g)), {})
                for (p1, z1), c1 in inner1.items():
                    ze = z1 + z
                    if ze < zlo or ze > zhi:
                        ctx.note_z_clip()
                        continue
                    _add_to(bucket, (p1, ze), c1 * c)
    return out


# -------------------------------------------------------------------- HSeries


class HSeries:
    """A truncated series; see module docstring for the term shape.

    terms: {(eff_idx, g_monomial): {(point_idx, z_exp): coefficient}}
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        self.terms: dict = terms if terms is not None else {}

    # ------------------------------------------------------- constructors

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def unit(cls, ctx):
        return cls.phi(ctx, ctx.unit_pidx)

    @classmethod
    def phi(cls, ctx, pidx: int, zexp: int = 0, coeff=1):
        c = canon(coeff)
        if c == 0:
            return cls(ctx)
        return cls(ctx, {(ctx.zero_eidx, ()): {(pidx, zexp): c}})

    @classmethod
    def variable(cls, ctx, vidx: int):
        return cls(
            ctx, {(ctx.zero_eidx, ((vidx, 1),)): {(ctx.unit_pidx, 0): 1}}
        )

    @classmethod
    def novikov(cls, ctx, eidx: int):
        return cls(ctx, {(eidx, ()): {(ctx.unit_pidx, 0): 1}})

    # ----------------------------------------------------------- plumbing

    def _check(self, other: "HSeries"):
        if self.ctx is not other.ctx:
            raise PolicyMismatch("operands come from different contexts")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):  # pragma: no cover
        raise TypeError("HSeries is unhashable")

    def _accumulate(self, out: dict, eidx, g, pidx, zexp, val):
        """Add one term into `out`, or count it as a z-clip off the window."""
        if zexp < -self.ctx.zneg or zexp > self.ctx.zpos:
            self.ctx.note_z_clip()
            return
        _add_to(out.setdefault((eidx, g), {}), (pidx, zexp), val)

    @staticmethod
    def _cleanup(out: dict):
        for key in [k for k, v in out.items() if not v]:
            del out[key]
        return out

    # --------------------------------------------------------- arithmetic

    def __add__(self, other, sign: int = 1):
        """self + sign * other, adding coefficients into a copy of self."""
        if isinstance(other, SCALARS):
            other = HSeries.phi(self.ctx, self.ctx.unit_pidx, coeff=other)
        self._check(other)
        out = {k: dict(v) for k, v in self.terms.items()}
        for key, inner in other.terms.items():
            tgt = out.setdefault(key, {})
            for ik, c in inner.items():
                _add_to(tgt, ik, c if sign > 0 else -c)
        return HSeries(self.ctx, self._cleanup(out))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def scale(self, c) -> "HSeries":
        c = canon(c)
        if c == 0:
            return HSeries(self.ctx)
        return HSeries(
            self.ctx,
            {
                k: {ik: canon(v * c) for ik, v in inner.items()}
                for k, inner in self.terms.items()
            },
        )

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        self._check(other)
        return HSeries(self.ctx, self._cleanup(_mul_into({}, self, _by_degree(other))))

    __rmul__ = __mul__

    # ------------------------------------------------------------- parts

    def z_negative(self) -> "HSeries":
        return self._filter_inner(lambda p, z: z < 0)

    def z_coefficient(self, zexp: int) -> "HSeries":
        """The coefficient of z^zexp, returned with z-exponent zero."""
        out = {}
        for key, inner in self.terms.items():
            picked = {(p, 0): c for (p, z), c in inner.items() if z == zexp}
            if picked:
                out[key] = picked
        return HSeries(self.ctx, out)

    def z_shift(self, delta: int) -> "HSeries":
        out: dict = {}
        for (eidx, g), inner in self.terms.items():
            for (p, z), c in inner.items():
                self._accumulate(out, eidx, g, p, z + delta, c)
        return HSeries(self.ctx, self._cleanup(out))

    def order_part(self, n: int) -> "HSeries":
        """Terms whose combined order (Novikov degree + variable degree) is n."""
        out = {
            key: dict(inner)
            for key, inner in self.terms.items()
            if self.ctx.order(*key) == n
        }
        return HSeries(self.ctx, out)

    def y_degree_part(self, cap: int) -> "HSeries":
        """Terms of total deformation-variable degree at most cap."""
        out = {
            key: dict(inner)
            for key, inner in self.terms.items()
            if g_deg(key[1]) <= cap
        }
        return HSeries(self.ctx, out)

    def degree_cap(self, cap: int) -> "HSeries":
        """Drop components on basis points with |k| > cap (user-window view)."""
        return self._filter_inner(lambda p, z: self.ctx.norms[p] <= cap)

    def _filter_inner(self, pred) -> "HSeries":
        out = {}
        for key, inner in self.terms.items():
            kept = {(p, z): c for (p, z), c in inner.items() if pred(p, z)}
            if kept:
                out[key] = kept
        return HSeries(self.ctx, out)

    # -------------------------------------------------------- derivations

    def derive_var(self, vidx: int) -> "HSeries":
        """Partial derivative in the deformation variable with this index."""
        out: dict = {}
        for (eidx, g), inner in self.terms.items():
            gd = dict(g)
            e = gd.get(vidx, 0)
            if not e:
                continue
            if e == 1:
                del gd[vidx]
            else:
                gd[vidx] = e - 1
            key = (eidx, tuple(sorted(gd.items())))
            tgt = out.setdefault(key, {})
            for ik, c in inner.items():
                _add_to(tgt, ik, c * e)
        return HSeries(self.ctx, self._cleanup(out))

    def ray_gauge(self, ray: int) -> "HSeries":
        """Derivative along the absorbed ray variable on the gauge slice.

        On the slice y_{b_i} = 1 the i-th divisor direction acts per term by
        the integer d_i - sum_j psi_i(j) g_j.
        """
        ctx = self.ctx
        out = {}
        for (eidx, g), inner in self.terms.items():
            f = ctx.ray_exponents(ctx.eff[eidx], g)[ray]
            if f:
                out[(eidx, g)] = {ik: canon(c * f) for ik, c in inner.items()}
        return HSeries(self.ctx, out)

    # ------------------------------------------------------------ grading

    def weights(self) -> set[int]:
        """All values |k| + z_exp + age(d, g) occurring in the series."""
        found = set()
        for (eidx, g), inner in self.terms.items():
            a = self.ctx.age(eidx, g)
            for (p, z) in inner:
                found.add(self.ctx.norms[p] + z + a)
        return found

    def is_homogeneous(self, weight: int | None = None) -> bool:
        w = self.weights()
        if not w:
            return True
        return w == {weight} if weight is not None else len(w) == 1

    # ------------------------------------------------------ serialization

    def records(self) -> list[dict]:
        ctx = self.ctx
        recs = []
        for (eidx, g), inner in self.terms.items():
            gexp = [
                [list(ctx.points[ctx.gvars[v].pidx].point), ctx.gvars[v].order, e]
                for v, e in g
            ]
            for (p, z), c in sorted(inner.items()):
                recs.append(
                    {
                        "k": list(ctx.points[p].point),
                        "zexp": z,
                        "d": list(ctx.eff[eidx]),
                        "gexp": gexp,
                        "num": int(c.numerator),
                        "den": int(c.denominator),
                    }
                )
        recs.sort(key=lambda r: (r["d"], r["gexp"], r["k"], r["zexp"]))
        return recs

    def __repr__(self):  # pragma: no cover
        n = sum(len(v) for v in self.terms.values())
        return f"<HSeries {n} terms over {len(self.terms)} keys>"


# ---------------------------------------------------------- operator columns


class OperatorSeries:
    """A z-Laurent operator given by its columns on the basis points."""

    __slots__ = ("ctx", "cols")

    def __init__(self, ctx: Context, cols: dict[int, HSeries] | None = None):
        self.ctx = ctx
        self.cols = cols if cols is not None else {}

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, {p: HSeries.phi(ctx, p) for p in range(len(ctx.points))})

    def col(self, pidx: int) -> HSeries:
        return self.cols.get(pidx, HSeries.zero(self.ctx))

    def apply(self, s: HSeries) -> HSeries:
        """Apply the operator; series coefficients ride along multiplicatively."""
        return HSeries(self.ctx, HSeries._cleanup(_apply_into({}, self, s, 1, {})))

    def compose(self, other: "OperatorSeries") -> "OperatorSeries":
        acc = OperatorSeries(self.ctx, {k: HSeries(self.ctx) for k in other.cols})
        acc._add_composed(self, other, 1)
        return acc

    def _add_composed(self, left: "OperatorSeries", right: "OperatorSeries", sign: int):
        """self += sign * left . right in place (self's columns must be its own)."""
        by_deg: dict = {}
        for k, col in right.cols.items():
            tgt = self.cols.get(k)
            if tgt is None:
                tgt = self.cols[k] = HSeries(self.ctx)
            _apply_into(tgt.terms, left, col, sign, by_deg)
            HSeries._cleanup(tgt.terms)

    def __sub__(self, other):
        keys = set(self.cols) | set(other.cols)
        return OperatorSeries(
            self.ctx, {k: self.col(k) - other.col(k) for k in keys}
        )

    def map_cols(self, fn) -> "OperatorSeries":
        out = {k: fn(v) for k, v in self.cols.items()}
        return OperatorSeries(
            self.ctx, {k: v for k, v in out.items() if not v.is_zero()}
        )

    def order_part(self, n: int) -> "OperatorSeries":
        return self.map_cols(lambda s: s.order_part(n))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.cols.values())


def _key_shift(s: HSeries, eidx: int, g: tuple, zdelta: int) -> HSeries:
    """Multiply a series by Q^{d(eidx)} y^g z^{zdelta} (key translation)."""
    ctx = s.ctx
    if eidx == ctx.zero_eidx and not g and zdelta == 0:
        return s
    out: dict = {}
    gcap = ctx.policy.gcap
    for (e1, g1), inner in s.terms.items():
        e2 = ctx.eadd[e1][eidx]
        if e2 is None:
            continue
        gm = g_merge(g1, g)
        if g_deg(gm) > gcap:
            continue
        for (p, z), c in inner.items():
            s._accumulate(out, e2, gm, p, z + zdelta, c)
    return HSeries(ctx, HSeries._cleanup(out))


# ------------------------------------------------- composition and inversion


def compose(s: HSeries, subs: dict[int, HSeries]) -> HSeries:
    """Substitute series for variables: y_v -> subs[v] for v in subs.

    Every substituted series must have no variable-free part (so the
    substitution terminates within the variable-degree cap).  Variables not
    in `subs` are left alone.
    """
    ctx = s.ctx
    for v, sub in subs.items():
        sub._check(s)
        if any(not g for (_, g) in sub.terms):
            raise SingularJacobian(
                "substituted series must vanish at the variable origin"
            )
    powers: dict[tuple[int, int], HSeries] = {}

    def power(v: int, e: int) -> HSeries:
        if (v, e) in powers:
            return powers[(v, e)]
        out = subs[v] if e == 1 else power(v, e - 1) * subs[v]
        powers[(v, e)] = out
        return out

    total = HSeries.zero(ctx)
    for (eidx, g), inner in s.terms.items():
        stay = tuple((v, e) for v, e in g if v not in subs)
        base = HSeries(ctx, {(eidx, stay): dict(inner)})
        for v, e in g:
            if v in subs:
                base = base * power(v, e)
        total = total + base
    return total


def invert_map(targets: dict[int, HSeries]) -> dict[int, HSeries]:
    """Invert a family y -> t(y) of scalar series, t_v = (linear in y) + higher.

    The linear part may have Novikov-dependent coefficients; its constant part
    must be invertible (SingularJacobian otherwise).  Returns series y_v(t)
    expressed in the same variable slots, now read as the t-variables.
    """
    if not targets:
        return {}
    ctx = next(iter(targets.values())).ctx
    vs = sorted(targets)
    nv = len(vs)
    # split: t_v = sum_w L[v][w] y_w + N_v(y), L scalar Novikov series
    lin: dict[tuple[int, int], HSeries] = {}
    rest: dict[int, HSeries] = {}
    for v in vs:
        r = HSeries.zero(ctx)
        for (eidx, g), inner in targets[v].terms.items():
            if len(g) == 1 and g[0][1] == 1 and g[0][0] in targets:
                w = g[0][0]
                piece = HSeries(ctx, {(eidx, ()): dict(inner)})
                lin[(v, w)] = lin.get((v, w), HSeries.zero(ctx)) + piece
            elif not g:
                raise SingularJacobian("map has a variable-free part")
            else:
                r = r + HSeries(ctx, {(eidx, g): dict(inner)})
        rest[v] = r
    # constant (Novikov-degree-0, z-free, unit-class) part of L
    const = [[ZERO] * nv for _ in range(nv)]
    for (v, w), s in lin.items():
        inner = s.terms.get((ctx.zero_eidx, ()), {})
        const[vs.index(v)][vs.index(w)] = inner.get((ctx.unit_pidx, 0), ZERO)
    try:
        cinv = mat_inv(const)
    except ZeroDivisionError as exc:
        raise SingularJacobian("linear part is singular at the origin") from exc

    def apply_cinv(vec: dict[int, HSeries]) -> dict[int, HSeries]:
        out = {}
        for a, va in enumerate(vs):
            acc = HSeries.zero(ctx)
            for b, vb in enumerate(vs):
                if cinv[a][b] != 0:
                    acc = acc + vec[vb].scale(cinv[a][b])
            out[va] = acc
        return out

    # higher Novikov corrections of L move into the nonlinear remainder
    for (v, w), s in lin.items():
        tail = HSeries(
            ctx,
            {
                (eidx, ()): dict(inner)
                for (eidx, g), inner in s.terms.items()
                if eidx != ctx.zero_eidx
            },
        )
        # also catch degree-0 pieces that are not the plain unit coefficient
        head = s.terms.get((ctx.zero_eidx, ()), {})
        odd = {ik: c for ik, c in head.items() if ik != (ctx.unit_pidx, 0)}
        if odd:
            tail = tail + HSeries(ctx, {(ctx.zero_eidx, ()): odd})
        if not tail.is_zero():
            rest[v] = rest[v] + tail * HSeries.variable(ctx, w)

    t_vars = {v: HSeries.variable(ctx, v) for v in vs}
    current = apply_cinv(t_vars)
    rounds = ctx.policy.gcap + ctx.policy.qcap + 1
    for _ in range(rounds):
        corr = {}
        for v in vs:
            nl = compose(rest[v], current) if not rest[v].is_zero() else HSeries.zero(ctx)
            corr[v] = t_vars[v] - nl
        current = apply_cinv(corr)
    return current


def exp_series(s: HSeries) -> HSeries:
    """exp of a series with no constant term (exact, termwise rational)."""
    if (s.ctx.zero_eidx, ()) in s.terms:
        raise SingularJacobian("exp needs a series vanishing at the origin")
    out = HSeries.unit(s.ctx)
    power = HSeries.unit(s.ctx)
    nmax = s.ctx.policy.qcap + s.ctx.policy.gcap + 1
    for n in range(1, nmax + 1):
        power = power * s
        if power.is_zero():
            break
        out = out + power.scale(QQ(1, factorial(n)))
    return out


def log_series(s: HSeries) -> HSeries:
    """log of a series of the form 1 + x with x vanishing at the origin."""
    x = s - 1
    if (x.ctx.zero_eidx, ()) in x.terms:
        inner = x.terms[(x.ctx.zero_eidx, ())]
        if any(z == 0 and p == x.ctx.unit_pidx for (p, z) in inner):
            raise SingularJacobian("log needs a series of the form 1 + (higher)")
    out = HSeries.zero(s.ctx)
    power = HSeries.unit(s.ctx)
    nmax = s.ctx.policy.qcap + s.ctx.policy.gcap + 1
    for n in range(1, nmax + 1):
        power = power * x
        if power.is_zero():
            break
        out = out + power.scale(QQ((-1) ** (n + 1), n))
    return out


__all__ = [
    "TruncationPolicy",
    "Context",
    "GVar",
    "HSeries",
    "OperatorSeries",
    "compose",
    "invert_map",
    "exp_series",
    "log_series",
    "g_merge",
    "g_deg",
    "OVERFLOW",
]
