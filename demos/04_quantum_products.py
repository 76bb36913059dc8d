"""Quantum products: Novikov relations on compact fans, classical on affine.

The product of two basis classes is computed by expressing both in the
Seidel frame and transporting back.  At the base point (all deformation
variables zero) the ray classes of the line and the plane satisfy the
classical relations u1 u2 = Q and u1 u2 u3 = Q; away from the base point
the product picks up exact deformation corrections.  On an affine fan
there are no curve classes at all and the product is Stanley-Reisner
multiplication for every value of the parameters.
"""

from toricmirror.cli import BUILTIN_FANS
from toricmirror.engine import compute_mirror_data, quantum_product
from toricmirror.fans import load_fan
from toricmirror.series import Context, HSeries, TruncationPolicy


def context(name, **kw):
    caps = dict(kcoh=3, kvar=2, qcap=3, gcap=2, zneg=10)
    caps.update(kw)
    return Context(load_fan(dict(BUILTIN_FANS[name])), TruncationPolicy(**caps))


def base_part(series):
    return HSeries(series.ctx,
                   {k: dict(v) for k, v in series.terms.items() if not k[1]})


ctx = context("p1")
md = compute_mirror_data(ctx)
u1 = HSeries.phi(ctx, ctx.ray_pidx[0])
u2 = HSeries.phi(ctx, ctx.ray_pidx[1])
prod = quantum_product(md, u1, u2)
print("line: u1 * u2 at the base point:")
for rec in base_part(prod).records():
    print(f"  d={rec['d']} k={rec['k']} {rec['num']}/{rec['den']}")
print(f"  full product has {len(prod.records())} records "
      f"(deformation corrections included)")

ctx2 = context("p2")
md2 = compute_mirror_data(ctx2)
us = [HSeries.phi(ctx2, p) for p in ctx2.ray_pidx]
triple = quantum_product(md2, quantum_product(md2, us[0], us[1]), us[2])
print("\nplane: u1 * u2 * u3 at the base point:")
for rec in base_part(triple).records():
    print(f"  d={rec['d']} k={rec['k']} {rec['num']}/{rec['den']}")

ctxc = context("c2", qcap=0)
mdc = compute_mirror_data(ctxc)
pa = HSeries.phi(ctxc, ctxc.pindex[(1, 0)])
pb = HSeries.phi(ctxc, ctxc.pindex[(0, 1)])
print("\naffine plane: quantum product equals the classical product "
      f"at all parameters: {quantum_product(mdc, pa, pb) == pa * pb}")
