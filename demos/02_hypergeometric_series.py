"""The equivariant hypergeometric series and its fixed-point restrictions.

The series attached to a fan collects one falling-factorial term per pair
(curve class, variable monomial).  Everything is exact: coefficients are
rationals in the equivariant classes u_i and z.  Restricting to a torus
fixed point turns each coefficient into a single factored monomial -- a
scalar times a product of linear forms in lambda and z -- which is the
shape the localization checks exploit.
"""

from toricmirror.cli import BUILTIN_FANS
from toricmirror.engine import build_I
from toricmirror.fans import load_fan
from toricmirror.series import Context, TruncationPolicy
from toricmirror.verify import LocalizedSeries

policy = TruncationPolicy(kcoh=3, kvar=2, qcap=3, gcap=2, zneg=10)
ctx = Context(load_fan(dict(BUILTIN_FANS["p1"])), policy)

I = build_I(ctx)
print(f"series on {ctx.fan.name}: {len(I.records())} stored records, "
      f"weights {I.weights()}")
print("first records (class, variables, point, z, coefficient):")
for rec in I.records()[:6]:
    print(f"  d={rec['d']} g={rec['gexp']} k={rec['k']} "
          f"z^{rec['zexp']} {rec['num']}/{rec['den']}")

# At the fixed point of the cone spanned by b1 the class u1 restricts to
# the weight L1 and u2 restricts to zero, so the order-(1,1) coefficient
# 1/((u1+z)(u2+z)) collapses to 1/(z(L1+z)) -- with the overall z of the
# series, just 1/(L1+z).
for cone in ctx.fan.max_cones:
    loc = LocalizedSeries(ctx, cone)
    print(f"\nfixed point of cone {cone}: ray weights {loc.weights}")
    for d in ((0, 0), (1, 1), (2, 2)):
        print(f"  Q^{d} coefficient: {loc.coefficient(d, ())}")

# Ineffective classes and off-cone negative exponents vanish identically.
loc = LocalizedSeries(ctx, ctx.fan.max_cones[0])
print(f"\nQ^(2,1) (not a curve class): {loc.coefficient((2, 1), ())}")
vm = ctx.var((-2,))
print(f"Q^(1,1) y_(-2) (negative exponent off the cone): "
      f"{loc.coefficient((1, 1), ((vm, 1),))}")
