"""Command-line interface: inspect fans, run the engine, check identities.

Every command prints canonical JSON (sorted keys, exact rationals as
integer numerator/denominator pairs or strings) so that reruns are
byte-identical; --format table renders the same data as aligned text.
"""

import argparse
import json
import sys

from . import fans
from .engine import build_I, compute_mirror_data, primitive_form, quantum_product
from .errors import PolicyMismatch, ToricMirrorError
from .gaussmanin import jacobi_structure_constants, noneq_restrict
from .series import Context, HSeries, TruncationPolicy
from .verify import negative_controls, run_property_suite, wdvv_compare, wdvv_oracle_p2

BUILTIN_FANS = {
    "p1": {
        "name": "p1",
        "dim": 1,
        "rays": [[1], [-1]],
        "max_cones": [[0], [1]],
    },
    "p2": {
        "name": "p2",
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    },
    "c2": {
        "name": "c2",
        "dim": 2,
        "rays": [[1, 0], [0, 1]],
        "max_cones": [[0, 1]],
    },
    "f1": {
        "name": "f1",
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
    },
}


def _resolve_fan(token: str) -> fans.Fan:
    if token in BUILTIN_FANS:
        return fans.load_fan(dict(BUILTIN_FANS[token]))
    return fans.load_fan(token)


def _context(args) -> Context:
    policy = TruncationPolicy(
        kcoh=args.kcoh, kvar=args.kvar, qcap=args.qcap,
        gcap=args.gcap, zneg=args.zneg,
    )
    return Context(_resolve_fan(args.fan), policy)


def _parse_point(ctx: Context, token: str):
    """A class token: 'b<i>' for the i-th ray (1-based) or comma coordinates."""
    token = token.strip()
    if token.startswith("b") and token[1:].isdigit():
        i = int(token[1:])
        if not 1 <= i <= ctx.fan.n_rays:
            raise PolicyMismatch(f"ray token {token!r}: fan has {ctx.fan.n_rays} rays")
        return ctx.fan.rays[i - 1]
    try:
        point = tuple(int(x) for x in token.split(","))
    except ValueError:
        raise PolicyMismatch(f"cannot parse class token {token!r}") from None
    if len(point) != ctx.fan.dim:
        raise PolicyMismatch(f"class token {token!r} has the wrong dimension")
    return point


def _phi(ctx: Context, token: str) -> HSeries:
    point = _parse_point(ctx, token)
    pidx = ctx.pindex.get(tuple(point))
    if pidx is None:
        raise PolicyMismatch(f"point {tuple(point)} is beyond the working window")
    return HSeries.phi(ctx, pidx)


def _parse_section(token: str):
    try:
        return [tuple(int(x) for x in part.split(",")) for part in token.split(";")]
    except ValueError:
        raise PolicyMismatch(f"cannot parse section {token!r}") from None


# ------------------------------------------------------------ subcommands


def _cmd_validate(args):
    fan = _resolve_fan(args.fan)
    payload = fan.to_dict()
    payload["complete"] = fan.complete
    payload["n_rays"] = fan.n_rays
    payload["fingerprint"] = fans.fan_fingerprint(fan)
    return 0, payload


def _cmd_enumerate(args):
    ctx = _context(args)
    payload = {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "points": [
            {
                "k": list(pd.point),
                "norm": pd.norm,
                "psi": list(pd.psi),
                "beta": list(pd.beta),
            }
            for pd in ctx.points
        ],
        "effective": [
            {"d": list(d), "degree": ctx.eff_deg[i]}
            for i, d in enumerate(ctx.eff)
        ],
    }
    return 0, payload


def _cmd_ifunction(args):
    ctx = _context(args)
    payload = {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "series": build_I(ctx).records(),
    }
    return 0, payload


def _cmd_mirror_map(args):
    ctx = _context(args)
    md = compute_mirror_data(ctx)
    payload = {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "tau": md.tau.records(),
        "upsilon": md.upsilon.records(),
    }
    return 0, payload


def _seidel_points(ctx):
    pidxs = list(ctx.ray_pidx)
    for gv in ctx.gvars:
        if gv.pidx not in pidxs:
            pidxs.append(gv.pidx)
    return sorted(pidxs)


def _cmd_seidel(args):
    ctx = _context(args)
    md = compute_mirror_data(ctx)
    payload = {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "classes": [
            {"k": list(ctx.points[p].point), "series": md.S[p].records()}
            for p in _seidel_points(ctx)
        ],
    }
    return 0, payload


def _cmd_qproduct(args):
    ctx = _context(args)
    md = compute_mirror_data(ctx)
    prod = quantum_product(md, _phi(ctx, args.a), _phi(ctx, args.b))
    payload = {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "a": list(_parse_point(ctx, args.a)),
        "b": list(_parse_point(ctx, args.b)),
        "product": prod.records(),
    }
    return 0, payload


def _cmd_jacobi(args):
    ctx = _context(args)
    md = compute_mirror_data(ctx)
    report = jacobi_structure_constants(md, strict=False)
    return (0 if report["failures"] == 0 else 1), report


def _cmd_primitive_form(args):
    ctx = _context(args)
    md = compute_mirror_data(ctx)
    pf = primitive_form(md, route=args.route)
    payload = {
        "fan": ctx.fan.name,
        "order": ctx.policy.label(),
        "route": args.route,
    }
    if pf.coefficients is not None:
        payload["coefficients"] = [
            {"k": list(ctx.points[p].point), "series": s.records()}
            for p, s in sorted(pf.coefficients.items())
        ]
    if pf.reparametrization is not None:
        payload["reparametrization"] = [
            {"k": list(ctx.points[p].point), "zorder": n, "series": s.records()}
            for (p, n), s in sorted(pf.reparametrization.items())
        ]
    if pf.tau_check is not None:
        payload["tau_check"] = pf.tau_check.records()
    return 0, payload


def _cmd_noneq(args):
    section = _parse_section(args.section) if args.section else None
    md = compute_mirror_data(_context(args))
    nr = noneq_restrict(md, section=section)
    return 0, nr.to_dict()


def _cmd_check(args):
    if args.controls:
        entries = negative_controls(_context(args))
    else:
        ctx = _context(args)
        section = _parse_section(args.section) if args.section else None
        entries = run_property_suite(ctx, section=section)
    ok = all(e["status"] == "pass" for e in entries)
    return (0 if ok else 1), entries


def _cmd_oracle_p2(args):
    least = 2 if args.compare else 1  # --compare needs a curve count to compare
    if args.dmax < least:
        raise PolicyMismatch(f"--dmax must be at least {least}")
    if args.compare:
        report = wdvv_compare(dmax=args.dmax, strict=False)
        return (0 if report["status"] == "pass" else 1), report
    return 0, {"dmax": args.dmax, "counts": wdvv_oracle_p2(args.dmax)}


# ------------------------------------------------------------- formatting


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


def _render_table(payload) -> str:
    if isinstance(payload, list) and payload and all(
        isinstance(r, dict) for r in payload
    ):
        cols: list = []
        for row in payload:
            for key in row:
                if key not in cols:
                    cols.append(key)
        grid = [cols] + [[_cell(r.get(c, "")) for c in cols] for r in payload]
        widths = [max(len(row[i]) for row in grid) for i in range(len(cols))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in grid
        )
    if isinstance(payload, dict):
        items = sorted(payload.items())
        width = max(len(k) for k, _ in items)
        return "\n".join(f"{k.ljust(width)}  {_cell(v)}" for k, v in items)
    return _cell(payload)


def _emit(payload, args) -> None:
    if args.format == "table":
        text = _render_table(payload) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -------------------------------------------------------------- arguments


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--fan", default="p1",
        help="builtin name (p1, p2, c2, f1), JSON file path, or JSON text",
    )
    common.add_argument("--kcoh", type=int, default=3, help="basis degree cap")
    common.add_argument("--kvar", type=int, default=2, help="deformation point cap")
    common.add_argument("--qcap", type=int, default=3, help="Novikov degree cap")
    common.add_argument("--gcap", type=int, default=2, help="variable degree cap")
    common.add_argument("--zneg", type=int, default=10, help="negative z depth")
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--out", default=None, help="write output to this file")

    parser = argparse.ArgumentParser(
        prog="toricmirror",
        description="equivariant toric mirror computations in exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.set_defaults(func=fn)
        return p

    cmd("validate", _cmd_validate, "load a fan and print its invariants")
    cmd("enumerate", _cmd_enumerate, "list basis points and effective classes")
    cmd("ifunction", _cmd_ifunction, "print the hypergeometric series")
    cmd("mirror-map", _cmd_mirror_map, "print the mirror map and unit flow")
    cmd("seidel", _cmd_seidel, "print the Seidel classes of rays and variables")

    p = cmd("qproduct", _cmd_qproduct, "quantum product of two classes")
    p.add_argument("a", help="class token: b<i> for a ray or comma coordinates")
    p.add_argument("b", help="class token: b<i> for a ray or comma coordinates")

    cmd("jacobi", _cmd_jacobi, "structure-constant table of the shift module")

    p = cmd("primitive-form", _cmd_primitive_form, "volume-form normalization")
    p.add_argument("--route", choices=("a", "b", "both"), default="both")

    p = cmd("noneq", _cmd_noneq, "restrict to the canonical unfolding")
    p.add_argument("--section", default=None,
                   help="semicolon-separated point list, e.g. '0,0;1,0;1,1'")

    p = cmd("check", _cmd_check, "run the property suite (exit 1 on failure)")
    p.add_argument("--controls", action="store_true",
                   help="run the corruption-detection controls instead")
    p.add_argument("--section", default=None,
                   help="unfolding section for the restriction check")

    p = cmd("oracle-p2", _cmd_oracle_p2, "plane curve counts by recursion")
    p.add_argument("--dmax", type=int, default=5, help="largest degree")
    p.add_argument("--compare", action="store_true",
                   help="also extract the counts from the engine and compare")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.func(args)
    except ToricMirrorError as exc:
        sys.stderr.write(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)},
                sort_keys=True,
            )
            + "\n"
        )
        return 2
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
