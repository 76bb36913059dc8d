"""The benchmark's workloads: seeded inputs, the timed call, and its check.

Every workload is a closed loop in one thread: the next op starts only when
the previous one has returned.  An op is timed around one call into a public
function of the program; its output is checked afterwards, outside the timed
region, by ``check``, which raises ``WrongAnswer`` on a wrong output.

A workload runs whole rounds, so the share of failed ops never depends on the
run length.  A round of ``solve`` or ``verify`` is a fixed cycle of ops, the
same in every round and for every seed (its order decides the peak memory); a
round of ``query`` is 100 fresh queries drawn from the seed.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from toricmirror import cli
from toricmirror.engine import compute_mirror_data, quantum_product
from toricmirror.fans import load_fan
from toricmirror.series import Context, HSeries, TruncationPolicy

import oracles

DEFAULT = dict(kcoh=3, kvar=2, qcap=3, gcap=2, zneg=10)

FAN_SPECS = {
    **cli.BUILTIN_FANS,
    "p3": {"name": "p3", "dim": 3,
           "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
           "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]},
    # the total space of O(-2) over P^1: non-compact
    "kp1": {"name": "kp1", "dim": 2, "rays": [[1, 0], [0, 1], [-1, 2]],
            "max_cones": [[0, 1], [1, 2]]},
    # the Hirzebruch surface F3: not semipositive
    "f3": {"name": "f3", "dim": 2, "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]],
           "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
}


def fan_spec(name):
    """A fresh copy of a fan description (load_fan may keep what it is given)."""
    return json.loads(json.dumps(FAN_SPECS[name]))


class WrongAnswer(Exception):
    """An op returned, but its output failed the benchmark's check."""


def _require(problems):
    if problems:
        raise WrongAnswer("; ".join(problems))


@dataclass
class Op:
    """One timed call.  ``known_fault`` names the exception a known program
    fault raises on this op, so the op is counted failed without making the
    run incorrect."""

    name: str
    args: tuple
    known_fault: str | None = None
    extra: dict = field(default_factory=dict)


class Workload:
    """setup() -> state; rounds(state) yields lists of Op; run(state, op) is the
    timed call; check(state, op, out) raises WrongAnswer; finish(state) checks
    what only the whole run shows.  SETUP_PASSES is how many times a run sets
    up, for the median that setup_s reports."""

    SETUP_PASSES = 5

    def __init__(self, seed):
        self.seed = seed

    def finish(self, state):
        pass


# ------------------------------------------------------------------ solve


class Solve(Workload):
    """A fresh Context and compute_mirror_data(check=True) per op.

    A fixed cycle, the same for every seed: its order sets the peak memory.
    Every window is chosen so an op takes about 0.4-1.5 s and a run times each
    shape several times: with 4-8 s ops a run timed each shape once, and the
    median of those five ops moved by 24% between runs.
    """

    name = "solve"
    # zneg 14 keeps the deep p1 window loss-free.
    CYCLE = [
        ("p1", dict(DEFAULT, qcap=5, gcap=3, zneg=14)),
        ("p2", dict(DEFAULT, gcap=1)),
        ("p3", dict(DEFAULT, gcap=1)),
        ("f1", dict(DEFAULT, qcap=1, gcap=1)),
        ("kp1", dict(DEFAULT, qcap=1, gcap=1)),
        ("f3", dict(DEFAULT, qcap=1, gcap=1)),
    ]
    # invert_map rejects the mirror map of a non-semipositive fan, whose
    # Novikov-only part at y = 0 is nonzero.
    KNOWN_FAULTS = {"f3": "SingularJacobian"}
    WARM_UP = ("p1", dict(DEFAULT, qcap=5, gcap=3, zneg=14))

    def setup(self):
        fans = {name: load_fan(fan_spec(name)) for name, _ in self.CYCLE + [self.WARM_UP]}
        state = {"fans": fans}
        warm = Op("warm-up", (self.WARM_UP[0], TruncationPolicy(**self.WARM_UP[1])))
        self.check(state, warm, self.run(state, warm))
        return state

    def rounds(self, state):
        ops = [
            Op(f"{name}:{caps['qcap']}/{caps['gcap']}",
               (name, TruncationPolicy(**caps)), self.KNOWN_FAULTS.get(name))
            for name, caps in self.CYCLE
        ]
        while True:
            yield ops

    def run(self, state, op):
        name, policy = op.args
        return compute_mirror_data(Context(state["fans"][name], policy), check=True)

    def check(self, state, op, md):
        _require(oracles.mirror_data_problems(md))


# ------------------------------------------------------------------ query


def _series(ctx, vec):
    """The class sum c phi_k of {k: c} as a series."""
    out = HSeries.zero(ctx)
    for point, c in vec.items():
        out = out + HSeries.phi(ctx, ctx.pindex[point], coeff=c)
    return out


class Query(Workload):
    """quantum_product of two seeded random classes on prebuilt mirror data."""

    name = "query"
    SETUP_PASSES = 3  # each pass builds three mirror data, about 5 s
    FANS = ("p1", "c2", "p2")
    # Every round has the same 100 pairs of supports: 15 on p1, 15 on c2 and
    # 70 on p2, each class 1, 2 or 3 basis classes in equal shares, drawn once
    # from a fixed generator.  The seed draws the order and the coefficients.
    # With supports drawn from the seed the cost of the median op moved by
    # about 10% between seeds, since op costs fall into clusters.
    ROUND_FANS = ("p1",) * 15 + ("c2",) * 15 + ("p2",) * 70
    ROUND = len(ROUND_FANS)
    SIZES = (1, 2, 3)
    COEFFS = tuple(c for c in range(-9, 10) if c)
    COMMUTE = 5   # ops per round also checked for a*b = b*a
    ASSOCIATE = 2  # ops per round also checked for (a*b)*c = a*(b*c)

    def setup(self):
        mds = {
            name: compute_mirror_data(
                Context(load_fan(fan_spec(name)), TruncationPolicy(**DEFAULT)))
            for name in self.FANS
        }
        state = {"md": mds}
        ctx = mds["p2"].ctx
        u0, u1 = (ctx.points[p].point for p in ctx.ray_pidx[:2])
        warm = self._op(state, "p2", {u0: 1}, {u1: 1})
        self.check(state, warm, self.run(state, warm))
        return state

    def _op(self, state, fan, a, b, **extra):
        ctx = state["md"][fan].ctx
        return Op(fan, (fan, _series(ctx, a), _series(ctx, b)),
                  extra={"a": a, "b": b, **extra})

    def _supports(self, basis):
        """The round's 100 (fan, support of a, support of b), the same every run."""
        fixed = random.Random(0)
        sizes = [[self.SIZES[i % len(self.SIZES)] for i in range(self.ROUND)] for _ in "ab"]
        for s in sizes:
            fixed.shuffle(s)
        return [(fan, fixed.sample(basis[fan], na), fixed.sample(basis[fan], nb))
                for fan, na, nb in zip(self.ROUND_FANS, *sizes)]

    def rounds(self, state):
        rng = random.Random(self.seed)
        basis = {
            fan: sorted(pd.point for pd in md.ctx.points if pd.norm <= md.ctx.policy.kcoh)
            for fan, md in state["md"].items()
        }
        supports = self._supports(basis)
        seen = set()
        while True:
            ops = []
            for fan, sa, sb in rng.sample(supports, len(supports)):
                while True:
                    a = {p: rng.choice(self.COEFFS) for p in sa}
                    b = {p: rng.choice(self.COEFFS) for p in sb}
                    key = (fan, frozenset([tuple(sorted(a.items())), tuple(sorted(b.items()))]))
                    if key not in seen:
                        break
                seen.add(key)
                ops.append((fan, a, b))
            commute = set(rng.sample(range(self.ROUND), self.COMMUTE))
            associate = {}
            for i in rng.sample(range(self.ROUND), self.ASSOCIATE):
                points = rng.sample(basis[ops[i][0]], rng.choice(self.SIZES))
                associate[i] = {p: rng.choice(self.COEFFS) for p in points}
            yield [
                self._op(state, fan, a, b, commute=i in commute, third=associate.get(i))
                for i, (fan, a, b) in enumerate(ops)
            ]

    def run(self, state, op):
        fan, a, b = op.args
        return quantum_product(state["md"][fan], a, b)

    def check(self, state, op, prod):
        fan, a, b = op.args
        md = state["md"][fan]
        problems = oracles.product_problems(
            FAN_SPECS[fan], op.extra["a"], op.extra["b"], prod, classical_only=fan == "c2")
        if op.extra.get("commute") and quantum_product(md, b, a) != prod:
            problems.append("a*b != b*a")
        third = op.extra.get("third")
        if third:
            c = _series(md.ctx, third)
            cap = md.ctx.policy.kcoh
            left = quantum_product(md, prod, c)
            right = quantum_product(md, a, quantum_product(md, b, c))
            if oracles.window(left, cap) != oracles.window(right, cap):
                problems.append(f"(a*b)*c != a*(b*c) with c = {third}")
        _require(problems)

    def finish(self, state):
        """At y = 0: u1*u2 = Q^(1,1) on p1 and u0*u1*u2 = Q^(1,1,1) on p2."""
        problems = []
        for fan, d in (("p1", (1, 1)), ("p2", (1, 1, 1))):
            md = state["md"][fan]
            ctx = md.ctx
            prod = HSeries.phi(ctx, ctx.ray_pidx[0])
            for rp in ctx.ray_pidx[1:]:
                prod = quantum_product(md, prod, HSeries.phi(ctx, rp))
            at_zero = {k: v for k, v in prod.terms.items() if k[1] == ()}
            want = {(ctx.eindex[d], ()): {(ctx.unit_pidx, 0): 1}}
            if at_zero != want:
                problems.append(f"{fan}: product of the ray classes at y = 0 is "
                                f"{at_zero}, not Q^{d}")
        _require(problems)


# ----------------------------------------------------------------- verify


CONTROLS = {
    "factorization-detects-corruption",
    "flow-detects-corruption",
    "transport-detects-corruption",
    "jacobi-detects-corruption",
    "linear-relation-detects-corruption",
    "localization-detects-corruption",
}


def verify_problems(argv, code, payload):
    """What is wrong with the written output of one ``toricmirror`` call."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if argv[0] == "oracle-p2":
        dmax = int(argv[argv.index("--dmax") + 1])
        counts = oracles.kontsevich(dmax)
        if payload.get("status") != "pass":
            problems.append(f"status {payload.get('status')}")
        if payload.get("oracle") != counts:
            problems.append(f"oracle {payload.get('oracle')} != {counts}")
        engine = [Fraction(n) for n in payload.get("engine", [])]
        if engine != counts:
            problems.append(f"engine counts {payload.get('engine')} != {counts}")
        return problems
    fan = argv[argv.index("--fan") + 1]
    if not payload:
        problems.append("no entries")
    if "--controls" in argv:
        fired = {e.get("control") for e in payload if e.get("status") == "pass"}
        if fired != CONTROLS or len(payload) != len(CONTROLS):
            problems.append(f"controls fired {sorted(fired)} of {sorted(CONTROLS)}")
        return problems
    caps = dict(DEFAULT)
    for opt in ("kcoh", "kvar", "qcap", "gcap", "zneg"):
        if f"--{opt}" in argv:
            caps[opt] = int(argv[argv.index(f"--{opt}") + 1])
    for e in payload:
        if e.get("status") != "pass" or not e.get("checked", 0) > 0:
            problems.append(f"{e.get('property')}: {e.get('status')}, checked {e.get('checked')}")
        if e.get("fan") != fan or any(e["order"].get(k) != v for k, v in caps.items()):
            problems.append(f"{e.get('property')} ran on {e.get('fan')} {e.get('order')}")
    return problems


class Verify(Workload):
    """The user-facing checks, run in-process through ``cli.main --out``.

    A fixed cycle, like solve's: the p1 ops once, the c2 ops before each
    of the three longer ones.  Per round, as many ops cost less than the c2
    ones (the two on p1) as cost more (the three longer ones), so the median
    falls in the middle of the c2 ops, not on the border between two groups
    of op costs, where it moved by 23-39% between runs.  The longer ops run
    in narrow windows (about 1-5 s each), so a run plays two rounds or more.
    """

    name = "verify"
    P1 = [
        ["check", "--fan", "p1"],
        ["check", "--controls", "--fan", "p1"],
    ]
    C2 = [
        ["check", "--fan", "c2"],
        ["check", "--controls", "--fan", "c2"],
    ]
    LONG = [
        ["check", "--fan", "p2", "--gcap", "1"],
        ["check", "--fan", "f1", "--qcap", "1", "--gcap", "1"],
        ["oracle-p2", "--dmax", "2", "--compare"],
    ]
    CYCLE = P1 + C2 + LONG[:1] + C2 + LONG[1:2] + C2 + LONG[2:]
    WARM_UP = ["check", "--fan", "p2", "--qcap", "2"]

    out = Path(__file__).resolve().parent / "results" / "verify-op.json"

    def setup(self):
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.out.unlink(missing_ok=True)
        warm = Op("warm-up", tuple(self.WARM_UP))
        self.check(None, warm, self.run(None, warm))
        return {}

    def rounds(self, state):
        ops = [Op(" ".join(argv), tuple(argv)) for argv in self.CYCLE]
        while True:
            yield ops

    def run(self, state, op):
        return cli.main(list(op.args) + ["--out", str(self.out)])

    def check(self, state, op, code):
        try:
            with open(self.out) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise WrongAnswer(f"exit code {code} and no output written") from None
        self.out.unlink()
        _require(verify_problems(op.args, code, payload))


WORKLOADS = {"solve": Solve, "query": Query, "verify": Verify}
