"""The benchmark's own tests: a short run of each workload, and planted wrong
answers that each workload's check must report as failed ops.

    python3 -m pytest perfbench -q

Run from the repository root; about three minutes on 2 CPUs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from toricmirror import cli  # noqa: E402
from toricmirror.engine import compute_mirror_data  # noqa: E402
from toricmirror.fans import load_fan  # noqa: E402
from toricmirror.series import Context, HSeries, TruncationPolicy  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,failed", [("solve", 1), ("query", 0), ("verify", 0)])
def test_smoke_run(workload, failed):
    result = _bench(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    rounds = {"solve": 6, "query": 100, "verify": 11}[workload]
    assert result["attempted"] == rounds
    assert result["failed"] == failed
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    first, second = _bench("query", trace=1), _bench("query", trace=1)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k, unit in want.items() if unit == "count"]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]
    assert first["metrics"]["engine.quantum_product.calls"]["value"] == 100
    assert first["metrics"]["engine.seidel_coordinates.calls"]["value"] == 200


def test_benchmark_json_matches_the_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    import spans
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER


def test_kontsevich_recursion():
    assert oracles.kontsevich(5) == [1, 1, 12, 620, 87304]


def _mirror(name, **caps):
    ctx = Context(load_fan(workloads.fan_spec(name)),
                  TruncationPolicy(**dict(workloads.DEFAULT, **caps)))
    return compute_mirror_data(ctx)


def _reported_wrong(wl, state, op, out):
    status, reason = run._outcome(wl, state, op, out, None)
    summary = run._summary([{"status": status}])
    return status == "wrong" and summary == {"correct": False, "attempted": 1, "failed": 1}


def test_query_reports_a_changed_product_coefficient():
    wl = workloads.Query(seed=0)
    md = _mirror("p1")
    state = {"md": {"p1": md}}
    op = wl._op(state, "p1", {(1,): 2, (-1,): -1}, {(1,): 3})
    prod = wl.run(state, op)
    assert run._outcome(wl, state, op, prod, None) == ("ok", None)
    key = (md.ctx.zero_eidx, ())
    inner = dict(prod.terms[key])
    pk = next(iter(inner))
    inner[pk] += 1
    planted = HSeries(md.ctx, {**prod.terms, key: inner})
    assert _reported_wrong(wl, state, op, planted)


def test_query_reports_a_wrong_ray_relation():
    wl = workloads.Query(seed=0)
    state = {"md": {"p1": _mirror("p1"), "p2": _mirror("p2")}}
    assert run._finish(wl, state) is None
    md = state["md"]["p1"]
    rp = md.ctx.ray_pidx[0]
    md.S[rp] = md.S[rp] + HSeries.phi(md.ctx, md.ctx.unit_pidx, 1)
    problem = run._finish(wl, state)
    assert problem and run._summary([], problem)["correct"] is False


def test_solve_reports_a_corrupted_seidel_class():
    wl = workloads.Solve(seed=0)
    md = _mirror("p1")
    op = workloads.Op("p1", ("p1", md.ctx.policy))
    assert run._outcome(wl, {}, op, md, None) == ("ok", None)
    rp = md.ctx.ray_pidx[0]
    md.S[rp] = md.S[rp] + HSeries.phi(md.ctx, md.ctx.unit_pidx, 1)
    assert _reported_wrong(wl, {}, op, md)


def test_solve_counts_only_the_named_fault_as_known():
    op = workloads.Op("f3", (), known_fault="SingularJacobian")
    wl = workloads.Solve(seed=0)
    from toricmirror.errors import SingularJacobian
    assert run._outcome(wl, {}, op, None, SingularJacobian("x"))[0] == "known-fault"
    assert run._outcome(wl, {}, op, None, ValueError("x"))[0] == "wrong"


def _verify_output(argv):
    wl = workloads.Verify(seed=0)
    op = workloads.Op(" ".join(argv), tuple(argv))
    code = wl.run(None, op)
    payload = json.loads(wl.out.read_text())
    assert workloads.verify_problems(op.args, code, payload) == []
    return wl, op, code, payload


def _planted_verify_is_reported(wl, op, code, payload):
    wl.out.write_text(json.dumps(payload))
    return _reported_wrong(wl, None, op, code)


def test_verify_reports_a_property_entry_set_to_fail():
    wl, op, code, payload = _verify_output(["check", "--fan", "p1"])
    payload[3]["status"] = "fail"
    assert _planted_verify_is_reported(wl, op, code, payload)


def test_verify_reports_a_curve_count_off_by_one():
    wl, op, code, payload = _verify_output(["oracle-p2", "--dmax", "2", "--compare"])
    payload["engine"][1] = str(int(payload["engine"][1]) + 1)
    assert _planted_verify_is_reported(wl, op, code, payload)


def test_verify_reports_a_control_that_did_not_fire():
    wl, op, code, payload = _verify_output(["check", "--controls", "--fan", "p1"])
    payload[0]["status"] = "fail"
    assert _planted_verify_is_reported(wl, op, code, payload)


def test_verify_reports_a_missing_output():
    wl = workloads.Verify(seed=0)
    op = workloads.Op("bad", ("check", "--fan", "nope"))
    wl.out.unlink(missing_ok=True)
    code = wl.run(None, op)
    assert code == 2
    assert run._outcome(wl, None, op, code, None)[0] == "wrong"


def test_classical_product_matches_the_cone_rule():
    p2 = cli.BUILTIN_FANS["p2"]
    # (1,0) and (0,2) share the first cone; (-1,-1) and (1,2) share none.
    assert oracles.classical_product(p2, {(1, 0): 3}, {(0, 2): 2}, 3) == {(1, 2): 6}
    assert oracles.classical_product(p2, {(-1, -1): 1}, {(1, 2): 1}, 3) == {}
    assert oracles.classical_product(p2, {(2, 0): 1}, {(1, 0): 1}, 2) == {}
