"""Command-line interface tests: parsing, output shape, determinism, errors.

The golden files under tests/golden/ pin byte-determinism of the JSON
output: each was produced by the command it is compared against, and the
assertions are that the current bytes equal the stored bytes and that two
runs agree.  The mathematical content of those outputs is covered by the
library tests, not here.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import F3
from toricmirror.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_COMMANDS = [
    (["validate", "--fan", "p1"], "validate_p1.json"),
    (["validate", "--fan", "p2"], "validate_p2.json"),
    (["validate", "--fan", "c2"], "validate_c2.json"),
    (["validate", "--fan", "f1"], "validate_f1.json"),
    (["mirror-map", "--fan", "p1"], "mirror_map_p1.json"),
    (["qproduct", "b1", "b2", "--fan", "p2"], "qproduct_p2.json"),
    (["jacobi", "--fan", "c2"], "jacobi_c2.json"),
    (["noneq", "--fan", "p1"], "noneq_p1.json"),
    (["check", "--fan", "p1"], "check_p1.json"),
    (["primitive-form", "--fan", "p2"], "primitive_form_p2.json"),
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,filename", GOLDEN_COMMANDS)
def test_golden_outputs_are_stable(argv, filename, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == ""
    with open(os.path.join(GOLDEN, filename)) as fh:
        assert out == fh.read()
    code2, out2, _ = run_cli(argv, capsys)
    assert (code2, out2) == (code, out)


def test_validate_reports_fingerprint_and_completeness(capsys):
    code, out, _ = run_cli(["validate", "--fan", "f1"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["complete"] is True
    assert len(payload["fingerprint"]) == 16
    assert payload["n_rays"] == 4


def test_mirror_map_at_gcap_0(capsys):
    code, out, err = run_cli(["mirror-map", "--fan", "p2", "--gcap", "0"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["order"]["gcap"] == 0


def test_enumerate_lists_points_and_classes(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--fan", "p1", "--qcap", "2"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    ks = [tuple(p["k"]) for p in payload["points"]]
    assert ks[0] == (0,)
    assert set(ks[1:3]) == {(1,), (-1,)}
    assert [e["d"] for e in payload["effective"]] == [[0, 0], [1, 1]]
    assert [e["degree"] for e in payload["effective"]] == [0, 2]


def test_ray_tokens_and_coordinate_tokens_agree(capsys):
    _, out_ray, _ = run_cli(["qproduct", "b1", "b2", "--fan", "p1"], capsys)
    _, out_coord, _ = run_cli(["qproduct", "1", "-1", "--fan", "p1"], capsys)
    a = json.loads(out_ray)
    b = json.loads(out_coord)
    assert a["product"] == b["product"]


def test_check_suite_passes_and_is_json(capsys):
    code, out, _ = run_cli(["check", "--fan", "c2"], capsys)
    entries = json.loads(out)
    assert code == 0
    assert all(e["status"] == "pass" for e in entries)


def test_check_controls_pass(capsys):
    code, out, _ = run_cli(["check", "--controls", "--fan", "p1"], capsys)
    entries = json.loads(out)
    assert code == 0
    assert {e["control"] for e in entries} == {
        "factorization-detects-corruption",
        "flow-detects-corruption",
        "transport-detects-corruption",
        "jacobi-detects-corruption",
        "linear-relation-detects-corruption",
        "localization-detects-corruption",
    }


def test_check_controls_follow_the_caps(capsys):
    code, out, _ = run_cli(["check", "--controls", "--fan", "p1", "--qcap", "1"], capsys)
    entries = json.loads(out)
    assert code == 0
    assert len(entries) == 6
    assert all(e["order"]["qcap"] == 1 for e in entries)
    assert all(e["status"] == "pass" for e in entries)


def test_check_passes_on_a_fan_that_is_not_semipositive(capsys):
    f3 = json.dumps(F3)
    code, out, _ = run_cli(["check", "--fan", f3, "--qcap", "1", "--gcap", "1"], capsys)
    entries = json.loads(out)
    assert code == 0
    assert all(e["status"] == "pass" for e in entries)


def test_oracle_counts(capsys):
    code, out, _ = run_cli(["oracle-p2", "--dmax", "3"], capsys)
    assert code == 0
    assert json.loads(out)["counts"] == [1, 1, 12]


def test_table_format_renders_rows(capsys):
    code, out, _ = run_cli(["validate", "--fan", "p2", "--format", "table"], capsys)
    assert code == 0
    assert "fingerprint" in out
    assert "{" not in out.splitlines()[0]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "fan.json"
    code, out, _ = run_cli(
        ["validate", "--fan", "p1", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["name"] == "p1"


def test_primitive_form_route_selection(capsys):
    code, out, _ = run_cli(
        ["primitive-form", "--fan", "p1", "--route", "a"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert "coefficients" in payload
    assert "reparametrization" not in payload


def test_noneq_with_explicit_section(capsys):
    code, out, _ = run_cli(
        ["noneq", "--fan", "p2", "--section", "0,0;1,0;1,1"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] == 3


# ----------------------------------------------------------- error corpus

BAD_FANS = [
    ({"name": "x", "dim": 1, "rays": [[1], [1]], "max_cones": [[0], [1]]},
     "duplicate rays"),
    ({"name": "x", "dim": 1, "rays": [[1], [0]], "max_cones": [[0], [1]]},
     "zero ray"),
    ({"name": "x", "dim": 1, "rays": [[1], [-1]], "max_cones": []},
     "no maximal cones"),
    ({"name": "x", "dim": 1, "rays": [[1], [-1]], "max_cones": [[0]]},
     "every ray must appear"),
    ({"name": "x", "dim": 2, "rays": [], "max_cones": []},
     "rays must be non-empty"),
    ({"name": "x", "dim": 1, "rays": [[1], [-1]],
      "max_cones": [[0], [1], [0]]}, "duplicate maximal cones"),
    ({"name": "x", "dim": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]]},
     "determinant"),
    ({"name": "x", "dim": 1, "rays": [[1]]},
     "malformed fan description"),
]


@pytest.mark.parametrize("fan,message", BAD_FANS)
def test_malformed_fans_fail_with_structured_errors(fan, message, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fan))
    code, out, err = run_cli(["validate", "--fan", str(path)], capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert message in payload["message"]
    assert payload["error"].endswith("Error") or payload["error"].endswith("Cone")


def test_unparseable_fan_text_is_an_error(capsys):
    code, _, err = run_cli(["validate", "--fan", "no-such-file.json"], capsys)
    assert code == 2
    assert "not valid fan JSON" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "token,message",
    [
        ("b9", "ray token"),
        ("1,2,3", "wrong dimension"),
        ("xyz", "cannot parse"),
        ("5,5", "beyond the working window"),
    ],
)
def test_class_token_errors(token, message, capsys):
    code, _, err = run_cli(["qproduct", token, "b1", "--fan", "p2"], capsys)
    assert code == 2
    assert message in json.loads(err)["message"]


def test_negative_zneg_is_a_policy_error(capsys):
    code, out, err = run_cli(["mirror-map", "--fan", "p1", "--zneg", "-3"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "PolicyMismatch"


@pytest.mark.parametrize("flag,value", [
    ("--kcoh", "-1"), ("--kcoh", "-2"), ("--kvar", "-1"),
    ("--qcap", "-1"), ("--gcap", "-1"),
])
def test_negative_caps_are_policy_errors(flag, value, capsys):
    code, out, err = run_cli(["mirror-map", "--fan", "p1", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "PolicyMismatch"


@pytest.mark.parametrize("argv", [
    ["noneq", "--fan", "p2", "--section", "1,0;x"],
    ["check", "--fan", "p2", "--section", "1,0;x"],
    ["oracle-p2", "--dmax", "0"],
    ["oracle-p2", "--dmax", "-1"],
    ["oracle-p2", "--dmax", "1", "--compare"],
], ids=["noneq-section", "check-section", "dmax-0", "dmax-negative", "compare-dmax-1"])
def test_bad_arguments_are_policy_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "PolicyMismatch"
    assert "Traceback" not in err


# ------------------------------------------------------- process interface


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "toricmirror", "validate", "--fan", "p1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "p1"


PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def console_script_target(name):
    """Split the ``[project.scripts]`` entry *name* into ``(module, attr)``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"no [project.scripts] entry {name!r}"
    module, sep, attr = scripts[name].partition(":")
    assert sep and module and attr, f"{scripts[name]!r} is not module:attr"
    return module, attr


def run_console_script(module, attr, args):
    """Run *module:attr* the way pip's generated ``toricmirror`` wrapper does."""
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'toricmirror'\n"
        f"sys.exit({attr}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True, text=True,
    )


def test_console_script_runs():
    module, attr = console_script_target("toricmirror")
    # ``python -m toricmirror`` runs toricmirror.cli.main as well.
    assert getattr(importlib.import_module(module), attr) is main

    proc = run_console_script(module, attr, ["oracle-p2", "--dmax", "2"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["counts"] == [1, 1]

    # The script's exit status is main()'s return value.
    proc = run_console_script(
        module, attr, ["validate", "--fan", "no-such-file.json"]
    )
    assert proc.returncode == 2
    assert "not valid fan JSON" in json.loads(proc.stderr)["message"]


@pytest.mark.skipif(
    shutil.which("toricmirror") is None,
    reason="toricmirror console script not installed",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["toricmirror", "oracle-p2", "--dmax", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"] == [1, 1]
