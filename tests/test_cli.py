import json

import pytest
from click.testing import CliRunner

from mustafin.cli import (
    degen_group,
    mustafin_group,
    spec_group,
    suite_group,
    syz_group,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def d2_config(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "n": 1,
                "n_vec": [1],
                "field": {"Fp": 32003},
                "entries": "random",
                "seed": 1,
            }
        )
    )
    return str(path)


@pytest.fixture
def d3_config(tmp_path):
    path = tmp_path / "d3.json"
    path.write_text(
        json.dumps(
            {
                "d": 3,
                "n": 2,
                "n_vec": [1, 2],
                "field": {"Fp": 32003},
                "entries": "random",
                "seed": 1,
            }
        )
    )
    return str(path)


@pytest.fixture
def line_curve(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(
        json.dumps(
            {"generators": ["y[1] + 7*y[2] + 11*y[3]"], "dim": 1, "degree": 1}
        )
    )
    return str(path)


def test_fibre_command(runner, d2_config, tmp_path):
    out = tmp_path / "fibre.json"
    res = runner.invoke(
        mustafin_group, ["fibre", "--config", d2_config, "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert len(report["generators"]) == 1


def test_conjecture_batch_and_determinism(runner, d2_config, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = [
        "conjecture",
        "--config",
        d2_config,
        "--trials",
        "3",
        "--seed",
        "5",
        "--out",
    ]
    res1 = runner.invoke(mustafin_group, args + [str(out1)])
    res2 = runner.invoke(mustafin_group, args + [str(out2)])
    assert res1.exit_code == 0, res1.output
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert len(report["trials"]) == 3
    assert report["pass_rate"] == 1.0
    # the report embeds the resolved configuration
    assert report["config"]["n_vec"] == [1]
    assert report["config"]["field"] == {"Fp": 32003}


def test_conjecture_exit_code_on_unknown_flag(runner, d2_config):
    res = runner.invoke(mustafin_group, ["conjecture", "--config", d2_config, "--bogus"])
    assert res.exit_code == 2


def test_malformed_config_diagnostic(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2,,}')
    res = runner.invoke(mustafin_group, ["fibre", "--config", str(bad)])
    assert res.exit_code == 2
    assert "line" in res.output and "column" in res.output


def test_pipeline_command(runner, tmp_path):
    cfg = tmp_path / "d4.json"
    cfg.write_text(
        json.dumps(
            {
                "d": 4,
                "n": 3,
                "n_vec": [1, 3, 7],
                "field": {"Fp": 32003},
                "entries": "random",
                "seed": 2,
            }
        )
    )
    out = tmp_path / "pipe.json"
    res = runner.invoke(
        mustafin_group, ["pipeline", "--config", str(cfg), "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_borel_command(runner, d3_config, tmp_path):
    out = tmp_path / "borel.json"
    res = runner.invoke(mustafin_group, ["borel", "--config", d3_config, "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["borel_fixed"] is True


def test_degen_support_and_bound(runner, d3_config, line_curve, tmp_path):
    out = tmp_path / "sup.json"
    res = runner.invoke(
        degen_group,
        ["support", "--config", d3_config, "--curve", line_curve, "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["delta"] == 1 and rep["star_like"] is True
    res2 = runner.invoke(
        degen_group, ["bound", "--config", d3_config, "--curve", line_curve]
    )
    assert res2.exit_code == 0
    assert json.loads(res2.output)["bound"] == 3


def test_degen_model_fibre(runner, d3_config, line_curve, tmp_path):
    res = runner.invoke(
        degen_group, ["fibre", "--config", d3_config, "--curve", line_curve]
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["generators"], "fibre should be nontrivial"


def test_spec_obstructions_and_check(runner, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(
        json.dumps(
            {
                "variables": ["x", "y", "A[1][1][0]", "A[2][1][0]", "pi"],
                "generators": ["pi*A[1][1][0]*x + A[2][1][0]*y"],
                "element": "pi",
                "field": {"Fp": 32003},
            }
        )
    )
    res = runner.invoke(spec_group, ["obstructions", "--gens", str(gens)])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert "A[2][1][0]" in rep["unit_conditions"]
    res2 = runner.invoke(spec_group, ["check", "--gens", str(gens), "--seed", "3"])
    assert res2.exit_code == 0, res2.output
    assert json.loads(res2.output)["ok"] is True
    # a violating assignment is rejected with a diagnosis
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"A[1][1][0]": "2", "A[2][1][0]": "pi"}))
    res3 = runner.invoke(
        spec_group, ["check", "--gens", str(gens), "--assignment", str(assign)]
    )
    assert res3.exit_code == 1
    assert "A[2][1][0]" in json.loads(res3.output)["diagnosis"]


def test_spec_sample(runner, d2_config, tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for out in (out1, out2):
        res = runner.invoke(
            spec_group,
            ["sample", "--config", d2_config, "--seed", "4", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
    assert out1.read_bytes() == out2.read_bytes()


def test_syz_admissible(runner, d3_config, tmp_path):
    data = tmp_path / "datum.json"
    data.write_text(
        json.dumps(
            {
                "rho": 2,
                "degrees": [2, 1, 1],
                "witnesses": ["x[3][1]*x[3][2]", "x[3][2]", "x[3][1]"],
            }
        )
    )
    out = tmp_path / "syz.json"
    res = runner.invoke(
        syz_group,
        ["admissible", "--config", d3_config, "--data", str(data), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["admissible"] is True
    assert len(rep["sections"]) == 3


def test_suite_quick_subset(runner, tmp_path):
    out = tmp_path / "suite.json"
    res = runner.invoke(
        suite_group,
        ["acceptance", "--quick", "--criteria", "2,9", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["all_passed"] is True
    assert [r["criterion"] for r in rep["results"]] == [2, 9]
    assert "criterion  2 [PASS]" in res.output


def test_env_var_default_field(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("MUSTAFIN_FP", "101")
    cfg = tmp_path / "nofield.json"
    cfg.write_text(
        json.dumps({"d": 2, "n": 1, "n_vec": [1], "entries": "random", "seed": 1})
    )
    res = runner.invoke(mustafin_group, ["fibre", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["config"]["field"] == {"Fp": 101}


@pytest.mark.parametrize("command", ["model", "fibre", "support"])
def test_degen_cap_is_a_resource_cap_not_a_traceback(
    runner, d3_config, line_curve, tmp_path, command
):
    # support stops in the ambient check, model and fibre in the model stage
    out = tmp_path / "capped.json"
    res = runner.invoke(
        degen_group,
        [command, "--config", d3_config, "--curve", line_curve,
         "--cap-seconds", "1e-06", "--out", str(out)],
    )
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "resource cap exceeded" in res.stderr
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "resource-capped"
    assert "exceeded 1e-06s" in rep["detail"]
    assert "genericity" not in res.output


@pytest.mark.parametrize("command", ["model", "fibre", "support"])
def test_degen_without_curve_is_a_usage_error(runner, d3_config, command):
    res = runner.invoke(degen_group, [command, "--config", d3_config])
    assert res.exit_code == 2
    assert "--curve is required" in res.stderr


def test_conjecture_trials_must_be_natural(runner, d2_config):
    res = runner.invoke(mustafin_group, ["conjecture", "--config", d2_config, "--trials", "-3"])
    assert res.exit_code == 2
    assert "--trials" in res.output
    res0 = runner.invoke(mustafin_group, ["conjecture", "--config", d2_config, "--trials", "0"])
    assert res0.exit_code == 0, res0.output
    assert json.loads(res0.output)["trials"] == []


@pytest.mark.parametrize("command", ["fibre", "conjecture"])
def test_exponents_past_one_byte_fields(runner, tmp_path, command):
    # the 2x2 minors carry pi^128, past the one-byte packing of the kernel
    cfg = tmp_path / "big.json"
    cfg.write_text(
        json.dumps({"d": 3, "n": 1, "n_vec": [1, 64], "entries": "random", "seed": 1})
    )
    out = tmp_path / "out.json"
    res = runner.invoke(mustafin_group, [command, "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["verdict"] == "pass"
