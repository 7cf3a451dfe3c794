import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import mustafin
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


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["borel", "conjecture"])
def test_intersection_reports_match_the_iterated_lcm_route(runner, tmp_path, command):
    # the files were written while expected_intersection still intersected
    # the I_v by iterated pairwise lcms; the closed form must not move them
    out = tmp_path / "out.json"
    res = runner.invoke(
        mustafin_group,
        [command, "--config", str(GOLDEN / "config-d4n3.json"), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (GOLDEN / f"{command}-d4n3.out.json").read_bytes()


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


def test_spec_sample_reads_the_unit_conditions_of_an_older_report(runner, tmp_path):
    # a `spec obstructions` report over GF(5) from when reports also listed
    # strategy-dependent nonzero conditions: that key is ignored, and the
    # unit conditions alone leave the sampler room on this small field
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "n": 1, "n_vec": [1, 2], "field": {"Fp": 5}, "entries": "symbolic"}))
    obs = GOLDEN / "obstructions-d3n1-gf5-with-nonzero.json"
    assert json.loads(obs.read_text())["nonzero_conditions"]
    for seed in ("0", "1", "2"):
        res = runner.invoke(
            spec_group, ["sample", "--config", str(cfg), "--obstructions", str(obs), "--seed", seed]
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["verdict"] == "pass"


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


def _slow_mustafin_engine(monkeypatch):
    """Stub the field engine so that every call in a Mustafin universe (the
    grid variables) needs 0.4 s; the small basis of I' in y[1..d], which
    the model's Hilbert target reads, stays fast."""
    import time

    from mustafin import groebner

    real = groebner._buchberger_field

    def slow(gens, order, universe, domain, sat_var, cap_seconds, *rest, **kw):
        if universe.grid is None:
            return real(gens, order, universe, domain, sat_var, cap_seconds, *rest, **kw)
        time.sleep(0.4)
        if cap_seconds is not None and cap_seconds < 0.4:
            raise groebner.ResourceCapExceeded(f"stub exceeded {cap_seconds:g}s")
        return real(gens, order, universe, domain, sat_var, None, *rest, **kw)

    monkeypatch.setattr(groebner, "_buchberger_field", slow)


@pytest.mark.parametrize(
    "command, phase", [("model", "model"), ("fibre", "fibre"), ("support", "model")]
)
def test_degen_cap_bounds_the_whole_command(
    runner, d3_config, line_curve, tmp_path, monkeypatch, command, phase
):
    # a stubbed engine needs 0.4 s per Mustafin call, and the cap holds all
    # calls but the last one named: model (0.6 s) stops in its second call
    # (the ambient saturation, then its extension by the lifts), fibre
    # (1.0 s) in its third (saturation, extension, fibre), support (0.6 s)
    # in its second (the ambient check, whose saturation the model extends)
    cap = {"model": 0.6, "fibre": 1.0, "support": 0.6}[command]
    _slow_mustafin_engine(monkeypatch)
    out = tmp_path / "capped.json"
    res = runner.invoke(
        degen_group,
        [command, "--config", d3_config, "--curve", line_curve,
         "--cap-seconds", str(cap), "--out", str(out)],
    )
    assert res.exit_code == 1, res.output
    assert "resource cap exceeded" in res.stderr
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "resource-capped"
    assert rep["phase"] == phase
    assert rep["detail"].startswith(f"{phase}: exceeded {cap:g}s")


@pytest.mark.parametrize(
    "cap, phase", [(0.2, "ambient check"), (0.6, "model"), (1.0, "fibre")]
)
def test_degen_support_cap_names_each_phase(
    runner, d3_config, line_curve, tmp_path, monkeypatch, cap, phase
):
    # support makes one Mustafin engine call per phase: the ambient
    # saturation, its extension by the lifts, the fibre's basis; at 0.4 s a
    # call, the cap stops it in the first, second or third
    _slow_mustafin_engine(monkeypatch)
    out = tmp_path / "capped.json"
    res = runner.invoke(
        degen_group,
        ["support", "--config", d3_config, "--curve", line_curve,
         "--cap-seconds", str(cap), "--out", str(out)],
    )
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "resource cap exceeded" in res.stderr and "Traceback" not in res.output
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "resource-capped"
    assert rep["phase"] == phase
    assert rep["detail"].startswith(f"{phase}: exceeded {cap:g}s")


def test_fibre_cap_bounds_saturation_and_fibre_together(runner, tmp_path, monkeypatch):
    # entries mixing pi powers take the elimination route, and the fibre
    # then needs its own basis over the residue field; a stubbed engine
    # needs 0.4 s per call, so the 0.6 s cap holds one call, not both
    import time

    from mustafin import groebner

    real = groebner._buchberger_field

    def slow(gens, order, universe, domain, sat_var, cap_seconds, *rest, **kw):
        time.sleep(0.4)
        if cap_seconds is not None and cap_seconds < 0.4:
            raise groebner.ResourceCapExceeded(f"stub exceeded {cap_seconds:g}s")
        return real(gens, order, universe, domain, sat_var, None, *rest, **kw)

    monkeypatch.setattr(groebner, "_buchberger_field", slow)
    config = tmp_path / "mixing.json"
    config.write_text(json.dumps({
        "d": 2, "n": 1, "n_vec": [1], "field": {"Fp": 32003},
        "entries": [[["1+pi", "2"], ["3", "1"]], [["1", "0"], ["2+3*pi^2", "1"]]],
    }))
    out = tmp_path / "capped.json"
    res = runner.invoke(
        mustafin_group, ["fibre", "--config", str(config), "--cap-seconds", "0.6", "--out", str(out)]
    )
    assert res.exit_code == 1, res.output
    assert "resource cap exceeded" in res.stderr
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "resource-capped"
    assert rep["phase"] == "fibre"
    assert rep["detail"].startswith("fibre: exceeded 0.6s")


@pytest.fixture
def minors_gens(tmp_path):
    """The symbolic d=3 n=1 minors as a --gens file."""
    from mustafin import GF, varieties

    minors = varieties.minors_ideal(varieties.LatticeConfig(3, 1, (1, 2), GF(32003), "symbolic"))
    gens = tmp_path / "minors.json"
    gens.write_text(
        json.dumps(
            {
                "variables": list(minors.universe.names),
                "generators": [g.text() for g in minors.generators],
                "element": "pi",
            }
        )
    )
    return str(gens)


def test_spec_check_cap_is_a_resource_cap_not_a_traceback(runner, minors_gens):
    # the obstruction basis does not fit the cap, so the command stops there
    res = runner.invoke(spec_group, ["check", "--gens", minors_gens, "--cap-seconds", "0.001"])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error: resource cap exceeded: " in res.stderr
    rep = json.loads(res.stdout)
    assert rep["verdict"] == "resource-capped"
    assert "exceeded 0.001s" in rep["detail"]
    assert len(rep["assignment"]) == 18


def test_spec_check_capped_in_its_basis_test_names_the_phase(runner, minors_gens, monkeypatch):
    # the check gets a budget already spent when it reaches the basis test
    # over L[pi]: exit 1 and a report naming the phase, not a traceback
    from mustafin import specialize

    check = specialize.check_specialization

    def spent(*args, cap_seconds=None, **kw):
        return check(*args, cap_seconds=0, **kw)

    monkeypatch.setattr(specialize, "check_specialization", spent)
    res = runner.invoke(spec_group, ["check", "--gens", minors_gens, "--cap-seconds", "60"])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error: resource cap exceeded: basis test: exceeded 60s" in res.stderr
    rep = json.loads(res.stdout)
    assert rep["verdict"] == "resource-capped"
    assert rep["phase"] == "basis test"


def test_spec_obstructions_cap_covers_the_basis(runner, minors_gens, monkeypatch):
    # each of the 10 S-pairs of the symbolic basis takes 0.05 s more than
    # it should, so the basis overruns the 0.3 s cap: a capped basis gives
    # no condition
    import time

    from mustafin import groebner

    full = json.loads(runner.invoke(spec_group, ["obstructions", "--gens", minors_gens]).stdout)
    assert full["unit_conditions"]
    spoly = groebner._Reducers.spoly

    def slow(self, i, j):
        time.sleep(0.05)
        return spoly(self, i, j)

    monkeypatch.setattr(groebner._Reducers, "spoly", slow)
    start = time.monotonic()
    res = runner.invoke(spec_group, ["obstructions", "--gens", minors_gens, "--cap-seconds", "0.3"])
    # the cap is read before each pair, so at most one pair runs past it
    assert time.monotonic() - start < 0.5
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    rep = json.loads(res.stdout)
    assert rep["verdict"] == "incomplete" and rep["incomplete"] is True
    assert rep["unit_conditions"] == []


def _symbolic_config(tmp_path, d, n):
    path = tmp_path / f"symbolic-d{d}n{n}.json"
    path.write_text(
        json.dumps(
            {"d": d, "n": n, "n_vec": list(range(1, d)), "field": {"Fp": 32003}, "entries": "symbolic"}
        )
    )
    return str(path)


def test_spec_obstructions_runs_past_d3_n2(runner, tmp_path):
    # no size limit: the symbolic d=4 n=1 minors give their unit
    # conditions, each a polynomial in the parameters alone
    res = runner.invoke(spec_group, ["obstructions", "--config", _symbolic_config(tmp_path, 4, 1)])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.stdout)
    assert rep["shape"] == [4, 1] and rep["verdict"] == "pass" and rep["incomplete"] is False
    assert len(rep["unit_conditions"]) == 17
    for cond in rep["unit_conditions"]:
        assert "x[" not in cond and "pi" not in cond and "A[" in cond


def test_spec_obstructions_on_a_large_shape_is_bounded_by_its_cap(runner, tmp_path):
    # d=3 n=3 takes seconds; a tiny cap stops its basis with an honest
    # incomplete report
    res = runner.invoke(
        spec_group,
        ["obstructions", "--config", _symbolic_config(tmp_path, 3, 3), "--cap-seconds", "0.05"],
    )
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    rep = json.loads(res.stdout)
    assert rep["shape"] == [3, 3] and rep["verdict"] == "incomplete"
    assert rep["unit_conditions"] == []


def test_spec_check_cap_bounds_both_calls(runner, minors_gens, tmp_path, monkeypatch):
    # a stubbed engine needs 0.4 s per field-mode call: the obstruction basis
    # fits the 0.6 s cap, and the check reuses it, but the saturation on
    # the right-hand side no longer fits what is left
    import time

    from mustafin import groebner

    real = groebner._buchberger_field

    def slow(gens, order, universe, domain, sat_var, cap_seconds, *rest, **kw):
        time.sleep(0.4)
        if cap_seconds is not None and cap_seconds < 0.4:
            raise groebner.ResourceCapExceeded(f"stub exceeded {cap_seconds:g}s")
        return real(gens, order, universe, domain, sat_var, None, *rest, **kw)

    monkeypatch.setattr(groebner, "_buchberger_field", slow)
    out = tmp_path / "capped.json"
    res = runner.invoke(
        spec_group, ["check", "--gens", minors_gens, "--cap-seconds", "0.6", "--out", str(out)]
    )
    assert res.exit_code == 1, res.output
    assert "resource cap exceeded" in res.stderr
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "resource-capped"
    assert rep["phase"] == "saturation"
    # the nested budget of the check reports the command's cap
    assert rep["detail"].startswith("saturation: exceeded 0.6s (stub exceeded ")


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


def test_pipeline_zero_trials_is_an_empty_report(runner, d2_config):
    # the same empty report as `conjecture --trials 0`, without running a trial
    res = runner.invoke(mustafin_group, ["pipeline", "--config", d2_config, "--trials", "0"])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["trials"] == [] and rep["pass_rate"] is None
    assert rep["failing_seeds"] == [] and rep["verdict"] == "pass"
    res_c = runner.invoke(mustafin_group, ["conjecture", "--config", d2_config, "--trials", "0"])
    rep_c = json.loads(res_c.output)
    assert rep_c["trials"] == [] and rep_c["pass_rate"] is None and rep_c["verdict"] == "pass"


def test_trials_in_worker_processes_give_the_same_report(runner, d2_config, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        res = runner.invoke(
            mustafin_group,
            ["conjecture", "--config", d2_config, "--trials", "3", "--jobs", jobs, "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert [t["seed"] for t in json.loads(outs[0])["trials"]] == [1, 2, 3]


def test_degen_support_reports_are_byte_identical_across_runs(runner, d3_config, tmp_path):
    # radical queries keep packed tables on their fibre ideal: no report may
    # depend on the hash seed or on state left over from an earlier run
    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({
        "generators": ["28378*y[1]^2 + 2601*y[1]*y[2] + 8566*y[2]^2 + 24172*y[1]*y[3]"
                       " + 5204*y[2]*y[3] + 13319*y[3]^2"],
        "dim": 1,
        "degree": 2,
    }))
    args = ["support", "--config", d3_config, "--curve", str(conic)]
    outs = []
    for k in range(3):
        out = tmp_path / f"in-process-{k}.json"
        res = runner.invoke(degen_group, [*args, "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    src = str(pathlib.Path(mustafin.__file__).resolve().parent.parent)
    for seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{seed}.json"
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", "from mustafin.cli import degen_group; degen_group()",
             *args, "--out", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()[-500:]
        outs.append(out.read_bytes())
    assert json.loads(outs[0])["delta"] is not None
    assert all(o == outs[0] for o in outs)


SHARED = {"--config", "--seed", "--field", "--out"}
COMMAND_OPTIONS = {
    (mustafin_group, "fibre"): SHARED | {"--cap-seconds", "--cap-mb", "--timing", "--verbose"},
    (mustafin_group, "conjecture"): SHARED
    | {"--mode", "--trials", "--cap-seconds", "--cap-mb", "--jobs", "--timing"},
    (mustafin_group, "pipeline"): SHARED | {"--trials", "--cap-mb", "--jobs", "--timing"},
    (mustafin_group, "borel"): SHARED | {"--cap-mb"},
    (degen_group, "model"): SHARED | {"--curve", "--cap-seconds", "--cap-mb"},
    (degen_group, "fibre"): SHARED | {"--curve", "--cap-seconds", "--cap-mb"},
    (degen_group, "support"): SHARED | {"--curve", "--cap-seconds", "--cap-mb"},
    (degen_group, "bound"): SHARED | {"--curve", "--dim", "--deg"},
    (spec_group, "obstructions"): {"--gens", "--config", "--field", "--out", "--cap-seconds", "--cap-mb"},
    (spec_group, "check"): {"--gens", "--assignment", "--seed", "--field", "--out", "--cap-seconds", "--cap-mb"},
    (spec_group, "sample"): SHARED | {"--obstructions", "--cap"},
    (syz_group, "admissible"): SHARED | {"--data", "--cap-mb"},
    (suite_group, "acceptance"): {"--quick", "--criteria", "--out", "--cap-mb"},
}


def test_every_command_is_listed():
    listed = {(g.name, name) for g, name in COMMAND_OPTIONS}
    groups = (mustafin_group, degen_group, spec_group, syz_group, suite_group)
    assert listed == {(g.name, name) for g in groups for name in g.commands}


@pytest.mark.parametrize(
    "group,name", list(COMMAND_OPTIONS), ids=[f"{g.name}-{n}" for g, n in COMMAND_OPTIONS]
)
def test_command_takes_exactly_the_options_it_reads(group, name):
    command = group.commands[name]
    assert {o for p in command.params for o in p.opts} == COMMAND_OPTIONS[(group, name)]


@pytest.mark.parametrize(
    "group,args",
    [
        (suite_group, ["acceptance", "--jobs", "2"]),
        (spec_group, ["check", "--gens", "g.json", "--config", "x.json"]),
        (spec_group, ["obstructions", "--cap", "1"]),
        (mustafin_group, ["borel", "--trials", "2"]),
    ],
)
def test_unread_options_are_usage_errors(runner, group, args):
    res = runner.invoke(group, args)
    assert res.exit_code == 2
    assert "No such option" in res.output


# ---------------------------------------------------------------------------
# bad flags and payloads are usage errors: exit 2 and one "error:" line


def assert_usage_error(res, *words):
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert all(w in lines[0] for w in words), lines[0]


def test_field_flag_must_be_an_integer(runner, d2_config):
    res = runner.invoke(mustafin_group, ["fibre", "--config", d2_config, "--field", "abc"])
    assert_usage_error(res, "--field", "'abc'")


def test_field_environment_variable_must_be_an_integer(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("MUSTAFIN_FP", "x")
    cfg = tmp_path / "nofield.json"
    cfg.write_text(json.dumps({"d": 2, "n": 1, "n_vec": [1], "entries": "random", "seed": 1}))
    res = runner.invoke(mustafin_group, ["fibre", "--config", str(cfg)])
    assert_usage_error(res, "MUSTAFIN_FP", "'x'")


@pytest.mark.parametrize("criteria,words", [("1,x", ("--criteria", "'x'")), ("99", ("[99]",))])
def test_suite_criteria_must_name_known_criteria(runner, criteria, words):
    # rejected before any criterion runs
    res = runner.invoke(suite_group, ["acceptance", "--quick", "--criteria", criteria])
    assert_usage_error(res, *words)
    assert "criterion" not in res.stdout


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_spec_sample_cap_must_be_positive(runner, d2_config, cap):
    res = runner.invoke(spec_group, ["sample", "--config", d2_config, "--cap", cap])
    assert_usage_error(res, "--cap")
    assert res.stdout == ""


SPEC_GENS = {
    "variables": ["x", "y", "A[1][1][0]", "A[2][1][0]", "pi"],
    "generators": ["pi*A[1][1][0]*x + A[2][1][0]*y"],
    "element": "pi",
    "field": {"Fp": 32003},
}


@pytest.mark.parametrize("command", ["obstructions", "check"])
@pytest.mark.parametrize(
    "change,words",
    [
        ({"variables": None}, ("'variables'",)),
        ({"generators": None}, ("'generators'",)),
        ({"field": {"Fp": 4}}, ("4 is not prime",)),
        ({"generators": ["x +* y"]}, ()),
    ],
    ids=["no-variables", "no-generators", "non-prime", "unparsable"],
)
def test_malformed_spec_generators_are_usage_errors(runner, tmp_path, command, change, words):
    payload = {k: v for k, v in {**SPEC_GENS, **change}.items() if v is not None}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(spec_group, [command, "--gens", str(path)])
    assert_usage_error(res, "bad generators file", *words)


@pytest.mark.parametrize("missing", ["witnesses", "rho"])
def test_syz_data_without_a_key_is_a_usage_error(runner, d3_config, tmp_path, missing):
    payload = {"rho": 2, "degrees": [2, 1, 1], "witnesses": ["x[3][1]*x[3][2]", "x[3][2]", "x[3][1]"]}
    del payload[missing]
    data = tmp_path / "datum.json"
    data.write_text(json.dumps(payload))
    res = runner.invoke(syz_group, ["admissible", "--config", d3_config, "--data", str(data)])
    assert_usage_error(res, "bad data file", f"'{missing}'")


LINE = {"generators": ["y[1] + 7*y[2] + 11*y[3]"], "dim": 1, "degree": 1}
DROP = object()


@pytest.mark.parametrize(
    "change,words",
    [
        ({"generators": DROP}, ("'generators'",)),
        ({"dim": DROP}, ("'dim'",)),
        ({"degree": DROP}, ("'degree'",)),
        ({"degree": "one"}, ("'one'",)),
        ({"degree": 2.7}, ("2.7",)),
        ({"dim": True}, ("True",)),
        ({"generators": None}, ("NoneType",)),
    ],
    ids=["no-generators", "no-dim", "no-degree", "degree-not-a-number", "fractional-degree",
         "boolean-dim", "null-generators"],
)
def test_malformed_curve_files_are_usage_errors(runner, d3_config, tmp_path, change, words):
    # a missing key has no default: a conic without "degree" is no line
    payload = {k: v for k, v in {**LINE, **change}.items() if v is not DROP}
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(payload))
    res = runner.invoke(degen_group, ["bound", "--config", d3_config, "--curve", str(curve)])
    assert_usage_error(res, "bad curve file", *words)
    assert res.stdout == ""


def test_pipeline_rejects_entries_that_depend_on_pi(runner, tmp_path):
    entries = [[["1 + 5*pi" if r == i else "0" for i in range(4)] for r in range(4)]] * 4
    cfg = tmp_path / "d4.json"
    cfg.write_text(json.dumps({"d": 4, "n": 3, "n_vec": [1, 3, 7], "entries": entries}))
    res = runner.invoke(mustafin_group, ["pipeline", "--config", str(cfg)])
    assert_usage_error(res, "constant in pi")
    assert res.stdout == ""


def test_malformed_spec_assignment_is_a_usage_error(runner, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(SPEC_GENS))
    assign = tmp_path / "assign.json"
    assign.write_text(json.dumps({"A[1][1][0]": "2 +* x", "A[2][1][0]": "pi"}))
    res = runner.invoke(spec_group, ["check", "--gens", str(gens), "--assignment", str(assign)])
    assert_usage_error(res, "bad assignment file")


def test_malformed_spec_obstructions_are_a_usage_error(runner, d2_config, tmp_path):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"unit_conditions": ["A[1][1][0] +*"]}))
    res = runner.invoke(spec_group, ["sample", "--config", d2_config, "--obstructions", str(obs)])
    assert_usage_error(res, "bad obstructions file")
