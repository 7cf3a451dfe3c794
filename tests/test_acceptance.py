"""Acceptance criteria at full scale, one test (and one printed line) each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the same checks back the ``suite acceptance`` command.
"""

import json

import pytest

from mustafin import acceptance, varieties


@pytest.fixture(scope="module")
def full_report():
    lines = []
    report = acceptance.run_all(quick=False, echo=lines.append)
    for line in lines:
        print(line)
    return report


def _lookup(report, num):
    for res in report["results"]:
        if res["criterion"] == num:
            return res
    raise AssertionError(f"criterion {num} missing")


@pytest.mark.parametrize("num", sorted(acceptance.CRITERIA))
def test_criterion(full_report, num):
    res = _lookup(full_report, num)
    status = "PASS" if res["passed"] else "FAIL"
    print(f"criterion {num:2d} [{status}] {res['name']}")
    assert res["passed"], json.dumps(res["details"], indent=2, default=str)[:2000]


def test_all_passed(full_report):
    assert full_report["all_passed"]


def test_criterion_7_takes_the_fibres_of_criterion_1(monkeypatch):
    ctx: dict = {}
    assert acceptance.criterion_1(ctx, quick=True)["passed"]

    def no_fibre(*args, **kwargs):
        raise AssertionError("criterion 7 recomputed a fibre of criterion 1")

    monkeypatch.setattr(varieties, "special_fibre", no_fibre)
    res = acceptance.criterion_7(ctx, quick=True)
    assert res["passed"] and res["details"]["trials_checked"] == 8


def test_criterion_7_alone_runs_criterion_1_first():
    report = acceptance.run_all(quick=True, criteria=[7])
    [res] = report["results"]
    assert report["all_passed"] and res["details"]["trials_checked"] == 8
