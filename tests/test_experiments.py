import json
from fractions import Fraction

import numpy as np
import pytest

from latdir import experiments as ex
from latdir import lattice as lm
from latdir.contfrac import biased_number
from latdir.sphere import Cap, Complement, Hemisphere, SignSet, full_sphere

MINUS = SignSet(frozenset({-1}))
PLUS = SignSet(frozenset({1}))


def test_direction_frequency_full_sphere_all_ones():
    rep = ex.direction_frequency_experiment(1, 10, 200, full_sphere(1), seed=3)
    for rec in rep.records:
        if not rec.get("skipped"):
            assert rec["ratio"] == 1.0
    assert rep.summary["mean_ratio"] == 1.0


def test_direction_frequency_partition():
    a = ex.direction_frequency_experiment(1, 15, 500, MINUS, seed=9)
    b = ex.direction_frequency_experiment(1, 15, 500, PLUS, seed=9)
    for ra, rb in zip(a.records, b.records):
        assert ra["total"] == rb["total"]
        assert ra["in_A"] + rb["in_A"] == ra["total"]
        assert ra["ratio"] + rb["ratio"] == pytest.approx(1.0)


def test_direction_frequency_validation():
    with pytest.raises(ValueError):
        ex.direction_frequency_experiment(1, 0, 100, MINUS)
    with pytest.raises(ValueError):
        ex.direction_frequency_experiment(1, 5, 2, MINUS)


def test_direction_frequency_report_roundtrips_json():
    rep = ex.direction_frequency_experiment(2, 4, 100, Hemisphere((1.0, 0.0)), seed=1)
    text = json.dumps(rep.to_obj(), sort_keys=True)
    obj = json.loads(text)
    assert obj["experiment"] == "thm1"
    assert len(obj["records"]) == 4


def test_shell_average_additivity_and_reference():
    rep = ex.shell_average_experiment(0.3173205080756888, 10, c=1.0)
    assert rep.summary["additivity_exact"]
    assert rep.summary["reference"] == pytest.approx(2 * np.log(2))
    cumulative = 0
    for rec in rep.records:
        cumulative += rec["shell"]
        assert rec["cumulative"] == cumulative


def test_shell_average_with_direction_set():
    rep = ex.shell_average_experiment(0.7390851332151607, 12, c=1.0, A=MINUS)
    final = rep.records[-1]
    assert final["cumulative_in_A"] <= final["cumulative"]
    assert rep.summary["target"] == 0.5
    assert rep.summary["final_ratio"] == final["ratio"]


def test_shell_average_is_one_stacked_enumeration(monkeypatch):
    calls = []
    enumerate_stacked = lm.enumerate_stacked

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return enumerate_stacked(*args, **kwargs)

    monkeypatch.setattr(lm, "enumerate_stacked", counted)
    rep = ex.shell_average_experiment(0.3173205080756888, 14, c=1.0, A=MINUS)
    assert len(calls) == 1 and rep.summary["additivity_exact"]


@pytest.mark.parametrize("A", [None, MINUS])
def test_shell_average_direct_count_is_a_standalone_count(A):
    # P_{2^N} shares the shells' stack; it must count what it counts alone
    for x in np.random.default_rng(12).random(3):
        for N in range(2, 15):
            rep = ex.shell_average_experiment(float(x), N, c=1.0, A=A)
            alone = lm.count_region(lm.lattice_from_x(float(x)), lm.RegionSpec("P", 1, T=float(2**N), c=1.0,
                                                                                 norm="sup"))
            assert rep.summary["direct_count"] == alone.total == rep.summary["shells_sum"]


def test_jsonable_matches_the_general_rules():
    report = {"a": [1.5, "s", True, None, 2**60, -(2**60), 7, np.float64(0.25), np.int64(3),
                    Fraction(1, 3), (1, np.float64(2.0)), {"b": [float("nan"), False]}],
              "c": {"d": {"e": [np.int64(2**62)]}}}
    want = {"a": [1.5, "s", True, None, str(2**60), str(-(2**60)), 7, 0.25, 3, "1/3", [1, 2.0],
                  {"b": [float("nan"), False]}],
            "c": {"d": {"e": [str(2**62)]}}}
    assert json.dumps(ex._jsonable(report)) == json.dumps(want)


def test_biased_census_report_summary():
    rep, census = ex.biased_census(5)
    assert rep.summary["L"] == {"1": "2", "3": "16", "5": "216"} or \
        rep.summary["L"] == {"1": 2, "3": 16, "5": 216}
    assert rep.summary["L_bounds"]["5"] == 216
    assert rep.summary["thresholds"][-1] == str(216 * 73868)
    assert rep.summary["rows"] == len(census.rows)


def test_biased_ratio_partition_and_frozen_values():
    minus_rep = ex.biased_ratio(A=MINUS, eps=0, n_max=5)
    plus_rep = ex.biased_ratio(A=PLUS, eps=0, n_max=5)
    for ra, rb in zip(minus_rep.records, plus_rep.records):
        assert Fraction(ra["ratio_exact"]) + Fraction(rb["ratio_exact"]) == 1
    # frozen pilot values at the last default threshold (T = 216 q_5, eps = 0)
    last = minus_rep.records[-1]
    assert (last["minus"], last["plus"]) == (239, 8)
    assert Fraction(last["ratio_exact"]) == Fraction(239, 247)


def test_biased_ratio_monotone_bias_gap():
    for eps in (0, Fraction(1, 100), Fraction(1, 10)):
        rep = ex.biased_ratio(A=MINUS, eps=eps, n_max=7)
        gaps = [(r["minus"] - r["plus"]) / r["total"] for r in rep.records[-3:]]
        assert all(a <= b + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] >= 0.5


def test_biased_ratio_window_options():
    rep = ex.biased_ratio(T_list=[72], A=MINUS, eps=Fraction(1, 2))
    rec = rep.records[0]
    assert rec["window_lo"] == "36"
    with pytest.raises(ex.EmptyDenominator):
        ex.biased_ratio(T_list=[7], A=MINUS, eps=Fraction(9, 10))
    with pytest.raises(ValueError):
        ex.biased_ratio(A=Hemisphere((1.0, 0.0)), eps=0)


def test_nonminimal_directions_collapse_to_diagonal():
    probe = Cap((1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)), np.pi / 3)
    rep = ex.nonminimal_experiment(2, biased_number(), 2000, q_min=50, probe_cap=probe)
    assert rep.summary["large_q"] > 0
    assert rep.summary["max_diagonal_residual"] <= 1e-9
    assert rep.summary["max_relation_residual"] <= 1e-9
    assert rep.summary["probe_cap_hits_large_q"] == 0


def test_nonminimal_d3():
    rep = ex.nonminimal_experiment(3, 0.23611035901878635, 500, q_min=30)
    assert rep.summary["max_relation_residual"] <= 1e-9
    with pytest.raises(ValueError):
        ex.nonminimal_experiment(1, 0.5, 100)


def test_nonminimal_rejects_probe_cap_of_another_dimension():
    for d, probe in ((2, MINUS), (3, Hemisphere((1.0, 0.0)))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ex.nonminimal_experiment(d, 0.23611035901878635, 100, probe_cap=probe)


def test_report_big_ints_become_strings():
    rep = ex.biased_ratio(A=MINUS, eps=0, n_max=7)
    obj = rep.to_obj()
    text = json.dumps(obj)  # must not overflow or lose precision
    assert str(56466183356416) in text
