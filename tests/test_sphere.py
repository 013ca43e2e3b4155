import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdir import sphere as sm
from latdir.siegel import haar_rotation
from latdir.sphere import (Cap, Complement, FullSphere, Hemisphere, SignSet,
                           ball_volume, parse_direction_set)

unit2 = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda v: 0.1 < math.hypot(*v)).map(lambda v: tuple(np.array(v) / math.hypot(*v)))


def test_contains_examples():
    assert SignSet(frozenset({-1})).contains(np.array([-1.0]))
    assert not SignSet(frozenset({-1})).contains(np.array([1.0]))
    assert Hemisphere((1.0, 0.0)).contains(np.array([0.6, 0.8]))
    assert not Cap((1.0, 0.0), math.pi / 6).contains(np.array([0.6, 0.8]))


def test_measures():
    assert Hemisphere((1.0, 0.0)).measure() == 0.5
    assert Hemisphere((0.0, 1.0, 0.0)).measure() == 0.5
    assert SignSet(frozenset({-1})).measure() == 0.5
    assert SignSet(frozenset({-1, 1})).measure() == 1.0
    assert FullSphere(3).measure() == 1.0


@given(st.floats(0.05, math.pi - 0.05))
def test_circle_cap_measure_is_angle_over_pi(angle):
    cap = Cap((1.0, 0.0), angle)
    assert cap.measure() == pytest.approx(angle / math.pi, abs=1e-12)


@pytest.mark.parametrize("angle", [0.3, 1.2, math.pi / 2, 2.0, 2.9])
def test_cap_measure_closed_forms(angle):
    # S^2: (1 - cos a) / 2 (Archimedes); S^3: (a - sin a cos a) / pi
    assert Cap((0.0, 0.0, 1.0), angle).measure() == pytest.approx((1 - math.cos(angle)) / 2, abs=1e-15)
    assert Cap((0.0, 0.0, 0.0, 1.0), angle).measure() == pytest.approx(
        (angle - math.sin(angle) * math.cos(angle)) / math.pi, abs=1e-15)


def test_complement_measure_exact():
    cap = Cap((0.0, 1.0, 0.0), 0.7)
    assert Complement(cap).measure() + cap.measure() == 1.0


@given(unit2)
def test_complement_partitions_membership(u):
    cap = Cap((1.0, 0.0), 1.0)
    uu = np.array(u)
    assert cap.contains(uu) != Complement(cap).contains(uu) or abs(uu @ [1, 0] - math.cos(1.0)) < 1e-9


def test_cap_measure_monte_carlo_oracle():
    # empirical hit frequency of Haar-random directions vs the closed form
    for d, A in ((3, Cap((0.0, 0.0, 1.0), 0.9)), (2, Cap((1.0, 0.0), 2.2)),
                 (4, Hemisphere((1.0, 0.0, 0.0, 0.0)))):
        M = 4000
        e1 = np.zeros(d)
        e1[0] = 1.0
        hits = 0
        for i in range(M):
            k = haar_rotation(d, np.random.default_rng([2024, d, i]))
            if A.contains(k @ e1):
                hits += 1
        p = A.measure()
        tol = 4 * math.sqrt(p * (1 - p) / M)
        assert abs(hits / M - p) <= tol


def test_contains_invariant_under_rotations_fixing_data():
    rng = np.random.default_rng(5)
    cap = Cap((0.0, 0.0, 1.0), 0.8)
    for i in range(25):
        k = haar_rotation(3, np.random.default_rng([77, i]))
        u = k @ np.array([0.0, 0.0, 1.0])
        rotated_cap = Cap(tuple(u), 0.8)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert cap.contains(v) == rotated_cap.contains(k @ v)


def test_ball_volume():
    assert ball_volume(1, 1.0) == pytest.approx(2.0)
    assert ball_volume(2, 1.0) == pytest.approx(math.pi)
    assert ball_volume(2, 1.0, "sup") == 4.0
    assert ball_volume(3, 1.0) == pytest.approx(4 * math.pi / 3)
    assert ball_volume(2, 0.5) == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        ball_volume(2, -1.0)
    with pytest.raises(ValueError):
        ball_volume(2, 1.0, "manhattan")


def test_cap_validation():
    with pytest.raises(ValueError):
        Cap((1.0,), 0.5)  # d = 1 caps are sign sets
    with pytest.raises(ValueError):
        Cap((1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        SignSet(frozenset({2}))


def test_json_round_trip_all_variants():
    cap = {"kind": "cap", "center": [1.0, 0.0], "angle": 0.4}
    cases = [(SignSet(frozenset({-1, 1})), {"kind": "sign", "signs": [-1, 1]}),
             (Hemisphere((0.0, 1.0)), {"kind": "hemisphere", "axis": [0.0, 1.0]}),
             (Cap((1.0, 0.0), 0.4), cap),
             (Complement(Cap((1.0, 0.0), 0.4)), {"kind": "complement", "inner": cap}),
             (FullSphere(2), {"kind": "full", "d": 2})]
    for A, obj in cases:
        assert json.loads(json.dumps(A.to_obj())) == obj


def test_parse_direction_set_syntax():
    assert parse_direction_set("sign:-1", 1) == SignSet(frozenset({-1}))
    assert parse_direction_set("sign:-1,1", 1).measure() == 1.0
    h = parse_direction_set("hemisphere:1,0", 2)
    assert isinstance(h, Hemisphere) and h.axis == (1.0, 0.0)
    c = parse_direction_set("cap:0,1:0.5", 2)
    assert isinstance(c, Cap) and c.angle == 0.5
    comp = parse_direction_set("complement:cap:0,1:0.5", 2)
    assert isinstance(comp, Complement)
    assert parse_direction_set("none", 2) is None
    assert parse_direction_set("full", 1) == SignSet(frozenset({-1, 1}))
    with pytest.raises(ValueError):
        parse_direction_set("blob:1", 2)


def test_sign_set_contains_many_vectorized():
    A = SignSet(frozenset({-1}))
    U = np.array([[-1.0], [1.0], [-1.0]])
    assert list(A.contains_many(U)) == [True, False, True]
