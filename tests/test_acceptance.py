"""The acceptance gate: every criterion at its pinned tolerance, one test per
criterion, with a printed pass/fail line each."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latdir import acceptance as acc
from latdir.contfrac import CFNumber, Enclosure, RotationScan, biased_number, constant_cf

# the exact criteria whose detail line must not move
PINNED_DETAILS = {
    "3 best-approximation brute force":
        "no q < q_5 beats its governing convergent (biased and golden)",
    "4 census completeness":
        "all 31 in-R points below q_5 = 73868 lie in the 4 remainder classes",
}


@pytest.mark.parametrize("check", acc.ALL_CHECKS, ids=[c.criterion for c in acc.ALL_CHECKS])
def test_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail
    if check.criterion in PINNED_DETAILS:
        assert result.detail == PINNED_DETAILS[check.criterion]


FIRST_CLOSER_Q_MAX = 3_000
_ELEMENTS = [7, 1, 300, 2, 1, 10**6, 3]
FIRST_CLOSER_NUMBERS = {
    "biased": biased_number,
    "golden": lambda: constant_cf(1),
    "mixed": lambda: CFNumber.from_elements(_ELEMENTS, rule=lambda n: _ELEMENTS[(n - 1) % len(_ELEMENTS)]),
}
_scans = {}


def _first_closer_by_scan(kind, q0):
    """The least q != q0 with |q.x| < |q0.x|, from `RotationScan.abs_less`."""
    if kind not in _scans:
        _scans[kind] = RotationScan(FIRST_CLOSER_NUMBERS[kind](), FIRST_CLOSER_Q_MAX)
    scan = _scans[kind]
    return next((q for q in range(1, FIRST_CLOSER_Q_MAX + 1) if q != q0 and scan.abs_less(q, q0)), None)


@given(st.sampled_from(sorted(FIRST_CLOSER_NUMBERS)), st.integers(2, FIRST_CLOSER_Q_MAX))
@example("biased", 5)
@settings(max_examples=40, deadline=None)
def test_first_closer_finds_what_a_rotation_scan_finds(kind, q0):
    # a non-convergent q0 is beaten by some smaller q, which the screen must keep
    cf = FIRST_CLOSER_NUMBERS[kind]()
    assume(q0 not in {c.q for c in cf.convergents(12)})
    want = _first_closer_by_scan(kind, q0)
    assert want is not None and want < q0
    assert acc.first_closer(Enclosure(cf, 16), q0, 1, FIRST_CLOSER_Q_MAX) == want


@pytest.mark.parametrize("kind", sorted(FIRST_CLOSER_NUMBERS))
def test_first_closer_finds_none_below_a_convergent(kind):
    cf = FIRST_CLOSER_NUMBERS[kind]()
    qn = max(c.q for c in cf.convergents(12) if c.q <= FIRST_CLOSER_Q_MAX)
    want = _first_closer_by_scan(kind, qn)
    assert want is None or want > qn
    assert acc.first_closer(Enclosure(cf, 16), qn, 1, qn - 1) is None
