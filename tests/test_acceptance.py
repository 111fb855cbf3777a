"""Acceptance suite: every criterion at full trial counts, exact tolerances.

Each case prints one PASS/FAIL line (visible with `pytest -s` and in the
`octsieve verify` command, which runs the same checks).
"""

import pytest

from octsieve.verification import ALL_CHECKS


@pytest.mark.parametrize("name, check", ALL_CHECKS, ids=[name for name, _ in ALL_CHECKS])
def test_criterion(name, check):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"
