"""Trial division against a plain factorisation oracle, valuations, and
the distance to the nearest integer."""

from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, strategies as st

from cubiclab.nt import is_prime, nearest_int_distance, trial_factor, valuation


def plain_factor(n: int) -> dict:
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_matches_plain_factorisation():
    for n in range(1, 10**4 + 1):
        assert trial_factor(n) == (plain_factor(n), 1)
        assert trial_factor(-n) == (plain_factor(n), 1)
    assert trial_factor(0) == ({}, 0)


def test_unsplit_cofactor():
    p, q = 1_000_003, 1_000_033  # primes above the trial bound 10^6
    assert is_prime(p) and is_prime(q)
    assert trial_factor(p * q) == ({}, p * q)
    assert trial_factor(12 * p * q) == ({2: 2, 3: 1}, p * q)
    # a cofactor below the bound squared is prime, so it is split off
    assert trial_factor(12 * p) == ({2: 2, 3: 1, p: 1}, 1)


def test_valuation():
    assert valuation(-48, 2) == 4 and valuation(7, 3) == 0
    for p in (1, 0, -2):  # every n is divisible by 1 forever
        with pytest.raises(ValueError, match="base p >= 2"):
            valuation(12, p)
    with pytest.raises(ValueError, match="infinite"):
        valuation(0, 5)


@given(st.fractions())
def test_nearest_int_distance_exact_on_fractions(x):
    d = nearest_int_distance(x)
    assert isinstance(d, Fraction) and d == min(x - floor(x), ceil(x) - x)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_nearest_int_distance_on_floats(x):
    # the fractional part x - floor(x) in float arithmetic, or 1 minus it
    frac = x - floor(x)
    assert nearest_int_distance(x) == min(frac, 1.0 - frac)
