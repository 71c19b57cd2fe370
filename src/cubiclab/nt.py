"""Small exact number-theory helpers shared across the package.

Everything here operates on Python ints (arbitrary precision) and
fractions.Fraction; no floating point.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit range, good enough far beyond
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0; raises for n == 0 (the valuation is infinite)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def trial_factor(n: int, bound: int = 10**6) -> tuple[dict[int, int], int]:
    """Factor n by trial division up to bound.

    Returns (factors, cofactor) with n == cofactor * prod(p**e); the
    cofactor carries whatever was not split off (1 if fully factored).
    """
    n = abs(n)
    factors: dict[int, int] = {}
    if n == 0:
        return factors, 0
    for p in chain((2, 3), range(5, bound + 1, 2)):
        if p * p > n:
            break
        if n % p:
            continue
        v = valuation(n, p)
        factors[p] = v
        n //= p**v
    if n > 1:
        if n <= bound * bound or is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            n = 1
    return factors, n


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, unsorted scan order."""
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    if n == 1:
        return 1
    factors, cof = trial_factor(n)
    if cof != 1:
        raise ValueError(f"could not factor {n} for mobius")
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def ramanujan_sum(q: int, m: int) -> int:
    """c_q(m) = sum over a coprime to q of e(am/q); always an integer."""
    g = gcd(m % q if q else m, q) if q > 1 else 1
    if q == 1:
        return 1
    return sum(d * mobius(q // d) for d in divisors(q) if g % d == 0)


def nearest_int_distance(x: Fraction | float):
    """Distance to the nearest integer; exact when given a Fraction."""
    if isinstance(x, Fraction):
        frac = x - (x.numerator // x.denominator)
        return min(frac, 1 - frac)
    frac = x - int(x // 1)
    return min(frac, 1.0 - frac)


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
