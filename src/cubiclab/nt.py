"""Small exact number-theory helpers shared across the package.

Everything here operates on Python ints (arbitrary precision) and
fractions.Fraction; no floating point.
"""

from fractions import Fraction
from itertools import chain
from math import isqrt


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
    """v_p(n) for n != 0 and p >= 2; raises for n == 0 (the valuation is
    infinite) and for p < 2 (every n would be divisible forever)."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
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


def nearest_int_distance(x: Fraction | float):
    """Distance to the nearest integer; exact when given a Fraction."""
    frac = x - x // 1
    return min(frac, 1 - frac)


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def column_reduce(A: list) -> tuple:
    """Unimodular column reduction of the m x n integer matrix A.

    Euclid each row in turn across the columns that hold no pivot yet,
    mirroring every column operation on an identity matrix U and its
    inverse row operation on an identity matrix V.  Returns (pivots, U, V),
    U as its list of n columns and V = U^-1 as its list of n rows:
    A U = [H | 0], H has one column per pivot, the first nonzero entry of
    column j of H is pivots[j], and every entry above it is 0.  When every
    row gets a pivot, H is lower triangular, so |prod pivots| = |det H| is
    the gcd of the m x m minors of A (the index of its column lattice in
    Z^m; Cohen, GTM 138, sec. 2.4).  The U-columns paired with the zero
    columns generate the integer kernel lattice of A.
    """
    m, n = len(A), len(A[0]) if A else 0
    cols = [[int(A[r][c]) for r in range(m)] for c in range(n)]
    U = [[int(r == c) for r in range(n)] for c in range(n)]
    V = [[int(r == c) for c in range(n)] for r in range(n)]
    pivots = []
    for row in range(m):
        start = len(pivots)  # columns < start hold already-placed pivots
        while True:
            nz = [c for c in range(start, n) if cols[c][row]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda c: abs(cols[c][row]))
            a, u = cols[piv], U[piv]
            for c in nz:
                if c != piv:
                    q = cols[c][row] // a[row]
                    # column c -= q * column piv, so row piv += q * row c of V
                    cols[c] = [x - q * y for x, y in zip(cols[c], a)]
                    U[c] = [x - q * y for x, y in zip(U[c], u)]
                    V[piv] = [x + q * y for x, y in zip(V[piv], V[c])]
        if nz:
            c = nz[0]
            cols[start], cols[c] = cols[c], cols[start]
            U[start], U[c] = U[c], U[start]
            V[start], V[c] = V[c], V[start]
            pivots.append(cols[start][row])
    return pivots, U, V
