"""The series route's constants, checked in exact rational arithmetic.

The route's weights and its truncation bound come from the Chebyshev
value d = T_22(3) and the integers c_k of Cohen, Rodriguez Villegas &
Zagier's Algorithm 1.  Here each is rebuilt by a path the route does not
take (d by the recurrence T_(k+1)(3) = 6 T_k(3) - T_(k-1)(3), the c_k with
the algorithm's half-integer divisor kept as a Fraction), and every float
the route holds is compared with the exact value it must round.
"""

import math
from fractions import Fraction

from altseries import series

N = 22


def _chebyshev_at_3(n: int) -> int:
    prev, cur = 1, 3
    for _ in range(n - 1):
        prev, cur = cur, 6 * cur - prev
    return cur


def _algorithm_1_c(n: int, d: int) -> list:
    b, c, out = Fraction(-1), Fraction(-d), []
    for k in range(n):
        c = b - c
        out.append(c)
        b = b * (k + n) * (k - n) / ((k + Fraction(1, 2)) * (k + 1))
    return out


def _ln2_upper() -> Fraction:
    """ln 2 = sum_(k>=1) 1/(k 2^k); the tail past K is below
    1/((K + 1) 2^K), so the partial sum plus that is an upper bound."""
    k_max = 90
    head = sum(Fraction(1, k * 2 ** k) for k in range(1, k_max + 1))
    return head + Fraction(1, (k_max + 1) * 2 ** k_max)


def test_d_is_t22_at_3():
    assert series._N == N
    assert series._D == _chebyshev_at_3(N) == 34_761_632_124_320_657


def test_every_c_k_is_an_integer_within_d():
    cs = _algorithm_1_c(N, series._D)
    assert all(c.denominator == 1 for c in cs)
    assert all(abs(c) <= series._D for c in cs)


def test_each_weight_is_c_k_over_d_correctly_rounded():
    d = _chebyshev_at_3(N)
    cs = _algorithm_1_c(N, d)
    assert len(series._WEIGHTS) == N
    for k, (w, c) in enumerate(zip(series._WEIGHTS, cs)):
        exact = Fraction(c) / d
        # the nearest double: neither neighbour of w lies closer to c_k/d
        gap = abs(Fraction(w) - exact)
        for side in (-math.inf, math.inf):
            assert gap <= abs(Fraction(math.nextafter(w, side)) - exact), k


def test_truncation_constant_bounds_ln2_over_d():
    d = _chebyshev_at_3(N)
    assert Fraction(series._TRUNCATION) * d >= _ln2_upper()
