import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from markoffmodp.rings import (
    CycloElem,
    KPoly,
    chebyshev_u,
    cyclotomic_poly,
    crt_step,
    euler_phi,
    frac_mod,
    ipoly_add,
    ipoly_divexact,
    ipoly_divmod_mod,
    ipoly_eval,
    ipoly_mod,
    ipoly_mul,
    ipoly_valuation,
    power,
    sym_lift,
)
from markoffmodp.trired import SYM, TriPoly


class TestKPoly:
    def test_basic_arithmetic(self):
        a = KPoly([1, 2])      # 1 + 2k
        b = KPoly([0, 0, 3])   # 3k^2
        assert (a + b).coeffs == (1, 2, 3)
        assert (a * b).coeffs == (0, 0, 3, 6)
        assert (-a).coeffs == (-1, -2)
        assert a - a == KPoly.zero()
        assert KPoly([0, 0, 0]).is_zero()

    def test_fraction_coefficients_kept(self):
        # every coefficient is stored as given, int or Fraction, and equal
        # values compare and hash equal whatever their type
        half = Fraction(1, 2)
        p = KPoly([half, 3, Fraction(0)])
        assert p.coeffs[0] is half
        assert type(p.coeffs[1]) is int and p.coeffs == (half, 3)
        q = KPoly([Fraction(3), half])
        assert KPoly([3, half]) == q and hash(KPoly([3, half])) == hash(q)
        assert {type(c) for c in (KPoly([1, 2]) * KPoly([3, -4]) + 5).coeffs} == {int}


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_cached_value_is_a_tuple_of_ints(self):
        # the cache hands the same object to every caller: it must not be
        # a list a caller could change
        phi30 = cyclotomic_poly(30)
        assert type(phi30) is tuple and all(type(c) is int for c in phi30)
        assert cyclotomic_poly(30) is phi30

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 9, 12, 15, 20])
    def test_degree_is_phi(self, m):
        assert len(cyclotomic_poly(m)) - 1 == euler_phi(m)

    def test_product_over_divisors(self):
        m = 12
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = ipoly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (m - 1) + [1]


class TestCycloElem:
    def test_lambda_recursion_identity(self):
        # (z + 1/z)(z^i + z^-i) = (z^(i-1) + z^(1-i)) + (z^(i+1) + z^(-i-1)),
        # with z^-j written z^(m-j) since z^m = 1
        for m in (8, 10, 14):
            z = CycloElem.zeta(m)
            lam = z + z ** (m - 1)
            for i in range(1, 7):
                lhs = lam * (z**i + z ** (m - i))
                rhs = (z ** (i - 1) + z ** (m - i + 1)) + (z ** (i + 1) + z ** (m - i - 1))
                assert lhs == rhs

    def test_negative_power_refused(self):
        # refused up front: the square-and-multiply loop would never end
        start = time.perf_counter()
        with pytest.raises(ValueError, match="negative power"):
            CycloElem.zeta(8) ** -1
        assert time.perf_counter() - start < 1

    def test_mixed_conductors_rejected(self):
        with pytest.raises(ValueError):
            CycloElem.zeta(4) * CycloElem.zeta(6)


@pytest.mark.parametrize("x", [KPoly([1, 1]), TriPoly.monomial(SYM, 1, 0, 0)],
                         ids=["KPoly", "TriPoly"])
def test_negative_power_refused(x):
    # as for CycloElem above: n >>= 1 leaves n at -1, so an unchecked loop
    # would square forever
    start = time.perf_counter()
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
    assert time.perf_counter() - start < 1


def test_power_square_and_multiply():
    assert [power(3, n, 1) for n in range(7)] == [3**n for n in range(7)]
    assert KPoly([1, 1]) ** 3 == KPoly([1, 3, 3, 1])
    assert KPoly([1, 1]) ** 0 == KPoly([1])
    assert TriPoly.monomial(SYM, 1, 2, 0) ** 5 == TriPoly.monomial(SYM, 5, 10, 0)


class TestChebyshev:
    def test_first_values(self):
        assert chebyshev_u(1) == [1]
        assert chebyshev_u(2) == [0, 1]
        assert chebyshev_u(3) == [-1, 1]
        assert chebyshev_u(4) == [0, -2, 1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            chebyshev_u(0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_roots_at_unit_circle_traces(self, n):
        # u_n evaluated at lambda^2 = (zeta^m + zeta^-m)^2 vanishes for every
        # nontrivial 2n-th root of unity zeta^m
        z = CycloElem.zeta(2 * n)
        u = chebyshev_u(n)
        for m in range(1, n):
            lam2 = (z**m + z ** (2 * n - m)) ** 2
            assert ipoly_eval(u, lam2).is_zero(), (n, m)

    def test_recursion(self):
        # x*U_(n-1)(x/2) = U_n(x/2) + U_(n-2)(x/2) in the variable t = x^2:
        # u_n = u_(n-1) - u_(n-2) for odd n, t*u_(n-1) - u_(n-2) for even n
        for n in range(3, 13):
            prev = chebyshev_u(n - 1)
            if n % 2 == 0:
                prev = ipoly_mul([0, 1], prev)
            assert chebyshev_u(n) == ipoly_add(prev, [-c for c in chebyshev_u(n - 2)]), n


int_poly = st.lists(st.integers(min_value=-50, max_value=50), max_size=6).map(
    lambda a: a[: max((i + 1 for i, c in enumerate(a) if c), default=0)]
)
nonzero_int_poly = int_poly.filter(bool)


class TestIntPolyHelpers:
    @given(int_poly, nonzero_int_poly)
    @settings(max_examples=150, deadline=None)
    def test_divexact_round_trip(self, a, b):
        assert ipoly_divexact(ipoly_mul(a, b), b) == a

    @given(int_poly, nonzero_int_poly, st.integers(min_value=2, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_divexact_refuses_non_integral_quotients(self, a, b, m):
        # m*b divides a*b over Q, and over Z exactly when m divides a
        prod, mb = ipoly_mul(a, b), [m * c for c in b]
        if all(c % m == 0 for c in a):
            assert ipoly_divexact(prod, mb) == [c // m for c in a]
        else:
            with pytest.raises(ArithmeticError):
                ipoly_divexact(prod, mb)

    @given(int_poly, int_poly, st.integers(min_value=1, max_value=10006))
    @settings(max_examples=150, deadline=None)
    def test_divmod_mod_identity(self, a, b, lead):
        q = 10007
        b = b + [lead]
        quo, rem = ipoly_divmod_mod(a, b, q)
        assert len(rem) < len(b) and all(0 <= c < q for c in quo + rem)
        assert ipoly_mod(ipoly_add(ipoly_mul(quo, b), rem), q) == ipoly_mod(a, q)

    def test_divexact_refuses_remainders(self):
        with pytest.raises(ArithmeticError):
            ipoly_divexact([1, 0, 1], [1, 1])
        with pytest.raises(ZeroDivisionError):
            ipoly_divexact([1], [])

    @given(
        st.lists(st.integers(min_value=-10**12, max_value=10**12), min_size=1, max_size=5),
        st.lists(st.sampled_from([10007, 10009, 10037, 10039, 2**31 - 1]), min_size=1,
                 max_size=4, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_crt_step_matches_its_residues(self, values, primes):
        res, mod = [v % primes[0] for v in values], primes[0]
        for q in primes[1:]:
            res = crt_step(res, mod, [v % q for v in values], q)
            mod *= q
            assert all(0 <= r < mod for r in res)
        for q in primes:
            assert [r % q for r in res] == [v % q for v in values]
        if all(2 * abs(v) < mod for v in values):
            assert [sym_lift(r, mod) for r in res] == values

    @given(nonzero_int_poly, st.integers(min_value=-5, max_value=5),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_linear_valuation(self, a, r, e):
        poly = a
        for _ in range(e):
            poly = ipoly_mul(poly, [-r, 1])
        got_e, quotient = ipoly_valuation(poly, r)
        # the defining property: poly = quotient * (k - r)^e', quotient(r) != 0
        assert got_e >= e and ipoly_eval(quotient, r) != 0
        assert KPoly(poly) == KPoly(quotient) * KPoly([-r, 1]) ** got_e
        assert ipoly_valuation([], r) == (0, [])

    def test_frac_mod_refuses_non_units(self):
        assert frac_mod(Fraction(1, 2), 7) == 4
        with pytest.raises(ZeroDivisionError):
            frac_mod(Fraction(1, 14), 7)
