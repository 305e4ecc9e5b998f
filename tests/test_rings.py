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
    gauss_jordan_ff,
    ipoly_add,
    ipoly_divexact,
    ipoly_divmod_mod,
    ipoly_eval,
    ipoly_mod,
    ipoly_mul,
    ipoly_trim,
    ipoly_valuation,
    power,
    sym_lift,
)
from markoffmodp.trired import SYM, TriPoly


rational = st.one_of(st.integers(min_value=-20, max_value=20),
                    st.fractions(min_value=-20, max_value=20, max_denominator=12))


def _fraction(v):
    """A sympy Rational as a Fraction."""
    return Fraction(int(v.p), int(v.q))


def _to_sympy(sympy, coeffs, var):
    """A little-endian list of ints and Fractions as a sympy Poly over QQ."""
    return sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in coeffs][::-1] or [0],
                      var, domain="QQ")


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

    def test_repr(self):
        assert repr(KPoly([Fraction(-1, 2), 0, 3])) == "KPoly('3*k^2 - 1/2')"
        assert repr(KPoly([0, -1, Fraction(3, 2)])) == "KPoly('3/2*k^2 - k')"
        assert repr(KPoly()) == "KPoly('0')"

    @given(st.lists(rational, max_size=6), st.lists(rational, max_size=6), rational,
           st.integers(min_value=0, max_value=4), rational)
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, a, b, c, n, x):
        # + - x, scalar x, powers and evaluation against sympy's Poly over QQ
        sympy = pytest.importorskip("sympy")
        k = sympy.Symbol("k")

        def from_sympy(poly):
            return KPoly([_fraction(v) for v in poly.all_coeffs()[::-1]])

        A, B = KPoly(a), KPoly(b)
        sa, sb = _to_sympy(sympy, a, k), _to_sympy(sympy, b, k)
        sc = sympy.Rational(c.numerator, c.denominator)
        assert A + B == from_sympy(sa + sb)
        assert A - B == from_sympy(sa - sb)
        assert A * B == from_sympy(sa * sb)
        assert A * c == c * A == from_sympy(sa * sc)
        assert A**n == from_sympy(sa**n)
        assert A(x) == _fraction(sa.eval(sympy.Rational(x.numerator, x.denominator)))


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

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 9, 12, 15, 20, 30, 48, 96])
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

    @pytest.mark.parametrize("m", [5, 8, 12, 30])
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_product_matches_sympy_rem(self, m, data):
        # inputs up to twice the degree of Phi_m, so the constructor reduces
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        a, b = (data.draw(st.lists(rational, max_size=2 * euler_phi(m))) for _ in range(2))
        expect = sympy.rem(_to_sympy(sympy, a, t) * _to_sympy(sympy, b, t),
                           sympy.Poly(sympy.cyclotomic_poly(m, t), t, domain="QQ"))
        got = CycloElem(m, a) * CycloElem(m, b)
        assert list(got.coords) == ipoly_trim([_fraction(v) for v in expect.all_coeffs()[::-1]])
        assert got.is_zero() == expect.is_zero


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


def _rref_oracle(rows):
    """gauss_jordan_ff's contract over Fraction: the same pivot rule (the
    first nonzero row at or below k in the first column that has one), the
    reduced row echelon form by Gauss-Jordan, and D the product of the
    pivots, which is the determinant of the row-swapped pivot columns."""
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in r] for r in rows]
    sign, D, pivots, c = 1, Fraction(1), [], 0
    for k in range(m):
        while True:
            if c == n:
                return None
            i = next((i for i in range(k, m) if a[i][c]), None)
            if i is not None:
                break
            c += 1
        if i != k:
            a[i], a[k] = a[k], a[i]
            sign = -sign
        D *= a[k][c]
        a[k] = [x / a[k][c] for x in a[k]]
        for i in range(m):
            f = a[i][c]
            if i != k and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        pivots.append(c)
        c += 1
    live = [j for j in range(n) if j not in pivots]
    scaled = [[D * r[j] for j in live] for r in a]
    assert all(x.denominator == 1 for r in scaled for x in r)  # Cramer's rule
    return sign, int(D), tuple(pivots), live, [[int(x) for x in r] for r in scaled]


@st.composite
def int_matrices(draw):
    # mostly zeros, so staircases, swaps and dependent columns are common;
    # sometimes a row is a combination of two others, so the rank drops
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=max(m - 1, 0), max_value=m + 3))
    entry = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(3))
        rows[i] = [2 * x - y for x, y in zip(rows[j], rows[k])]
    return rows


class TestGaussJordanFF:
    def test_row_stale_for_two_steps_becomes_the_pivot_row(self):
        # row 2 is zero in columns 0 and 1, so its multiplier is zero at
        # steps 0 and 1 (pivots 2, then 2*5 - 4*1 = 6); at step 2 it is the
        # pivot row and must first be scaled by 6/1
        rows = [[2, 1, 3, 1, 5],
                [4, 5, 1, 2, 7],
                [0, 0, 5, 1, 2]]
        got = gauss_jordan_ff(rows)
        assert got == _rref_oracle(rows)
        assert got[1] == 6 * 5  # det of the first three columns
        assert got[2] == (0, 1, 2)

    def test_stale_row_later_gets_a_multiplier(self):
        # row 3 is zero in columns 0 and 1 (stale through steps 0 and 1),
        # then has a nonzero multiplier at step 2, where its update divides
        # by the pivot it was last current at, not by the current one
        rows = [[2, 1, 3, 1, 5, 1],
                [4, 5, 1, 2, 7, 3],
                [1, 2, 5, 1, 2, 0],
                [0, 0, 3, 7, 1, 4]]
        assert gauss_jordan_ff(rows) == _rref_oracle(rows)

    def test_row_swaps_carry_the_stale_rows(self):
        # rows 1 and 2 are updated at step 0 and then zero at column 1, so
        # at step 1 row 3, stale since step 0 (zero at column 0), swaps up
        # as the pivot row, and row 1 goes down with its own stamp
        rows = [[2, 0, 1, 0, 1],
                [2, 0, 0, 3, 1],
                [1, 0, 0, 0, 2],
                [0, 3, 0, 0, 1]]
        got = gauss_jordan_ff(rows)
        assert got == _rref_oracle(rows)
        assert got[0] == -1 and got[2] == (0, 1, 2, 3)
        one = gauss_jordan_ff([[0, 1, 3], [4, 5, 1]])  # a swap at step 0
        assert one == _rref_oracle([[0, 1, 3], [4, 5, 1]]) and one[0] == -1

    def test_dependent_column_is_skipped(self):
        # column 1 is twice column 0, so the second pivot is column 2 and
        # column 1 is live, with its reduced-form entries 2 and 0
        rows = [[1, 2, 3, 4],
                [2, 4, 7, 1],
                [1, 2, 0, 5]]
        got = gauss_jordan_ff(rows)
        assert got == _rref_oracle(rows)
        sign, D, pivots, live, a = got
        assert pivots == (0, 2, 3) and live == [1]
        assert [r[0] for r in a] == [2 * D, 0, 0]

    def test_rank_below_the_row_count(self):
        assert gauss_jordan_ff([[1, 2, 3], [2, 4, 6]]) is None
        assert gauss_jordan_ff([[1, 2, 3], [0, 0, 0]]) is None
        assert gauss_jordan_ff([[1, 2], [3, 4], [5, 6]]) is None  # more rows than columns
        assert gauss_jordan_ff([[]]) is None

    def test_empty_input(self):
        assert gauss_jordan_ff([]) == (1, 1, (), [], []) == _rref_oracle([])

    def test_input_rows_are_not_changed(self):
        rows = [[0, 1, 3], [4, 5, 1]]
        gauss_jordan_ff(rows)
        assert rows == [[0, 1, 3], [4, 5, 1]]

    @given(int_matrices())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_oracle(self, rows):
        assert gauss_jordan_ff(rows) == _rref_oracle(rows)
