import itertools
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from markoffmodp import trired
from markoffmodp.rings import KPoly
from markoffmodp.trired import (
    PARSE_DEGREE_BOUND,
    SYM,
    Reducer,
    TriPoly,
    XPoly,
    canonical_form,
    format_tripoly,
    parse_poly,
    phi,
    phi_x,
    prime_ring,
)


def naive_phi(f):
    """Independent reference reducer: per-monomial prescribed steps, no
    canonical form, no symmetry shortcuts."""
    ring = f.ring
    memo = {}

    def mono(l, m, n):
        key = (l, m, n)
        if key in memo:
            return memo[key]
        present = (l > 0) + (m > 0) + (n > 0)
        if present <= 1:
            val = {l + m + n: ring.one}
        elif present == 2:
            if l == 0:
                sub = mono(1, m - 1, n - 1)
            elif m == 0:
                sub = mono(l - 1, 1, n - 1)
            else:
                sub = mono(l - 1, m - 1, 1)
            two = ring.from_int(2)
            val = {e: ring.mul(two, c) for e, c in sub.items()}
        else:
            acc = {}
            parts = (
                (mono(l + 1, m - 1, n - 1), ring.one),
                (mono(l - 1, m + 1, n - 1), ring.one),
                (mono(l - 1, m - 1, n + 1), ring.one),
                (mono(l - 1, m - 1, n - 1), ring.neg(ring.kappa)),
            )
            for sub, mult in parts:
                for e, c in sub.items():
                    s = ring.add(acc.get(e, ring.zero), ring.mul(mult, c))
                    if ring.is_zero(s):
                        acc.pop(e, None)
                    else:
                        acc[e] = s
            val = acc
        memo[key] = val
        return val

    out = {}
    for (a, b, c), v in f.terms.items():
        for e, q in mono(a, b, c).items():
            s = ring.add(out.get(e, ring.zero), ring.mul(v, q))
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return XPoly(ring, out)


def random_tripoly(rng, ring, max_terms=6, max_exp=4):
    t = TriPoly.zero(ring)
    for _ in range(rng.randint(1, max_terms)):
        a, b, c = (rng.randint(0, max_exp) for _ in range(3))
        t = t + TriPoly.monomial(ring, a, b, c, Fraction(rng.randint(-3, 3)))
    return t


class TestPhiAnchors:
    def test_quartic_at_kappa_zero(self):
        R = prime_ring(1000003, 0)
        f = parse_poly("y^4 - y^2*z^2 + 1/2*x^2*y^2", R)
        assert phi(f).coeffs == {4: 1, 2: 1000003 - 3}

    def test_pure_power_unchanged(self):
        for n in (1, 3, 6):
            f = TriPoly.monomial(SYM, n, 0, 0)
            assert phi(f).coeffs == {n: KPoly([1])}

    def test_x4y2_at_kappa_zero(self):
        R = prime_ring(1009, 0)
        assert phi(parse_poly("x^4*y^2", R)).coeffs == {4: 2, 2: 24}

    def test_x2y2z2_at_kappa_zero(self):
        R = prime_ring(1009, 0)
        assert phi(parse_poly("x^2*y^2*z^2", R)).coeffs == {4: 3, 2: 36}

    def test_x4y2_symbolic(self):
        out = phi(parse_poly("x^4*y^2", SYM))
        assert out.coeffs == {4: KPoly([2]), 2: KPoly([24, -2]), 0: KPoly([0, -8])}


class TestPhiAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_symbolic(self, seed):
        rng = random.Random(seed)
        t = random_tripoly(rng, SYM)
        assert phi(t) == naive_phi(t)

    @pytest.mark.parametrize("seed", range(6))
    def test_mod_p(self, seed):
        rng = random.Random(100 + seed)
        ring = prime_ring(101, rng.randrange(101))
        t = random_tripoly(rng, ring)
        assert phi(t) == naive_phi(t)

    @pytest.mark.parametrize("seed", range(4))
    def test_symbolic_rational_coefficients(self, seed):
        # non-integer rationals times powers of k: phi clears the common
        # denominator of f before combining integer k-lists
        rng = random.Random(200 + seed)
        t = TriPoly.zero(SYM)
        for _ in range(rng.randint(2, 6)):
            a, b, c = (rng.randint(0, 4) for _ in range(3))
            num = rng.choice([-5, -3, -1, 1, 2, 7])
            coeff = KPoly([0] * rng.randint(0, 3) + [Fraction(num, rng.choice([2, 3, 4, 9, 10]))])
            t = t + TriPoly.monomial(SYM, a, b, c, coeff)
        assert any(c.denominator > 1 for v in t.terms.values() for c in v.coeffs)
        assert phi(t) == naive_phi(t)

    def test_exponent_symmetry(self):
        # the reduction of a monomial depends only on the exponent multiset
        for (l, m, n) in [(2, 3, 1), (4, 0, 2), (1, 1, 5)]:
            vals = {
                tuple(sorted(phi(TriPoly.monomial(SYM, *perm)).coeffs.items()))
                for perm in set(itertools.permutations((l, m, n)))
            }
            assert len(vals) == 1


class TestDegreeParity:
    def test_bounds_and_parity(self):
        for (l, m, n) in itertools.product(range(5), repeat=3):
            out = phi(TriPoly.monomial(SYM, l, m, n))
            bound = max(l, m, n) + min(l, m, n)
            assert out.degree() <= bound
            if l % 2 == m % 2 == n % 2:
                assert out.degree() == bound  # equality over characteristic 0
                assert all(e % 2 == 0 for e in out.coeffs)
            else:
                assert all(e % 2 == 1 for e in out.coeffs)


class TestPhiX:
    def test_vanishing_anchor_at_kappa_zero(self):
        R = prime_ring(1000003, 0)
        f = parse_poly("x*y^4 - x*y^2*z^2 + 1/2*x^3*y^2", R)
        assert phi_x(f).is_zero()

    def test_eigen_variant_vanishes_symbolically(self):
        f = parse_poly("x*y^4 - x*y^2*z^2 + 1/2*x^3*y^2 - 1/2*k*x*y^2", SYM)
        assert phi_x(f).is_zero()

    def test_univariate_passthrough(self):
        g = parse_poly("x^3 - 2*x + 5", SYM)
        res = phi_x(g)
        assert res.xpart.coeffs == {3: KPoly([1]), 1: KPoly([-2]), 0: KPoly([5])}
        assert not res.yzpart

    def test_stuck_monomial(self):
        res = phi_x(parse_poly("y^2*z^2", SYM))
        assert res.xpart.is_zero()
        assert res.yzpart == {(2, 2): KPoly([1])}

    def test_y_degree_dominates(self):
        rng = random.Random(3)
        for _ in range(10):
            t = random_tripoly(rng, SYM)
            res = phi_x(t)
            assert all(b >= c and (b, c) != (0, 0) for (b, c) in res.yzpart)

    def test_phi_factors_through(self):
        rng = random.Random(5)
        for _ in range(8):
            t = random_tripoly(rng, SYM, max_exp=3)
            assert phi(phi_x(t).to_tripoly()) == phi(t)

    def test_degree_bounds(self):
        for (l, m, n) in itertools.product(range(4), repeat=3):
            res = phi_x(TriPoly.monomial(SYM, l, m, n))
            assert res.xpart.degree() <= l + min(m, n)
            assert max((b + c for (b, c) in res.yzpart), default=0) <= m + n


class TestMoveCommutation:
    def test_transpose_commutes_with_reduction(self):
        # swapping two variables before or after reducing gives equal
        # results; exercised through full reductions of swapped monomials
        rng = random.Random(11)
        for _ in range(12):
            t = random_tripoly(rng, SYM, max_terms=3)
            swapped = TriPoly(SYM, {(a, c, b): v for (a, b, c), v in t.terms.items()})
            assert phi(t) == phi(swapped)
            swapped2 = TriPoly(SYM, {(b, a, c): v for (a, b, c), v in t.terms.items()})
            assert phi(t) == phi(swapped2)


class TestCanonicalForm:
    def test_linear_z(self):
        assert canonical_form(parse_poly("z", SYM)) == parse_poly("1/2*x*y", SYM)

    def test_square_z(self):
        expect = parse_poly("1/2*x^2*y^2 - x^2 - y^2 + k", SYM)
        assert canonical_form(parse_poly("z^2", SYM)) == expect

    def test_fixed_point(self):
        f = parse_poly("x^2*y - 3*y^2 + 7", SYM)
        assert canonical_form(f) == f

    @pytest.mark.parametrize("l,m,n", [(1, 2, 3), (0, 0, 4), (2, 1, 1), (3, 0, 2)])
    def test_degrees(self, l, m, n):
        c = canonical_form(TriPoly.monomial(SYM, l, m, n))
        assert max(a for (a, b, _) in c.terms) == l + n
        assert max(b for (a, b, _) in c.terms) == m + n

    def test_reduction_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            t = random_tripoly(rng, SYM, max_exp=3)
            assert phi_x(canonical_form(t)) == phi_x(t)

    def test_high_z_power_has_no_cliff(self):
        # each monomial is expanded once, so z^24 takes well under a second
        t = parse_poly("z^24", SYM)
        start = time.perf_counter()
        c = canonical_form(t)
        assert time.perf_counter() - start < 20
        assert all(e[2] == 0 for e in c.terms)
        assert phi_x(c) == phi_x(t)


class TestTextFormat:
    def test_roundtrip(self):
        texts = [
            "y^4 - y^2*z^2 + 1/2*x^2*y^2",
            "2*x^4 + 24*x^2",
            "k^2*x - 3*k + 7",
            "-x*y*z",
        ]
        for s in texts:
            f = parse_poly(s, SYM)
            g = parse_poly(format_tripoly(f), SYM)
            assert f == g

    def test_reduce_output_format(self):
        R = prime_ring(1000003, 0)
        out = phi(parse_poly("y^4 - y^2*z^2 + 1/2*x^2*y^2", R))
        # the specialized symbolic reduction pins the signed output format
        sym = phi(parse_poly("y^4 - y^2*z^2 + 1/2*x^2*y^2", SYM))
        spec = {e: c(Fraction(0)) for e, c in sym.coeffs.items()}
        assert {e: v for e, v in spec.items() if v} == {4: 1, 2: -3}

    def test_malformed(self):
        # a negative exponent would also slip under the degree bound
        for bad in ("", "x^", "q^2", "3**x", "x^-1"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_poly(bad, SYM)

    def test_degree_bound(self):
        bound = PARSE_DEGREE_BOUND
        assert bound >= 24  # the largest test and README input is z^24
        parse_poly(f"x^{bound - 2}*k^2 + y", SYM)
        for bad in (f"x^{bound}*k", f"1 + y^{bound // 2}*z^{bound // 2 + 1}"):
            with pytest.raises(ResourceWarning):
                parse_poly(bad, SYM)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_phi_linearity(a1, b1, c1, a2, b2, c2):
    f = TriPoly.monomial(SYM, a1, b1, c1, 2)
    g = TriPoly.monomial(SYM, a2, b2, c2, -3)
    assert phi(f + g) == phi(f) + phi(g)


@pytest.mark.parametrize("p", [1, 2, 9, 15])
def test_prime_ring_refuses_non_odd_primes(p):
    with pytest.raises(ValueError):
        prime_ring(p, 1)


@pytest.mark.parametrize("ring", [SYM, prime_ring(103, 5)], ids=["sym", "F_103"])
def test_deep_monomial_within_default_recursion_limit(ring):
    # a fresh reducer walks the whole chain x^1500 y -> 2 x^1499 z -> ...
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        rd = Reducer()
        f = TriPoly.monomial(ring, 1500, 1, 0)
        two = ring.from_int(2**1500)
        assert rd.phi(f) == XPoly(ring, {1: two})
        res = rd.phi_x(f)
        assert res.xpart.is_zero() and res.yzpart == {(1, 0): two}
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def _spec(coeffs, kappa, p):
    """KPoly values specialised at k = kappa mod p, zeros dropped."""
    out = {}
    for e, kp in coeffs.items():
        v = 0
        for c in reversed(kp.coeffs):
            v = (v * kappa + c.numerator * pow(c.denominator, p - 2, p)) % p
        if v:
            out[e] = v
    return out


def test_prime_rings_are_images_of_the_symbolic_memo():
    # one memo over Z[k] serves every ring: after the symbolic reduction, the
    # F_p reductions of the same polynomial add no entry and equal its image
    text = "x^5*y^3*z^2 - 3/2*k*x*y^4*z^3 + 7*y^6*z - k^2*x^2*z^2 + 5"
    rd = Reducer()
    f = parse_poly(text, SYM)
    sym, symx = rd.phi(f), rd.phi_x(f)
    sizes = (len(rd._phi_memo), len(rd._phix_memo))
    for p, kappa in ((5, 2), (13, 0), (101, 7), (103, 100), (1000003, 12345)):
        ring = prime_ring(p, kappa)
        g = parse_poly(text, ring)
        got, gotx = rd.phi(g), rd.phi_x(g)
        assert got.coeffs == _spec(sym.coeffs, kappa, p)
        assert gotx.xpart.coeffs == _spec(symx.xpart.coeffs, kappa, p)
        assert gotx.yzpart == _spec(symx.yzpart, kappa, p)
    assert (len(rd._phi_memo), len(rd._phix_memo)) == sizes


def test_no_per_ring_caches():
    for name in ("_REDUCERS", "_RING_CACHE", "reducer"):
        assert not hasattr(trired, name)
    assert not hasattr(SYM, "key") and not hasattr(prime_ring(7, 3), "key")


P61 = 2**61 - 1


@pytest.mark.parametrize("kappa", [0, 1, (P61 - 1) // 2, (P61 + 1) // 2, P61 - 1])
def test_mersenne_ring_is_the_image_of_the_symbolic_reduction(kappa):
    # the balanced residue of kappa is 0, +1, +(p-1)/2, -(p-1)/2 or -1: both
    # signs, and a 60-bit kappa raised to the k-degree 8 of the output; a
    # fresh reducer packs at exactly the width its first call needs
    text = "x^9*y^8*z^7 - 3/2*k*x*y^4*z^3 + 7*y^6*z - k^2*x^2*z^2 + 5"
    f = parse_poly(text, SYM)
    sym, symx = Reducer().phi(f), Reducer().phi_x(f)
    rd = Reducer()
    g = parse_poly(text, prime_ring(P61, kappa))
    got, gotx = rd.phi(g), rd.phi_x(g)
    assert got.coeffs == _spec(sym.coeffs, kappa, P61)
    assert gotx.xpart.coeffs == _spec(symx.xpart.coeffs, kappa, P61)
    assert gotx.yzpart == _spec(symx.yzpart, kappa, P61)


def test_warm_reducer_widens_for_a_larger_call():
    # a memo packed for a small call is rebuilt wider when a call of degree
    # near the parse bound with a ~2^200 numerator needs it
    small = "x^3*y^2*z - 2*k*y^2*z^2"
    big = (f"{2**200 + 1}/3*x^{PARSE_DEGREE_BOUND - 10}*y^4*z^4"
           " - 5/7*k^2*x^3*y^2*z + x^2*y^2")
    rd = Reducer()
    rd.phi(parse_poly(small, SYM))
    rd.phi_x(parse_poly(small, SYM))
    narrow = rd._bits
    f = parse_poly(big, SYM)
    got, gotx = rd.phi(f), rd.phi_x(f)
    assert rd._bits > narrow
    assert got == Reducer().phi(f) == naive_phi(f)
    assert gotx == Reducer().phi_x(f)
    # the same over F_p: a warm memo first, then the wider need of kappa
    ring = prime_ring(P61, (P61 + 1) // 2)
    rd.phi(parse_poly(small, ring))
    g = parse_poly(big, ring)
    assert rd.phi(g).coeffs == _spec(got.coeffs, ring.kappa, P61)
    assert rd.phi_x(g) == Reducer().phi_x(g)


@pytest.mark.parametrize("bits", [2, 3, 61, 262])
def test_balanced_digits_round_trip(bits):
    top = (1 << (bits - 1)) - 1
    for digits in ([top], [-top], [top, -top, 0, 1, -1, top], [-top, 0, 0, -top],
                   [-(top + 1), 1], [0, 0, top]):
        assert trired._unpack(trired._pack(digits, bits), bits) == digits
    assert trired._unpack(0, bits) == []


def test_columns_pack_the_memo_once(monkeypatch):
    # build_columns reduces its largest polynomial first, so a fresh memo is
    # packed at that polynomial's width, 180 bits at d=5, and the other
    # columns fit it without a rebuild
    from markoffmodp.certify import build_columns

    rd = Reducer()
    monkeypatch.setattr(trired, "_REDUCER", rd)
    rebuilds = []
    fit = Reducer._fit

    def counting_fit(self, bits):
        if bits > self._bits and (self._phi_memo or self._phix_memo):
            rebuilds.append(bits)
        fit(self, bits)

    monkeypatch.setattr(Reducer, "_fit", counting_fit)
    build_columns(5)
    assert len(rebuilds) <= 1
    assert rd._bits == 180
