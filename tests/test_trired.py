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
    format_xpoly,
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
            val = {e: ring.norm(two * c) for e, c in sub.items()}
        else:
            acc = {}
            parts = (
                (mono(l + 1, m - 1, n - 1), ring.one),
                (mono(l - 1, m + 1, n - 1), ring.one),
                (mono(l - 1, m - 1, n + 1), ring.one),
                (mono(l - 1, m - 1, n - 1), ring.norm(-ring.kappa)),
            )
            for sub, mult in parts:
                for e, c in sub.items():
                    s = ring.norm(acc.get(e, ring.zero) + mult * c)
                    if not s:
                        acc.pop(e, None)
                    else:
                        acc[e] = s
            val = acc
        memo[key] = val
        return val

    out = {}
    for (a, b, c), v in f.terms.items():
        for e, q in mono(a, b, c).items():
            s = ring.norm(out.get(e, ring.zero) + v * q)
            if not s:
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

    def test_coefficient_types_follow_the_input(self):
        # an integral f reduces to int coefficients; a rational one to Fraction
        def types(text):
            return {type(c) for v in phi(parse_poly(text, SYM)).coeffs.values() for c in v.coeffs}

        assert types("x^6*y^4*z^2 - 3*x^2*y^2") == {int}
        assert types("x^4*y^2 + 1/2*x^2") == {Fraction}

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


class TestNormalForm:
    # coefficients are stored in the ring's normal form, so equal
    # polynomials compare equal and print alike whatever residues built them
    def test_prime_ring_coefficients_are_reduced(self):
        R = prime_ring(7, 1)
        neg, pos = TriPoly(R, {(1, 0, 0): -1}), TriPoly(R, {(1, 0, 0): 6})
        assert neg == pos and neg.terms == {(1, 0, 0): 6}
        assert format_tripoly(neg) == format_tripoly(pos) == "6*x"
        assert TriPoly(R, {(1, 0, 0): 7, (0, 1, 0): 8}).terms == {(0, 1, 0): 1}
        xneg, xpos = XPoly(R, {1: -1}), XPoly(R, {1: 6})
        assert xneg == xpos and xneg.coeffs == {1: 6}
        assert format_xpoly(xneg) == format_xpoly(xpos) == "6*x"
        assert (-pos).terms == {(1, 0, 0): 1}
        assert (xpos - XPoly(R, {1: 13})).is_zero()

    @pytest.mark.parametrize("p", [7, 101])
    def test_fold_mod_drops_cancelled_coefficients(self, p):
        # x^(p+1) folds onto x^2 and x^(2p) onto x^(p+1), then x^2
        R = prime_ring(p, 3)
        f = XPoly(R, {p + 1: 1, 2: -1, 2 * p: 2, 3: 5})
        assert f.fold_mod(p).coeffs == {2: 2, 3: 5}
        assert XPoly(R, {p + 1: 1, 2: p - 1}).fold_mod(p).is_zero()
        k = KPoly([0, 1])
        g = XPoly(SYM, {p + 1: k, 2: -k, 2 * p: KPoly([1]), 3: KPoly([5])})
        assert g.fold_mod(p) == XPoly(SYM, {2: KPoly([1]), 3: KPoly([5])})
        assert XPoly(SYM, {p + 1: k, 2: -k}).fold_mod(p).is_zero()
        assert XPoly(R, {p: 4, 1: 1}).fold_mod(p).coeffs == {p: 4, 1: 1}


class TestMixedRings:
    # a polynomial's ring is part of its value: operands over different
    # rings are refused in either order, not reduced in the left one's ring
    def test_prime_rings_compare_by_value(self):
        assert prime_ring(7, 1) == prime_ring(7, 8)
        assert hash(prime_ring(7, 1)) == hash(prime_ring(7, 8))
        assert prime_ring(7, 1) != prime_ring(11, 1) and prime_ring(7, 1) != prime_ring(7, 2)
        assert prime_ring(7, 1) != SYM
        a, b = TriPoly(prime_ring(7, 1), {(1, 0, 0): 5}), TriPoly(prime_ring(7, 1), {(1, 0, 0): 12})
        assert a == b and (a + b).terms == {(1, 0, 0): 3}

    @pytest.mark.parametrize("other", [prime_ring(11, 1), prime_ring(7, 2), SYM])
    def test_operators_refuse_a_different_ring(self, other):
        R = prime_ring(7, 1)
        one = SYM.one if other is SYM else 5
        pairs = ((TriPoly(R, {(1, 0, 0): 5}), TriPoly(other, {(1, 0, 0): one})),
                 (XPoly(R, {1: 5}), XPoly(other, {1: one})))
        for a, b in pairs:
            for left, right in ((a, b), (b, a)):
                ops = [lambda: left + right, lambda: left - right, lambda: left == right]
                if isinstance(left, TriPoly):
                    ops.append(lambda: left * right)
                for op in ops:
                    with pytest.raises(ValueError):
                        op()


class TestCanonicalFormOverPrimes:
    # the z-free form over F_p is the symbolic one with k specialised: the
    # half and k terms of the rewrite, and k times a coefficient vanishing
    # at kappa = 0
    def test_square_z(self):
        R0, R3 = prime_ring(11, 0), prime_ring(11, 3)
        assert canonical_form(parse_poly("z^2", R0)) == parse_poly("1/2*x^2*y^2 - x^2 - y^2", R0)
        # z^2 - 3: the constant k - 3 of the rewrite cancels
        assert canonical_form(parse_poly("z^2 - 3", R3)) == parse_poly(
            "1/2*x^2*y^2 - x^2 - y^2", R3)
        assert canonical_form(parse_poly("z", R3)).terms == {(1, 1, 0): 6}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p,kappa", [(13, 0), (13, 5), (101, 0), (101, 77), (2**61 - 1, 2)])
    def test_image_of_the_symbolic_form(self, seed, p, kappa):
        rng = random.Random(300 + seed)
        f = TriPoly.zero(SYM)
        for _ in range(rng.randint(2, 6)):
            a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 5)
            coeff = KPoly([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                           for _ in range(rng.randint(1, 3))])
            f = f + TriPoly.monomial(SYM, a, b, c, coeff)
        ring = prime_ring(p, kappa)
        g = TriPoly(ring, _spec(f.terms, kappa, p))
        got = canonical_form(g)
        assert got.terms == _spec(canonical_form(f).terms, kappa, p)
        assert all(c == 0 for (_, _, c) in got.terms)


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
    # symbolic phi walks the degrees and F_p phi reads the memo, two
    # algorithms, so the specialisation is a cross-check; phi_x reads the
    # memo on both sides.  One memo over Z[k] serves every prime ring: rings
    # after the first add no entry
    text = "x^5*y^3*z^2 - 3/2*k*x*y^4*z^3 + 7*y^6*z - k^2*x^2*z^2 + 5"
    rd = Reducer()
    f = parse_poly(text, SYM)
    sym, symx = rd.phi(f), rd.phi_x(f)
    assert not rd._phi_memo
    sizes = None
    for p, kappa in ((5, 2), (13, 0), (101, 7), (103, 100), (1000003, 12345)):
        ring = prime_ring(p, kappa)
        g = parse_poly(text, ring)
        got, gotx = rd.phi(g), rd.phi_x(g)
        assert got.coeffs == _spec(sym.coeffs, kappa, p)
        assert gotx.xpart.coeffs == _spec(symx.xpart.coeffs, kappa, p)
        assert gotx.yzpart == _spec(symx.yzpart, kappa, p)
        sizes = sizes or (len(rd._phi_memo), len(rd._phix_memo))
        assert (len(rd._phi_memo), len(rd._phix_memo)) == sizes
    assert sizes[0] > 0


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
    # the column reductions are symbolic phi calls, which walk the degrees
    # and read no memo: build_columns leaves a fresh reducer untouched
    from markoffmodp.certify import build_columns

    rd = Reducer()
    monkeypatch.setattr(trired, "_REDUCER", rd)
    build_columns(5)
    assert not rd._phi_memo and not rd._phix_memo
    assert rd._bits == 0


@pytest.mark.parametrize("seed", range(3))
def test_walk_matches_naive_phi_up_to_the_parse_bound(seed):
    # rational coefficients times powers of k, z-heavy terms and a lead term
    # at the parse bound, through the degree walk and the independent
    # reference
    rng = random.Random(300 + seed)
    terms = []
    for top in (PARSE_DEGREE_BOUND, 40, 25, 9):
        kdeg = rng.randint(0, 3)
        c = rng.randint(top // 2, top - kdeg)
        a = rng.randint(0, top - kdeg - c)
        num, den = rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 9, 10])
        terms.append(f"{num}/{den}*k^{kdeg}*x^{a}*y^{top - kdeg - c - a}*z^{c}")
    f = parse_poly(" + ".join(terms), SYM)
    assert max(map(sum, f.terms)) + 3 >= PARSE_DEGREE_BOUND
    assert any(c.denominator > 1 for v in f.terms.values() for c in v.coeffs)
    assert Reducer().phi(f) == naive_phi(f)


def test_symbolic_phi_after_a_wide_prime_ring_keeps_its_width():
    # an F_p phi over 2^61 - 1 at kappa = 2^60 packs the memo wide; a later
    # symbolic phi walks at its own width and neither reads nor widens it
    text = "x^9*y^8*z^7 - 3/2*k*x*y^4*z^3 + 7*y^6*z - k^2*x^2*z^2 + 5"
    rd = Reducer()
    rd.phi(parse_poly(text, prime_ring(P61, 2**60)))
    wide, sizes = rd._bits, len(rd._phi_memo)
    f = parse_poly(text, SYM)
    assert rd.phi(f) == Reducer().phi(f) == naive_phi(f)
    assert (rd._bits, len(rd._phi_memo)) == (wide, sizes)
