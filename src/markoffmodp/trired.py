"""Trivariate reduction calculus for sums over Markoff-surface orbits.

Polynomials in x, y, z over either Q[k] (k symbolic) or F_p with k fixed are
rewritten by three kinds of degree-lowering steps:

* a three-variable monomial absorbs one factor of each variable against the
  surface relation:  x^l y^m z^n  ->  x^(l-1) y^(m-1) z^(n-1) (x^2+y^2+z^2-k);
* a two-variable monomial trades a factor of each present variable for twice
  the missing one:   y^m z^n      ->  2 x y^(m-1) z^(n-1)   (and cyclically);
* a one-variable monomial is renamed into x.

`phi` runs this to a univariate polynomial in x.  `phi_x` is the restriction
that never touches the first coordinate (no sigma_x, no renaming of y or z
into x); its output lives in R[x] + R[y,z] with y-degree >= z-degree in every
mixed monomial.  Both are linear and order-independent, and both work over
Z[k] with each coefficient packed as one int, its value at k = 2^B
(Kronecker substitution), B from a proven bound on the coefficients.

`phi` over Q[k] walks f's monomials down the total degree, one packed
coefficient per monomial, with no memo (`_phi_walk`).  `phi` over F_p and
`phi_x` over either ring reduce term by term through one memo of monomial
reductions, filled bottom-up with an explicit stack and shared by every
prime ring, so a corpus reduced over many rings fills it once.  A symbolic
answer is read off the balanced base-2^B digits of the packed sum; an F_p
answer at k = kappa is that sum modulo 2^B minus the balanced residue of
kappa, reduced mod p (`Reducer` states both bounds).

Coefficients live in one of two duck-typed rings, `SYM` (Q[k]) and
`prime_ring(p, kappa)` (F_p).  Each has the constants `zero`, `one`,
`half` and `kappa` (k itself, or its residue) and the flag `is_prime`;
`from_int` and `from_fraction` map a rational into the ring; `norm` brings
the result of Python's +, - and * on ring elements to normal form (the
identity on Q[k], reduction mod p on F_p); and `fmt` renders an element.
`TriPoly` and `XPoly` store only nonzero normal coefficients, so a zero
test is `not c` and equal polynomials compare equal.  Their +, - and *
(by a polynomial) and == raise ValueError when the operands' rings differ;
two prime rings are the same when p and kappa mod p are.

`canonical_form` (the z-free form) is on no program path: the reductions
do not go through it.  The benchmark's traced run wraps it as a span
(`bench/layers.py`), and the tests check it against `phi_x`.

Sums over orbit-invariant sets are preserved by construction; the test suite
checks this exhaustively for small primes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ffield import field
from .rings import KPoly, _fmt_scalar_mono, _join_signed, format_kpoly, frac_mod, power


# ---------------------------------------------------------------------------
# coefficient rings (the protocol is in the module docstring)


class SymbolicRing:
    """Coefficients are polynomials in k over Q (KPoly).  Every KPoly is
    normal, so `norm` is the identity."""

    is_prime = False

    zero = KPoly.zero()
    one = KPoly.const(1)
    kappa = KPoly.var()
    half = KPoly.const(Fraction(1, 2))

    def from_fraction(self, q):
        return KPoly.const(q)

    from_int = from_fraction

    def norm(self, a):
        return a

    def fmt(self, a):
        return format_kpoly(a)


class PrimeRing:
    """Coefficients are ints mod p with the parameter k fixed; p must be an
    odd prime.  `norm` reduces into [0, p), as does `from_int`.  Two rings
    are equal when their p and kappa mod p are."""

    is_prime = True

    def __init__(self, p, kappa):
        field(p)  # raises unless p is an odd prime
        self.p = p
        self.kappa = kappa % p
        self.zero = 0
        self.one = 1 % p
        self.half = pow(2, p - 2, p)

    def norm(self, a):
        return a % self.p

    from_int = norm

    def from_fraction(self, q):
        return frac_mod(q, self.p)

    def fmt(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeRing) and (self.p, self.kappa) == (other.p, other.kappa)

    def __hash__(self):
        return hash((self.p, self.kappa))


SYM = SymbolicRing()


def prime_ring(p, kappa):
    return PrimeRing(p, kappa)


# ---------------------------------------------------------------------------
# trivariate polynomials


def _same_ring(a, b):
    """Refuse two polynomials over different coefficient rings: their
    coefficients are not comparable, and a sum would silently reduce one
    operand's coefficients in the other's ring."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise ValueError("the operands are over different coefficient rings")


def _merge(out, terms, ring):
    """Add each (exponent, coefficient) pair of `terms` into the dict `out`,
    in normal form, dropping an exponent whose sum is zero.  Returns out."""
    norm = ring.norm
    for e, c in terms:
        s = norm(out[e] + c if e in out else c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


class TriPoly:
    """Polynomial in x, y, z with coefficients in `ring`.

    Terms map exponent triples (a, b, c) to nonzero coefficients in the
    ring's normal form.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = _merge({}, terms.items(), ring) if terms else {}

    @staticmethod
    def monomial(ring, a, b, c, coeff=1):
        co = coeff if not isinstance(coeff, (int, Fraction)) else ring.from_fraction(coeff)
        return TriPoly(ring, {(a, b, c): co})

    @staticmethod
    def zero(ring):
        return TriPoly(ring)

    @staticmethod
    def const(ring, c):
        return TriPoly(ring, {(0, 0, 0): ring.from_fraction(c)})

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return TriPoly.const(self.ring, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        _same_ring(self, other)
        t = TriPoly(self.ring)
        t.terms = _merge(dict(self.terms), other.terms.items(), self.ring)
        return t

    __radd__ = __add__

    def __neg__(self):
        return TriPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        r = self.ring
        if isinstance(other, (int, Fraction)):
            other = TriPoly.const(r, other)
        elif not isinstance(other, TriPoly):
            # ring element scalar
            return TriPoly(r, {e: c * other for e, c in self.terms.items()})
        _same_ring(self, other)
        t = TriPoly(r)
        t.terms = _merge({}, (((a1 + a2, b1 + b2, c1 + c2), v1 * v2)
                              for (a1, b1, c1), v1 in self.terms.items()
                              for (a2, b2, c2), v2 in other.terms.items()), r)
        return t

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, TriPoly.const(self.ring, 1))

    def scale_ring(self, c):
        return self.__mul__(c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TriPoly.const(self.ring, other)
        if not isinstance(other, TriPoly):
            return False
        _same_ring(self, other)
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def evaluate(self, x, y, z):
        """Evaluate mod p (PrimeRing only); test oracle for orbit sums."""
        p = self.ring.p
        tot = 0
        for (a, b, c), v in self.terms.items():
            tot += v * pow(x, a, p) * pow(y, b, p) * pow(z, c, p)
        return tot % p

    def __repr__(self):
        return f"TriPoly({format_tripoly(self)})"


def kappa_poly(ring):
    return TriPoly(ring, {(0, 0, 0): ring.kappa})


def x2_minus_kappa(ring):
    return TriPoly(ring, {(2, 0, 0): ring.one, (0, 0, 0): -ring.kappa})


# ---------------------------------------------------------------------------
# univariate output


class XPoly:
    """Univariate polynomial in x over the coefficient ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=None):
        self.ring = ring
        self.coeffs = _merge({}, coeffs.items(), ring) if coeffs else {}

    def degree(self):
        return max(self.coeffs, default=-1)

    def coeff(self, e):
        return self.coeffs.get(e, self.ring.zero)

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return False
        _same_ring(self, other)
        return self.coeffs == other.coeffs

    def __add__(self, other):
        _same_ring(self, other)
        return XPoly(self.ring, _merge(dict(self.coeffs), other.coeffs.items(), self.ring))

    def __sub__(self, other):
        _same_ring(self, other)
        return XPoly(self.ring, _merge(dict(self.coeffs),
                                       ((e, -c) for e, c in other.coeffs.items()), self.ring))

    def scale(self, c):
        r = self.ring
        if isinstance(c, (int, Fraction)):
            c = r.from_fraction(c)
        return XPoly(r, {e: v * c for e, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def fold_mod(self, p):
        """Reduce exponents mod (x^(p+1) - x^2): x^e -> x^(e-(p-1)) for e > p."""
        def fold(e):
            while e > p:
                e -= p - 1
            return e

        return XPoly(self.ring, _merge({}, ((fold(e), c) for e, c in self.coeffs.items()),
                                       self.ring))

    def to_tripoly(self):
        return TriPoly(self.ring, {(e, 0, 0): c for e, c in self.coeffs.items()})

    def __repr__(self):
        return f"XPoly({format_xpoly(self)})"


class PhiXResult:
    """Output of phi_x: an x-part plus a pure y,z part (y-degree >= z-degree)."""

    __slots__ = ("xpart", "yzpart")

    def __init__(self, xpart, yzpart):
        self.xpart = xpart
        self.yzpart = yzpart  # dict (b, c) -> coeff, b >= c, (0,0) never present

    def __eq__(self, other):
        return (
            isinstance(other, PhiXResult)
            and self.xpart == other.xpart
            and self.yzpart == other.yzpart
        )

    def is_zero(self):
        return self.xpart.is_zero() and not self.yzpart

    def to_tripoly(self):
        ring = self.xpart.ring
        t = TriPoly(ring, {(e, 0, 0): c for e, c in self.xpart.coeffs.items()})
        return t + TriPoly(ring, {(0, b, c): v for (b, c), v in self.yzpart.items()})

    def __repr__(self):
        return f"PhiXResult({format_tripoly(self.to_tripoly())})"


# ---------------------------------------------------------------------------
# canonical (z-free) form


def canonical_form(f):
    """Replace z via the surface relation: z^2 -> xyz - x^2 - y^2 + k, then
    the leftover linear z by xy/2 (the average of the two z-roots).

    The result is z-free and reduces identically under phi_x.  The terms are
    drained one z-degree at a time, top level first, so every x^a y^b z^c
    is expanded once, however many rewrites reach it.  Only the benchmark
    span (`bench/layers.py`) and the tests, against `phi_x`, call it.
    """
    r = f.ring
    top = max((c for (_, _, c) in f.terms), default=0)
    levels = [{} for _ in range(top + 1)]  # z-degree -> {(a, b): coeff}
    for (a, b, c), v in f.terms.items():
        levels[c][(a, b)] = v

    for c in range(top, 0, -1):
        for (a, b), v in levels[c].items():
            if c == 1:
                _merge(levels[0], [((a + 1, b + 1), v * r.half)], r)
            else:
                # z^2 = xyz - x^2 - y^2 + k
                _merge(levels[c - 1], [((a + 1, b + 1), v)], r)
                _merge(levels[c - 2],
                       [((a + 2, b), -v), ((a, b + 2), -v), ((a, b), v * r.kappa)], r)
    return TriPoly(r, {(a, b, 0): v for (a, b), v in levels[0].items()})


# ---------------------------------------------------------------------------
# the reducers


# the reduction steps as exponent shifts: x^l y^m z^n with all three present
# is the sum of the first three shifted monomials minus k times the last;
# x^l y^m alone is twice x^(l-1) y^(m-1) z
_ABSORB = ((1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1))
_TRADE = ((-1, -1, 1),)


def _phi_key(l, m, n):
    """phi is symmetric in the exponents: sort them, largest first."""
    return tuple(sorted((l, m, n), reverse=True))


def _phix_key(l, m, n):
    """Swapping y and z commutes with every phi_x step: y's exponent first."""
    return (l, m, n) if m >= n else (l, n, m)


def _l1_bits(d):
    """A monomial of total degree d reduces to coefficients of l1 norm at
    most 2^_l1_bits(d) = 2^ceil(5d/3), by induction on d: an absorb step
    writes it as three monomials of degree d-1 and one of degree d-3 (times
    k, which keeps the norm), a trade step as twice one of degree d-1, and
    with c = 2^(5/3) both 3/c + 1/c^3 < 1 and 2 < c."""
    return -(-5 * d // 3)


def _pack(coeffs, bits):
    """The int polynomial with little-endian `coeffs`, evaluated at 2^bits."""
    s = 0
    for c in reversed(coeffs):
        s = (s << bits) + c
    return s


def _unpack(s, bits):
    """Inverse of `_pack`: the little-endian digits of s in balanced base
    2^bits, each in [-2^(bits-1), 2^(bits-1)), with no trailing zero."""
    out = []
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    while s:
        d = s & mask
        if d >= half:
            d -= 1 << bits
        out.append(d)
        s = (s - d) >> bits
    return out


def _sym_ints(f):
    """A polynomial f over Q[k] scaled to integers: (den, ints, bits).  den
    is the lcm of the denominators of f's coefficients, ints maps each
    exponent triple of f to its coefficient times den as an int k-list, and
    bits is the width B at which packing the reduction of ints is exact.

    The reduction of a degree-D monomial has l1 norm at most 2^_l1_bits(D),
    so no output coefficient exceeds T = sum_t l1(v_t) * 2^_l1_bits(D_t),
    and B >= bits(T) + 2 makes the balanced base-2^B digits of the packed
    sum the exact coefficients (`_unpack`)."""
    den = lcm(*(c.denominator for v in f.terms.values() for c in v.coeffs))
    ints = {e: [c.numerator * (den // c.denominator) for c in v.coeffs]
            for e, v in f.terms.items()}
    bound = sum(sum(map(abs, v)) << _l1_bits(sum(e)) for e, v in ints.items())
    return den, ints, bound.bit_length() + 2


def _sym_group(ints, norm, bits):
    """Terms that share a normal-form key share one reduction: the int
    k-lists of `ints` packed at k = 2^bits and summed by key."""
    grouped = {}
    for (a, b, c), v in ints.items():
        key = norm(a, b, c)
        grouped[key] = grouped.get(key, 0) + _pack(v, bits)
    return grouped


def _sym_coeffs(sums, den, bits):
    """The packed sums decoded into KPolys over `den`.  An integral f
    (den = 1) reduces to int coefficients, so integer columns never pass
    through Fraction."""
    return {e: KPoly(_unpack(s, bits) if den == 1
                     else [Fraction(c, den) for c in _unpack(s, bits)])
            for e, s in sums.items() if s}


def _phi_walk(f):
    """phi of f over Q[k] by one walk down the total degree, with no memo.

    f's terms are grouped by `_phi_key` as ints packed at k = 2^B, B from
    `_sym_ints`.  Every step lowers the total degree, so once the
    monomials of degree D have been popped, no later step reaches them:
    a final key goes to the output, a trade step adds twice its sum to its
    one child, and an absorb step adds its sum to its three children of
    degree D-1 and subtracts it times k (`<< B`) from its child of degree
    D-3.  Each monomial carries one packed Z[k] coefficient, and only the
    last four degree levels are held.

    Packing is a ring homomorphism Z[k] -> Z and the walk decodes no
    intermediate value, so its final sums are the packed values of the
    exact output coefficients, which B decodes (the same integers the memo
    path of `Reducer` forms, at its own B).
    """
    den, ints, bits = _sym_ints(f)
    grouped = _sym_group(ints, _phi_key, bits)
    top = max(map(sum, grouped), default=-1)
    levels = [{} for _ in range(top + 1)]
    for key, s in grouped.items():
        levels[sum(key)][key] = s
    out = {}
    for deg in range(top, -1, -1):
        level, levels[deg] = levels[deg], None
        down = levels[deg - 1] if deg else None
        # the children's `_phi_key`s, ordered by hand: a >= b >= c
        for (a, b, c), s in level.items():
            if not s:
                continue
            if b == 0:
                out[a] = s
            elif c == 0:
                q = (a - 1, b - 1, 1) if b > 1 else (a - 1, 1, 0) if a > 1 else (1, 0, 0)
                down[q] = down.get(q, 0) + (s << 1)
            else:
                for q in ((a + 1, b - 1, c - 1),
                          (a - 1, b + 1, c - 1) if a > b + 1 else (b + 1, a - 1, c - 1),
                          (a - 1, b - 1, c + 1) if b > c + 1
                          else (a - 1, c + 1, b - 1) if a > c + 1 else (c + 1, a - 1, b - 1)):
                    down[q] = down.get(q, 0) + s
                q, three = (a - 1, b - 1, c - 1), levels[deg - 3]
                three[q] = three.get(q, 0) - (s << bits)
    return _sym_coeffs(out, den, bits)


# The smallest width of a rebuilt memo.  A rebuild costs a whole fill, while
# below a few hundred bits per power of k a wider B adds little to each int
# op, so a memo first packed at a few dozen bits jumps to 256 when it first
# has to grow.
MIN_BITS = 256


class Reducer:
    """Shared-memo reduction engine for every coefficient ring.

    `phi` over F_p and `phi_x` over either ring memoize the reduction over
    Z[k] of every monomial they meet, keyed by its exponents in the normal
    form of `_phi_key` or `_phix_key`.  One memo serves every prime ring,
    so a corpus reduced over many rings fills it once.  A value maps output
    exponent triples to one int, the Z[k] coefficient at k = 2^B (Kronecker
    substitution): the steps are int adds, a doubling and one `<< B` for
    the factor k, and never divide.

    `phi` over Q[k] reads no memo.  It walks f's monomials down the total
    degree (`_phi_walk`) with B computed per call, so each monomial costs
    one packed add per step rather than one per output monomial, and a
    large symbolic call neither fills nor widens the memo.  Packing is a
    ring homomorphism Z[k] -> Z and neither path decodes an intermediate
    value, so both form the packed values of the same exact output, and
    each decodes it at its own B.

    B comes from a proven bound (`_sym_ints` over Q[k]).  Over F_p, v_t and
    kappa are balanced residues (kh for kappa), and the reduction of a
    degree-D monomial has k-degree at most floor(D/3).  X - kh divides
    R(X) - R(kh), so the packed sum modulo 2^B - kh, taken balanced, is
    R(kh) once |R(kh)| < 2^(B-2) and |kh| < 2^(B-1): B >= bits(T_p) + 2
    and B >= bits(kh) + 2, with T_p = sum_t |v_t| * 2^_l1_bits(D_t) *
    max(1, |kh|)^floor(D_t/3).  R(kh) mod p is the answer.

    The memo's B only grows.  A fresh memo is packed at its first call's
    need; a call that needs more clears both memos and refills them at
    twice its need, and at least MIN_BITS.
    """

    def __init__(self):
        self._bits = 0
        self._phi_memo = {}
        self._phix_memo = {}

    def _fit(self, bits):
        """Make B at least `bits`, clearing the memos built at a smaller B."""
        if bits > self._bits:
            if self._phi_memo or self._phix_memo:
                bits = max(2 * bits, MIN_BITS)
            self._bits = bits
            self._phi_memo.clear()
            self._phix_memo.clear()

    def _mono(self, key, memo, norm):
        """Reduction of the monomial with exponents `key` (in `norm`'s
        normal form), filled into `memo` bottom-up with an explicit stack.

        A key (a, b, c) with a or b zero is final: for phi that is one
        variable renamed into x, for phi_x a power of x or a stuck y^b z^c.
        With c zero, two variables trade for twice the missing one;
        otherwise the monomial absorbs against the surface relation.  Both
        steps lower the degree, so the walk ends.
        """
        hit = memo.get(key)
        if hit is not None:
            return hit
        bits = self._bits
        stack = [key]
        while stack:
            k = stack[-1]
            if k in memo:
                stack.pop()
                continue
            a, b, c = k
            if a == 0 or b == 0:
                memo[k] = {k: 1}
                stack.pop()
                continue
            steps = _TRADE if c == 0 else _ABSORB
            kids = [norm(a + da, b + db, c + dc) for da, db, dc in steps]
            todo = [q for q in kids if q not in memo]
            if todo:
                stack.extend(todo)
                continue
            if c == 0:
                memo[k] = {e: v << 1 for e, v in memo[kids[0]].items()}
            else:
                acc = dict(memo[kids[0]])
                get = acc.get
                for q in kids[1:3]:
                    for e, v in memo[q].items():
                        acc[e] = get(e, 0) + v
                for e, v in memo[kids[3]].items():
                    acc[e] = get(e, 0) - (v << bits)
                if 0 in acc.values():
                    acc = {e: v for e, v in acc.items() if v}
                memo[k] = acc
            stack.pop()
        return memo[key]

    def _reduce(self, f, memo, norm):
        """The sum of v times the reduced x^a y^b z^c over the terms of f, as
        a dict exponent triple -> nonzero element of f's ring."""
        r = f.ring
        if not r.is_prime:
            den, ints, need = _sym_ints(f)
            self._fit(need)
            grouped = _sym_group(ints, norm, self._bits)
        else:
            # the F_p twin of `_sym_ints` and `_sym_group`: group f's
            # balanced residues by key and bound the output (`Reducer`)
            p = r.p
            half = p >> 1
            kh = r.kappa - p if r.kappa > half else r.kappa
            grouped, bound = {}, 0
            for (a, b, c), v in f.terms.items():
                if v > half:
                    v -= p
                d = a + b + c
                bound += (abs(v) << _l1_bits(d)) * max(1, abs(kh)) ** (d // 3)
                key = norm(a, b, c)
                grouped[key] = grouped.get(key, 0) + v
            self._fit(max(bound.bit_length(), abs(kh).bit_length()) + 2)
        bits = self._bits
        acc = {}
        for key, s in grouped.items():
            if s:
                for e, q in self._mono(key, memo, norm).items():
                    acc[e] = acc.get(e, 0) + s * q
        if not r.is_prime:
            return _sym_coeffs(acc, den, bits)
        mod = (1 << bits) - kh
        top = mod >> 1
        out = {}
        for e, s in acc.items():
            s %= mod
            if s > top:
                s -= mod
            s %= p
            if s:
                out[e] = s
        return out

    # -- public reductions

    def phi(self, f):
        """Full reduction to a univariate polynomial in x: the degree walk
        over Q[k], the memo over F_p."""
        if not f.ring.is_prime:
            return XPoly(f.ring, _phi_walk(f))
        out = self._reduce(f, self._phi_memo, _phi_key)
        return XPoly(f.ring, {a: v for (a, _, _), v in out.items()})

    def phi_x(self, f):
        """First-coordinate-preserving reduction into R[x] + R[y,z]; the
        constant belongs to the x-part."""
        xpart, yzpart = {}, {}
        for (a, b, c), v in self._reduce(f, self._phix_memo, _phix_key).items():
            if b == 0:
                xpart[a] = v
            else:
                yzpart[(b, c)] = v
        return PhiXResult(XPoly(f.ring, xpart), yzpart)


_REDUCER = Reducer()


def phi(f):
    return _REDUCER.phi(f)


def phi_x(f):
    return _REDUCER.phi_x(f)


# ---------------------------------------------------------------------------
# text format


# Largest total degree in x, y, z and k of a parsed term.  Timed around
# `cli.main` in a fresh process (shared 2 vCPU Xeon, Python 3.11.7, peak RSS
# from getrusage): `reduce --phi-x` of x^21*y^20*z^19 (degree 60) takes
# 0.17 s and 51 MB with k symbolic and 0.45 s and 222 MB over p = 2^61 - 1
# at kappa = 2^60, whose 60 bits per power of k widen the packed memo.  At
# degree 80, x^27*y^27*z^26 takes 0.8 s and 210 MB symbolic and 3.0 s and
# 1.4 GB over that ring.  `phi` alone takes 0.01 s and 16 MB symbolic (the
# degree walk) at both degrees, and 0.22 s and 123 MB over that ring at
# degree 80; the memo that `phi_x` fills sets the bound.
PARSE_DEGREE_BOUND = 60


def parse_poly(text, ring):
    """Parse `c*x^a*y^b*z^c` terms (k denotes the parameter) into a TriPoly.
    Resource-guarded by PARSE_DEGREE_BOUND."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    out = TriPoly.zero(ring)
    for term in terms:
        if not term or term in "+-":
            raise ValueError(f"malformed term in {text!r}")
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = Fraction(sign)
        exps = {"x": 0, "y": 0, "z": 0, "k": 0}
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"malformed term in {text!r}")
            if factor[0] in exps:
                var = factor[0]
                rest = factor[1:]
                if rest == "":
                    e = 1
                elif rest.startswith("^"):
                    e = int(rest[1:])
                else:
                    raise ValueError(f"bad factor {factor!r}")
                if e < 0:
                    raise ValueError(f"negative exponent in {factor!r}")
                exps[var] += e
            else:
                coeff *= Fraction(factor)
        if sum(exps.values()) > PARSE_DEGREE_BOUND:
            raise ResourceWarning(
                f"term {term!r} exceeds the degree bound {PARSE_DEGREE_BOUND}")
        mono = TriPoly.monomial(ring, exps["x"], exps["y"], exps["z"], coeff)
        if exps["k"]:
            kp = kappa_poly(ring) ** exps["k"]
            mono = mono * kp
        out = out + mono
    return out


def _fmt_coeff_mono(ring, c, body):
    """Render coeff * body, where body may be empty (constant term)."""
    if not ring.is_prime and c.degree > 0:
        cs = f"({ring.fmt(c)})"
        return f"{cs}*{body}" if body else cs
    return _fmt_scalar_mono(ring.fmt(c), body)


def format_xpoly(xp):
    ring = xp.ring
    if xp.is_zero():
        return "0"
    parts = []
    for e in sorted(xp.coeffs, reverse=True):
        body = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        piece = _fmt_coeff_mono(ring, xp.coeffs[e], body)
        parts.append(piece)
    return _join_signed(parts)


def format_tripoly(f):
    """Grammar-compatible rendering: k-polynomial coefficients are
    distributed into separate `c*k^j*...` terms so output re-parses."""
    if f.is_zero():
        return "0"
    ring = f.ring
    keys = sorted(f.terms, key=lambda e: (-(e[0] + e[1] + e[2]), -e[0], -e[1], -e[2]))
    parts = []
    for e in keys:
        a, b, c = e
        vars_body = (
            ([] if a == 0 else [f"x^{a}" if a > 1 else "x"])
            + ([] if b == 0 else [f"y^{b}" if b > 1 else "y"])
            + ([] if c == 0 else [f"z^{c}" if c > 1 else "z"])
        )
        coeff = f.terms[e]
        if ring.is_prime:
            parts.append(_fmt_scalar_mono(str(coeff), "*".join(vars_body)))
            continue
        for j in range(coeff.degree, -1, -1):
            cj = coeff.coeffs[j]
            if cj == 0:
                continue
            body = "*".join(([] if j == 0 else [f"k^{j}" if j > 1 else "k"]) + vars_body)
            parts.append(_fmt_scalar_mono(str(cj), body))
    return _join_signed(parts)
