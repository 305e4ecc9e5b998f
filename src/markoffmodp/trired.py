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
mixed monomial.  Both are linear and order-independent, so each reduces a
polynomial term by term through one memo of monomial reductions over Z[k],
filled bottom-up with an explicit stack and shared by every ring.  The memo
stores each Z[k] coefficient packed as one int, its value at k = 2^B
(Kronecker substitution), with B from a proven bound on the coefficients.
A symbolic answer is read off the balanced base-2^B digits of the packed
sum; an F_p answer at k = kappa is that sum modulo 2^B minus the balanced
residue of kappa, reduced mod p (`Reducer` states both bounds).

`canonical_form` (the z-free form) is on no program path: the reductions
do not go through it.  The benchmark's traced run wraps it as a span
(`bench/layers.py`), and the tests check it against `phi_x`.

Sums over orbit-invariant sets are preserved by construction; the test suite
checks this exhaustively for small primes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .ffield import field
from .rings import KPoly, frac_mod


# ---------------------------------------------------------------------------
# coefficient rings


class SymbolicRing:
    """Coefficients are polynomials in k over Q (KPoly)."""

    is_prime = False

    zero = KPoly.zero()
    one = KPoly.const(1)
    kappa = KPoly.var()
    half = KPoly.const(Fraction(1, 2))

    def from_fraction(self, q):
        return KPoly.const(q)

    from_int = from_fraction

    def is_zero(self, a):
        return a.is_zero()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def fmt(self, a):
        from .rings import format_kpoly

        return format_kpoly(a)


class PrimeRing:
    """Coefficients are ints mod p with the parameter k fixed; p must be an
    odd prime."""

    is_prime = True

    def __init__(self, p, kappa):
        field(p)  # raises unless p is an odd prime
        self.p = p
        self.kappa = kappa % p
        self.zero = 0
        self.one = 1 % p
        self.half = pow(2, p - 2, p)

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        return frac_mod(q, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def fmt(self, a):
        return str(a % self.p)


SYM = SymbolicRing()


def prime_ring(p, kappa):
    return PrimeRing(p, kappa)


# ---------------------------------------------------------------------------
# trivariate polynomials


class TriPoly:
    """Polynomial in x, y, z with coefficients in `ring`.

    Terms map exponent triples (a, b, c) to nonzero coefficients.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not ring.is_zero(c):
                    self.terms[e] = c

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
        out = dict(self.terms)
        r = self.ring
        for e, c in other.terms.items():
            s = r.add(out.get(e, r.zero), c)
            if r.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        t = TriPoly(r)
        t.terms = out
        return t

    __radd__ = __add__

    def __neg__(self):
        r = self.ring
        t = TriPoly(r)
        t.terms = {e: r.neg(c) for e, c in self.terms.items()}
        return t

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
            t = TriPoly(r)
            for e, c in self.terms.items():
                v = r.mul(c, other)
                if not r.is_zero(v):
                    t.terms[e] = v
            return t
        out = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                prod = r.mul(v1, v2)
                s = r.add(out.get(e, r.zero), prod)
                if r.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        t = TriPoly(r)
        t.terms = out
        return t

    __rmul__ = __mul__

    def __pow__(self, n):
        result = TriPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale_ring(self, c):
        return self.__mul__(c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TriPoly.const(self.ring, other)
        return isinstance(other, TriPoly) and self.terms == other.terms

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
    return TriPoly(ring, {(2, 0, 0): ring.one, (0, 0, 0): ring.neg(ring.kappa)})


# ---------------------------------------------------------------------------
# univariate output


class XPoly:
    """Univariate polynomial in x over the coefficient ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=None):
        self.ring = ring
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if not ring.is_zero(c):
                    self.coeffs[e] = c

    def degree(self):
        return max(self.coeffs, default=-1)

    def coeff(self, e):
        return self.coeffs.get(e, self.ring.zero)

    def __eq__(self, other):
        return isinstance(other, XPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        r = self.ring
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = r.add(out.get(e, r.zero), c)
            if r.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return XPoly(r, out)

    def __sub__(self, other):
        r = self.ring
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = r.sub(out.get(e, r.zero), c)
            if r.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return XPoly(r, out)

    def scale(self, c):
        r = self.ring
        if isinstance(c, (int, Fraction)):
            c = r.from_fraction(c)
        return XPoly(r, {e: r.mul(v, c) for e, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def fold_mod(self, p):
        """Reduce exponents mod (x^(p+1) - x^2): x^e -> x^(e-(p-1)) for e > p."""
        r = self.ring
        out = {}
        for e, c in self.coeffs.items():
            while e > p:
                e -= p - 1
            s = r.add(out.get(e, r.zero), c)
            if r.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return XPoly(r, out)

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

    def bump(d, e, c):
        s = r.add(d.get(e, r.zero), c)
        if r.is_zero(s):
            d.pop(e, None)
        else:
            d[e] = s

    for c in range(top, 0, -1):
        for (a, b), v in levels[c].items():
            if c == 1:
                bump(levels[0], (a + 1, b + 1), r.mul(v, r.half))
            else:
                # z^2 = xyz - x^2 - y^2 + k
                bump(levels[c - 1], (a + 1, b + 1), v)
                bump(levels[c - 2], (a + 2, b), r.neg(v))
                bump(levels[c - 2], (a, b + 2), r.neg(v))
                bump(levels[c - 2], (a, b), r.mul(v, r.kappa))
    g = TriPoly(r)
    g.terms = {(a, b, 0): v for (a, b), v in levels[0].items()}
    return g


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


# The smallest width of a rebuilt memo.  A rebuild costs a whole fill, while
# below a few hundred bits per power of k a wider B adds little to each int
# op, so a memo first packed at a few dozen bits jumps to 256 when it first
# has to grow.
MIN_BITS = 256


class Reducer:
    """Shared-memo reduction engine for every coefficient ring.

    `phi` and `phi_x` each memoize the reduction over Z[k] of every monomial
    they meet, keyed by its exponents in the normal form of `_phi_key` or
    `_phix_key`.  A value maps output exponent triples to one int, the Z[k]
    coefficient at k = 2^B (Kronecker substitution): the steps are int
    adds, a doubling and one `<< B` for the factor k, and never divide.

    B comes from a proven bound.  The reduction of a degree-D monomial has
    l1 norm at most 2^_l1_bits(D) and k-degree at most floor(D/3).  So with
    f's coefficients scaled to int k-lists v_t, no output coefficient
    exceeds T = sum_t l1(v_t) * 2^_l1_bits(D_t), and B >= bits(T) + 2 makes
    the balanced base-2^B digits of the packed sum the exact coefficients.

    Over F_p, v_t and kappa are balanced residues (kh for kappa).  X - kh
    divides R(X) - R(kh), so the packed sum modulo 2^B - kh, taken balanced,
    is R(kh) once |R(kh)| < 2^(B-2) and |kh| < 2^(B-1): B >= bits(T_p) + 2
    and B >= bits(kh) + 2, with T_p = sum_t |v_t| * 2^_l1_bits(D_t) *
    max(1, |kh|)^floor(D_t/3).  R(kh) mod p is the answer.

    B only grows.  A fresh memo is packed at its first call's need; a call
    that needs more clears both memos and refills them at twice its need,
    and at least MIN_BITS.  Callers with many polynomials reduce the largest
    first (`certify.build_columns`) and pack once.
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
        # terms that share a normal-form key share one memo entry: group
        # f's coefficients by key as ints packed at k = 2^B (balanced
        # residues over F_p; over the lcm `den` of the denominators when k
        # is symbolic), and bound the output by the sum over the terms
        grouped = {}
        bound = 0
        if r.is_prime:
            p = r.p
            half = p >> 1
            kh = r.kappa - p if r.kappa > half else r.kappa
            for (a, b, c), v in f.terms.items():
                if v > half:
                    v -= p
                d = a + b + c
                bound += (abs(v) << _l1_bits(d)) * max(1, abs(kh)) ** (d // 3)
                key = norm(a, b, c)
                grouped[key] = grouped.get(key, 0) + v
            self._fit(max(bound.bit_length(), abs(kh).bit_length()) + 2)
        else:
            den = 1
            for v in f.terms.values():
                for c in v.coeffs:
                    den = den * c.denominator // gcd(den, c.denominator)
            ints = {e: [c.numerator * (den // c.denominator) for c in v.coeffs]
                    for e, v in f.terms.items()}
            for e, v in ints.items():
                bound += sum(map(abs, v)) << _l1_bits(sum(e))
            self._fit(bound.bit_length() + 2)
            for (a, b, c), v in ints.items():
                key = norm(a, b, c)
                grouped[key] = grouped.get(key, 0) + _pack(v, self._bits)
        bits = self._bits
        acc = {}
        for key, s in grouped.items():
            if s:
                for e, q in self._mono(key, memo, norm).items():
                    acc[e] = acc.get(e, 0) + s * q
        if not r.is_prime:
            return {e: KPoly([Fraction(c, den) for c in _unpack(s, bits)])
                    for e, s in acc.items() if s}
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
        """Full reduction to a univariate polynomial in x."""
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


# Largest total degree in x, y, z and k of a parsed term.  `reduce --phi-x`
# of x^21*y^20*z^19 (degree 60) takes 0.4 s and 52 MB peak RSS with k
# symbolic, and 0.9 s and 223 MB over p = 2^61 - 1 at a kappa near p/2,
# whose 60 bits per power of k widen the packed memo.  At degree 80,
# x^27*y^27*z^26 takes 1.6 s and 214 MB symbolic and 4.6 s and 1.4 GB over
# that ring; phi alone takes 0.16 s and 32 MB (shared 2 vCPU Xeon, Python
# 3.11.7, peak RSS from getrusage).
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


def _fmt_scalar_mono(cs, body):
    if not body:
        return cs
    if cs == "1":
        return body
    if cs == "-1":
        return f"-{body}"
    return f"{cs}*{body}"


def _join_signed(parts):
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out
