"""Exact base rings: rationals, polynomials in one variable, cyclotomic
field elements, and fraction-free elimination.

The polynomial variable is called ``k`` throughout (it plays the role of the
surface parameter once polynomials reach the certification layer, but nothing
in this module cares).  Integer polynomials are little-endian int lists (a
tuple where a cache shares it) for the ``ipoly_*`` helpers over Z or F_q,
as `cyclotomic_poly` and `chebyshev_u` return.  `KPoly` is the coefficient
type of the symbolic ring `trired.SYM` (and of the q-vector tables and
`spectral.b_poly`); it has no division, and it stores its int or `Fraction`
coefficients as given, so integer columns stay ints.  The one exact
elimination over Z, `gauss_jordan_ff` (a forward fraction-free sweep that
defers the rescaling of rows it does not touch, then back-substitution at
the non-pivot columns), serves the certificate's minors and the
eigenvalue-2 eigenvector solves.  `power` is the one square-and-multiply
loop, behind `KPoly`, `CycloElem` and `trired.TriPoly` powers.  Every
operation here is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache


def power(x, n, one):
    """x^n by square-and-multiply, with `one` the identity of x's ring.
    A negative n raises ValueError: there is no inverse to take."""
    if n < 0:
        raise ValueError(f"negative power {n}")
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


class KPoly:
    """Dense univariate polynomial over Q: the coefficient type of the
    symbolic ring `trired.SYM`.

    Coefficients are stored little-endian (``coeffs[i]`` multiplies ``k^i``)
    as given, int or Fraction (they compare and hash equal at equal value),
    with no trailing zeros; the zero polynomial has an empty coefficient
    list and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return KPoly([c])

    @staticmethod
    def var():
        return KPoly([0, 1])

    @staticmethod
    def zero():
        return KPoly()

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KPoly.const(other)
        if not isinstance(other, KPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return KPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return KPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return KPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return KPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return KPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, KPoly.const(1))

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, or ring elements."""
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = x * 0 + c if not isinstance(x, (int, Fraction)) else Fraction(c)
            else:
                acc = acc * x + c
        if acc is None:
            return x * 0 if not isinstance(x, (int, Fraction)) else Fraction(0)
        return acc

    def __repr__(self):
        return f"KPoly({format_kpoly(self)!r})"


def format_kpoly(p):
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = "k" if i == 1 else f"k^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# integer polynomials: little-endian int lists over Z or F_q
#
# The lists carry no trailing zeros (the zero polynomial is []); the mod-q
# helpers take a prime q and return coefficients in [0, q).


def ipoly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def ipoly_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return ipoly_trim(out)


def ipoly_scale(a, c):
    return ipoly_trim([v * c for v in a])


def ipoly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ipoly_trim(out)


def ipoly_eval(a, t):
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def ipoly_content(a):
    g = 0
    for c in a:
        g = math.gcd(g, abs(c))
    return g


def ipoly_primitive(a):
    """Primitive associate with positive lead coefficient."""
    a = ipoly_trim(list(a))
    if not a:
        return a
    c = ipoly_content(a)
    if a[-1] < 0:
        c = -c
    return [v // c for v in a]


def ipoly_divexact(a, b):
    """The quotient a / b in Z[k]; ArithmeticError unless b divides a over Z."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            f, r = divmod(rem[i], lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            q[i - db] = f
            for j in range(db):
                rem[i - db + j] -= f * b[j]
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return ipoly_trim(q)


def ipoly_divmod_linear(a, r):
    """Synthetic division by (k - r): (quotient, remainder)."""
    q = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        carry = a[i] + r * carry
        q[i - 1] = carry
    rem = a[0] + r * carry if a else 0
    return ipoly_trim(q), rem


def ipoly_valuation(a, r):
    """(e, a / (k - r)^e) for the largest e with (k - r)^e dividing a;
    e = 0 for the zero polynomial."""
    e = 0
    while a:
        q, rem = ipoly_divmod_linear(a, r)
        if rem:
            break
        a, e = q, e + 1
    return e, a


def sym_lift(v, mod):
    """Symmetric representative of a residue in [0, mod)."""
    return v - mod if v > mod // 2 else v


def crt_step(res, mod, new, q):
    """Coefficientwise CRT: residues `res` mod `mod` (in [0, mod)) and `new`
    mod q, a modulus coprime to `mod` (a prime or a product of primes),
    missing entries of `new` read as 0, combined into residues mod mod*q
    (again in [0, mod*q))."""
    qinv = pow(mod % q, -1, q)
    out = []
    for i, r in enumerate(res):
        s = new[i] if i < len(new) else 0
        out.append(r + mod * ((s - r) % q * qinv % q))
    return out


def frac_mod(c, q):
    """A rational as an element of F_q; its denominator must be a unit."""
    c = Fraction(c)
    if c.denominator % q == 0:
        raise ZeroDivisionError(f"denominator divisible by {q}")
    return c.numerator * pow(c.denominator, q - 2, q) % q


def kpoly_mod(kp, q):
    """A KPoly over Q as an F_q[k] list."""
    return ipoly_trim([frac_mod(c, q) for c in kp.coeffs])


def ipoly_mod(a, q):
    return ipoly_trim([v % q for v in a])


def ipoly_divmod_mod(a, b, q):
    """(quotient, remainder) of a by b over F_q (b with a unit lead
    coefficient), both trimmed, with entries in [0, q)."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], q - 2, q)
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % q
        if c:
            f = quo[i - db] = c * inv % q
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % q
    return ipoly_trim(quo), ipoly_mod(a, q)


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """The m-th cyclotomic polynomial as a tuple of ints, little-endian (a
    tuple because the cache hands the same object to every caller).

    Computed by exact division of t^m - 1 by the lower-order cyclotomics.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = ipoly_divexact(num, cyclotomic_poly(d))
    return tuple(num)


def euler_phi(m):
    out = m
    mm = m
    p = 2
    while p * p <= mm:
        if mm % p == 0:
            out -= out // p
            while mm % p == 0:
                mm //= p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


class CycloElem:
    """Element of Q(zeta_m), reduced mod the m-th cyclotomic polynomial.

    `coords` has length phi(m); coordinate i multiplies zeta^i.  The
    conductor is fixed at construction and mixed-conductor arithmetic is
    rejected.  Oracle, off the certify path, for `spectral.verify_An_eigen`,
    `spectral.lambda_power_sum` (criterion 6), and the integer `g_dn_poly`
    and `chebyshev_u`, which the tests evaluate at each lambda^2.
    """

    __slots__ = ("m", "coords")

    def __init__(self, m, coords):
        self.m = m
        phi = euler_phi(m)
        cs = [Fraction(c) for c in coords]
        if len(cs) > phi:
            cs = _cyclo_reduce(m, cs)
        cs += [Fraction(0)] * (phi - len(cs))
        self.coords = tuple(cs)

    @staticmethod
    def zeta(m, power=1):
        """zeta_m^power."""
        power %= m
        coords = [Fraction(0)] * (power + 1)
        coords[power] = Fraction(1)
        return CycloElem(m, coords)

    @staticmethod
    def from_rational(m, c):
        return CycloElem(m, [Fraction(c)])

    def _check(self, other):
        if self.m != other.m:
            raise ValueError("mixed cyclotomic conductors")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.m, other)
        self._check(other)
        return CycloElem(self.m, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.m, [-a for a in self.coords])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.m, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.m, [a * other for a in self.coords])
        self._check(other)
        a, b = self.coords, other.coords
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return CycloElem(self.m, _cyclo_reduce(self.m, out))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, CycloElem.from_rational(self.m, 1))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.m, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.m == other.m and self.coords == other.coords

    def __hash__(self):
        return hash((self.m, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ArithmeticError("not a rational element")
        return self.coords[0]

    def __repr__(self):
        return f"CycloElem(m={self.m}, {list(self.coords)})"


def _cyclo_reduce(m, coords):
    """Reduce a coefficient list mod the m-th cyclotomic polynomial."""
    mod = cyclotomic_poly(m)
    d = len(mod) - 1
    cs = [Fraction(c) for c in coords]
    for i in range(len(cs) - 1, d - 1, -1):
        c = cs[i]
        if c:
            # subtract c * t^(i-d) * mod
            for j, mc in enumerate(mod):
                cs[i - d + j] -= c * mc
        cs.pop()
    return cs


def chebyshev_u(n):
    """Trace-order factor polynomial u_n, as an int list in x^2.

    Built from the rescaled second-kind recursion U_0(x/2)=1, U_1(x/2)=x,
    U_{j+1}(x/2) = x*U_j(x/2) - U_{j-1}(x/2); odd n takes U_{n-1}(x/2)
    directly and even n takes x*U_{n-1}(x/2), which in both cases is a
    polynomial in x^2.  The returned list is in the variable x^2.  Only
    the test oracle `spectral.g_dn_chebyshev` calls it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # U_{j}(x/2) as coefficient lists in x
    prev = [1]
    cur = [0, 1]
    for _ in range(n - 2):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    u = prev if n == 1 else cur
    if n % 2 == 0:
        u = [0] + u
    # now u is even in x: coefficients at odd indices vanish
    if any(u[1::2]):
        raise ArithmeticError(f"u_{n} has an odd power of x")
    return u[0::2]


# ---------------------------------------------------------------------------
# fraction-free elimination


def gauss_jordan_ff(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix with at
    least as many columns as rows, by row swaps only, with pivots taken in
    column order.

    Returns None when the rank is below the row count.  Otherwise returns
    (sign, D, pivots, live, a): the final matrix is D times the reduced row
    echelon form of the row-swapped matrix, where D is the determinant of
    its pivot columns and sign that of the swaps; pivots[i] is the pivot
    column of row i, and a[i] holds row i at the non-pivot columns `live`.

    Method: one forward Bareiss sweep (Bareiss 1968) over the rows below
    each pivot, then back-substitution at the live columns only (Nakos,
    Turner & Williams 1997).  After step k, with pivots p_0 .. p_k in
    columns c_0 .. c_k, the entry of a row i below at column j is the minor
    on rows 0..k, i and columns c_0..c_k, j, so each division by p_(k-1)
    is exact.  A row whose multiplier is zero is not touched: it keeps the
    pivot s it was last current at, and its true entries are the stored
    ones times p/s, p the current pivot, because the factors p_k/p_(k-1)
    telescope.  Its next update divides by s in place of p_(k-1), which
    folds the catch-up in, and a row that becomes the pivot row is brought
    up to date by x*p // s.  The pivot rows form U = L*A, A the row-swapped
    matrix and L lower triangular, with diagonal p_0 .. p_(m-1) and
    D = p_(m-1).  For a live column j, y = D*x solves U_P y = D*U[:, j]
    upward, U_P the pivot columns of U and x column j of the reduced form;
    y is an integer vector by Cramer's rule (D is the determinant of A at
    the pivot columns), so every division is exact, and a remainder raises
    ArithmeticError.
    """
    m = len(rows)
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    stamp = [1] * m  # row i's true entries are its stored ones times prev / stamp[i]
    pivots = []
    sign, prev, c = 1, 1, 0
    for k in range(m):
        while True:  # columns left of c are zero in every row >= k
            if c == n:
                return None
            i = next((i for i in range(k, m) if a[i][c]), None)
            if i is not None:
                break
            c += 1
        if i != k:
            a[i], a[k] = a[k], a[i]
            stamp[i], stamp[k] = stamp[k], stamp[i]
            sign = -sign
        rk = a[k]
        if stamp[k] != prev:
            rk[c:] = [x * prev // stamp[k] for x in rk[c:]]
        p = rk[c]
        tail = rk[c + 1:]
        for i in range(k + 1, m):
            ri = a[i]
            f = ri[c]
            if f:
                s = stamp[i]
                ri[c + 1:] = [(p * x - f * y) // s for x, y in zip(ri[c + 1:], tail)]
                stamp[i] = p
        pivots.append(c)
        prev = p
        c += 1
    D = prev
    piv = set(pivots)
    live = [j for j in range(n) if j not in piv]
    out = [[0] * len(live) for _ in range(m)]
    for jj, j in enumerate(live):
        top = bisect_left(pivots, j)  # y_i = 0 below: U is zero there at j
        for i in range(top - 1, -1, -1):
            ri = a[i]
            acc = D * ri[j]
            for i2 in range(i + 1, top):
                u = ri[pivots[i2]]
                if u:
                    acc -= u * out[i2][jj]
            y, rem = divmod(acc, ri[pivots[i]])
            if rem:
                raise ArithmeticError("back-substitution remainder: the elimination is not exact")
            out[i][jj] = y
    return sign, D, tuple(pivots), live, out
