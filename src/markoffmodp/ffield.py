"""Prime fields, quadratic extensions, the rotation order, and row
reduction over F_p.

Values in F_p are plain ints in [0, p); the quadratic extension F_p^2 is
represented as pairs a + b*sqrt(r) for a fixed nonresidue r.  The rotation
order of alpha is the multiplicative order of a root zeta of
t^2 - alpha*t + 1 = 0, adjusted to be even (replacing zeta by -zeta flips
the sign of alpha, which the definition allows).
"""

from __future__ import annotations

from functools import lru_cache


# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to
# the twelve bases of `is_prime` (Sorenson & Webster, "Strong pseudoprimes
# to twelve prime bases", 2015): below it `is_prime` is a proof
PROVEN_PRIME_BOUND = 318665857834031151167461


def is_prime(n):
    """Miller-Rabin to the twelve prime bases 2, 3, ..., 37.

    That proves primality only below PROVEN_PRIME_BOUND (psi_12, about
    3.18e23); above it a True is probabilistic, and psi_12 itself passes.
    Certify and recheck therefore book a prime only below the bound and
    never trust a True above it.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
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


def factorize(n):
    """Prime factorization by trial division; dict prime -> exponent."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimeField:
    """F_p context: quadratic character, square roots, rotation orders."""

    def __init__(self, p):
        if p == 2 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        self._nonresidue = None

    def quad_char(self, a):
        """chi(a): 0 if a == 0, 1 for nonzero squares, -1 otherwise."""
        a %= self.p
        if a == 0:
            return 0
        e = pow(a, (self.p - 1) // 2, self.p)
        return 1 if e == 1 else -1

    def sqrt(self, a):
        """Tonelli-Shanks square root, or None when chi(a) == -1.

        Of the two roots the numerically smaller representative is returned,
        so results are deterministic.
        """
        p = self.p
        a %= p
        if a == 0:
            return 0
        if self.quad_char(a) == -1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
            return min(r, p - r)
        # Tonelli-Shanks
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = self.nonresidue()
        m = s
        c = pow(z, q, p)
        t = pow(a, q, p)
        r = pow(a, (q + 1) // 2, p)
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m = i
            c = b * b % p
            t = t * c % p
            r = r * b % p
        return min(r, p - r)

    def nonresidue(self):
        """Smallest positive quadratic nonresidue (fixed per field)."""
        if self._nonresidue is None:
            r = 2
            while self.quad_char(r) != -1:
                r += 1
            self._nonresidue = r
        return self._nonresidue

    def inv(self, a):
        return pow(a % self.p, self.p - 2, self.p)

    def ext_element(self, a, b=0):
        return Fp2(self, a, b)

    def _mult_order(self, elem, group_order):
        """Multiplicative order of elem (int or Fp2) dividing group_order."""
        order = group_order
        for q in factorize(group_order):
            while order % q == 0 and _pow_any(elem, order // q, self.p) == _one_like(elem, self):
                order //= q
        return order

    def root_order(self, alpha):
        """Multiplicative order of a root of t^2 - alpha*t + 1 = 0.

        The root lives in F_p when alpha^2 - 4 is a square and in F_p^2
        otherwise; both roots have the same order (they are inverses).
        """
        p = self.p
        alpha %= p
        disc = (alpha * alpha - 4) % p
        chi = self.quad_char(disc)
        if chi >= 0:
            s = self.sqrt(disc)
            zeta = (alpha + s) * self.inv(2) % p
            if zeta == 0:
                # alpha^2 = 4 and p | alpha... cannot happen for p odd
                raise ArithmeticError("degenerate quadratic root")
            return self._mult_order(zeta, p - 1)
        c = self.sqrt(disc * self.inv(self.nonresidue()) % p)
        zeta = Fp2(self, alpha * self.inv(2) % p, c * self.inv(2) % p)
        return self._mult_order(zeta, p + 1)

    def rotation_order(self, alpha):
        """Even multiplicative order of zeta with zeta + 1/zeta = +-alpha.

        If the order k of the root for alpha is odd, -zeta (which pairs
        with -alpha) has order 2k.
        """
        k = self.root_order(alpha)
        return k if k % 2 == 0 else 2 * k


def _pow_any(elem, n, p):
    if isinstance(elem, Fp2):
        return elem ** n
    return pow(elem, n, p)


def _one_like(elem, field):
    if isinstance(elem, Fp2):
        return Fp2(field, 1, 0)
    return 1


class Fp2:
    """a + b*sqrt(r) over F_p, with r the field's fixed nonresidue."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b=0):
        self.field = field
        self.a = a % field.p
        self.b = b % field.p

    def __eq__(self, other):
        if isinstance(other, int):
            other = Fp2(self.field, other)
        return isinstance(other, Fp2) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        if isinstance(other, int):
            other = Fp2(self.field, other)
        return Fp2(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Fp2(self.field, other)
        return Fp2(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Fp2(self.field, -self.a, -self.b)

    def __mul__(self, other):
        p = self.field.p
        if isinstance(other, int):
            return Fp2(self.field, self.a * other, self.b * other)
        r = self.field.nonresidue()
        return Fp2(
            self.field,
            (self.a * other.a + self.b * other.b % p * r) % p,
            (self.a * other.b + self.b * other.a) % p,
        )

    __rmul__ = __mul__

    def inverse(self):
        p = self.field.p
        r = self.field.nonresidue()
        norm = (self.a * self.a - self.b * self.b % p * r) % p
        ninv = self.field.inv(norm)
        return Fp2(self.field, self.a * ninv, -self.b * ninv)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Fp2(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"Fp2({self.a} + {self.b}*sqrt{self.field.nonresidue()} mod {self.field.p})"


@lru_cache(maxsize=None)
def field(p):
    return PrimeField(p)


def rref_mod(rows, p):
    """Reduced row echelon form over F_p (Gauss-Jordan).

    Returns (reduced, pivots, det): the nonzero rows of the reduced form,
    the pivot column of each, and for square input the determinant mod p
    (None otherwise).  The pivots are the lexicographically first set of
    independent columns.
    """
    mat = [[v % p for v in r] for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            det = -det
        lead = mat[r][c]
        det = det * lead % p
        inv = pow(lead, p - 2, p)
        row = mat[r] = [v * inv % p for v in mat[r]]
        for i in range(nrows):
            f = mat[i][c]
            if f and i != r:
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], row)]
        pivots.append(c)
    if nrows != ncols:
        det = None
    elif len(pivots) < nrows:
        det = 0
    return mat[: len(pivots)], pivots, det
