"""Prime fields, the rotation order, and row reduction over F_p.

Values in F_p are plain ints in [0, p).  The rotation order of alpha is the
multiplicative order of a root zeta of t^2 - alpha*t + 1 = 0, adjusted to be
even (replacing zeta by -zeta flips the sign of alpha, which the definition
allows).  zeta may lie in F_p^2, but its order is read off the Lucas
sequence V_k = zeta^k + zeta^-k, which lies in F_p.
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

    def root_order(self, alpha):
        """Multiplicative order of a root zeta of t^2 - alpha*t + 1 = 0.

        zeta lies in F_p when alpha^2 - 4 is a square and in F_p^2
        otherwise, so its order divides N = p - 1 or p + 1.  The order is
        found in F_p: V_k = zeta^k + zeta^-k satisfies
        V_k - 2 = (zeta^k - 1)^2 / zeta^k, so zeta^k = 1 exactly when
        V_k = 2.  Both roots have the same order (they are inverses).
        """
        p = self.p
        alpha %= p
        order = p + 1 if self.quad_char(alpha * alpha - 4) == -1 else p - 1
        for q in factorize(order):
            while order % q == 0 and _lucas_v(alpha, order // q, p) == 2:
                order //= q
        return order

    def rotation_order(self, alpha):
        """Even multiplicative order of zeta with zeta + 1/zeta = +-alpha.

        If the order k of the root for alpha is odd, -zeta (which pairs
        with -alpha) has order 2k.
        """
        k = self.root_order(alpha)
        return k if k % 2 == 0 else 2 * k


def _lucas_v(alpha, k, p):
    """V_k = zeta^k + zeta^-k mod p for zeta + 1/zeta = alpha, by the
    ladder V_2j = V_j^2 - 2, V_2j+1 = V_j*V_j+1 - alpha."""
    v, w = 2, alpha  # (V_j, V_j+1), from j = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w = (v * w - alpha) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - alpha) % p
    return v


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
    field(p)  # raises unless p is an odd prime
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
