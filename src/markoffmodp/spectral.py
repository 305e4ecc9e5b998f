"""Structured basis, transfer matrices, eigen data, and the q-vector family.

The graded basis attaches to each level i the monomials
(x^2 - k)^(n-i) y^j z^k with j + k = 2i, j >= k; multiplying by x and
reducing acts on coefficient vectors through an almost block diagonal
integer matrix.  Its eigenvalue-2 generalized eigenvectors drive the exact
q-vector computations (each chain step is one fraction-free elimination
over Z, `rings.gauss_jordan_ff`); its other eigenvalues are sums of roots
of unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .ffield import field, rref_mod
from .rings import (
    CycloElem,
    KPoly,
    chebyshev_u,
    cyclotomic_poly,
    euler_phi,
    gauss_jordan_ff,
    ipoly_add,
    ipoly_eval,
    ipoly_mod,
    ipoly_mul,
    kpoly_mod,
)
from .trired import (
    SYM,
    TriPoly,
    XPoly,
    phi,
    prime_ring,
    x2_minus_kappa,
)


def comb_g(m, r):
    """Generalized binomial coefficient with integer top (for
    `gen_form_prediction`)."""
    if r < 0:
        return 0
    if m >= 0:
        return comb(m, r) if m >= r else (1 if r == 0 else 0)
    return (-1) ** r * comb(r - m - 1, r)


# ---------------------------------------------------------------------------
# basis and transfer matrices


def bn_basis(n):
    """Ordered exponent descriptors (i, j, k): level i holds y^j z^k with
    j + k = 2i, j >= k; levels run from n down to 0."""
    out = []
    for i in range(n, -1, -1):
        for k in range(i + 1):
            out.append((i, 2 * i - k, k))
    return out


def bn_dim(n):
    return (n * n + 3 * n + 2) // 2


def build_An(i):
    """Level-i block: integer (i+1) x (i+1) matrix."""
    if i == 0:
        return [[2]]
    m = [[0] * (i + 1) for _ in range(i + 1)]
    m[1][0] = 2
    for c in range(1, i):
        m[c - 1][c] += 1
        m[c + 1][c] += 1
    m[i - 1][i] += 2
    return m


def build_Bn(i):
    """Down-coupling block: i x (i+1), a zero column then the identity."""
    m = [[0] * (i + 1) for _ in range(i)]
    for r in range(i):
        m[r][r + 1] = 1
    return m


def build_Mn(n):
    """Assemble the full transfer matrix, dimension (n^2+3n+2)/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    dim = bn_dim(n)
    M = [[0] * dim for _ in range(dim)]
    offsets = {}
    pos = 0
    for i in range(n, -1, -1):
        offsets[i] = pos
        pos += i + 1
    for i in range(n, -1, -1):
        A = build_An(i)
        o = offsets[i]
        for r in range(i + 1):
            for c in range(i + 1):
                if A[r][c]:
                    M[o + r][o + c] = A[r][c]
        if i >= 1:
            B = build_Bn(i)
            od = offsets[i - 1]
            for r in range(i):
                for c in range(i + 1):
                    if B[r][c]:
                        M[od + r][o + c] = B[r][c]
    return M


def poly_from_bn_vector(ring, n, vec):
    """The polynomial corresponding to a coefficient vector over bn_basis."""
    basis = bn_basis(n)
    if len(vec) != len(basis):
        raise ValueError("vector length does not match the basis")
    out = TriPoly.zero(ring)
    base = x2_minus_kappa(ring)
    powers = {0: TriPoly.const(ring, 1)}
    for e in range(1, n + 1):
        powers[e] = powers[e - 1] * base
    for (i, j, k), c in zip(basis, vec):
        coeff = ring.from_fraction(c) if isinstance(c, (int, Fraction)) else c
        if not coeff:
            continue
        mono = TriPoly.monomial(ring, 0, j, k) * powers[n - i]
        out = out + mono.scale_ring(coeff)
    return out


def mat_vec(M, v):
    out = []
    for row in M:
        acc = 0
        for a, b in zip(row, v):
            if a:
                acc += a * b
        out.append(acc)
    return out


def verify_An_eigen(n, zeta):
    """Check the level-n block eigen identity for zeta a 2n-th root of unity.

    The eigenvector is (1, zeta + 1/zeta, ..., zeta^(n-1) + zeta^(1-n),
    zeta^n) with eigenvalue zeta + 1/zeta, exactly over the cyclotomic field.
    """
    if not isinstance(zeta, CycloElem):
        raise TypeError("zeta must be a CycloElem")
    if n < 1:
        raise ValueError("the level n must be >= 1")
    if not (zeta ** (2 * n)) == 1:
        raise ValueError("zeta is not a 2n-th root of unity")
    zinv = zeta ** (2 * n - 1)  # 1/zeta, as zeta^(2n) = 1
    vec = [CycloElem.from_rational(zeta.m, 1)]
    for i in range(1, n):
        vec.append(zeta**i + zinv**i)
    vec.append(zeta**n)
    lam = zeta + zinv
    A = build_An(n)
    for r in range(n + 1):
        acc = CycloElem.from_rational(zeta.m, 0)
        for c in range(n + 1):
            if A[r][c]:
                acc = acc + vec[c] * A[r][c]
        if not acc == lam * vec[r]:
            return False
    return True


# ---------------------------------------------------------------------------
# rotation classes and the column polynomials


def rotation_order_of_unity(plain_order):
    """Even-order convention applied to a root of unity's plain order."""
    return plain_order if plain_order % 2 == 0 else 2 * plain_order


def lambda_classes(d, n):
    """Sign classes {+-lambda} in the level-n set with order divisible by 2d.

    Class representatives are indices j in 1..floor(n/2): lambda_j is
    zeta^j + zeta^-j for zeta a primitive 2n-th root of unity (j and n - j
    give opposite signs).  Returns (good_reps, bad_reps, printed_count)
    where printed_count is the ceil-quarter-phi-sum estimate (None when
    d does not divide n).
    """
    good, bad = [], []
    for j in range(1, n // 2 + 1):
        plain = 2 * n // gcd(j, 2 * n)
        rot = rotation_order_of_unity(plain)
        (good if rot % (2 * d) == 0 else bad).append(j)
    printed = None
    if d >= 1 and n % d == 0:
        total = 0
        nd = n // d
        for dt in range(1, nd + 1):
            if nd % dt == 0:
                total += euler_phi(2 * n // dt)
        printed = -(-total // 4)
    return good, bad, printed


def g_dn_poly(d, n):
    """Even integer polynomial, as an int list in t = x^2, vanishing exactly
    on the bad sign classes at level n: the product G of x - lambda_j over
    the j in 1..n-1 whose lambda_j has order not divisible by 2d, times x
    when G is odd.

    Built over Z: the lambda_j of plain order m are the roots of the
    minimal polynomial psi_m of 2cos(2pi/m) (Lehmer 1933), and
    t^(phi(m)/2) psi_m(t + 1/t) = Phi_m(t).  So the product P of the
    cyclotomic Phi_m over the bad orders m | 2n, m >= 3, is t^r G(t + 1/t)
    with 2r = deg P.  G is peeled off P from the top (G_k = P[r+k], less
    G_k t^r (t + 1/t)^k); a nonzero remainder or mixed parity raises
    ArithmeticError."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    P = [1]
    for m in range(3, 2 * n + 1):
        if 2 * n % m == 0 and rotation_order_of_unity(m) % (2 * d):
            P = ipoly_mul(P, cyclotomic_poly(m))
    r = (len(P) - 1) // 2
    G = [0] * (r + 1)
    for k in range(r, -1, -1):
        G[k] = c = P[r + k]
        for i in range(k + 1):
            P[r + k - 2 * i] -= c * comb(k, i)
    if any(P):
        raise ArithmeticError("cyclotomic product is not t^r G(t + 1/t)")
    parity = {e % 2 for e, v in enumerate(G) if v}
    if len(parity) > 1:
        raise ArithmeticError("root product has mixed parity")
    return ([0] + G if parity == {1} else G)[0::2]


def g_dn_chebyshev(d, n):
    """Trace-order shortcut for prime-power d: a (possibly larger) int list
    in t = x^2 whose roots include every bad class at level n.

    With 2n = m * p^b (p not dividing m) the index m * p^(a-1) puts the
    root set at exactly the orders not divisible by 2d when p = 2, and at a
    harmless superset (never touching a good class) when p is odd.  Test
    oracle: both properties are checked against `g_dn_poly`.
    """
    from .ffield import factorize

    fac = factorize(d)
    if len(fac) != 1:
        raise ValueError("shortcut requires a prime power")
    pr, a = next(iter(fac.items()))
    mm = 2 * n
    while mm % pr == 0:
        mm //= pr
    idx = mm * pr ** (a - 1)
    return chebyshev_u(idx)


def fn_poly(ring, n):
    """The level-n kernel-spanning polynomial

        F_n = sum over i of c_i (x^2-4)^i (x^2-k)^(n-i) y^(2i),
        c_i = (-1)^i n/(n+i) binom(n+i, 2i),

    in closed form: by the binomial theorem its coefficient of x^(2s) y^(2i)
    is c_i times the integer k-polynomial
    sum over j + l = s of binom(n-i, j) binom(i, l) (-4)^(i-l) (-k)^(n-i-j),
    whose signs all equal (-1)^(n-s).  No TriPoly product is formed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    binom = [[comb(r, j) for j in range(r + 1)] for r in range(n + 1)]
    terms = {}
    for i in range(n + 1):
        c = Fraction((-1) ** i * n * comb(n + i, 2 * i), n + i)
        if ring.is_prime:
            c = ring.from_fraction(c)
        a = n - i
        for s in range(n + 1):
            kl = [0] * (a + 1)
            for j in range(max(0, s - i), min(a, s) + 1):
                kl[a - j] = binom[a][j] * binom[i][s - j] << 2 * (i - s + j)
            sc = -c if (n - s) % 2 else c
            terms[2 * s, 2 * i, 0] = (
                sc * ipoly_eval(kl, ring.kappa) if ring.is_prime
                else KPoly([Fraction(sc.numerator * v, sc.denominator) if v else 0 for v in kl]))
    return TriPoly(ring, terms)


# ---------------------------------------------------------------------------
# generalized eigenvectors at eigenvalue 2 and the q vectors


def gen_eigen_lambda2(n):
    """Generalized eigenvectors p_0 ... p_n at eigenvalue 2, exactly over Q.

    p_0 is the last standard basis vector; for i >= 1, p_i solves
    (M - 2I) p_i = p_(i-1) with vanishing final coordinate, which pins it
    uniquely.  The stacked matrix A = [M - 2I; e_last] has full column
    rank, so p_i is also the one solution of the integer normal equations
    A^T A x = A^T (L p_(i-1), 0) divided by L, the lcm of the denominators
    of p_(i-1); `gauss_jordan_ff` solves them without fractions.  Verifies
    the defining relations before returning, which catches an inconsistent
    system.  The vectors depend on n alone, so they are solved once per n
    (`_gen_eigen`); each call returns fresh lists.
    """
    return [list(v) for v in _gen_eigen(n)]


@lru_cache(maxsize=None)
def _gen_eigen(n):
    """`gen_eigen_lambda2(n)` as a tuple of tuples, the memo it reads."""
    dim = bn_dim(n)
    M = build_Mn(n)
    A = [[M[r][c] - (2 if r == c else 0) for c in range(dim)] for r in range(dim)]
    A.append([0] * (dim - 1) + [1])
    At = [list(col) for col in zip(*A)]
    normal = [[sum(x * y for x, y in zip(ri, rj)) for rj in At] for ri in At]
    p0 = [Fraction(0)] * dim
    p0[-1] = Fraction(1)
    vecs = [p0]
    for i in range(1, n + 1):
        L = lcm(*(v.denominator for v in vecs[-1]))
        rhs = mat_vec(At, [int(v * L) for v in vecs[-1]] + [0])
        elim = gauss_jordan_ff([row + [b] for row, b in zip(normal, rhs)])
        if elim is None:
            raise ArithmeticError(f"singular normal equations at step {i}")
        _, D, _, _, a = elim
        vecs.append([Fraction(r[0], D * L) for r in a])
    # defining relations, checked exactly
    for i, v in enumerate(vecs):
        mv = mat_vec(M, v)
        target = [2 * a for a in v]
        if i > 0:
            target = [t + b for t, b in zip(target, vecs[i - 1])]
        if mv != target:
            raise ArithmeticError(f"generalized eigen relation failed at {i}")
    return tuple(tuple(v) for v in vecs)


def gen_eigen_poly(ring, i):
    """The polynomial attached to p_i, in its own level-i basis."""
    vecs = gen_eigen_lambda2(i)
    return poly_from_bn_vector(ring, i, vecs[i])


def qn_direct(n, p, kappa=None):
    """The length-(p+1)/2 vector of even coefficients of the reduction of
    (x^2 - x^(p+1)) times the i=n generalized eigen polynomial, with
    exponents folded modulo x^(p+1) - x^2.

    kappa=None computes with the parameter symbolic: entries are integer
    coefficient tuples (polynomials in k over F_p).  Otherwise entries are
    ints mod p.  Resource-guarded by QN_MAX_PRIME.
    """
    field(p)  # raises unless p is an odd prime
    if p > QN_MAX_PRIME:
        raise ResourceWarning(f"p = {p} exceeds the q-vector bound {QN_MAX_PRIME}")
    ring = SYM if kappa is None else prime_ring(p, kappa)
    f = TriPoly(ring, {(2, 0, 0): ring.one, (p + 1, 0, 0): ring.from_int(-1)})
    red = phi(f * gen_eigen_poly(ring, n)).fold_mod(p)
    coeffs = [red.coeff(2 * i) for i in range((p + 1) // 2)]
    return [tuple(kpoly_mod(c, p)) for c in coeffs] if kappa is None else coeffs


# the published coefficient matrices for q_1..q_4: rows give the f_j-side
# and e_j-side combinations (the e side carries an overall 4 - k factor)
_QF_ROWS = [
    [KPoly([-2]), KPoly(), KPoly(), KPoly()],
    [KPoly([-16]), KPoly([2]), KPoly(), KPoly()],
    [KPoly([-120, 6]), KPoly([18, Fraction(3, 2)]), KPoly([-2]), KPoly()],
    [KPoly([-896, 96]), KPoly([144, 8, 1]), KPoly([-20, -3]), KPoly([2])],
]
_QE_ROWS = [
    [KPoly([2]), KPoly(), KPoly(), KPoly()],
    [KPoly([16, -1]), KPoly([2]), KPoly(), KPoly()],
    [KPoly([120, Fraction(-46, 3)]), KPoly([20, Fraction(-4, 3)]), KPoly([Fraction(4, 3)]), KPoly()],
    [
        KPoly([896, Fraction(-7816, 45), Fraction(166, 45)]),
        KPoly([Fraction(2596, 15), Fraction(-967, 45), Fraction(7, 45)]),
        KPoly([Fraction(604, 45), Fraction(-11, 9)]),
        KPoly([Fraction(16, 15)]),
    ],
]


# q_1..q_4 (the eigen polynomials qn_direct reduces, and the rows above)
# have denominators dividing 2^3 3^3 5 7, so they exist mod p from here on
QN_MIN_PRIME = 11

# Largest p for qn_direct and local_determinants (2 vCPU Xeon, Python
# 3.11): at p = 401 `markoff spectral` takes 0.8 s and 47 MB, symbolic q_4
# 2.1 s and 214 MB; p = 1009 takes 3.2 s and 240 MB, p = 10007 over 100 s.
QN_MAX_PRIME = 400


def e_vector(j, p):
    """Unit vector; test oracle for the e-side pairing closed forms."""
    out = [0] * ((p + 1) // 2)
    out[j] = 1
    return out


def f_vector(j, p, kappa):
    """(4-k)^(j+1) * sum_i binom(i,j) e_i / 4^i, over F_p with k fixed: the
    image of `f_vector_sym` at kappa."""
    return [ipoly_eval(c, kappa) % p for c in f_vector_sym(j, p)]


def f_vector_sym(j, p):
    """f_j with the parameter symbolic: entries are k-polynomials mod p."""
    field(p)  # raises unless p is an odd prime
    n = (p + 1) // 2
    inv4 = pow(4, p - 2, p)
    lead = [1]
    for _ in range(j + 1):
        lead = ipoly_mod(ipoly_mul(lead, [4, -1]), p)  # (4 - k)^(j+1)
    out = [[]] * n
    pw = pow(inv4, j, p)
    for i in range(j, n):
        c = comb(i, j) % p * pw % p
        out[i] = [v * c % p for v in lead]
        pw = pw * inv4 % p
    return out


def qn_formula(n, p, kappa=None):
    """q_n assembled from the published e/f combinations (n <= 4 only)."""
    field(p)  # raises unless p is an odd prime
    if not 1 <= n <= 4:
        raise ValueError("closed form is tabulated for n <= 4 only")
    if kappa is not None:
        return [ipoly_eval(c, kappa) % p for c in qn_formula(n, p)]
    acc = [[] for _ in range((p + 1) // 2)]
    for j in range(4):
        cf = kpoly_mod(_QF_ROWS[n - 1][j], p)
        if cf:
            for i, fji in enumerate(f_vector_sym(j, p)):
                acc[i] = ipoly_mod(ipoly_add(acc[i], ipoly_mul(fji, cf)), p)
        ce = kpoly_mod(_QE_ROWS[n - 1][j], p)
        if ce:  # times (4 - k)
            acc[j] = ipoly_mod(ipoly_add(acc[j], ipoly_mul([4, -1], ce)), p)
    return [tuple(a) for a in acc]


# ---------------------------------------------------------------------------
# the y vector family and the pairing determinants


def y_vectors(p, kappa):
    """The constraint vectors that `local_determinants` pairs the q vectors
    with, at (p, kappa): y_kappa, y_p and y_R, entries mod p."""
    from .orbits import x_vector

    field(p)  # raises unless p is an odd prime
    kappa %= p
    if kappa == 4 % p:
        raise ValueError("kappa = 4 is excluded")
    size = (p + 1) // 2
    out = {}
    x0, xk = x_vector(0, p), x_vector(kappa, p)
    out["y_kappa"] = [(2 * a + b) % p for a, b in zip(x0, xk)]
    yp = [0] * size
    yp[size - 1] = pow((4 - kappa) % p, p - 2, p)
    out["y_p"] = yp
    yr = [0] * size
    inner = 0
    for i in range(1, size):
        inner = (inner + pow(comb(2 * i, i), p - 2, p) * pow(kappa, i - 1, p) * pow(i, p - 2, p)) % p
        yr[i] = (-comb(2 * i, i) * inner) % p
    out["y_R"] = yr
    return out


def pair_value(row, col, p):
    return sum(a * b for a, b in zip(row, col)) % p


def local_determinants(p, kappa):
    """Pairing determinants of the q vectors against the y family.

    Returns the 2x2 determinant (q_1, q_2 vs y_R, y_p) and, when kappa is a
    nonsquare, the 3x3 determinant using the corrected third vector
    15(272 + 72k - 3k^2) q_3 - 105(4 + k) q_4 against (y_R, y_p, y_kappa),
    together with their predicted closed forms.  Resource-guarded by
    QN_MAX_PRIME.
    """
    if p > QN_MAX_PRIME:
        raise ResourceWarning(f"p = {p} exceeds the q-vector bound {QN_MAX_PRIME}")
    F = field(p)
    kappa %= p
    if kappa == 4 % p:
        raise ValueError("kappa = 4 is excluded")
    ys = y_vectors(p, kappa)
    q = {n: qn_direct(n, p, kappa) for n in (1, 2, 3, 4)}
    out = {"p": p, "kappa": kappa, "chi_kappa": F.quad_char(kappa)}
    m2 = [
        [pair_value(q[1], ys["y_R"], p), pair_value(q[1], ys["y_p"], p)],
        [pair_value(q[2], ys["y_R"], p), pair_value(q[2], ys["y_p"], p)],
    ]
    out["det2"] = rref_mod(m2, p)[2]
    out["det2_expected"] = (-(8 * pow(3, p - 2, p)) * (4 - kappa)) % p
    if F.quad_char(kappa) == -1:
        c3 = 15 * (272 + 72 * kappa - 3 * kappa * kappa) % p
        c4 = (-105) * (4 + kappa) % p
        q3t = [(c3 * a + c4 * b) % p for a, b in zip(q[3], q[4])]
        m3 = [
            [pair_value(v, ys[w], p) for w in ("y_R", "y_p", "y_kappa")]
            for v in (q[1], q[2], q3t)
        ]
        out["det3"] = rref_mod(m3, p)[2]
        out["det3_expected"] = pow(2, 19, p) * kappa % p
    return out


# ---------------------------------------------------------------------------
# coefficient-formula helpers (series basis and closed sums)


def b_poly(n):
    """Series basis element in t = x^2: sum binom(2i,i) t^(n-i) / (1-2i),
    for `gen_form_prediction` (acceptance criterion 6)."""
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = Fraction(comb(2 * i, i), 1 - 2 * i)
    return KPoly(coeffs)


def series_coeff_halfint(m, i):
    """Coefficient of x^i in the expansion of (1 - 4x)^(m - 1/2); acceptance
    criterion 6 checks `lambda_power_sum` against it."""
    val = Fraction((-4) ** i, 1)
    prod = Fraction(1)
    for t in range(i):
        prod *= Fraction(2 * m - 1 - 2 * t, 2)
    fact = 1
    for t in range(1, i + 1):
        fact *= t
    return val * prod / fact


def lambda_power_sum(n, ell, m):
    """(1/n) * sum of lambda^(2 ell) (lambda^2 - 4)^m over the level-n
    lambda set without +2 (the -2 member stays), exactly; acceptance
    criterion 6 compares it with `series_coeff_halfint`."""
    cond = 2 * n
    z = CycloElem.zeta(cond)
    total = CycloElem.from_rational(cond, 0)
    for j in range(1, n + 1):
        lam = z**j + z ** (cond - j)
        total = total + lam ** (2 * ell) * (lam * lam - 4) ** m
    if not total.is_rational():
        raise ArithmeticError("power sum is not rational")
    return total.rational_value() / n


def gen_form_prediction(n, m):
    """Predicted reduction of x^(2n) y^(2m) up to degree-2m remainders:
    an XPoly over the symbolic ring built from the b-basis; acceptance
    criterion 6 compares it with `phi`."""
    acc = {}
    for i in range(n + 1):
        scal = KPoly.zero()
        for j in range(i + 1):
            c = comb(2 * m + 2 * j, m + j) * comb(m + j, m) * comb_g(m, i - j)
            if c:
                term = KPoly([0] * (i - j) + [c * (-1) ** (i - j)])
                scal = scal + term
        if scal.is_zero():
            continue
        bp = b_poly(n - i)
        for e, bc in enumerate(bp.coeffs):
            if bc:
                cur = acc.get(2 * e, KPoly.zero())
                acc[2 * e] = cur + scal * bc
    return XPoly(SYM, acc)


def eigen_vector_mod(n, lam, p, kappa):
    """Eigenvector of the full transfer matrix mod p for eigenvalue lam,
    with the level-n head (1, lam, z^2 + z^-2, ..., z^n) imposed; z is a
    root of t^2 - lam t + 1 (must lie in F_p).  Test oracle: checked
    against `build_Mn(n)` and `phi_x`."""
    F = field(p)
    disc = (lam * lam - 4) % p
    s = F.sqrt(disc)
    if s is None:
        raise ValueError("root of the head quadratic is not in F_p")
    z = (lam + s) * F.inv(2) % p
    zi = F.inv(z)
    head = [1]
    for i in range(1, n):
        head.append((pow(z, i, p) + pow(zi, i, p)) % p)
    head.append(pow(z, n, p))
    M = build_Mn(n)
    dim = bn_dim(n)
    # unknowns: coordinates n+1 .. dim-1; equations: (M - lam I) v = 0,
    # as an augmented system with the head moved to the right-hand side
    nun = dim - (n + 1)
    rows = []
    for r in range(dim):
        row = [(M[r][c + n + 1] - (lam if (c + n + 1) == r else 0)) % p for c in range(nun)]
        val = 0
        for c in range(n + 1):
            val = (val + (M[r][c] - (lam if c == r else 0)) * head[c]) % p
        rows.append(row + [(-val) % p])
    reduced, pivots, _ = rref_mod(rows, p)
    if pivots and pivots[-1] == nun:
        raise ArithmeticError("inconsistent system")
    if len(pivots) != nun:
        raise ArithmeticError("underdetermined system")
    return head + [r[-1] for r in reduced]
