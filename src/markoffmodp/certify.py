"""Matrix-rank certification over Z[k].

Pipeline: reduce the column polynomials with k symbolic, store the top
coefficient rows as a matrix over Z[k], extract an element of the ideal
generated by its maximal minors, strip the allowed integer/(k-4) factors,
and check the residual against the target divisor polynomial

    (k-3)^2 (k-2) (k^2 - 5k + 5).

Every certificate is a canonical JSON document with enough recorded data
(column plan, minors, fold trail with each Bezout cofactor) for an
independent recheck that never re-runs the polynomial reductions, and
checks the fold by multiplication and exact division alone.

Integer polynomials in k are handled as little-endian coefficient lists;
sizes are driven by exact evaluation/interpolation (determinants) and by
CRT over word-sized primes (Bezout witnesses, whose images are computed
many primes at a time as int64 rows), with exact final verification in
both cases.

The minors drawn by the rank profile are all maximal minors of one
matrix, so `minor_determinants` eliminates that matrix once per evaluation
point and reads every minor off the result, in place of one Bareiss
elimination per minor and point.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from functools import lru_cache
from itertools import compress, islice

import numpy as np

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

from .ffield import PROVEN_PRIME_BOUND, factorize, field, is_prime, rref_mod
from .rings import (
    KPoly,
    crt_step,
    gauss_jordan_ff,
    ipoly_add,
    ipoly_content,
    ipoly_divexact,
    ipoly_divmod_linear,
    ipoly_divmod_mod,
    ipoly_eval,
    ipoly_mod,
    ipoly_mul,
    ipoly_primitive,
    ipoly_scale,
    ipoly_trim,
    ipoly_valuation,
    sym_lift,
)
from .spectral import fn_poly, g_dn_poly, lambda_classes
from .trired import SYM, TriPoly, phi

# (k-3)^2 (k-2) (k^2 - 5k + 5)
TARGET = ipoly_mul(ipoly_mul([9, -6, 1], [-2, 1]), [5, -5, 1])
SCHEMA_VERSION = 2
MINOR_COUNT = 12  # maximal minors drawn by the rank profile
GCD_MAX_PRIMES = 400
BEZOUT_BATCH = 16  # CRT primes taken between two stability checks
BEZOUT_MAX_PRIMES = 120_000
BEZOUT_CHUNK = 64  # primes per batched Euclid: few wasted past the stop, little overhead
WORD_PRIME_LIMIT = 1 << 31  # the batched Euclid's primes stay below this


# ---------------------------------------------------------------------------
# modular machinery


STREAM_WINDOW = 1 << 15  # integers per sieved window of `_prime_stream`


def _prime_stream():
    """The primes in (2^30, WORD_PRIME_LIMIT), ascending, read off sieved
    windows (below 2^32 every survivor is prime); a stream drawn past the
    last of them raises ArithmeticError.  Every modular gcd and Bezout
    witness reads this one stream."""
    w = (1 << 30) // STREAM_WINDOW  # the window starts at the even 2^30
    while True:
        for q in _window_survivors(w):
            if q >= WORD_PRIME_LIMIT:
                raise ArithmeticError(f"the CRT primes ran out at {WORD_PRIME_LIMIT}")
            yield q
        w += 1


@lru_cache(maxsize=16)
def _window_survivors(w):
    """The integers in [w, w + 1) * STREAM_WINDOW, w >= 1, with no prime
    factor below 2^16 other than themselves, as a tuple; built on first
    use and shared by every stream.  Every composite below 2^32 has such a
    factor, so below 2^32 the survivors are exactly the primes."""
    lo = w * STREAM_WINDOW
    hi = lo + STREAM_WINDOW
    keep = np.ones(STREAM_WINDOW, dtype=bool)
    for p in compress(range(1 << 16), _prime_sieve()):
        if p * p >= hi:
            break
        first = max(p * p, -(-lo // p) * p)  # the first multiple to strike
        keep[first - lo :: p] = False
    return tuple(lo + i for i in np.flatnonzero(keep).tolist())


def modular_gcd(a, b):
    """gcd in Z[k] of two integer polynomials via CRT.

    Returns the primitive gcd, with positive lead.  Candidates are verified
    by exact division, so the result is unconditionally correct.
    """
    if not a:
        return ipoly_primitive(b)
    if not b:
        return ipoly_primitive(a)
    ca, cb = ipoly_content(a), ipoly_content(b)
    ap = [v // ca for v in a]
    bp = [v // cb for v in b]
    best_deg = None
    crt_res = None
    crt_mod = 1
    used = 0
    # scale the monic mod-q image so its integer preimage has leading
    # coefficient dividing gamma (the true gcd's lead divides both leads)
    gamma = math.gcd(abs(ap[-1]), abs(bp[-1]))
    stream = _prime_stream()
    while used < GCD_MAX_PRIMES:
        q = next(stream)
        if ap[-1] % q == 0 or bp[-1] % q == 0:
            continue
        g_q = _gcd_mod_q(ap, bp, q)
        g_q = [v * gamma % q for v in g_q]
        deg = len(g_q) - 1
        if best_deg is None or deg < best_deg:
            best_deg = deg
            crt_res, crt_mod = g_q, q
        elif deg == best_deg:
            crt_res = crt_step(crt_res, crt_mod, g_q, q)
            crt_mod *= q
        else:
            continue  # unlucky prime (degree too high)
        used += 1
        cand = ipoly_primitive([sym_lift(v, crt_mod) for v in crt_res])
        try:
            ipoly_divexact(ap, cand)
            ipoly_divexact(bp, cand)
        except ArithmeticError:
            continue
        return cand
    raise ArithmeticError("modular gcd did not stabilize")


def _gcd_mod_q(a, b, q):
    """Monic gcd mod q, small helper on int lists."""
    aa, bb = ipoly_mod(a, q), ipoly_mod(b, q)
    while bb:
        aa, bb = bb, ipoly_divmod_mod(aa, bb, q)[1]
    inv = pow(aa[-1], q - 2, q)
    return [v * inv % q for v in aa]


# ---------------------------------------------------------------------------
# Bezout witness for a coprime pair, via vectorized CRT


def bezout_witness(A, B):
    """Integer cofactors (u, v, c) with u*A + v*B = c for coprime A, B.

    The images (`_bezout_images`) are those of c = Res(A, B) and of
    u = c * (A^-1 mod B), deg u < deg B; they are taken BEZOUT_BATCH primes
    at a time.  After each group, c alone is lifted from one scalar CRT
    step over the group's product.  Once that lift is nonzero and the same
    as after the group before, u is rebuilt from all the images at once by
    one product-tree CRT (`_crt_rows`), and v = (c - u*A) / B must divide
    exactly: that division is the soundness check, and a remainder (u not
    yet settled, or a c that only looked stable) means more primes.  A
    failed check puts the next rebuild off until the prime count has
    doubled, so a witness rebuilds O(log N) times over N primes, even when
    c settles long before u.

    The triple is then divided by its common integer content and made to
    have c > 0.  For coprime A and B the triples with deg u < deg B are the
    rational multiples of one, so every stopping point that passes the
    check leaves the same primitive triple, whatever primes were used.
    """
    if len(A) - 1 <= 0 or len(B) - 1 <= 0:
        raise ValueError("inputs must have positive degree")
    images = _bezout_images(A, B)
    qs, rows = [], []
    c, mod, last = 0, 1, None  # c's residue mod the product of qs, its last lift
    ready = 0  # the prime count the next rebuild waits for
    while len(qs) < BEZOUT_MAX_PRIMES:
        grp, grp_mod = 0, 1
        for q, row in islice(images, BEZOUT_BATCH):
            qs.append(q)
            rows.append(row)
            grp = crt_step([grp], grp_mod, [int(row[-1])], q)[0]
            grp_mod *= q
        c = crt_step([c], mod, [grp], grp_mod)[0]
        mod *= grp_mod
        lift = sym_lift(c, mod)
        stable, last = lift == last, lift
        if not (stable and lift) or len(qs) < ready:
            continue
        ready = 2 * len(qs)
        u = ipoly_trim([sym_lift(x, mod) for x in _crt_rows(qs, np.array(rows)[:, :-1])])
        try:
            v = ipoly_divexact(ipoly_add([lift], ipoly_scale(ipoly_mul(u, A), -1)), B)
        except ArithmeticError:
            continue
        g = math.gcd(math.gcd(ipoly_content(u), ipoly_content(v)), abs(lift))
        if lift < 0:
            g = -g
        return [x // g for x in u], [x // g for x in v], lift // g
    raise ArithmeticError("bezout witness did not converge")


def _crt_rows(qs, rows):
    """The vector V in [0, M), M = prod(qs), with V = rows[i] mod qs[i]
    entry by entry, for distinct primes qs and int rows of residues.

    V = sum_i t_i * M/q_i mod M, with t_i = rows[i] * s_i mod q_i and
    s_i = (M/q_i)^-1 mod q_i, is taken up the product tree of the q_i: a
    node holds its primes' part of the sum over its own modulus, and a
    parent is left * (right modulus) + right * (left modulus).  Each s_i is
    read off M mod q_i^2 = q_i * (M/q_i mod q_i), taken down the same tree
    with its nodes squared.  Nothing divides by M but the one reduction at
    the end.
    """
    tree = [list(qs)]
    while len(tree[-1]) > 1:
        lv = tree[-1]
        tree.append([x * y for x, y in zip(lv[::2], lv[1::2])] + lv[len(lv) & ~1:])
    M = tree[-1][0]
    rem = [M]
    for lv in reversed(tree[:-1]):
        rem = [rem[i >> 1] % (x * x) for i, x in enumerate(lv)]
    q = np.array(qs, dtype=np.int64)[:, None]
    s = np.array([pow(r // p, -1, p) for r, p in zip(rem, qs)], dtype=np.int64)[:, None]
    cols = (np.asarray(rows, dtype=np.int64) * s % q).T.tolist()  # products below 2^62
    for lv in tree[:-1]:
        cut = len(lv) & ~1
        left, right = lv[0:cut:2], lv[1:cut:2]
        cols = [[a * y + b * x for a, b, x, y in zip(col[0:cut:2], col[1:cut:2], left, right)]
                + col[cut:] for col in cols]
    return [col[0] % M for col in cols]


def _bezout_images(A, B):
    """Yield (q, row) in stream order, over the primes in (2^30, 2^31) that
    divide neither lead and are not unlucky: the stream `modular_gcd`
    uses, so the images depend on A and B alone.  row holds
    `_xgcd_resultant_mod_q(A, B, q)` as one int64 row: the deg B entries of
    u (zero-padded), then r.

    A and B are split into limbs once (`_limbs`), and the images are
    computed BEZOUT_CHUNK primes at a time by `_xgcd_resultant_batch`;
    lanes it flags take the scalar function.  Images past the point where
    the caller stops are never used.  Every prime drawn is below
    WORD_PRIME_LIMIT = 2^31, as the batch requires: `bezout_witness` takes
    at most BEZOUT_MAX_PRIMES = 120k images, the stream runs at most one
    chunk past them, and each skipped prime (one that divides a lead or
    the resultant) takes 30 bits of that product, so a witness draws about
    121k primes at the most, while (2^30, 2^31) holds about 50.7 million.
    """
    limbs, width = _limbs(A + B), len(B) - 1
    stream = _prime_stream()
    while True:
        qs = []
        while len(qs) < BEZOUT_CHUNK:
            q = next(stream)
            if A[-1] % q and B[-1] % q:
                qs.append(q)
        rows, ok = _xgcd_resultant_batch(limbs, len(A) - 1, qs)
        for q, row, good in zip(qs, rows, ok.tolist()):
            if good:
                yield q, row
                continue
            got = _xgcd_resultant_mod_q(A, B, q)
            if got is not None:  # None: unlucky prime, gcd nontrivial mod q
                u, r = got
                yield q, np.array(u + [0] * (width - len(u)) + [r], dtype=np.int64)


def _limbs(P):
    """The integers P as an int64 matrix of 32-bit limbs, one row each,
    least significant first and zero-padded to a common length; every limb
    carries its integer's sign, so P[i] = sum_j L[i, j] * 2^(32 j)."""
    n = max(1, -(-max(abs(x).bit_length() for x in P) // 32))
    buf = b"".join(abs(x).to_bytes(4 * n, "little") for x in P)
    L = np.frombuffer(buf, dtype="<u4").astype(np.int64).reshape(len(P), n)
    return L * np.array([(x > 0) - (x < 0) for x in P], dtype=np.int64)[:, None]


def _residues(limbs, q):
    """limbs (`_limbs`) mod each prime of the column q < 2^31, one row per
    prime, by one Horner pass over the limbs from the top: h < q < 2^31
    keeps h * 2^32 + limb inside int64."""
    h = np.zeros((len(q), len(limbs)), dtype=np.int64)
    for j in range(limbs.shape[1] - 1, -1, -1):
        h = ((h << 32) + limbs[:, j]) % q
    return h


def _xgcd_resultant_batch(limbs, da, qs):
    """`_xgcd_resultant_mod_q(A, B, q)` for many primes q < 2^31 at once,
    one int64 row per prime (products of two residues stay below 2^62),
    from limbs = `_limbs(A + B)` and da = deg A.  The residues of A and B
    come from one int64 Horner pass over the limbs (`_residues`), not from
    one Python big-int remainder per coefficient and prime.

    Every lane runs the pseudo-remainder sequence of A and B along the
    normal degree sequence: the first division takes as many quotient
    terms as it needs, and each later remainder is one degree below its
    divisor.  Fraction-free elimination scales each remainder by a power of
    its divisor's lead; the resultant picks up those powers in a
    denominator, and one inversion per lane at the end removes them.

    Returns (rows, ok): where ok[i], rows[i] is the scalar image at qs[i]
    as deg B entries of u, then r.  A lane whose prime cuts a remainder's
    expected lead leaves the sequence (an unlucky prime, or an abnormal
    degree drop) and is flagged with ok[i] False; its row is garbage.
    """
    if max(qs) >= WORD_PRIME_LIMIT:
        raise ValueError(f"batched primes must stay below {WORD_PRIME_LIMIT}")
    q = np.array(qs, dtype=np.int64)[:, None]
    h = _residues(limbs, q)
    a, b = h[:, : da + 1], h[:, da + 1 :]
    db = len(limbs) - da - 2
    width = db
    ua = np.zeros((len(qs), width), dtype=np.int64)
    ua[:, 0] = 1
    ub = np.zeros_like(ua)
    ok = np.ones(len(qs), dtype=bool)
    one = np.ones_like(q)
    sign, num, den = 1, one, one
    while True:
        lb = b[:, db:]
        r, ur = a, ua
        for top in range(da, db - 1, -1):
            t = r[:, top : top + 1]
            sh = top - db
            r = lb * r
            r[:, sh : top + 1] -= t * b
            r %= q
            ur = lb * ur
            if sh < width:  # else ub's shift is past deg B, so zero in a normal lane
                ur[:, sh:] -= t * ub[:, : width - sh]
            ur %= q
        dr = min(da, db - 1)
        r = r[:, : dr + 1]
        ok &= r[:, dr] != 0
        sign *= (-1) ** (da * db)
        num = num * _pow_rows(lb, da - dr, q) % q
        den = den * _pow_rows(lb, max(da - db + 1, 0) * db, q) % q
        if dr == 0:
            break
        a, b, ua, ub, da, db = b, r, ub, ur, db, dr
    p0 = r
    num = num * _pow_rows(p0, db, q) % q
    # Res = sign * num / den and u = ur * Res / p0: one inverse of den * p0
    dp = (den * p0 % q).ravel().tolist()
    inv = np.array([pow(x, -1, p) if x else 0 for x, p in zip(dp, qs)], dtype=np.int64)[:, None]
    res = num * p0 % q * inv % q
    if sign < 0:
        res = (q - res) % q
    return np.hstack([ur * (res * den % q * inv % q) % q, res]), ok


def _pow_rows(x, e, q):
    """x ** e mod q, elementwise, for one exponent e >= 0."""
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % q
        x = x * x % q
        e >>= 1
    return out


def _xgcd_resultant_mod_q(A, B, q):
    """Extended Euclid mod q with resultant bookkeeping, tracking only the
    cofactor of A.

    Returns (u, r) with r = Res(A, B) mod q, u*A = r modulo q and B, and
    deg u < deg B; or None when the images have a nontrivial gcd mod q
    (an unlucky prime for coprime inputs).
    """
    a = ipoly_trim([x % q for x in A])
    b = ipoly_trim([x % q for x in B])
    da, db = len(a) - 1, len(b) - 1
    # cofactors of A for the current pair (a, b)
    ua, ub = [1], []
    res = 1
    sign = 1
    while True:
        quo, r = ipoly_divmod_mod(a, b, q)
        ur = ipoly_mod(ipoly_add(ua, ipoly_scale(ipoly_mul(quo, ub), -1)), q)
        dr = len(r) - 1
        sign *= (-1) ** (da * db)
        res = res * pow(b[-1], da - max(dr, 0), q) % q
        if not r:
            return None  # nontrivial gcd mod q
        if dr == 0:
            res = res * pow(r[0], db, q) % q
            # scale the cofactor so the combination equals the resultant
            rr = res * sign % q
            s = rr * pow(r[0], q - 2, q) % q
            return [x * s % q for x in ur], rr
        a, b = b, r
        ua, ub = ub, ur
        da, db = db, dr


# ---------------------------------------------------------------------------
# exact minor determinants via evaluation / interpolation


def int_bareiss_det(rows, prev=1):
    """det(rows) / prev^(n-1) for a square integer matrix of size n, by
    fraction-free elimination started from the divisor prev; prev = 1 is
    the determinant.  Every division must be exact, which it is when each
    k x k minor of rows is divisible by prev^(k-1); a remainder raises
    ArithmeticError."""
    n = len(rows)
    if n == 0:
        return prev
    m = [list(r) for r in rows]
    sign = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j], rem = divmod(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
                if rem:
                    raise ArithmeticError("inexact fraction-free division")
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def max_assignment(weights):
    """The largest sum of weights[i][s(i)] over permutations s, with None
    marking a forbidden cell; None when every permutation meets one.

    The Hungarian method with integer potentials (O(n^3)): costs are
    top - weight, and a forbidden cell costs more than any whole assignment
    of allowed cells, so the optimum avoids them whenever it can.
    """
    n = len(weights)
    top = max((w for row in weights for w in row if w is not None), default=0)
    big = (n + 1) * (top + 1)
    cost = [[big if w is None else top - w for w in row] for row in weights]
    u, v = [0] * (n + 1), [0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: the row (1-based) assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            row = cost[match[j0] - 1]
            ui = u[match[j0]]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    picked = [weights[match[j] - 1][j - 1] for j in range(1, n + 1)]
    return None if None in picked else sum(picked)


def minor_determinant(columns, col_idx):
    """det of the square matrix formed by the chosen columns, in Z[k]."""
    return minor_determinants(columns, [col_idx])[0]


def minor_determinants(columns, subsets):
    """det of the square matrix formed by each subset's columns, in Z[k].

    Each column is a list of int-lists (entries down the rows), and each
    subset names as many columns as there are rows.  A term of a
    determinant takes one entry from each row and each column, so its
    degree is at most the best assignment of entry degrees (zero entries
    excluded); each determinant is interpolated exactly through one more
    integer point than that, and is zero outright when every term meets a
    zero entry.

    The points 0, 1, -1, 2, ... are shared: at each one the columns the
    subsets use are evaluated once and eliminated once (`gauss_jordan_ff`),
    and every minor that still needs the point is read off the result
    (`_minor_at`).
    """
    nrows = len(columns[0]) if columns else 0
    bounds = []
    for cols in subsets:
        if len(cols) != nrows:
            raise ValueError(f"{len(cols)} columns for {nrows} rows: the minor is not square")
        bounds.append(max_assignment([[len(columns[j][r]) - 1 if columns[j][r] else None
                                       for j in cols] for r in range(nrows)]))
    bounded = [i for i, b in enumerate(bounds) if b is not None]
    used = sorted({j for i in bounded for j in subsets[i]})
    pos = {i: [used.index(j) for j in subsets[i]] for i in bounded}
    vals = [[] for _ in subsets]
    pts = []
    t = 0
    while True:
        todo = [i for i in bounded if len(vals[i]) <= bounds[i]]
        if not todo:
            break
        rows = [[ipoly_eval(columns[j][r], t) for j in used] for r in range(nrows)]
        elim = gauss_jordan_ff(rows)
        for i in todo:
            # rank below nrows: every maximal minor vanishes
            vals[i].append(0 if elim is None else _minor_at(elim, pos[i]))
        pts.append(t)
        t = -t if t > 0 else -t + 1
    return [[] if b is None else _interpolate_int(pts[: b + 1], v)
            for b, v in zip(bounds, vals)]


def _minor_at(elim, cols):
    """det(M[:, cols]) read off elim = `gauss_jordan_ff(M)`.

    With r of the columns outside the pivot set, the minor is
    sign * s * det(block) / D^(r-1), by Sylvester's identity: block is the
    final matrix at the rows whose pivot is not among cols and at the r
    non-pivot columns of cols, and s is the sign of the permutation that
    sends each column of cols to a row: its pivot row, or else the next of
    the block rows.  Every k x k minor of the block is divisible by
    D^(k-1), so a Bareiss elimination of the block started from the divisor
    D (`int_bareiss_det`) keeps its entries at the size of D and returns
    det(block) / D^(r-1) itself; a block for which a division leaves a
    remainder raises ArithmeticError.
    """
    sign, D, pivots, live, a = elim
    row_of = {c: i for i, c in enumerate(pivots)}
    chosen = set(cols)
    out_rows = [i for i, c in enumerate(pivots) if c not in chosen]
    out_cols = [live.index(c) for c in cols if c not in row_of]
    spare = iter(out_rows)
    perm = [row_of[c] if c in row_of else next(spare) for c in cols]
    seen = [False] * len(perm)
    for start in range(len(perm)):
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if j != start:  # a cycle of length L flips the sign L - 1 times
                sign = -sign
    r = len(out_cols)
    if r == 0:
        return sign * D
    if r == 1:
        return sign * a[out_rows[0]][out_cols[0]]
    return sign * int_bareiss_det([[a[i][j] for j in out_cols] for i in out_rows], D)


def _interpolate_int(pts, vals):
    """The integer polynomial of degree < len(pts) through (pts, vals), by
    Newton interpolation in integers.

    Every divided difference of an integer polynomial at distinct integer
    points is an integer, so each division must be exact; a remainder means
    the values come from no integer polynomial, and raises ArithmeticError.
    """
    n = len(pts)
    coef = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            q, r = divmod(coef[i] - coef[i - 1], pts[i] - pts[i - j])
            if r:
                raise ArithmeticError("non-integer divided difference: no integer interpolant")
            coef[i] = q
    # expand the Newton form: poly = poly * (x - pts[i]) + coef[i]
    poly = [coef[n - 1]]
    for i in range(n - 2, -1, -1):
        t = pts[i]
        new = [0] + poly
        for e, c in enumerate(poly):
            new[e] -= c * t
        new[0] += coef[i]
        poly = new
    return ipoly_trim(poly)


# ---------------------------------------------------------------------------
# column plans and the matrix


def default_nd(d):
    """Largest level used: 6d for a power of 2, 5d for a power of 3, and 4d
    for every other d, prime power or not."""
    primes = set(factorize(d))
    return 6 * d if primes == {2} else 5 * d if primes == {3} else 4 * d


# The paper's largest modulus.  At d = 8, 9, 11 the columns take 2-4 s in a
# fresh process (2-vCPU Xeon, Python 3.11); the minors and the fold take
# the rest.  It also bounds the level bound: default_nd(d) <= 48.
CERTIFY_MAX_D = 11


def build_plan(d):
    """Column plan, one entry per level n with d | 2n up to n_d =
    default_nd(d), with the column count from the enumerated class budget.
    The matrix rows are levels 3..n_d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if d > CERTIFY_MAX_D:
        raise ResourceWarning(f"d = {d} exceeds the certify bound {CERTIFY_MAX_D}")
    step = d if d % 2 == 1 else d // 2
    entries = []
    for n in range(step, default_nd(d) + 1, step):
        good, _, printed = lambda_classes(d, n)
        entry = {"n": n, "m_enum": len(good), "m_printed": printed}
        if n % d:
            # d | 2n but d does not divide n: every class coefficient dies
            entry.update(skipped=True, reason="columns provably zero (d does not divide n)")
        else:
            entry.update(skipped=not good, reason="" if good else "no classes", m_count=len(good))
        entries.append(entry)
    return entries


def _level_base(g, f):
    """(L, terms): L * g(x^2) * f as {exponents: KPoly} over Z[k], for g an
    int list in x^2, with L the least positive integer that makes it
    integral: the denominator of f over its gcd with the product's content."""
    f_den = math.lcm(*(c.denominator for v in f.terms.values() for c in v.coeffs))
    width = max(len(v.coeffs) for v in f.terms.values())
    prod = {}
    for (a, b, _), v in f.terms.items():
        fl = [c.numerator * (f_den // c.denominator) for c in v.coeffs]
        for e, ge in enumerate(g):
            if ge:
                acc = prod.setdefault((a + 2 * e, b, 0), [0] * width)
                for t, c in enumerate(fl):
                    acc[t] += ge * c
    h = math.gcd(f_den, *(c for acc in prod.values() for c in acc))
    return f_den // h, {e: KPoly([c // h for c in acc]) for e, acc in prod.items() if any(acc)}


def build_columns(d):
    """Reduce the polynomials of `build_plan(d)` and return normalized
    integer columns.

    Each live level n has one integer base L * g(x^2) * F_n (`_level_base`,
    g = g_dn_poly(d, n), F_n = fn_poly(SYM, n)); its int KPolys are shared
    by the level's columns x^(2m) * base, and `phi` reduces an integral
    polynomial to int coefficients, so the columns never pass through
    Fraction.  A symbolic `phi` walks its polynomial down the total degree
    and keeps no memo (`trired._phi_walk`), so the columns reduce in plan
    order, each in memory of its own size.

    Returns (columns, records): columns[i] is a list of int-lists (rows
    3..n_d of the reduction's even coefficients, over their content G and
    (k-4)^kappa4), and records are the certificate's "columns" entries.  A
    record's content is (G/h) * (L/h) with h = gcd(G, L): the numerator
    times the denominator of the column's content G/L over Q.
    """
    plan, n_d = build_plan(d), default_nd(d)
    polys = []
    for ent in plan:
        if ent.get("skipped"):
            continue
        n = ent["n"]
        den, base = _level_base(g_dn_poly(d, n), fn_poly(SYM, n))
        for m in range(ent["m_count"]):
            # x^(2m) * base, by shifting exponents
            polys.append((n, m, den, TriPoly(SYM, {(a + 2 * m, b, c): v
                                                   for (a, b, c), v in base.items()})))
    columns, records = [], []
    for n, m, den, f in polys:
        red = phi(f).coeffs
        ints = [list(red[2 * i].coeffs) if 2 * i in red else []
                for i in range(3, n_d + 1)]
        content = math.gcd(*(c for e in ints for c in e))
        if not content:
            records.append({"n": n, "m": m, "skipped": True, "reason": "reduction is zero",
                            "content": "1", "kappa4": 0})
            continue
        k4 = min(ipoly_valuation(e, 4)[0] for e in ints if e)
        norm = [[v // content for v in e] for e in ints]
        for _ in range(k4):
            norm = [ipoly_divmod_linear(e, 4)[0] for e in norm]
        columns.append(norm)
        h = math.gcd(content, den)
        records.append({"n": n, "m": m, "skipped": False, "reason": "",
                        "content": str((content // h) * (den // h)), "kappa4": k4})
    return columns, records


# ---------------------------------------------------------------------------
# fold pipeline


TRIAL_LIMIT = 10**6


@lru_cache(maxsize=1)
def _prime_sieve():
    """bytearray of 0/1 flags, 1 at the primes up to TRIAL_LIMIT; built once."""
    sieve = bytearray([1]) * (TRIAL_LIMIT + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(TRIAL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, TRIAL_LIMIT + 1, i)))
    return sieve


TRIAL_CHUNK = 512  # sieve primes per product in `_trial_divide`


@lru_cache(maxsize=1)
def _prime_chunks():
    """(lo, hi, product of the sieve primes in [lo, hi)) for runs of
    TRIAL_CHUNK consecutive sieve primes, ascending; built once.  Each
    product starts from the int64 products of adjacent primes (below
    TRIAL_LIMIT^2 < 2^40)."""
    primes = np.flatnonzero(np.frombuffer(_prime_sieve(), dtype=np.uint8))
    chunks = []
    for start in range(0, len(primes), TRIAL_CHUNK):
        run = primes[start : start + TRIAL_CHUNK]
        pairs = np.append(run, 1) if len(run) % 2 else run
        chunks.append((int(run[0]), int(run[-1]) + 1, math.prod((pairs[0::2] * pairs[1::2]).tolist())))
    return chunks


def _trial_divide(n):
    """Yield (q, n / (product of the factors so far)) for each sieve prime
    factor q of n, ascending and with multiplicity; stops once the cofactor
    is 1.

    One gcd with each chunk's product decides whether any of its primes
    divides n, so only the chunks that share a factor are scanned."""
    sieve = _prime_sieve()
    for lo, hi, prod in _prime_chunks():
        if n == 1:
            return
        g = math.gcd(n, prod)
        if g == 1:
            continue
        for q in compress(range(lo, hi), sieve[lo:hi]):
            if g % q:
                continue
            while n % q == 0:
                n //= q
                yield q, n


def _is_exempt(q, d):
    """q is congruent to +-1 mod 2d: outside the certified classes."""
    return q % (2 * d) in (1, 2 * d - 1)


def strip_factors(gpoly, d):
    """Split an ideal element into (residual, a, b, exempt, nonexempt, leftover).

    b is the (k-4)-valuation; the integer content is split into its
    2*default_nd(d)-smooth part `a`, primes congruent to +-1 mod 2d (exempt,
    outside the certified congruence classes), and anything else (fatal for
    the verdict).  `leftover` is the cofactor above 1 that trial division
    leaves when it is not proven prime: a composite, or any cofactor at or
    above PROVEN_PRIME_BOUND, whatever its class mod 2d.
    """
    g = ipoly_trim(list(gpoly))
    if not g:
        raise ValueError("zero ideal element")
    b, g = ipoly_valuation(g, 4)
    c = ipoly_content(g)
    if g[-1] < 0:
        g = [-v for v in g]
    g = [v // c for v in g]
    a = 1
    rest = c
    exempt, nonexempt = [], []
    leftover = None
    smooth = 2 * default_nd(d)
    for q, rest in _trial_divide(c):
        if q <= smooth:
            a *= q
        else:
            (exempt if _is_exempt(q, d) else nonexempt).append(q)
    if rest > 1:
        if rest < PROVEN_PRIME_BOUND and is_prime(rest):
            (exempt if _is_exempt(rest, d) else nonexempt).append(rest)
        else:
            leftover = rest
    return g, a, b, sorted(exempt), sorted(nonexempt), leftover


def strip_passes(gpoly, d):
    """The strip gates of `verdict_failures` as a bool: the residual divides
    the target, no prime is non-exempt and nothing is left unfactored (not
    the d < 5 gate, which no further fold could pass).

    Decides by the cheapest test that can: the divisibility, then each
    trial-division prime, and only for a cofactor that is +-1 mod 2d and
    below PROVEN_PRIME_BOUND the primality test (any other cofactor, prime
    or composite, fails anyway).
    """
    _, g = ipoly_valuation(ipoly_trim(list(gpoly)), 4)
    c = ipoly_content(g)
    if not residual_divides_target([v // c for v in g]):
        return False
    rest, smooth = c, 2 * default_nd(d)
    for q, rest in _trial_divide(c):
        if q > smooth and not _is_exempt(q, d):
            return False
    return rest == 1 or (_is_exempt(rest, d) and rest < PROVEN_PRIME_BOUND and is_prime(rest))


def residual_divides_target(residual):
    """True when the residual divides the target in Z[k]."""
    try:
        ipoly_divexact(TARGET, residual)
    except ArithmeticError:
        return False
    return True


def verdict_failures(d, residual, nonexempt, leftover):
    """The acceptance rule for a true verdict, in certify and recheck alike:
    each failing gate named with its numbers, [] when the claim stands.
    The residual must divide the target, with no non-exempt prime and
    nothing unfactored, and d >= 5: every odd prime is +-1 mod 2d for
    d <= 2, and the certified congruence class is empty below d = 5."""
    failed = []
    if not residual_divides_target(residual):
        failed.append(f"residual of degree {len(residual) - 1} does not divide the target")
    if nonexempt:
        failed.append(f"non-exempt primes {', '.join(map(str, nonexempt))} (not +-1 mod {2 * d})")
    if leftover is not None:
        proof = "composite" if leftover < PROVEN_PRIME_BOUND else "not proven prime"
        failed.append(f"unfactored cofactor of {leftover.bit_length()} bits, {proof}")
    if not failed and d < 5:
        failed.append("d < 5 certifies an empty congruence class")
    return failed


class Payload(dict):
    """A certificate payload, the JSON object that `canonical_json` writes.
    `.payload` is the same dict, for `bench/gate_selftest.py`, which reads
    `certify(...).payload`."""

    @property
    def payload(self):
        return self


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _poly_payload(p):
    return [str(v) for v in p]


def _poly_unpayload(p):
    return [int(v) for v in p]


def _hash_payload(payload):
    """Timings are diagnostics and stay outside the integrity envelope."""
    body = {k: v for k, v in payload.items() if k not in ("content_hash", "timings")}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def certify(d, seed=1729):
    """Run the full certification for modulus d and return the certificate
    payload: a dict of JSON values, with its `content_hash`."""
    t_start = time.perf_counter()
    columns, records = build_columns(d)
    n_d = default_nd(d)
    timings = {"columns": round(time.perf_counter() - t_start, 2)}
    payload = {
        "schema": SCHEMA_VERSION,
        "d": d,
        "n_d": n_d,
        "rows": [3, n_d],
        "seed": seed,
        "plan": build_plan(d),
        "columns": records,
        "matrix_fingerprint": _matrix_fingerprint(columns),
        "num_columns": len(columns),
        "num_rows": n_d - 2,
    }
    payload.update(_claim(d, seed, columns, n_d - 2, timings))
    timings["total"] = round(time.perf_counter() - t_start, 2)
    payload["timings"] = timings
    payload["content_hash"] = _hash_payload(payload)
    return Payload(payload)


def _claim(d, seed, columns, n_rows, timings):
    """The payload fields after the matrix: rank, minors, fold trail, ideal
    element, strip and verdict, or the inconclusive verdict at the first
    gate that fails."""
    if len(columns) < n_rows:
        return {"verdict": "inconclusive", "reason": "not enough columns", "rank": None}

    t0 = time.perf_counter()
    subsets, rank = _select_minor_subsets(columns, n_rows, random.Random(seed), MINOR_COUNT)
    timings["rank_profile"] = round(time.perf_counter() - t0, 2)
    if rank < n_rows:
        return {"verdict": "inconclusive", "reason": f"matrix rank {rank} < {n_rows}", "rank": rank}

    t0 = time.perf_counter()
    minors = [(list(cols), det)
              for cols, det in zip(subsets, minor_determinants(columns, subsets)) if det]
    timings["minors"] = round(time.perf_counter() - t0, 2)

    t0 = time.perf_counter()
    element, fold_log = fold_minors([det for _, det in minors], d)
    timings["fold"] = round(time.perf_counter() - t0, 2)

    residual, a, b, exempt, nonexempt, leftover = strip_factors(element, d)
    out = {
        "rank": rank,
        "minors": [{"columns": cols, "poly": _poly_payload(det)} for cols, det in minors],
        "fold": fold_log,
        "ideal_element": _poly_payload(element),
        "stripped": {
            "residual": _poly_payload(residual),
            "a": str(a),
            "b": b,
            "exempt_primes": [str(q) for q in exempt],
            "nonexempt_primes": [str(q) for q in nonexempt],
            "unfactored": str(leftover) if leftover else None,
        },
    }
    failed = verdict_failures(d, residual, nonexempt, leftover)
    out["verdict"] = "inconclusive" if failed else "true"
    if failed:
        out["reason"] = "; ".join(failed)
    return out


def _matrix_fingerprint(columns):
    h = hashlib.sha256()
    for col in columns:
        for e in col:
            h.update((",".join(map(str, e)) + ";").encode())
        h.update(b"|")
    return h.hexdigest()


def _select_minor_subsets(columns, n_rows, rng, count):
    """Greedy rank profile plus seeded resamplings; returns column subsets."""
    q = (1 << 31) - 1
    ncols = len(columns)

    def profile(order):
        t = rng.randrange(3, q)
        rows = [[ipoly_eval(columns[j][r], t) for j in order] for r in range(n_rows)]
        _, pivots, _ = rref_mod(rows, q)
        return [order[c] for c in pivots], len(pivots)

    base_order = list(range(ncols))
    piv, rank = profile(base_order)
    if rank < n_rows:
        return [], rank
    subsets = [tuple(sorted(piv))]
    attempts = 0
    while len(subsets) < count and attempts < count * 8:
        order = list(range(ncols))
        rng.shuffle(order)
        piv, r = profile(order)
        attempts += 1
        if r == n_rows:
            t = tuple(sorted(piv))
            if t not in subsets:
                subsets.append(t)
    return subsets, rank


def fold_minors(minors, d):
    """Combine minor determinants into one small ideal element.

    Disjoint pairs are folded through the coprime-cofactor Bezout witness
    (common integer content and (k-4) powers pulled out first, multiplied
    back afterward); the small pair outputs are then folded with the
    polynomial extended gcd.  After each pair step that changes the
    element, folding stops once the element passes `strip_passes` for d.
    """
    log = []
    pool = [ipoly_trim(list(m)) for m in minors if ipoly_trim(list(m))]
    if not pool:
        raise ValueError("no nonzero minors to fold")
    if len(pool) == 1:
        return pool[0], log

    running = checked = None
    for i in range(0, len(pool) - 1, 2):
        E, rec = _fold_pair(pool[i], pool[i + 1], i, i + 1)
        log.append(rec)
        if running is None:
            running = E
        else:
            running, rec2 = _xgcd_fold(running, E)
            log.append(rec2)
        if running == checked:
            continue  # the fold left the element as it was: same verdict
        checked = running
        if strip_passes(running, d):
            return running, log
    if len(pool) % 2 == 1 and running is not None:
        running, rec2 = _xgcd_fold(running, pool[-1])
        log.append(rec2)
    return running, log


def _fold_pair(d1, d2, i, j):
    s1, s2 = ipoly_content(d1), ipoly_content(d2)
    b1, t1 = ipoly_valuation([v // s1 for v in d1], 4)
    b2, t2 = ipoly_valuation([v // s2 for v in d2], 4)
    g = modular_gcd(t1, t2)
    A = ipoly_divexact(t1, g)
    B = ipoly_divexact(t2, g)
    rec = {
        "kind": "pair",
        "minors": [i, j],
        "content": [str(s1), str(s2)],
        "kappa4": [b1, b2],
        "gcd": _poly_payload(g),
    }
    rec["witness"], c = _witness(A, B, "constant-cofactors")
    bmax = max(b1, b2)
    # c * s1 * s2 * (k-4)^bmax * g is in the ideal: multiplying the witness
    # identity through by s1 s2 (k-4)^bmax keeps both cofactors polynomial
    E = ipoly_scale(g, c * s1 * s2)
    for _ in range(bmax):
        E = ipoly_mul(E, [-4, 1])
    rec["element"] = {"scale": str(c * s1 * s2), "kappa4": bmax}
    return E, rec


def _xgcd_fold(left, right):
    """Sound two-element fold: strip to the common primitive part, then
    combine the cofactors (`_witness`, integer Bezout when both are
    constants)."""
    g = modular_gcd(left, right)
    A = ipoly_divexact(left, g)
    B = ipoly_divexact(right, g)
    rec = {
        "kind": "fold",
        "left_degree": len(left) - 1,
        "right_degree": len(right) - 1,
        "gcd": _poly_payload(g),
    }
    rec["witness"], c = _witness(A, B, "integer-xgcd")
    return ipoly_scale(g, c), rec


def _witness(A, B, both_constant):
    """The witness record that c is in the ideal (A, B) of the coprime
    cofactors A and B, and c; both_constant names the mode for two
    constants.  The mode follows the cofactor degrees, as `_checked_c`
    requires: two constants give c = gcd (with x, y for `integer-xgcd`),
    one constant cofactor is c itself, and otherwise `crt-bezout` keeps the
    cofactor u, so a checker finds v = (c - u*A) / B by one exact division.
    Its coefficients are hex strings: at d = 7 they run to about 69k bits,
    where decimal conversion (quadratic in CPython) would cost milliseconds
    per coefficient and hex is linear.
    """
    if len(A) > 1 and len(B) > 1:
        u, _, c = bezout_witness(A, B)
        return {"mode": "crt-bezout", "c": str(c), "u": [format(x, "x") for x in u]}, c
    if len(A) > 1 or len(B) > 1:
        c = abs((A if len(A) == 1 else B)[0])
        return {"mode": "constant-cofactor", "c": str(c)}, c
    c, x, y = _int_xgcd(abs(A[0]), abs(B[0]))
    w = {"mode": both_constant, "c": str(c)}
    if both_constant == "integer-xgcd":
        w.update(x=str(x), y=str(y))
    return w, c


def _int_xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


# ---------------------------------------------------------------------------
# recheck


def recheck_errors(payload):
    """Re-verify a certificate payload without re-running any reductions.

    Refuses anything but a JSON object, and a schema other than
    SCHEMA_VERSION.  Checks the content hash, then the claim
    (`_claim_errors`: the verdict, n_d, the plan and rows for d, and the
    shape of a true claim); an inconclusive verdict is checked no further.
    For a true one it checks the fold trail record by record
    (`_trail_element`) by multiplications and exact divisions alone: no
    gcd, CRT or primality test runs, and none of the prover's fold code.
    The trail must end at the ideal element, the strip bookkeeping must
    reassemble it, `a` must be 2*n_d-smooth, the strip must pass
    `verdict_failures`, the rule certify applies (d < 5 included), and
    each exempt entry must be proven prime below PROVEN_PRIME_BOUND and
    +-1 mod 2d.  Returns the list of failures, empty when everything is
    consistent.
    """
    if not isinstance(payload, dict):
        return ["certificate is not a JSON object"]
    if payload.get("schema") == 1:
        return ["schema 1 certificates record no Bezout cofactors: re-run `markoff certify`"]
    if payload.get("schema") != SCHEMA_VERSION:
        return ["unknown schema version"]
    if payload.get("content_hash") != _hash_payload(payload):
        return ["content hash mismatch"]
    errors = _claim_errors(payload)
    if errors or payload["verdict"] == "inconclusive":
        return errors
    try:
        minors = [ipoly_trim(_poly_unpayload(m["poly"])) for m in payload["minors"]]
        ideal = _poly_unpayload(payload["ideal_element"])
        try:
            if _trail_element(minors, payload["fold"]) != ideal:
                errors.append("fold trail does not end at the ideal element")
        except TrailRefused as exc:
            errors.append(str(exc))
        strip = payload["stripped"]
        residual = _poly_unpayload(strip["residual"])
        a, b = int(strip["a"]), strip["b"]
        nonexempt = [int(q) for q in strip["nonexempt_primes"]]
        leftover = int(strip["unfactored"]) if strip["unfactored"] else None
        if not (type(b) is int and 0 <= b <= len(ideal) - 1):
            errors.append(f"stripped b = {b!r} is not an integer in [0, deg ideal_element]")
            return errors
        # reassemble: a * (listed primes) * unfactored * (k-4)^b * residual
        scale = a * math.prod(map(int, strip["exempt_primes"])) * math.prod(nonexempt)
        rebuilt = ipoly_scale(residual, scale if leftover is None else scale * leftover)
        for _ in range(b):
            rebuilt = ipoly_mul(rebuilt, [-4, 1])
        if rebuilt != ideal and ipoly_scale(rebuilt, -1) != ideal:
            errors.append("strip bookkeeping does not reassemble the element")
        if not _is_smooth(a, 2 * payload["n_d"]):
            errors.append(f"a has a prime factor above 2*n_d = {2 * payload['n_d']}")
        errors += verdict_failures(payload["d"], residual, nonexempt, leftover)
        for q in strip["exempt_primes"]:
            qi = int(q)
            if qi >= PROVEN_PRIME_BOUND:
                errors.append(f"exempt entry {q} is not below PROVEN_PRIME_BOUND"
                              f" = {PROVEN_PRIME_BOUND}, so not proven prime")
            elif not is_prime(qi):
                errors.append(f"exempt entry {q} is not prime")
            if not _is_exempt(qi, payload["d"]):
                errors.append(f"prime {q} is not congruent to +-1")
    except Exception as exc:  # malformed certificate
        errors.append(f"validation error: {exc!r}")
    return errors


class TrailRefused(ValueError):
    """A fold-trail record that does not check out; the message names it."""


def _trail_element(minors, trail):
    """The element of the minors' ideal that the fold trail proves.

    The records are checked in order, each by multiplications, exact
    divisions, contents and (k-4)-valuations.  A pair record folds two
    recorded minors; the first pair's element starts the running element,
    and each later one must be taken in by the fold record right after it.
    A final fold record with no pair element before it takes the last
    minor, when their number is odd.  An empty trail stands for the one
    nonzero minor.  Raises TrailRefused at the first record that fails.
    """
    if not trail:
        if len(minors) != 1:
            raise TrailRefused(f"empty fold trail for {len(minors)} minors")
        return minors[0]
    running = pending = None
    for i, rec in enumerate(trail):
        try:
            if rec["kind"] == "pair":
                if pending is not None:
                    raise TrailRefused("follows a pair element that was never folded")
                E = _checked_pair(rec, minors)
                if running is None:
                    running = E
                else:
                    pending = E
            elif rec["kind"] == "fold":
                if pending is not None:
                    right = pending
                elif running is not None and i == len(trail) - 1 and len(minors) % 2:
                    right = _named_minor(minors, len(minors) - 1)
                else:
                    raise TrailRefused("has no pair element to fold")
                running, pending = _checked_fold(rec, running, right), None
            else:
                raise TrailRefused(f"has unknown kind {rec['kind']!r}")
        except TrailRefused as exc:
            raise TrailRefused(f"fold record {i} {exc}") from None
    if pending is not None:
        raise TrailRefused(f"fold trail ends before the element of record {len(trail) - 1} is folded")
    return running


def _checked_pair(rec, minors):
    """The element g * c * s1 * s2 * (k-4)^bmax of a checked pair record."""
    d1, d2 = (_named_minor(minors, j) for j in rec["minors"])
    s1, s2 = ipoly_content(d1), ipoly_content(d2)
    b1, t1 = ipoly_valuation([v // s1 for v in d1], 4)
    b2, t2 = ipoly_valuation([v // s2 for v in d2], 4)
    if rec["content"] != [str(s1), str(s2)] or rec["kappa4"] != [b1, b2]:
        raise TrailRefused("has a content or kappa4 that differs from its minors")
    g = _poly_unpayload(rec["gcd"])
    A, B = _cofactors(g, t1, t2)
    scale = _checked_c(rec["witness"], A, B, "constant-cofactors") * s1 * s2
    bmax = max(b1, b2)
    if rec["element"] != {"scale": str(scale), "kappa4": bmax}:
        raise TrailRefused("has an element that differs from g * c * s1 * s2 * (k-4)^bmax")
    E = ipoly_scale(g, scale)
    for _ in range(bmax):
        E = ipoly_mul(E, [-4, 1])
    return E


def _checked_fold(rec, left, right):
    """The element gp * c of a checked fold record of left and right."""
    if [rec["left_degree"], rec["right_degree"]] != [len(left) - 1, len(right) - 1]:
        raise TrailRefused("has operand degrees that differ from its operands")
    gp = _poly_unpayload(rec["gcd"])
    A, B = _cofactors(gp, left, right)
    return ipoly_scale(gp, _checked_c(rec["witness"], A, B, "integer-xgcd"))


def _named_minor(minors, j):
    if not (type(j) is int and 0 <= j < len(minors)):
        raise TrailRefused(f"names minor {j!r}, out of range for {len(minors)} minors")
    if not minors[j]:
        raise TrailRefused(f"names minor {j}, which is zero")
    return minors[j]


def _cofactors(g, left, right):
    """(left / g, right / g), or TrailRefused unless g divides both."""
    try:
        return ipoly_divexact(left, g), ipoly_divexact(right, g)
    except (ArithmeticError, ZeroDivisionError):
        raise TrailRefused("has a gcd that does not divide both operands") from None


def _checked_c(w, A, B, both_constant):
    """c of the witness w for the cofactors A and B, once w shows that c is
    in the ideal (A, B); both_constant names the mode for two constants.

    The mode must be the one the cofactor degrees call for.  For
    `crt-bezout`, deg u < deg B is required before any multiplication, and
    B must divide c - u*A exactly: v is that quotient.
    """
    want = (both_constant, "constant-cofactor", "crt-bezout")[(len(A) > 1) + (len(B) > 1)]
    if w["mode"] != want:
        raise TrailRefused(f"has witness mode {w['mode']!r} where its cofactors call for {want!r}")
    c = int(w["c"])
    if c < 1:
        raise TrailRefused("has a witness c below 1")
    if want == "crt-bezout":
        if len(w["u"]) >= len(B):
            raise TrailRefused(f"has deg u = {len(w['u']) - 1}, not below deg B = {len(B) - 1}")
        u = [int(x, 16) for x in w["u"]]
        try:
            ipoly_divexact(ipoly_add([c], ipoly_scale(ipoly_mul(u, A), -1)), B)
        except ArithmeticError:
            raise TrailRefused("has a cofactor u for which B does not divide c - u*A") from None
    elif want == "constant-cofactor":
        if c != abs((A if len(A) == 1 else B)[0]):
            raise TrailRefused("has a c that is not the constant cofactor")
    elif want == "constant-cofactors":
        if c != math.gcd(A[0], B[0]):
            raise TrailRefused("has a c that is not the gcd of the constant cofactors")
    elif int(w["x"]) * abs(A[0]) + int(w["y"]) * abs(B[0]) != c:
        raise TrailRefused("has integers x, y with x*|A0| + y*|B0| != c")
    return c


def _claim_errors(payload):
    """What the payload claims, against what `certify` records for its d:
    the verdict, n_d = default_nd(d), the plan, the rows, and for a true
    verdict full rank and num_rows distinct columns per minor.  This does
    not tie the minors to the matrix, stored only as a fingerprint."""
    if payload.get("verdict") not in ("true", "inconclusive"):
        return [f"verdict {payload.get('verdict')!r} is neither 'true' nor 'inconclusive'"]
    d, n_d = payload.get("d"), payload.get("n_d")
    if not (isinstance(d, int) and isinstance(n_d, int)):
        return ["d and n_d must be integers"]
    try:
        plan, top = build_plan(d), default_nd(d)
    except (ValueError, ResourceWarning) as exc:
        return [f"no plan for d = {d}: {exc}"]
    errors = []
    if n_d != top:
        errors.append(f"n_d = {n_d} is not default_nd({d}) = {top}")
    if payload.get("plan") != plan:
        errors.append(f"plan differs from build_plan({d})")
    rows = top - 2
    if payload.get("rows") != [3, top] or payload.get("num_rows") != rows:
        errors.append(f"rows must be [3, {top}] with num_rows {rows}")
    if errors or payload["verdict"] != "true":
        return errors
    rank, cols = payload.get("rank"), payload.get("num_columns")
    if not (type(rank) is int and rank == rows):
        errors.append(f"rank {rank!r} is not num_rows = {rows} under a true verdict")
    if not (type(cols) is int and cols >= rows):
        return errors + [f"num_columns {cols!r} is not an integer >= num_rows = {rows}"]
    minors = payload.get("minors")
    for i, m in enumerate(minors if isinstance(minors, list) else []):
        c = m.get("columns") if isinstance(m, dict) else None
        if not (isinstance(c, list) and len(c) == rows
                and all(type(j) is int and 0 <= j < cols for j in c) and len(set(c)) == rows):
            errors.append(f"minor {i} does not name {rows} distinct columns in range({cols})")
    return errors


def _is_smooth(n, bound):
    """n >= 1 has no prime factor above bound (a small one: 2*n_d <= 96)."""
    if n < 1:
        return False
    for q in range(2, bound + 1):
        while n % q == 0:
            n //= q
    return n == 1


def check_mod_p(payload, p):
    """Ideal membership survives reduction mod p: the gcd of the recorded
    minors over F_p[k] must divide the extracted element mod p.  Used by
    the benchmark's certify-d5 gate and acceptance criterion 8."""
    field(p)  # raises unless p is an odd prime
    minors = [_poly_unpayload(m["poly"]) for m in payload["minors"]]
    element = _poly_unpayload(payload["ideal_element"])
    gq = None
    for m in minors:
        mm = ipoly_mod(m, p)
        if not mm:
            continue
        gq = mm if gq is None else _gcd_mod_q(gq, mm, p)
    if gq is None:
        return ipoly_mod(element, p) == []
    return ipoly_divmod_mod(element, gq, p)[1] == []
