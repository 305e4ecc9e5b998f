"""SL2(F_p) generating pairs, their trace triples, and pair-move orbits.

The three pair moves are (A, B) -> (A, AB), (A, B) -> (B, A), and
(A, B) -> (A^-1, B); they preserve the generated subgroup and the trace of
the commutator.  Orbit counting enumerates the whole group once and builds
its multiplication table and, on first use, the n x n table of commutator
traces of all pairs, so each kappa's stratum is one comparison with it.  A
pair id i*n + j is found in the stratum without a search: the stratum's mask
is packed to bits, and the id's index is the popcount of the bits before it
(`_pair_index`, an eighth of a byte per pair plus an int32 count per byte,
about 1 MB at p = 11).  It then checks that each of the three moves
permutes the stratum and labels the orbits with `orbits._components`, which
propagates least pair ids over the moves (`_pair_labels`).  The n x n table
limits it to small p (the defaults allow p <= 13 for membership tests and
p <= 11 for full orbit counts).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .ffield import field
from .orbits import _components

GENERATES_BOUND = 13
ORBITS_BOUND = 11
# entries per row block of the n x n table builds, to bound temporaries
_BLOCK = 1 << 16


def sl2_elements(p):
    """All of SL2(F_p) as (a, b, c, d) tuples."""
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a == 0 and b == 0:
                    continue
                # ad - bc = 1
                if a != 0:
                    for d in range(p):
                        if (a * d - b * c) % p == 1:
                            out.append((a, b, c, d))
                            break
                    continue
                # a == 0: -bc = 1, d free
                if (-b * c) % p == 1:
                    for d in range(p):
                        out.append((0, b, c, d))
    return out


def mat_mul(u, v, p):
    """u*v mod p; the tests apply the pair moves with it."""
    a, b, c, d = u
    e, f, g, h = v
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def mat_inv(u, p):
    """u^-1 mod p; the tests apply the pair moves with it."""
    a, b, c, d = u
    return (d, (-b) % p, (-c) % p, a)


def trace_triple(A, B, p):
    """(tr A, tr B, tr AB).  Test oracle: pair moves map to coordinate moves."""
    ab = mat_mul(A, B, p)
    return ((A[0] + A[3]) % p, (B[0] + B[3]) % p, (ab[0] + ab[3]) % p)


def commutator_trace(A, B, p):
    """tr [A, B].  Test oracle: constant under the pair moves, as
    `nielsen_orbits` assumes."""
    x, y, z = trace_triple(A, B, p)
    return (x * x + y * y + z * z - x * y * z - 2) % p


class GroupTable:
    """Index-based multiplication/inverse/trace tables for SL2(F_p)."""

    def __init__(self, p):
        self.p = p
        self.elements = sl2_elements(p)
        self.order = n = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        # distinct, of determinant 1 and p(p^2 - 1) of them: the whole group,
        # so every product below has an index
        if n != p * (p * p - 1) or len(self.index) != n:
            raise ArithmeticError(f"enumerated {len(self.index)} elements of SL2(F_{p}), "
                                  f"expected {p * (p * p - 1)}")
        a, b, c, d = np.array(self.elements, dtype=np.int32).T
        # element index by code ((a*p + b)*p + c)*p + d
        index_of = np.zeros(p**4, dtype=np.int32)
        index_of[((a * p + b) * p + c) * p + d] = np.arange(n, dtype=np.int32)
        mul = np.empty((n, n), dtype=np.int32)
        rows = max(1, _BLOCK // n)
        for lo in range(0, n, rows):
            ra, rb, rc, rd = (v[lo:lo + rows, None] for v in (a, b, c, d))
            mul[lo:lo + rows] = index_of[
                (((ra * a + rb * c) % p * p + (ra * b + rb * d) % p) * p
                 + (rc * a + rd * c) % p) * p + (rc * b + rd * d) % p]
        self.mul = mul
        self.inv = index_of[((d * p + (-b) % p) * p + (-c) % p) * p + a]
        self.trace = (a + d) % p
        self.identity = self.index[(1, 0, 0, 1)]

    @cached_property
    def commutator_traces(self):
        """n x n uint8 array of tr[A_i, A_j], by the Fricke identity
        tr[A, B] = x^2 + y^2 + z^2 - xyz - 2 with (x, y, z) = (tr A, tr B, tr AB)."""
        n, p = self.order, self.p
        y = self.trace
        comm = np.empty((n, n), dtype=np.uint8)
        rows = max(1, _BLOCK // n)
        for lo in range(0, n, rows):
            x = self.trace[lo:lo + rows, None]
            z = self.trace[self.mul[lo:lo + rows]]
            comm[lo:lo + rows] = (x * x + y * y + z * z - x * y * z - 2) % p
        return comm

    def closure_size(self, i, j):
        """Order of the subgroup generated by elements i and j."""
        seen = np.zeros(self.order, dtype=bool)
        seen[self.identity] = True
        frontier = [self.identity]
        while frontier:
            arr = np.array(frontier, dtype=np.int32)
            nxt = np.unique(np.concatenate([self.mul[arr, i], self.mul[arr, j]]))
            fresh = nxt[~seen[nxt]]
            seen[fresh] = True
            frontier = fresh.tolist()
        return int(seen.sum())


_TABLES = {}


def group_table(p):
    field(p)  # raises unless p is an odd prime
    if p not in _TABLES:
        _TABLES[p] = GroupTable(p)
    return _TABLES[p]


def generates(A, B, p):
    """True iff {A, B} generates all of SL2(F_p).  Resource-guarded.  Test
    oracle: checked against `orbits.classify_nonessential`."""
    field(p)  # raises unless p is an odd prime
    if p > GENERATES_BOUND:
        raise ResourceWarning(f"p = {p} exceeds the closure bound {GENERATES_BOUND}")
    g = group_table(p)
    return g.closure_size(g.index[tuple(A)], g.index[tuple(B)]) == g.order


# _POPCOUNT[b] is the number of set bits of the byte b, and _BELOW[k] the
# byte whose bits 0..k-1 are set
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_BELOW = np.array([(1 << k) - 1 for k in range(8)], dtype=np.uint8)


def _pair_index(mask):
    """The lookup that maps pair ids to their indices among the set entries
    of the boolean array `mask` (the stratum), as int32, in O(1) per id.

    The mask is packed eight ids to a byte, id v at bit v & 7 of byte v >> 3
    (`np.packbits`, little bit order).  The index of v is the number of set
    bits in the bytes before its own (a cumsum of the bytes' popcounts, read
    from a 256-entry table) plus the popcount of its byte below its bit.
    The lookup raises ArithmeticError when the bit of an id is clear, so
    nothing is merged with a wrong pair.  Ids must lie in range(mask.size).
    """
    bits = np.packbits(mask.ravel(), bitorder="little")
    ones = _POPCOUNT[bits]
    before = np.cumsum(ones, dtype=np.int32)
    before -= ones

    def lookup(values):
        byte, bit = values >> 3, values & 7
        word = bits[byte]
        if not ((word >> bit) & 1).all():
            raise ArithmeticError("a move image is not in the stratum")
        pos = before[byte]
        pos += _POPCOUNT[word & _BELOW[bit]]
        return pos

    return lookup


def _pair_labels(moves):
    """`orbits._components` labels of the stratum under the pair moves.
    Raises ValueError unless each move permutes range(N): a permutation's
    cycles close, which is the precondition of `_components`."""
    n = moves[0].size
    for m in moves:
        if m.shape != (n,) or not (np.bincount(m, minlength=n) == 1).all():
            raise ValueError("a pair move is not a permutation of the stratum")
    return _components(moves)


def nielsen_orbits(p, kappa):
    """Orbit count and sizes for generating pairs with commutator trace
    kappa - 2, under the three pair moves."""
    field(p)  # raises unless p is an odd prime
    kappa %= p
    if kappa == 4 % p:
        raise ValueError("kappa = 4 is excluded")
    if p > ORBITS_BOUND:
        raise ResourceWarning(f"p = {p} exceeds the orbit bound {ORBITS_BOUND}")
    g = group_table(p)
    n = g.order
    target = (kappa - 2) % p

    # pair ids i*n + j in the stratum
    mask = g.commutator_traces == target
    index = _pair_index(mask)
    ids = np.flatnonzero(mask).astype(np.int32)
    del mask
    i, j = np.divmod(ids, n)
    moves = [index(i * n + g.mul[i, j]),  # (A, AB)
             index(j * n + i),            # (B, A)
             index(g.inv[i] * n + j)]     # (A^-1, B)
    del i, j
    lab = _pair_labels(moves)
    roots = np.flatnonzero(lab == np.arange(lab.size))
    counts = np.bincount(lab, minlength=lab.size)
    # a non-generating stratum member's orbit is dropped whole
    sizes = [int(counts[r]) for r in roots if g.closure_size(*divmod(int(ids[r]), n)) == n]
    return {"p": p, "kappa": kappa, "orbit_count": len(sizes), "orbit_sizes": sorted(sizes)}


def pair_for_triple(t, p):
    """Some SL2(F_p) pair whose trace triple is t, by direct construction.

    A is the companion matrix of x; B is solved from the trace constraints,
    scanning its first entry until the determinant condition has a root.
    Test oracle: its trace triple is checked to be t."""
    F = field(p)
    x, y, z = (v % p for v in t)
    A = (x % p, (-1) % p, 1, 0)
    # B = [[a, b], [c, d]]: tr B = a + d = y;  tr AB = xa - c + b = z
    # det: ad - bc = 1
    for a in range(p):
        d = (y - a) % p
        # b*c = a*d - 1 and  b - c = z - x*a
        # c^2 + (z - x*a)c - (a*d - 1) = 0
        s = (z - x * a) % p
        disc = (s * s + 4 * (a * d - 1)) % p
        r = F.sqrt(disc)
        if r is None:
            continue
        c = (-s + r) * F.inv(2) % p
        b = (c + s) % p
        B = (a, b, c, d)
        if (a * d - b * c) % p == 1 and trace_triple(A, B, p) == (x, y, z):
            return A, B
    raise ArithmeticError(f"no pair found for {t} mod {p}")
