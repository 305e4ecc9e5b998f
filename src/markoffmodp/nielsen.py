"""SL2(F_p) generating pairs, their trace triples, and pair-move orbits.

The three pair moves are (A, B) -> (A, AB), (A, B) -> (B, A), and
(A, B) -> (A^-1, B); they preserve the generated subgroup and the trace of
the commutator.  Orbit counting enumerates the whole group once, builds a
multiplication table, and runs breadth-first searches over packed pair ids,
so it only scales to small p (the defaults allow p <= 13 for membership
tests and p <= 11 for full orbit counts).
"""

from __future__ import annotations

import numpy as np

from .ffield import field

GENERATES_BOUND = 13
ORBITS_BOUND = 11


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
        self.order = len(self.elements)
        assert self.order == p * (p * p - 1)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = self.order
        mul = np.empty((n, n), dtype=np.int32)
        for i, u in enumerate(self.elements):
            a, b, c, d = u
            for j, v in enumerate(self.elements):
                e, f, g, h = v
                w = (
                    (a * e + b * g) % p,
                    (a * f + b * h) % p,
                    (c * e + d * g) % p,
                    (c * f + d * h) % p,
                )
                mul[i, j] = self.index[w]
        self.mul = mul
        self.inv = np.array([self.index[mat_inv(u, p)] for u in self.elements], dtype=np.int32)
        self.trace = np.array([(u[0] + u[3]) % p for u in self.elements], dtype=np.int32)
        self.identity = self.index[(1, 0, 0, 1)]

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

    # commutator trace per pair, vectorized blockwise over the first index
    pair_ok = np.zeros(n * n, dtype=bool)
    js = np.arange(n, dtype=np.int64)
    inv_js = g.inv[js]
    for i in range(n):
        ij = g.mul[i, js]
        comm = g.mul[ij, g.mul[g.inv[i], inv_js]]
        pair_ok[i * n + js] = g.trace[comm] == target

    sizes = []
    unvisited = pair_ok.copy()
    mul, inv = g.mul, g.inv
    while True:
        seeds = np.flatnonzero(unvisited)
        if seeds.size == 0:
            break
        seed = int(seeds[0])
        i0, j0 = divmod(seed, n)
        count = _orbit_sweep(seed, unvisited, mul, inv, n)
        # a non-generating stratum member's orbit is dropped whole
        if g.closure_size(np.int32(i0), np.int32(j0)) == n:
            sizes.append(count)
    return {"p": p, "kappa": kappa, "orbit_count": len(sizes), "orbit_sizes": sorted(sizes)}


def _orbit_sweep(seed, unvisited, mul, inv, n):
    """BFS the pair orbit of `seed`, clearing it from `unvisited`."""
    unvisited[seed] = False
    frontier = np.array([seed], dtype=np.int64)
    count = 1
    while frontier.size:
        i = frontier // n
        j = frontier % n
        m1 = i * n + mul[i, j]  # (A, AB)
        m2 = j * n + i          # (B, A)
        m3 = inv[i] * n + j     # (A^-1, B)
        nxt = np.unique(np.concatenate([m1, m2, m3]))
        fresh = nxt[unvisited[nxt]]
        unvisited[fresh] = False
        count += fresh.size
        frontier = fresh
    return count


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
