"""Markoff triples over F_p: enumeration, moves, orbits, and span checks.

A triple (x, y, z) solves x^2 + y^2 + z^2 = x*y*z + kappa.  The full move
group is generated by the three coordinate moves (each replaces one
coordinate by the product of the other two minus itself), coordinate
permutations, and the double sign change; `vieta` restricts to the three
coordinate moves alone, and `gamma_x` to the stabilizer of the first
coordinate.

Orbits are labelled on blocks.  A block is an (x, y) over which the surface
has points, and holds their one or two z, the roots of the z-quadratic.
Every generator set contains the z-move, whose orbits are exactly the
blocks, so each block lies in one orbit and the other generators act on
blocks.  `_surface` lists the blocks in increasing (x, y) order, each with
its smaller and larger root, beside a p^2-entry table of block ranks by
x*p + y; the z-discriminant is an outer product over (x, y), and nothing on
the way searches or sorts.  Each other generator, applied to both roots of
every block, gives two block maps; `_block_of` finds an image's block with
one read of the rank table and checks that the block holds its z.
`_components` then labels the orbits by min-propagation and pointer jumping
in two preallocated buffers.  Points are listed from the blocks only where a
caller needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .ffield import field, rref_mod

# Largest p for a surface enumeration: the surface has about p^2 points in
# about p^2/2 blocks, all in int32 arrays (no product of two coordinates
# reaches p^2 < 2^31).  At p = 397, the largest prime under the bound, one
# `verify_main1` takes about 0.02 s and peaks at 33 MB of process RSS
# (`getrusage`); `orbit_decomposition` takes about 0.19 s and 64 MB, mostly
# for the tuple frozensets (kappa 1, 5 and 200, each in a fresh process;
# shared 2-vCPU VM, Python 3.11.7, numpy 2.4).  `verify-main1` without
# --kappa runs one check per kappa.
SURFACE_BOUND = 400


def vieta_move(t, axis, p):
    """Replace one coordinate by the other root of its quadratic.  Test
    oracle: checked as a surface involution and as the image of a pair move."""
    return _GENS["vieta"][axis](t, p)


def is_markoff(t, p, kappa):
    x, y, z = t
    return (x * x + y * y + z * z - x * y * z - kappa) % p == 0


def _surface(p, kappa):
    """The blocks of the surface in increasing (x, y) order, as int32 arrays
    (x, y, lo, hi, rank): block i is (x[i], y[i]) with the roots lo[i] <=
    hi[i] (equal for one root), and rank[x*p + y] is the index of the block
    of (x, y), or -1 where the z-quadratic has no root.

    The z-quadratic of (x, y) has discriminant (x^2 - 4)(y^2 - 4) + 4*kappa
    - 16, an outer product of one length-p vector, and its square roots give
    the roots of each (x, y); `np.flatnonzero` lists the (x, y) with a root
    in increasing order of x*p + y.  Resource-guarded: p above SURFACE_BOUND
    raises ResourceWarning."""
    field(p)  # raises unless p is an odd prime
    if p > SURFACE_BOUND:
        raise ResourceWarning(f"p = {p} exceeds the surface bound {SURFACE_BOUND}")
    kappa %= p
    # root[v] is the smaller square root of v, or -1 for a nonsquare
    root = np.full(p, -1, dtype=np.int32)
    r = np.arange((p + 1) // 2, dtype=np.int32)
    root[r * r % p] = r
    a = np.arange(p, dtype=np.int32)
    a = (a * a - 4) % p
    s = root[(np.multiply.outer(a, a) + (4 * kappa - 16)) % p].ravel()
    xy = np.flatnonzero(s >= 0).astype(np.int32)
    rank = np.full(p * p, -1, dtype=np.int32)
    rank[xy] = np.arange(xy.size, dtype=np.int32)
    x, y = np.divmod(xy, p)
    s = s[xy]
    base, inv2 = x * y % p, (p + 1) // 2
    lo = (base - s) * inv2 % p
    hi = (base + s) * inv2 % p
    return x, y, np.minimum(lo, hi), np.maximum(lo, hi), rank


def _block_of(surface, p, x, y, z):
    """Index of the block of each point (x, y, z), as int32, with one read
    of the rank table.  Raises ArithmeticError unless the block exists and
    holds z, that is unless every point is on the surface, so nothing is
    merged with a wrong block.  Coordinates must lie in range(p)."""
    _, _, lo, hi, rank = surface
    block = rank.take(x * p + y)
    if block.size and (block.min() < 0
                       or not ((lo.take(block) == z) | (hi.take(block) == z)).all()):
        raise ArithmeticError("a move image is not on the surface")
    return block


def _points(surface):
    """Coordinate arrays (x, y, z) of all solutions in increasing order, and
    the block of each: a block's smaller root, then its larger one if
    distinct."""
    x, y, lo, hi, _ = surface
    block = np.repeat(np.arange(x.size, dtype=np.int32), 1 + (lo != hi))
    second = np.zeros(block.size, dtype=bool)
    second[1:] = block[1:] == block[:-1]
    return x[block], y[block], np.where(second, hi[block], lo[block]), block


def surface_points(p, kappa):
    """All solutions as (x, y, z) tuples in increasing order.
    Resource-guarded like `orbit_decomposition`."""
    x, y, z, _ = _points(_surface(p, kappa))
    return list(zip(x.tolist(), y.tolist(), z.tolist()))


def _m_x(t, p):
    x, y, z = t
    return (y * z - x) % p, y, z


def _m_y(t, p):
    x, y, z = t
    return x, (x * z - y) % p, z


def _m_z(t, p):
    x, y, z = t
    return x, y, (x * y - z) % p


def _swap_xy(t, p):
    x, y, z = t
    return y, x, z


def _swap_yz(t, p):
    x, y, z = t
    return x, z, y


def _negate_yz(t, p):
    x, y, z = t
    return x, (-y) % p, (-z) % p


# Each generator is an involution of the surface and takes tuples or int32
# coordinate arrays.  Every set holds the z-move `_m_z`: the block labelling
# of `_orbit_labels` rests on it.
_GENS = {
    "gamma": (_m_x, _m_y, _m_z, _swap_xy, _swap_yz, _negate_yz),
    "vieta": (_m_x, _m_y, _m_z),
    "gamma_x": (_swap_yz, _m_y, _m_z, _negate_yz),
}


def orbit_of(t, p, generators="gamma"):
    """BFS closure of a single triple under the chosen generator set.  Test
    oracle: its partition of the surface is compared with
    `orbit_decomposition`."""
    gens = _GENS[generators]
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = g(u, p)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def _positions(keys, values):
    """Index of each value in the sorted unique array `keys`, as int32, by
    binary search.  Raises ArithmeticError when a value is absent.  Test
    oracle for `nielsen._pair_index`; no program path calls it."""
    pos = np.searchsorted(keys, values)
    if values.size and (pos.max() >= keys.size or not np.array_equal(keys[pos], values)):
        raise ArithmeticError("a move image is not in the point set")
    return pos.astype(np.int32)


def _components(moves):
    """Orbit labels of the graph on range(N) whose edges are i -> move[i].

    Precondition: every move is an int32 array of N indices in range(N),
    and every edge lies on a cycle of edges.  Permutations satisfy it (their
    cycles close), and so do maps whose edge set is closed under reversal;
    the callers ensure it (`_orbit_labels`, `nielsen._pair_labels`).

    The result maps every index to the least index of its component.  Each
    round takes lab = min(lab, lab[move]) over the moves, then jumps
    pointers (lab = lab[lab]).  At the fixed point lab <= lab[move] along
    every edge, and going round the edge's cycle gives equality, so labels
    are constant on components; a label is always a member of its index's
    component, so the constant is the least one.

    A round writes into two int32 buffers allocated once (`np.take` and
    `np.minimum` with `out=`), and the old labels and the round's result
    swap roles, so no step allocates a new array of labels.  Every index
    taken is in range (by the precondition, and labels are indices), and
    mode="clip" spares the copy that `np.take` makes into `out` under its
    default mode="raise".
    """
    lab = np.arange(moves[0].size, dtype=np.int32)
    new, tmp = np.empty_like(lab), np.empty_like(lab)
    while True:
        cur = lab
        for m in moves:
            np.take(cur, m, out=tmp, mode="clip")
            np.minimum(cur, tmp, out=new)
            cur = new
        np.take(new, new, out=tmp, mode="clip")
        if np.array_equal(tmp, lab):
            return lab
        lab, tmp = tmp, lab


def _orbit_labels(p, kappa, generators):
    """The `_surface` blocks and the `_components` labels of their orbits.

    The z-move only swaps the roots of a block, so it is left out; every
    other generator maps both roots of each block, and `_block_of` checks
    every image.  The generators are involutions, so each edge from a block
    to the block of an image has its reverse from the image back, which is
    the precondition of `_components`."""
    gens = _GENS[generators]
    if _m_z not in gens:
        raise ValueError(f"generator set {generators} lacks the z-move")
    surface = _surface(p, kappa)
    x, y, lo, hi, _ = surface
    moves = [_block_of(surface, p, *g((x, y, z), p))
             for g in gens if g is not _m_z for z in (lo, hi)]
    return surface, _components(moves)


def orbit_decomposition(p, kappa, generators="gamma"):
    """Partition the surface into orbits; each orbit is a frozenset, and the
    list is sorted by least member.  Resource-guarded: p above SURFACE_BOUND
    raises ResourceWarning."""
    surface, lab = _orbit_labels(p, kappa, generators)
    x, y, z, block = _points(surface)
    orbits = {}
    # a label is the index of its orbit's least block, and points come in
    # increasing order, so labels first appear in increasing order
    for root, t in zip(lab[block].tolist(), zip(x.tolist(), y.tolist(), z.tolist())):
        orbits.setdefault(root, []).append(t)
    return [frozenset(o) for o in orbits.values()]


# ---------------------------------------------------------------------------
# nonessential classification


_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _expand(t, p):
    """All images of t under coordinate permutations and double sign changes."""
    out = set()
    for perm in _PERMS:
        u = (t[perm[0]], t[perm[1]], t[perm[2]])
        for s in _SIGN_PATTERNS:
            out.add(((s[0] * u[0]) % p, (s[1] * u[1]) % p, (s[2] * u[2]) % p))
    return out


def _golden_pair(p):
    """The two roots of g^2 = g + 1 in F_p, or None if 5 is a nonsquare."""
    F = field(p)
    s5 = F.sqrt(5 % p)
    if s5 is None:
        return None
    inv2 = F.inv(2)
    return ((1 + s5) * inv2 % p, (1 - s5) * inv2 % p)


def _golden_categories_apply(p):
    """The golden-ratio exception families assume the icosahedral subgroup is
    proper; at p = 5 it is the whole group and those triples are essential
    (checked directly against SL2(F_5) in the tests)."""
    return p != 5


def _catalog(p, kappa):
    """The finite exception catalog at (p, kappa), as (tag, seeds) pairs;
    each tag's triples are the `_expand` images of its seeds, and its first
    seed is the one the single-orbit statement names.

    Categories: "1" (square-root-of-kappa axis triples, any kappa), "2"
    (kappa = 2), "3"/"4" (kappa = 2 + golden ratio / conjugate), "5a"/"5b"
    (kappa = 3).  Entries that need a missing square root are omitted.
    """
    F = field(p)
    kappa %= p
    out = []
    sk = F.sqrt(kappa)
    if sk is not None:
        out.append(("1", [(sk, 0, 0)]))
    if kappa == 2 % p:
        out.append(("2", [(1, 1, 1), (1, 1, 0)]))
    gp = _golden_pair(p) if _golden_categories_apply(p) else None
    if gp is not None:
        for tag, g in (("3", gp[0]), ("4", gp[1])):
            if kappa == (2 + g) % p:
                out.append((tag, [(1, 0, g), (g, g, g), (g, g, 1)]))
    if kappa == 3 % p:
        s2 = F.sqrt(2)
        if s2 is not None:
            out.append(("5a", [(1, 0, s2), (s2, s2, 1)]))
        if gp is not None:
            g, gb = gp
            out.append(("5b", [(g, 1, 1), (g, gb, 0), (g, gb, p - 1), (gb, 1, 1)]))
    for tag, seeds in out:
        for s in seeds:
            if not is_markoff(s, p, kappa):
                raise ValueError(f"catalog seed {s} of category {tag} is off the surface")
    return out


def _expand_all(seeds, p):
    return set().union(*(_expand(s, p) for s in seeds))


def nonessential_sets(p, kappa):
    """Category tag -> set of triples, per the finite exception catalog."""
    return {tag: _expand_all(seeds, p) for tag, seeds in _catalog(p, kappa)}


def classify_nonessential(t, p, kappa):
    """Category tag for t, or "essential" when t is in no exception set.
    Test oracle: checked against `orbit_of` and `nielsen.generates`."""
    for tag, pts in sorted(nonessential_sets(p, kappa).items()):
        if tuple(v % p for v in t) in pts:
            return tag
    return "essential"


# ---------------------------------------------------------------------------
# orbit reports


def _x_counts(triples):
    """How many triples have each first coordinate, keyed by its decimal
    string in numeric order."""
    counts = {}
    for (x, _, _) in triples:
        counts[x] = counts.get(x, 0) + 1
    return {str(a): c for a, c in sorted(counts.items())}


def enumerate_orbits(p, kappa, generators="gamma"):
    """Orbit report for the surface at (p, kappa), the JSON object that
    `markoff orbits --json` prints: per orbit its least point `rep`, size,
    exception category ("essential" outside the catalog) and first-coordinate
    counts, in the order of `orbit_decomposition`; kappa = 4 rejected."""
    kappa %= p
    if kappa == 4 % p:
        raise ValueError("kappa = 4 is excluded")
    decomp = orbit_decomposition(p, kappa, generators)
    tag_of = {}
    for tag, pts in sorted(nonessential_sets(p, kappa).items()):
        for t in pts:
            tag_of.setdefault(t, tag)
    orbits = []
    for orb in decomp:
        rep = min(orb)
        cat = tag_of.get(rep, "essential")
        orbits.append({"rep": list(rep), "size": len(orb), "essential": cat == "essential",
                       "category": cat, "counts": _x_counts(orb)})
    return {"p": p, "kappa": kappa, "generators": generators,
            "total": sum(o["size"] for o in orbits),
            "counts": _x_counts(t for orb in decomp for t in orb), "orbits": orbits}


def main1_expected_seeds(p, kappa):
    """Exceptional-orbit seeds for the single-orbit statement at (p, kappa)."""
    return [(tag, seeds[0]) for tag, seeds in _catalog(p, kappa)]


def verify_main1(p, kappa):
    """Check the single-orbit claim for coordinate moves alone at (p, kappa).

    Returns a dict with the orbit decomposition summary and a boolean
    `matches`: the nonessential catalog must be a union of orbits, every
    exceptional orbit must contain an expanded seed triple, and the
    essential triples must form at most one orbit.
    """
    kappa %= p
    if kappa == 4 % p:
        raise ValueError("kappa = 4 is excluded")
    surface, lab = _orbit_labels(p, kappa, "vieta")
    _, _, lo, hi, _ = surface
    n = lab.size

    def per_orbit(triples):
        """How many of the given distinct surface triples each orbit holds,
        by label."""
        x, y, z = np.array(list(triples), dtype=np.int32).reshape(-1, 3).T
        return np.bincount(lab[_block_of(surface, p, x, y, z)], minlength=n)

    catalog = _catalog(p, kappa)
    noness = _expand_all([s for _, seeds in catalog for s in seeds], p)
    seed_triples = _expand_all([seeds[0] for _, seeds in catalog], p)

    roots = np.flatnonzero(lab == np.arange(n))
    # an orbit's size: its blocks weighted by their root counts
    sizes = np.bincount(lab, weights=1 + (lo != hi), minlength=n)[roots].astype(np.int64)
    inter = per_orbit(noness)[roots]
    seeded = per_orbit(seed_triples)[roots]
    essential = inter == 0
    exceptional = inter == sizes
    essential_orbits = int(essential.sum())
    clean_split = bool((essential | exceptional).all())
    seeds_cover = bool((seeded[exceptional] > 0).all())
    matches = clean_split and seeds_cover and essential_orbits <= 1
    return {
        "p": p,
        "kappa": kappa,
        "orbit_count": int(roots.size),
        "orbit_sizes": sorted(sizes.tolist()),
        "exceptional_orbits": int(roots.size) - essential_orbits,
        "essential_orbits": essential_orbits,
        "matches": matches,
    }


# ---------------------------------------------------------------------------
# first-coordinate parameterization


@dataclass
class FirstCoordNest:
    """Descriptor of a first-coordinate orbit.

    The middle coordinates along the orbit form lines obeying
    y_(n+1) = alpha*y_n - y_(n-1), whose characteristic roots are the
    quadratic roots zeta, 1/zeta attached to alpha.  `order` is their
    rotation order (in case 3, the total line length).  `lines` holds each
    line once (a second, negated line appears when the sign change is not
    already a shift of the first).  Triples are consecutive pairs along a
    line, in both orders.
    """

    case: int
    alpha: int
    order: int
    lines: tuple

    def triples(self, p):
        out = set()
        for ys in self.lines:
            n = len(ys)
            for i in range(n):
                out.add((self.alpha, ys[i], ys[(i + 1) % n]))
                out.add((self.alpha, ys[(i + 1) % n], ys[i]))
        return out


def _recurrence_line(p, alpha, y0, y1):
    """The periodic middle-coordinate line through (y0, y1)."""
    ys = [y0]
    prev, cur = y0, y1
    while (prev, cur) != (y0, y1) or len(ys) == 1:
        ys.append(cur)
        prev, cur = cur, (alpha * cur - prev) % p
    ys.pop()  # the closing y0 duplicate
    return tuple(ys)


def first_coord_parameterize(p, kappa, seed):
    """Classify and parameterize the first-coordinate orbit of `seed`.

    Case 1: alpha^2 differs from both 4 and kappa (generic rotation);
    case 2: alpha^2 = kappa (the y=0 spike is on the line);
    case 3: alpha^2 = 4 (the lines are arithmetic progressions).
    Test oracle: its triples are compared with `orbit_of(seed, p, "gamma_x")`.
    """
    F = field(p)
    kappa %= p
    alpha, beta, gamma = (v % p for v in seed)
    if not is_markoff((alpha, beta, gamma), p, kappa):
        raise ValueError("seed is not on the surface")
    a2 = alpha * alpha % p
    if a2 == 4 % p:
        case = 3
        order = None
    else:
        case = 2 if a2 == kappa else 1
        order = F.rotation_order(alpha)
    line = _recurrence_line(p, alpha, beta, gamma)
    lines = [line]
    neg = ((-beta) % p, (-gamma) % p)
    pairs = {(line[i], line[(i + 1) % len(line)]) for i in range(len(line))}
    if neg not in pairs and (neg[1], neg[0]) not in pairs:
        lines.append(_recurrence_line(p, alpha, neg[0], neg[1]))
    if order is None:
        order = sum(len(l) for l in lines)
    return FirstCoordNest(case=case, alpha=alpha, order=order, lines=tuple(lines))


# ---------------------------------------------------------------------------
# span comparison for the orbit-count vectors


def x_vector(value, p):
    """Column of powers of `value`, length (p+1)/2, with 0^0 = 1."""
    n = (p + 1) // 2
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * value % p
    return out


def y_surface_vector(p):
    """Central-binomial column: coordinate i is binom(2i, i) mod p."""
    field(p)  # raises unless p is an odd prime
    return [comb(2 * i, i) % p for i in range((p + 1) // 2)]


def full_surface_vector(p):
    """The count vector of the whole surface: central binomials with the top
    coordinate bumped by one.

    The binomial form comes from summing (zeta + 1/zeta)^(2i) over the
    multiplicative group; at 2i = p - 1 the power-sum identity degenerates
    and leaves an extra unit in the top coordinate.  Checked exhaustively
    for p <= 31 in the tests.
    """
    v = y_surface_vector(p)
    v[-1] = (v[-1] + 1) % p
    return v


def orbit_count_vector(orbit, p):
    """sum_alpha c(alpha) * x_(alpha^2) for one orbit, as a length-(p+1)/2 row."""
    field(p)  # raises unless p is an odd prime
    n = (p + 1) // 2
    counts = {}
    for (x, _, _) in orbit:
        counts[x] = counts.get(x, 0) + 1
    out = [0] * n
    for alpha, c in counts.items():
        a2 = alpha * alpha % p
        power = 1
        for i in range(n):
            out[i] = (out[i] + c * power) % p
            power = power * a2 % p
    return out


def expected_pperp_span(p, kappa):
    """Predicted spanning vectors of the orbit-count space at (p, kappa)."""
    F = field(p)
    kappa %= p
    vecs = [full_surface_vector(p)]
    if F.quad_char(kappa) >= 0:
        x0, xk = x_vector(0, p), x_vector(kappa, p)
        vecs.append([(2 * a + b) % p for a, b in zip(x0, xk)])
    gp = _golden_pair(p)
    x0, x1 = x_vector(0, p), x_vector(1, p)
    if kappa == 2 % p:
        # counts in the finite family: 0 appears 4 times, +-1 twelve times
        vecs.append([(2 * a + 6 * b) % p for a, b in zip(x0, x1)])
    elif gp is not None and kappa in ((2 + gp[0]) % p, (2 + gp[1]) % p) and kappa != 3 % p:
        for g in gp:
            if kappa == (2 + g) % p:
                xg = x_vector(g * g % p, p)
                vecs.append([(2 * a + 3 * b + 5 * c) % p for a, b, c in zip(x0, x1, xg)])
    elif kappa == 3 % p:
        if F.quad_char(2) >= 0:
            x2 = x_vector(2, p)
            vecs.append([(2 * a + 3 * b + 4 * c) % p for a, b, c in zip(x0, x1, x2)])
        if gp is not None:
            xg = x_vector(gp[0] * gp[0] % p, p)
            xgb = x_vector(gp[1] * gp[1] % p, p)
            vecs.append(
                [(2 * a + 6 * b + 5 * c + 5 * d) % p for a, b, c, d in zip(x0, x1, xg, xgb)]
            )
    return vecs


def pperp_check(p, kappa):
    """Compare the orbit-count span with its predicted spanning set.  Test
    oracle: checked on the `orbit_decomposition` counts for p <= 17."""
    kappa %= p
    if kappa == 4 % p:
        raise ValueError("kappa = 4 is excluded")
    decomp = orbit_decomposition(p, kappa, "gamma")
    observed = [orbit_count_vector(o, p) for o in decomp]
    obs_basis, _, _ = rref_mod(observed, p)
    exp_basis, _, _ = rref_mod(expected_pperp_span(p, kappa), p)
    return {
        "p": p,
        "kappa": kappa,
        "observed_rank": len(obs_basis),
        "expected_rank": len(exp_basis),
        "equal": obs_basis == exp_basis,
    }
