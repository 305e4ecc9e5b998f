"""Markoff triples over F_p: enumeration, moves, orbits, and span checks.

A triple (x, y, z) solves x^2 + y^2 + z^2 = x*y*z + kappa.  The full move
group is generated by the three coordinate moves (each replaces one
coordinate by the product of the other two minus itself), coordinate
permutations, and the double sign change; `vieta` restricts to the three
coordinate moves alone, and `gamma_x` to the stabilizer of the first
coordinate.

Orbits are labelled on the sorted array of surface codes (x*p + y)*p + z.
A move image is found in it without a search: the at most two points of one
(x, y) sit next to each other, so a table of where each (x, y) starts, plus
one comparison with the first of them, gives its index (`_surface_index`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .ffield import field, rref_mod

# Largest p for a surface enumeration: the surface has about p^2 points, and
# the bound keeps their codes below 2^31.  At p = 397 one `verify_main1` takes
# about 0.08 s (0.06 s of it labelling orbits) and peaks at 40 MB of process
# RSS; `orbit_decomposition` takes about 0.26 s and 64 MB, mostly for the
# tuple frozensets (kappa 1, 5 and 200, each in a fresh process; shared 2-vCPU
# VM, Python 3.11.7, numpy 2.4).  `verify-main1` without --kappa runs one
# check per kappa.
SURFACE_BOUND = 400


def vieta_move(t, axis, p):
    """Replace one coordinate by the other root of its quadratic.  Test
    oracle: checked as a surface involution and as the image of a pair move."""
    x, y, z = t
    if axis == 0:
        return ((y * z - x) % p, y, z)
    if axis == 1:
        return (x, (x * z - y) % p, z)
    return (x, y, (x * y - z) % p)


def is_markoff(t, p, kappa):
    x, y, z = t
    return (x * x + y * y + z * z - x * y * z - kappa) % p == 0


def _encode(t, p):
    """Code (x*p + y)*p + z of triples; sorting by code sorts the triples."""
    x, y, z = t
    return (x * p + y) * p + z


def _decode(codes, p):
    return codes // (p * p), codes // p % p, codes % p


def _surface_codes(p, kappa):
    """Sorted int32 codes of all solutions, found by solving the z-quadratic
    for each (x, y).  Resource-guarded: p above SURFACE_BOUND raises
    ResourceWarning, which also keeps p^3 below 2^31."""
    field(p)  # raises unless p is an odd prime
    if p > SURFACE_BOUND:
        raise ResourceWarning(f"p = {p} exceeds the surface bound {SURFACE_BOUND}")
    kappa %= p
    # root[v] is the smaller square root of v, or -1 for a nonsquare
    root = np.full(p, -1, dtype=np.int64)
    r = np.arange((p + 1) // 2, dtype=np.int64)
    root[r * r % p] = r
    x, y = np.divmod(np.arange(p * p, dtype=np.int64), p)
    x2, y2 = x * x % p, y * y % p
    s = root[(x2 * y2 - 4 * (x2 + y2 - kappa)) % p]
    on = s >= 0
    x, y, s = x[on], y[on], s[on]
    base, inv2 = x * y % p, (p + 1) // 2
    two = s > 0
    z1 = (base + s) * inv2 % p
    z2 = (base[two] - s[two]) * inv2 % p
    codes = np.concatenate([_encode((x, y, z1), p), _encode((x[two], y[two], z2), p)])
    codes.sort()
    return codes.astype(np.int32)


def _tuples(codes, p):
    return list(zip(*(c.tolist() for c in _decode(codes, p))))


def surface_points(p, kappa):
    """All solutions as (x, y, z) tuples in increasing order.
    Resource-guarded like `orbit_decomposition`."""
    return _tuples(_surface_codes(p, kappa), p)


def _gamma_images(t, p):
    x, y, z = t
    return (
        ((y * z - x) % p, y, z),
        (x, (x * z - y) % p, z),
        (x, y, (x * y - z) % p),
        (y, x, z),
        (x, z, y),
        (x, (-y) % p, (-z) % p),
    )


def _vieta_images(t, p):
    x, y, z = t
    return (
        ((y * z - x) % p, y, z),
        (x, (x * z - y) % p, z),
        (x, y, (x * y - z) % p),
    )


def _gamma_x_images(t, p):
    x, y, z = t
    return (
        (x, z, y),
        (x, (x * z - y) % p, z),
        (x, y, (x * y - z) % p),
        (x, (-y) % p, (-z) % p),
    )


_GENS = {"gamma": _gamma_images, "vieta": _vieta_images, "gamma_x": _gamma_x_images}


def orbit_of(t, p, generators="gamma"):
    """BFS closure of a single triple under the chosen generator set.  Test
    oracle: its partition of the surface is compared with
    `orbit_decomposition`."""
    images = _GENS[generators]
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for v in images(u, p):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def _positions(keys, values):
    """Index of each value in the sorted unique array `keys`, as int32, by
    binary search.  Raises ArithmeticError when a value is absent, so nothing
    is merged with a wrong neighbour.  `nielsen_orbits` finds pair ids with
    it; the tests compare `_surface_index` with it."""
    pos = np.searchsorted(keys, values)
    if values.size and (pos.max() >= keys.size or not np.array_equal(keys[pos], values)):
        raise ArithmeticError("a move image is not in the point set")
    return pos.astype(np.int32)


def _components(moves):
    """Orbit labels of the group that the index maps `moves` generate.

    Each move must permute range(N).  The result maps every index to the
    least index of its orbit.  Each round takes lab = min(lab, lab[move])
    over the moves, then jumps pointers (lab = lab[lab]).  At the fixed
    point lab <= lab[move] for every move, and as each move permutes the
    points its cycles close, so labels are constant on orbits; a label is
    always a member of its index's orbit, so the constant is the least one.
    """
    n = moves[0].size
    for m in moves:
        if m.shape != (n,) or not (np.bincount(m, minlength=n) == 1).all():
            raise ValueError("a move is not a permutation of the points")
    lab = np.arange(n, dtype=np.int32)
    while True:
        new = lab
        for m in moves:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _surface_index(codes, p):
    """The lookup that maps codes of surface points to their indices in the
    sorted unique codes `codes`, as int32, in O(1) per code.

    Sorting puts the at most two points of one (x, y) next to each other,
    smaller z first, so start[x*p + y] (a count of the codes below x*p + y,
    from `np.bincount` and `np.cumsum`) is the index of the first, and a code
    that differs from it is the second.  The lookup raises ArithmeticError
    when a value is absent, so nothing is merged with a wrong neighbour.
    Values must lie in range(p^3), as every code does.
    """
    start = np.zeros(p * p + 1, dtype=np.int32)
    np.cumsum(np.bincount(codes // p, minlength=p * p), out=start[1:])

    def lookup(values):
        pos = start[values // p]
        pos += codes.take(pos, mode="clip") != values
        if values.size and (pos.max() >= codes.size or not np.array_equal(codes[pos], values)):
            raise ArithmeticError("a move image is not in the point set")
        return pos

    return lookup


def _orbit_labels(p, kappa, generators):
    """Sorted surface codes, their `_surface_index` lookup, and the
    `_components` labels of their orbits."""
    codes = _surface_codes(p, kappa)
    index = _surface_index(codes, p)
    images = _GENS[generators](_decode(codes, p), p)
    return codes, index, _components([index(_encode(t, p)) for t in images])


def orbit_decomposition(p, kappa, generators="gamma"):
    """Partition the surface into orbits; each orbit is a frozenset, and the
    list is sorted by least member.  Resource-guarded: p above SURFACE_BOUND
    raises ResourceWarning."""
    codes, _, lab = _orbit_labels(p, kappa, generators)
    orbits = {}
    # a label is the index of its orbit's least point, and codes are sorted,
    # so labels first appear in increasing order
    for root, t in zip(lab.tolist(), _tuples(codes, p)):
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
    _, index, lab = _orbit_labels(p, kappa, "vieta")
    n = lab.size

    def per_orbit(triples):
        """How many of the given surface triples each orbit holds, by label."""
        mask = np.zeros(n, dtype=bool)
        if triples:
            mask[index(_encode(np.array(list(triples), dtype=np.int32).T, p))] = True
        return np.bincount(lab[mask], minlength=n)

    catalog = _catalog(p, kappa)
    noness = _expand_all([s for _, seeds in catalog for s in seeds], p)
    seed_triples = _expand_all([seeds[0] for _, seeds in catalog], p)

    roots = np.flatnonzero(lab == np.arange(n))
    sizes = np.bincount(lab, minlength=n)[roots]
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
    quadratic roots zeta, 1/zeta attached to alpha; `lines` holds each line
    once (a second, negated line appears when the sign change is not already
    a shift of the first).  Triples are consecutive pairs along a line, in
    both orders.
    """

    case: int
    alpha: int
    order: int
    zeta: object
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
        zeta = 1 if alpha == 2 % p else p - 1
        order = None
    else:
        case = 2 if a2 == kappa else 1
        disc = (a2 - 4) % p
        if F.quad_char(disc) == 1:
            s = F.sqrt(disc)
            zeta = (alpha + s) * F.inv(2) % p
        else:
            c = F.sqrt(disc * F.inv(F.nonresidue()) % p)
            zeta = F.ext_element(alpha * F.inv(2) % p, c * F.inv(2) % p)
        order = F.rotation_order(alpha)
    line = _recurrence_line(p, alpha, beta, gamma)
    lines = [line]
    neg = ((-beta) % p, (-gamma) % p)
    pairs = {(line[i], line[(i + 1) % len(line)]) for i in range(len(line))}
    if neg not in pairs and (neg[1], neg[0]) not in pairs:
        lines.append(_recurrence_line(p, alpha, neg[0], neg[1]))
    if order is None:
        order = sum(len(l) for l in lines)
    return FirstCoordNest(case=case, alpha=alpha, order=order, zeta=zeta, lines=tuple(lines))


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
