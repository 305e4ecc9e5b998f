import hashlib
import json
import random

import numpy as np
import pytest

from markoffmodp import nielsen
from markoffmodp.nielsen import (
    GroupTable,
    commutator_trace,
    generates,
    group_table,
    mat_inv,
    mat_mul,
    nielsen_orbits,
    pair_for_triple,
    sl2_elements,
    trace_triple,
)
from markoffmodp.orbits import _positions, classify_nonessential, surface_points, vieta_move


def _tuple_orbits(p):
    """kappa -> `nielsen_orbits` result, by a breadth-first search over
    tuple pairs with `mat_mul`/`mat_inv` and the literal commutator
    A B A^-1 B^-1, sharing no code with the tables."""
    els = sl2_elements(p)
    ident = (1, 0, 0, 1)

    def comm_trace(A, B):
        c = mat_mul(mat_mul(A, B, p), mat_mul(mat_inv(A, p), mat_inv(B, p), p), p)
        return (c[0] + c[3]) % p

    def generated(A, B):
        seen, stack = {ident}, [ident]
        while stack:
            u = stack.pop()
            for w in (mat_mul(u, A, p), mat_mul(u, B, p)):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    remaining = {(A, B) for A in els for B in els if comm_trace(A, B) != 2}
    sizes = {}
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        count, frontier = 1, [seed]
        while frontier:
            nxt = []
            for A, B in frontier:
                for q in ((A, mat_mul(A, B, p)), (B, A), (mat_inv(A, p), B)):
                    if q in remaining:
                        remaining.discard(q)
                        nxt.append(q)
            count += len(nxt)
            frontier = nxt
        if generated(*seed) == len(els):
            sizes.setdefault((comm_trace(*seed) + 2) % p, []).append(count)
    return {k: {"p": p, "kappa": k, "orbit_count": len(sizes.get(k, [])),
                "orbit_sizes": sorted(sizes.get(k, []))}
            for k in range(p) if k != 4 % p}


def test_group_order():
    for p in (3, 5, 7):
        els = sl2_elements(p)
        assert len(els) == p * (p * p - 1)
        assert len(set(els)) == len(els)


def test_group_order_checked(monkeypatch):
    els = sl2_elements(5)
    for broken in (els[1:], els[:1] + els[:-1]):
        monkeypatch.setattr(nielsen, "sl2_elements", lambda p, broken=broken: broken)
        with pytest.raises(ArithmeticError):
            GroupTable(5)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_table_matches_tuple_arithmetic(p):
    g = group_table(p)
    els = g.elements
    assert [els[k] for k in g.inv] == [mat_inv(u, p) for u in els]
    assert g.trace.tolist() == [(u[0] + u[3]) % p for u in els]
    assert els[g.identity] == (1, 0, 0, 1)
    n = g.order
    if p == 11:
        rng = random.Random(11)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    assert all(els[g.mul[i, j]] == mat_mul(els[i], els[j], p) for i, j in pairs)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_commutator_traces_match_oracle(p):
    g = GroupTable(p)
    comm, els, n = g.commutator_traces, g.elements, g.order
    assert comm.dtype == np.uint8 and comm.shape == (n, n)
    if p == 5:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        rng = random.Random(p)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    assert all(comm[i, j] == commutator_trace(els[i], els[j], p) for i, j in pairs)


def test_orbits_pinned():
    # every kappa at p in {3, 5, 7, 11}, hashed as recorded before the
    # commutator traces were tabulated once per p
    results = [nielsen_orbits(p, k) for p in (3, 5, 7, 11) for k in range(p) if k != 4 % p]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == "d3a8c21da1bc7ab2b94df4a6fae81074f0e41feb8c6d64132c67c2073925849d"


def test_pair_index_matches_positions():
    # the packed-bit rank against a binary search over the sorted pair ids
    comm = group_table(7).commutator_traces
    rng = np.random.default_rng(7)
    for target in range(7):
        mask = comm == target
        ids = np.flatnonzero(mask).astype(np.int32)
        values = rng.choice(ids, 5000)
        got = nielsen._pair_index(mask)(values)
        assert got.dtype == np.int32
        assert np.array_equal(got, _positions(ids, values))
        assert np.array_equal(nielsen._pair_index(mask)(ids), np.arange(ids.size))
        absent = np.flatnonzero(~mask)[[0, -1]].astype(np.int32)
        for v in absent:
            with pytest.raises(ArithmeticError):
                nielsen._pair_index(mask)(np.array([ids[0], v], dtype=np.int32))


def test_orbits_refuse_an_image_outside_the_stratum(monkeypatch):
    # a wrong inverse table sends (A, B) to a pair (A', B) whose commutator
    # trace differs, off the stratum: the lookup refuses it rather than
    # merging the pair with another
    g = GroupTable(5)
    g.inv = np.roll(g.inv, 1)
    monkeypatch.setitem(nielsen._TABLES, 5, g)
    with pytest.raises(ArithmeticError):
        nielsen_orbits(5, 0)


@pytest.mark.parametrize("move", ([0, 0, 2], [1, 3, 0], [1, 2]))
def test_pair_labels_refuse_non_permutation(move):
    ident = np.arange(3, dtype=np.int32)
    with pytest.raises(ValueError):
        nielsen._pair_labels([ident, np.array(move, dtype=np.int32)])


def test_orbits_refuse_a_move_that_is_not_a_permutation(monkeypatch):
    # a wrong product A*B' in place of A*B, where (A, B) and (A, B') share
    # the commutator trace: (A, AB) lands in the stratum, on the image of
    # (A, B'), so only the permutation check sees it
    g = GroupTable(5)
    comm = g.commutator_traces
    i, j = 1, 2
    j2 = next(k for k in range(g.order) if k != j and comm[i, k] == comm[i, j])
    g.mul[i, j] = g.mul[i, j2]
    monkeypatch.setitem(nielsen._TABLES, 5, g)
    with pytest.raises(ValueError, match="not a permutation"):
        nielsen_orbits(5, (int(comm[i, j]) + 2) % 5)


@pytest.mark.parametrize("p", (5, 7))
def test_orbits_match_tuple_bfs(p):
    expected = _tuple_orbits(p)
    assert {k: nielsen_orbits(p, k) for k in expected} == expected


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        nielsen_orbits(9, 1)
    with pytest.raises(ValueError):
        generates((1, 1, 0, 1), (1, 0, 1, 1), 9)


def test_trace_triple_examples():
    assert trace_triple((1, 0, 0, 1), (1, 0, 0, 1), 5) == (2, 2, 2)
    assert trace_triple((1, 1, 0, 1), (1, 0, 1, 1), 5) == (2, 2, 3)


def test_fricke_identity():
    rng = random.Random(1)
    els = sl2_elements(7)
    for _ in range(300):
        A, B = rng.choice(els), rng.choice(els)
        x, y, z = trace_triple(A, B, 7)
        k = commutator_trace(A, B, 7)
        assert (x * x + y * y + z * z - x * y * z - k - 2) % 7 == 0


def test_moves_project_to_coordinate_moves():
    # (A, B) -> (A, AB) projects to (x, y, z) -> (x, z, xz - y) and the
    # inversion move projects to the third-coordinate involution
    rng = random.Random(2)
    p = 7
    els = sl2_elements(p)
    for _ in range(200):
        A, B = rng.choice(els), rng.choice(els)
        x, y, z = trace_triple(A, B, p)
        t1 = trace_triple(A, mat_mul(A, B, p), p)
        assert t1 == (x, z, (x * z - y) % p)
        t2 = trace_triple(B, A, p)
        assert t2 == (y, x, z)
        t3 = trace_triple(mat_inv(A, p), B, p)
        assert t3 == vieta_move((x, y, z), 2, p)


def test_generates():
    assert not generates((1, 0, 0, 1), (1, 0, 0, 1), 5)
    assert generates((1, 1, 0, 1), (1, 0, 1, 1), 5)


def test_generates_bound():
    with pytest.raises(ResourceWarning):
        generates((1, 0, 0, 1), (1, 0, 0, 1), 17)


def test_commutator_trace_constant_on_orbits():
    g = group_table(5)
    rng = random.Random(3)
    for _ in range(50):
        A, B = rng.choice(g.elements), rng.choice(g.elements)
        k = commutator_trace(A, B, 5)
        moves = [
            (A, mat_mul(A, B, 5)),
            (B, A),
            (mat_inv(A, 5), B),
        ]
        for A2, B2 in moves:
            assert commutator_trace(A2, B2, 5) == k


def test_orbit_counts_p5():
    assert nielsen_orbits(5, 0)["orbit_count"] == 2  # p = 1 mod 4 doubling
    assert nielsen_orbits(5, 3)["orbit_count"] == 1
    assert nielsen_orbits(5, 2)["orbit_count"] == 0  # no generating pairs


def test_orbit_counts_p7():
    for kappa in range(7):
        if kappa == 4:
            continue
        res = nielsen_orbits(7, kappa)
        expect = 2 if kappa == 0 and 7 % 4 == 1 else 1
        assert res["orbit_count"] in (0, expect), res


def test_orbits_bound():
    with pytest.raises(ResourceWarning):
        nielsen_orbits(13, 0)


def test_kappa_four_rejected():
    with pytest.raises(ValueError):
        nielsen_orbits(5, 4)


def test_pair_lift_and_essentiality():
    rng = random.Random(4)
    for p in (5, 7):
        for kappa in (0, 1, 2, 3):
            if kappa == 4 % p:
                continue
            pts = surface_points(p, kappa)
            rng.shuffle(pts)
            for t in pts[:10]:
                A, B = pair_for_triple(t, p)
                assert trace_triple(A, B, p) == t
                if generates(A, B, p):
                    assert classify_nonessential(t, p, kappa) == "essential"


def test_category_one_triples_never_generate():
    # any pair over an axis triple generates a proper subgroup
    p = 13
    F_sq = 3  # 3^2 = 9: use kappa = 9 so (3, 0, 0) is on the surface
    A, B = pair_for_triple((3, 0, 0), p)
    assert trace_triple(A, B, p) == (3, 0, 0)
    assert not generates(A, B, p)
