import hashlib
import json
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markoffmodp import orbits
from markoffmodp.ffield import field, is_prime, rref_mod
from markoffmodp.orbits import (
    SURFACE_BOUND,
    _components,
    _decode,
    _encode,
    _expand,
    _GENS,
    _positions,
    _surface_codes,
    _surface_index,
    _vieta_images,
    classify_nonessential,
    enumerate_orbits,
    first_coord_parameterize,
    full_surface_vector,
    is_markoff,
    main1_expected_seeds,
    nonessential_sets,
    orbit_count_vector,
    orbit_decomposition,
    orbit_of,
    pperp_check,
    surface_points,
    verify_main1,
    vieta_move,
    y_surface_vector,
)


SMALL = (5, 7, 11, 13)
PRIMES_31 = [p for p in range(3, 32) if is_prime(p)]


def _bfs_partition(p, kappa, generators):
    """The surface split into `orbit_of` closures, sorted by least member:
    the reference for `orbit_decomposition`."""
    remaining = set(surface_points(p, kappa))
    out = []
    while remaining:
        orb = orbit_of(min(remaining), p, generators)
        out.append(frozenset(orb))
        remaining -= orb
    return sorted(out, key=min)


def _main1_from_partition(p, kappa):
    """`verify_main1` recomputed with frozensets over the `orbit_of` partition."""
    kappa %= p
    decomp = _bfs_partition(p, kappa, "vieta")
    noness = set()
    for pts in nonessential_sets(p, kappa).values():
        noness |= pts
    seed_triples = set()
    for _, s in main1_expected_seeds(p, kappa):
        seed_triples |= _expand(s, p)
    essential_orbits = 0
    clean_split = seeds_cover = True
    for orb in decomp:
        inter = len(orb & noness)
        if inter == 0:
            essential_orbits += 1
        elif inter != len(orb):
            clean_split = False
        elif not orb & seed_triples:
            seeds_cover = False
    return {
        "p": p,
        "kappa": kappa,
        "orbit_count": len(decomp),
        "orbit_sizes": sorted(len(o) for o in decomp),
        "exceptional_orbits": len(decomp) - essential_orbits,
        "essential_orbits": essential_orbits,
        "matches": clean_split and seeds_cover and essential_orbits <= 1,
    }


class TestMoves:
    def test_fixed_point(self):
        assert vieta_move((0, 0, 0), 2, 7) == (0, 0, 0)

    def test_example_mod_7(self):
        t = vieta_move((3, 3, 3), 0, 7)
        assert t == (6, 3, 3)
        assert is_markoff(t, 7, 0)

    @given(st.sampled_from(SMALL), st.integers(0, 12), st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_closure(self, p, kappa, idx):
        kappa %= p
        pts = surface_points(p, kappa)
        if not pts:
            return
        t = pts[idx % len(pts)]
        for axis in range(3):
            u = vieta_move(t, axis, p)
            assert is_markoff(u, p, kappa)
            assert vieta_move(u, axis, p) == t


class TestEnumeration:
    @pytest.mark.parametrize("p", SMALL)
    def test_counting_formula(self, p):
        F = field(p)
        for kappa in range(p):
            pts = surface_points(p, kappa)
            assert pts == [t for t in product(range(p), repeat=3) if is_markoff(t, p, kappa)]
            cnt = Counter(x for (x, _, _) in pts)
            sk = F.sqrt(kappa)
            for a in range(p):
                if a in (2 % p, (p - 2) % p):
                    continue
                if sk is not None and a in (sk, (p - sk) % p):
                    continue
                assert cnt.get(a, 0) == p - F.quad_char((a * a - 4) % p)

    def test_two_orbits_at_seven_zero(self):
        rep = enumerate_orbits(7, 0)
        assert len(rep["orbits"]) == 2
        assert rep["orbits"][0]["rep"] == [0, 0, 0]
        assert rep["orbits"][0]["size"] == 1
        assert rep["orbits"][0]["category"] == "1"
        assert rep["orbits"][1]["essential"]

    def test_kappa_two_contains_ones_orbit(self):
        rep = enumerate_orbits(5, 2)
        assert any(o["category"] == "2" for o in rep["orbits"])
        orb = orbit_of((1, 1, 1), 5, "gamma")
        assert (1, 1, 0) in orb

    def test_kappa_three_mod_7(self):
        # sqrt(2) = 3 mod 7; golden entries need sqrt(5), absent mod 7
        rep = enumerate_orbits(7, 3)
        cats = {o["category"] for o in rep["orbits"]}
        assert "5a" in cats and "5b" not in cats

    def test_kappa_four_rejected(self):
        with pytest.raises(ValueError):
            enumerate_orbits(7, 4)

    def test_surface_bound(self):
        # the desk-scale range p <= 101 stays inside the bound
        assert SURFACE_BOUND > 101
        assert verify_main1(101, 5)["matches"]
        for p in (409, 100003):
            with pytest.raises(ResourceWarning):
                verify_main1(p, 1)
            with pytest.raises(ResourceWarning):
                surface_points(p, 1)

    def test_report_json_shape(self):
        data = enumerate_orbits(5, 0)
        assert data["p"] == 5 and data["kappa"] == 0
        assert {"rep", "size", "essential", "category", "counts"} <= set(data["orbits"][0])
        assert sum(o["size"] for o in data["orbits"]) == data["total"]


class TestOrbitKernel:
    @pytest.mark.parametrize("p", PRIMES_31)
    def test_decomposition_matches_bfs(self, p):
        for kappa in range(p):
            for gens in ("gamma", "vieta", "gamma_x"):
                assert orbit_decomposition(p, kappa, gens) == _bfs_partition(p, kappa, gens), \
                    (p, kappa, gens)

    @pytest.mark.parametrize("p", (97, 101))
    def test_decomposition_matches_bfs_large(self, p):
        for kappa in random.Random(p).sample(range(p), 3):
            assert orbit_decomposition(p, kappa, "vieta") == _bfs_partition(p, kappa, "vieta")

    def test_main1_desk_scale_pinned(self):
        # every (p, kappa) of the benchmark's desk-scale sweep, hashed as
        # recorded before the surface index replaced the binary search
        results = [verify_main1(p, k) for p in range(5, 102) if is_prime(p)
                   for k in range(p) if k != 4 % p]
        assert len(results) == 1132
        digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        assert digest == "83c5dfe541d2e244399e2a0461ecc9b5e7efa990170e670ea629804450d7fb5e"

    @pytest.mark.parametrize("p", PRIMES_31 + [37])
    def test_main1_matches_bfs(self, p):
        for kappa in range(p):
            if kappa != 4 % p:
                assert verify_main1(p, kappa) == _main1_from_partition(p, kappa), (p, kappa)

    def test_components_small(self):
        swap = np.array([1, 0, 2, 3, 4, 5], dtype=np.int32)
        shift = np.array([0, 2, 1, 3, 5, 4], dtype=np.int32)
        assert _components([swap, shift]).tolist() == [0, 0, 0, 3, 4, 4]

    @pytest.mark.parametrize("move", ([0, 0, 2], [1, 3, 0], [1, 2]))
    def test_components_refuses_non_permutation(self, move):
        ident = np.arange(3, dtype=np.int32)
        with pytest.raises(ValueError):
            _components([ident, np.array(move, dtype=np.int32)])

    def test_lookup_refuses_missing_image(self):
        p = 11
        codes = _surface_codes(p, 1)
        for drop in (0, 1, codes.size // 2, codes.size - 1):
            dropped = np.delete(codes, drop)
            images = [_encode(t, p) for t in _vieta_images(_decode(dropped, p), p)]
            for lookup in (_surface_index(dropped, p), lambda v: _positions(dropped, v)):
                with pytest.raises(ArithmeticError):
                    for img in images:
                        lookup(img)
        # off the surface: a third z beside an (x, y) that has points, an
        # (x, y) that has none, and a code past the last one
        absent = np.setdiff1d(np.arange(p**3, dtype=np.int32), codes)
        shared = np.isin(absent // p, codes // p)
        for code in (absent[shared][0], absent[~shared][0], codes[-1] + 1):
            off = np.array([code], dtype=np.int32)
            for lookup in (_surface_index(codes, p), lambda v: _positions(codes, v)):
                with pytest.raises(ArithmeticError):
                    lookup(off)

    @pytest.mark.parametrize("p", PRIMES_31)
    def test_surface_index_matches_positions(self, p):
        for kappa in range(p):
            codes = _surface_codes(p, kappa)
            index = _surface_index(codes, p)
            for gens in _GENS:
                for t in _GENS[gens](_decode(codes, p), p):
                    img = _encode(t, p)
                    got = index(img)
                    assert got.dtype == np.int32
                    assert np.array_equal(got, _positions(codes, img)), (p, kappa, gens)


class TestNonessential:
    def test_off_surface_seed_refused(self, monkeypatch):
        # wrong golden roots put the kappa = 2 + g seeds off the surface
        monkeypatch.setattr(orbits, "_golden_pair", lambda p: (7, 4))
        with pytest.raises(ValueError):
            nonessential_sets(11, 9)

    def test_axis_category(self):
        assert classify_nonessential((3, 0, 0), 11, 9) == "1"

    def test_kappa_two_category(self):
        assert classify_nonessential((1, 1, 0), 7, 2) == "2"
        assert classify_nonessential((1, 1, 1), 7, 2) == "2"

    def test_closed_under_full_move_group(self):
        for p, kappa in ((11, 2), (11, 3), (13, 0), (19, 3)):
            sets = nonessential_sets(p, kappa)
            for tag, pts in sets.items():
                for t in pts:
                    for orbimg in orbit_of(t, p, "gamma"):
                        assert classify_nonessential(orbimg, p, kappa) != "essential", (tag, t)

    def test_max_order_coordinate_is_essential(self):
        rng = random.Random(17)
        for p in (11, 13):
            F = field(p)
            for kappa in (1, 5):
                pts = [t for t in surface_points(p, kappa)
                       if F.rotation_order(t[0]) in (p - 1, p + 1)]
                for t in rng.sample(pts, min(5, len(pts))):
                    assert classify_nonessential(t, p, kappa) == "essential"


class TestMain1:
    @pytest.mark.parametrize("p", SMALL)
    def test_small_sweep(self, p):
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            assert verify_main1(p, kappa)["matches"], (p, kappa)

    def test_expected_seeds_exist_on_surface(self):
        for p in (11, 13, 19, 29, 31):
            for kappa in range(p):
                if kappa == 4 % p:
                    continue
                for tag, seed in main1_expected_seeds(p, kappa):
                    assert is_markoff(seed, p, kappa), (p, kappa, tag, seed)

    def test_golden_families_merge_at_five(self):
        # at p = 5 the golden families are essential: the whole nonzero
        # surface at kappa = 0 is one orbit plus the origin
        rep = enumerate_orbits(5, 0, "vieta")
        sizes = sorted(o["size"] for o in rep["orbits"])
        assert sizes == [1, 40]
        assert sum(1 for o in rep["orbits"] if o["essential"]) == 1


class TestParameterization:
    @pytest.mark.parametrize("p", (5, 7, 11, 13, 17))
    def test_matches_bfs(self, p):
        rng = random.Random(p)
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            pts = surface_points(p, kappa)
            for _ in range(5):
                seed = rng.choice(pts)
                nest = first_coord_parameterize(p, kappa, seed)
                assert nest.triples(p) == orbit_of(seed, p, "gamma_x")

    def test_case_classification(self):
        F = field(11)
        s = F.sqrt(5)
        nest = first_coord_parameterize(11, 5, (s, 0, 0))
        assert nest.case == 2
        nest2 = first_coord_parameterize(11, 5, (2, 1, 0)) if is_markoff((2, 1, 0), 11, 5) else None
        pts = [t for t in surface_points(11, 5) if t[0] == 2]
        if pts:
            assert first_coord_parameterize(11, 5, pts[0]).case == 3

    def test_orbit_size_divides(self):
        for p in (7, 11, 13):
            F = field(p)
            for kappa in (0, 2, 3, 5):
                if kappa == 4 % p:
                    continue
                for orb in orbit_decomposition(p, kappa, "gamma_x"):
                    a = min(orb)[0]
                    assert (2 * (p - F.quad_char((a * a - 4) % p))) % len(orb) == 0

    def test_unique_orbit_at_max_order(self):
        for p in (11, 13):
            F = field(p)
            for kappa in (1, 2, 5):
                pts = surface_points(p, kappa)
                sk = F.sqrt(kappa)
                for a in range(p):
                    if F.rotation_order(a) not in (p - 1, p + 1):
                        continue
                    if sk is not None and a in (sk, (p - sk) % p):
                        continue
                    slice_pts = {t for t in pts if t[0] == a}
                    if slice_pts:
                        assert orbit_of(min(slice_pts), p, "gamma_x") == slice_pts


class TestSpans:
    def test_full_surface_vector(self):
        for p in (5, 7, 11, 13, 17):
            for kappa in range(p):
                if kappa == 4 % p:
                    continue
                v = orbit_count_vector(surface_points(p, kappa), p)
                assert v == full_surface_vector(p), (p, kappa)

    def test_full_vector_is_binomials_plus_top_bump(self):
        for p in (7, 11, 31):
            v = full_surface_vector(p)
            ym = y_surface_vector(p)
            assert v[:-1] == ym[:-1]
            assert v[-1] == (ym[-1] + 1) % p

    def test_odd_powers_sum_to_zero(self):
        # the double sign change makes odd first-coordinate power sums vanish
        for p, kappa in ((11, 3), (13, 7)):
            for orb in orbit_decomposition(p, kappa, "gamma"):
                for e in (1, 3, 5):
                    assert sum(pow(t[0], e, p) for t in orb) % p == 0

    def test_sign_flip_reachable_when_order_divisible_by_four(self):
        for p, kappa in ((13, 2), (17, 3)):
            F = field(p)
            pts = surface_points(p, kappa)
            for t in pts[:40]:
                a = t[0]
                if F.rotation_order(a) % 4 == 0 and t[1] and t[2]:
                    orb = orbit_of(t, p, "vieta")
                    assert (a, (-t[1]) % p, (-t[2]) % p) in orb

    @pytest.mark.parametrize("p,kappa", [(7, 0), (11, 5), (13, 2), (13, 3), (11, 3)])
    def test_pperp_examples(self, p, kappa):
        res = pperp_check(p, kappa)
        assert res["equal"], res

    def test_pperp_sweep(self):
        for p in (5, 7, 11, 13, 17):
            for kappa in range(p):
                if kappa == 4 % p:
                    continue
                assert pperp_check(p, kappa)["equal"], (p, kappa)

    def test_rref_subspace_comparison(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        basis, pivots, _ = rref_mod(rows, 7)
        assert pivots == [0, 1]
        basis2, _, _ = rref_mod([[1, 0, 1], [0, 1, 1]], 7)
        assert basis == basis2
