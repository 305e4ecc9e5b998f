import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from markoffmodp import certify as certify_mod
from markoffmodp.certify import (
    BEZOUT_BATCH,
    CERTIFY_MAX_D,
    TARGET,
    TRIAL_CHUNK,
    TRIAL_LIMIT,
    WORD_PRIME_LIMIT,
    TrailRefused,
    _crt_rows,
    _gcd_mod_q,
    _hash_payload,
    _interpolate_int,
    _limbs,
    _minor_at,
    _prime_chunks,
    _prime_sieve,
    _prime_stream,
    _residues,
    _select_minor_subsets,
    _trail_element,
    _trial_divide,
    _xgcd_resultant_batch,
    _xgcd_resultant_mod_q,
    bezout_witness,
    build_columns,
    build_plan,
    canonical_json,
    certify,
    check_mod_p,
    default_nd,
    fold_minors,
    int_bareiss_det,
    max_assignment,
    minor_determinant,
    minor_determinants,
    modular_gcd,
    recheck_errors,
    residual_divides_target,
    strip_factors,
    strip_passes,
    verdict_failures,
)
from markoffmodp.ffield import PROVEN_PRIME_BOUND, is_prime
from markoffmodp.spectral import lambda_classes
from markoffmodp.rings import (
    CycloElem,
    KPoly,
    crt_step,
    gauss_jordan_ff,
    ipoly_add,
    ipoly_content,
    ipoly_divmod_mod,
    ipoly_eval,
    ipoly_mul,
    ipoly_scale,
    ipoly_trim,
    ipoly_valuation,
)


def leibniz_det(rows):
    """Determinant as the signed sum over permutations: an oracle that
    shares no code with elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


class TestIntPolys:
    def test_kappa4_valuation(self):
        p = ipoly_mul(ipoly_mul([-4, 1], [-4, 1]), [3, 1])
        assert ipoly_valuation(p, 4) == (2, [3, 1])
        assert ipoly_valuation([5], 4) == (0, [5])

    def test_bareiss_int(self):
        assert int_bareiss_det([[2, 0], [0, 3]]) == 6
        assert int_bareiss_det([[1, 1], [1, 1]]) == 0
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert int_bareiss_det(rows) == leibniz_det(rows)


class TestModularGcd:
    def test_matches_rational_gcd(self):
        # the monic form against sympy's gcd over QQ
        sympy = pytest.importorskip("sympy")
        k = sympy.Symbol("k")
        rng = random.Random(6)
        for _ in range(15):
            g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)]
            a = ipoly_mul(g, [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)])
            b = ipoly_mul(g, [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)])
            mg = modular_gcd(a, b)
            expect = sympy.Poly(a[::-1], k, domain="QQ").gcd(sympy.Poly(b[::-1], k, domain="QQ"))
            assert [sympy.Rational(c, mg[-1]) for c in mg] == expect.monic().all_coeffs()[::-1]
            assert ipoly_content(mg) == 1 and mg[-1] > 0


class TestBezoutWitness:
    def test_identity_holds(self):
        rng = random.Random(7)
        done = 0
        while done < 4:
            A = [rng.randint(-30, 30) for _ in range(10)] + [rng.randint(1, 30)]
            B = [rng.randint(-30, 30) for _ in range(9)] + [rng.randint(1, 30)]
            if len(modular_gcd(A, B)) != 1:
                continue
            u, v, c = bezout_witness(A, B)
            assert ipoly_add(ipoly_mul(u, A), ipoly_mul(v, B)) == [c]
            assert c > 0
            g = math.gcd(math.gcd(ipoly_content(u), ipoly_content(v)), c)
            assert g == 1
            done += 1

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_against_sympy_gcdex(self, deg_a, deg_b, data):
        # the primitive triple from gcdex over Q, independent of the CRT path
        sympy = pytest.importorskip("sympy")
        coeffs = st.integers(min_value=-20, max_value=20)
        lead = st.integers(min_value=1, max_value=20)
        A = data.draw(st.lists(coeffs, min_size=deg_a, max_size=deg_a)) + [data.draw(lead)]
        B = data.draw(st.lists(coeffs, min_size=deg_b, max_size=deg_b)) + [data.draw(lead)]
        k = sympy.Symbol("k")
        pa = sympy.Poly(A[::-1], k, domain="QQ")
        pb = sympy.Poly(B[::-1], k, domain="QQ")
        s, t, h = pa.gcdex(pb)
        assume(h.degree() == 0)  # coprime
        den = math.lcm(*(sympy.fraction(c)[1] for c in s.all_coeffs() + t.all_coeffs()))
        u = ipoly_trim([int(c * den) for c in s.all_coeffs()[::-1]])
        v = ipoly_trim([int(c * den) for c in t.all_coeffs()[::-1]])
        g = math.gcd(math.gcd(ipoly_content(u), ipoly_content(v)), den)
        expect = ([x // g for x in u], [x // g for x in v], den // g)
        assert bezout_witness(A, B) == expect

    def test_huge_cofactor_over_a_unit_resultant(self, monkeypatch):
        # Res(A, B) = 1, but u has a 2,001-bit coefficient: c settles in
        # two groups, and 64 primes below 2^31 are still too few for u, so
        # the rebuilds come at 32, 64 and 128 primes, one per doubling of
        # the prime count, not one per group
        N = 2**2000 + 12345
        A, B = [1, N, 1], [1, N + 1, 1]
        rebuilds = []

        def counting(qs, rows):
            rebuilds.append(len(qs))
            return _crt_rows(qs, rows)

        monkeypatch.setattr(certify_mod, "_crt_rows", counting)
        assert bezout_witness(A, B) == ([N + 1, 1], [-N, -1], 1)
        assert rebuilds == [2 * BEZOUT_BATCH, 4 * BEZOUT_BATCH, 8 * BEZOUT_BATCH]

    @pytest.mark.parametrize("batch", [1, 16, 64])
    def test_triple_does_not_depend_on_the_group_size(self, monkeypatch, batch):
        rng = random.Random(14)
        pairs = [_coprime_pair(rng) for _ in range(12)]
        expect = [bezout_witness(A, B) for A, B in pairs]
        monkeypatch.setattr(certify_mod, "BEZOUT_BATCH", batch)
        assert [bezout_witness(A, B) for A, B in pairs] == expect
        for (A, B), (u, v, c) in zip(pairs, expect):
            assert ipoly_add(ipoly_mul(u, A), ipoly_mul(v, B)) == [c]

    @given(st.integers(min_value=1, max_value=70), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32))
    @example(count=1, width=3, seed=0)
    @example(count=7, width=2, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_product_tree_matches_crt_steps(self, count, width, seed):
        # the one-shot product tree against crt_step folded prime by prime,
        # at one prime, odd and even counts, with residues 0 and q - 1 in
        rng = random.Random(seed)
        qs = _word_primes(70)[:count]
        rows = [[rng.choice((0, q - 1, rng.randrange(q))) for _ in range(width)] for q in qs]
        acc, mod = [0] * width, 1
        for q, row in zip(qs, rows):
            acc = crt_step(acc, mod, row, q)
            mod *= q
        assert _crt_rows(qs, rows) == acc


def _scalar_images(A, B):
    """The image stream of bezout_witness, one scalar Euclid per prime:
    rows of u's deg B entries, then r."""
    width = len(B) - 1
    for q in _prime_stream():
        if A[-1] % q == 0 or B[-1] % q == 0:
            continue
        got = _xgcd_resultant_mod_q(A, B, q)
        if got is not None:
            u, r = got
            yield q, u + [0] * (width - len(u)) + [r]


def _word_primes(count):
    stream = _prime_stream()
    return [next(stream) for _ in range(count)]


def _coprime_pair(rng):
    while True:
        A = [rng.randint(-99, 99) for _ in range(rng.randint(1, 12))] + [rng.randint(1, 99)]
        B = [rng.randint(-99, 99) for _ in range(rng.randint(1, 12))] + [rng.randint(1, 99)]
        if len(modular_gcd(A, B)) == 1:
            return A, B


class TestPrimeStream:
    def test_matches_the_primality_filter(self):
        plain = (q for q in itertools.count((1 << 30) + 1) if is_prime(q))
        assert list(itertools.islice(_prime_stream(), 3000)) == list(itertools.islice(plain, 3000))

    def test_ends_at_the_word_limit(self, monkeypatch):
        # the whole range, then an error: a bare return would surface as
        # RuntimeError (PEP 479) in the generators that draw from it
        limit = (1 << 30) + 10_000
        monkeypatch.setattr(certify_mod, "WORD_PRIME_LIMIT", limit)
        got = []
        with pytest.raises(ArithmeticError):
            got.extend(_prime_stream())
        assert got == [q for q in range((1 << 30) + 1, limit) if is_prime(q)]

    def test_no_primality_test_below_2_32(self, monkeypatch):
        # the whole range lies below 2^32, where the sieve alone is exact:
        # the stream never calls is_prime
        def no_primality(n):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(certify_mod, "is_prime", no_primality)
        assert len(list(itertools.islice(_prime_stream(), 2000))) == 2000


class TestBatchedEuclid:
    def _check_lanes(self, A, B, qs):
        rows, ok = _xgcd_resultant_batch(_limbs(A + B), len(A) - 1, qs)
        width = len(B) - 1
        for i, q in enumerate(qs):
            scalar = _xgcd_resultant_mod_q(A, B, q)
            if ok[i]:
                u, r = scalar
                assert rows[i].tolist() == u + [0] * (width - len(u)) + [r]
        return ok

    def test_lanes_match_scalar(self):
        rng = random.Random(12)
        qs = _word_primes(200)
        for _ in range(12):
            A, B = _coprime_pair(rng)
            lanes = [q for q in qs if A[-1] % q and B[-1] % q]
            assert self._check_lanes(A, B, lanes).all()

    @staticmethod
    def _flagged_pairs(q):
        # mod B = k^2 + 1, A = k^3 + (1 + q) k + s leaves q k + s: at the
        # prime q the remainder drops to the constant s, a lucky but abnormal
        # lane (s = 7), or vanishes, an unlucky one (s = 7 q)
        B = [1, 0, 1]
        return [([s, 1 + q, 0, 1], B, unlucky) for s, unlucky in ((7, False), (7 * q, True))]

    def test_unlucky_and_abnormal_lanes_flagged(self):
        qs = _word_primes(8)
        q = qs[3]
        for A, B, unlucky in self._flagged_pairs(q):
            assert len(modular_gcd(A, B)) == 1
            ok = self._check_lanes(A, B, qs)
            assert ok.tolist() == [i != 3 for i in range(8)]
            assert (_xgcd_resultant_mod_q(A, B, q) is None) == unlucky

    def test_witness_and_prime_sequence_match_scalar(self, monkeypatch):
        rng = random.Random(13)
        pairs = [_coprime_pair(rng) for _ in range(30)]
        # the stream's fifth prime is flagged in the batch
        pairs += [(A, B) for A, B, _ in self._flagged_pairs(_word_primes(5)[4])]
        for A, B in pairs:
            runs = []
            for images in (certify_mod._bezout_images, _scalar_images):
                used = []

                def recording(A_, B_, images=images, used=used):
                    for q, row in images(A_, B_):
                        used.append((q, [int(x) for x in row]))
                        yield q, row

                monkeypatch.setattr(certify_mod, "_bezout_images", recording)
                runs.append((bezout_witness(A, B), used))
            monkeypatch.undo()
            assert runs[0] == runs[1]
            assert len(runs[0][1]) % BEZOUT_BATCH == 0

    def test_batch_refuses_primes_past_the_word_limit(self):
        with pytest.raises(ValueError):
            least = next(q for q in itertools.count(WORD_PRIME_LIMIT + 1) if is_prime(q))
            _xgcd_resultant_batch(_limbs([1, 1, 2, 1]), 1, [least])

    def test_limb_residues_match_big_int_remainders(self):
        # negative, zero, one-limb and multi-limb coefficients, limbs that
        # are all ones, and one that is a bare power of the limb radix
        P = [0, 1, -1, 7, -(2**31) + 1, 2**32 - 1, -(2**32), 2**64 + 5, -(2**100) - 12345,
             (2**32 - 1) * (2**192 + 2**96 + 1), -(3**400)]
        rng = random.Random(21)
        P += [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 700)) for _ in range(40)]
        qs = _word_primes(50) + [WORD_PRIME_LIMIT - 1]  # 2^31 - 1 is prime: the top of the range
        got = _residues(_limbs(P), np.array(qs, dtype=np.int64)[:, None])
        assert got.tolist() == [[x % q for x in P] for q in qs]


class TestAssignmentBound:
    def test_matches_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(1, 9)
            holes = rng.choice([0.0, 0.2, 0.5, 0.8])
            w = [[None if rng.random() < holes else rng.randint(0, 60) for _ in range(n)]
                 for _ in range(n)]
            cost = np.array([[-np.inf if x is None else x for x in row] for row in w])
            try:
                rows, cols = optimize.linear_sum_assignment(cost, maximize=True)
                expect = int(cost[rows, cols].sum())
            except ValueError:  # every assignment meets a forbidden cell
                expect = None
            assert max_assignment(w) == expect

    @given(st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_sympy_degree(self, n, data):
        sympy = pytest.importorskip("sympy")
        entry = st.lists(st.integers(min_value=-3, max_value=3), max_size=4).map(ipoly_trim)
        cols = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        k = sympy.Symbol("k")
        mat = sympy.Matrix(n, n, lambda r, j: sum(c * k**e for e, c in enumerate(cols[j][r])))
        det = sympy.expand(mat.det())
        bound = max_assignment([[len(c[r]) - 1 if c[r] else None for c in cols] for r in range(n)])
        if bound is None:
            assert det == 0
        elif det != 0:
            assert sympy.Poly(det, k).degree() <= bound

    def test_structurally_singular_minor_skips_bareiss(self, monkeypatch):
        def no_bareiss(rows):
            raise AssertionError("Bareiss ran on a structurally singular minor")

        monkeypatch.setattr(certify_mod, "int_bareiss_det", no_bareiss)
        # rows 0 and 1 have entries only in column 0
        cols = [[[1, 2], [3], [4]], [[], [], [5, 1]], [[], [], [0, 7]]]
        assert minor_determinant(cols, [0, 1, 2]) == []


class TestMinorDeterminant:
    def test_non_square_refused(self):
        cols = [[[1], [2]], [[3], [4]], [[5], [6]]]
        with pytest.raises(ValueError):
            minor_determinant(cols, [0, 1, 2])

    def test_interpolation_refuses_non_integer_polynomial(self):
        # 0, 1, 0 at 0, 1, -1 are the values of (x^2 + x) / 2
        with pytest.raises(ArithmeticError):
            _interpolate_int([0, 1, -1], [0, 1, 0])

    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=12),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_interpolation_recovers_integer_polynomials(self, poly, extra):
        # the points 0, 1, -1, 2, -2, ... that minor_determinant uses
        n = len(poly) + extra + 1
        pts = [(i + 1) // 2 * (1 if i % 2 else -1) for i in range(n)]
        vals = [sum(c * t**e for e, c in enumerate(poly)) for t in pts]
        assert _interpolate_int(pts, vals) == ipoly_trim(list(poly))

    @given(st.integers(min_value=1, max_value=4), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_against_sympy_det(self, n, heavy_row, data):
        # one row (or one column) of high-degree entries puts the row sum of
        # degrees below (or above) the column sum
        sympy = pytest.importorskip("sympy")
        coeffs = st.integers(min_value=-5, max_value=5)
        heavy = data.draw(st.integers(min_value=0, max_value=n - 1))
        cols = []
        for j in range(n):
            col = []
            for r in range(n):
                deg = 4 if (r if heavy_row else j) == heavy else 1
                low = data.draw(st.lists(coeffs, min_size=deg, max_size=deg))
                col.append(low + [data.draw(st.integers(min_value=1, max_value=5))])
            cols.append(col)
        if n > 1:
            row_sum, col_sum = 4 + (n - 1), 4 * n
            if not heavy_row:
                row_sum, col_sum = col_sum, row_sum
            assert row_sum == sum(max(len(c[r]) - 1 for c in cols) for r in range(n))
            assert col_sum == sum(max(len(e) - 1 for e in c) for c in cols)
        k = sympy.Symbol("k")
        mat = sympy.Matrix(n, n, lambda r, j: sum(c * k**e for e, c in enumerate(cols[j][r])))
        det = sympy.expand(mat.det())
        expect = sympy.Poly(det, k).all_coeffs()[::-1] if det != 0 else []
        assert minor_determinant(cols, list(range(n))) == ipoly_trim([int(c) for c in expect])


def _random_matrix(rng, m, ncols, max_deg=2):
    return [[ipoly_trim([rng.randint(-5, 5) for _ in range(rng.randint(0, max_deg + 1))])
             for _ in range(m)] for _ in range(ncols)]


def _det_at(columns, subset, t):
    """The minor at one point, by Bareiss on the evaluated square matrix."""
    return int_bareiss_det([[ipoly_eval(columns[j][r], t) for j in subset]
                            for r in range(len(columns[0]))])


def _check_pointwise(columns, subsets, dets, points=range(-12, 13)):
    for subset, det in zip(subsets, dets):
        for t in points:
            assert ipoly_eval(det, t) == _det_at(columns, subset, t), (subset, t)


class TestMinorDeterminants:
    # every maximal minor read off one fraction-free Gauss-Jordan per point

    @pytest.mark.parametrize("extra", [0, 1, 2, 3, 4])
    def test_random_against_bareiss_per_point(self, extra):
        rng = random.Random(40 + extra)
        for _ in range(4):
            m = rng.randint(1, 5)
            columns = _random_matrix(rng, m, m + extra)
            subsets = [tuple(rng.sample(range(m + extra), m)) for _ in range(6)]
            dets = minor_determinants(columns, subsets)
            _check_pointwise(columns, subsets, dets)
            assert dets == [minor_determinant(columns, s) for s in subsets]

    def test_constant_matrices_every_subset(self):
        # degree 0: one point, so every subset is one elimination's read-out
        rng = random.Random(41)
        for _ in range(30):
            m = rng.randint(1, 4)
            ncols = m + rng.randint(0, 4)
            columns = [[ipoly_trim([rng.randint(-3, 3)]) for _ in range(m)] for _ in range(ncols)]
            subsets = list(itertools.permutations(range(ncols), m))
            dets = minor_determinants(columns, subsets)
            _check_pointwise(columns, subsets, dets, points=[0])

    def test_rank_drops_at_a_point(self):
        # row 0 is k times a row: at k = 0, the first point, the whole
        # matrix has rank below m, though no minor is identically zero
        rng = random.Random(42)
        m, ncols = 3, 5
        columns = _random_matrix(rng, m, ncols)
        for col in columns:
            col[0] = ipoly_mul([0, 1], ipoly_add(col[0], [1]))
        assert gauss_jordan_ff([[ipoly_eval(c[r], 0) for c in columns] for r in range(m)]) is None
        subsets = list(itertools.combinations(range(ncols), m))
        dets = minor_determinants(columns, subsets)
        assert any(dets)
        _check_pointwise(columns, subsets, dets)

    def test_dependent_middle_column_is_skipped(self):
        # column 1 equals column 0 at k = 0, so at that point the pivots
        # skip it and the later columns still get their pivots
        rng = random.Random(43)
        m, ncols = 3, 5
        columns = _random_matrix(rng, m, ncols)
        columns[0] = [ipoly_add(e, [1]) for e in columns[0]]
        columns[1] = [ipoly_add(a, ipoly_mul([0, 1], b)) for a, b in zip(columns[0], columns[4])]
        rows0 = [[ipoly_eval(c[r], 0) for c in columns] for r in range(m)]
        elim = gauss_jordan_ff(rows0)
        assert elim is not None and 1 not in elim[2] and 0 in elim[2]
        subsets = list(itertools.combinations(range(ncols), m))
        subsets += [tuple(reversed(s)) for s in subsets]  # and the other column orders
        dets = minor_determinants(columns, subsets)
        assert [d for d, s in zip(dets, subsets) if 1 in s and any(d)]
        _check_pointwise(columns, subsets, dets)

    def test_structurally_singular_subsets_mixed_in(self, monkeypatch):
        # columns 0-2: rows 0 and 1 have entries only in column 0; columns
        # 3-5 are a full block.  The singular subsets are zero outright and
        # none of their columns is evaluated or eliminated.
        cols = [[[1, 2], [3], [4]], [[], [], [5, 1]], [[], [], [0, 7]],
                [[1, 1], [2], [3, 0, 1]], [[0, 2], [1, 1], [5]], [[4], [0, 0, 3], [1, -1]]]
        real = certify_mod.gauss_jordan_ff
        widths = []

        def recording(rows):
            widths.append(len(rows[0]))
            return real(rows)

        monkeypatch.setattr(certify_mod, "gauss_jordan_ff", recording)
        subsets = [(0, 1, 2), (3, 4, 5), (1, 2, 0), (5, 4, 3)]
        dets = minor_determinants(cols, subsets)
        assert dets[0] == [] and dets[2] == []
        assert dets[1] and dets[3] == ipoly_scale(dets[1], -1)
        assert set(widths) == {3}  # only columns 3-5
        _check_pointwise(cols, subsets, dets)

    def test_subsets_with_different_degree_bounds(self):
        # column j has entries of degree j: bounds differ by subset, and
        # each minor is interpolated from its own first bound + 1 values
        rng = random.Random(44)
        m, ncols = 3, 6
        columns = [[[rng.randint(-4, 4) for _ in range(j)] + [rng.randint(1, 4)] for _ in range(m)]
                   for j in range(ncols)]
        subsets = [(0, 1, 2), (3, 4, 5), (0, 2, 5), (1, 3, 4)]
        bounds = [max_assignment([[len(columns[j][r]) - 1 for j in s] for r in range(m)])
                  for s in subsets]
        assert len(set(bounds)) == len(bounds)
        dets = minor_determinants(columns, subsets)
        assert all(len(d) - 1 <= b for d, b in zip(dets, bounds))
        _check_pointwise(columns, subsets, dets, points=range(-20, 21))

    def test_non_square_subset_refused(self):
        cols = [[[1], [2]], [[3], [4]], [[5], [6]]]
        with pytest.raises(ValueError):
            minor_determinants(cols, [(0, 1), (0, 1, 2)])

    def test_inexact_block_division_raises(self):
        # a 2x2 block of determinant 1 over D = 2 cannot come from a true
        # elimination: the read-out refuses it instead of rounding
        elim = (1, 2, (0, 1), [2, 3], [[1, 0], [0, 1]])
        with pytest.raises(ArithmeticError):
            _minor_at(elim, (2, 3))

    def test_no_subsets(self):
        assert minor_determinants([[[1]]], []) == []

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_against_sympy_det(self, m, extra, data):
        sympy = pytest.importorskip("sympy")
        entry = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(ipoly_trim)
        columns = [[data.draw(entry) for _ in range(m)] for _ in range(m + extra)]
        subsets = data.draw(st.lists(st.permutations(range(m + extra)).map(lambda p: tuple(p[:m])),
                                     min_size=1, max_size=4))
        k = sympy.Symbol("k")
        for subset, det in zip(subsets, minor_determinants(columns, subsets)):
            mat = sympy.Matrix(m, m, lambda r, j: sum(c * k**e for e, c in
                                                      enumerate(columns[subset[j]][r])))
            expect = sympy.expand(mat.det())
            expect = sympy.Poly(expect, k).all_coeffs()[::-1] if expect != 0 else []
            assert det == ipoly_trim([int(c) for c in expect])


class TestStrip:
    def test_basic_example(self):
        g = ipoly_scale(ipoly_mul(ipoly_mul([-4, 1], [-4, 1]), [-2, 1]), 12)
        res, a, b, ex, nex, left = strip_factors(g, 5)
        assert (res, a, b, ex, nex, left) == ([-2, 1], 12, 2, [], [], None)

    def test_exceptional_prime_flagged(self):
        res, a, b, ex, nex, left = strip_factors(ipoly_scale([-3, 1], 585049), 5)
        assert res == [-3, 1] and ex == [585049] and not nex and left is None

    def test_unit_residual(self):
        res, a, b, ex, nex, left = strip_factors([7], 5)
        assert res == [1] and a == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            strip_factors([], 5)

    def test_sieve_marks_the_primes(self):
        sieve = _prime_sieve()
        assert len(sieve) == TRIAL_LIMIT + 1
        assert [q for q in range(3000) if sieve[q]] == [q for q in range(3000) if is_prime(q)]
        assert sum(sieve) == 78498  # pi(10^6)
        assert sieve[999983] and not sieve[999981]

    def test_repeated_and_large_trial_primes(self):
        # 41 is 1 mod 10 (exempt), 43 is 3 mod 10, and 999983 is the last
        # prime the sieve holds
        c = 2**3 * 41 * 43**2 * 999983
        res, a, b, ex, nex, left = strip_factors(ipoly_scale([-2, 1], c), 5)
        assert a == 8 and ex == [41] and nex == [43, 43, 999983] and left is None
        res, a, b, ex, nex, left = strip_factors(ipoly_scale([-2, 1], 1000003 * 1000033), 5)
        assert left == 1000003 * 1000033 and not ex and not nex

    @staticmethod
    def _plain_trial_divide(n):
        # the loop `_trial_divide` replaces: n % q for every sieve prime
        sieve = _prime_sieve()
        out = []
        for q in itertools.compress(range(len(sieve)), sieve):
            if n == 1:
                break
            while n % q == 0:
                n //= q
                out.append((q, n))
        return out

    @staticmethod
    def _sieve_primes():
        sieve = _prime_sieve()
        return list(itertools.compress(range(len(sieve)), sieve))

    def test_chunked_trial_division_matches_the_plain_loop(self):
        primes = self._sieve_primes()
        last = (len(primes) - 1) // TRIAL_CHUNK * TRIAL_CHUNK  # where the last chunk starts
        edges = [primes[TRIAL_CHUNK - 1], primes[TRIAL_CHUNK], primes[last - 1], primes[last]]
        rng = random.Random(45)
        cases = [
            1,
            2,
            2**40,
            3**7 * 5**3 * 41,
            edges[0] ** 3 * edges[1] ** 2,
            edges[2] * edges[3],
            999983,  # the last sieve prime
            999979**2 * 999983,
            999983 * 1000003,  # and the first prime past it, left as cofactor
            1000003 * 1000033,
            (rng.getrandbits(4000) | 1) * 7**3 * edges[1],  # a content thousands of bits long
        ]
        for _ in range(5):
            cases.append(math.prod(rng.choice(primes) ** rng.randint(1, 3)
                                   for _ in range(rng.randint(1, 6))) * rng.choice([1, 1000003]))
        for n in cases:
            assert list(_trial_divide(n)) == self._plain_trial_divide(n), n

    def test_trial_chunks_cover_the_sieve(self):
        primes = self._sieve_primes()
        runs = [primes[i : i + TRIAL_CHUNK] for i in range(0, len(primes), TRIAL_CHUNK)]
        assert _prime_chunks() == [(run[0], run[-1] + 1, math.prod(run)) for run in runs]
        # Python ints, not numpy scalars: the products meet big-int gcds
        assert {type(v) for chunk in _prime_chunks() for v in chunk} == {int}

    @pytest.mark.parametrize("c", [PROVEN_PRIME_BOUND, 2**89 - 1], ids=["psi12", "mersenne-89"])
    def test_cofactor_at_or_above_the_bound_is_unfactored(self, c):
        # psi_12 = PROVEN_PRIME_BOUND is composite yet passes is_prime;
        # 2^89 - 1 is prime, but above the bound is_prime proves nothing;
        # both are 1 mod 10, and neither is booked as exempt
        res, a, b, ex, nex, left = strip_factors(ipoly_scale([-2, 1], c), 5)
        assert c % 10 == 1 and (ex, nex, left) == ([], [], c)

    def test_prime_just_below_the_bound_is_exempt(self):
        q = PROVEN_PRIME_BOUND - 20
        assert is_prime(q) and q % 10 == 1
        res, a, b, ex, nex, left = strip_factors(ipoly_scale([-2, 1], q), 5)
        assert (ex, nex, left) == ([q], [], None)
        assert strip_passes(ipoly_scale([-2, 1], q), 5)

    # (element, d, n_d): an exempt prime past the sieve, composites that
    # are and are not +-1 mod 10, a non-exempt sieve prime, a residual
    # that does not divide the target, and psi_12; n_d = default_nd(d) is
    # the level bound the probes are built around (43 lies just above
    # 2*n_d = 40)
    PROBES = [
        (ipoly_scale([-2, 1], 1000039), 5, 20),
        (ipoly_scale([-2, 1], 1000003 * 1000033), 5, 20),
        (ipoly_scale([-2, 1], 1000003 * 1000039), 5, 20),
        (ipoly_scale([-2, 1], 43 * 1000039), 5, 20),
        (ipoly_scale([1, 1], 12), 5, 20),
        (ipoly_scale(ipoly_mul([-4, 1], [6, -5, 1]), -720), 5, 20),
        (ipoly_scale([-2, 1], PROVEN_PRIME_BOUND), 5, 20),
    ]

    @pytest.mark.parametrize("element,d,n_d", PROBES)
    def test_passes_is_the_strip_bool(self, element, d, n_d):
        assert default_nd(d) == n_d
        residual, _, _, _, nonexempt, leftover = strip_factors(element, d)
        expect = residual_divides_target(residual) and not nonexempt and leftover is None
        assert strip_passes(element, d) == expect

    def test_passes_bool_covers_each_outcome(self):
        assert [strip_passes(e, d) for e, d, _ in self.PROBES] == [
            True, False, False, False, False, True, False]

    @pytest.mark.parametrize("element,d,n_d", [PROBES[2], PROBES[3], PROBES[4], PROBES[6]])
    def test_passes_decides_without_primality_tests(self, monkeypatch, element, d, n_d):
        def no_primality(n):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(certify_mod, "is_prime", no_primality)
        assert strip_passes(element, d) is False

    @pytest.mark.parametrize("element,d,reasons", [
        (PROBES[4][0], 5, ["residual of degree 1 does not divide the target"]),
        (PROBES[3][0], 5, ["non-exempt primes 43 (not +-1 mod 10)"]),
        (PROBES[1][0], 5, ["unfactored cofactor of 40 bits, composite"]),
        (PROBES[6][0], 5, ["unfactored cofactor of 79 bits, not proven prime"]),
        (ipoly_scale([1, 1], 43 * PROVEN_PRIME_BOUND), 5, ["residual of degree 1 does not divide the target",
                                                          "non-exempt primes 43 (not +-1 mod 10)",
                                                          "unfactored cofactor of 79 bits, not proven prime"]),
        (PROBES[0][0], 5, []),
        (PROBES[0][0], 2, ["d < 5 certifies an empty congruence class"]),
    ], ids=["residual", "nonexempt", "composite", "psi12", "all-three", "passes", "d-below-5"])
    def test_inconclusive_reason_names_the_failing_gates(self, element, d, reasons):
        # certify joins these with "; " as an inconclusive verdict's reason;
        # 1000039 is 3 mod 4, so at d = 2 the strip passes, and the fold's
        # probe `strip_passes` leaves the d < 5 gate out
        residual, _, _, _, nonexempt, leftover = strip_factors(element, d)
        assert strip_passes(element, d) == (reasons == [] or d < 5)
        assert verdict_failures(d, residual, nonexempt, leftover) == reasons

    def test_divisibility_gate(self):
        assert residual_divides_target([1])
        assert residual_divides_target([-2, 1])
        assert residual_divides_target([6, -5, 1])
        assert residual_divides_target(TARGET)
        assert not residual_divides_target([1, 1])

    def test_divisibility_is_over_the_integers(self):
        # 7 (k - 3) divides the target over Q but not over Z
        assert not residual_divides_target([-21, 7])
        assert not residual_divides_target([])


class TestPlans:
    def test_level_bounds(self):
        assert default_nd(5) == 20
        assert default_nd(7) == 28
        assert default_nd(9) == 45
        assert default_nd(8) == 48
        assert default_nd(3) == 15
        # every plan within the certify bound has matrix rows 3..n_d
        assert all(3 <= default_nd(d) <= 48 for d in range(2, CERTIFY_MAX_D + 1))

    def test_even_modulus_skips_half_levels(self):
        plan = build_plan(8)
        skipped = [e for e in plan if e.get("skipped")]
        assert any("provably zero" in e.get("reason", "") for e in skipped)
        live = [e for e in plan if not e.get("skipped")]
        assert [e["n"] for e in live] == [8, 16, 24, 32, 40, 48]

    def test_enumerated_budget_vs_printed(self):
        live = [e for e in build_plan(5) if not e.get("skipped")]
        assert sum(e["m_enum"] for e in live) == 20
        assert sum(e["m_printed"] for e in live) == 14  # under the printed counts


class TestFoldSoundness:
    def test_fold_output_in_mod_p_ideal(self):
        # combine three synthetic "minors" sharing a designed gcd
        rng = random.Random(11)
        G = ipoly_mul([-4, 1], [6, -5, 1])
        minors = []
        for mult in ([3, 1, 2], [7, -2, 1], [5, 0, 0, 3]):
            minors.append(ipoly_scale(ipoly_mul(G, mult), rng.choice([2, 6, 10])))
        element, log = fold_minors(minors, 5)
        # membership mod q: gcd of the minors divides the element
        for q in (10007, 101):
            gq = None
            for m in minors:
                mm = [v % q for v in m]
                gq = mm if gq is None else _gcd_mod_q(gq, mm, q)
            assert ipoly_divmod_mod(element, gq, q)[1] == []

    def test_checker_accepts_every_trail_shape(self):
        # (k+7) in every minor keeps the residual off the target, so the
        # fold runs to the end: an odd last minor is folded in, and every
        # pair and fold witness mode turns up
        G = ipoly_mul([-4, 1], [7, 1])
        modes, odd = set(), 0
        for seed in range(24):
            rng = random.Random(seed)
            minors = [ipoly_scale(ipoly_mul(ipoly_mul(G, [rng.randint(1, 2), 1]),
                                            [rng.randint(1, 9)] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]),
                                  rng.randint(1, 6))
                      for _ in range(rng.randint(2, 7))]
            element, log = fold_minors(minors, 5)
            assert _trail_element(minors, log) == element
            modes |= {(rec["kind"], rec["witness"]["mode"]) for rec in log}
            odd += len(minors) % 2 == 1 and len(log) == len(minors) - 1
        assert modes == {("pair", "constant-cofactors"), ("pair", "constant-cofactor"),
                         ("pair", "crt-bezout"), ("fold", "integer-xgcd"),
                         ("fold", "constant-cofactor"), ("fold", "crt-bezout")}
        assert odd > 0


class TestSmallDegenerate:
    def test_d2_runs_degenerate_path(self):
        # mechanically sound but certifies an empty congruence class
        cert = certify(2)
        assert cert["verdict"] == "inconclusive"
        assert "empty congruence class" in cert["reason"]
        assert cert["content_hash"]
        assert recheck_errors(cert) == []

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_forged_true_verdict_refused(self, d):
        # the strip passes below d = 5, so only the d < 5 gate stands
        # between an inconclusive certificate and a re-hashed true one
        payload = json.loads(canonical_json(certify(d)))
        assert payload.pop("reason") == "d < 5 certifies an empty congruence class"
        payload["verdict"] = "true"
        payload["content_hash"] = _hash_payload(payload)
        assert recheck_errors(payload) == ["d < 5 certifies an empty congruence class"]


def _bump_first_u_coefficient(trail):
    u = trail[0]["witness"]["u"]
    u[0] = format(int(u[0], 16) + 1, "x")


@pytest.fixture(scope="module")
def columns5():
    return build_columns(5)[0]


class TestColumnInputs:
    def test_d5_one_base_per_level_and_one_reduction_per_column(self, monkeypatch):
        # the traced certify.columns and spectral.column_inputs count these
        # calls through the certify namespace
        calls = []
        for name in ("fn_poly", "g_dn_poly", "phi"):
            def counted(*args, _name=name, _fn=getattr(certify_mod, name)):
                calls.append(_name if _name == "phi" else (_name, args[-1]))
                return _fn(*args)
            monkeypatch.setattr(certify_mod, name, counted)
        records = build_columns(5)[1]
        live = [e["n"] for e in build_plan(5) if not e.get("skipped")]
        assert sorted(c for c in calls if c != "phi") == sorted(
            (name, n) for n in live for name in ("fn_poly", "g_dn_poly"))
        assert calls.count("phi") == len(records) == 20

    def test_d5_reductions_keep_int_coefficients(self, monkeypatch):
        # the column polynomials are integral, so phi hands back ints and
        # no coefficient passes through Fraction
        reduced = []

        def recording(f, _phi=certify_mod.phi):
            reduced.append(_phi(f))
            return reduced[-1]

        monkeypatch.setattr(certify_mod, "phi", recording)
        build_columns(5)
        assert len(reduced) == 20
        assert {type(c) for red in reduced for v in red.coeffs.values() for c in v.coeffs} == {int}

    def test_d7_columns_in_bounded_memory(self):
        # the symbolic reductions hold four degree levels of one packed int
        # per monomial: 3.4 MB traced peak, against 138 MB for a memo of
        # whole x-polynomials per monomial
        tracemalloc.start()
        try:
            columns = build_columns(7)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns) == 30
        assert peak < 32 * 2**20

    def test_d8_columns_digest_in_bounded_memory(self):
        # pinned from the memo reduction of every column, which took about
        # 60 s and 3.1 GB peak RSS in one run; the degree walk takes about
        # 4 s and 54 MB.  A fresh interpreter, so the peak is the columns' own.
        # The elimination of the whole matrix at t = 250 is pinned from the
        # row-by-row Gauss-Jordan elimination (about 1.1 s; 0.25 s now)
        import markoffmodp

        src = os.path.dirname(os.path.dirname(markoffmodp.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import hashlib, json, resource\n"
            "from markoffmodp.certify import build_columns\n"
            "from markoffmodp.rings import gauss_jordan_ff, ipoly_eval\n"
            "columns, records = build_columns(8)\n"
            "digest = hashlib.sha256(json.dumps([columns, records], sort_keys=True).encode())\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024\n"
            "rows = [[ipoly_eval(col[r], 250) for col in columns] for r in range(len(columns[0]))]\n"
            "elim = hashlib.sha256(repr(gauss_jordan_ff(rows)).encode())\n"
            "print(len(columns), digest.hexdigest(), peak, elim.hexdigest())\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        count, digest, peak_mb, elim = proc.stdout.split()
        assert int(count) == 56
        assert digest == "875be38badac9436fa1091a113ee8e3962c5f5b076545694dac2fb05065e4e04"
        assert int(peak_mb) < 400
        assert elim == "6832acf4581fa7e1488b51303b5752088c9cacd8abb1b78448c202daf479ca41"


class TestCertifyD5:
    def test_verdict_true(self, cert5):
        assert cert5["verdict"] == "true"

    def test_pinned_outputs(self, cert5):
        assert cert5["content_hash"] == (
            "d0b0044363933f3c6fa2a619b5d74193aecd4bcf30c8963fee4ee8d215bb7457")
        # without the recorded cofactors, schema 2 is the schema 1 document
        payload = json.loads(canonical_json(cert5))
        for rec in payload["fold"]:
            rec["witness"].pop("u", None)
        payload["schema"] = 1
        assert _hash_payload(payload) == (
            "9969e21863d47cfdde6b8204157b11e8b926b6a49d6cfb2d70bc0325f1a1a223")
        assert cert5["matrix_fingerprint"].startswith("8b11b93de579")

    def test_residual_divides_target(self, cert5):
        s = cert5["stripped"]
        assert residual_divides_target([int(v) for v in s["residual"]])
        assert not s["nonexempt_primes"]
        assert s["unfactored"] is None

    def test_smooth_content(self, cert5):
        a = int(cert5["stripped"]["a"])
        for q in range(2, 41):
            while a % q == 0:
                a //= q
        assert a == 1

    def test_plan_records_both_counts(self, cert5):
        live = [e for e in cert5["plan"] if not e.get("skipped")]
        assert all("m_enum" in e and "m_printed" in e for e in live)

    def test_entry_degrees_bounded(self, columns5):
        # column entries never exceed degree n_d in the parameter
        n_d = default_nd(5)
        for col in columns5:
            for e in col:
                assert len(e) - 1 <= n_d

    def test_membership_survives_mod_p(self, cert5):
        for p in (101, 103, 999983):
            assert check_mod_p(cert5, p)

    def test_recheck_ok(self, cert5, monkeypatch):
        # recheck checks the trail by multiplication and runs none of the
        # prover's fold code: no gcd, no CRT, no prime stream
        def prover(*args, **kwargs):
            raise RuntimeError("recheck ran the prover's fold code")

        for name in ("fold_minors", "bezout_witness", "_bezout_images", "_crt_rows",
                     "modular_gcd", "_prime_stream"):
            monkeypatch.setattr(certify_mod, name, prover)
        assert recheck_errors(cert5) == []

    def test_tamper_detected(self, cert5):
        text = canonical_json(cert5)
        # flip one character inside a minor coefficient
        idx = text.find('"poly":["')
        pos = idx + len('"poly":["')
        ch = text[pos]
        repl = "1" if ch != "1" else "2"
        tampered = text[:pos] + repl + text[pos + 1 :]
        cert_bad = json.loads(tampered)
        assert recheck_errors(cert_bad) != []

    def test_tampered_residual_rejected(self, cert5):
        # residual k^2 - 5k + 6 with 7 | a: moving the 7 into the residual
        # keeps the reassembly and the hash consistent, but 7 (k-2)(k-3)
        # does not divide the target in Z[k]
        payload = json.loads(canonical_json(cert5))
        s = payload["stripped"]
        assert s["residual"] == ["6", "-5", "1"] and int(s["a"]) % 7 == 0
        s["residual"] = [str(7 * int(v)) for v in s["residual"]]
        s["a"] = str(int(s["a"]) // 7)
        payload["content_hash"] = _hash_payload(payload)
        assert "residual of degree 2 does not divide the target" in recheck_errors(payload)

    @staticmethod
    def _count_big_primality_tests(monkeypatch):
        big = []

        def counting(n):
            if n >= 1 << 64:
                big.append(n.bit_length())
            return is_prime(n)

        monkeypatch.setattr(certify_mod, "is_prime", counting)
        return big

    def test_recheck_runs_no_big_primality_test(self, cert5, monkeypatch):
        # the trail is checked by multiplication, not refolded, so no fold
        # probe runs again
        big = self._count_big_primality_tests(monkeypatch)
        assert recheck_errors(cert5) == []
        assert big == []

    def test_certify_runs_no_big_primality_test(self, cert5, monkeypatch):
        # the fold probe on a 7,082-bit cofactor that is -1 mod 10 is
        # decided by PROVEN_PRIME_BOUND, not by a Miller-Rabin of that size
        big = self._count_big_primality_tests(monkeypatch)
        assert certify(5)["content_hash"] == cert5["content_hash"]
        assert big == []

    def test_certify_and_recheck_build_no_cyclotomic_element(self, cert5, monkeypatch):
        # g_dn_poly is built over Z: Q(zeta) is an oracle, off this path
        def refuse(*args):
            raise RuntimeError("a CycloElem was built")
        monkeypatch.setattr(CycloElem, "__init__", refuse)
        assert certify(5)["content_hash"] == cert5["content_hash"]
        assert recheck_errors(cert5) == []

    @pytest.mark.parametrize("edit,reason", [
        (lambda t: t.pop(), "fold trail ends before the element of record 5 is folded"),
        (lambda t: t.append(dict(t[-1])), "fold record 7 has no pair element to fold"),
        (lambda t: t[2]["witness"].update(c=str(int(t[2]["witness"]["c"]) + 1)),
         "fold record 2 has a c that is not the constant cofactor"),
        (_bump_first_u_coefficient,
         "fold record 0 has a cofactor u for which B does not divide c - u*A"),
        (lambda t: t[0]["witness"]["u"].pop(),
         "fold record 0 has a cofactor u for which B does not divide c - u*A"),
        (lambda t: t[0]["witness"]["u"].append("0"), "fold record 0 has deg u = 38, not below deg B = 38"),
        (lambda t: t[0].update(gcd=["1", "0", "1"]), "fold record 0 has a gcd that does not divide both operands"),
        (lambda t: t[0].update(minors=[0, 12]), "fold record 0 names minor 12, out of range for 12 minors"),
    ], ids=["record-dropped", "record-added", "witness-changed", "u-changed", "u-dropped", "u-padded",
            "gcd-not-dividing", "minor-out-of-range"])
    def test_tampered_trail_rejected(self, cert5, edit, reason):
        # the seven records of the d=5 trail, with the hash recomputed;
        # records 0, 1, 3 and 5 are pairs with crt-bezout witnesses
        payload = json.loads(canonical_json(cert5))
        assert [r["kind"] for r in payload["fold"]] == ["pair"] + ["pair", "fold"] * 3
        edit(payload["fold"])
        payload["content_hash"] = _hash_payload(payload)
        assert recheck_errors(payload) == [reason]

    def test_long_cofactor_refused_before_multiplying(self, cert5, monkeypatch):
        # deg u >= deg B bounds the checker's work: it is refused first
        payload = json.loads(canonical_json(cert5))
        payload["fold"][0]["witness"]["u"] += ["1"] * 1000

        def multiply(a, b):
            raise RuntimeError("multiplied")

        monkeypatch.setattr(certify_mod, "ipoly_mul", multiply)
        minors = [[int(v) for v in m["poly"]] for m in payload["minors"]]
        with pytest.raises(TrailRefused, match="fold record 0 has deg u = 1037, not below deg B = 38"):
            _trail_element(minors, payload["fold"])

    def test_schema_1_refused(self, cert5):
        payload = json.loads(canonical_json(cert5))
        payload["schema"] = 1
        payload["content_hash"] = _hash_payload(payload)
        assert recheck_errors(payload) == [
            "schema 1 certificates record no Bezout cofactors: re-run `markoff certify`"]

    @pytest.mark.parametrize("b", [10**9, -1])
    def test_out_of_range_b_refused_before_reassembly(self, cert5, b):
        # (k-4)^b is multiplied out b times: b must be a degree the ideal
        # element can hold before the loop starts
        payload = json.loads(canonical_json(cert5))
        payload["stripped"]["b"] = b
        payload["content_hash"] = _hash_payload(payload)
        t0 = time.perf_counter()
        assert recheck_errors(payload) == [
            f"stripped b = {b} is not an integer in [0, deg ideal_element]"]
        assert time.perf_counter() - t0 < 1.0

    def test_fold_is_a_function_of_the_minors(self, cert5):
        # cert5 was built at seed 1729; the fold takes no seed, and its CRT
        # primes cannot change a canonical witness
        minors = [[int(v) for v in m["poly"]] for m in cert5["minors"]]
        element, log = fold_minors(minors, 5)
        assert log == cert5["fold"]
        assert [str(v) for v in element] == cert5["ideal_element"]

    def test_far_negative_seed_certifies(self):
        # the seed picks the minors only; no prime stream starts from it
        cert = certify(5, seed=-10**12)
        assert cert["verdict"] == "true"
        assert recheck_errors(cert) == []

    def test_hidden_nonexempt_prime_rejected(self, hidden_prime_payload):
        # 43 is neither at most 2*n_d = 40 nor +-1 mod 10, and sits in `a`
        s = hidden_prime_payload["stripped"]
        element = [int(v) for v in hidden_prime_payload["ideal_element"]]
        assert strip_factors(element, 5)[4] == [43] and s["a"] == "43"
        assert recheck_errors(hidden_prime_payload) == [
            "a has a prime factor above 2*n_d = 40"]

    def test_exempt_entry_above_the_bound_refused(self, hidden_prime_payload, monkeypatch):
        # one minor psi_12 (k-2)(k-3) with psi_12 booked as exempt: every
        # other field, the hash included, is consistent, and psi_12 passes
        # is_prime, so only the bound refuses it, before any primality test
        payload = hidden_prime_payload
        minor = [str(PROVEN_PRIME_BOUND * v) for v in (6, -5, 1)]
        payload["minors"][0]["poly"] = payload["ideal_element"] = minor
        payload["stripped"].update(a="1", exempt_primes=[str(PROVEN_PRIME_BOUND)])
        payload["content_hash"] = _hash_payload(payload)

        def no_primality(n):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(certify_mod, "is_prime", no_primality)
        assert recheck_errors(payload) == [
            f"exempt entry {PROVEN_PRIME_BOUND} is not below PROVEN_PRIME_BOUND"
            f" = {PROVEN_PRIME_BOUND}, so not proven prime"]

    @pytest.mark.parametrize("key,value,reasons", [
        ("verdict", "maybe", ["verdict 'maybe' is neither 'true' nor 'inconclusive'"]),
        ("d", 7, ["n_d = 20 is not default_nd(7) = 28", "plan differs from build_plan(7)",
                  "rows must be [3, 28] with num_rows 26"]),
        ("plan", [], ["plan differs from build_plan(5)"]),
        ("n_d", 24, ["n_d = 24 is not default_nd(5) = 20"]),
        ("rows", [3, 19], ["rows must be [3, 20] with num_rows 18"]),
        ("num_rows", 17, ["rows must be [3, 20] with num_rows 18"]),
        ("n_d", "20", ["d and n_d must be integers"]),
        ("d", 12, ["no plan for d = 12: d = 12 exceeds the certify bound 11"]),
    ], ids=["verdict", "d", "plan", "n_d", "rows", "num_rows", "n_d-string", "d-unbounded"])
    def test_claim_not_vouched_for_rejected(self, cert5, key, value, reasons):
        # each with its hash recomputed, so only the claim check can refuse it
        payload = json.loads(canonical_json(cert5))
        payload[key] = value
        payload["content_hash"] = _hash_payload(payload)
        assert recheck_errors(payload) == reasons

    @staticmethod
    def _plan_entries(d, n_d):
        # the plan of levels d, 2d, ..., n_d for an odd d, each with the
        # classes lambda_classes enumerates
        entries = []
        for n in range(d, n_d + 1, d):
            good, _, printed = lambda_classes(d, n)
            entries.append({"n": n, "m_enum": len(good), "m_printed": printed,
                            "skipped": not good, "reason": "" if good else "no classes",
                            "m_count": len(good)})
        return entries

    @pytest.mark.parametrize("n_d", [25, 48])
    def test_relabelled_level_bound_refused(self, cert5, n_d):
        # cert5 claiming another level bound, with the plan, rows and hash
        # that bound gives: recheck accepts only default_nd(5) = 20
        assert self._plan_entries(5, 20) == cert5["plan"]
        payload = json.loads(canonical_json(cert5))
        payload.update(n_d=n_d, plan=self._plan_entries(5, n_d), rows=[3, n_d], num_rows=n_d - 2)
        payload["content_hash"] = _hash_payload(payload)
        assert recheck_errors(payload) == [
            f"n_d = {n_d} is not default_nd(5) = 20", "plan differs from build_plan(5)",
            "rows must be [3, 20] with num_rows 18"]

    @pytest.mark.parametrize("edit,reason", [
        (lambda p: p["minors"][0].update(columns=[0] * 18),
         "minor 0 does not name 18 distinct columns in range(20)"),
        (lambda p: p["minors"][0].update(columns=[0, 1]),
         "minor 0 does not name 18 distinct columns in range(20)"),
        (lambda p: p["minors"][0].update(columns=list(range(90, 108))),
         "minor 0 does not name 18 distinct columns in range(20)"),
        (lambda p: p.update(num_columns=5), "num_columns 5 is not an integer >= num_rows = 18"),
        (lambda p: p.update(rank=3), "rank 3 is not num_rows = 18 under a true verdict"),
    ], ids=["repeated-column", "too-few-columns", "column-out-of-range", "num-columns", "rank"])
    def test_claim_shape_refused(self, cert5, edit, reason):
        # a true verdict needs full rank, and each minor num_rows distinct
        # columns of the matrix; the hash is recomputed
        payload = json.loads(canonical_json(cert5))
        assert (payload["rank"], payload["num_rows"], payload["num_columns"]) == (18, 18, 20)
        edit(payload)
        payload["content_hash"] = _hash_payload(payload)
        assert recheck_errors(payload) == [reason]

    @pytest.mark.parametrize("doc", [[], "cert", 5, None])
    def test_non_object_rejected(self, doc):
        assert recheck_errors(doc) == ["certificate is not a JSON object"]

    def test_canonical_serialization(self, cert5):
        text = canonical_json(cert5)
        assert canonical_json(json.loads(text)) == text
        assert json.loads(text)["schema"] == 2

    def test_deterministic(self, cert5):
        other = certify(5)
        strip = lambda c: {k: v for k, v in c.items() if k != "timings"}
        assert strip(other) == strip(cert5)

    def test_all_minors_in_one_pass(self, cert5, columns5):
        recorded = cert5["minors"]
        dets = minor_determinants(columns5, [m["columns"] for m in recorded])
        assert [[str(v) for v in det] for det in dets] == [m["poly"] for m in recorded]

    def test_minor_recompute_consistent(self, cert5, columns5):
        # one recorded minor re-derived from the rebuilt matrix
        rec = cert5["minors"][0]
        det = minor_determinant(columns5, rec["columns"])
        assert [str(v) for v in det] == rec["poly"]


class TestSymbolicVsNative:
    def test_columns_specialize_consistently(self):
        # the symbolic matrix reduced mod p equals the native mod-p build
        from markoffmodp.spectral import fn_poly, g_dn_poly
        from markoffmodp.trired import SYM, TriPoly, phi, prime_ring

        p = 103
        d, n = 5, 5
        g = g_dn_poly(d, n)
        for kappa in (1, 6):
            ring = prime_ring(p, kappa)
            gt_sym = TriPoly(SYM, {(2 * e, 0, 0): SYM.from_int(c) for e, c in enumerate(g)})
            gt_nat = TriPoly(ring, {(2 * e, 0, 0): ring.from_int(c) for e, c in enumerate(g)})
            sym = phi(gt_sym * fn_poly(SYM, n))
            nat = phi(gt_nat * fn_poly(ring, n))
            for e in set(sym.coeffs) | set(nat.coeffs):
                kp = sym.coeffs.get(e, KPoly.zero())
                val = sum(
                    c.numerator * pow(c.denominator, p - 2, p) * pow(kappa, i, p)
                    for i, c in enumerate(kp.coeffs)
                ) % p
                assert val == nat.coeffs.get(e, 0) % p


class TestIdealElement:
    # the select -> minors -> fold path that certify runs

    def test_two_minors_share_a_factor(self):
        # 1 x 2 matrix: maximal minors are the entries themselves
        columns = [[ipoly_mul([-2, 1], [-3, 1])], [ipoly_mul([-3, 1], [-5, 1])]]
        subsets, rank = _select_minor_subsets(columns, 1, random.Random(1729), 2)
        assert rank == 1 and sorted(subsets) == [(0,), (1,)]
        minors = [minor_determinant(columns, s) for s in subsets]
        element, log = fold_minors(minors, 5)
        assert len(log) == 1
        # the element is an integer multiple of (k-3)
        c = element[-1]
        assert element == ipoly_scale([-3, 1], c) and c != 0

    def test_single_minor_is_returned(self):
        element, log = fold_minors([[1, 0, 2]], 5)
        assert element == [1, 0, 2] and log == []

    def test_all_minors_zero(self):
        ones = [[[1], [1]], [[1], [1]]]
        subsets, rank = _select_minor_subsets(ones, 2, random.Random(1729), 2)
        assert subsets == [] and rank == 1
