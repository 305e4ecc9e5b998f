import random
from fractions import Fraction
from math import comb, lcm

import pytest

from markoffmodp import spectral as spectral_mod
from markoffmodp.certify import check_mod_p
from markoffmodp.ffield import field, is_prime
from markoffmodp.rings import CycloElem, KPoly, ipoly_eval
from markoffmodp.spectral import (
    QN_MAX_PRIME,
    QN_MIN_PRIME,
    _QE_ROWS,
    _QF_ROWS,
    b_poly,
    bn_basis,
    bn_dim,
    build_An,
    build_Bn,
    build_Mn,
    e_vector,
    eigen_vector_mod,
    f_vector,
    f_vector_sym,
    fn_poly,
    g_dn_chebyshev,
    g_dn_poly,
    gen_eigen_lambda2,
    gen_eigen_poly,
    lambda_classes,
    lambda_power_sum,
    local_determinants,
    mat_vec,
    pair_value,
    poly_from_bn_vector,
    qn_direct,
    qn_formula,
    series_coeff_halfint,
    verify_An_eigen,
    y_vectors,
)
from markoffmodp.trired import SYM, TriPoly, parse_poly, phi, phi_x, prime_ring
from markoffmodp.trired import x2_minus_kappa


class TestBasisAndBlocks:
    def test_basis_shape(self):
        basis = bn_basis(2)
        assert basis == [(2, 4, 0), (2, 3, 1), (2, 2, 2), (1, 2, 0), (1, 1, 1), (0, 0, 0)]
        assert len(bn_basis(6)) == bn_dim(6) == (36 + 18 + 2) // 2

    def test_block_patterns(self):
        assert build_An(0) == [[2]]
        assert build_An(1) == [[0, 2], [2, 0]]
        assert build_An(2) == [[0, 1, 0], [2, 0, 2], [0, 1, 0]]
        assert build_Bn(2) == [[0, 1, 0], [0, 0, 1]]

    def test_assembled_matrix(self):
        assert build_Mn(0) == [[2]]
        assert build_Mn(1) == [[0, 2, 0], [2, 0, 0], [0, 1, 2]]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_eigen_identity_all_roots(self, n):
        for j in range(1, 2 * n):
            assert verify_An_eigen(n, CycloElem.zeta(2 * n, j))

    def test_eigen_rejects_non_roots(self):
        with pytest.raises(ValueError):
            verify_An_eigen(2, CycloElem.zeta(6))
        with pytest.raises(ValueError, match="level n"):
            verify_An_eigen(0, CycloElem.zeta(2))

    def test_transfer_matrix_transcription(self):
        # multiplying by x and reducing acts through the matrix, for
        # combinations avoiding the final basis element
        rng = random.Random(9)
        for n in (1, 2, 3, 4):
            M = build_Mn(n)
            dim = bn_dim(n)
            for _ in range(3):
                v = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
                v[-1] = Fraction(0)
                f = poly_from_bn_vector(SYM, n, v)
                g = poly_from_bn_vector(SYM, n, mat_vec(M, v))
                assert phi_x(TriPoly.monomial(SYM, 1, 0, 0) * f) == phi_x(g)


class TestGenEigen:
    def test_first_three(self):
        vecs = gen_eigen_lambda2(2)
        assert vecs[0] == [0, 0, 0, 0, 0, 1]
        assert vecs[1] == [0, 0, 0, 1, 1, 0]
        assert vecs[2] == [Fraction(2, 3), Fraction(4, 3), Fraction(2, 3), Fraction(1, 6), 0, 0]

    def test_defining_relations_larger(self):
        vecs = gen_eigen_lambda2(5)
        M = build_Mn(5)
        for i in range(1, 6):
            mv = mat_vec(M, vecs[i])
            assert mv == [2 * a + b for a, b in zip(vecs[i], vecs[i - 1])]

    def test_broken_relation_raises(self, monkeypatch):
        # the relation check is a raise, not an assert, so it holds under -O;
        # the memo is cleared so that the patched solver runs
        spectral_mod._gen_eigen.cache_clear()
        real = spectral_mod.gauss_jordan_ff

        def off_by_one(rows):
            sign, D, pivots, live, a = real(rows)
            return sign, D, pivots, live, [[a[0][0] + D]] + a[1:]

        monkeypatch.setattr(spectral_mod, "gauss_jordan_ff", off_by_one)
        with pytest.raises(ArithmeticError, match="generalized eigen relation"):
            gen_eigen_lambda2(1)

    def test_singular_elimination_raises(self, monkeypatch):
        spectral_mod._gen_eigen.cache_clear()
        monkeypatch.setattr(spectral_mod, "gauss_jordan_ff", lambda rows: None)
        with pytest.raises(ArithmeticError, match="singular normal equations"):
            gen_eigen_lambda2(2)

    def test_solved_once_per_n(self, monkeypatch):
        # three eliminations for n = 3, on the first call only; every call
        # returns lists of its own
        spectral_mod._gen_eigen.cache_clear()
        real, calls = spectral_mod.gauss_jordan_ff, []
        monkeypatch.setattr(spectral_mod, "gauss_jordan_ff", lambda rows: calls.append(1) or real(rows))
        first = gen_eigen_lambda2(3)
        expected = [list(v) for v in first]
        first[1][0] = 99
        first.append([])
        assert gen_eigen_lambda2(3) == expected and gen_eigen_lambda2(3) is not gen_eigen_lambda2(3)
        assert len(calls) == 3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_sympy_solve(self, n):
        # each p_i is the one solution of the stacked system [M - 2I; e_last]
        sympy = pytest.importorskip("sympy")
        dim = bn_dim(n)
        stacked = sympy.Matrix(build_Mn(n)) - 2 * sympy.eye(dim)
        stacked = stacked.col_join(sympy.Matrix([[0] * (dim - 1) + [1]]))
        vecs = gen_eigen_lambda2(n)
        for i in range(1, n + 1):
            rhs = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in vecs[i - 1]] + [0])
            sol, params = stacked.gauss_jordan_solve(rhs)
            assert params.shape[0] == 0
            assert [Fraction(int(v.p), int(v.q)) for v in sol] == vecs[i]

    def test_reduction_recursion(self):
        for n in (1, 2, 3):
            pn = gen_eigen_poly(SYM, n)
            pm = gen_eigen_poly(SYM, n - 1) if n > 1 else TriPoly.const(SYM, 1)
            lhs = phi_x(TriPoly.monomial(SYM, 1, 0, 0) * pn)
            rhs = phi_x(pn * 2 + x2_minus_kappa(SYM) * pm)
            assert lhs == rhs


def _fn_by_products(ring, n):
    """F_n by its definition: sum over i of c_i (x^2-4)^i (x^2-k)^(n-i) y^(2i),
    the powers multiplied out in Z[t, k] (t = x^2, dicts {(t-exp, k-exp):
    int}), then scaled by c_i and mapped into `ring`."""
    def mul(a, b):
        out = {}
        for (s1, t1), v1 in a.items():
            for (s2, t2), v2 in b.items():
                out[s1 + s2, t1 + t2] = out.get((s1 + s2, t1 + t2), 0) + v1 * v2
        return out

    xk_pow, x4_pow = [{(0, 0): 1}], [{(0, 0): 1}]
    for _ in range(n):
        xk_pow.append(mul(xk_pow[-1], {(1, 0): 1, (0, 1): -1}))
        x4_pow.append(mul(x4_pow[-1], {(1, 0): 1, (0, 0): -4}))
    terms = {}
    for i in range(n + 1):
        c = Fraction((-1) ** i * n * comb(n + i, 2 * i), n + i)
        by_s = {}
        for (s, t), v in mul(x4_pow[i], xk_pow[n - i]).items():
            by_s.setdefault(s, {})[t] = v
        for s, kc in by_s.items():
            if ring is SYM:
                val = KPoly([Fraction(c.numerator * kc[t], c.denominator) if t in kc else 0
                             for t in range(max(kc) + 1)])
            else:
                val = ring.norm(ring.from_fraction(c) * sum(v * ring.kappa**t for t, v in kc.items()))
            terms[2 * s, 2 * i, 0] = val
    return TriPoly(ring, terms)


class TestKernelFamily:
    def test_f1_f2_shapes(self):
        assert fn_poly(SYM, 1) == parse_poly("x^2 - k - 1/2*x^2*y^2 + 2*y^2", SYM)
        xk, x4 = x2_minus_kappa(SYM), TriPoly.monomial(SYM, 2, 0, 0) - 4
        expect2 = xk * xk + x4 * xk * TriPoly.monomial(SYM, 0, 2, 0, -2) \
            + x4 * x4 * TriPoly.monomial(SYM, 0, 4, 0, Fraction(1, 2))
        assert fn_poly(SYM, 2) == expect2

    @pytest.mark.parametrize("ring", [SYM, prime_ring(101, 4), prime_ring(10**9 + 7, 5)],
                             ids=["sym", "p101-kappa4", "p1e9+7"])
    def test_closed_form_matches_the_product_of_powers(self, ring):
        for n in range(1, 49):
            assert fn_poly(ring, n) == _fn_by_products(ring, n), n

    def test_f1_reduces_to_zero(self):
        assert phi(fn_poly(SYM, 1)).is_zero()

    def test_kernel_form_vanishes(self):
        rng = random.Random(2)
        xk, x4 = x2_minus_kappa(SYM), TriPoly.monomial(SYM, 2, 0, 0) - 4
        for _ in range(5):
            ft = TriPoly.zero(SYM)
            for e in range(3):
                ft = ft + TriPoly.monomial(SYM, 2 * e, 0, 0, rng.randint(-3, 3))
            expr = ft * x4 * TriPoly.monomial(SYM, 0, 2, 0) - ft * xk * 2
            assert phi_x(expr).is_zero()

    def test_eigen_sum_vanishes_off_zero(self):
        from markoffmodp.orbits import orbit_decomposition

        for p, kappa in ((7, 1), (11, 3), (13, 6)):
            ring = prime_ring(p, kappa)
            f = parse_poly("y^4 - y^2*z^2 + 1/2*x^2*y^2 - 1/2*k*y^2", ring)
            for orb in orbit_decomposition(p, kappa, "gamma_x"):
                alpha = min(orb)[0]
                total = sum(f.evaluate(*t) for t in orb) % p
                if alpha != 0:
                    assert total == 0


class TestClassesAndG:
    def test_class_counts(self):
        assert len(lambda_classes(5, 5)[0]) == 2
        assert len(lambda_classes(5, 10)[0]) == 4
        assert lambda_classes(5, 10)[2] == 3  # the printed estimate undercounts
        assert len(lambda_classes(5, 15)[0]) == 6
        assert len(lambda_classes(5, 20)[0]) == 8
        assert lambda_classes(5, 20)[2] == 7
        good, bad, _ = lambda_classes(2, 2)
        assert good == [1] and bad == []  # the zero class has order 4

    def test_budgets_cover_certification_rows(self):
        for d, n_d in ((5, 20), (7, 28)):
            total = sum(len(lambda_classes(d, n)[0]) for n in range(d, n_d + 1, d))
            assert total >= n_d - 2

    def test_g_trivial_cases(self):
        assert g_dn_poly(5, 5) == [1]
        assert g_dn_poly(2, 2) == [1]

    def test_g_root_structure(self):
        # d=5, n=20 kills the order-8 pair and zero: x^2 (x^2 - 2)
        assert g_dn_poly(5, 20) == [0, -2, 1]

    # the last five are the top live levels of build_plan(d) for d = 5, 7,
    # 8, 9, 11
    @pytest.mark.parametrize("d,n", [(5, 5), (5, 10), (7, 7), (8, 8), (8, 16), (9, 9), (3, 6), (2, 4), (11, 11),
                                     (5, 20), (7, 28), (8, 48), (9, 45), (11, 44)])
    def test_chebyshev_shortcut_compatible(self, d, n):
        grp = g_dn_poly(d, n)
        gch = g_dn_chebyshev(d, n)
        good, bad, _ = lambda_classes(d, n)
        # monic of degree the bad class count, vanishing on each bad class
        # and on no good one: g is exactly the product of t - lambda^2
        assert grp[-1] == 1 and len(grp) - 1 == len(bad)
        z = CycloElem.zeta(2 * n)
        for j in good:
            lam2 = (z**j + z ** (2 * n - j)) ** 2
            assert not ipoly_eval(grp, lam2).is_zero()
            assert not ipoly_eval(gch, lam2).is_zero(), "shortcut killed a good class"
        for j in bad:
            lam2 = (z**j + z ** (2 * n - j)) ** 2
            assert ipoly_eval(grp, lam2).is_zero()
            assert ipoly_eval(gch, lam2).is_zero(), "shortcut missed a bad class"


class TestQVectors:
    def test_direct_equals_formula_p13(self):
        for kappa in (0, 1, 5, 10):
            for n in (1, 2, 3, 4):
                assert qn_direct(n, 13, kappa) == qn_formula(n, 13, kappa)

    def test_symbolic_p13(self):
        for n in (1, 2, 3, 4):
            assert qn_direct(n, 13) == qn_formula(n, 13)

    def test_coordinate_anchors(self):
        p = 13
        for kappa in (1, 3, 7):
            q1, q2 = qn_direct(1, p, kappa), qn_direct(2, p, kappa)
            assert q1[0] == 0
            assert q2[0] == (-kappa * (4 - kappa)) % p
            assert q2[1] == (-kappa * (4 - kappa)) * pow(2, p - 2, p) % p

    def test_formula_bounds(self):
        with pytest.raises(ValueError):
            qn_formula(5, 13, 1)

    def test_min_prime_matches_denominators(self):
        den = 1
        for n in (1, 2, 3, 4):
            for c in gen_eigen_poly(SYM, n).terms.values():
                den = lcm(den, *(Fraction(v).denominator for v in c.coeffs))
        for row in _QF_ROWS + _QE_ROWS:
            for c in row:
                den = lcm(den, *(Fraction(v).denominator for v in c.coeffs))
        for q in range(2, QN_MIN_PRIME):
            if is_prime(q):
                assert den % q == 0
                while den % q == 0:
                    den //= q
        assert den == 1

    def test_max_prime_refused_before_work(self):
        assert QN_MAX_PRIME >= 103  # the desk-scale q-vector checks
        p = 10007
        for call in (lambda: qn_direct(1, p), lambda: qn_direct(1, p, 5),
                     lambda: local_determinants(p, 5)):
            with pytest.raises(ResourceWarning):
                call()

    @pytest.mark.parametrize("p", (1, 9, 15))
    def test_non_prime_modulus_refused(self, p, cert5):
        # Fermat inverses are wrong mod a composite: refuse, as field(p) does
        for call in (lambda: qn_direct(1, p), lambda: qn_direct(1, p, 5),
                     lambda: qn_formula(1, p), lambda: qn_formula(1, p, 5),
                     lambda: f_vector(0, p, 5), lambda: f_vector_sym(0, p),
                     lambda: y_vectors(p, 5), lambda: check_mod_p(cert5, p)):
            with pytest.raises(ValueError, match="is not an odd prime"):
                call()


class TestYFamily:
    def test_defining_entries(self):
        ys = y_vectors(11, 5)
        assert ys["y_p"][-1] == pow((4 - 5) % 11, 9, 11)
        assert ys["y_R"][0] == 0

    def test_product_forms(self):
        for p in (101, 103):
            F = field(p)
            for kappa in (1, 5, 7, 10):
                ys = y_vectors(p, kappa)
                chik = F.quad_char(kappa)
                inv = lambda a: pow(a % p, p - 2, p)
                for j in range(0, 6):
                    ej, fj = e_vector(j, p), f_vector(j, p, kappa)
                    assert pair_value(fj, ys["y_p"], p) == pow((kappa * inv(4) - 1) % p, j, p) * comb(2 * j, j) % p
                    s = 0
                    for i in range(1, j + 1):
                        s = (s + inv(comb(2 * i, i)) * pow(kappa, i - 1, p) * inv(i)) % p
                    assert pair_value(ej, ys["y_R"], p) == (-comb(2 * j, j) * s) % p
                    ev = pair_value(ej, ys["y_kappa"], p)
                    assert ev == (3 % p if j == 0 else pow(kappa, j, p))
                    fyk = pair_value(fj, ys["y_kappa"], p)
                    if j == 0:
                        assert fyk == (12 - (2 + chik) * kappa) % p
                    else:
                        rel = ((4 * j + 2) * pair_value(fj, ys["y_R"], p)
                               + chik * (4 - kappa) * pair_value(fj, ys["y_p"], p)) % p
                    if j >= 1:
                        assert fyk == rel

    def test_determinant_identities(self):
        for p in (101, 103):
            F = field(p)
            for kappa in (1, 2, 5, 6, 7, 10):
                if kappa % p in (0, 3):
                    continue
                res = local_determinants(p, kappa)
                if res["chi_kappa"] == 1:
                    assert res["det2"] == res["det2_expected"], (p, kappa)
                else:
                    assert res["det3"] == res["det3_expected"], (p, kappa)


class TestSeriesIdentities:
    def test_power_sum_matches_series(self):
        for n in range(2, 9):
            for m in range(0, 3):
                for ell in range(0, 3):
                    if ell + m < n:
                        assert lambda_power_sum(n, ell, m) == series_coeff_halfint(m, ell + m)

    def test_central_binomial_sum(self):
        for n in range(0, 7):
            for j in range(0, 7):
                lhs = sum(Fraction(comb(2 * i, i) * comb(i, j), 4**i) for i in range(j, n + 1)) * 4**n
                rhs = Fraction((2 * n + 1) * comb(n, j) * comb(2 * n, n), 2 * j + 1) if j <= n else Fraction(0)
                assert lhs == rhs
        assert 4**3 * sum(Fraction(comb(2 * i, i) * comb(i, 1), 4**i) for i in range(1, 4)) == 140

    def test_b_poly_values(self):
        assert b_poly(0) == KPoly([1])
        assert b_poly(1) == KPoly([-2, 1])
        assert b_poly(2) == KPoly([-2, -2, 1])


class TestImposedHeadEigenvectors:
    @pytest.mark.parametrize("n,p", [(3, 13), (5, 11), (6, 13)])
    def test_eigen_and_monic_reduction(self, n, p):
        F = field(p)
        lam = None
        for cand in range(1, p):
            if F.quad_char((cand * cand - 4) % p) == 1 and F.root_order(cand) == 2 * n:
                lam = cand
                break
        if lam is None:
            pytest.skip("no embedded root of the right order")
        for kappa in (1, 5):
            v = eigen_vector_mod(n, lam, p, kappa)
            M = build_Mn(n)
            assert [sum(M[r][c] * v[c] for c in range(len(v))) % p for r in range(len(v))] == [
                lam * x % p for x in v
            ]
            assert v[-1] == 0
            ring = prime_ring(p, kappa)
            pl = poly_from_bn_vector(ring, n, [x % p for x in v])
            lhs = phi_x(TriPoly.monomial(ring, 1, 0, 0) * pl)
            rhs = phi_x(pl)
            assert lhs.xpart == rhs.xpart.scale(lam)
            plus = TriPoly(ring, {e: c for e, c in pl.terms.items() if e[1] % 2 == 0 and e[2] % 2 == 0})
            red = phi(plus)
            assert red.degree() == 2 * n and red.coeffs[2 * n] == 1


class TestCoefficientFormulas:
    @staticmethod
    def _kappa_linear_power(lam2, i, cond):
        """(lam^2 - k)^i as a dict kexp -> CycloElem."""
        poly = {0: CycloElem.from_rational(cond, 1)}
        for _ in range(i):
            new = {}
            for ke, cv in poly.items():
                new[ke] = new.get(ke, CycloElem.from_rational(cond, 0)) + cv * lam2
                new[ke + 1] = new.get(ke + 1, CycloElem.from_rational(cond, 0)) - cv
            poly = new
        return poly

    @pytest.mark.parametrize("n,ell,m,nt", [(4, 0, 1, 4), (4, 0, 2, 5), (5, 1, 1, 6), (6, 0, 3, 7)])
    def test_special_input_formula(self, n, ell, m, nt):
        # reduction of x^2n y^2ell (y^2-4)^m: leading coefficients come from
        # level-nt root-of-unity sums; remainder degree is bounded
        y4 = TriPoly(SYM, {(0, 2, 0): SYM.one, (0, 0, 0): SYM.from_int(-4)})
        f = TriPoly.monomial(SYM, 2 * n, 2 * ell, 0) * y4**m
        out = phi(f)
        cond = 2 * nt
        z = CycloElem.zeta(cond)
        acc = {}
        for i in range(0, m + 1):
            tot = {}
            for j in range(1, nt + 1):  # all level values except +2
                lam2 = (z**j + z ** (cond - j)) ** 2
                base = lam2**ell * (lam2 - 4) ** (m - i)
                for ke, cv in self._kappa_linear_power(lam2, i, cond).items():
                    tot[ke] = tot.get(ke, CycloElem.from_rational(cond, 0)) + cv * base
            bp = b_poly(n - i)
            for ke, cv in tot.items():
                assert cv.is_rational()
                cvq = cv.rational_value() * Fraction(comb(2 * i, i), nt)
                for e, bc in enumerate(bp.coeffs):
                    if bc and cvq:
                        acc[2 * e] = acc.get(2 * e, KPoly.zero()) + KPoly([0] * ke + [cvq * bc])
        from markoffmodp.trired import XPoly

        diff = out - XPoly(SYM, acc)
        assert diff.degree() <= max(2 * (ell + m), 2 * n - 2 * m - 2)

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("g_exp", (0, 1))
    def test_leading_coefficient_law(self, n, g_exp):
        # reduction of x^(2 g_exp) * (level-n kernel polynomial): top
        # coefficients are class sums with prefactor (-1)^n / (2n); the
        # printed 1/n scaling fails the n=2,3,4 cross-check
        from markoffmodp.trired import XPoly

        f = TriPoly.monomial(SYM, 2 * g_exp, 0, 0) * fn_poly(SYM, n)
        out = phi(f)
        cond = 2 * n
        z = CycloElem.zeta(cond)
        acc = {}
        for i in range(0, n + 1):
            tot = {}
            for j in range(1, n):  # the +-2 classes are excluded here
                lam2 = (z**j + z ** (cond - j)) ** 2
                base = lam2**g_exp * (lam2 - 4) ** (n - i)
                for ke, cv in self._kappa_linear_power(lam2, i, cond).items():
                    tot[ke] = tot.get(ke, CycloElem.from_rational(cond, 0)) + cv * base
            bp = b_poly(n - i)
            sgn = (-1) ** i * Fraction(comb(2 * n - i - 1, i)) * Fraction((-1) ** n, 2 * n)
            for ke, cv in tot.items():
                assert cv.is_rational()
                cvq = cv.rational_value() * sgn
                for e, bc in enumerate(bp.coeffs):
                    if bc and cvq:
                        acc[2 * e] = acc.get(2 * e, KPoly.zero()) + KPoly([0] * ke + [cvq * bc])
        diff = out - XPoly(SYM, acc)
        assert diff.degree() <= 2 * (-(-3 * n // 4))
