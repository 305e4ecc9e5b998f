"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from markoffmodp.ffield import field
from markoffmodp.orbits import (
    orbit_decomposition,
    surface_points,
    verify_main1,
)
from markoffmodp.spectral import (
    f_vector,
    gen_form_prediction,
    lambda_power_sum,
    local_determinants,
    pair_value,
    qn_direct,
    qn_formula,
    series_coeff_halfint,
)
from markoffmodp.trired import (
    SYM,
    TriPoly,
    parse_poly,
    phi,
    phi_x,
    prime_ring,
    x2_minus_kappa,
)

PRIMES_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES_101 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101)


def _ok(n, msg):
    print(f"\nPASS  criterion {n}: {msg}")


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_reduction_anchors():
    t0 = time.time()
    R0 = prime_ring(1000003, 0)
    f = parse_poly("y^4 - y^2*z^2 + 1/2*x^2*y^2", R0)
    assert phi(f).coeffs == {4: 1, 2: 1000003 - 3}
    xf = parse_poly("x*y^4 - x*y^2*z^2 + 1/2*x^3*y^2", R0)
    assert phi_x(xf).is_zero()
    assert phi(parse_poly("x^4*y^2", R0)).coeffs == {4: 2, 2: 24}
    assert phi(parse_poly("x^2*y^2*z^2", R0)).coeffs == {4: 3, 2: 36}
    took = time.time() - t0
    assert took < 1.0
    _ok(1, f"four reduction anchors exact in {took:.2f}s")


# -- criterion 2 -----------------------------------------------------------


def _random_corpus(count=50, seed=20240):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        t = TriPoly.zero(SYM)
        for _ in range(rng.randint(1, 6)):
            while True:
                a, b, c = (rng.randint(0, 8) for _ in range(3))
                if a + b + c <= 8:
                    break
            t = t + TriPoly.monomial(SYM, a, b, c, rng.randint(-4, 4))
        if not t.is_zero():
            polys.append(t)
    return polys


def _kpoly_eval_mod(kp, kappa, p):
    acc = 0
    for c in reversed(kp.coeffs):
        acc = (acc * kappa + c.numerator * pow(c.denominator, p - 2, p)) % p
    return acc


def test_criterion_2_orbit_sum_preservation():
    t0 = time.time()
    corpus = _random_corpus()
    reduced = [(f, phi(f), phi_x(f)) for f in corpus]
    checked = 0
    for p in PRIMES_31:
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            pts = surface_points(p, kappa)
            if not pts:
                continue
            X = np.array([t[0] for t in pts], dtype=np.int64)
            Y = np.array([t[1] for t in pts], dtype=np.int64)
            Z = np.array([t[2] for t in pts], dtype=np.int64)
            pw = {v: [np.ones_like(X)] for v in "xyz"}
            for arr, v in ((X, "x"), (Y, "y"), (Z, "z")):
                for _ in range(8):
                    pw[v].append(pw[v][-1] * arr % p)
            index = {t: i for i, t in enumerate(pts)}
            gids = np.zeros(len(pts), dtype=np.int64)
            for oi, orb in enumerate(orbit_decomposition(p, kappa, "gamma")):
                for t in orb:
                    gids[index[t]] = oi
            n_g = gids.max() + 1
            xids = np.zeros(len(pts), dtype=np.int64)
            for oi, orb in enumerate(orbit_decomposition(p, kappa, "gamma_x")):
                for t in orb:
                    xids[index[t]] = oi
            n_x = xids.max() + 1

            def orbit_sums(vals, ids, n):
                acc = np.zeros(n, dtype=np.int64)
                np.add.at(acc, ids, vals % p)
                return acc % p

            def spec(coeffs):
                return {e: v for e, v in ((e, _kpoly_eval_mod(c, kappa, p))
                                          for e, c in coeffs.items()) if v}

            ring = prime_ring(p, kappa)
            for f, red, redx in reduced:
                # the sums test the F_p reductions of f's image, which must
                # in turn be the images of the symbolic reductions
                f_p = TriPoly(ring, spec(f.terms))
                red_p, redx_p = phi(f_p), phi_x(f_p)
                assert red_p.coeffs == spec(red.coeffs), (p, kappa)
                assert (redx_p.xpart.coeffs, redx_p.yzpart) == (
                    spec(redx.xpart.coeffs), spec(redx.yzpart)), (p, kappa)
                fv = np.zeros_like(X)
                for (a, b, c), cc in f_p.terms.items():
                    fv = (fv + cc * (pw["x"][a] * pw["y"][b] % p) * pw["z"][c]) % p
                pv = np.zeros_like(X)
                for e, cc in red_p.coeffs.items():
                    pv = (pv + cc * pw["x"][e]) % p  # reduction degree <= 8
                assert np.array_equal(orbit_sums(fv, gids, n_g), orbit_sums(pv, gids, n_g)), (p, kappa)
                xv = np.zeros_like(X)
                for e, cc in redx_p.xpart.coeffs.items():
                    xv = (xv + cc * pw["x"][e]) % p
                for (b, c), cc in redx_p.yzpart.items():
                    xv = (xv + cc * (pw["y"][b] * pw["z"][c] % p)) % p
                assert np.array_equal(orbit_sums(fv, xids, n_x), orbit_sums(xv, xids, n_x)), (p, kappa)
                checked += 1
    _ok(2, f"{checked} (prime, kappa, poly) sum checks exact in {time.time()-t0:.0f}s")


# -- criterion 3 -----------------------------------------------------------


def test_criterion_3_first_coordinate_counts():
    t0 = time.time()
    for p in PRIMES_31:
        F = field(p)
        for kappa in range(p):
            pts = surface_points(p, kappa)
            counts = {}
            for (x, _, _) in pts:
                counts[x] = counts.get(x, 0) + 1
            sk = F.sqrt(kappa)
            for a in range(p):
                if a in (2 % p, (p - 2) % p):
                    continue
                if sk is not None and a in (sk, (p - sk) % p):
                    continue
                assert counts.get(a, 0) == p - F.quad_char((a * a - 4) % p), (p, kappa, a)
    _ok(3, f"slice counts exact for all p <= 31, all kappa, in {time.time()-t0:.0f}s")


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_single_orbit_desk_scale():
    t0 = time.time()
    pairs = 0
    for p in PRIMES_101:
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            res = verify_main1(p, kappa)
            assert res["matches"], (p, kappa, res)
            pairs += 1
    _ok(4, f"coordinate-move orbit structure matches at {pairs} (p, kappa) pairs, "
           f"5 <= p <= 101, in {time.time()-t0:.0f}s")


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_pair_orbit_counts():
    from markoffmodp.nielsen import nielsen_orbits
    from markoffmodp.orbits import enumerate_orbits

    t0 = time.time()
    for p in (5, 7, 11):
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            res = nielsen_orbits(p, kappa)
            expect = 2 if (kappa == 0 and p % 4 == 1) else 1
            assert res["orbit_count"] in (0, expect), (p, kappa, res)
            ess = sum(1 for o in enumerate_orbits(p, kappa).orbits if o.essential)
            assert (res["orbit_count"] == 0) == (ess == 0), (p, kappa)
    _ok(5, f"pair-move orbit counts match for p in (5, 7, 11), all kappa, "
           f"in {time.time()-t0:.0f}s")


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_formula_oracles():
    t0 = time.time()
    # top-coefficient formula, symbolic parameter
    for n in range(0, 9):
        for m in range(0, 4):
            diff = phi(TriPoly.monomial(SYM, 2 * n, 2 * m, 0)) - gen_form_prediction(n, m)
            assert diff.degree() <= 2 * m, (n, m)
    # special-input formula: remainder degree bound
    for n in range(1, 9):
        for m in range(0, min(n, 3) + 1):
            xk, x4 = x2_minus_kappa(SYM), TriPoly.monomial(SYM, 2, 0, 0) - 4
            f = xk ** (n - m) * x4**m * TriPoly.monomial(SYM, 0, 2 * m, 0)
            diff = phi(f) - phi(xk**n).scale(comb(2 * m, m))
            assert diff.degree() <= 2 * m, (n, m)
    # root-of-unity power sums vs series coefficients
    for n in range(2, 11):
        for m in range(0, 4):
            for ell in range(0, 4):
                if ell + m < n:
                    assert lambda_power_sum(n, ell, m) == series_coeff_halfint(m, ell + m)
    # central-binomial summation identity
    for n in range(0, 7):
        for j in range(0, 7):
            lhs = 4**n * sum(Fraction(comb(2 * i, i) * comb(i, j), 4**i) for i in range(j, n + 1))
            rhs = Fraction((2 * n + 1) * comb(n, j) * comb(2 * n, n), 2 * j + 1) if j <= n else Fraction(0)
            assert lhs == rhs
    # closed form for the f_j pairing against power columns
    from markoffmodp.orbits import x_vector

    for p in (101, 103):
        inv = lambda a: pow(a % p, p - 2, p)
        for kappa in (1, 5, 7):
            for j in range(0, 7):
                fj = f_vector(j, p, kappa)
                for x in (2, 3, 5, 17, 23, 50, 77):
                    xh = pow(x, (p - 1) // 2, p)
                    s = sum(comb(2 * i, i) * pow((inv(4) - inv(x)) % p, i, p) for i in range(j + 1)) % p
                    t1 = 4 * pow(x, j, p) * pow((4 - kappa) * inv(4 - x) % p, j + 1, p) % p * ((1 - xh * s) % p) % p
                    t2 = 4 * xh * pow((kappa * inv(4) - 1) % p, j + 1, p) % p * comb(2 * j, j) % p
                    assert pair_value(fj, x_vector(x, p), p) == (t1 - t2) % p, (p, kappa, j, x)
    _ok(6, f"coefficient formulas, power sums, and closed forms exact in {time.time()-t0:.0f}s")


# -- criterion 7 -----------------------------------------------------------


def test_criterion_7_q_vector_anchors():
    t0 = time.time()
    for p in (13, 101):
        for n in (1, 2, 3, 4):
            assert qn_direct(n, p) == qn_formula(n, p), (p, n, "symbolic")
        for kappa in (1, 10):
            for n in (1, 2, 3, 4):
                assert qn_direct(n, p, kappa) == qn_formula(n, p, kappa), (p, n, kappa)
    branch1 = branch3 = 0
    for p in (101, 103):
        F = field(p)
        for kappa in (1, 2, 5, 6, 7, 10, 11):
            if kappa % p in (0, 3):
                continue
            res = local_determinants(p, kappa)
            if res["chi_kappa"] == 1:
                assert res["det2"] == res["det2_expected"], (p, kappa)
                branch1 += 1
            else:
                assert res["det3"] == res["det3_expected"], (p, kappa)
                branch3 += 1
    assert branch1 >= 3 and branch3 >= 3
    _ok(7, f"q anchors at p in (13, 101) and {branch1}+{branch3} determinant "
           f"checks exact in {time.time()-t0:.0f}s")


# -- criteria 8 and 9 ------------------------------------------------------


def test_criterion_8_certification(cert5):
    from markoffmodp.certify import residual_divides_target, check_mod_p

    cert = cert5
    assert cert.verdict() == "true"
    s = cert.payload["stripped"]
    assert residual_divides_target([int(v) for v in s["residual"]])
    assert not s["nonexempt_primes"] and s["unfactored"] is None
    a = int(s["a"])
    for q in range(2, 41):
        while a % q == 0:
            a //= q
    assert a == 1
    for p in (101, 103):
        assert check_mod_p(cert, p)
    _ok(8, f"certification verdict true at d=5 "
           f"(residual {s['residual']}, total {cert.payload['timings']['total']}s)")


@pytest.mark.skipif(os.environ.get("MARKOFF_SKIP_STRETCH") == "1",
                    reason="stretch certification skipped by request")
def test_criterion_8_stretch_d7():
    from markoffmodp.certify import _hash_payload, certify, recheck_errors, residual_divides_target

    t0 = time.time()
    cert = certify(7)
    assert cert.verdict() == "true"
    assert cert.payload["content_hash"] == (
        "2e3757a3a429cafbe178ef03687eff4015985fd4355ce6f863b897c3bf486682")
    # without the recorded cofactors, schema 2 is the schema 1 document
    payload = json.loads(cert.to_json())
    for rec in payload["fold"]:
        rec["witness"].pop("u", None)
    payload["schema"] = 1
    assert _hash_payload(payload) == (
        "32011c00c60b6a9a370f9ff64d119806004dce0ce6e00b568b409f221f0ddcb9")
    s = cert.payload["stripped"]
    assert residual_divides_target([int(v) for v in s["residual"]])
    assert not s["nonexempt_primes"] and s["unfactored"] is None
    assert recheck_errors(cert.payload) == []
    _ok("8 (stretch)", f"certification verdict true at d=7 in {time.time()-t0:.0f}s")


def test_criterion_9_certificate_integrity(cert5):
    from markoffmodp.certify import Certificate, recheck_errors

    cert = cert5
    assert recheck_errors(cert.payload) == []
    text = cert.to_json()
    # single-bit tamper anywhere in the document must be detected
    rng = random.Random(99)
    for _ in range(4):
        pos = rng.randrange(len(text) // 4, 3 * len(text) // 4)
        flipped = chr(ord(text[pos]) ^ 1)
        tampered = text[:pos] + flipped + text[pos + 1 :]
        try:
            bad = Certificate.from_json(tampered)
        except (json.JSONDecodeError, ValueError):
            continue  # unparseable: detected
        assert recheck_errors(bad.payload) != []
    _ok(9, "recheck passes and single-bit tampering is detected")
