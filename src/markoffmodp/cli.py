"""Command-line interface.

Exit codes: 0 success, 1 domain error, 2 inconclusive verdict,
3 resource limit, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__


def main(argv=None):
    """Run one subcommand: its return value, or 64 on a usage error, 1 on a
    domain error and 3 at a resource limit, with one stderr line."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage()
            return 64
        return args.func(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc} (see --help)", file=sys.stderr)
        return 64
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceWarning as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


class UsageError(Exception):
    """An argument list that an `ArgumentParser` refuses."""


class ArgumentParser(argparse.ArgumentParser):
    """argparse that raises UsageError where it would exit 2, so that `main`
    maps a usage error to 64 (2 is the inconclusive-verdict code)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser():
    p = ArgumentParser(prog="markoff", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command")

    r = sub.add_parser("reduce", help="reduce a polynomial in x, y, z")
    r.add_argument("--kappa", required=True, help="'sym' or a rational value")
    r.add_argument("--poly", required=True, help="e.g. 'y^4 - y^2*z^2 + 1/2*x^2*y^2'")
    r.add_argument("--p", type=int, help="prime modulus (required for numeric kappa)")
    r.add_argument("--phi-x", action="store_true", help="first-coordinate-preserving reduction")
    r.set_defaults(func=cmd_reduce)

    o = sub.add_parser("orbits", help="orbit decomposition of the surface at (p, kappa)")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--kappa", type=int, required=True)
    o.add_argument("--vieta-only", action="store_true")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_orbits)

    v1 = sub.add_parser("verify-main1", help="single-orbit check for coordinate moves")
    v1.add_argument("--p", type=int, required=True)
    v1.add_argument("--kappa", type=int, help="restrict to one kappa")
    v1.set_defaults(func=cmd_verify_main1)

    vn = sub.add_parser("verify-nielsen", help="pair-move orbit counts over SL2(F_p)")
    vn.add_argument("--p", type=int, required=True)
    vn.add_argument("--kappa", type=int)
    vn.set_defaults(func=cmd_verify_nielsen)

    sp = sub.add_parser("spectral", help="q-vector and determinant diagnostics")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--qn", type=int, choices=range(1, 5), default=4,
                    help="compare q_1..q_n for n in 1..4 (default 4)")
    sp.set_defaults(func=cmd_spectral)

    ce = sub.add_parser("certify", help="matrix-rank certification for a modulus d")
    ce.add_argument("--d", type=int, required=True)
    ce.add_argument("--out", help="write the certificate JSON here")
    ce.add_argument("--seed", type=int, default=1729)
    ce.set_defaults(func=cmd_certify)

    rc = sub.add_parser("recheck", help="re-verify a certificate")
    rc.add_argument("--cert", required=True)
    rc.set_defaults(func=cmd_recheck)

    st = sub.add_parser("selftest", help="run the recorded checks")
    st.add_argument("--level", choices=("fast", "full"), default="fast")
    st.set_defaults(func=cmd_selftest)
    return p


def cmd_reduce(args):
    from fractions import Fraction
    from .trired import (
        SYM, XPoly, TriPoly, parse_poly, phi, phi_x, format_xpoly, format_tripoly,
        prime_ring,
    )
    from .ffield import field
    from .rings import frac_mod

    if args.p is not None:
        if args.kappa == "sym":
            raise ValueError("symbolic kappa cannot be combined with --p")
        field(args.p)  # refuse a non-prime p before reading kappa mod p
        ring = prime_ring(args.p, frac_mod(args.kappa, args.p))
        f = parse_poly(args.poly, ring)
        out = phi_x(f).to_tripoly() if args.phi_x else phi(f).to_tripoly()
        print(format_tripoly(out))
        return 0
    # exact arithmetic over Q: reduce symbolically, then specialize kappa
    f = parse_poly(args.poly, SYM)
    res = phi_x(f).to_tripoly() if args.phi_x else phi(f).to_tripoly()
    if args.kappa != "sym":
        kv = Fraction(args.kappa)
        spec = TriPoly(SYM)
        for e, c in res.terms.items():
            spec = spec + TriPoly.monomial(SYM, *e, coeff=c(kv))
        res = spec
        print(format_tripoly(res))
    elif not args.phi_x:
        # univariate symbolic output reads best with grouped coefficients
        print(format_xpoly(XPoly(SYM, {a: c for (a, _, _), c in res.terms.items()})))
    else:
        print(format_tripoly(res))
    return 0


def cmd_orbits(args):
    from .orbits import enumerate_orbits

    rep = enumerate_orbits(args.p, args.kappa, "vieta" if args.vieta_only else "gamma")
    if args.json:
        print(rep.to_json())
    else:
        print(f"p={rep.p} kappa={rep.kappa} generators={rep.generators} points={rep.total}")
        for o in rep.orbits:
            tag = o.category if not o.essential else "essential"
            print(f"  orbit rep={o.rep} size={o.size} [{tag}]")
    return 0


def _kappas(args):
    """The requested kappa, or every kappa != 4 mod p; p must be an odd prime."""
    from .ffield import field

    field(args.p)
    return [args.kappa] if args.kappa is not None else [k for k in range(args.p) if k != 4 % args.p]


def cmd_verify_main1(args):
    from .orbits import verify_main1

    all_ok = True
    for kappa in _kappas(args):
        res = verify_main1(args.p, kappa)
        ok = "ok" if res["matches"] else "MISMATCH"
        all_ok &= res["matches"]
        print(
            f"p={args.p} kappa={kappa}: orbits={res['orbit_count']} "
            f"exceptional={res['exceptional_orbits']} {ok}"
        )
    return 0 if all_ok else 1


def cmd_verify_nielsen(args):
    from .nielsen import nielsen_orbits

    all_ok = True
    for kappa in _kappas(args):
        res = nielsen_orbits(args.p, kappa)
        expect = 2 if (kappa % args.p == 0 and args.p % 4 == 1) else 1
        ok = res["orbit_count"] in (0, expect)
        all_ok &= ok
        print(json.dumps(res, sort_keys=True), "" if ok else "MISMATCH")
    return 0 if all_ok else 1


def cmd_spectral(args):
    from .ffield import field
    from .spectral import QN_MIN_PRIME, qn_direct, qn_formula, local_determinants

    field(args.p)
    if args.p < QN_MIN_PRIME:
        raise ValueError(
            f"p={args.p} divides a denominator of q_1..q_4 (whose denominators have "
            f"prime factors 2, 3, 5, 7); spectral needs p >= {QN_MIN_PRIME}"
        )
    out = {"p": args.p, "kappa": args.kappa, "qn_match": {}}
    for n in range(1, args.qn + 1):
        out["qn_match"][str(n)] = qn_direct(n, args.p, args.kappa) == qn_formula(n, args.p, args.kappa)
    dets = local_determinants(args.p, args.kappa)
    out["det2"] = dets["det2"]
    out["det2_expected"] = dets["det2_expected"]
    out["chi_kappa"] = dets["chi_kappa"]
    if "det3" in dets:
        out["det3"] = dets["det3"]
        out["det3_expected"] = dets["det3_expected"]
    print(json.dumps(out, sort_keys=True))
    ok = all(out["qn_match"].values())
    if dets["chi_kappa"] == 1:
        ok &= dets["det2"] == dets["det2_expected"]
    elif "det3" in dets:
        ok &= dets["det3"] == dets["det3_expected"]
    return 0 if ok else 1


def cmd_certify(args):
    from .certify import certify

    if args.out:
        # refuse before the run, and leave an existing file as it is until
        # the certificate is ready
        folder = os.path.dirname(args.out) or "."
        if not os.path.isdir(folder):
            raise OSError(f"--out directory {folder!r} does not exist")
        if os.path.isdir(args.out) or not os.access(folder, os.W_OK) or (
                os.path.exists(args.out) and not os.access(args.out, os.W_OK)):
            raise OSError(f"--out file {args.out!r} is not writable")
    cert = certify(args.d, seed=args.seed)
    text = cert.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(text)} bytes)")
    print(f"d={args.d} verdict={cert.verdict()}")
    s = cert.payload.get("stripped")
    if s:
        print(f"  residual={s['residual']} b={s['b']} a_digits={len(s['a'])}")
        if s["exempt_primes"]:
            print(f"  exempt primes: {s['exempt_primes']}")
    return 0 if cert.verdict() == "true" else 2


def cmd_recheck(args):
    from .certify import Certificate, recheck_errors

    with open(args.cert) as fh:
        cert = Certificate.from_json(fh.read())
    errors = recheck_errors(cert.payload)
    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        return 1
    print("certificate consistent")
    return 0


def cmd_selftest(args):
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # noqa: BLE001 - report, do not crash the harness
            ok = False
            name = f"{name} ({exc!r})"
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    from fractions import Fraction
    from .trired import parse_poly, phi, phi_x, prime_ring
    from .rings import CycloElem
    from .spectral import (
        fn_poly, qn_direct, qn_formula, local_determinants, verify_An_eigen, gen_eigen_lambda2,
    )
    from .orbits import enumerate_orbits, verify_main1
    from .nielsen import nielsen_orbits
    from .certify import recheck_errors

    R0 = prime_ring(10**6 + 3, 0)
    check("reduction anchor x^4-3x^2", lambda: phi(parse_poly("y^4 - y^2*z^2 + 1/2*x^2*y^2", R0)).coeffs == {4: 1, 2: 10**6})
    check("reduction anchor 2x^4+24x^2", lambda: phi(parse_poly("x^4*y^2", R0)).coeffs == {4: 2, 2: 24})
    check("reduction anchor 3x^4+36x^2", lambda: phi(parse_poly("x^2*y^2*z^2", R0)).coeffs == {4: 3, 2: 36})
    check("x-preserving reduction vanishes", lambda: phi_x(parse_poly("x*y^4 - x*y^2*z^2 + 1/2*x^3*y^2", R0)).is_zero())
    check("block eigen identity", lambda: verify_An_eigen(3, CycloElem.zeta(6)))
    R101 = prime_ring(101, 5)
    check("closed-form F_5 = product form over F_101", lambda: fn_poly(R101, 5) == _fn_product_form(R101, 5))
    check("g_{8,24} over Z vanishes exactly on the bad classes", lambda: _g_is_the_bad_class_product(8, 24))
    check("generalized eigenvectors", lambda: gen_eigen_lambda2(2)[2] == [Fraction(4, 6), Fraction(8, 6), Fraction(4, 6), Fraction(1, 6), 0, 0])
    check("q vectors (p=13)", lambda: all(qn_direct(n, 13, 5) == qn_formula(n, 13, 5) for n in (1, 2, 3, 4)))
    check("pairing determinant chi=+1", lambda: (lambda r: r["det2"] == r["det2_expected"])(local_determinants(101, 5)))
    check("pairing determinant chi=-1", lambda: (lambda r: r.get("det3") == r.get("det3_expected"))(local_determinants(101, 2)))
    check("orbit count (7, 0)", lambda: len(enumerate_orbits(7, 0).orbits) == 2)
    check("single-orbit check (13, all kappa)", lambda: all(verify_main1(13, k)["matches"] for k in range(13) if k != 4))
    check("pair orbits (5, 0) doubled", lambda: nielsen_orbits(5, 0)["orbit_count"] == 2)
    check("pair orbits (7, 0) single", lambda: nielsen_orbits(7, 0)["orbit_count"] == 1)
    check("recheck refuses a hidden non-exempt prime", lambda: recheck_errors(
        _hidden_prime_payload()) == ["a has a prime factor above 2*n_d = 40"])
    check("recheck refuses schema 1", lambda: recheck_errors(
        {**_hidden_prime_payload(), "schema": 1}) == [
        "schema 1 certificates record no Bezout cofactors: re-run `markoff certify`"])

    if args.level == "full":
        from .certify import certify

        check("single-orbit sweep p<=31", lambda: all(
            verify_main1(p, k)["matches"]
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
            for k in range(p) if k != 4 % p
        ))
        check("pair orbit counts p=11", lambda: all(
            nielsen_orbits(11, k)["orbit_count"] in (0, 1)
            for k in range(11) if k != 4
        ))
        cert = certify(5)
        check("certification d=5 verdict true", lambda: cert.verdict() == "true")
        check("certificate recheck", lambda: recheck_errors(cert.payload) == [])
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


def _hidden_prime_payload():
    """A d = 5 certificate whose one minor is 43 (k-2)(k-3), with the
    non-exempt prime 43 booked in the 2*n_d-smooth part `a` and every other
    field, the hash included, consistent: recheck must refuse it."""
    from .certify import SCHEMA_VERSION, _hash_payload, build_plan

    minor = [str(43 * v) for v in (6, -5, 1)]
    payload = {
        "schema": SCHEMA_VERSION, "d": 5, "n_d": 20, "seed": 1729, "verdict": "true",
        "plan": build_plan(5).entries, "rows": [3, 20], "num_rows": 18,
        "num_columns": 20, "rank": 18,
        "minors": [{"columns": list(range(18)), "poly": minor}],
        "fold": [],
        "ideal_element": minor,
        "stripped": {"residual": ["6", "-5", "1"], "a": "43", "b": 0, "exempt_primes": [],
                     "nonexempt_primes": [], "unfactored": None},
    }
    payload["content_hash"] = _hash_payload(payload)
    return payload


def _g_is_the_bad_class_product(d, n):
    """Whether the integer g_dn_poly(d, n) is monic of degree the bad class
    count and, evaluated at each lambda_j^2 in Q(zeta_2n), vanishes at the
    bad classes and at no good one: the field oracle for its construction."""
    from .rings import CycloElem, ipoly_eval
    from .spectral import g_dn_poly, lambda_classes

    g, (good, bad, _), z = g_dn_poly(d, n), lambda_classes(d, n), CycloElem.zeta(2 * n)
    zero = [ipoly_eval(g, (z**j + z ** (2 * n - j)) ** 2).is_zero() for j in good + bad]
    return g[-1] == 1 and len(g) - 1 == len(bad) and zero == [False] * len(good) + [True] * len(bad)


def _fn_product_form(ring, n):
    """F_n by its definition, a sum of products of powers of x^2 - 4 and
    x^2 - k: the oracle the self-test holds the closed-form `fn_poly` to."""
    from fractions import Fraction
    from math import comb

    from .trired import TriPoly, x2_minus_kappa

    x4 = TriPoly.monomial(ring, 2, 0, 0) - 4
    return sum((TriPoly.monomial(ring, 0, 2 * i, 0, Fraction((-1) ** i * n * comb(n + i, 2 * i), n + i))
                * x4**i * x2_minus_kappa(ring) ** (n - i) for i in range(n + 1)), TriPoly.zero(ring))


if __name__ == "__main__":
    sys.exit(main())
