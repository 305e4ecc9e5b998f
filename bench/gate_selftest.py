"""Show that each workload's gate counts a corrupted result as a failure.

    python3 bench/gate_selftest.py [--cert CERT.json]

For each gate: the true result must pass, and a corrupted copy must fail.
The corruptions are one flipped ideal-element digit (certify-d5), one wrong
pair-orbit count and one wrong determinant (desk-scale), and one perturbed
F_p coefficient plus one perturbed symbolic coefficient (reduce-mix).
Without --cert a d=5 certificate is built first (about half a minute).
Exit code 0 when every check behaves.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from markoffmodp import nielsen, spectral, trired  # noqa: E402


def expect(name, clean, corrupted):
    """Gates return a list of reasons or a dict {operation: reason}."""
    ok = not clean and bool(corrupted)
    if isinstance(corrupted, dict):
        corrupted = [f"{op}: {why}" for op, why in corrupted.items()]
    print(f"{'PASS' if ok else 'FAIL'}  {name}: clean result -> {len(clean)} failures, "
          f"corrupted -> {len(corrupted)} ({'; '.join(corrupted)[:200]})")
    return ok


def certify_gate(cert_path):
    if cert_path:
        payload = json.loads(Path(cert_path).read_text())
    else:
        from markoffmodp.certify import certify

        payload = certify(5, seed=W.CertifyWorkload.certify_seed).payload
    ref = W.REFERENCE["certify"]["5"]
    seed = payload["seed"]
    bad = copy.deepcopy(payload)
    digits = bad["ideal_element"][0]
    flipped = str((int(digits[-1]) + 1) % 10)
    bad["ideal_element"][0] = digits[:-1] + flipped
    return expect("certify-d5: one flipped ideal-element digit",
                  W.certificate_failures(payload, 0, ref, seed),
                  W.certificate_failures(bad, 0, ref, seed))


def desk_gates():
    zero_ref = W.REFERENCE["desk"]["nielsen_zero_kappas"]
    points = [(5, k) for k in range(5) if k != 4]
    results = [nielsen.nielsen_orbits(p, k) for p, k in points]
    bad = copy.deepcopy(results)
    bad[0]["orbit_count"] += 1
    ok = expect("desk-scale: one wrong pair-orbit count",
                W.nielsen_failures(points, results, zero_ref),
                W.nielsen_failures(points, bad, zero_ref))
    res = spectral.local_determinants(101, 5)
    bad = dict(res, det2=(res["det2"] + 1) % 101, det3=(res.get("det3", 0) + 1) % 101)
    return ok & expect("desk-scale: one wrong pairing determinant",
                       W.determinant_failures(101, 5, res),
                       W.determinant_failures(101, 5, bad))


def reduce_gates():
    corpus = W.random_corpus(random.Random(1))
    index = len(corpus) - 3  # a cheap member: low z-degree
    terms = corpus[index]
    f_sym = W.build_poly(terms, trired.SYM)
    sym = (trired.phi(f_sym), trired.phi_x(f_sym))
    ring = trired.prime_ring(13, 5)
    f_fp = W.build_poly(terms, ring)
    got = (trired.phi(f_fp), trired.phi_x(f_fp))
    bad_phi = copy.deepcopy(got[0])
    e = max(bad_phi.coeffs)
    bad_phi.coeffs[e] = (bad_phi.coeffs[e] + 1) % ring.p
    ok = expect("reduce-mix: one perturbed F_p coefficient",
                W.fp_failures(sym, got, ring, index),
                W.fp_failures(sym, (bad_phi, got[1]), ring, index))
    bad_sym = copy.deepcopy(sym[0])
    e = min(bad_sym.coeffs)
    bad_sym.coeffs[e] = bad_sym.coeffs[e] + 1
    return ok & expect("reduce-mix: orbit-sum oracle on one perturbed symbolic coefficient",
                       W.orbit_sum_failures(terms, sym, ring, index),
                       W.orbit_sum_failures(terms, (bad_sym, sym[1]), ring, index))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cert", help="a d=5 certificate made with the CLI default seed")
    args = ap.parse_args()
    ok = desk_gates() & reduce_gates() & certify_gate(args.cert)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
