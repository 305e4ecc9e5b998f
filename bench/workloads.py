"""The three benchmark workloads: inputs, the timed operation, and the gates.

Each workload is a class with
  prepare(seed)   build the inputs (counted as set-up),
  run()           the timed region; returns Stopwatch.units,
  gate()          check the outputs; returns {failed operation: reason}.
`operations` is the number of gated operations one run() performs.
The program is reached only through public entry points called as module
attributes (`cli.main`, `trired.phi`, `orbits.verify_main1`, ...), so the
traced run can wrap them in place.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from markoffmodp import cli, nielsen, orbits, spectral, trired
from markoffmodp.certify import check_mod_p, residual_divides_target

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


class Stopwatch:
    """Times the units of one operation: {stage: {unit: (start, end)}} in
    time.perf_counter() readings, which child.py turns into wall and
    reference seconds.  A unit is a fixed slice of the work."""

    def __init__(self):
        self.units = {}

    def time(self, stage, unit, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.units.setdefault(stage, {})[unit] = (t0, time.perf_counter())
        return out


# ---------------------------------------------------------------------------
# certify-d5


class CertifyWorkload:
    """`markoff certify --d D` then `markoff recheck`, through `cli.main`.

    The certify seed is the CLI default for every benchmark seed: fold
    depth and fold cost depend on it (see results/fold_by_seed.json), which
    would put a 2x seed-to-seed spread on recheck time.
    """

    certify_seed = 1729
    operations = 2

    def __init__(self, d, out_dir):
        self.d = d
        self.out_dir = Path(out_dir)

    def prepare(self, seed):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cert_path = self.out_dir / f"cert-d{self.d}-{os.getpid()}.json"
        self.argv_certify = ["certify", "--d", str(self.d), "--seed", str(self.certify_seed),
                             "--out", str(self.cert_path)]
        self.argv_recheck = ["recheck", "--cert", str(self.cert_path)]

    def run(self):
        sw = Stopwatch()
        self.rc_certify = sw.time("certify_s", "certify", cli.main, self.argv_certify)
        self.rc_recheck = sw.time("recheck_s", "recheck", cli.main, self.argv_recheck)
        return sw.units

    def counters(self):
        return {"certify.cert_bytes": self.cert_path.stat().st_size}

    def gate(self):
        try:
            payload = json.loads(self.cert_path.read_text())
        except (OSError, ValueError) as exc:
            return {"certify": f"certificate unreadable: {exc!r}"}
        finally:
            self.cert_path.unlink(missing_ok=True)
        failures = {}
        fails = certificate_failures(payload, self.rc_certify,
                                     REFERENCE["certify"].get(str(self.d)), self.certify_seed)
        if fails:
            failures["certify"] = "; ".join(fails)
        if self.rc_recheck != 0:
            failures["recheck"] = f"exit code {self.rc_recheck}"
        return failures


def certificate_failures(payload, exit_code, ref, seed):
    """Every way a certify result can differ from the seed-commit record."""
    fails = []
    if exit_code != 0:
        fails.append(f"exit code {exit_code}")
    if payload.get("verdict") != "true":
        fails.append(f"verdict {payload.get('verdict')!r}")
    if ref and payload.get("matrix_fingerprint") != ref["matrix_fingerprint"]:
        fails.append("matrix_fingerprint differs from the seed commit")
    at_seed = ref["at_seed"].get(str(seed)) if ref else None
    if at_seed is not None:
        if payload.get("ideal_element") != at_seed["ideal_element"]:
            fails.append("ideal_element differs from the seed commit")
        if payload.get("stripped") != at_seed["stripped"]:
            fails.append("stripped differs from the seed commit")
    stripped = payload.get("stripped") or {}
    try:
        if not residual_divides_target([int(v) for v in stripped["residual"]]):
            fails.append("residual does not divide the target")
        if stripped["nonexempt_primes"]:
            fails.append("nonexempt primes present")
        for p in (101, 103):
            if not check_mod_p(payload, p):
                fails.append(f"check_mod_p fails at p={p}")
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        fails.append(f"malformed certificate: {exc!r}")
    return fails


# ---------------------------------------------------------------------------
# desk-scale


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


class DeskWorkload:
    """The brute-force side: every (p, kappa) single-orbit check for
    5 <= p <= 101, pair orbits at p in {5, 7, 11}, and the criterion-7
    q-vector and determinant points.  Exhaustive, so the seed is unused."""

    def prepare(self, seed):
        self.main1_points = [(p, k) for p in _primes(5, 101) for k in range(p) if k != 4 % p]
        self.nielsen_points = [(p, k) for p in (5, 7, 11) for k in range(p) if k != 4 % p]
        self.qn_points = [(p, kappa, n) for p in (13, 101) for kappa in (None, 1, 10)
                          for n in (1, 2, 3, 4)]
        self.det_points = [(p, k) for p in (101, 103) for k in (1, 2, 5, 6, 7, 10, 11)
                           if k % p not in (0, 3)]
        self.operations = (len(self.main1_points) + len(self.nielsen_points)
                           + len(self.qn_points) + len(self.det_points))

    def run(self):
        sw = Stopwatch()

        def each(fn, points):
            return [fn(*point) for point in points]

        def qn_pair(p, k, n):
            return spectral.qn_direct(n, p, k), spectral.qn_formula(n, p, k)

        def by_prime(points):
            return [(p, [pt for pt in points if pt[0] == p]) for p in sorted({pt[0] for pt in points})]

        self.main1, self.pairs, self.qn, self.dets = [], [], [], []
        for p, pts in by_prime(self.main1_points):
            self.main1 += sw.time("main1_s", f"main1 p={p}", each, orbits.verify_main1, pts)
        for p, pts in by_prime(self.nielsen_points):
            self.pairs += sw.time("pairs_qvec_s", f"nielsen p={p}", each, nielsen.nielsen_orbits, pts)
        for p, pts in by_prime(self.qn_points):
            self.qn += sw.time("pairs_qvec_s", f"qn p={p}", each, qn_pair, pts)
        for p, pts in by_prime(self.det_points):
            self.dets += sw.time("pairs_qvec_s", f"det p={p}", each, spectral.local_determinants, pts)
        return sw.units

    def counters(self):
        return {}

    def gate(self):
        failures = {}
        for (p, k), res in zip(self.main1_points, self.main1):
            if not res["matches"]:
                failures[f"verify_main1({p},{k})"] = "orbit structure does not match"
        zero_ref = REFERENCE["desk"]["nielsen_zero_kappas"]
        failures.update(nielsen_failures(self.nielsen_points, self.pairs, zero_ref))
        for (p, k, n), (direct, formula) in zip(self.qn_points, self.qn):
            if direct != formula:
                failures[f"qn({n},{p},{k})"] = "qn_direct != qn_formula"
        for (p, k), res in zip(self.det_points, self.dets):
            failures.update(determinant_failures(p, k, res))
        return failures


def nielsen_failures(points, results, zero_ref):
    """Each count is 0 or the expected count, and zero exactly at the kappas
    the seed commit recorded."""
    fails = {}
    for (p, k), res in zip(points, results):
        expect = 2 if (k == 0 and p % 4 == 1) else 1
        count = res["orbit_count"]
        if count not in (0, expect):
            fails[f"nielsen_orbits({p},{k})"] = f"count {count}, expected 0 or {expect}"
        elif (count == 0) != (k in zero_ref[str(p)]):
            fails[f"nielsen_orbits({p},{k})"] = "zero-count kappas differ from the seed commit"
    return fails


def determinant_failures(p, kappa, res):
    """Both determinants against closed forms recomputed here."""
    det2 = (-(8 * pow(3, p - 2, p)) * (4 - kappa)) % p
    if pow(kappa, (p - 1) // 2, p) == 1:
        ok = res["det2"] == det2 == res["det2_expected"]
    else:
        ok = res.get("det3") == pow(2, 19, p) * kappa % p == res.get("det3_expected")
    return {} if ok else {f"local_determinants({p},{kappa})": "determinant differs from its closed form"}


# ---------------------------------------------------------------------------
# reduce-mix

# One lead z-degree per corpus polynomial.  The cost of `canonical_form`
# about doubles per unit of z-degree, so the schedule is fixed, every lead
# term has the full total degree, the other terms stay at z-degree <= 4, and
# the seed only draws exponents and coefficients: every seed gets the same
# cost profile, including one z^14 term on the exponential cliff.
Z_SCHEDULE = (14, 13, 12, 12, 11, 11, 10, 10, 10, 9, 9, 9, 8, 8, 8, 8,
              7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 0)
MAX_DEGREE = 16
OTHER_TERMS = 3
OTHER_MAX_Z = 4
# (p, number of kappas): small primes admit the brute-force orbit oracle,
# large ones carry multi-word coefficients.
RING_PRIMES = ((13, 2), (17, 1), (19, 1), (23, 1), (29, 1), (31, 2), (101, 2), (103, 1),
               (1009, 1), (10007, 1), (1000003, 1), (2147483647, 1))
ORACLE_SAMPLE = 3


def random_corpus(rng):
    """Corpus as lists of ((a, b, c), (c0, c1)) terms: coefficient c0 + c1*k."""
    corpus = []
    for lead_z in Z_SCHEDULE:
        a = rng.randint(0, MAX_DEGREE - lead_z)
        exponents = {(a, MAX_DEGREE - lead_z - a, lead_z)}
        while len(exponents) < 1 + OTHER_TERMS:
            c = rng.randint(0, min(lead_z, OTHER_MAX_Z))
            a = rng.randint(0, MAX_DEGREE - c)
            exponents.add((a, rng.randint(0, MAX_DEGREE - c - a), c))
        corpus.append([(e, (rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(-2, 2)))
                       for e in sorted(exponents)])
    return corpus


def build_poly(terms, ring):
    k = trired.kappa_poly(ring)
    out = trired.TriPoly.zero(ring)
    for (a, b, c), (c0, c1) in terms:
        mono = trired.TriPoly.monomial(ring, a, b, c)
        out = out + mono.scale_ring(ring.from_int(c0)) + (mono * k).scale_ring(ring.from_int(c1))
    return out


class ReduceWorkload:
    """Seeded trivariate corpus through `phi` and `phi_x`, symbolic and
    over a spread of prime rings."""

    def prepare(self, seed):
        rng = random.Random(seed)
        self.corpus = random_corpus(rng)
        self.rings = []
        for p, count in RING_PRIMES:
            kappas = set()
            while len(kappas) < count:
                k = rng.randrange(1, p)
                if k != 4 % p:
                    kappas.add(k)
            self.rings += [trired.prime_ring(p, k) for k in sorted(kappas)]
        self.sym_polys = [build_poly(t, trired.SYM) for t in self.corpus]
        self.fp_polys = [[build_poly(t, r) for t in self.corpus] for r in self.rings]
        self.oracle = rng.sample(range(len(self.corpus)), ORACLE_SAMPLE)
        self.operations = 2 * len(self.corpus) * (1 + len(self.rings))

    def run(self):
        phi, phi_x = trired.phi, trired.phi_x
        sw = Stopwatch()

        def reduce_all(polys):
            return [(phi(f), phi_x(f)) for f in polys]

        self.sym = [sw.time("reduce_sym_s", f"poly {i}", reduce_all, [f])[0]
                    for i, f in enumerate(self.sym_polys)]
        self.fp = [sw.time("reduce_fp_s", f"F_{r.p} kappa={r.kappa}", reduce_all, polys)
                   for r, polys in zip(self.rings, self.fp_polys)]
        return sw.units

    def counters(self):
        return {}

    def gate(self):
        failures = {}
        for ring, results in zip(self.rings, self.fp):
            for i, (sym, got) in enumerate(zip(self.sym, results)):
                failures.update(fp_failures(sym, got, ring, i))
        for i in self.oracle:
            for ring in self.rings:
                if ring.p <= 31:
                    failures.update(orbit_sum_failures(self.corpus[i], self.sym[i], ring, i))
        return failures


def _spec(kp, kappa, p):
    """A KPoly over Q evaluated at kappa mod p."""
    acc = 0
    for c in reversed(kp.coeffs):
        acc = (acc * kappa + c.numerator * pow(c.denominator, p - 2, p)) % p
    return acc


def _spec_all(coeffs, kappa, p):
    return {e: v for e, v in ((e, _spec(c, kappa, p)) for e, c in coeffs.items()) if v}


def _mod_all(coeffs, p):
    return {e: v % p for e, v in coeffs.items() if v % p}


def fp_failures(sym, got, ring, index):
    """The F_p reductions equal the symbolic ones specialised at kappa mod p."""
    p, kappa = ring.p, ring.kappa
    (sphi, sphix), (fphi, fphix) = sym, got
    fails = {}
    if _mod_all(fphi.coeffs, p) != _spec_all(sphi.coeffs, kappa, p):
        fails[f"phi({index},{p},{kappa})"] = "F_p result differs from the specialised symbolic one"
    want = (_spec_all(sphix.xpart.coeffs, kappa, p), _spec_all(sphix.yzpart, kappa, p))
    if (_mod_all(fphix.xpart.coeffs, p), _mod_all(fphix.yzpart, p)) != want:
        fails[f"phi_x({index},{p},{kappa})"] = "F_p result differs from the specialised symbolic one"
    return fails


def orbit_sum_failures(terms, sym, ring, index):
    """Criterion-2 oracle: summed over each orbit of the surface, f agrees
    with phi(f) (all coordinate moves) and with phi_x(f) (moves fixing x).
    It evaluates polynomials point by point and shares no algebra with phi."""
    p, kappa = ring.p, ring.kappa
    sphi, sphix = sym
    phi_c = _spec_all(sphi.coeffs, kappa, p)
    x_c = _spec_all(sphix.xpart.coeffs, kappa, p)
    yz_c = _spec_all(sphix.yzpart, kappa, p)

    def f_at(x, y, z):
        return sum((c0 + c1 * kappa) * pow(x, a, p) * pow(y, b, p) * pow(z, c, p)
                   for (a, b, c), (c0, c1) in terms)

    def phi_at(x, y, z):
        return sum(c * pow(x, e, p) for e, c in phi_c.items())

    def phi_x_at(x, y, z):
        return (sum(c * pow(x, e, p) for e, c in x_c.items())
                + sum(c * pow(y, b, p) * pow(z, cz, p) for (b, cz), c in yz_c.items()))

    fails = {}
    for gens, reduced, op in (("gamma", phi_at, "phi"), ("gamma_x", phi_x_at, "phi_x")):
        for orb in orbits.orbit_decomposition(p, kappa, gens):
            if sum(f_at(*t) for t in orb) % p != sum(reduced(*t) for t in orb) % p:
                fails[f"{op}({index},sym)"] = f"orbit sums differ at p={p} kappa={kappa}"
                break
    return fails


WORKLOADS = {
    "certify-d5": lambda out_dir: CertifyWorkload(5, out_dir),
    "certify-d7": lambda out_dir: CertifyWorkload(7, out_dir),
    "desk-scale": lambda out_dir: DeskWorkload(),
    "reduce-mix": lambda out_dir: ReduceWorkload(),
}
