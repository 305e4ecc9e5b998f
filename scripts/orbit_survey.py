#!/usr/bin/env python3
"""Survey the coordinate-move orbit structure over a range of primes.

Prints one line per (p, kappa) with the orbit sizes and exception tags, and
a summary of any mismatches against the expected single-orbit structure.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markoffmodp.cli import ArgumentParser, exit_code  # noqa: E402
from markoffmodp.ffield import is_prime  # noqa: E402
from markoffmodp.orbits import enumerate_orbits, verify_main1  # noqa: E402


def main():
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--min-p", type=int, default=5)
    ap.add_argument("--max-p", type=int, default=31)
    ap.add_argument("--details", action="store_true", help="print per-orbit tags")
    args = ap.parse_args()

    bad = []
    for p in range(args.min_p, args.max_p + 1):
        if p % 2 == 0 or not is_prime(p):
            continue
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            res = verify_main1(p, kappa)
            flag = "" if res["matches"] else "  <-- MISMATCH"
            print(
                f"p={p:3d} kappa={kappa:3d} orbits={res['orbit_count']:2d} "
                f"exceptional={res['exceptional_orbits']}{flag}"
            )
            if args.details:
                rep = enumerate_orbits(p, kappa, "vieta")
                for o in rep.orbits:
                    print(f"      rep={o.rep} size={o.size} [{o.category}]")
            if not res["matches"]:
                bad.append((p, kappa))
    print(f"\nmismatches: {bad if bad else 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
