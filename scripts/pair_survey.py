#!/usr/bin/env python3
"""Count pair-move orbits of generating pairs for small primes.

The expected count is 1 for every kappa != 4 (or 0 where no generating
pairs exist), doubling to 2 at kappa = 0 when p = 1 mod 4.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markoffmodp.cli import ArgumentParser, exit_code  # noqa: E402
from markoffmodp.nielsen import nielsen_orbits  # noqa: E402


def main():
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--primes", nargs="+", type=int, default=[5, 7, 11])
    args = ap.parse_args()

    bad = []
    for p in args.primes:
        for kappa in range(p):
            if kappa == 4 % p:
                continue
            res = nielsen_orbits(p, kappa)
            expect = 2 if (kappa == 0 and p % 4 == 1) else 1
            ok = res["orbit_count"] in (0, expect)
            print(
                f"p={p:3d} kappa={kappa:3d} orbits={res['orbit_count']} "
                f"sizes={res['orbit_sizes']}{'' if ok else '  <-- MISMATCH'}"
            )
            if not ok:
                bad.append((p, kappa))
    print(f"\nmismatches: {bad if bad else 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
