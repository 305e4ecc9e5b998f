#!/usr/bin/env python3
"""Run the matrix-rank certification for one or more moduli.

Example:
    python scripts/run_certification.py 5 7 --out-dir certs/
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from markoffmodp.certify import certify, recheck_errors  # noqa: E402
from markoffmodp.cli import ArgumentParser, exit_code  # noqa: E402


def main():
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("moduli", nargs="+", type=int)
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for d in args.moduli:
        t0 = time.time()
        cert = certify(d, seed=args.seed)
        path = out_dir / f"certificate_d{d}.json"
        path.write_text(cert.to_json())
        ok = recheck_errors(cert.payload) == []
        s = cert.payload.get("stripped", {})
        print(
            f"d={d}: verdict={cert.verdict()} recheck={'ok' if ok else 'FAIL'} "
            f"residual={s.get('residual')} time={time.time()-t0:.0f}s -> {path}"
        )
        if cert.verdict() != "true":
            worst = max(worst, 2)
        if not ok:
            worst = 1
    return worst


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
