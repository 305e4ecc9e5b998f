"""The command-line scripts, each run once in a subprocess with tiny inputs."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_orbit_survey():
    proc = run_script("orbit_survey.py", "--max-p", "13")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pair_survey():
    proc = run_script("pair_survey.py", "--primes", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_certification_degenerate_d2(tmp_path):
    # d = 2 certifies an empty congruence class: inconclusive, exit 2
    proc = run_script("run_certification.py", "2", "--out-dir", str(tmp_path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "recheck=ok" in proc.stdout
    assert (tmp_path / "certificate_d2.json").is_file()


@pytest.mark.parametrize("name,args,code", [
    ("pair_survey.py", ("--primes", "13"), 3),
    ("run_certification.py", ("12",), 3),
    ("orbit_survey.py", ("--min-p", "401", "--max-p", "409"), 3),
    ("pair_survey.py", ("--primes", "9"), 1),
    ("run_certification.py", (), 64),
    ("pair_survey.py", ("--primes", "x"), 64),
], ids=["pair-p-13", "certify-d-12", "orbit-p-401", "pair-p-9", "certify-no-modulus",
        "pair-primes-x"])
def test_refusal_exit_codes(name, args, code):
    # 3 at a resource limit, 1 on a domain error and 64 on a usage error
    # (not argparse's 2, which run_certification.py uses for an
    # inconclusive verdict), as `markoff` exits, with one line on stderr in
    # place of a traceback; d = 12 is refused before any certificate file
    # is written
    proc = run_script(name, *args)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
