"""The command-line scripts, each run once in a subprocess with tiny inputs."""

import pathlib
import subprocess
import sys

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
    proc = run_script("run_certification.py", "2", "--n-d", "8", "--out-dir", str(tmp_path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "recheck=ok" in proc.stdout
    assert (tmp_path / "certificate_d2.json").is_file()
