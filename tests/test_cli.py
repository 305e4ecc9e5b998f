import json
import os
import subprocess
import sys
import time

import pytest

from markoffmodp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReduce:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "reduce", "--kappa", "0",
                           "--poly", "y^4 - y^2*z^2 + 1/2*x^2*y^2")
        assert code == 0
        assert out.strip() == "x^4 - 3*x^2"

    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "reduce", "--kappa", "sym", "--poly", "x^4*y^2")
        assert code == 0
        assert out.strip() == "2*x^4 + (-2*k + 24)*x^2 + (-8*k)"

    def test_phi_x_zero(self, capsys):
        code, out, _ = run(capsys, "reduce", "--kappa", "0", "--phi-x",
                           "--poly", "x*y^4 - x*y^2*z^2 + 1/2*x^3*y^2")
        assert code == 0
        assert out.strip() == "0"

    def test_mod_p(self, capsys):
        code, out, _ = run(capsys, "reduce", "--kappa", "0", "--p", "7",
                           "--poly", "y^4 - y^2*z^2 + 1/2*x^2*y^2")
        assert code == 0
        assert out.strip() == "x^4 + 4*x^2"

    def test_mod_61_bit_prime(self, capsys):
        # the CI step of the numpy-only install prints the same line
        code, out, _ = run(capsys, "reduce", "--p", "2305843009213693951", "--kappa", "5",
                           "--poly", "x^4*y^2")
        assert code == 0
        assert out.strip() == "2*x^4 + 14*x^2 + 2305843009213693911"

    def test_symbolic_kappa_with_p_refused(self, capsys):
        code, _, err = run(capsys, "reduce", "--kappa", "sym", "--p", "7", "--poly", "z")
        assert code == 1
        assert "symbolic kappa cannot be combined with --p" in err

    def test_bad_poly_is_domain_error(self, capsys):
        code, _, err = run(capsys, "reduce", "--kappa", "0", "--poly", "q^2")
        assert code == 1

    @pytest.mark.parametrize("poly", ["y^160*z^160", "x^60*y^60*z^60"])
    def test_degree_resource_error(self, capsys, poly):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "reduce", "--kappa", "sym", "--poly", poly)
        assert code == 3 and out == "" and "degree bound" in err
        assert time.perf_counter() - t0 < 1

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["reduce", "--nope"]) == 64

    def test_no_subcommand_usage_error(self, capsys):
        assert main([]) == 64

    def test_module_entry_point(self):
        import markoffmodp

        src = os.path.dirname(os.path.dirname(markoffmodp.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "markoffmodp.cli"], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 64


def test_batch_certification_degenerate_d2(tmp_path):
    # the README's batch recipe through the module entry point: d = 2
    # certifies an empty congruence class, so certify exits 2 (inconclusive)
    # and the file it writes still rechecks clean
    import markoffmodp

    src = os.path.dirname(os.path.dirname(markoffmodp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "certs" / "certificate_d2.json"
    path.parent.mkdir()

    def markoff(*argv):
        return subprocess.run([sys.executable, "-m", "markoffmodp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = markoff("certify", "--d", "2", "--out", str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "d=2 verdict=inconclusive" in proc.stdout and path.is_file()
    proc = markoff("recheck", "--cert", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "certificate consistent" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("reduce", "--p", "9", "--kappa", "1", "--poly", "z"),
    ("spectral", "--p", "15", "--kappa", "1"),
    ("verify-nielsen", "--p", "9", "--kappa", "1"),
    ("verify-main1", "--p", "1"),
    ("orbits", "--p", "100001", "--kappa", "1"),
])
def test_composite_modulus_is_domain_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "is not an odd prime" in err


@pytest.mark.parametrize("argv,code", [
    (("certify",), 64),
    (("verify-nielsen", "--p", "x"), 64),
    (("verify-nielsen", "--p", "13"), 3),
    (("certify", "--d", "12"), 3),
    (("verify-main1", "--p", "401"), 3),
    (("verify-nielsen", "--p", "9"), 1),
], ids=["certify-no-d", "nielsen-p-x", "nielsen-p-13", "certify-d-12", "main1-p-401",
        "nielsen-p-9"])
def test_refusal_exit_codes(capsys, argv, code):
    # 64 on a usage error (not argparse's 2, the inconclusive-verdict code),
    # 3 at a resource limit and 1 on a domain error, each with one stderr
    # line in place of a traceback
    got, _, err = run(capsys, *argv)
    assert got == code, err
    assert "Traceback" not in err and len(err.splitlines()) == 1


class TestOrbits:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "orbits", "--p", "7", "--kappa", "0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 7 and len(data["orbits"]) == 2

    def test_kappa_four_domain_error(self, capsys):
        code, _, err = run(capsys, "orbits", "--p", "7", "--kappa", "4")
        assert code == 1

    def test_even_p_rejected(self, capsys):
        code, _, _ = run(capsys, "orbits", "--p", "2", "--kappa", "0")
        assert code == 1


class TestVerify:
    def test_main1_table(self, capsys):
        code, out, _ = run(capsys, "verify-main1", "--p", "7")
        assert code == 0
        assert out.count("ok") == 6

    def test_nielsen(self, capsys):
        code, out, _ = run(capsys, "verify-nielsen", "--p", "5", "--kappa", "0")
        assert code == 0
        assert '"orbit_count": 2' in out

    def test_nielsen_resource_error(self, capsys):
        code, _, err = run(capsys, "verify-nielsen", "--p", "13", "--kappa", "0")
        assert code == 3

    def test_main1_mismatch(self, capsys, monkeypatch):
        from markoffmodp import orbits

        monkeypatch.setattr(orbits, "verify_main1", lambda p, kappa: {
            "orbit_count": 2, "exceptional_orbits": 0, "matches": False})
        code, out, _ = run(capsys, "verify-main1", "--p", "7", "--kappa", "1")
        assert code == 1 and "MISMATCH" in out

    def test_nielsen_mismatch(self, capsys, monkeypatch):
        from markoffmodp import nielsen

        monkeypatch.setattr(nielsen, "nielsen_orbits", lambda p, kappa: {
            "p": p, "kappa": kappa, "orbit_count": 3, "orbit_sizes": [1, 1, 1]})
        code, out, _ = run(capsys, "verify-nielsen", "--p", "5", "--kappa", "1")
        assert code == 1 and "MISMATCH" in out

    @pytest.mark.parametrize("command", ["orbits", "verify-main1"])
    def test_surface_resource_error(self, capsys, command):
        t0 = time.perf_counter()
        code, _, err = run(capsys, command, "--p", "100003", "--kappa", "1")
        assert code == 3 and "surface bound" in err
        assert time.perf_counter() - t0 < 5


class TestSpectral:
    def test_diagnostics(self, capsys):
        code, out, _ = run(capsys, "spectral", "--p", "101", "--kappa", "5")
        assert code == 0
        data = json.loads(out)
        assert all(data["qn_match"].values())
        assert data["det2"] == data["det2_expected"]

    def test_qn_four_output(self, capsys):
        code, out, _ = run(capsys, "spectral", "--p", "101", "--kappa", "5", "--qn", "4")
        assert code == 0
        assert out == ('{"chi_kappa": 1, "det2": 70, "det2_expected": 70, "kappa": 5, "p": 101, '
                       '"qn_match": {"1": true, "2": true, "3": true, "4": true}}\n')

    @pytest.mark.parametrize("qn", ["0", "-1", "5"])
    def test_qn_out_of_range_usage_error(self, capsys, monkeypatch, qn):
        from markoffmodp import spectral

        def refuse(*args):
            raise AssertionError("computed despite a usage error")

        for name in ("qn_direct", "qn_formula", "local_determinants"):
            monkeypatch.setattr(spectral, name, refuse)
        code, out, err = run(capsys, "spectral", "--p", "101", "--kappa", "5", "--qn", qn)
        assert code == 64 and out == ""
        assert "invalid choice" in err

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_small_p_refused(self, capsys, p):
        code, out, err = run(capsys, "spectral", "--p", str(p), "--kappa", "1")
        assert code == 1 and out == ""
        assert "spectral needs p >= 11" in err

    def test_large_p_resource_error(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "spectral", "--p", "10007", "--kappa", "5")
        assert code == 3 and out == "" and "q-vector bound" in err
        assert time.perf_counter() - t0 < 1


def test_cache_subcommand_is_gone(capsys):
    code, _, _ = run(capsys, "cache", "--build", "1", "1")
    assert code == 64


class TestSelftest:
    def test_fast_level(self, capsys):
        code, out, _ = run(capsys, "selftest", "--level", "fast")
        assert code == 0
        assert "FAIL" not in out


class TestCertifyCli:
    @pytest.mark.parametrize("argv,code", [
        (("--d", "1"), 1),
        (("--d", "12"), 3),
        (("--d", "5", "--n-d", "20"), 64),
    ], ids=["d-1", "d-12", "n-d-option"])
    def test_bad_input_refused(self, capsys, argv, code):
        # each is refused by the parser or the plan, before any polynomial
        # is reduced; the level bound is default_nd(d), not an option
        start = time.perf_counter()
        assert run(capsys, "certify", *argv)[0] == code
        assert time.perf_counter() - start < 1

    def test_degenerate_d2_inconclusive(self, tmp_path, capsys):
        out_path = tmp_path / "cert2.json"
        code, out, _ = run(capsys, "certify", "--d", "2", "--out", str(out_path))
        assert code == 2
        assert out_path.exists()
        code2, out2, _ = run(capsys, "recheck", "--cert", str(out_path))
        assert code2 == 0

    def test_recheck_refuses_hidden_prime(self, tmp_path, capsys, hidden_prime_payload):
        path = tmp_path / "hidden43.json"
        path.write_text(json.dumps(hidden_prime_payload))
        code, out, _ = run(capsys, "recheck", "--cert", str(path))
        assert code == 1
        assert "FAIL: a has a prime factor above 2*n_d = 40" in out

    @pytest.mark.parametrize("key,value,reason", [
        ("verdict", "maybe", "verdict 'maybe' is neither 'true' nor 'inconclusive'"),
        ("d", 7, "plan differs from build_plan(7).entries"),
    ])
    def test_recheck_refuses_unvouched_claim(self, tmp_path, capsys, cert5, key, value, reason):
        from markoffmodp.certify import _hash_payload

        payload = json.loads(cert5.to_json())
        payload[key] = value
        payload["content_hash"] = _hash_payload(payload)
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "recheck", "--cert", str(path))
        assert code == 1
        assert f"FAIL: {reason}" in out and "certificate consistent" not in out

    def test_recheck_refuses_non_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code, out, err = run(capsys, "recheck", "--cert", str(path))
        assert code == 1
        assert "FAIL: certificate is not a JSON object" in out and "Traceback" not in err


class TestFileErrors:
    def test_missing_certificate(self, tmp_path):
        # a fresh interpreter, so a traceback would reach its stderr
        import markoffmodp

        src = os.path.dirname(os.path.dirname(markoffmodp.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "markoffmodp.cli", "recheck", "--cert",
                               str(tmp_path / "missing.json")], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @staticmethod
    def _refuse_certify(monkeypatch):
        from markoffmodp import certify

        def refuse(*args, **kwargs):
            raise AssertionError("certify ran despite an unwritable --out")

        monkeypatch.setattr(certify, "certify", refuse)

    def test_unwritable_output(self, tmp_path, capsys, monkeypatch):
        # refused before any work: certify itself must not run
        self._refuse_certify(monkeypatch)
        for out_path in (tmp_path / "no" / "such" / "dir" / "c.json", tmp_path):
            code, out, err = run(capsys, "certify", "--d", "2", "--out", str(out_path))
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "no").exists()

    def test_failed_run_keeps_existing_output(self, tmp_path, capsys):
        out_path = tmp_path / "c.json"
        out_path.write_text("previous certificate")
        code, _, err = run(capsys, "certify", "--d", "1", "--out", str(out_path))
        assert code == 1 and err.startswith("error: ")
        assert out_path.read_text() == "previous certificate"
