"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each function is wrapped in the namespace it is called through: `certify`
and `spectral` bind `phi`, `is_prime` and the column inputs at import, so
wrapping only `trired.phi` would miss their calls.  The layers are the
package modules; `rings` has no span of its own and shows inside the
`trired` and `spectral` self times.
"""

from __future__ import annotations

from markoffmodp import certify, cli, nielsen, orbits, spectral, trired

from spans import root_time, summarize

# (module, attribute, span name, note on the result)
WRAPS = (
    (cli, "main", "cli.main", None),
    (trired, "phi", "trired.phi", None),
    (certify, "phi", "trired.phi", None),
    (spectral, "phi", "trired.phi", None),
    (trired, "phi_x", "trired.phi_x", None),
    (trired, "canonical_form", "trired.canonical_form", None),
    (certify, "build_columns", "certify.build_columns", None),
    (certify, "_select_minor_subsets", "certify.rank_profile", None),
    (certify, "minor_determinant", "certify.minor_determinant", len),
    (certify, "int_bareiss_det", "certify.int_bareiss_det", None),
    (certify, "fold_minors", "certify.fold_minors", None),
    (certify, "modular_gcd", "certify.modular_gcd", None),
    (certify, "_gcd_mod_q", "certify.gcd_mod_q", None),
    (certify, "bezout_witness", "certify.bezout_witness", None),
    (certify, "_xgcd_resultant_mod_q", "certify.xgcd_mod_q", lambda out: out is None),
    (certify, "strip_factors", "certify.strip_factors", None),
    (certify, "is_prime", "ffield.is_prime", None),
    (certify, "g_dn_poly", "spectral.column_inputs", None),
    (certify, "fn_poly", "spectral.column_inputs", None),
    (certify, "lambda_classes", "spectral.column_inputs", None),
    (spectral, "qn_direct", "spectral.qn_direct", None),
    (spectral, "qn_formula", "spectral.qn_formula", None),
    (spectral, "local_determinants", "spectral.local_determinants", None),
    (orbits, "verify_main1", "orbits.verify_main1", None),
    (orbits, "orbit_decomposition", "orbits.orbit_decomposition", None),
    (nielsen, "nielsen_orbits", "nielsen.nielsen_orbits", None),
    (nielsen, "group_table", "nielsen.group_table", None),
)


def install(recorder):
    for module, attr, name, note in WRAPS:
        recorder.wrap(module, attr, name, note)


def layer_metrics(spans, wall_s, counters):
    """Per-layer metrics of one traced operation.  A layer the workload
    never enters reads 0."""
    s = summarize(spans)

    def self_s(name):
        return s[name]["self_s"] if name in s else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def notes(name):
        return s[name]["notes"] if name in s else []

    column_phis = sum(1 for name, _, _, parent, _ in spans
                      if name == "trired.phi" and parent >= 0
                      and spans[parent][0] == "certify.build_columns")
    evals = calls("certify.int_bareiss_det")
    return {
        "trired.phi_s": self_s("trired.phi"),
        "trired.phi_calls": calls("trired.phi"),
        "trired.canonical_form_s": self_s("trired.canonical_form"),
        "trired.phi_x_s": self_s("trired.phi_x"),
        "certify.columns_s": self_s("certify.build_columns"),
        "certify.columns": column_phis,
        "certify.rank_profile_s": self_s("certify.rank_profile"),
        "certify.minors_s": self_s("certify.minor_determinant") + self_s("certify.int_bareiss_det"),
        "certify.bareiss_evals": evals,
        "certify.minor_eval_useful_ratio": sum(notes("certify.minor_determinant")) / evals if evals else 0.0,
        "certify.fold_s": self_s("certify.fold_minors"),
        "certify.gcd_s": self_s("certify.modular_gcd") + self_s("certify.gcd_mod_q"),
        "certify.gcd_primes": calls("certify.gcd_mod_q"),
        "certify.bezout_s": self_s("certify.bezout_witness") + self_s("certify.xgcd_mod_q"),
        "certify.bezout_primes": calls("certify.xgcd_mod_q"),
        "certify.bezout_unlucky": sum(notes("certify.xgcd_mod_q")),
        "certify.strip_s": self_s("certify.strip_factors"),
        "certify.strip_calls": calls("certify.strip_factors"),
        "certify.cert_bytes": counters.get("certify.cert_bytes", 0),
        "ffield.is_prime_s": self_s("ffield.is_prime"),
        "ffield.is_prime_calls": calls("ffield.is_prime"),
        "spectral.column_inputs_s": self_s("spectral.column_inputs"),
        "spectral.qn_direct_s": self_s("spectral.qn_direct"),
        "spectral.qn_formula_s": self_s("spectral.qn_formula"),
        "spectral.local_determinants_s": self_s("spectral.local_determinants"),
        "orbits.verify_main1_s": self_s("orbits.verify_main1"),
        "orbits.decomposition_s": self_s("orbits.orbit_decomposition"),
        "orbits.pairs": calls("orbits.verify_main1"),
        "nielsen.orbits_s": self_s("nielsen.nielsen_orbits"),
        "nielsen.group_table_s": self_s("nielsen.group_table"),
        "cli.io_s": self_s("cli.main"),
        # the traced timed region, and the part of it that no span covers
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - root_time(spans),
    }

