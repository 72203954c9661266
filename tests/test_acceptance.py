"""Acceptance gate: every criterion runs at its stated size and tolerance."""

import acceptance_checks as checks


def _run(name, fn):
    ok, detail = fn()
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name}: {detail}"


def test_acceptance_1_oracle_equivalence():
    _run("1 oracle equivalence", checks.check_1_oracle_equivalence)


def test_acceptance_2_dp_vs_brute():
    _run("2 DP vs brute families", checks.check_2_dp_vs_brute)


def test_acceptance_3_eptas_guarantee():
    _run("3 EPTAS guarantee", checks.check_3_eptas_guarantee)


def test_acceptance_4_reduction_round_trips():
    _run("4 reduction round trips", checks.check_4_reduction_round_trips)


def test_acceptance_5_structural_certificates():
    _run("5 structural certificates", checks.check_5_structural_certificates)


def test_acceptance_6_support_identities():
    _run("6 support identities", checks.check_6_support_identities)


def test_acceptance_7_matching_or_exact():
    _run("7 matching-or-exact equivalence", checks.check_7_matching_or_exact)


def test_acceptance_8_color_coding():
    _run("8 randomized color coding", checks.check_8_color_coding)


def test_acceptance_9_eptas_deep():
    _run("9 EPTAS guarantee on deep inputs", checks.check_9_eptas_deep)
