"""Self-tests of the benchmark's checker and workload generators.

    python3 -m pytest -q perfbench/test_checker.py

The checker must accept the package's right answers and reject a doctored
certificate, a doctored separating point and the I4p witness at L = 10^6
(whose true margin is positive).  A known defect must match both its query
and its reason.  Workload generators must be deterministic per seed.
"""

from __future__ import annotations

import filecmp
import os
import sys
from collections import Counter
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_package()


def answer(*argv) -> tuple[int, str]:
    code, out, _ = run.run_query(CLI, argv)
    return code, out


def test_elemental_count():
    for n in range(1, 7):
        assert len(checker.elemental_forms(n)) == n + comb(n, 2) * 2 ** max(n - 2, 0)


def test_certificate_with_one_kappa_changed_is_rejected():
    target = "3/2 I(A;B|C) + 2 H(A|B,C,D) + 1/3 I(C;D)"
    code, out = answer("shannon-type", "--n", "4", "--expr", target)
    lines = out.splitlines()
    form = checker.parse_form(target, "ABCD")
    assert code == 0 and lines[0] == "SHANNON-TYPE"
    assert checker.check_certificate(lines[1:], 4, form) is None
    first = next(i for i, line in enumerate(lines) if line.startswith("kappa "))
    coef, rest = lines[first][len("kappa "):].split(" * ", 1)
    lines[first] = f"kappa {Fraction(coef) + Fraction(1, 7)} * {rest}"
    assert checker.check_certificate(lines[1:], 4, form) is not None


def test_point_violating_an_elemental_form_is_rejected():
    target = "I(C;D|A) + I(C;D|B) + I(A;B) - I(C;D)"
    code, out = answer("shannon-type", "--n", "4", "--expr", target)
    lines = out.splitlines()
    form = checker.parse_form(target, "ABCD")
    assert code == 1 and lines[0] == "NOT SHANNON-TYPE"
    assert checker.check_separating_point(lines[1:], 4, form) is None
    # H(A,B,C,D) below H(B,C,D) breaks the elemental form H(A|B,C,D) >= 0.
    coords = {line.split(" = ")[0]: Fraction(line.split(" = ")[1])
              for line in lines if line.startswith("H(")}
    doctored = [
        f"H(A,B,C,D) = {coords['H(B,C,D)'] - 1}" if line.startswith("H(A,B,C,D) ") else line
        for line in lines[1:]
    ]
    assert checker.check_separating_point(doctored, 4, form) is not None


def test_i4p_witness_at_one_million_is_rejected():
    code, out = answer("refute", "--ineq", "I4p", "--lambda", "1000000")
    assert code == 1 and "parameter = 1/2097152" in out
    reason = checker.check_refutation(out, "I4p", Fraction(10**6))
    assert reason is not None and "not negative" in reason
    argv = ("refute", "--ineq", "I4p", "--lambda", "1000000")
    assert run.known_defect(argv, reason)
    # The same query failing another way is not the known defect.
    assert not run.known_defect(argv, "raised ValueError: boom")
    assert not run.known_defect(("refute", "--ineq", "I4", "--lambda", "1000"), reason)
    for digits in (60, 100):
        margin = checker.refutation_margin("I4p", Fraction(1, 2**21), Fraction(10**6), digits)
        assert 5.9e-13 < margin < 6.0e-13


def test_right_witnesses_are_accepted():
    for name, bound in (("I4p", 100), ("I2", 1000), ("weak", 100), ("I6", 10**5)):
        code, out = answer("refute", "--ineq", name, "--lambda", str(bound))
        assert code == 1
        assert checker.check_refutation(out, name, Fraction(bound)) is None, name


def test_geometric_closed_form_matches_enumeration():
    q = 5
    weights = Counter(checker.geometric_atoms(q))
    assert len(weights) == q**4 * (q - 1) and set(weights.values()) == {1}
    total = sum(weights.values())
    enumerated = checker.reference_profile(dict(weights), total, 4)
    closed = checker.geometric_decimal_profile(q, 30)
    for mask in range(1, 16):
        assert abs(float(closed[mask]) - enumerated[mask]) < 1e-12, mask


def test_aep_sign_is_exact():
    assert not checker.aep_violated("I1", 17) and checker.aep_violated("I1", 19)
    assert not checker.aep_violated("I3", 97) and checker.aep_violated("I3", 101)


def _build(name: str, seed: int, workdir: str):
    os.makedirs(workdir, exist_ok=True)
    queries = workloads.build(name, seed, workdir)
    return [(q.kind, tuple(a.replace(workdir, "<dir>") for a in q.argv)) for q in queries]


def test_workloads_are_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = _build(name, 7, str(tmp_path / f"{name}-a"))
        second = _build(name, 7, str(tmp_path / f"{name}-b"))
        other = _build(name, 8, str(tmp_path / f"{name}-c"))
        assert first == second and first != other, name
        files = sorted(os.listdir(tmp_path / f"{name}-a"))
        assert files == sorted(os.listdir(tmp_path / f"{name}-b"))
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / f"{name}-a", tmp_path / f"{name}-b", files, shallow=False)
        assert not mismatch and not errors, name
