"""Acceptance checklist: ten independent checks, one test each.

Each test runs the corresponding check at full (non-quick) settings,
prints its PASS/FAIL line with the measured number and threshold, and also
enforces the runtime budget the check is expected to meet.  `altseries
verify` runs the same ten checks from the command line.
"""

import time

from altseries import acceptance


def _run(check_fn, budget_seconds, *args):
    start = time.perf_counter()
    check = check_fn(*args)
    elapsed = time.perf_counter() - start
    line = (f"{check.status.upper()}  {check.name}  "
            f"measured={check.measured:.6e}  threshold={check.threshold:.6e}")
    if check.note:
        line += f"  [{check.note}]"
    print(line)
    assert check.passed, line
    assert elapsed < budget_seconds, (
        f"{check.name} took {elapsed:.2f}s, budget {budget_seconds}s")
    return check


def test_01_closed_form_anchor():
    """Three routes reproduce the t = 0 value -ln 2 to 1e-10."""
    _run(acceptance.check_closed_form_anchor, 1.0)


def test_02_cross_method_agreement():
    """Series vs hankel to 1e-11 on six t; fourier vs hankel to 1e-8."""
    _run(acceptance.check_cross_method_agreement, 60.0, False)


def test_03_pole_geometry():
    """Pole residuals, u*(0), u*(b) = a, and the quartic radicand."""
    _run(acceptance.check_pole_geometry, 1.0)


def test_04_residue_convergence():
    """Scaled residue defect decreasing on 10..16 and <= 0.02 at 14."""
    _run(acceptance.check_residue_convergence, 30.0)


def test_05_saddle_lemma():
    """Numeric saddle integral within 10% of the closed form at 30,
    with the deviation scaling like 1/lambda."""
    _run(acceptance.check_saddle_lemma, 30.0)


def test_06_asymptotic_law():
    """Envelope ratios stay within a factor 10 of their median, and the
    two closed forms agree at ulp scale under t = lambda^2/4."""
    _run(acceptance.check_asymptotic_law, 60.0, False)


def test_07_rough_bound():
    """e^(1.2 lambda)|S*| decreasing on lambda = 10..25."""
    _run(acceptance.check_rough_bound, 30.0)


def test_08_figure_reproduction():
    """200-point scaled-decay figure: curves within 0.5, per-third sups
    decreasing, CSV byte-identical across runs."""
    _run(acceptance.check_figure_reproduction, 60.0, False)


def test_09_structural_identities():
    """Derivative residuals, per-term gaussian identity, and the radial
    transform's closed-form gaussian pair."""
    _run(acceptance.check_structural_identities, 30.0)


def test_10_precision_honesty():
    """Cancellation-dominated and out-of-range inputs report estimates
    at least as large as what they cannot resolve."""
    _run(acceptance.check_precision_honesty, 10.0)
