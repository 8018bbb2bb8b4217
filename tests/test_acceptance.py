"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 8 of the plan (norm-resolvent convergence as an operator
statement) is not desk-verifiable and is covered through its eigenvalue
consequences, criteria 4 and 6.

Known red: criterion 4 compares against a published 20-row eigenvalue table
whose caption states a basis size of 82.  That table is reproduced here to
3e-11 relative by the energy-cutoff basis of 102 functions (every flat
mode below ~75); its residual norms match 15 of the table's 20 residuals
to within 1e-4 relative, and rows 1, 2, 3, 16 and 17 come out 1.329, 1.211,
1.047, 1.004 and 1.146 times the table, unchanged by finer quadrature.  The
strict first-82-by-eigenvalue basis, which this package and the
criterion both specify, yields values that sit above it by up to 7.0e-6
relative (rows 8-11).  Quadrature refinement (to 1e-13 stability),
alternative 82-function index boxes and a complex-exponential re-assembly
all reproduce this package's numbers, and Rayleigh-Ritz monotonicity
brackets the table's values between the 82- and 110-function bases, so the
1e-6 tolerance at exactly N=82 is unattainable rather than a defect here.
The criterion is asserted as stated and left red;
``test_galerkin.py::test_reference_table_reproduced_by_energy_cutoff_basis``
pins the verified reproduction.
"""

import time

import numpy as np
import pytest

from moebius import mathieu, verify
from moebius.convergence import eigenvalue_sweep, fit_rate, geometric_grid
from moebius.galerkin import GalerkinConfig, assemble, solve
from moebius.geometry import StripParams
from moebius.models import effective_spectrum, fake_spectrum

TABLE_PARAMS = StripParams(a=0.75, R=13.2 / (2 * np.pi))
SWEEP_RADIUS = 18 / (2 * np.pi)

REFERENCE_A = {
    0: "-0.03103939547561732443850972818046737540",
    1: "0.74242882598662974339949054767095543815",
    2: "4.02582908464560324171350493521402514557",
    3: "9.00366486704623913463365662695182921571",
    4: "16.00208529046719562998287970766353836899",
    5: "25.00130213222684081366209108945453834337",
    6: "36.00089287379843422726407677439950789279",
    7: "49.00065104784806396399969278784780613747",
    8: "64.00049603440671169350384368118283820869",
    9: "81.00039062627570760760462351056102476286",
    10: "100.00031565723007867410511381290959992431",
}
REFERENCE_B = {
    1: "1.24194112824291514482231057477841662622",
    2: "3.99479307863211894594328093443536761399",
    3: "9.00415255154693478030510107620470513307",
    4: "16.00208190103817298727073812993351765300",
    5: "25.00130214546980228095721811268235655121",
    6: "36.00089287376532391463296827349981967276",
    7: "49.00065104784812144953869393158610105146",
    8: "64.00049603440671162017886328541877470187",
    9: "81.00039062627570760767623083270127588410",
    10: "100.00031565723007867410505855991940003139",
}
FAKE_REFERENCE = [
    4.386490844928603, 4.613065785265825, 4.613065785265825,
    5.292790606277488, 5.292790606277488, 6.425665307963595, 6.425665307963595,
    8.011689890324144, 8.011689890324144, 10.050864353359135, 10.050864353359135,
    12.543188697068569, 12.543188697068569, 15.488662921452445, 15.488662921452445,
    17.602607114798715, 17.602607114798715, 18.05575699547316, 18.05575699547316,
    18.88728702651077,
]
EFFECTIVE_REFERENCE = [
    4.384732657634105, 4.612770845791257, 4.61452884109396,
    5.292908532928366, 5.292908724918286, 6.425715883668621, 6.425715883670497,
    8.011717987565671, 8.011717987565671, 10.050882233363655, 10.050882233363655,
    12.543201075519463, 12.543201075519463, 15.48867199897889, 15.48867199897889,
    17.58801732145255, 17.616311563972907, 18.055964587231244, 18.055992211502907,
    18.887293968147098,
]
TRUE_REFERENCE = [
    4.387440201465426, 4.619975308169118, 4.6210487512326965,
    5.311812674844678, 5.311812691949888, 6.45928381512197, 6.459283815177474,
    8.054793717112888, 8.054793717134626, 10.087710686170643, 10.087710686180136,
    12.544971054834159, 12.544971054880232, 15.411764278613166, 15.411764278618152,
    17.59842628782262, 17.622050913758347, 18.084500866091076, 18.084502386722757,
    18.672740544194298,
]
RESIDUAL_REFERENCE = [
    0.0011360336639659758, 0.002935713704540701, 0.0034765508104058836,
    0.009392208389967776, 0.009394620959796087, 0.01784426849679324,
    0.017844019253709244, 0.02782741553208048, 0.02782929178936725,
    0.07623428743234176, 0.07623425520146826, 0.12299616532523619,
    0.12299618315689324, 0.15141422162634224, 0.1514142253244023,
    0.005712405600055002, 0.003779453318856355, 0.017503712257836673,
    0.01752620443224552, 0.18297451968432338,
]


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_mathieu_table():
    mathieu._class_values.cache_clear()
    start = time.perf_counter()
    sine, order, value = mathieu.char_values(-0.25, 10)
    elapsed = time.perf_counter() - start
    values = {("se" if s else "ce", m): v
              for s, m, v in zip(sine.tolist(), order.tolist(), value.tolist())}
    worst = 0.0
    for m, text in REFERENCE_A.items():
        ref = float(text)
        worst = max(worst, abs(values[("ce", m)] - ref) / abs(ref))
    for m, text in REFERENCE_B.items():
        ref = float(text)
        worst = max(worst, abs(values[("se", m)] - ref) / abs(ref))
    passed = worst <= 1e-12 and elapsed < 0.1
    report(1, passed, f"21 characteristic values, worst rel {worst:.2e}, {elapsed * 1e3:.0f} ms")
    assert worst <= 1e-12
    assert elapsed < 0.1


def test_criterion_2_fake_spectrum():
    start = time.perf_counter()
    spectrum = fake_spectrum(TABLE_PARAMS, 20)
    elapsed = time.perf_counter() - start
    values = spectrum.values(20)
    worst = float(np.max(np.abs(values - FAKE_REFERENCE) / np.abs(FAKE_REFERENCE)))
    multiplicities = [mult for _, _, mult in spectrum.flattened(20)]
    pattern_ok = multiplicities == [1] + [2] * 19
    passed = worst <= 1e-12 and pattern_ok and elapsed < 0.1
    report(2, passed, f"20 values, worst rel {worst:.2e}, pattern {'ok' if pattern_ok else 'BAD'}, {elapsed * 1e3:.0f} ms")
    assert worst <= 1e-12
    assert pattern_ok
    assert elapsed < 0.1


def test_criterion_3_effective_spectrum():
    mathieu._class_values.cache_clear()
    start = time.perf_counter()
    values = effective_spectrum(TABLE_PARAMS, 20).values(20)
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(values - EFFECTIVE_REFERENCE) / np.abs(EFFECTIVE_REFERENCE)))
    passed = worst <= 1e-11 and elapsed < 1.0
    report(3, passed, f"20 values, worst rel {worst:.2e}, {elapsed * 1e3:.0f} ms")
    assert worst <= 1e-11
    assert elapsed < 1.0


def test_criterion_4_true_spectrum():
    # Known red at the stated basis size; see the module docstring.
    start = time.perf_counter()
    solution = solve(GalerkinConfig(params=TABLE_PARAMS, n_basis=82))
    elapsed = time.perf_counter() - start
    worst = float(
        np.max(np.abs(solution.eigenvalues[:20] - TRUE_REFERENCE) / np.abs(TRUE_REFERENCE))
    )
    ratio = solution.leading_residual_norms(20) / RESIDUAL_REFERENCE
    residuals_ok = bool(np.all((ratio < 10.0) & (ratio > 0.1)))
    passed = worst <= 1e-6 and residuals_ok and elapsed < 60.0
    report(
        4,
        passed,
        f"20 values at N=82, worst rel {worst:.2e} (tol 1e-6), residual "
        f"factor in [{ratio.min():.2f}, {ratio.max():.2f}], {elapsed:.1f} s",
    )
    assert residuals_ok
    assert elapsed < 60.0
    assert worst <= 1e-6, (
        f"worst relative deviation {worst:.3e} exceeds 1e-6: the reference "
        f"table corresponds to the 102-function energy-cutoff basis "
        f"(reproduced to 3e-11), not to the first-82-by-eigenvalue basis"
    )


def test_criterion_5_flat_oracles():
    start = time.perf_counter()
    plain = assemble(
        GalerkinConfig(params=TABLE_PARAMS, n_basis=82, geometry="flat_plain")
    ).to_dense()
    off = float(np.max(np.abs(plain - np.diag(np.diag(plain)))))
    solution = solve(
        GalerkinConfig(params=TABLE_PARAMS, n_basis=82, geometry="flat_with_Veff")
    )
    reference = effective_spectrum(TABLE_PARAMS, 20).values(20)
    worst = float(np.max(np.abs(solution.eigenvalues[:20] - reference) / reference))
    elapsed = time.perf_counter() - start
    passed = off < 1e-12 and worst <= 1e-9 and elapsed < 30.0
    report(5, passed, f"flat-plain off-diag {off:.2e}, flat-Veff vs closed form {worst:.2e}, {elapsed:.1f} s")
    assert off < 1e-12
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_6_convergence_rate():
    start = time.perf_counter()
    grid = geometric_grid(0.05, 0.5, 7)
    sweep = eigenvalue_sweep(SWEEP_RADIUS, grid, 20, 72)
    slope = fit_rate(sweep, 1)
    pair_gap = 0.0
    for i in range(grid.size):
        eff = sweep.effective_values[i]
        for n in range(19):
            if abs(eff[n + 1] - eff[n]) <= 1e-9 * max(1.0, abs(eff[n])):
                pair_gap = max(pair_gap, abs(sweep.ratios[i, n + 1] - sweep.ratios[i, n]))
    elapsed = time.perf_counter() - start
    passed = 1.8 <= slope <= 2.2 and pair_gap <= 1e-6 and elapsed < 600.0
    report(6, passed, f"slope {slope:.3f} (target [1.8, 2.2]), merged-pair ratio gap {pair_gap:.2e}, {elapsed:.1f} s")
    assert 1.8 <= slope <= 2.2
    assert pair_gap <= 1e-6
    assert elapsed < 600.0


def test_criterion_7_invariant_suite():
    start = time.perf_counter()
    results = verify.run_all()
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    passed = not failures and elapsed < 120.0
    report(7, passed, f"{len(results)} checks, {len(failures)} failures, {elapsed:.1f} s")
    assert not failures, failures
    assert elapsed < 120.0
