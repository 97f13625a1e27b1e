"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The corpus is the three named sequences plus ten seeded
random ones with |a_k| <= 0.7 and support <= 6, all normalized with
a_minus1 = -1 (the calibration phase); grid 4096, Hankel order 256.
"""

import time

import numpy as np
import pytest

from cmvscatter import (
    CircleFunction,
    CircleGrid,
    VerblunskySeq,
    build_cmv,
    classify,
    forward_scatter,
    glm_factorization_residual,
    glm_matrix,
    hankel_from_symbol,
    kernels_from_spectral,
    laurent_basis,
    recover_verblunsky,
    regularity_test,
    schur_caratheodory,
    solve_block,
    szego_asymptotics_residual,
    widom_det,
)
from cmvscatter.circle import parseval_gap
from cmvscatter.classify import jacobi_verblunsky

GRID = CircleGrid(4096)
HANKEL_ORDER = 256


def _corpus():
    named = [
        VerblunskySeq(a_minus1=-1.0, a=(0.5,)),
        VerblunskySeq(a_minus1=-1.0, a=(0.5, 1.0 / 3.0)),
        VerblunskySeq(a_minus1=-1.0, a=(0.5, 1.0 / 3.0, -0.25)),
    ]
    rng = np.random.default_rng(20260808)
    random = []
    for _ in range(10):
        m = int(rng.integers(1, 7))
        random.append(VerblunskySeq(a_minus1=-1.0, a=tuple(rng.uniform(-0.7, 0.7, m))))
    return named + random


CORPUS = _corpus()


@pytest.fixture(scope="module")
def forwarded():
    return [(seq, forward_scatter(seq, GRID)) for seq in CORPUS]


def _report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_ac1_roundtrip_exactness(forwarded):
    started = time.monotonic()
    worst_a, worst_am1 = 0.0, 0.0
    for seq, data in forwarded:
        rep = recover_verblunsky(data.s, n_max=12, M=HANKEL_ORDER)
        full = np.zeros(13, dtype=complex)
        full[: seq.support] = seq.a
        worst_a = max(worst_a, float(np.max(np.abs(rep.a - full))))
        worst_am1 = max(worst_am1, abs(rep.a_minus1 - seq.a_minus1))
    elapsed = time.monotonic() - started
    ok = worst_a <= 1e-6 and worst_am1 <= 1e-6 and elapsed < 60.0
    _report("AC1 round-trip", ok,
            f"max |a_n| error {worst_a:.3e}, a_minus1 error {worst_am1:.3e}, "
            f"{elapsed:.1f}s for {len(CORPUS)} sequences")


def test_ac2_widom_identity():
    details = []
    ok = True
    expected = {1: 0.75, 2: 0.75 * (8.0 / 9.0) ** 2}
    for seq in CORPUS[:2]:
        rows = widom_det(seq, [64, 128, 256], GRID)
        gaps = [r[3] for r in rows]
        det256, product = rows[-1][1], rows[-1][2]
        ok &= gaps[-1] <= 1e-6
        ok &= all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        ok &= abs(product - expected[seq.support]) < 1e-12
        details.append(f"support {seq.support}: det {det256:.9f} vs {product:.9f}")
    _report("AC2 Widom identity", ok, "; ".join(details))


def test_ac3_aak_regularity_constant(forwarded):
    worst = 0.0
    for seq, data in forwarded:
        h = hankel_from_symbol(data.s, HANKEL_ORDER)
        lhs = solve_block(h)[0].real
        worst = max(worst, abs(lhs * data.d0 ** 2 - 1.0))
    t2 = CircleFunction(GRID, GRID.nodes ** 2)
    rep = regularity_test(s=t2, d0=1.0 / np.sqrt(6.0), M=HANKEL_ORDER)
    factor = rep.rhs / rep.lhs
    ok = worst <= 1e-6 and not rep.regular and abs(factor - 6.0) < 1e-9
    _report("AC3 AAK constant", ok,
            f"max |lhs*D0^2 - 1| {worst:.3e}; t^2 mismatch factor {factor:.6f}")


def test_ac4_glm_factorization(forwarded):
    worst_res, worst_diag = 0.0, 0.0
    for seq, data in forwarded:
        res = glm_factorization_residual(data, 8, HANKEL_ORDER)
        worst_res = max(worst_res, res)
        glm = glm_matrix(data, 8, HANKEL_ORDER, check_regular=False)
        rho = np.array([seq.rho(k) for k in range(8)])
        d0 = data.d0
        for r in range(8):
            target = float(np.prod(rho[:r])) / d0
            worst_diag = max(worst_diag, abs(abs(glm.diag[r]) - target))
    ok = worst_res <= 1e-5 and worst_diag <= 1e-6
    _report("AC4 GLM factorization", ok,
            f"max Frobenius residual {worst_res:.3e}, max diagonal gap {worst_diag:.3e}")


def test_ac5_kernel_identity(forwarded):
    worst = 0.0
    for seq, data in forwarded:
        R = schur_caratheodory(seq, GRID)
        kernels = kernels_from_spectral(R, data.D, seq.a_minus1, GRID)
        a0 = seq.a[0] if seq.a else 0.0
        worst = max(worst, abs(kernels.verbk_ratio() - np.conj(a0)))
    ok = worst <= 1e-8
    _report("AC5 kernel identity", ok, f"max |ratio - conj(a_0)| {worst:.3e}")


def test_ac6_nonuniqueness_demo():
    sups = {}
    reports = {}
    for m in (100, 400):
        d1 = forward_scatter(jacobi_verblunsky(2.0, 0.0, m), GRID)
        d2 = forward_scatter(jacobi_verblunsky(0.0, 2.0, m), GRID)
        keep = np.ones(GRID.size, dtype=bool)
        keep[d1.excluded_nodes()] = False
        keep[d2.excluded_nodes()] = False
        sups[m] = float(np.max(np.abs(d1.s.samples[keep] - d2.s.samples[keep])))
        reports[m] = (classify(s=d1.s, M=HANKEL_ORDER), classify(s=d2.s, M=HANKEL_ORDER))
    winding_ok = all(r.index == 2 for pair in reports.values() for r in pair)
    regular_ok = all(not r.regular for pair in reports.values() for r in pair)
    ok = sups[400] < sups[100] and winding_ok and regular_ok
    _report("AC6 non-uniqueness demo", ok,
            f"sup diff {sups[100]:.4f} -> {sups[400]:.4f}; "
            f"winding 2 {winding_ok}, regular=False {regular_ok}")


def test_ac7_class_inclusions():
    seqs = CORPUS + [jacobi_verblunsky(0.25, 0.0, 200)]
    violations = 0
    for seq in seqs:
        rep = classify(seq=seq, grid=GRID, M=HANKEL_ORDER)
        if rep.gi_member and not rep.hs_member:
            violations += 1
        if rep.hs_member and not rep.regular:
            violations += 1
    quarter = classify(seq=jacobi_verblunsky(0.25, 0.0, 200), grid=GRID, M=HANKEL_ORDER)
    ok = violations == 0 and quarter.hs_member and quarter.gi_divergent
    _report("AC7 class inclusions", ok,
            f"{violations} violations; gamma=1/4: hs={quarter.hs_member}, "
            f"gi divergence flagged={quarter.gi_divergent}")


def test_ac8_structural_invariants(forwarded):
    rng = np.random.default_rng(99)
    # CMV unitarity on interior blocks
    worst_unitary = 0.0
    for seq, _ in forwarded[:6]:
        n = 24
        mat = build_cmv(seq, n).mat
        gram = mat.conj().T @ mat
        worst_unitary = max(worst_unitary, float(np.max(np.abs(
            gram[: n - 2, : n - 2] - np.eye(n - 2)))))
    # Laurent Gram residual
    worst_gram = 0.0
    for seq, data in forwarded[:4]:
        basis = laurent_basis(seq, 10, w=data.w, grid=GRID)
        worst_gram = max(worst_gram, basis.gram_residual)
    # Parseval
    f = CircleFunction(GRID, rng.normal(size=GRID.size) + 1j * rng.normal(size=GRID.size))
    pgap = parseval_gap(f)
    # Hankel shift identity, exact
    data = forwarded[0][1]
    big = hankel_from_symbol(data.s, 64, max_shift=4)
    wide = hankel_from_symbol(data.s, 68)
    shift_exact = all(
        np.array_equal(big.shifted(n).mat, wide.mat[n: n + 64, :64]) for n in (1, 3))
    ok = (worst_unitary <= 1e-12 and worst_gram <= 1e-8
          and pgap <= 1e-12 and shift_exact)
    _report("AC8 structural invariants", ok,
            f"unitarity {worst_unitary:.2e}, Gram {worst_gram:.2e}, "
            f"Parseval {pgap:.2e}, shift exact {shift_exact}")


def test_ac9_szego_asymptotics(forwarded):
    ok = True
    worst = 0.0
    for seq, _ in forwarded:
        start = (seq.support + 2 + 1) // 2
        res = szego_asymptotics_residual(seq, list(range(start, start + 3)), GRID)
        for _, even, odd in res:
            worst = max(worst, even, odd)
    ok = worst <= 1e-10
    _report("AC9 Szego asymptotics", ok,
            f"max residual past support+2: {worst:.3e}")
