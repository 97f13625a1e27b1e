import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvscatter import (
    CircleFunction,
    CircleGrid,
    VerblunskySeq,
    a2_constant,
    classify,
    forward_scatter,
    hankel_from_symbol,
    widom_det,
    winding_index,
)
from cmvscatter.classify import _windowed_besov, jacobi_verblunsky

from conftest import random_complex_seq


def test_besov_constant(grid):
    assert _windowed_besov(CircleFunction.constant(grid, 1.0))[0] < 1e-20


def test_besov_monomial(grid):
    f = CircleFunction(grid, grid.nodes ** 2)
    assert abs(_windowed_besov(f)[0] - 2.0) < 1e-10


def test_besov_stable_across_grids():
    vals = []
    for n in (2048, 4096):
        g = CircleGrid(n)
        data = forward_scatter(VerblunskySeq(a_minus1=1.0, a=(0.5,)), g)
        vals.append(_windowed_besov(data.s)[0])
    assert abs(vals[0] - vals[1]) < 1e-8


def test_besov_equals_hankel_frobenius_on_window(grid):
    # the negative-frequency half of the Besov sum is the squared Frobenius
    # norm of the Hankel matrix when the window is triangular-complete
    rng = np.random.default_rng(29)
    data = forward_scatter(random_complex_seq(rng, 3), grid)
    m = 64
    h = hankel_from_symbol(data.s, m)
    weights = np.minimum(np.arange(1, 2 * m), 2 * m - np.arange(1, 2 * m))
    windowed = float(np.sum(weights * np.abs(h.neg[: 2 * m - 1]) ** 2))
    frobenius_sq = float(np.sum(np.abs(h.mat) ** 2))
    assert abs(frobenius_sq - windowed) < 1e-14 * max(windowed, 1.0)
    neg_besov = float(np.sum(np.arange(1, 2 * m) * np.abs(h.neg[: 2 * m - 1]) ** 2))
    assert frobenius_sq <= neg_besov + 1e-12


def test_winding_trivial(grid):
    assert winding_index(CircleFunction.constant(grid, 1.0)) == 0
    assert winding_index(CircleFunction(grid, grid.nodes ** 2)) == 2
    assert winding_index(CircleFunction(grid, grid.nodes ** -3)) == -3


def test_winding_rejects_non_unimodular(grid):
    with pytest.raises(ValueError):
        winding_index(CircleFunction(grid, 2.0 * np.ones(grid.size)))


def test_winding_zero_on_corpus(grid, corpus):
    for seq in corpus:
        data = forward_scatter(seq, grid)
        assert winding_index(data.s) == 0


def test_a2_unit_weight(grid):
    assert a2_constant(CircleFunction.constant(grid, 1.0)) == 1.0


def test_a2_stable_for_mild_jacobi_weight():
    # |1 - zeta t|^(1/2): inside the A2 range, scan stable between grids
    vals = []
    for n in (2048, 4096):
        g = CircleGrid(n)
        zeta = np.exp(1j * np.pi / n)
        w = CircleFunction(g, np.abs(1.0 - zeta * g.nodes) ** 0.5)
        vals.append(a2_constant(w))
    assert (vals[1] - vals[0]) / vals[0] < 0.05


def test_a2_diverges_for_quartic_weight():
    vals = []
    for n in (2048, 4096):
        g = CircleGrid(n)
        zeta = np.exp(1j * np.pi / n)
        w = CircleFunction(g, np.abs(1.0 - zeta * g.nodes) ** 4 / 6.0)
        vals.append(a2_constant(w))
    assert vals[1] > 2.0 * vals[0]


def test_a2_rejects_nonpositive(grid):
    w = np.ones(grid.size)
    w[0] = 0.0
    with pytest.raises(ValueError):
        a2_constant(CircleFunction(grid, w))


def test_widom_free(grid):
    rows = widom_det(VerblunskySeq(a_minus1=-1.0), [16, 32], grid)
    for _, det, product, gap in rows:
        assert abs(det - 1.0) < 1e-12
        assert product == 1.0
        assert gap < 1e-12


def test_widom_single(grid):
    rows = widom_det(VerblunskySeq(a_minus1=1.0, a=(0.5,)), [64, 128, 256], grid)
    for _, det, product, gap in rows:
        assert abs(product - 0.75) < 1e-12
        assert gap < 1e-6
    dets = [r[1] for r in rows]
    for k in range(len(dets) - 1):
        assert dets[k + 1] <= dets[k] + 1e-12
        assert dets[k + 1] >= product - 1e-9


def test_widom_two_coefficients(grid):
    rows = widom_det(VerblunskySeq(a_minus1=1.0, a=(0.5, 1.0 / 3.0)), [256], grid)
    m, det, product, gap = rows[0]
    assert abs(product - 0.75 * (8.0 / 9.0) ** 2) < 1e-12
    assert gap < 1e-6


def test_widom_forms_no_matrix(grid4096, monkeypatch):
    module = importlib.import_module("cmvscatter.classify")
    built = []
    monkeypatch.setattr(module, "hankel_from_symbol",
                        lambda *a, **k: built.append(hankel_from_symbol(*a, **k)) or built[-1])
    rows = widom_det(random_complex_seq(np.random.default_rng(67), 5), [64, 128, 256], grid4096)
    assert max(r[3] for r in rows) <= 1e-6
    assert len(built) == 3 and all(op._mat is None for op in built)


def _strong_szego_limit(seq, grid):
    """prod rho_n^{2(n+1)} = exp(-sum_{k>=1} k |(log w)^_k|^2), from one FFT
    of log w over the positive frequencies and no Hankel algebra; summing
    both signs of k would square it."""
    w = forward_scatter(seq, grid).w.samples.real
    c = np.fft.fft(np.log(w)) / grid.size
    k = np.arange(1, grid.size // 2)
    return float(np.exp(-np.sum(k * np.abs(c[1: grid.size // 2]) ** 2)))


def test_widom_matches_strong_szego_limit(grid4096):
    rng = np.random.default_rng(71)
    for support in (1, 4, 6):
        seq = random_complex_seq(rng, support, max_mod=0.5)
        limit = _strong_szego_limit(seq, grid4096)
        (_, det, product, _), = widom_det(seq, [256], grid4096)
        assert abs(product - limit) <= 1e-13 * limit
        assert abs(det - limit) <= 1e-13 * limit


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    mods=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_widom_identity_property(mods, phases, theta):
    seq = VerblunskySeq(a_minus1=np.exp(1j * theta),
                        a=tuple(m * np.exp(1j * p) for m, p in zip(mods, phases)))
    # N = 4096 resolves 1/Phi for these draws; N = 1024 aliases s for some
    rows = widom_det(seq, [16, 64, 256], CircleGrid(4096))
    assert max(r[3] for r in rows) <= 1e-6
    dets = [r[1] for r in rows]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dets, dets[1:]))


def test_classify_free(grid):
    rep = classify(seq=VerblunskySeq(a_minus1=-1.0), grid=grid, M=64)
    assert rep.regular and rep.hs_member and rep.gi_member
    assert rep.szego_sum == 0.0 and rep.gi_sum == 0.0
    assert rep.besov < 1e-12
    assert rep.index == 0


def test_classify_corpus_members(grid, corpus):
    for seq in corpus[:4]:
        rep = classify(seq=seq, grid=grid, M=128)
        assert rep.regular
        assert rep.hs_member
        assert rep.gi_member
        assert rep.index == 0


def test_classify_inclusions_never_violated(grid, corpus):
    seqs = corpus + [jacobi_verblunsky(0.25, 0.0, 200), jacobi_verblunsky(2.0, 0.0, 100)]
    for seq in seqs:
        rep = classify(seq=seq, grid=grid, M=128)
        assert not (rep.gi_member and not rep.hs_member)
        assert not (rep.hs_member and not rep.regular)


def test_classify_jacobi_quarter(grid4096):
    rep = classify(seq=jacobi_verblunsky(0.25, 0.0, 200), grid=grid4096, M=256)
    assert rep.hs_member
    assert rep.gi_divergent
    assert not rep.gi_member
    assert rep.index == 0


def test_classify_takes_its_grid_from_s(grid, monkeypatch):
    # a sequence needs the grid to sample s on; s brings its own, on which
    # the recovered probe's density is sampled
    classify_module = importlib.import_module("cmvscatter.classify")
    seq = random_complex_seq(np.random.default_rng(36), 3, max_mod=0.5)
    with pytest.raises(ValueError, match="grid"):
        classify(seq=seq, M=128)
    s = forward_scatter(seq, grid).s
    grids = []
    density = classify_module.spectral_density
    monkeypatch.setattr(classify_module, "spectral_density",
                        lambda q, g: grids.append(g) or density(q, g))
    rep = classify(s=s, M=128)
    assert grids == [s.grid]
    assert rep.regular and rep.index == classify(seq=seq, grid=grid, M=128).index == 0


def test_classify_monomial_scattering(grid4096):
    s = CircleFunction(grid4096, grid4096.nodes ** 2)
    rep = classify(s=s, M=128)
    assert rep.index == 2
    assert not rep.regular
    assert not rep.gi_member


@pytest.mark.parametrize("refused", [False, True], ids=["recovered", "refused"])
def test_classify_s_reads_the_norm_of_its_recovery(grid4096, monkeypatch, refused):
    # from s alone the Hankel norm is the recovery master's, the same bits as
    # a fresh order-M operator, from one Lanczos run; only a refused recovery
    # (s = 1/t has sigma_max = 1) builds the operator again
    from cmvscatter import hankel

    if refused:
        s = CircleFunction(grid4096, 1.0 / grid4096.nodes)
    else:
        s = forward_scatter(random_complex_seq(np.random.default_rng(35), 4), grid4096).s
    runs = []
    lanczos = hankel.HankelOp._lanczos
    monkeypatch.setattr(hankel.HankelOp, "_lanczos",
                        lambda self, *a, **k: runs.append(self) or lanczos(self, *a, **k))
    rep = classify(s=s, M=128)
    assert len(runs) == (2 if refused else 1)
    assert rep.regular != refused
    monkeypatch.undo()
    assert rep.hankel_norm == hankel_from_symbol(s, 128).sigma_max()
