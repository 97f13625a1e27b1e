import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvscatter import (
    CircleGrid,
    NumericalError,
    VerblunskySeq,
    forward_scatter,
    kernels_from_spectral,
    schur_caratheodory,
    szego_asymptotics_residual,
)
from cmvscatter.classify import jacobi_verblunsky
from cmvscatter.opuc import szego_polynomial

from conftest import phi_from_R, random_complex_seq, resolved_by, schur_density


def _scattering_identity_residual(data):
    """Max of |s conj(D) + a_minus1 D| on the grid, clamp windows excluded."""
    d_t = data.D.boundary(data.s.grid).samples
    res = np.abs(data.s.samples * np.conj(d_t) + data.a_minus1 * d_t)
    return float(res[~data.excluded_nodes()].max())


def _kernel_inner(f_pair, g_pair, s):
    """<F, G> in the scattering form: mean of (s F1 + F2) conj(s G1 + G2)."""
    sf = s.samples * f_pair[0] + f_pair[1]
    sg = s.samples * g_pair[0] + g_pair[1]
    return complex(np.mean(sf * np.conj(sg)))


def test_forward_free(grid):
    data = forward_scatter(VerblunskySeq(a_minus1=-1.0), grid)
    assert np.max(np.abs(data.s.samples - 1.0)) < 1e-14
    assert abs(data.d0 - 1.0) < 1e-13


def test_forward_single_closed_form(grid):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    data = forward_scatter(seq, grid)
    t = grid.nodes
    closed = -(t - 0.5) / (t * (1.0 - 0.5 * t))
    assert np.max(np.abs(data.s.samples - closed)) < 1e-12
    assert abs(data.d0 - np.sqrt(3.0) / 2.0) < 1e-12
    # frozen coefficient structure of the closed form:
    # shat(-1) = 1/2, shat(0) = -3/4, shat(k) = -(3/4) 2^{-k} for k >= 1
    c = data.s.coeffs()
    assert abs(c[-1] - 0.5) < 1e-12
    assert abs(c[0] + 0.75) < 1e-12
    for k in (1, 2, 5):
        assert abs(c[k] + 0.75 * 0.5 ** k) < 1e-12
    assert abs(c[-2]) < 1e-12


def test_forward_unimodular(grid, corpus):
    for seq in corpus:
        data = forward_scatter(seq, grid)
        assert np.max(np.abs(np.abs(data.s.samples) - 1.0)) < 1e-8


def test_forward_identity_residual(grid, corpus):
    for seq in corpus[:6]:
        data = forward_scatter(seq, grid)
        assert _scattering_identity_residual(data) < 1e-8


def test_forward_a_minus1_rotates_s(grid):
    a = (0.4, -0.3 + 0.2j)
    d1 = forward_scatter(VerblunskySeq(a_minus1=1.0, a=a), grid)
    lam = np.exp(1.9j)
    d2 = forward_scatter(VerblunskySeq(a_minus1=lam, a=a), grid)
    assert np.max(np.abs(d2.s.samples - lam * d1.s.samples)) < 1e-12
    c1, c2 = np.abs(d1.s.coeffs()), np.abs(d2.s.coeffs())
    assert np.max(np.abs(c1 - c2)) < 1e-12


def test_forward_jacobi_tends_to_monomial(grid4096):
    t = grid4096.nodes
    away = np.abs(np.angle(t)) > 0.3
    sups = []
    for m in (100, 400):
        data = forward_scatter(jacobi_verblunsky(2.0, 0.0, m), grid4096)
        sups.append(np.max(np.abs(data.s.samples[away] - t[away] ** 2)))
    assert sups[0] < 0.5
    assert sups[1] < sups[0]


def check_pointwise_identities(seq, data):
    """w > 0, d0^2 = prod(1 - |a_k|^2) and |s| = 1 at every node."""
    assert np.all(data.w.samples.real > 0.0)
    product = np.prod(1.0 - np.abs(np.asarray(seq.a)) ** 2)
    assert abs(data.d0 ** 2 / product - 1.0) < 1e-12
    assert np.max(np.abs(np.abs(data.s.samples) - 1.0)) < 1e-15


def identity_residual(data):
    """max |s conj(D) + a_minus1 D| over every node, none excluded."""
    d_t = data.D.boundary(data.s.grid).samples
    return float(np.max(np.abs(data.s.samples * np.conj(d_t) + data.a_minus1 * d_t)))


def test_excluded_nodes_mask_wraps_around(grid):
    # nodes 0, 5 and N - 1 clamped: the windows overlap and wrap past node 0
    import dataclasses

    from cmvscatter.scatter import CLAMP_HALO

    data = forward_scatter(VerblunskySeq(a_minus1=-1.0, a=(0.5,)), grid)
    assert not data.excluded_nodes().any()
    n = grid.size
    clamped_at = np.array([0, 5, n - 1])
    clamped = np.zeros(n, dtype=bool)
    clamped[clamped_at] = True
    mask = dataclasses.replace(data, clamped=clamped).excluded_nodes()
    dist = np.abs(np.arange(n)[:, None] - clamped_at)
    direct = np.min(np.minimum(dist, n - dist), axis=1) <= CLAMP_HALO
    assert mask.dtype == bool
    assert np.array_equal(mask, direct)
    assert np.array_equal(np.flatnonzero(mask), np.r_[0:9, n - 4:n])


def check_grid_identities(data):
    """mean(w) = 1 and the scattering identity on the truncated D; both need
    a grid that resolves 1/Phi."""
    assert abs(np.mean(data.w.samples.real) - 1.0) < 1e-13
    assert identity_residual(data) <= 1e-13


def test_forward_matches_schur_formula_complex(grid4096):
    grid = grid4096
    rng = np.random.default_rng(43)
    for m in (1, 2, 4, 6, 8):
        seq = random_complex_seq(rng, m, max_mod=0.5)
        assert resolved_by(grid, seq.a)
        data = forward_scatter(seq, grid)
        assert np.max(np.abs(data.w.samples.real / schur_density(seq.a, grid) - 1.0)) < 1e-12
        assert not data.clamped.any()
        check_pointwise_identities(seq, data)
        check_grid_identities(data)


def test_forward_long_support_identities():
    grid = CircleGrid(16384)
    seq = jacobi_verblunsky(0.25, 0.0, 2000, a_minus1=np.exp(0.7j))
    data = forward_scatter(seq, grid)
    w = data.w.samples.real
    assert np.max(np.abs(w / schur_density(seq.a, grid) - 1.0)) < 1e-12
    assert abs(np.mean(w) - 1.0) < 1e-13
    check_pointwise_identities(seq, data)
    # Phi's nearest zero sits about 1e-3 outside the circle, so the first
    # N/2 = 8192 coefficients of D leave a tail near 4e-7: the identity
    # residual measures that truncation, not the forward map.
    assert identity_residual(data) < 1e-6


def test_forward_tail_reports_unresolved_grid(grid4096, corpus):
    # constant 1/2 with support 20: Phi has a zero about 4e-10 outside the
    # circle, so N/2 = 8192 coefficients leave most of 1/Phi's mass behind
    unresolved = forward_scatter(VerblunskySeq(a_minus1=-1.0, a=(0.5,) * 20),
                                 CircleGrid(16384))
    assert unresolved.tail > 0.1
    assert forward_scatter(corpus[2], grid4096).tail < 1e-12


def test_forward_s_and_D_from_one_polynomial(grid):
    seq = random_complex_seq(np.random.default_rng(3), 5)
    data = forward_scatter(seq, grid)
    phi_t = np.polynomial.polynomial.polyval(grid.nodes, szego_polynomial(seq.a))
    assert np.max(np.abs(data.s.samples + seq.a_minus1 * np.conj(phi_t) / phi_t)) < 1e-14
    assert np.max(np.abs(data.D.boundary(grid).samples - data.d0 / phi_t)) < 1e-14
    assert data.D.at_zero() == data.d0


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    mods=st.lists(st.floats(0.0, 0.95), max_size=20),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=20, max_size=20),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_forward_property(mods, phases, theta):
    seq = VerblunskySeq(a_minus1=np.exp(1j * theta),
                        a=tuple(m * np.exp(1j * p) for m, p in zip(mods, phases)))
    grid = CircleGrid(1024)
    try:
        data = forward_scatter(seq, grid)
    except NumericalError:
        return
    check_pointwise_identities(seq, data)
    # a zero of Phi closer to the circle puts a peak of w between the nodes
    if resolved_by(grid, seq.a):
        check_grid_identities(data)


def test_phi_psi_trivial(grid):
    seq = VerblunskySeq(a_minus1=1.0)
    R = schur_caratheodory(seq, grid)
    _, _, phi_t, psi_t = phi_from_R(R, forward_scatter(seq, grid).D, 1.0, grid)
    assert np.max(np.abs(phi_t)) < 1e-12
    assert np.max(np.abs(psi_t - 1.0)) < 1e-12


def test_phi_psi_single(grid):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    data = forward_scatter(seq, grid)
    R = schur_caratheodory(seq, grid)
    phi, psi, phi_t, psi_t = phi_from_R(R, data.D, 1.0, grid)
    # phi = -z/2 under the resolved convention; psi is the constant sqrt3/2
    assert abs(phi.coef[1] + 0.5) < 1e-12
    assert np.max(np.abs(phi.coef[2:10])) < 1e-12
    assert abs(psi.at_zero() - np.sqrt(3.0) / 2.0) < 1e-12
    # D = psi / (1 + a_minus1 phi) reproduces the outer function on the grid
    d_t = data.D.boundary(grid).samples
    rebuilt = psi_t / (1.0 + 1.0 * phi_t)
    assert np.max(np.abs(rebuilt - d_t)) < 1e-8


def test_phi_psi_modulus_identity(grid, corpus):
    # |phi|^2 + |psi|^2 = 1 is |D|^2 = Re R: D from the Szego polynomial,
    # R from the Schur recursion
    for seq in corpus[:5]:
        R = schur_caratheodory(seq, grid)
        _, _, phi_t, psi_t = phi_from_R(R, forward_scatter(seq, grid).D, seq.a_minus1, grid)
        mod = np.abs(phi_t) ** 2 + np.abs(psi_t) ** 2
        assert np.max(np.abs(mod - 1.0)) < 1e-8
        assert np.max(np.abs(phi_t)) <= 1.0 + 1e-8


def test_phi_psi_nado_identity(grid):
    rng = np.random.default_rng(13)
    for _ in range(3):
        seq = random_complex_seq(rng, 3)
        data = forward_scatter(seq, grid)
        R = schur_caratheodory(seq, grid)
        _, _, phi_t, psi_t = phi_from_R(R, data.D, seq.a_minus1, grid)
        d_t = data.D.boundary(grid).samples
        rebuilt = psi_t / (1.0 + seq.a_minus1 * phi_t)
        assert np.max(np.abs(rebuilt - d_t)) < 1e-8


def test_kernels_free(grid):
    seq = VerblunskySeq(a_minus1=-1.0)
    data = forward_scatter(seq, grid)
    R = schur_caratheodory(seq, grid)
    K = kernels_from_spectral(R, data.D, seq.a_minus1, grid)
    assert abs(K.k0[0].at_zero() - 1.0) < 1e-12
    assert np.max(np.abs(K.k0[1].coef)) < 1e-12
    assert np.max(np.abs(K.kinf[0].coef)) < 1e-12
    assert abs(K.kinf[1].coef[1] - 1.0) < 1e-12  # the function 1/t


def test_kernel_ratio_on_corpus(grid, corpus):
    # acceptance identity: ratio equals conj(a_0) on the calibrated corpus
    for seq in corpus:
        data = forward_scatter(seq, grid)
        R = schur_caratheodory(seq, grid)
        K = kernels_from_spectral(R, data.D, seq.a_minus1, grid)
        a0 = seq.a[0] if seq.a else 0.0
        assert abs(K.verbk_ratio() - np.conj(a0)) < 1e-8


def test_kernel_ratio_independent_of_tail(grid):
    for a in ((0.5,), (0.5, 1.0 / 3.0)):
        seq = VerblunskySeq(a_minus1=-1.0, a=a)
        data = forward_scatter(seq, grid)
        R = schur_caratheodory(seq, grid)
        K = kernels_from_spectral(R, data.D, seq.a_minus1, grid)
        assert abs(K.verbk_ratio() - 0.5) < 1e-8


def test_kernel_ratio_twisted_for_general_phase(grid):
    # documented convention: the ratio is -conj(a_minus1) a_0 in general
    rng = np.random.default_rng(14)
    for _ in range(3):
        seq = random_complex_seq(rng, 2)
        data = forward_scatter(seq, grid)
        R = schur_caratheodory(seq, grid)
        K = kernels_from_spectral(R, data.D, seq.a_minus1, grid)
        assert abs(K.verbk_ratio() - (-np.conj(seq.a_minus1) * seq.a[0])) < 1e-8


def test_kernel_ratio_reproduces_phi(grid):
    rng = np.random.default_rng(15)
    seq = random_complex_seq(rng, 3)
    data = forward_scatter(seq, grid)
    R = schur_caratheodory(seq, grid)
    K = kernels_from_spectral(R, data.D, seq.a_minus1, grid)
    phi_t = phi_from_R(R, data.D, seq.a_minus1, grid)[2]
    t = grid.nodes
    lhs = t * K.kinf[0].boundary(grid).samples / K.k0[0].boundary(grid).samples
    assert np.max(np.abs(lhs - phi_t)) < 1e-8


def test_kernel_evaluation_contract(grid):
    rng = np.random.default_rng(16)
    seq = random_complex_seq(rng, 3)
    data = forward_scatter(seq, grid)
    R = schur_caratheodory(seq, grid)
    K = kernels_from_spectral(R, data.D, seq.a_minus1, grid)
    t = grid.nodes
    k0 = (K.k0[0].boundary(grid).samples, K.k0[1].boundary(grid).samples)
    kinf = (K.kinf[0].boundary(grid).samples, K.kinf[1].boundary(grid).samples)
    for p1c, p2c in (([0.3, -0.2 + 0.1j, 0.5], [0.1, 0.7j]),
                     ([1.0], [0.0]),
                     ([0.0, 0.0, 1.0j], [0.4, -0.2, 0.3])):
        p1 = np.polynomial.polynomial.polyval(t, p1c)
        p2 = np.polynomial.polynomial.polyval(t, p2c)
        F = (p1, -seq.a_minus1 * np.conj(t * p2))
        assert abs(_kernel_inner(F, k0, data.s) - p1c[0]) < 1e-8
        target = -seq.a_minus1 * np.conj(p2c[0])
        assert abs(_kernel_inner(F, kinf, data.s) - target) < 1e-8


def test_asymptotics_free(grid):
    res = szego_asymptotics_residual(VerblunskySeq(a_minus1=-1.0), [0, 1, 2], grid)
    for _, even, odd in res:
        assert even < 1e-13
        assert odd < 1e-13


def test_asymptotics_single(grid):
    res = szego_asymptotics_residual(VerblunskySeq(a_minus1=1.0, a=(0.5,)), [2], grid)
    assert res[0][1] < 1e-10
    assert res[0][2] < 1e-10


def test_asymptotics_monotone_and_exact_past_support(grid):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5, 1.0 / 3.0, 0.25))
    res = szego_asymptotics_residual(seq, [0, 1, 2, 3, 4, 5], grid)
    evens = [r[1] for r in res]
    odds = [r[2] for r in res]
    for k in range(len(evens) - 1):
        assert evens[k + 1] <= evens[k] + 1e-12
        assert odds[k + 1] <= odds[k] + 1e-12
    for n, even, odd in res:
        if 2 * n >= seq.support + 2:
            assert even < 1e-10
            assert odd < 1e-10


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    mods=st.lists(st.floats(0.0, 0.5), max_size=6),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_asymptotics_property(mods, phases, theta):
    # complex coefficients and any unimodular a_minus1, as AC9 checks on the
    # real corpus with a_minus1 = -1
    seq = VerblunskySeq(a_minus1=np.exp(1j * theta),
                        a=tuple(m * np.exp(1j * p) for m, p in zip(mods, phases)))
    start = (seq.support + 2 + 1) // 2
    res = szego_asymptotics_residual(seq, list(range(start, start + 3)), CircleGrid(4096))
    assert max(max(even, odd) for _, even, odd in res) <= 1e-10
