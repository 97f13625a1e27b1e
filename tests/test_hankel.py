import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvscatter import (
    CircleFunction,
    CircleGrid,
    DiskFunction,
    HankelOp,
    NumericalError,
    RegularityError,
    VerblunskySeq,
    forward_scatter,
    hankel_from_symbol,
    regularity_test,
    schur_caratheodory,
    solve_block,
)
from cmvscatter.circle import disk_from_boundary
from cmvscatter.hankel import REGULARITY_TOL, aak_boundary

from conftest import phi_from_R, random_complex_seq, schur_pairs


def _symbol(grid, seq):
    return forward_scatter(seq, grid).s


def _aak_data(h, grid):
    """(g, psi0, phi, psi): phi_H and psi_H read from one r = 1 solve
    through aak_boundary, the read-out the inverse map takes.

    g = (I - H*H)^{-1} 1, psi0 = psi_H(0) = 1/sqrt(g[0]), psi_H its outer
    companion, which passes the log-mean identity of an outer function, and
    phi_H = t f with phi_H(0) = 0, which stays in the Schur class on the grid.
    """
    g = solve_block(h)
    f_t, psi_t = aak_boundary(g, -np.conj(h.apply(g)), grid)
    psi, _ = disk_from_boundary(psi_t, grid, kind="interior")
    assert abs(abs(psi.at_zero()) - np.exp(np.mean(np.log(np.abs(psi_t))))) <= 1e-6
    phi_t = grid.nodes * f_t
    assert np.max(np.abs(phi_t)) <= 1.0 + 1e-6
    phi, _ = disk_from_boundary(phi_t, grid, kind="interior")
    coef = np.array(phi.coef)
    coef[0] = 0.0
    return g, float(1.0 / np.sqrt(g[0].real)), DiskFunction(coef, "interior"), psi


def test_constant_symbol_gives_zero(grid):
    s = CircleFunction.constant(grid, 1.0)
    h = hankel_from_symbol(s, 16)
    assert np.max(np.abs(h.mat)) < 1e-14


def test_monomial_symbol_gives_zero(grid):
    # s = t^2 has no negative coefficients, hence carries no Hankel data
    s = CircleFunction(grid, grid.nodes ** 2)
    h = hankel_from_symbol(s, 16)
    assert np.max(np.abs(h.mat)) < 1e-13


def test_single_coefficient_symbol(grid):
    s = _symbol(grid, VerblunskySeq(a_minus1=1.0, a=(0.5,)))
    h = hankel_from_symbol(s, 32)
    assert abs(h.mat[0, 0] - 0.5) < 1e-12
    rest = np.abs(h.mat).copy()
    rest[0, 0] = 0.0
    assert np.max(rest) < 1e-12
    assert h.sigma_max() <= 1.0 + 1e-8


def test_hankel_structure_exact(grid):
    rng = np.random.default_rng(17)
    s = _symbol(grid, random_complex_seq(rng, 5))
    h = hankel_from_symbol(s, 24)
    for k in range(24):
        for j in range(24):
            assert h.mat[k, j] == h.neg[k + j]


def test_shift_identity_exact(grid):
    rng = np.random.default_rng(18)
    s = _symbol(grid, random_complex_seq(rng, 5))
    big = hankel_from_symbol(s, 24, max_shift=4)
    wide = hankel_from_symbol(s, 28)
    for n in (1, 2, 4):
        shifted = big.shifted(n)
        assert np.array_equal(shifted.mat, wide.mat[n: n + 24, :24])
        assert np.array_equal(shifted.mat, wide.mat[:24, n: n + 24])


def test_insufficient_coefficients_rejected():
    g = CircleGrid(64)
    s = CircleFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        hankel_from_symbol(s, 32)


def test_hilbert_schmidt_window_identity(grid):
    rng = np.random.default_rng(19)
    s = _symbol(grid, random_complex_seq(rng, 4))
    m = 32
    h = hankel_from_symbol(s, m)
    weights = np.minimum(np.arange(1, 2 * m), 2 * m - np.arange(1, 2 * m))
    by_coeff = float(np.sum(weights * np.abs(h.neg[: 2 * m - 1]) ** 2))
    assert abs(np.sum(np.abs(h.mat) ** 2) - by_coeff) < 1e-12 * max(by_coeff, 1.0)


def test_solve_zero_operator(grid):
    s = CircleFunction.constant(grid, 1.0)
    h = hankel_from_symbol(s, 16)
    g = solve_block(h)
    assert abs(g[0] - 1.0) < 1e-14
    assert np.max(np.abs(g[1:])) < 1e-14


def test_solve_single_coefficient_constant(grid):
    s = _symbol(grid, VerblunskySeq(a_minus1=1.0, a=(0.5,)))
    h = hankel_from_symbol(s, 64)
    g = solve_block(h)
    assert abs(g[0] - 4.0 / 3.0) < 1e-6


def test_solve_monotone_in_radius_and_order(grid):
    rng = np.random.default_rng(21)
    s = _symbol(grid, random_complex_seq(rng, 4))
    h = hankel_from_symbol(s, 64)
    values = [solve_block(h, r=r)[0].real for r in (0.9, 0.99, 1.0)]
    assert values[0] <= values[1] + 1e-12
    assert values[1] <= values[2] + 1e-12
    by_order = [solve_block(hankel_from_symbol(s, m))[0].real
                for m in (16, 32, 64)]
    assert by_order[0] <= by_order[1] + 1e-12
    assert by_order[1] <= by_order[2] + 1e-12


def test_sigma_monotone_in_order(grid):
    rng = np.random.default_rng(22)
    s = _symbol(grid, random_complex_seq(rng, 5))
    sigmas = [hankel_from_symbol(s, m).sigma_max() for m in (8, 16, 32, 64)]
    for k in range(len(sigmas) - 1):
        assert sigmas[k] <= sigmas[k + 1] + 1e-12


def test_near_singular_refused():
    from cmvscatter.hankel import HankelOp, aak_limit_sweep

    neg = np.zeros(64, dtype=complex)
    neg[0] = 1.0  # sigma_max exactly 1
    h = HankelOp(16, neg)
    with pytest.raises(RegularityError, match="sigma_max = 1:"):
        solve_block(h)
    g = solve_block(h, r=0.9)
    assert abs(g[0] - 1.0 / (1.0 - 0.81)) < 1e-10
    sweep, exists = aak_limit_sweep(h)
    assert exists  # 1/(1 - r^2) stays below the blowup bound at r = 0.999
    assert abs(sweep[-1] - 1.0 / (1.0 - 0.999 ** 2)) < 1e-6


def _near_singular_entry_points(grid):
    """Every entry point that solves at r = 1, on an operator and on samples
    whose sigma_max = 1 - 5e-9 lies inside REGULAR_GAP."""
    from cmvscatter import ScatteringData, glm_matrix, recover_verblunsky
    from cmvscatter.hankel import REGULAR_GAP

    sigma = 1.0 - 5e-9
    neg = np.zeros(64, dtype=complex)
    neg[0] = sigma
    h = HankelOp(16, neg)
    s = CircleFunction(grid, sigma / grid.nodes)  # shat(-1) = sigma
    data = ScatteringData(
        s=s, D=DiskFunction([1.0]), d0=1.0, a_minus1=-1.0,
        w=CircleFunction.constant(grid, 1.0), clamped=np.zeros(grid.size, dtype=bool))
    assert 1.0 - h.sigma_max() <= REGULAR_GAP
    assert 1.0 - hankel_from_symbol(s, 64, max_shift=4).sigma_max() <= REGULAR_GAP
    return s, {
        "solve_block": lambda: solve_block(h),
        "recover_verblunsky": lambda: recover_verblunsky(s, n_max=2, M=66),
        "glm_matrix": lambda: glm_matrix(data, 4, 64, check_regular=False),
    }


@pytest.mark.parametrize("entry", ["solve_block", "recover_verblunsky", "glm_matrix"])
def test_one_gate_refuses_r1_solve_near_unit_singular_value(entry, grid):
    _, calls = _near_singular_entry_points(grid)
    with pytest.raises(RegularityError, match="not in the one-to-one regime"):
        calls[entry]()


def test_regularity_inside_the_gap_reports_sweep(grid):
    s, _ = _near_singular_entry_points(grid)
    rep = regularity_test(s=s, d0=1.0, M=64)
    assert not rep.regular
    assert rep.r_sweep is not None
    assert "too close to 1" in rep.reason


def test_regularity_near_singular_reports_sweep(grid4096):
    s = CircleFunction(grid4096, 1.0 / grid4096.nodes)  # shat(-1) = 1
    rep = regularity_test(s=s, d0=1.0, M=64)
    assert not rep.regular
    assert rep.r_sweep is not None
    assert "sigma_max" in rep.reason


def test_psi_h_trivial(grid):
    h = hankel_from_symbol(CircleFunction.constant(grid, 1.0), 16)
    _, psi0, _, psi = _aak_data(h, grid)
    assert abs(psi0 - 1.0) < 1e-12
    assert abs(psi.at_zero() - 1.0) < 1e-12


def test_psi_h_single(grid):
    s = _symbol(grid, VerblunskySeq(a_minus1=1.0, a=(0.5,)))
    psi0 = _aak_data(hankel_from_symbol(s, 64), grid)[1]
    assert abs(psi0 - np.sqrt(3.0) / 2.0) < 1e-6


def test_psi_h_matches_spectral_psi(grid):
    rng = np.random.default_rng(23)
    seq = random_complex_seq(rng, 3)
    data = forward_scatter(seq, grid)
    psi = _aak_data(hankel_from_symbol(data.s, 96), grid)[3]
    psi_t = phi_from_R(schur_caratheodory(seq, grid), data.D, seq.a_minus1, grid)[3]
    gap = np.max(np.abs(psi.boundary(grid).samples - psi_t))
    assert gap < 1e-6


def test_phi_h_trivial(grid):
    phi = _aak_data(hankel_from_symbol(CircleFunction.constant(grid, 1.0), 16), grid)[2]
    assert np.max(np.abs(phi.coef)) < 1e-12


def test_phi_h_matches_spectral_phi(grid):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    data = forward_scatter(seq, grid)
    phi = _aak_data(hankel_from_symbol(data.s, 64), grid)[2]
    phi_t = phi_from_R(schur_caratheodory(seq, grid), data.D, seq.a_minus1, grid)[2]
    gap = np.max(np.abs(phi.boundary(grid).samples - phi_t))
    assert gap < 1e-6
    assert abs(phi.coef[1] + 0.5) < 1e-8


def test_phi_h_psi_h_modulus_identity(grid):
    rng = np.random.default_rng(24)
    seq = random_complex_seq(rng, 3)
    data = forward_scatter(seq, grid)
    _, _, phi, psi = _aak_data(hankel_from_symbol(data.s, 96), grid)
    mod = np.abs(phi.boundary(grid).samples) ** 2 + np.abs(psi.boundary(grid).samples) ** 2
    assert np.max(np.abs(mod - 1.0)) < 1e-6


def test_aak_data_bundle(grid):
    rng = np.random.default_rng(30)
    s = _symbol(grid, random_complex_seq(rng, 3))
    g, psi0, phi, _ = _aak_data(hankel_from_symbol(s, 64), grid)
    assert g[0].real >= 1.0 - 1e-12
    assert 0.0 < psi0 <= 1.0
    assert abs(phi.at_zero()) < 1e-12


def test_regularity_free(grid):
    data = forward_scatter(VerblunskySeq(a_minus1=-1.0), grid)
    rep = regularity_test(s=data.s, d0=data.d0, M=32)
    assert rep.regular
    assert abs(rep.lhs - 1.0) < 1e-10
    assert abs(rep.rhs - 1.0) < 1e-10


def test_regularity_single(grid):
    data = forward_scatter(VerblunskySeq(a_minus1=1.0, a=(0.5,)), grid)
    rep = regularity_test(s=data.s, d0=data.d0, M=64)
    assert rep.regular
    assert abs(rep.lhs - 4.0 / 3.0) < 1e-6
    assert abs(rep.rhs - 4.0 / 3.0) < 1e-6


def test_regularity_monomial_detects_nonuniqueness(grid):
    # s = t^2 with the quartic-weight candidate D(0) = 1/sqrt6: the solve
    # constant stays 1 while 1/D(0)^2 = 6, so the test reports the factor 6
    s = CircleFunction(grid, grid.nodes ** 2)
    rep = regularity_test(s=s, d0=1.0 / np.sqrt(6.0), M=64)
    assert not rep.regular
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs - 6.0) < 1e-12
    assert abs(rep.rhs / rep.lhs - 6.0) < 1e-10


def _dense_master(s, m, max_shift):
    """The m x (m + max_shift) master as a dense matrix, entry by entry."""
    neg = hankel_from_symbol(s, m, max_shift=max_shift).neg[: 2 * m - 1 + max_shift]
    return np.array([[neg[k + j] for j in range(m + max_shift)] for k in range(m)])


def test_shifted_cg_matches_dense_solves(grid4096):
    # complex coefficients and a random unimodular a_minus1: every Schur
    # step (G_n, F_n) of the one r = 1 solve matches explicit dense solves
    # of the trailing Gram block, u_n = (I - W_n* W_n)^{-1} e0 and
    # -(I - W_n* W_n)^{-1} conj(W[0, n:]), with conj(F_n) = -W_n u_n, and
    # what recovery reads off u_n matches dense solves of I - W_n W_n*
    from cmvscatter import recover_verblunsky

    rng = np.random.default_rng(31)
    seq = random_complex_seq(rng, 5)
    s = _symbol(grid4096, seq)
    m, n_max = 128, 8
    w = _dense_master(s, m, n_max + 2)
    a = np.eye(w.shape[1]) - w.conj().T @ w
    u = []
    for n, (big_g, f) in enumerate(schur_pairs(s, m, n_max + 2)):
        e0 = np.zeros(w.shape[1] - n, dtype=complex)
        e0[0] = 1.0
        u.append(np.linalg.solve(a[n:, n:], e0))
        q = -np.linalg.solve(a[n:, n:], np.conj(w[0, n:]))
        assert np.max(np.abs(big_g - u[-1][:m])) < 1e-12
        assert np.max(np.abs(f - q[:m])) < 1e-12
        assert np.max(np.abs(np.conj(f) + w[:, n:] @ u[-1])) < 1e-12
    rep = recover_verblunsky(s, n_max=n_max, M=m)
    rho = [np.sqrt(u[n + 1][0].real / u[n][0].real) for n in range(n_max + 1)]
    assert np.max(np.abs(rep.rho - rho)) < 1e-12
    for n in range(n_max + 1):
        wn = w[:, n:]
        e0 = np.zeros(m, dtype=complex)
        e0[0] = 1.0
        v = np.linalg.solve(np.eye(m) - wn @ wn.conj().T, e0)
        b = -(wn.conj().T @ v)[0] / u[n][0]
        assert abs(-np.conj(rep.a_minus1) * rep.a[n] - b) < 1e-12
    assert abs(rep.a_minus1 - seq.a_minus1) < 1e-6


def _property_symbol(grid, mods, phases, theta):
    seq = VerblunskySeq(a_minus1=np.exp(1j * theta),
                        a=tuple(m * np.exp(1j * p) for m, p in zip(mods, phases)))
    return _symbol(grid, seq)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    mods=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6),
    theta=st.floats(0.0, 2.0 * np.pi),
    order=st.sampled_from([64, 256]),
)
def test_hankel_symmetry_property(grid4096, mods, phases, theta, order):
    # H = H^T, so I - HH* = conj(I - H*H): the co-analytic solve is the
    # conjugate of the analytic one, and it matches a dense solve of I - HH*
    h = hankel_from_symbol(_property_symbol(grid4096, mods, phases, theta), order)
    assert np.array_equal(h.mat, h.mat.T)
    x = solve_block(h)
    ref = np.linalg.solve(np.eye(order) - h.mat @ h.mat.conj().T, np.eye(order, 1)[:, 0])
    assert np.linalg.norm(np.conj(x) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_shifted_solves_gate_on_the_master_norm(grid4096):
    from cmvscatter import RegularityError, recover_verblunsky

    s = CircleFunction(grid4096, 1.0 / grid4096.nodes)  # shat(-1) = 1
    assert 1.0 - hankel_from_symbol(s, 64, max_shift=4).sigma_max() <= 1e-8
    with pytest.raises(RegularityError, match="one-to-one"):
        recover_verblunsky(s, n_max=2, M=66)


def test_shifted_cg_near_singular_matches_dense():
    # the s of jacobi(2, 0, 400) with the s-CSV classify sizes: 18 Schur
    # steps of the M = 512 solve with sigma_max = 1 - 4e-7, condition about
    # 1e6, against dense solves of the trailing Gram blocks of the wide
    # master, with e0 (G_n) and with conj(W[0, n:]) (-F_n)
    from cmvscatter.classify import jacobi_verblunsky

    s = _symbol(CircleGrid(16384), jacobi_verblunsky(2.0, 0.0, 400))
    m, shifts = 512, 18
    assert 1.0 - hankel_from_symbol(s, m).sigma_max() < 1e-6
    w = _dense_master(s, m, shifts)
    a = np.eye(w.shape[1]) - w.conj().T @ w
    for n, (big_g, f) in enumerate(schur_pairs(s, m, shifts)):
        ref = np.linalg.solve(a[n:, n:], np.eye(w.shape[1] - n, 1)[:, 0])
        assert np.linalg.norm(big_g - ref[:m]) <= 1e-9 * np.linalg.norm(ref)
        ref = -np.linalg.solve(a[n:, n:], np.conj(w[0, n:]))
        assert np.linalg.norm(f - ref[:m]) <= 1e-9 * np.linalg.norm(ref)


def _dense_norm(neg, rows, cols):
    import scipy.linalg

    return float(scipy.linalg.svdvals(neg[np.add.outer(np.arange(rows), np.arange(cols))])[0])


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_hankel_norm_matches_svd(grid4096, seed):
    # complex coefficients, random unimodular a_minus1, square and
    # rectangular (M x (M + shift)) masters, orders 1 and 2
    rng = np.random.default_rng(seed)
    neg = hankel_from_symbol(_symbol(grid4096, random_complex_seq(rng, 6)), 256,
                             max_shift=14).neg
    for rows, cols in ((256, 256), (256, 270), (64, 78), (100, 37),
                       (1, 1), (1, 3), (2, 2), (2, 5), (3, 1)):
        sigma = HankelOp(rows, neg, cols=cols).sigma_max()
        assert abs(sigma - _dense_norm(neg, rows, cols)) < 1e-14


def test_hankel_norm_edge_operators():
    neg = np.zeros(64, dtype=complex)
    assert HankelOp(16, neg, cols=20).sigma_max() == 0.0
    assert HankelOp(0, neg, cols=0).sigma_max() == 0.0
    neg[0] = 1.0  # sigma exactly 1
    assert abs(HankelOp(16, neg, cols=20).sigma_max() - 1.0) < 1e-14
    assert _dense_norm(neg, 16, 20) == 1.0
    with pytest.raises(ValueError, match="coefficients"):
        HankelOp(40, neg, cols=40)


def test_hankel_norm_deterministic(grid4096):
    # two operators on the same coefficients, so the cache plays no part
    rng = np.random.default_rng(45)
    neg = hankel_from_symbol(_symbol(grid4096, random_complex_seq(rng, 6)), 512).neg
    assert HankelOp(512, neg).sigma_max() == HankelOp(512, neg).sigma_max()


def test_hankel_norm_refuses_unconverged(grid4096, monkeypatch):
    from cmvscatter import hankel

    rng = np.random.default_rng(46)
    neg = hankel_from_symbol(_symbol(grid4096, random_complex_seq(rng, 6)), 256).neg
    monkeypatch.setattr(hankel, "LANCZOS_MAX_STEPS", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        hankel.HankelOp(256, neg).sigma_max()


def _dense_block_solve(h, r=1.0):
    """Reference: Cholesky of the dense I - r^2 H*H, solved against e0."""
    import scipy.linalg

    m = h.order
    mat = h.neg[np.add.outer(np.arange(m), np.arange(m))]
    e0 = np.zeros(m, dtype=complex)
    e0[0] = 1.0
    system = np.eye(m) - (r * r) * (mat.conj().T @ mat)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(system, lower=True), e0)


@pytest.mark.parametrize("m", [16, 64, 256])
def test_solve_block_matches_dense_cholesky(grid4096, m):
    # complex coefficients and a random unimodular a_minus1
    rng = np.random.default_rng(50 + m)
    big = hankel_from_symbol(_symbol(grid4096, random_complex_seq(rng, 6)), m, max_shift=2)
    for h in (big.shifted(0), big.shifted(2)):
        for r in (0.9, 0.99, 1.0):
            ref = _dense_block_solve(h, r)
            x = solve_block(h, r=r)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_block_near_singular_matches_dense(grid4096):
    # the s of jacobi(2, 0, 400): sigma_max = 1 - 4e-7, condition about 1e6
    from cmvscatter.classify import jacobi_verblunsky

    h = hankel_from_symbol(_symbol(grid4096, jacobi_verblunsky(2.0, 0.0, 400)), 512)
    assert 1.0 - h.sigma_max() < 1e-6
    ref = _dense_block_solve(h)
    x = solve_block(h)
    assert abs(x[0].real - ref[0].real) <= 1e-8 * ref[0].real
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_solve_block_refuses_indefinite_system():
    from cmvscatter.hankel import HankelOp

    neg = np.zeros(64, dtype=complex)
    neg[0] = 2.0  # sigma_max 2, so I - 0.81 H*H has the eigenvalue -2.24
    with pytest.raises(NumericalError, match="positive definite"):
        solve_block(HankelOp(16, neg), r=0.9)


def test_cg_refuses_an_unconverged_residual():
    # K stands for both W and W^T, which is no adjoint pair when K is not
    # symmetric: the recurrence residual vanishes in 3 steps but the true
    # residual of the non-Hermitian system does not, and the gate refuses
    from cmvscatter.hankel import HankelOp

    k = 0.3 * np.random.default_rng(52).normal(size=(3, 3))
    op = HankelOp(3, np.zeros(5, dtype=complex))
    op._corr = lambda x, m: (x @ k.T)[..., :m]
    op._sigma = 0.5
    with pytest.raises(NumericalError, match="condition estimate"):
        solve_block(op)


@pytest.fixture(scope="module")
def long_jacobi():
    """The Helson-Szego weight |t-1|^{1/2}, truncated at support 2000."""
    from cmvscatter.classify import jacobi_verblunsky

    seq = jacobi_verblunsky(0.25, 0.0, 2000)
    return seq, forward_scatter(seq, CircleGrid(16384))


def test_regularity_long_jacobi_matches_dense(long_jacobi):
    # the order-1024 CG solve against the dense one; the report's lhs comes
    # from order 2048, past the Kronecker cut at the support, where the
    # truncated constant is exactly 1/D(0)^2
    data = long_jacobi[1]
    rep = regularity_test(s=data.s, d0=data.d0, M=1024)
    h = hankel_from_symbol(data.s, 1024)
    ref = _dense_block_solve(h)[0].real
    assert abs(solve_block(h)[0].real - ref) <= 1e-12 * ref
    assert abs(rep.lhs * data.d0 ** 2 - 1.0) <= 1e-12
    assert rep.converged


def test_regularity_decides_on_the_larger_order(long_jacobi):
    # at M = 1024 the order-M constant misses 1/D(0)^2 by 3.7e-4 relative,
    # above tol; the order-2048 solve decides, so this A2 weight is regular
    from cmvscatter import classify

    seq, data = long_jacobi
    h = hankel_from_symbol(data.s, 1024)
    assert abs(solve_block(h)[0].real * data.d0 ** 2 - 1.0) > 1e-4
    assert regularity_test(s=data.s, d0=data.d0, M=1024).regular
    rep = classify(seq, grid=data.s.grid, M=1024)
    assert rep.regular and rep.hs_member and not rep.gi_member
    # classify reads its GLM columns off the operator that decided, order
    # 2048, past the support; the order-128 block it read before sat 3.6e-3
    # below this, at 1.076231964059212
    assert abs(rep.diagnostics["glm_column_norm"] - 1.0798565702820684) <= 1e-9


def test_regularity_solves_once_per_decision(grid4096, corpus, long_jacobi, hankel_work):
    # one CG solve per decision: each AC corpus symbol has all of its
    # negative coefficients inside order 256, so nothing is built at 512;
    # jacobi(0.25, 0, 2000) at M = 1024 leaves 5.4e-3 of them unread and
    # decides at order 2048 alone, after the norm of order 1024
    for seq in corpus:
        data = forward_scatter(seq, grid4096)
        hankel_work["cg"].clear()
        assert regularity_test(s=data.s, d0=data.d0, M=256).regular
        assert hankel_work["cg"] == {256: 1}
    data = long_jacobi[1]
    for counts in hankel_work.values():
        counts.clear()
    rep = regularity_test(s=data.s, d0=data.d0, M=1024)
    assert rep.regular and [op.order for op in rep.ops] == [1024, 2048]
    assert hankel_work["built"] == hankel_work["lanczos"] == {1024: 1, 2048: 1}
    assert hankel_work["cg"] == {2048: 1}


def _unread_norm(s, order):
    """||(shat(-(order+1)), ..., shat(-(N/2-1)))||, from s's coefficients."""
    n = s.grid.size
    return np.linalg.norm(s.coeffs()[n // 2 + 1: n - order])


def test_converged_reads_what_the_deciding_order_leaves_unread(long_jacobi):
    # at M = 256 and 512 the deciding order 2M leaves 9.4e-3 and 5.4e-3 of
    # s's negative coefficients unread: not converged, although the
    # constants of orders M and 2M differ by only 9.2e-4 and 7.0e-4
    # relative; order 2048 leaves 4.2e-8 and meets 1/D(0)^2 to 7e-15
    data = long_jacobi[1]
    for M, unread, converged in ((256, 9.4e-3, False), (512, 5.4e-3, False),
                                 (1024, 4.2e-8, True)):
        rep = regularity_test(s=data.s, d0=data.d0, M=M)
        assert rep.ops[-1].order == 2 * M
        assert abs(_unread_norm(data.s, 2 * M) / unread - 1.0) < 0.02
        assert rep.converged is converged and rep.regular is converged


def _two_solve_regular(s, d0, M):
    """The reference verdict from r = 1 solves at orders M and 2M: order 2M
    decides when the grid resolves it and its solve is not refused, order M
    otherwise, and a refused order-M solve is not regular."""
    def lhs_at(order):
        try:
            return float(solve_block(hankel_from_symbol(s, order))[0].real)
        except RegularityError:
            return None

    lhs = lhs_at(M)
    if lhs is not None and 2 * M <= s.grid.size // 4:
        lhs2 = lhs_at(2 * M)
        lhs = lhs if lhs2 is None else lhs2
    return lhs is not None and abs(lhs * d0 * d0 - 1.0) <= REGULARITY_TOL


@settings(derandomize=True, database=None, max_examples=360, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), support=st.integers(0, 20),
       n=st.sampled_from([1024, 4096]),
       M=st.one_of(st.integers(1, 24), st.integers(1, 256)))
def test_one_solve_verdict_matches_two_solves(seed, support, n, M):
    # complex draws with |a_k| <= 0.95: the decision at the one order the
    # unread norm picks is the verdict of solves at orders M and 2M.  A
    # NumericalError is no verdict, and the two sides run different solves,
    # so it is compared only when neither side raises one
    seq = random_complex_seq(np.random.default_rng(seed), support, max_mod=0.95)
    data = forward_scatter(seq, CircleGrid(n))
    try:
        regular = regularity_test(s=data.s, d0=data.d0, M=M).regular
        reference = _two_solve_regular(data.s, data.d0, M)
    except NumericalError:
        return
    assert regular == reference


def test_glm_reads_the_square_truncation(long_jacobi):
    # the GLM columns of the order-128 solve factor the dense block inverse
    # of the same square truncation that glm_factorization_residual reads
    # (measured residual 3.1e-5).  Order 128 misses the regularity test by
    # 2e-3, so the matrix is built as classify builds it
    from cmvscatter import glm_factorization_residual, glm_matrix

    data = long_jacobi[1]
    glm = glm_matrix(data, 16, 128, check_regular=False)
    assert glm_factorization_residual(data, 16, 128, glm=glm) < 5e-5


def test_hankel_op_transforms_its_coefficients_once(grid, monkeypatch):
    # the norm, the solves and the products all reuse one fft
    rng = np.random.default_rng(53)
    h = hankel_from_symbol(_symbol(grid, random_complex_seq(rng, 4)), 64)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
    h.sigma_max()
    for r in (1.0, 0.9):
        h.apply(solve_block(h, r=r))
    assert len(calls) == 1


def test_point_evaluation_forms_no_matrix(grid, monkeypatch):
    from cmvscatter import hankel

    rng = np.random.default_rng(51)
    s = _symbol(grid, random_complex_seq(rng, 4))
    h = hankel_from_symbol(s, 64)
    solve_block(h)
    assert h._mat is None
    g, _, phi, _ = _aak_data(h, grid)
    assert h._mat is None
    # phi_H's co-analytic product -H* conj(g) against the dense matrix
    q = -(h.mat.conj().T @ np.conj(g))
    phi_t = grid.nodes * np.fft.ifft(q, grid.size) / np.fft.ifft(g, grid.size)
    assert np.max(np.abs(phi.boundary(grid).samples - phi_t)) < 1e-12
    built = []
    monkeypatch.setattr(hankel, "hankel_from_symbol",
                        lambda *a, **k: built.append(hankel_from_symbol(*a, **k)) or built[-1])
    regularity_test(s=s, d0=forward_scatter(random_complex_seq(rng, 4), grid).d0, M=64)
    nonregular = regularity_test(s=CircleFunction(grid, 1.0 / grid.nodes), d0=1.0, M=64)
    assert nonregular.r_sweep is not None
    # one operator each: both orders read all of s, so neither builds order 2M
    assert len(built) == 2 and all(op._mat is None for op in built)


def _dense_det(h):
    """The reference det(I - H*H): slogdet of the formed Gram."""
    w = h.neg[np.add.outer(np.arange(h.order), np.arange(h.cols))]
    sign, logdet = np.linalg.slogdet(np.eye(h.cols) - w.conj().T @ w)
    return float(sign.real * np.exp(logdet))


def test_det_by_lanczos_matches_dense(long_jacobi):
    # complex supports 1-6 with unimodular a_minus1 have rank <= p, and
    # jacobi(0.25, 0, 2000) has fast-decaying singular values: Lanczos
    # reaches an invariant subspace well inside the cap and forms no matrix;
    # the zero operator of a constant symbol gives exactly 1
    rng = np.random.default_rng(61)
    grid = long_jacobi[1].s.grid
    symbols = [_symbol(grid, random_complex_seq(rng, p)) for p in range(1, 7)]
    for s in symbols + [long_jacobi[1].s, CircleFunction.constant(grid, 1.0)]:
        h = hankel_from_symbol(s, 1024)
        det = h.det()
        assert h._mat is None
        ref = _dense_det(h)
        assert abs(det - ref) <= 1e-13 * abs(ref)


def test_det_counts_repeated_singular_values(grid4096):
    # with a_k = 0 at every even k, s is a function of t^2 and every nonzero
    # singular value of H is double; one Krylov space holds each once, and a
    # fresh block restarted at the invariant subspace finds the second copy
    for a in ((0.0, 0.5), (0.0, 0.3j, 0.0, -0.4 + 0.1j)):
        s = _symbol(grid4096, VerblunskySeq(a_minus1=np.exp(0.5j), a=a))
        for m in (64, 256):
            h = hankel_from_symbol(s, m)
            det = h.det()
            assert h._mat is None
            ref = _dense_det(h)
            assert abs(det - ref) <= 1e-13 * abs(ref)


def test_det_falls_back_to_dense_when_lanczos_does_not_converge(long_jacobi):
    # jacobi(2, 0, 400) has sigma_max = 1 - 4e-7 and rank 400: Lanczos needs
    # about 417 steps at m = 512, past the cap, so det is the dense value
    from cmvscatter.classify import jacobi_verblunsky

    s = forward_scatter(jacobi_verblunsky(2.0, 0.0, 400), long_jacobi[1].s.grid).s
    h = hankel_from_symbol(s, 512)
    det = h.det()
    assert h._mat is not None
    # both sides form W*W by a product; I - W*W has smallest eigenvalue 8e-7
    # and tr((I - W*W)^-1) = 1.2e6, so a 1e-15 relative change in that Gram
    # (another summation order, say) moves det by up to about 1e-9
    assert abs(det - _dense_det(h)) <= 1e-9 * abs(det)
