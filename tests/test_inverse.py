import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmvscatter import (
    CircleFunction,
    CircleGrid,
    RegularityError,
    VerblunskySeq,
    forward_scatter,
    glm_factorization_residual,
    glm_matrix,
    recover_verblunsky,
)
from cmvscatter.classify import jacobi_verblunsky
from cmvscatter.hankel import aak_boundary, hankel_from_symbol, solve_block
from cmvscatter.opuc import schur_function

from conftest import random_complex_seq, resolved_by, schur_pairs


def test_recover_free(grid4096):
    s = CircleFunction.constant(grid4096, 1.0)
    rep = recover_verblunsky(s, n_max=5, M=128)
    assert np.max(np.abs(rep.a)) < 1e-12
    assert np.max(np.abs(rep.rho - 1.0)) < 1e-12
    assert abs(rep.a_minus1 + 1.0) < 1e-12
    assert rep.regular


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    mods=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_roundtrip_property(grid4096, mods, phases, theta):
    # AC1 at the shipped N = 4096, M = 256, for complex coefficients and a
    # general unimodular a_minus1, on grids that resolve 1/Phi
    seq = VerblunskySeq(a_minus1=np.exp(1j * theta),
                        a=tuple(m * np.exp(1j * p) for m, p in zip(mods, phases)))
    assume(resolved_by(grid4096, seq.a))
    rep = recover_verblunsky(forward_scatter(seq, grid4096).s, n_max=8, M=256)
    full = np.zeros(9, dtype=complex)
    full[: seq.support] = seq.a
    assert np.max(np.abs(rep.a - full)) <= 1e-6
    assert abs(rep.a_minus1 - seq.a_minus1) <= 1e-6


def test_recover_single(grid4096):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    data = forward_scatter(seq, grid4096)
    rep = recover_verblunsky(data.s, n_max=10, M=256)
    assert abs(rep.a[0] - 0.5) < 1e-8
    assert np.max(np.abs(rep.a[1:])) < 1e-8
    assert abs(rep.rho[0] - np.sqrt(3.0) / 2.0) < 1e-8
    assert abs(rep.a_minus1 - 1.0) < 1e-8
    assert rep.regular
    assert rep.residual < 1e-8


def test_recover_complex_roundtrip(grid4096):
    rng = np.random.default_rng(25)
    for _ in range(3):
        seq = random_complex_seq(rng, 5)
        data = forward_scatter(seq, grid4096)
        rep = recover_verblunsky(data.s, n_max=8, M=256)
        assert np.max(np.abs(rep.a[:5] - np.asarray(seq.a))) < 1e-6
        assert abs(rep.a_minus1 - seq.a_minus1) < 1e-6
        assert rep.regular


def test_recovery_forward_maps_once(grid4096, monkeypatch):
    # a_minus1 comes from the pointwise identity; a_minus1_std and the
    # residual both come from one forward map of the recovered sequence
    from cmvscatter import inverse

    rng = np.random.default_rng(27)
    seq = random_complex_seq(rng, 5)
    data = forward_scatter(seq, grid4096)
    maps = []
    monkeypatch.setattr(inverse, "forward_scatter",
                        lambda *a, **k: maps.append(forward_scatter(*a, **k)) or maps[-1])
    rep = recover_verblunsky(data.s, n_max=8, M=256)
    assert len(maps) == 1
    assert rep.a_minus1_std < 1e-10 and rep.residual < 1e-10
    assert abs(rep.a_minus1 - seq.a_minus1) < 1e-6


def _ladder(s, n_max, M):
    """(rho, b) from the u_n[0] ladder of n_max + 2 shifted solves
    u_n = (I - W_n* W_n)^{-1} e0 on the M x (M + n_max + 2) master, each a
    dense solve of a trailing block of I - W*W:
    rho_n = sqrt(u_{n+1}[0] / u_n[0]) and b_n = -conj(u_n . W[0, n:]) / u_n[0],
    a reference that shares only the coefficients with the Schur recursion."""
    master = hankel_from_symbol(s, M, max_shift=n_max + 2)
    w = master.neg[np.add.outer(np.arange(M), np.arange(master.cols))]
    a = np.eye(master.cols) - w.conj().T @ w
    u = [np.linalg.solve(a[n:, n:], np.eye(master.cols - n, 1)[:, 0])
         for n in range(n_max + 2)]
    u0 = np.array([x[0].real for x in u])
    row = w[0]
    b = np.array([-np.conj(x @ row[n:]) / u0[n] for n, x in enumerate(u[:-1])])
    return np.sqrt(u0[1:] / u0[:-1]), b


def _schur_longdouble(h, n):
    """b_0..b_{n-1} of the recovery's Schur recurrence, run in long double
    on the coefficients of the same pair (g, q) of the r = 1 solve of h."""
    g = solve_block(h)
    q = -np.conj(h.apply(g))
    g, q = g.astype(np.clongdouble), q.astype(np.clongdouble)
    b = np.empty(n, dtype=np.clongdouble)
    for k in range(n):
        b[k] = q[0] / g[0]
        g, q = g - np.conj(b[k]) * q, np.append((q - b[k] * g)[1:], 0)
    return b.astype(np.complex128)


def test_recovery_reads_the_schur_pairs(grid4096):
    # the recovered coefficients are b_n = F_n[0]/G_n[0] of the recurrence
    # the GLM columns read, bit for bit
    seq = random_complex_seq(np.random.default_rng(30), 5)
    s = forward_scatter(seq, grid4096).s
    rep = recover_verblunsky(s, n_max=8, M=128)
    b = np.array([f[0] / g[0] for g, f in schur_pairs(s, 128, 9)])
    assert np.array_equal(rep.a, -rep.a_minus1 * b)
    assert np.array_equal(rep.rho, np.sqrt(1.0 - np.abs(b) ** 2))


def test_recover_rho_two_ways(grid4096):
    # rho is sqrt(1 - |a|^2) by construction; the u_n[0] ladder of the
    # shifted solves gives rho and b independently (measured gaps 1.1e-16
    # and 1.7e-16)
    rng = np.random.default_rng(26)
    seq = random_complex_seq(rng, 4)
    data = forward_scatter(seq, grid4096)
    rep = recover_verblunsky(data.s, n_max=6, M=256)
    rho, b = _ladder(data.s, 6, 256)
    assert np.max(np.abs(rep.rho - np.sqrt(1.0 - np.abs(rep.a) ** 2))) < 1e-15
    assert np.max(np.abs(rep.rho - rho)) < 1e-14
    assert np.max(np.abs(-np.conj(rep.a_minus1) * rep.a - b)) < 1e-14


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    mods=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=6),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=6, max_size=6),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_schur_parameters_match_the_ladder(grid4096, mods, phases, theta):
    # Geronimus: the Schur parameters of f = q/g from the one r = 1 solve
    # are the twisted coefficients the shifted ladder reads, and t f is the
    # Schur function of those parameters times t; complex coefficients and
    # a general unimodular a_minus1 on grids that resolve 1/Phi (worst over
    # these draws: 3.2e-16 for b, 2.2e-16 for rho and 2.5e-15 for phi)
    seq = VerblunskySeq(a_minus1=np.exp(1j * theta),
                        a=tuple(m * np.exp(1j * p) for m, p in zip(mods, phases)))
    assume(resolved_by(grid4096, seq.a))
    s = forward_scatter(seq, grid4096).s
    n_max, M = 8, 256
    rep = recover_verblunsky(s, n_max=n_max, M=M)
    b = -np.conj(rep.a_minus1) * rep.a
    rho, ladder_b = _ladder(s, n_max, M)
    assert np.max(np.abs(b - ladder_b)) <= 2e-15
    assert np.max(np.abs(rep.rho - rho)) <= 2e-15
    h = hankel_from_symbol(s, M)
    f, _ = aak_boundary(h, solve_block(h), grid4096)
    t = grid4096.nodes
    assert np.max(np.abs(t * f - t * schur_function(b, t))) <= 1e-14


def test_recover_a_minus1_invariance(grid4096):
    # rotating s only moves a_minus1; the coefficients stay put
    a = (0.4 + 0.2j, -0.3)
    d1 = forward_scatter(VerblunskySeq(a_minus1=1.0, a=a), grid4096)
    lam = np.exp(0.77j)
    rep1 = recover_verblunsky(d1.s, n_max=4, M=128)
    s2 = CircleFunction(grid4096, lam * d1.s.samples)
    rep2 = recover_verblunsky(s2, n_max=4, M=128)
    assert np.max(np.abs(rep1.a - rep2.a)) < 1e-8
    assert abs(rep2.a_minus1 - lam * rep1.a_minus1) < 1e-8


def test_recover_monomial_flags_nonuniqueness(grid4096):
    s = CircleFunction(grid4096, grid4096.nodes ** 2)
    rep = recover_verblunsky(s, n_max=5, M=128)
    assert np.max(np.abs(rep.a)) < 1e-12
    assert rep.residual > 1.0
    assert not rep.regular
    assert rep.warnings


def test_recover_order_guard(grid4096):
    s = CircleFunction.constant(grid4096, 1.0)
    with pytest.raises(ValueError):
        recover_verblunsky(s, n_max=10, M=32)


def test_recovery_residual_tracks_regularity(grid4096, corpus):
    # on the test corpus, residual <= 1e-6 exactly when the solve-constant
    # test passes
    from cmvscatter import regularity_test

    for seq in corpus[:4]:
        data = forward_scatter(seq, grid4096)
        rep = recover_verblunsky(data.s, n_max=8, M=256)
        direct = regularity_test(s=data.s, d0=data.d0, M=256)
        assert (rep.residual <= 1e-6) == direct.regular == True  # noqa: E712
    t2 = CircleFunction(grid4096, grid4096.nodes ** 2)
    rep = recover_verblunsky(t2, n_max=8, M=256)
    direct = regularity_test(s=t2, d0=1.0 / np.sqrt(6.0), M=256)
    assert (rep.residual <= 1e-6) == direct.regular == False  # noqa: E712


def test_recover_near_the_gate():
    # the s of jacobi(2.4, 0, 400) at M = 512 has 1 - sigma_max = 1.2e-8,
    # just outside REGULAR_GAP, so I - H*H has condition about 4e7.  The
    # Schur parameters match the true ones within 3.1e-9 and the dense
    # shifted ladder within 2.2e-9 (the ladder itself is 9.8e-10 off the
    # true ones), and the coefficient recurrence's rounding, against long
    # double on the same (g, q), is 1.6e-14
    seq = jacobi_verblunsky(2.4, 0.0, 400)
    grid = CircleGrid(16384)
    s = forward_scatter(seq, grid).s
    n_max, M = 16, 512
    h = hankel_from_symbol(s, M)
    assert 1e-8 < 1.0 - h.sigma_max() < 2e-8
    rep = recover_verblunsky(s, n_max=n_max, M=M)
    b = -np.conj(rep.a_minus1) * rep.a
    assert np.max(np.abs(rep.a - np.asarray(seq.a[: n_max + 1]))) <= 1e-8
    rho, ladder_b = _ladder(s, n_max, M)
    assert np.max(np.abs(b - ladder_b)) <= 5e-9
    assert np.max(np.abs(rep.rho - rho)) <= 5e-9
    assert np.max(np.abs(b - _schur_longdouble(h, n_max + 1))) <= 1e-13


def test_recover_with_clamped_nodes():
    # the s of jacobi(4, 0, 300) has w < 1e-14 at 175 nodes.  An order that
    # resolves it has 1 - sigma_max = 1.7e-13 and is refused at the gate;
    # at M = 256 (1 - sigma_max = 1.3e-5) f leaves the Schur class, the
    # coefficient recurrence stays within 4.9e-17 of long double on the same
    # (g, q), and
    # the report says the data is not regular instead of returning it as such
    seq = jacobi_verblunsky(4.0, 0.0, 300)
    grid = CircleGrid(16384)
    data = forward_scatter(seq, grid)
    assert data.clamped.sum() > 100
    with pytest.raises(RegularityError, match="one-to-one"):
        recover_verblunsky(data.s, n_max=16, M=512)
    rep = recover_verblunsky(data.s, n_max=16, M=256)
    h = hankel_from_symbol(data.s, 256)
    f, _ = aak_boundary(h, solve_block(h), grid)
    assert np.max(np.abs(f)) > 1.0
    b = -np.conj(rep.a_minus1) * rep.a
    assert np.max(np.abs(b - _schur_longdouble(h, 17))) <= 1e-15
    assert not rep.regular and rep.residual > 1.0


def test_recovery_evaluates_no_szego_pair(grid4096, monkeypatch):
    # phi and psi come from the one r = 1 solve, so recovery makes one
    # solve_block call, on the square order-M operator, and evaluates one
    # Szego polynomial: the audit's forward map of its n_max + 1 coefficients
    from cmvscatter import hankel, inverse, opuc, scatter

    seq = random_complex_seq(np.random.default_rng(36), 5)
    s = forward_scatter(seq, grid4096).s
    calls = []
    monkeypatch.setattr(scatter, "szego_boundary",
                        lambda a, g: calls.append(len(a)) or opuc.szego_boundary(a, g))
    solves = []
    monkeypatch.setattr(inverse, "solve_block",
                        lambda h: solves.append((h.order, h.cols)) or hankel.solve_block(h))
    rep = recover_verblunsky(s, n_max=8, M=256)
    assert calls == [9]
    assert solves == [(256, 256)]
    assert np.max(np.abs(rep.a[:5] - np.asarray(seq.a))) < 1e-12
    assert not hasattr(inverse, "szego_boundary")


def test_recover_refuses_outside_one_to_one_regime(grid4096):
    # s = 1/t has shat(-1) = 1: the Hankel truncation is not a strict
    # contraction and recovery must refuse
    s = CircleFunction(grid4096, 1.0 / grid4096.nodes)
    with pytest.raises(RegularityError, match="one-to-one"):
        recover_verblunsky(s, n_max=4, M=128)


def test_glm_free(grid):
    seq = VerblunskySeq(a_minus1=np.exp(0.5j))
    glm = glm_matrix(forward_scatter(seq, grid), 8, 32)
    expected = np.diag([1.0 if r % 2 == 0 else -seq.a_minus1 for r in range(8)])
    assert np.max(np.abs(glm.mat - expected)) < 1e-10


def test_glm_diagonal_single(grid):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    glm = glm_matrix(forward_scatter(seq, grid), 8, 128)
    d0 = np.sqrt(3.0) / 2.0
    rho0 = np.sqrt(3.0) / 2.0
    assert abs(glm.diag[0] - 1.0 / d0) < 1e-6
    assert abs(glm.diag[1] - (-1.0) * rho0 / d0) < 1e-6
    assert abs(glm.diag[2] - rho0 / d0) < 1e-6


def test_glm_diagonal_two_coefficients(grid):
    # rhokern products: entry (2n, 2n) is rho_0...rho_{2n-1}/D(0) and entry
    # (2n+1, 2n+1) is rho_0...rho_{2n}/D(0) in modulus
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5, 1.0 / 3.0))
    glm = glm_matrix(forward_scatter(seq, grid), 6, 128)
    rho = seq.rho()
    d0 = float(np.prod(rho))
    assert abs(abs(glm.diag[1]) - rho[0] / d0) < 1e-6
    assert abs(abs(glm.diag[2]) - rho[0] * rho[1] / d0) < 1e-6
    assert abs(abs(glm.diag[4]) - 1.0) < 1e-6


def test_glm_lower_triangular(grid):
    rng = np.random.default_rng(27)
    seq = random_complex_seq(rng, 3)
    glm = glm_matrix(forward_scatter(seq, grid), 10, 128)
    upper = np.triu(glm.mat, k=1)
    assert np.max(np.abs(upper)) == 0.0


def test_glm_factorization_free(grid):
    residual = glm_factorization_residual(
        forward_scatter(VerblunskySeq(a_minus1=-1.0), grid), 8, 32)
    assert residual < 1e-12


def test_glm_factorization_single(grid):
    residual = glm_factorization_residual(
        forward_scatter(VerblunskySeq(a_minus1=1.0, a=(0.5,)), grid), 8, 128)
    assert residual < 1e-6


def test_glm_factorization_three_coefficients(grid4096):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5, 1.0 / 3.0, -0.25))
    residual = glm_factorization_residual(forward_scatter(seq, grid4096), 8, 256)
    assert residual < 1e-5


def test_glm_refuses_a_block_longer_than_its_vectors(grid):
    # rows 1, 3, ... of a GLM block of order m read m//2 entries of W_n
    # vectors with M entries, and the reference reads (m+1)//2 of each half
    data = forward_scatter(VerblunskySeq(a_minus1=1.0, a=(0.5,)), grid)
    for m, M in ((16, 7), (15, 7)):
        with pytest.raises(ValueError, match="needs Hankel order"):
            glm_matrix(data, m, M)
        with pytest.raises(ValueError, match="needs Hankel order"):
            glm_factorization_residual(data, m, M)
    assert glm_matrix(data, 15, 8).mat.shape == (15, 15)


def test_glm_refuses_a_truncation_that_leaves_the_schur_class(grid):
    # a support-6 symbol is regular at order 8, but its square order-4
    # truncation drives G_6[0] below 0, where a column would read NaN
    from cmvscatter import NumericalError

    data = forward_scatter(random_complex_seq(np.random.default_rng(42), 6), grid)
    with pytest.raises(NumericalError, match="too short"):
        glm_matrix(data, 8, 4)
    assert np.all(np.isfinite(glm_matrix(data, 8, 8).mat))


def _dense_glm_reference(h, m):
    """The GLM rows and columns of the dense 2M x 2M inverse of [[I, H*], [H, I]]."""
    M = len(h)
    binv = np.linalg.inv(np.block([[np.eye(M), h.conj().T], [h, np.eye(M)]]))
    idx = np.array([r // 2 if r % 2 == 0 else M + r // 2 for r in range(m)])
    return binv[np.ix_(idx, idx)]


@pytest.mark.parametrize("support", [1, 2, 3, 4, 5, 6, "jacobi"])
def test_glm_reference_matches_the_dense_block_inverse(support):
    # complex coefficients with |a_k| <= 0.5 and a random unimodular
    # a_minus1, and the Helson-Szego weight |t-1|^{1/2} truncated at 2000
    from cmvscatter import CircleGrid, hankel_from_symbol
    from cmvscatter.classify import jacobi_verblunsky
    from cmvscatter.inverse import _glm_reference

    if support == "jacobi":
        seq = jacobi_verblunsky(0.25, 0.0, 2000)
    else:
        seq = random_complex_seq(np.random.default_rng(70 + support), support, max_mod=0.5)
    h = hankel_from_symbol(forward_scatter(seq, CircleGrid(16384)).s, 256).mat
    for m in (8, 16):
        ref = _dense_glm_reference(h, m)
        assert np.linalg.norm(_glm_reference(h, m) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_glm_requires_regular():
    from cmvscatter import CircleGrid
    from cmvscatter.scatter import ScatteringData
    from cmvscatter.circle import DiskFunction

    g = CircleGrid(1024)
    t2 = CircleFunction(g, g.nodes ** 2)
    data = ScatteringData(
        s=t2, D=DiskFunction([1.0 / np.sqrt(6.0)]), d0=1.0 / np.sqrt(6.0),
        a_minus1=-1.0, w=CircleFunction.constant(g, 1.0),
        clamped=np.zeros(g.size, dtype=bool))
    with pytest.raises(RegularityError):
        glm_matrix(data, 4, 64)


def test_l_matrix_diag_is_rho_tail_product(grid):
    # the recurrence's G_n = u_n = (I - W_n* W_n)^{-1} e0 have
    # u_n[0] = 1/prod(rho[n:])^2, so L^n_n = sqrt(u_n[0]) for A^{-1} = L L*
    rng = np.random.default_rng(28)
    seq = random_complex_seq(rng, 4)
    rho = seq.rho()
    for n, (u, _) in enumerate(schur_pairs(forward_scatter(seq, grid).s, 128, 8)):
        tail = float(np.prod(rho[n:])) if n < len(rho) else 1.0
        assert abs(u[0].real - 1.0 / tail ** 2) < 1e-6


def test_l_matrix_factors_the_master_inverse(grid4096):
    # L = R^{-*} for A = I - W*W = R R*, R upper triangular: the trailing
    # block of R^{-*} inverts R's trailing block, so column n of L is
    # u_n / sqrt(u_n[0]) with u_n = G_n from the recurrence on the square
    # solve, and L L* equals the leading block of the wide master's A^{-1}
    # to rounding, since this symbol's coefficients decay far inside M
    rng = np.random.default_rng(33)
    seq = random_complex_seq(rng, 4)
    s = forward_scatter(seq, grid4096).s
    m, M = 8, 128
    mat = np.zeros((m, m), dtype=np.complex128)
    for n, (u, _) in enumerate(schur_pairs(s, M, m)):
        mat[n:, n] = u[: m - n] / np.sqrt(u[0].real)
    w = hankel_from_symbol(s, M, max_shift=m).neg[np.add.outer(np.arange(M), np.arange(M + m))]
    inv = np.linalg.inv(np.eye(M + m) - w.conj().T @ w)
    assert np.max(np.abs(mat @ mat.conj().T - inv[:m, :m])) < 1e-12


def test_glm_residual_reuses_a_built_matrix(grid):
    seq = VerblunskySeq(a_minus1=np.exp(0.3j), a=(0.4 - 0.2j, 0.25j))
    data = forward_scatter(seq, grid)
    glm = glm_matrix(data, 8, 128)
    reused = glm_factorization_residual(data, 8, 128, glm=glm)
    assert abs(reused - glm_factorization_residual(data, 8, 128)) < 1e-15
    assert reused < 1e-12


def test_glm_odd_columns_match_dense_solves(grid4096):
    # complex coefficients and a random unimodular a_minus1: each odd column
    # reads F_n, the solve with right-hand side -conj(W[0, n:]), checked
    # against dense solves of the trailing Gram block of the wide master
    from cmvscatter import hankel_from_symbol

    rng = np.random.default_rng(34)
    seq = random_complex_seq(rng, 5)
    data = forward_scatter(seq, grid4096)
    m, M = 10, 128
    glm = glm_matrix(data, m, M)
    neg = hankel_from_symbol(data.s, M, max_shift=m).neg
    w = neg[np.add.outer(np.arange(M), np.arange(M + m))]
    for n in range(1, m, 2):
        wn = w[:, n:]
        q = -np.linalg.solve(np.eye(M + m - n) - wn.conj().T @ wn, np.conj(w[0, n:]))
        v = -(wn @ q)
        v[0] += 1.0
        scale = -seq.a_minus1 / np.sqrt(v[0].real)
        assert np.max(np.abs(glm.mat[n::2, n] - scale * v[: (m - n + 1) // 2])) < 1e-12
        assert np.max(np.abs(glm.mat[n + 1::2, n] - scale * q[: (m - n) // 2]), initial=0.0) < 1e-12


def test_glm_makes_one_square_solve(grid, monkeypatch):
    # every column comes from the one r = 1 solve on the square order-M
    # operator; nothing builds a wide master or solves a shifted system
    from cmvscatter import hankel, inverse

    data = forward_scatter(random_complex_seq(np.random.default_rng(37), 4), grid)
    built, solves = [], []
    monkeypatch.setattr(inverse, "hankel_from_symbol",
                        lambda *a, **k: built.append(hankel.hankel_from_symbol(*a, **k)) or built[-1])
    monkeypatch.setattr(inverse, "solve_block",
                        lambda h: solves.append(h) or hankel.solve_block(h))
    glm_matrix(data, 16, 128, check_regular=False)
    assert [(h.order, h.cols) for h in built] == [(128, 128)]
    assert solves == built


def test_inverse_map_needs_no_scipy_linalg(grid, monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg called on the inverse path")

    for name in dir(scipy.linalg):
        if not name.startswith("_") and callable(getattr(scipy.linalg, name)):
            monkeypatch.setattr(scipy.linalg, name, refuse)
    seq = VerblunskySeq(a_minus1=np.exp(0.4j), a=(0.3 + 0.2j, -0.25j, 0.1))
    data = forward_scatter(seq, grid)
    rep = recover_verblunsky(data.s, n_max=6, M=128)
    assert np.max(np.abs(rep.a[:3] - np.asarray(seq.a))) < 1e-6
    assert glm_factorization_residual(data, 8, 128, glm=glm_matrix(data, 8, 128)) < 1e-12
