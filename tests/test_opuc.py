import numpy as np
import pytest

from cmvscatter import (
    VerblunskySeq,
    build_cmv,
    laurent_basis,
    schur_caratheodory,
    spectral_density,
)
from cmvscatter import CircleGrid, NumericalError
from cmvscatter.classify import jacobi_verblunsky
from cmvscatter.opuc import _top_exponents, szego_boundary, szego_polynomial

from conftest import ggt_matrix, random_complex_seq, schur_density


def _cmv_inverse_truncation(seq, n):
    """n-by-n leading block of the inverse: the product is unitary, so this
    is the adjoint of its leading block."""
    return build_cmv(seq, n).mat.conj().T


def _cmv_recursion_check(seq, n):
    """Max residual of the two coupled shift identities on basis vectors.

    Both identities are evaluated for all block indices that stay inside the
    truncation window; the contract is residual <= 1e-12.
    """
    if n < 2 * seq.support + 4:
        raise ValueError(
            f"dimension {n} too small; need at least {2 * seq.support + 4}")
    mat = build_cmv(seq, n).mat
    inv = _cmv_inverse_truncation(seq, n)

    def e(i):
        v = np.zeros(n, dtype=np.complex128)
        v[i] = 1.0
        return v

    worst = 0.0
    for k in range(0, (n - 4) // 2):
        i = 2 * k
        # inverse identity: A^-1 { rho_{2k-1} e_{2k-1} - conj(a_{2k-1}) e_{2k} }
        #                  = conj(a_{2k}) e_{2k} + rho_{2k} e_{2k+1}
        if k == 0:
            lhs_vec = -np.conj(seq.a_minus1) * e(0)
        else:
            lhs_vec = seq.rho(i - 1) * e(i - 1) - np.conj(seq.coeff(i - 1)) * e(i)
        res = inv @ lhs_vec - (np.conj(seq.coeff(i)) * e(i) + seq.rho(i) * e(i + 1))
        worst = max(worst, float(np.max(np.abs(res))))
        # forward identity: A { rho_{2k} e_{2k} - a_{2k} e_{2k+1} }
        #                  = a_{2k+1} e_{2k+1} + rho_{2k+1} e_{2k+2}
        lhs_vec = seq.rho(i) * e(i) - seq.coeff(i) * e(i + 1)
        res = mat @ lhs_vec - (seq.coeff(i + 1) * e(i + 1) + seq.rho(i + 1) * e(i + 2))
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def _gram_schmidt_basis(seq, m, grid):
    """Independent oracle: Cholesky orthonormalization of 1, 1/t, t, 1/t^2, ...

    Moment matrix entries come from the Fourier coefficients of the density,
    and the triangular solve fixes positive leading coefficients; the CMV
    phase convention is restored with powers of -conj(a_minus1).  Returns
    the coefficients in the layout of LaurentBasis.coef.
    """
    w = spectral_density(seq, grid)
    exps = _top_exponents(m)
    moments = w.coeffs()[(exps[None, :] - exps[:, None]) % grid.size]
    low = np.linalg.cholesky(moments)
    # coefficient columns T must satisfy T^T G conj(T) = I, so T = inv(L^T)
    trans = np.linalg.inv(low.T)
    phases = (-np.conj(seq.a_minus1)) ** (np.arange(m + 1) % 2)
    half = (m + 1) // 2
    coef = np.zeros((m + 1, 2 * half + 1), dtype=np.complex128)
    coef[:, half + exps] = (trans * phases).T
    return coef


def test_seq_validation():
    with pytest.raises(ValueError):
        VerblunskySeq(a_minus1=0.5, a=())
    with pytest.raises(ValueError):
        VerblunskySeq(a_minus1=1.0, a=(1.0,))
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            VerblunskySeq(a_minus1=1.0, a=(0.5, bad))
        with pytest.raises(ValueError, match="finite"):
            VerblunskySeq(a_minus1=bad, a=())
    seq = VerblunskySeq(a_minus1=np.exp(0.4j), a=(0.5, -0.25j))
    assert seq.support == 2
    assert abs(seq.rho(0) - np.sqrt(0.75)) < 1e-15
    assert seq.rho(5) == 1.0


def test_schur_free(grid):
    R = schur_caratheodory(VerblunskySeq(a_minus1=-1.0), grid)
    assert abs(R.at_zero() - 1.0) < 1e-13
    assert np.max(np.abs(R.coef[1:])) < 1e-13


def test_schur_single_coefficient(grid):
    R = schur_caratheodory(VerblunskySeq(a_minus1=1.0, a=(0.5,)), grid)
    # R = (1 + z/2)/(1 - z/2) = 1 + 2 sum (z/2)^k
    ks = np.arange(1, 10)
    assert np.max(np.abs(R.coef[1:10] - 2.0 * 0.5 ** ks)) < 1e-13


def test_schur_two_coefficients_first_derivative(grid):
    R = schur_caratheodory(VerblunskySeq(a_minus1=1.0, a=(0.5, 1.0 / 3.0)), grid)
    assert abs(R.at_zero() - 1.0) < 1e-13
    # modulus is convention-free; the resolved convention gives R'(0) = 2 a_0
    assert abs(abs(R.coef[1]) - 1.0) < 1e-13
    assert abs(R.coef[1] - 1.0) < 1e-13


def test_density_free(grid):
    w = spectral_density(VerblunskySeq(a_minus1=1.0), grid)
    assert np.max(np.abs(w.samples - 1.0)) < 1e-14


def test_density_rational(grid):
    w = spectral_density(VerblunskySeq(a_minus1=1.0, a=(0.5,)), grid)
    closed = 0.75 / np.abs(1.0 - 0.5 * grid.nodes) ** 2
    assert np.max(np.abs(w.samples - closed)) < 1e-13
    assert abs(np.mean(w.samples.real) - 1.0) < 1e-10


def test_density_ignores_a_minus1(grid):
    a = (0.4 + 0.1j, -0.2)
    w1 = spectral_density(VerblunskySeq(a_minus1=1.0, a=a), grid)
    w2 = spectral_density(VerblunskySeq(a_minus1=np.exp(2.2j), a=a), grid)
    assert np.array_equal(w1.samples, w2.samples)


def test_density_jacobi_approximates_quartic(grid4096):
    n = np.arange(200)
    seq = VerblunskySeq(a_minus1=-1.0, a=tuple(-2.0 / (n + 3.0)))
    w = spectral_density(seq, grid4096)
    t = grid4096.nodes
    target = np.abs(1.0 - t) ** 4 / 6.0
    away = np.abs(np.angle(t)) > 0.5
    rel = np.abs(w.samples.real[away] / target[away] - 1.0)
    assert np.max(rel) < 0.05


def test_density_matches_schur_formula(grid):
    # supports kept short: the reference loses digits to the cancellation in
    # 1 - |tf|^2 where w is small (4e-12 at support 20 against 80-bit values)
    rng = np.random.default_rng(41)
    for m in (1, 2, 3, 5, 8, 8):
        seq = random_complex_seq(rng, m)
        w = spectral_density(seq, grid).samples
        ref = schur_density(seq.a, grid)
        assert np.all(w.real > 0.0) and np.all(w.imag == 0.0)
        assert np.max(np.abs(w.real / ref - 1.0)) < 1e-12


def test_density_matches_schur_formula_long_support():
    grid = CircleGrid(16384)
    seq = jacobi_verblunsky(0.25, 0.0, 2000)
    w = spectral_density(seq, grid).samples.real
    assert np.max(np.abs(w / schur_density(seq.a, grid) - 1.0)) < 1e-12
    assert abs(np.mean(w) - 1.0) < 1e-13


def test_density_folds_support_beyond_grid():
    # support 40 on 16 nodes: Phi's coefficients are folded modulo 16
    grid = CircleGrid(16)
    seq = random_complex_seq(np.random.default_rng(7), 40, max_mod=0.3)
    w = spectral_density(seq, grid).samples.real
    assert np.max(np.abs(w / schur_density(seq.a, grid) - 1.0)) < 1e-12


def test_szego_polynomial_structure():
    rng = np.random.default_rng(5)
    for m in (0, 1, 3, 9):
        a = random_complex_seq(rng, m, max_mod=0.9).a
        phi = szego_polynomial(a)
        assert len(phi) == m + 1
        assert phi[0] == 1.0
        if m:
            assert phi[-1] == -a[-1]
            # zeros: the reflections 1/conj(z) of the GGT eigenvalues, |z| < 1
            zeros = np.sort_complex(np.roots(phi[::-1]))
            eig = np.linalg.eigvals(ggt_matrix(a))
            assert np.max(np.abs(eig)) < 1.0
            assert np.max(np.abs(zeros - np.sort_complex(1.0 / np.conj(eig)))) < 1e-12
    # a single coefficient: Phi = 1 - a_0 z
    assert np.array_equal(szego_polynomial([0.5 + 0.25j]), [1.0, -(0.5 + 0.25j)])


def test_szego_polynomial_is_the_schur_denominator():
    # Phi = D_0 - z N_0 of the Schur recursion on polynomials, run here as
    # written: N_M = 0, D_M = 1, N_k = a_k D + z N, D_k = D + conj(a_k) z N
    rng = np.random.default_rng(17)
    for m in (1, 2, 7, 30):
        a = random_complex_seq(rng, m, max_mod=0.8).a
        num, den = np.zeros(m + 1, dtype=complex), np.zeros(m + 1, dtype=complex)
        den[0] = 1.0
        for ak in reversed(a):
            z_num = np.concatenate(([0.0], num[:-1]))
            num, den = ak * den + z_num, den + np.conj(ak) * z_num
        phi = den - np.concatenate(([0.0], num[:-1]))
        got = szego_polynomial(a)
        assert np.max(np.abs(got - phi)) <= 1e-14 * np.sum(np.abs(phi))
    assert szego_polynomial([0.5, -0.25]).dtype == np.float64


def test_density_refuses_inaccurate_polynomial(grid4096, monkeypatch):
    # constant 1/2 with support 40 has values of Phi lost to cancellation
    with pytest.raises(NumericalError, match="Szego polynomial"):
        spectral_density(VerblunskySeq(a_minus1=-1.0, a=(0.5,) * 40), grid4096)
    seq = VerblunskySeq(a_minus1=-1.0, a=(0.5, 1.0 / 3.0))
    c, phi_t = szego_boundary(seq.a, grid4096)
    assert c == 0.75 * (1.0 - 1.0 / 9.0)
    monkeypatch.setattr("cmvscatter.opuc.EVAL_BOUND_LIMIT", 1e-17)
    with pytest.raises(NumericalError):
        szego_boundary(seq.a, grid4096)


def test_build_cmv_free():
    seq = VerblunskySeq(a_minus1=-1.0)
    cmv = build_cmv(seq, 6)
    mags = np.abs(cmv.mat)
    assert np.all((mags < 1e-15) | (np.abs(mags - 1.0) < 1e-15))
    assert abs(cmv.mat[0, 1] - 1.0) < 1e-15  # -conj(a_minus1) * rho_0 path


def test_build_cmv_hand_product():
    # independent construction: explicit block factors, multiplied by hand
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    r = np.sqrt(0.75)
    a0 = np.zeros((6, 6), dtype=complex)
    a0[0, 0], a0[0, 1], a0[1, 0], a0[1, 1] = 0.5, r, r, -0.5
    a0[2, 2], a0[2, 3], a0[3, 2], a0[3, 3] = 0.0, 1.0, 1.0, 0.0
    a0[4, 4], a0[4, 5], a0[5, 4], a0[5, 5] = 0.0, 1.0, 1.0, 0.0
    a1 = np.zeros((6, 6), dtype=complex)
    a1[0, 0] = -1.0
    a1[1, 1], a1[1, 2], a1[2, 1], a1[2, 2] = 0.0, 1.0, 1.0, 0.0
    a1[3, 3], a1[3, 4], a1[4, 3], a1[4, 4] = 0.0, 1.0, 1.0, 0.0
    expected = (a1 @ a0)[:4, :4]
    cmv = build_cmv(seq, 4)
    assert np.max(np.abs(cmv.mat - expected)) < 1e-15


def test_cmv_five_diagonal_and_unitary():
    rng = np.random.default_rng(8)
    seq = random_complex_seq(rng, 6, max_mod=0.9)
    n = 20
    cmv = build_cmv(seq, n)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 2:
                assert cmv.mat[i, j] == 0.0
    gram = cmv.mat.conj().T @ cmv.mat
    interior = gram[: n - 2, : n - 2]
    assert np.max(np.abs(interior - np.eye(n - 2))) < 1e-12


def test_cmv_first_return_identity():
    # <A^{-1} e_0, e_0> = -a_minus1 conj(a_0), the matrix end of the
    # kernel-ratio identity
    rng = np.random.default_rng(9)
    for _ in range(4):
        seq = random_complex_seq(rng, 3)
        val = build_cmv(seq, 8).mat.conj().T[0, 0]
        assert abs(val - (-seq.a_minus1 * np.conj(seq.a[0]))) < 1e-14


def test_cmv_inverse_is_inverse():
    rng = np.random.default_rng(10)
    seq = random_complex_seq(rng, 4)
    n = 16
    prod = build_cmv(seq, n).mat @ _cmv_inverse_truncation(seq, n)
    interior = prod[: n - 4, : n - 4]
    assert np.max(np.abs(interior - np.eye(n - 4))) < 1e-13


def test_recursion_check_free():
    assert _cmv_recursion_check(VerblunskySeq(a_minus1=-1.0), 12) == 0.0


def test_recursion_check_single():
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    assert _cmv_recursion_check(seq, 16) < 1e-12


def test_recursion_check_random():
    rng = np.random.default_rng(11)
    seq = random_complex_seq(rng, 8, max_mod=0.9)
    assert _cmv_recursion_check(seq, 32) < 1e-12


def test_recursion_check_dimension_guard():
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,) * 8)
    with pytest.raises(ValueError):
        _cmv_recursion_check(seq, 10)


def test_laurent_free_monomials(grid):
    am1 = np.exp(0.7j)
    basis = laurent_basis(VerblunskySeq(a_minus1=am1), 4, grid=grid)
    t = grid.nodes
    targets = [np.ones_like(t), -np.conj(am1) / t, t, -np.conj(am1) / t ** 2, t ** 2]
    for row, target in zip(basis.samples, targets):
        assert np.max(np.abs(row - target)) < 1e-13


def test_laurent_leading_coefficients(grid):
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    basis = laurent_basis(seq, 4, grid=grid)
    rho0 = np.sqrt(0.75)
    assert abs(basis.leading[2] - 1.0 / rho0) < 1e-10
    assert abs(basis.leading[2] - 1.1547005) < 1e-6
    assert abs(basis.leading[1] - (-1.0 / rho0)) < 1e-10
    assert abs(basis.leading[3] - (-1.0 / rho0)) < 1e-10


def test_laurent_first_element(grid):
    # P_1 = -conj(a_minus1) (1/t - a_0)/rho_0 under the resolved convention
    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    basis = laurent_basis(seq, 2, grid=grid)
    p1 = basis.coef[1]  # exponents -1, 0, 1
    rho0 = np.sqrt(0.75)
    assert abs(p1[0] - (-1.0 / rho0)) < 1e-12
    assert abs(p1[1] - 0.5 / rho0) < 1e-12
    assert p1[2] == 0.0


def test_laurent_gram(grid, corpus):
    for seq in corpus[:5]:
        basis = laurent_basis(seq, 10, grid=grid)
        assert basis.gram_residual < 1e-8


def test_laurent_orthogonality_audit(grid):
    from cmvscatter import NumericalError, spectral_density

    seq = VerblunskySeq(a_minus1=1.0, a=(0.5,))
    wrong_w = spectral_density(VerblunskySeq(a_minus1=1.0, a=(-0.6,)), grid)
    with pytest.raises(NumericalError):
        laurent_basis(seq, 6, w=wrong_w, grid=grid)


def test_laurent_matches_gram_schmidt_oracle(grid):
    rng = np.random.default_rng(12)
    for _ in range(3):
        seq = random_complex_seq(rng, 4, max_mod=0.6)
        basis = laurent_basis(seq, 12, grid=grid)
        oracle = _gram_schmidt_basis(seq, 12, grid=grid)
        assert oracle.shape == basis.coef.shape
        for p, q in zip(basis.coef, oracle):
            assert np.max(np.abs(p - q)) < 1e-7
