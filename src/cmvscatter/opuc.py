"""Verblunsky sequences, CMV matrices, Schur recursion, Laurent basis.

The spectral density is the Schur algorithm run backward on the
coefficients a_0..a_{M-1}, carried out on polynomials instead of point
values: for a finitely supported sequence it is w = c/|Phi|^2 with
c = prod(1 - |a_k|^2) and one degree-M polynomial Phi (the Szego
polynomial), zero-free on the closed disk with Phi(0) = 1, whose values at
the grid nodes come from one FFT (`szego_boundary`).  `schur_function`
keeps the pointwise recursion as an independent reference.  The density
depends only on a_0, a_1, ...; the unimodular a_{-1} enters the scattering
function and the phases of the orthonormal Laurent basis, whose elements
are the orthonormal polynomials of the same Szego recursion, arranged as
in Cantero-Moral-Velazquez.

Convention note (conjugation calibration, documented once here): the
five-diagonal matrix is built verbatim from the user's coefficients, and
the Laurent basis has leading coefficients 1/(rho_0...rho_{2n-1}) and
-conj(a_{-1})/(rho_0...rho_{2n}).  The inverse map reads the Schur
parameters b_n = -conj(a_{-1}) a_n of one Hankel solve, and the kernel
ratio (scatter.KernelPair.verbk_ratio) is b_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import CircleFunction, disk_from_boundary
from .errors import NumericalError

#: Largest accepted bound eps * sum|phi_k| / min_j |Phi(t_j)| on the relative
#: error of the Szego polynomial's values at the grid nodes.
EVAL_BOUND_LIMIT = 1e-6


@dataclass(frozen=True)
class VerblunskySeq:
    """Finitely supported coefficients |a_k| < 1 plus unimodular a_minus1."""

    a_minus1: complex
    a: tuple = ()

    def __post_init__(self):
        a_minus1 = complex(self.a_minus1)
        a = tuple(complex(x) for x in self.a)
        if not np.all(np.isfinite((a_minus1,) + a)):
            raise ValueError("Verblunsky coefficients must be finite")
        if abs(abs(a_minus1) - 1.0) > 1e-12:
            raise ValueError(f"|a_minus1| must be 1, got {abs(a_minus1):.15g}")
        for k, ak in enumerate(a):
            if abs(ak) > 1.0 - 1e-12:
                raise ValueError(f"|a_{k}| must stay below 1, got {abs(ak):.15g}")
        object.__setattr__(self, "a_minus1", a_minus1)
        object.__setattr__(self, "a", a)

    @property
    def support(self):
        return len(self.a)

    def coeff(self, k):
        """a_k, zero past the support."""
        return self.a[k] if k < len(self.a) else 0.0 + 0.0j

    def rho(self, k=None):
        if k is not None:
            return float(np.sqrt(1.0 - abs(self.coeff(k)) ** 2))
        return np.sqrt(1.0 - np.abs(np.asarray(self.a)) ** 2) if self.a else np.array([])


def schur_function(params, z):
    """Schur function with parameters `params` by backward recursion,
    evaluated at the points z (on or inside the circle)."""
    z = np.asarray(z, dtype=np.complex128)
    f = np.zeros_like(z)
    for ak in reversed(list(params)):
        zf = z * f
        f = (ak + zf) / (1.0 + np.conj(ak) * zf)
    return f


def schur_caratheodory(seq, grid):
    """Herglotz function R = (1 + z f)/(1 - z f) of the Schur function f
    with parameters a_0..a_{M-1}; R(0) = 1.  Returned as a DiskFunction."""
    t = grid.nodes
    f = schur_function(seq.a, t)
    r_boundary = (1.0 + t * f) / (1.0 - t * f)
    R, _ = disk_from_boundary(r_boundary, grid, kind="interior")
    return R


def szego_polynomial(a):
    """Coefficients phi_0..phi_M of the Szego polynomial Phi of a_0..a_{M-1}.

    Phi = D_0 - z N_0 for the Schur recursion run on polynomials,
    f_k = N_k/D_k with N_M = 0, D_M = 1, N_k = a_k D_{k+1} + z N_{k+1} and
    D_k = D_{k+1} + conj(a_k) z N_{k+1}.  So Phi(0) = 1, Phi has no zero on
    the closed disk, and |D_0|^2 - |N_0|^2 = prod(1 - |a_k|^2) on the circle.
    Phi is also the reversed monic orthogonal polynomial Phi*_M, which
    Szego's recursion Phi*_{n+1} = Phi*_n - a_n z Phi_n builds in one array
    (Phi_n holds the coefficients of Phi*_n reversed and conjugated); that
    is what runs here, O(M^2).
    """
    a = np.asarray(a)
    phi = np.zeros(len(a) + 1, dtype=np.result_type(a.dtype, np.float64))
    phi[0] = 1.0
    for n, an in enumerate(a):
        phi[1:n + 2] -= an * np.conj(phi[n::-1])
    return phi


def szego_boundary(a, grid):
    """(c, Phi(t_j)): c = prod(1 - |a_k|^2) and the Szego polynomial of the
    coefficients a at the grid nodes, by one FFT of its coefficients folded
    modulo N (exact for any support).  w = c/|Phi|^2, D = sqrt(c)/Phi,
    s = -a_{-1} conj(Phi)/Phi.

    Raises NumericalError when a value is zero or not finite, or when the
    evaluation error bound eps * sum|phi_k| / min|Phi(t_j)| exceeds
    EVAL_BOUND_LIMIT.
    """
    n = grid.size
    a = np.asarray(a, dtype=np.complex128)
    if not a.imag.any():
        a = a.real  # real coefficients keep Phi real at half the cost
    c = float(np.prod(1.0 - np.abs(a) ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        phi = szego_polynomial(a)
        total = float(np.sum(np.abs(phi)))
        folded = np.pad(phi, (0, -len(phi) % n)).reshape(-1, n).sum(axis=0)
        phi_t = np.fft.ifft(folded, norm="forward")
    low = float(np.min(np.abs(phi_t)))
    if not (c > 0.0 and low > 0.0 and np.all(np.isfinite(phi_t))
            and np.finfo(float).eps * total <= EVAL_BOUND_LIMIT * low):
        raise NumericalError(
            f"Szego polynomial of degree {len(a)} cannot be evaluated accurately "
            f"on the grid (coefficient sum {total:.3e}, min |Phi| {low:.3e})")
    return c, phi_t


def spectral_density(seq, grid):
    """Spectral density w = Re R = c/|Phi|^2 on the grid; integrates to 1.

    Positive by construction.  The density does not involve a_minus1.
    """
    c, phi_t = szego_boundary(seq.a, grid)
    return CircleFunction(grid, c / np.abs(phi_t) ** 2)


# ---------------------------------------------------------------------------
# CMV matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CmvMatrix:
    """Leading n-by-n truncation of the five-diagonal unitary product."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mat.setflags(write=False)


def _block_factors(seq, nbig):
    """The two block-diagonal factors on nbig coordinates (nbig even): the
    2x2 block of a_k on coordinates k, k+1 goes into factor k % 2, and
    factor 1 opens with the 1x1 block -conj(a_minus1)."""
    factors = np.zeros((2, nbig, nbig), dtype=np.complex128)
    factors[1, 0, 0] = -np.conj(seq.a_minus1)
    for k in range(nbig - 1):
        ak, rk = seq.coeff(k), seq.rho(k)
        factors[k % 2, k:k + 2, k:k + 2] = [[ak, rk], [rk, -np.conj(ak)]]
    return factors


def build_cmv(seq, n):
    """n-by-n leading block of the (doubly infinite-in-index) product.

    The extra working coordinates guarantee every returned entry equals the
    entry of the untruncated product, so interior columns are exactly
    orthonormal.
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    nbig = n + 4 + (n % 2)
    a0, a1 = _block_factors(seq, nbig)
    prod = a1 @ a0
    return CmvMatrix(prod[:n, :n].copy())


# ---------------------------------------------------------------------------
# The CMV orthonormal Laurent basis
# ---------------------------------------------------------------------------

@dataclass
class LaurentBasis:
    """Orthonormal Laurent system P_0..P_m for the spectral density:
    P_k = sum_e coef[k, K + e] t^e for |e| <= K = (m + 1) // 2."""

    coef: np.ndarray
    leading: np.ndarray
    samples: np.ndarray
    gram_residual: float


def _top_exponents(m):
    """Exponent of the leading term of P_0..P_m: 0, -1, 1, -2, 2, ..."""
    k = np.arange(m + 1)
    return np.where(k % 2 == 0, k // 2, -(k // 2 + 1))


def laurent_basis(seq, m, grid, w=None):
    """P_0..P_m from the Szego polynomials, with an orthonormality audit.

    With phi*_n = szego_polynomial(a_0..a_{n-1}) / (rho_0...rho_{n-1}) and
    phi_n its conjugate reversal, P_{2k} = t^-k phi_{2k} and
    P_{2k+1} = -conj(a_{-1}) t^-(k+1) phi*_{2k+1}, orthonormal under w*dm
    for w = spectral_density(seq).  Raises NumericalError if the Gram
    residual exceeds 1e-6.
    """
    if m > grid.size // 4:
        raise ValueError(f"basis order {m} too large for grid size {grid.size}")
    if w is None:
        w = spectral_density(seq, grid)

    a = np.array([seq.coeff(k) for k in range(m)], dtype=np.complex128)
    norms = np.cumprod(np.concatenate(([1.0], np.sqrt(1.0 - np.abs(a) ** 2))))
    half = (m + 1) // 2
    coef = np.zeros((m + 1, 2 * half + 1), dtype=np.complex128)
    for n in range(m + 1):
        star = szego_polynomial(a[:n]) / norms[n]
        lo = half - (n + 1) // 2
        coef[n, lo: lo + n + 1] = (
            np.conj(star[::-1]) if n % 2 == 0 else -np.conj(seq.a_minus1) * star)
    leading = coef[np.arange(m + 1), half + _top_exponents(m)]

    spec = np.zeros((m + 1, grid.size), dtype=np.complex128)
    spec[:, np.arange(-half, half + 1) % grid.size] = coef
    samples = np.fft.ifft(spec, axis=1, norm="forward")
    weighted = samples * w.samples.real[None, :]
    gram = weighted @ samples.conj().T / grid.size
    gram_residual = float(np.max(np.abs(gram - np.eye(m + 1))))
    if gram_residual > 1e-6:
        raise NumericalError(
            f"Laurent basis lost orthonormality: Gram residual {gram_residual:.3e}")
    return LaurentBasis(coef, leading, samples, gram_residual)
