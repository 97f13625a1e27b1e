"""Inverse scattering: coefficients back from the scattering function.

The per-order data all comes from the shifted solves
u_n = (I - W_n* W_n)^{-1} e0, where W_n = W[:, n:] is the Hankel operator
of t^n s and W the wide master, each by conjugate gradients on FFT matvecs
(hankel._cg) with no matrix formed.  u_n[0] gives the rho ladder,
rho_n = sqrt(u_{n+1}[0] / u_n[0]), and the kernel ratio at the origin the
twisted coefficient b_n = -conj(a_{-1}) a_n; the unimodular a_{-1} itself
is not visible to the Hankel operator (it only sees negative
coefficients), so it is read off the full scattering samples by the
pointwise identity

    a_{-1} = -(s conj(psi) + psi conj(phi)) / (s phi conj(psi) + psi),

where phi, psi are rebuilt from the recovered b's.  A grid mean with a
constancy audit realizes the limit; a non-constant quotient flags the
non-regular regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import CircleFunction, outer_boundary_samples
from .errors import NumericalError, RegularityError
from .hankel import _cg, _correlator, hankel_from_symbol, hankel_norm, regularity_test
from .opuc import VerblunskySeq, schur_function
from .scatter import ScatteringData, forward_scatter


@dataclass
class RecoveryReport:
    a: np.ndarray
    rho: np.ndarray
    a_minus1: complex
    residual: float                 # sup |s_forward - s_input| off clamp windows
    consistency: np.ndarray         # | |a_n|^2 + rho_n^2 - 1 |
    sigma_max: float
    regular: bool
    a_minus1_std: float
    warnings: list = field(default_factory=list)

    def to_json(self, config=None):
        obj = {
            "a_minus1": [self.a_minus1.real, self.a_minus1.imag],
            "a": [[x.real, x.imag] for x in self.a],
            "rho": [float(x) for x in self.rho],
            "residual": float(self.residual),
            "regular": bool(self.regular),
            "consistency": [float(x) for x in self.consistency],
            "sigma_max": float(self.sigma_max),
            "a_minus1_std": float(self.a_minus1_std),
            "warnings": list(self.warnings),
        }
        if config:
            obj["config"] = dict(config)
        return obj


class _Shifts:
    """W_n = W[:, n:] for the order-M master W[k, j] = neg[k + j] with
    M + max_shift columns, never formed.  Every W_n is a submatrix of W, so
    one norm gates them all: 1 - ||W|| <= 1e-8 raises RegularityError."""

    def __init__(self, s, M, max_shift):
        self.rows, self.cols = M, M + max_shift
        self.neg = hankel_from_symbol(s, M, max_shift=max_shift).neg[: M + self.cols - 1]
        self.sigma = hankel_norm(self.neg, M, self.cols)
        if 1.0 - self.sigma <= 1e-8:
            raise RegularityError(
                f"sigma_max = {self.sigma:.9g}: scattering data is not in the one-to-one regime")
        self.corr = _correlator(self.neg)

    def solve(self, n, y=None):
        """(I - W_n* W_n)^{-1} y; u_n for the default y = e0."""
        y = np.eye(self.cols - n, 1, dtype=np.complex128)[:, 0] if y is None else y
        return _cg(self.corr, self.rows, self.cols - n, n, y, 1.0, self.sigma)

    def apply(self, n, x):
        """W_n x = W [0_n; x]."""
        return self.corr(np.concatenate((np.zeros(n), x)), self.rows)


def _kept_nodes(data, halo=3):
    keep = np.ones(data.s.grid.size, dtype=bool)
    keep[data.excluded_nodes(halo)] = False
    return keep


def recover_verblunsky(s, n_max, M, residual_tol=1e-6):
    """Recover a_0..a_{n_max}, the rho ladder, and a_{-1} from samples of s.

    Raises RegularityError when the Hankel truncation is too close to a
    contraction bound of 1 (outside the one-to-one regime); lesser defects
    are reported in the warnings list instead.  The n-shifted truncation is
    M x (M + n_max + 2 - n), and sigma_max is the norm of the widest one.
    """
    if M < n_max + 64:
        raise ValueError(f"Hankel order {M} too small for n_max {n_max}; need >= {n_max + 64}")
    grid = s.grid
    shifts = _Shifts(s, M, n_max + 2)
    warnings = []
    u = [shifts.solve(n) for n in range(n_max + 2)]
    u0 = np.array([x[0].real for x in u])
    rho = np.sqrt(u0[1:] / u0[:-1])
    # b_n = -(H_n* (I - H_n H_n*)^{-1} e0)[0] / u_n[0], read off u_n because
    # H*(I - HH*)^{-1} = (I - H*H)^{-1} H* for any truncation shape
    row = shifts.neg[: shifts.cols]  # row 0 of W
    b = np.array([-np.conj(x @ row[n:]) / u0[n] for n, x in enumerate(u[:-1])])

    if np.any(np.abs(b) >= 1.0 - 1e-12):
        raise NumericalError(
            f"recovered coefficient modulus reached {np.abs(b).max():.9g}; solver failed")

    # phi, psi from the recovered twisted coefficients
    t = grid.nodes
    phi_t = t * schur_function(b, t)
    psi_t = outer_boundary_samples(
        CircleFunction(grid, np.maximum(1.0 - np.abs(phi_t) ** 2, 0.0)), grid)

    num = -(s.samples * np.conj(psi_t) + psi_t * np.conj(phi_t))
    den = s.samples * phi_t * np.conj(psi_t) + psi_t
    lam = np.sum(num * np.conj(den)) / max(np.sum(np.abs(den) ** 2), 1e-300)
    if abs(lam) < 1e-6:
        lam = -1.0 + 0.0j
        warnings.append("a_minus1 not identifiable from s; defaulted to -1 (non-unique data)")
    lam /= abs(lam)

    # polish a_minus1 with the forward Szego function of the recovered sequence
    a_minus1_std = float("inf")
    for _ in range(4):
        a = -lam * b
        if np.any(np.abs(a) >= 1.0 - 1e-12):
            raise NumericalError("recovered |a_n| reached 1; solver failed")
        seq = VerblunskySeq(a_minus1=lam, a=tuple(a))
        data = forward_scatter(seq, grid)
        keep = _kept_nodes(data)
        d_t = data.D.boundary(grid).samples
        vals = -s.samples[keep] * np.conj(d_t[keep]) / d_t[keep]
        mean = np.mean(vals)
        a_minus1_std = float(np.std(vals))
        if abs(mean) < 1e-6:
            break
        lam, lam_old = mean / abs(mean), lam
        if abs(lam - lam_old) < 1e-12:
            break
    if a_minus1_std > 1e-4:
        warnings.append(
            f"a_minus1 quotient not constant on the grid (std {a_minus1_std:.3e}); "
            "data behaves non-regular")

    a = -lam * b
    seq = VerblunskySeq(a_minus1=lam, a=tuple(a))
    data = forward_scatter(seq, grid)
    keep = _kept_nodes(data)
    residual = float(np.max(np.abs(data.s.samples[keep] - s.samples[keep])))
    consistency = np.abs(np.abs(a) ** 2 + rho ** 2 - 1.0)
    if np.max(consistency) > 1e-4:
        warnings.append(
            f"coefficient/rho consistency gap {np.max(consistency):.3e} exceeds 1e-4")
    regular = residual <= residual_tol
    return RecoveryReport(
        a=a, rho=rho, a_minus1=complex(lam), residual=residual,
        consistency=consistency, sigma_max=shifts.sigma, regular=regular,
        a_minus1_std=a_minus1_std, warnings=warnings,
    )


# ---------------------------------------------------------------------------
# GLM transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlmMatrix:
    """Lower-triangular change of basis, columns from normalized kernels."""

    order: int
    mat: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.mat.setflags(write=False)

    @property
    def diag(self):
        return np.diag(self.mat)


def _as_scattering(source, grid=None):
    if isinstance(source, ScatteringData):
        return source
    if isinstance(source, VerblunskySeq):
        return forward_scatter(source, grid)
    raise TypeError(f"expected VerblunskySeq or ScatteringData, got {type(source)!r}")


def glm_matrix(source, m, M, grid=None, check_regular=True):
    """Columns of the GLM transform in the alternating monomial basis.

    Column n comes from the n-shift of the master, with A_n = I - W_n* W_n:
    rows n, n+2, ... hold u = A_n^{-1} e0 (even n) or v = e0 - W_n q
    (odd n), rows n+1, n+3, ... hold -W_n u or q = -A_n^{-1} conj(W[0, n:]),
    one more CG solve; odd columns carry the -a_{-1} phase.  The diagonal
    is rho_0...rho_{n-1}/D(0) up to that phase.
    """
    data = _as_scattering(source, grid)
    if check_regular:
        rep = regularity_test(s=data.s, d0=data.d0, M=M)
        if not rep.regular:
            raise RegularityError(f"GLM transform needs the regular regime: {rep.reason}")
    shifts = _Shifts(data.s, M, m)
    out = np.zeros((m, m), dtype=np.complex128)
    for n in range(m):
        if n % 2 == 0:
            first = shifts.solve(n)
            second = -shifts.apply(n, first)
            scale = 1.0 / np.sqrt(first[0].real)
        else:
            second = -shifts.solve(n, np.conj(shifts.neg[n: shifts.cols]))
            first = -shifts.apply(n, second)
            first[0] += 1.0
            scale = -data.a_minus1 / np.sqrt(first[0].real)
        out[n::2, n] = scale * first[: (m - n + 1) // 2]
        out[n + 1::2, n] = scale * second[: (m - n) // 2]
    return GlmMatrix(m, out)


def glm_factorization_residual(source, m, M, grid=None, glm=None):
    """Relative Frobenius gap between the reordered block-inverse and GLM * GLM^*.

    The reference side is a dense inverse of the square order-M block
    operator, independent of the CG solves; pass `glm` to reuse a GLM
    matrix already built from the same source.
    """
    data = _as_scattering(source, grid)
    if glm is None:
        glm = glm_matrix(data, m, M)
    h = hankel_from_symbol(data.s, M).mat
    binv = np.linalg.inv(np.block([[np.eye(M), h.conj().T], [h, np.eye(M)]]))
    idx = np.array([r // 2 if r % 2 == 0 else M + r // 2 for r in range(m)])
    lhs = binv[np.ix_(idx, idx)]
    rhs = glm.mat @ glm.mat.conj().T
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def l_matrix(source, m, M, grid=None):
    """Leading m x m block of L = R^{-*}, with A = I - W*W = R R*, R upper
    triangular, and so A^{-1} = L L^*; L^n_n = sqrt(<A_n^{-1} 1, 1>).

    The trailing block of R^{-*} is the inverse of R's trailing block, so
    column n of L, from row n down, is u_n / sqrt(u_n[0]) and L is lower
    triangular by construction.  Accepts a sequence, ScatteringData, or a
    sampled s directly (a_{-1} is not involved).  Returns (L, residual of
    L L^* against a dense solve of A).
    """
    s = source if isinstance(source, CircleFunction) else _as_scattering(source, grid).s
    shifts = _Shifts(s, M, m)
    out = np.zeros((m, m), dtype=np.complex128)
    for n in range(m):
        u = shifts.solve(n)
        out[n:, n] = u[: m - n] / np.sqrt(u[0].real)
        out[n, n] = np.sqrt(u[0].real)
    w = shifts.neg[np.add.outer(np.arange(M), np.arange(shifts.cols))]
    a = np.eye(shifts.cols) - w.conj().T @ w
    lead = np.linalg.solve(a, np.eye(len(a))[:, :m])[:m]
    rhs = out @ out.conj().T
    residual = float(np.linalg.norm(lead - rhs) / np.linalg.norm(rhs))
    return out, residual
