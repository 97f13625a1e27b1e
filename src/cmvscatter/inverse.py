"""Inverse scattering: coefficients back from the scattering function.

The map reads the samples of s through one r = 1 solve on the square
order-M Hankel operator H of s (AAK): g = (I - H*H)^{-1} 1, whose r = 1
gate on the norm of H refuses data outside the one-to-one regime.  With
q = -conj(H g), f = q/g is a Schur function and phi = t f, psi = sqrt(g[0])/g
is its outer companion (hankel.aak_boundary).  By Geronimus' theorem the
Schur parameters of f are the twisted coefficients b_n = -conj(a_{-1}) a_n.
Schur's algorithm reads them off one after another, run on the coefficient
vectors of the pair (g, q) rather than on grid samples: with G_0 = g,
F_0 = q and f_n = F_n/G_n,

    b_n = F_n[0]/G_n[0],    G_{n+1} = G_n - conj(b_n) F_n,
    F_{n+1} = (F_n - b_n G_n) / t,

which is the pointwise step f_{n+1} = (f_n - b_n)/(t (1 - conj(b_n) f_n))
with numerator and denominator kept apart.  On length-M vectors the n_max + 1
steps cost O(n_max M), against O(n_max N) on the N grid samples, and
rho_n = sqrt(1 - |b_n|^2).  The unimodular a_{-1} is not visible to the
Hankel operator (it only sees negative coefficients), so it is read off the
full scattering samples by the pointwise identity

    a_{-1} = -(s conj(psi) + psi conj(phi)) / (s phi conj(psi) + psi),

realized as a least-squares mean over the grid.  So the inverse map takes no
log and clamps nothing.  One forward map of the recovered sequence then
audits the result: the spread of -s conj(D)/D, which is the constant a_{-1}
in the regular regime, and the distance to the input samples.

The GLM transform reads its columns off the same recurrence.  The Hankel
operator of t^n s is the n-th Schur step of the pair (g, q):
G_n is (I - W_n* W_n)^{-1} e0 and -F_n is (I - W_n* W_n)^{-1} conj(W[0, n:])
up to the truncation at order M, so the m columns cost O(mM) after the one
CG solve.  The GLM factorization residual checks them against a dense
reference that shares nothing with CG: the inverse of [[I, H*], [H, I]],
read from its order-M Schur complement I - H*H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, RegularityError
from .hankel import aak_boundary, hankel_from_symbol, regularity_test, solve_block
from .opuc import VerblunskySeq
from .scatter import forward_scatter


@dataclass
class RecoveryReport:
    a: np.ndarray
    rho: np.ndarray
    a_minus1: complex
    residual: float                 # sup |s_forward - s_input| off clamp windows
    sigma_max: float
    regular: bool
    a_minus1_std: float
    warnings: list = field(default_factory=list)


def _schur_pairs(g, q, m):
    """(G_n, F_n) for n < m: Schur's algorithm on the coefficient vectors of
    the pair (g, q), f_n = F_n/G_n.  Division by t drops the entry 0, which
    the step zeroes, and fills the last entry with 0."""
    for _ in range(m):
        yield g, q
        b = q[0] / g[0]
        g, q = g - np.conj(b) * q, np.append((q - b * g)[1:], 0.0)


def recover_verblunsky(s, n_max, M, residual_tol=1e-6):
    """Recover a_0..a_{n_max}, rho_n = sqrt(1 - |a_n|^2) and a_{-1} from
    samples of s, by Schur's algorithm on the coefficients of the pair
    (g, q) of one order-M solve.

    Raises RegularityError when that solve refuses r = 1 (outside the
    one-to-one regime), and NumericalError when a Schur parameter reaches
    modulus 1 - 1e-12; lesser defects are reported in the warnings list
    instead.  sigma_max is the norm of the order-M Hankel operator, and
    either error carries it too, as `sigma_max` (None when the norm itself
    failed), so a caller that reports the norm of a refused recovery runs no
    second Lanczos.  a_minus1_std and residual come from one forward map of
    the result.
    """
    if M < n_max + 64:
        raise ValueError(f"Hankel order {M} too small for n_max {n_max}; need >= {n_max + 64}")
    master = hankel_from_symbol(s, M)
    try:
        return _recover(s, master, n_max, residual_tol)
    except (RegularityError, NumericalError) as exc:
        exc.sigma_max = master._sigma
        raise


def _recover(s, master, n_max, residual_tol):
    grid = s.grid
    warnings = []
    g = solve_block(master)
    q = -np.conj(master.apply(g))
    b = np.empty(n_max + 1, dtype=np.complex128)
    for k, (big_g, big_f) in enumerate(_schur_pairs(g, q, n_max + 1)):
        b[k] = big_f[0] / big_g[0]
        if not abs(b[k]) < 1.0 - 1e-12:  # a NaN is refused too
            raise NumericalError(
                f"recovered coefficient modulus reached {abs(b[k]):.9g}; solver failed")
    rho = np.sqrt(1.0 - np.abs(b) ** 2)

    f, psi_t = aak_boundary(g, q, grid)
    phi_t = grid.nodes * f

    num = -(s.samples * np.conj(psi_t) + psi_t * np.conj(phi_t))
    den = s.samples * phi_t * np.conj(psi_t) + psi_t
    lam = np.sum(num * np.conj(den)) / max(np.sum(np.abs(den) ** 2), 1e-300)
    if abs(lam) < 1e-6:
        lam = -1.0 + 0.0j
        warnings.append("a_minus1 not identifiable from s; defaulted to -1 (non-unique data)")
    lam /= abs(lam)

    # one forward map of the recovered sequence audits both a_minus1, as the
    # constancy of -s conj(D)/D, and the samples of s
    a = -lam * b
    data = forward_scatter(VerblunskySeq(a_minus1=lam, a=tuple(a)), grid)
    keep = ~data.excluded_nodes()
    d_t = data.D.boundary(grid).samples[keep]
    a_minus1_std = float(np.std(-s.samples[keep] * np.conj(d_t) / d_t))
    if a_minus1_std > 1e-4:
        warnings.append(
            f"a_minus1 quotient not constant on the grid (std {a_minus1_std:.3e}); "
            "data behaves non-regular")
    residual = float(np.max(np.abs(data.s.samples[keep] - s.samples[keep])))
    regular = residual <= residual_tol
    return RecoveryReport(
        a=a, rho=rho, a_minus1=complex(lam), residual=residual,
        sigma_max=master.sigma_max(), regular=regular,
        a_minus1_std=a_minus1_std, warnings=warnings,
    )


# ---------------------------------------------------------------------------
# GLM transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GlmMatrix:
    """Lower-triangular change of basis, columns from normalized kernels."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mat.setflags(write=False)

    @property
    def diag(self):
        return np.diag(self.mat)


def _check_glm_order(m, M):
    # column n reads (m - n + 1) // 2 entries of G_n or F_n, which have M
    if M < (m + 1) // 2:
        raise ValueError(f"a GLM block of order {m} needs Hankel order >= {(m + 1) // 2}, "
                         f"got {M}")


def glm_matrix(data, m, M, check_regular=True):
    """Columns of the GLM transform of the ScatteringData `data` in the
    alternating monomial basis, read off the square order-M operator H of
    data.s by glm_columns.

    With check_regular, H is the order-M operator of the regularity test,
    whose r = 1 solve it keeps, and a non-regular decision raises
    RegularityError; otherwise H is built here.
    Raises ValueError when M < (m + 1) // 2, too short for the block.
    """
    _check_glm_order(m, M)
    if check_regular:
        rep = regularity_test(s=data.s, d0=data.d0, M=M)
        if not rep.regular:
            raise RegularityError(f"GLM transform needs the regular regime: {rep.reason}")
        h = rep.ops[0]
    else:
        h = hankel_from_symbol(data.s, M)
    return glm_columns(h, m, data.a_minus1)


def glm_columns(h, m, a_minus1):
    """The m GLM columns of the square operator h of a scattering function
    whose a_{-1} is `a_minus1`; below order (m + 1) // 2 its vectors are
    zero-padded, which is exact when the symbol has no coefficients past h.

    The r = 1 solve of h gives g and q = -conj(H g), and column n reads the
    n-th Schur step (G_n, F_n) of that pair: rows n, n+2, ... hold G_n
    (even n) or conj(G_n) (odd n), rows n+1, n+3, ... hold conj(F_n) or
    F_n, scaled by 1/sqrt(G_n[0]).  Odd columns carry the -a_{-1} phase.
    The diagonal is rho_0...rho_{n-1}/D(0) up to that phase.
    Raises NumericalError when a G_n[0] is not positive, which a truncation
    far below the rank of the symbol's Hankel operator can give.
    """
    g = solve_block(h)
    g, q = (np.pad(v, (0, max((m + 1) // 2 - h.order, 0))) for v in (g, -np.conj(h.apply(g))))
    out = np.zeros((m, m), dtype=np.complex128)
    for n, (big_g, f) in enumerate(_schur_pairs(g, q, m)):
        if not big_g[0].real > 0.0:  # a NaN is refused too
            raise NumericalError(
                f"GLM column {n} reads G_n[0] = {big_g[0].real:.3e}: "
                f"Hankel order {h.order} is too short for this symbol")
        root = np.sqrt(big_g[0].real)
        if n % 2 == 0:
            first, second, scale = big_g, np.conj(f), 1.0 / root
        else:
            first, second, scale = np.conj(big_g), f, -a_minus1 / root
        out[n::2, n] = scale * first[: (m - n + 1) // 2]
        out[n + 1::2, n] = scale * second[: (m - n) // 2]
    return GlmMatrix(out)


def _glm_reference(h, m):
    """The GLM rows and columns of B^{-1}, B = [[I, H*], [H, I]] for a dense
    square H, read from its Schur complement A = I - H*H:

        B^{-1} = [[A^{-1}, -A^{-1} H*], [-H A^{-1}, I + H A^{-1} H*]].

    GLM index 2k is index k of the top half and 2k + 1 index k of the bottom
    one, so one solve of A against the first (m+1)//2 unit columns and the
    first m//2 columns of H* gives every entry read.
    """
    M, even, odd = len(h), (m + 1) // 2, m // 2
    hs = h.conj().T
    sol = np.linalg.solve(np.eye(M) - hs @ h, np.hstack((np.eye(M, even), hs[:, :odd])))
    ainv, ainv_hs = sol[:, :even], sol[:, even:]
    ref = np.empty((m, m), dtype=np.complex128)
    ref[0::2, 0::2] = ainv[:even]
    ref[0::2, 1::2] = -ainv_hs[:even]
    ref[1::2, 0::2] = -(h[:odd] @ ainv)
    ref[1::2, 1::2] = np.eye(odd) + h[:odd] @ ainv_hs
    return ref


def glm_factorization_residual(data, m, M, glm=None):
    """Relative Frobenius gap between the reordered block-inverse and GLM * GLM^*.

    The reference side is a dense order-M solve (_glm_reference),
    independent of the CG solves; pass `glm` to reuse a GLM matrix already
    built from the same ScatteringData.
    """
    _check_glm_order(m, M)
    if glm is None:
        glm = glm_matrix(data, m, M)
    lhs = _glm_reference(hankel_from_symbol(data.s, M).mat, m)
    rhs = glm.mat @ glm.mat.conj().T
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
