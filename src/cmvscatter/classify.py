"""Class-membership diagnostics and the determinant identity.

Divergence of the desk-scale sums is decided by the window-doubling rule:
a sum is declared divergent when doubling the coefficient window grows it
by more than 10 percent.  That is crude but honest at this scale, and the
raw windowed values are always reported next to the flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import CircleFunction, CircleGrid
from .errors import NumericalError, RegularityError
from .hankel import hankel_from_symbol, regularity_test
from .inverse import glm_columns, recover_verblunsky
from .opuc import VerblunskySeq, spectral_density
from .scatter import forward_scatter

WINDOW_GROWTH_LIMIT = 0.10

#: Below this many coefficients the tail is identically zero by type and the
#: window-doubling heuristic is meaningless noise.
MIN_WINDOW_SUPPORT = 16

#: Columns of the GLM block behind `glm_column_norm`, read off the operator
#: that decided regularity when that order is `converged`.  glm_columns
#: zero-pads an order below (GLM_COLUMNS + 1) // 2, which is exact when s
#: has no coefficients past it.
GLM_COLUMNS = 16


def _windowed_besov(f):
    """(full-window value, growth fraction when the window doubles)."""
    c = f.coeffs()
    n = len(c)
    k = np.fft.fftfreq(n, d=1.0 / n)
    term = np.abs(k) * np.abs(c) ** 2
    half = float(np.sum(term[np.abs(k) <= n // 4]))
    full = float(np.sum(term))
    growth = (full - half) / half if half > 0 else 0.0
    return full, growth


def _windowed_coeff_sum(a, weight_by_index):
    """Windowed sum over a finite coefficient list, with the doubling audit.

    Short lists (tail exactly zero by construction) are never flagged.
    """
    a = np.asarray(a)
    mags = np.abs(a) ** 2
    if weight_by_index:
        mags = np.arange(len(a)) * mags
    full = float(np.sum(mags))
    if len(a) < MIN_WINDOW_SUPPORT or full == 0.0:
        return full, 0.0
    half = float(np.sum(mags[: len(a) // 2]))
    growth = (full - half) / half if half > 0 else float("inf")
    return full, growth


def winding_index(s, r=0.95):
    """Winding number of the harmonic extension s(r t) around the origin.

    When the extension's modulus falls to 0.1 the radius is retried at
    {0.9, 0.8} and then closer to 1 (the limit defining the index; for
    smooth data the extension tends to the unimodular s itself there).
    """
    if np.max(np.abs(np.abs(s.samples) - 1.0)) > 1e-6:
        raise ValueError("winding_index expects a unimodular function")
    n = s.grid.size
    c = s.coeffs()
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    for radius in (r, 0.9, 0.8, 0.99, 0.999):
        ext = np.fft.ifft(c * radius ** k) * n
        if np.min(np.abs(ext)) > 0.1:
            ang = np.unwrap(np.angle(np.concatenate([ext, ext[:1]])))
            turns = (ang[-1] - ang[0]) / (2.0 * np.pi)
            wind = int(np.rint(turns))
            if abs(turns - wind) > 0.1:
                raise ValueError(f"winding did not close to an integer: {turns:.6f}")
            return wind
    raise ValueError("harmonic extension passes near 0 at every trial radius")


def a2_constant(w):
    """Dyadic-arc scan of <w>_I <1/w>_I; a lower bound of the true supremum.

    Arcs run over every translate at lengths N/2, N/4, ..., 8 nodes.
    """
    ws = w.samples.real
    if np.any(ws <= 0):
        raise ValueError(f"weight must be positive on the grid (min {ws.min():.3e})")
    n = w.grid.size
    cw = np.concatenate([[0.0], np.cumsum(np.tile(ws, 2))])
    cv = np.concatenate([[0.0], np.cumsum(np.tile(1.0 / ws, 2))])
    best = 0.0
    length = n // 2
    while length >= 8:
        mean_w = (cw[length:length + n] - cw[:n]) / length
        mean_v = (cv[length:length + n] - cv[:n]) / length
        best = max(best, float(np.max(mean_w * mean_v)))
        length //= 2
    return best


def widom_det(seq, m_list, grid):
    """det(I - H*H) against prod rho_n^{2(n+1)} at each truncation order.

    Returns rows (M, det, product, relative gap).  The determinant is
    HankelOp.det: Lanczos on the FFT operator, with the dense slogdet as
    its fallback.  When the truncation is not a strict contraction the
    determinant is still reported (it heads to zero); nothing raises.
    """
    data = forward_scatter(seq, grid)
    rho = seq.rho()
    product = float(np.prod(rho ** (2.0 * (np.arange(len(rho)) + 1)))) if len(rho) else 1.0
    rows = []
    for m in sorted(m_list):
        det = hankel_from_symbol(data.s, m).det()
        gap = abs(det - product) / product if product > 0 else abs(det)
        rows.append((m, det, product, gap))
    return rows


@dataclass
class ClassReport:
    szego_sum: float
    gi_sum: float
    besov: float
    index: int
    a2_constant: float
    hankel_norm: float
    regular: bool
    hs_member: bool
    gi_member: bool
    szego_divergent: bool
    gi_divergent: bool
    besov_divergent: bool
    a2_stable: bool
    diagnostics: dict = field(default_factory=dict)


def classify(seq=None, s=None, grid=None, M=256, r=0.95):
    """Populate the membership report from a sequence or from s alone.

    A sequence is sampled on `grid`, which it needs; s brings its own grid,
    and `grid` is not read then.  Inclusion flags are conjunctions by
    construction (gi implies hs implies regular); the independent
    realizations of the equivalent conditions are reported side by side
    under `diagnostics`, disagreements included.
    From s alone the probe recovers coefficients 0..min(16, M - 64).
    """
    if seq is None and s is None:
        raise ValueError("provide a sequence or a scattering function")

    if seq is not None:
        if grid is None or grid.size < 32:
            raise ValueError("classifying a sequence needs a grid of at least 32 nodes, as "
                             f"the A2 scan reads its half grid; got {grid and grid.size}")
        data = forward_scatter(seq, grid)
        s = data.s
        rep = regularity_test(s=s, d0=data.d0, M=M)
        regular, sigma = rep.regular, rep.sigma_max
        coeffs = np.asarray(seq.a)
        w_full = data.w
        a_minus1 = seq.a_minus1
    else:
        grid = s.grid
        if M < 64:
            raise ValueError(f"Hankel order {M} too small to recover a sequence from s; "
                             "need >= 64")
        n_max = min(16, M - 64)
        try:
            rec = recover_verblunsky(s, n_max, M, residual_tol=1e-4)
            regular = rec.regular
            coeffs = rec.a
            probe = VerblunskySeq(a_minus1=rec.a_minus1, a=tuple(rec.a))
            w_full = spectral_density(probe, grid)
            a_minus1 = rec.a_minus1
            sigma = rec.sigma_max  # the norm of the same order-M operator
        except (RegularityError, NumericalError) as exc:
            if exc.sigma_max is None:
                raise  # the norm itself did not converge
            regular = False
            coeffs = np.zeros(0)
            w_full = CircleFunction.constant(grid, 1.0)
            a_minus1 = -1.0
            sigma = exc.sigma_max  # the norm the refused recovery computed
    # the half grid's nodes are the even nodes of the full grid
    w_half = CircleFunction(CircleGrid(grid.size // 2), w_full.samples[::2])

    index = winding_index(s, r=r)
    besov, besov_growth = _windowed_besov(s)
    szego_sum, szego_growth = _windowed_coeff_sum(coeffs, weight_by_index=False)
    gi_sum, gi_growth = _windowed_coeff_sum(coeffs, weight_by_index=True)

    a2_full = a2_constant(w_full)
    a2_half = a2_constant(w_half)
    a2_growth = (a2_full - a2_half) / a2_half if a2_half > 0 else 0.0
    a2_stable = a2_growth <= WINDOW_GROWTH_LIMIT

    winv_full = float(np.mean(1.0 / np.maximum(w_full.samples.real, 1e-300)))
    winv_half = float(np.mean(1.0 / np.maximum(w_half.samples.real, 1e-300)))
    winv_growth = (winv_full - winv_half) / winv_half if winv_half > 0 else 0.0

    hs_cond_hankel = sigma < 1.0 - 1e-6 and winv_growth <= WINDOW_GROWTH_LIMIT
    hs_member = regular and sigma < 1.0 - 1e-6 and a2_stable

    gi_divergent = gi_growth > WINDOW_GROWTH_LIMIT
    besov_divergent = besov_growth > WINDOW_GROWTH_LIMIT
    gi_member = hs_member and not gi_divergent and not besov_divergent and index == 0

    glm_column_norm = None
    # hs_member implies a regular decision, whose operator kept its solve
    if hs_member and seq is not None and rep.converged:
        try:
            glm = glm_columns(rep.ops[-1], GLM_COLUMNS, a_minus1)
            glm_column_norm = float(np.max(np.linalg.norm(glm.mat, axis=0)))
        except NumericalError:
            glm_column_norm = None

    diagnostics = {
        "th47_a2_condition": bool(a2_stable),
        "th47_hankel_condition": bool(hs_cond_hankel),
        "th47_disagreement": bool(a2_stable != hs_cond_hankel),
        "a2_growth": float(a2_growth),
        "w_inverse_mean": winv_full,
        "w_inverse_growth": float(winv_growth),
        "besov_growth": float(besov_growth),
        "gi_growth": float(gi_growth),
        "szego_growth": float(szego_growth),
        "glm_column_norm": glm_column_norm,
        "a_minus1": complex(a_minus1),
    }
    return ClassReport(
        szego_sum=szego_sum, gi_sum=gi_sum, besov=besov, index=index,
        a2_constant=a2_full, hankel_norm=sigma, regular=regular,
        hs_member=hs_member, gi_member=gi_member,
        szego_divergent=szego_growth > WINDOW_GROWTH_LIMIT,
        gi_divergent=gi_divergent, besov_divergent=besov_divergent,
        a2_stable=a2_stable, diagnostics=diagnostics,
    )


def jacobi_verblunsky(gamma1, gamma2, support, a_minus1=-1.0):
    """Truncated coefficients of the Jacobi weight |t-1|^{2 g1} |t+1|^{2 g2}:
    a_n = -(g1 - (-1)^n g2)/(n + 1 + g1 + g2)."""
    n = np.arange(support)
    a = -(gamma1 - (-1.0) ** n * gamma2) / (n + 1.0 + gamma1 + gamma2)
    return VerblunskySeq(a_minus1=a_minus1, a=tuple(a))
