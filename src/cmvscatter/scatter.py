"""Forward scattering: outer functions, the scattering function,
reproducing kernels, and the polynomial-basis asymptotics.

For a finitely supported sequence the forward map is rational: with the
Szego polynomial Phi of `opuc.szego_boundary` and c = prod(1 - |a_k|^2),
w = c/|Phi|^2, D = sqrt(c)/Phi and s = -a_{-1} D/conj(D) =
-a_{-1} conj(Phi)/Phi, all read off the same values Phi(t_j).  Nothing is
clamped; nodes with w below CLAMP_THRESHOLD are still reported so sup-norm
checks can exclude the window of CLAMP_HALO nodes on either side of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import CLAMP_THRESHOLD, CircleFunction, DiskFunction, disk_from_boundary
from .errors import NumericalError
from .opuc import laurent_basis, szego_boundary

#: Sup-norm checks skip the nodes within this many of a clamped node.
CLAMP_HALO = 3


@dataclass
class ScatteringData:
    """Forward-map output: unimodular s, outer D, and the weight behind them.

    `tail` is the share of the spectral mass of sqrt(c)/Phi on the grid that
    D drops (disk_from_boundary's wrong-sided tail); it is not small when the
    grid does not resolve 1/Phi.
    """

    s: CircleFunction
    D: DiskFunction
    d0: float
    a_minus1: complex
    w: CircleFunction
    clamped: np.ndarray = field(repr=False)
    tail: float = 0.0

    def excluded_nodes(self):
        """Mask of the nodes within CLAMP_HALO of a clamped node, circularly."""
        bad = np.zeros(len(self.clamped), dtype=bool)
        if self.clamped.any():
            near = np.flatnonzero(self.clamped)[:, None] + np.arange(-CLAMP_HALO, CLAMP_HALO + 1)
            bad[near % len(bad)] = True
        return bad


def forward_scatter(seq, grid):
    """Verblunsky coefficients -> (w, D, s) on the grid.

    w = c/|Phi|^2 is positive, D holds the first N/2 coefficients of
    sqrt(c)/Phi with D(0) = sqrt(c) exactly, and s = -a_{-1} conj(Phi)/Phi
    is unimodular to rounding; `tail` reports the coefficients D drops.
    Raises NumericalError when Phi cannot be evaluated accurately on the grid.
    """
    c, phi_t = szego_boundary(seq.a, grid)
    w = CircleFunction(grid, c / np.abs(phi_t) ** 2)
    d0 = float(np.sqrt(c))
    D, tail = disk_from_boundary(d0 / phi_t, grid, kind="interior")
    coef = np.array(D.coef)
    coef[0] = d0
    s = CircleFunction(grid, -seq.a_minus1 * np.conj(phi_t) / phi_t)
    return ScatteringData(
        s=s, D=DiskFunction(coef, "interior"), d0=d0, a_minus1=seq.a_minus1,
        w=w, clamped=w.samples.real < CLAMP_THRESHOLD, tail=tail,
    )


# ---------------------------------------------------------------------------
# Reproducing kernels
# ---------------------------------------------------------------------------

@dataclass
class KernelPair:
    """The two point-evaluation kernels; each a (interior, exterior) pair."""

    k0: tuple
    kinf: tuple

    def verbk_ratio(self):
        """First-component ratio at the origin, conj(a_0) for the kernels of
        a sequence (AC5).  The inverse map does not read it: it takes the
        coefficients off one Hankel solve."""
        return self.kinf[0].at_zero() / self.k0[0].at_zero()


def kernels_from_spectral(R, D, a_minus1, grid):
    """Evaluation kernels assembled from boundary values of R and D.

    Interior halves reproduce F_1(0); exterior halves vanish at infinity.
    The ratio z * (kinf)_1 / (k0)_1 is the Schur function
    phi = conj(a_{-1}) (1 - R)/(1 + R).
    """
    t = grid.nodes
    r_t = R.boundary(grid).samples
    d_t = D.boundary(grid).samples
    d0 = D.at_zero().real
    if np.min(np.abs(d_t)) < 1e-150:
        raise NumericalError("outer function vanishes on the grid")
    k0_1 = (1.0 + r_t) / (2.0 * d_t * d0)
    k0_2 = a_minus1 * (1.0 - np.conj(r_t)) / (2.0 * np.conj(d_t) * d0)
    kinf_1 = np.conj(a_minus1) * (1.0 - r_t) / (2.0 * t * d_t * d0)
    kinf_2 = (1.0 + np.conj(r_t)) / (2.0 * t * np.conj(d_t) * d0)
    k0 = (
        disk_from_boundary(k0_1, grid, kind="interior")[0],
        disk_from_boundary(k0_2, grid, kind="exterior")[0],
    )
    kinf = (
        disk_from_boundary(kinf_1, grid, kind="interior")[0],
        disk_from_boundary(kinf_2, grid, kind="exterior")[0],
    )
    return KernelPair(k0=k0, kinf=kinf)


# ---------------------------------------------------------------------------
# Asymptotics of the Laurent basis
# ---------------------------------------------------------------------------

def szego_asymptotics_residual(seq, n_list, grid):
    """Grid L2 residuals of the two basis asymptotics.

    Returns [(n, even, odd)] with
      even = || t^-n conj(D) P_{2n} - 1 ||,
      odd  = || t^(n+1) D P_{2n+1} + conj(a_{-1}) ||.
    For support M both stabilize at machine level once 2n >= M + 2.
    """
    n_list = sorted(n_list)
    basis = laurent_basis(seq, 2 * max(n_list) + 1, grid)
    data = forward_scatter(seq, grid)
    d_t = data.D.boundary(grid).samples
    t = grid.nodes
    out = []
    for n in n_list:
        even = t ** (-n) * np.conj(d_t) * basis.samples[2 * n] - 1.0
        odd = t ** (n + 1) * d_t * basis.samples[2 * n + 1] + np.conj(seq.a_minus1)
        out.append((
            n,
            float(np.sqrt(np.mean(np.abs(even) ** 2))),
            float(np.sqrt(np.mean(np.abs(odd) ** 2))),
        ))
    return out
