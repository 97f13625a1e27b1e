from collections import Counter

import numpy as np
import pytest

from cmvscatter import CircleGrid, DiskFunction, VerblunskySeq
from cmvscatter.circle import disk_from_boundary
from cmvscatter.opuc import schur_function


@pytest.fixture(scope="session")
def grid():
    return CircleGrid(1024)


@pytest.fixture(scope="session")
def grid4096():
    return CircleGrid(4096)


@pytest.fixture(scope="session")
def seq_half():
    return VerblunskySeq(a_minus1=1.0, a=(0.5,))


@pytest.fixture(scope="session")
def corpus():
    """The named acceptance sequences plus seeded random ones, all with the
    calibration normalization a_minus1 = -1 and real coefficients."""
    named = [
        VerblunskySeq(a_minus1=-1.0, a=(0.5,)),
        VerblunskySeq(a_minus1=-1.0, a=(0.5, 1.0 / 3.0)),
        VerblunskySeq(a_minus1=-1.0, a=(0.5, 1.0 / 3.0, -0.25)),
    ]
    rng = np.random.default_rng(20260808)
    random = []
    for _ in range(10):
        m = int(rng.integers(1, 7))
        a = rng.uniform(-0.7, 0.7, m)
        random.append(VerblunskySeq(a_minus1=-1.0, a=tuple(a)))
    return named + random


def random_complex_seq(rng, m, max_mod=0.7):
    mod = rng.uniform(0.0, max_mod, m)
    phase = rng.uniform(0.0, 2.0 * np.pi, m)
    am1 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return VerblunskySeq(a_minus1=am1, a=tuple(mod * np.exp(1j * phase)))


def schur_pairs(s, M, m):
    """The first m pairs (G_n, F_n) of the GLM recurrence on the one r = 1
    solve of the square order-M operator of s."""
    from cmvscatter.hankel import hankel_from_symbol, solve_block
    from cmvscatter.inverse import _schur_pairs

    h = hankel_from_symbol(s, M)
    g = solve_block(h)
    return list(_schur_pairs(g, -np.conj(h.apply(g)), m))


def ggt_matrix(a):
    """The m x m GGT matrix of a_0..a_{m-1}: its eigenvalues are the zeros of
    the monic orthogonal polynomial of degree m, and their reflections
    1/conj(z) are the zeros of the Szego polynomial of `opuc`."""
    a = np.asarray(a, dtype=np.complex128)
    m = len(a)
    rho = np.sqrt(1.0 - np.abs(a) ** 2)
    prev = np.concatenate(([-1.0], a[:-1]))
    g = np.zeros((m, m), dtype=np.complex128)
    for k in range(m):
        for j in range(k, m):
            g[k, j] = -np.conj(a[j]) * prev[k] * np.prod(rho[k:j])
        if k + 1 < m:
            g[k + 1, k] = rho[k]
    return g


def resolved_by(grid, a):
    """True when grid's N/2 coefficients resolve 1/Phi: its coefficients decay
    like r^k, r the spectral radius of the GGT matrix, and r^(N/2) <= 1e-17."""
    if len(a) == 0:
        return True
    radius = np.max(np.abs(np.linalg.eigvals(ggt_matrix(a))))
    return radius ** (grid.size // 2) <= 1e-17


def schur_density(a, grid):
    """Reference density (1 - |tf|^2)/|1 - tf|^2 from the pointwise Schur
    recursion; it loses digits to cancellation where w is small."""
    zf = grid.nodes * schur_function(a, grid.nodes)
    return (1.0 - np.abs(zf) ** 2) / np.abs(1.0 - zf) ** 2


def phi_from_R(R, D, a_minus1, grid):
    """The spectral reference (phi, psi, phi_t, psi_t) for the AAK read-out:
    phi = conj(a_{-1}) (1 - R)/(1 + R) with phi(0) = 0, and its outer
    companion psi = D (1 + a_{-1} phi) = 2 D/(1 + R), as DiskFunctions and
    as grid samples.

    R is the Caratheodory function with R(0) = 1 and D the outer function of
    Re R, so |phi|^2 + |psi|^2 = 1 holds exactly when |D|^2 = Re R.
    """
    assert abs(R.at_zero() - 1.0) <= 1e-8
    r_t = R.boundary(grid).samples
    denom = 1.0 + r_t
    phi_t = np.conj(a_minus1) * (1.0 - r_t) / denom
    phi, _ = disk_from_boundary(phi_t, grid, kind="interior")
    assert abs(phi.at_zero()) <= 1e-10
    coef = np.array(phi.coef)
    coef[0] = 0.0
    psi_t = 2.0 * D.boundary(grid).samples / denom
    psi, _ = disk_from_boundary(psi_t, grid, kind="interior")
    return DiskFunction(coef, "interior"), psi, phi_t, psi_t


@pytest.fixture
def hankel_work(monkeypatch):
    """Counters, by operator order, of the Hankel work a command or a call
    does: the operators built, the Lanczos runs, the CG solves (an r = 1
    call answered from the operator's kept solve is not one) and the
    products W x."""
    from cmvscatter import hankel, inverse

    work = {kind: Counter() for kind in ("built", "lanczos", "cg", "apply")}
    op = hankel.HankelOp

    def counted(kind, method):
        def wrapper(self, *args, **kwargs):
            work[kind][self.order] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for kind, name in (("built", "__post_init__"), ("lanczos", "_lanczos"), ("apply", "apply")):
        monkeypatch.setattr(op, name, counted(kind, getattr(op, name)))
    solve = hankel.solve_block

    def solve_block(h, r=1.0):
        kept = h._g
        x = solve(h, r)
        work["cg"][h.order] += x is not kept
        return x

    for module in (hankel, inverse):
        monkeypatch.setattr(module, "solve_block", solve_block)
    return work
