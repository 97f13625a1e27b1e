"""Truncated Hankel operators of unimodular symbols, the one solve behind
point evaluation and the inverse map, and the regularity test that decides
the one-to-one regime.

Matrix convention: H[k, j] = shat(-(k+j+1)) for the bases {t^j} of the
analytic half and {t^(-(k+1))} of the co-analytic half, so H depends only
on the negative Fourier coefficients of the symbol and is complex symmetric.
Multiplying the symbol by t^n shifts the entries by n anti-diagonals, so the
n-shifted operator is the column block W_n = W[:, n:] of one wide master W.

HankelOp is that one operator.  It takes the FFT of its coefficients once,
and every product with W or W* is an FFT correlation against it, so no
operator, Gram or factor is formed.  One Lanczos loop on W*W with full
reorthogonalization serves two readers: the norm, which is cached, and the
Widom determinant det(I - W*W) = prod(1 - theta_i) over the Ritz values.
Every solve is solve_block's one conjugate-gradient recurrence for
(I - r^2 W*W) x = e0.  At r = 1 that loop is the one gate of the one-to-one
regime: it refuses, with RegularityError, when 1 - ||W|| <= REGULAR_GAP,
before any step.  By Kronecker's theorem a symbol of degree p has a Hankel
operator of rank at most p, so CG stops after about p steps and the
determinant's Lanczos after about p.  aak_boundary turns the r = 1 solve
vector into the grid samples of the Schur function and its outer companion
that the inverse map reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import DiskFunction
from .errors import NumericalError, RegularityError


#: The r = 1 solve is refused, with RegularityError, when 1 - sigma_max is at
#: most this: the one gate of the one-to-one regime.
REGULAR_GAP = 1e-8

#: A regularity_test decision holds when |lhs D(0)^2 - 1| is at most this;
#: orders M and 2M count as converged within 10 times it.
REGULARITY_TOL = 1e-4

#: Lanczos steps sigma_max may take before it reports non-convergence.
LANCZOS_MAX_STEPS = 200

#: In HankelOp.det, a Lanczos beta_k <= LANCZOS_DET_TOL * sigma_max^2 marks
#: an invariant subspace.
LANCZOS_DET_TOL = 1e-16


def _tridiagonal(alpha, beta):
    """The Lanczos tridiagonal with diagonal alpha and off-diagonal beta[:-1]."""
    off = beta[:-1]
    return np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)


@dataclass
class HankelOp:
    """W[k, j] = neg[k + j] with `order` rows and `cols` columns, square
    unless cols is given; neg[m-1] = shat(-m).  The shifted
    operators W_n = W[:, n:] are column blocks, so one FFT of the
    coefficients serves the norm, every solve and every product."""

    order: int
    neg: np.ndarray = field(repr=False)
    cols: int = None
    _mat: np.ndarray = field(default=None, init=False, repr=False)
    _sigma: float = field(default=None, init=False, repr=False)
    _spec: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.cols = self.order if self.cols is None else self.cols
        need = self.order + self.cols - 1
        if need > len(self.neg):
            raise ValueError(f"need {need} coefficients, got {len(self.neg)}")

    @property
    def mat(self):
        if self._mat is None:
            idx = np.add.outer(np.arange(self.order), np.arange(self.cols))
            self._mat = self.neg[idx]
            self._mat.setflags(write=False)
        return self._mat

    def shifted(self, n):
        """Square order-M operator of the symbol times t^n (exact index shift)."""
        return HankelOp(self.order, self.neg[n:])

    def _corr(self, x, m):
        """(V x)[:m] for V[k, j] = c[k + j], c the coefficients W reads, by
        two FFTs of a length n >= len(c), so no index wraps while
        m + len(x) - 1 <= len(c).  W x is _corr(x, order)."""
        if self._spec is None:
            c = np.asarray(self.neg[: self.order + self.cols - 1], dtype=np.complex128)
            n = 1 << (len(c) - 1).bit_length()
            self._spec = np.fft.fft(c, n) * n
        return np.fft.ifft(self._spec * np.fft.ifft(x, len(self._spec)))[..., :m]

    def _gram(self, x):
        """W*W x, with W* z = conj(W^T conj z) and W^T of the same Hankel structure."""
        return np.conj(self._corr(np.conj(self._corr(x, self.order)), self.cols))

    def apply(self, x):
        """W x."""
        return self._corr(x, self.order)

    def _lanczos(self, steps, floor=0.0):
        """Lanczos on W*W with full reorthogonalization from a fixed seeded
        start vector.  After each step k < steps it yields (alpha, beta): the
        tridiagonal's diagonal and the residual norms beta_0..beta_k, whose
        first k entries are its off-diagonal.  The caller decides when to
        stop; every run on the same coefficients takes the same bits.

        A beta_k <= floor marks an invariant subspace.  It is recorded as 0,
        which splits the tridiagonal into blocks, and the next vector is a
        fresh seeded one orthogonal to the basis: one Krylov space holds
        each eigenvalue once, so a repeated one shows once per block.
        """
        cols = self.cols
        rng = np.random.default_rng(0)
        basis = np.empty((steps, cols), dtype=np.complex128)

        def orth(v, k):
            # q* v as conj(q conj(v)): the same bits without a conjugated copy of q
            q = basis[:k]
            for _ in range(2):
                v -= q.T @ np.conj(q @ np.conj(v))
            return v

        def fresh(k):
            re, im = rng.standard_normal((2, cols))
            v = orth(re + 1j * im, k) if k else re + 1j * im
            return v / np.linalg.norm(v)

        basis[0] = fresh(0)
        alpha = np.zeros(steps)
        beta = np.zeros(steps)
        for k in range(steps):
            w = self._gram(basis[k])
            alpha[k] = np.vdot(basis[k], w).real
            beta[k] = np.linalg.norm(orth(w, k + 1))
            yield alpha[: k + 1], beta[: k + 1]
            if k + 1 == steps:
                return
            if beta[k] > floor:
                basis[k + 1] = w / beta[k]
            else:
                beta[k] = 0.0
                basis[k + 1] = fresh(k + 1)

    def sigma_max(self):
        """||W|| by Lanczos on W*W with full reorthogonalization, cached.

        The start vector is fixed and seeded, so repeated calls return the
        same bits.  Stops when the Ritz residual beta_k |s_k| falls to 1e-15
        times the top Ritz value, or when the Krylov space fills all cols
        dimensions; reaching LANCZOS_MAX_STEPS first raises NumericalError
        rather than returning an unconverged value.
        """
        if self._sigma is not None:
            return self._sigma
        rows, cols = self.order, self.cols
        if rows == 0 or cols == 0 or not np.any(self.neg[: rows + cols - 1]):
            self._sigma = 0.0
            return self._sigma
        steps = min(cols, LANCZOS_MAX_STEPS)
        for alpha, beta in self._lanczos(steps):
            theta, s = np.linalg.eigh(_tridiagonal(alpha, beta))
            if beta[-1] * abs(s[-1, -1]) <= 1e-15 * abs(theta[-1]) or len(alpha) == cols:
                self._sigma = float(np.sqrt(max(theta[-1], 0.0)))
                return self._sigma
        raise NumericalError(
            f"Hankel norm Lanczos did not converge in {steps} steps "
            f"(Ritz residual {beta[-1] * abs(s[-1, -1]):.3e})")

    def det(self):
        """det(I - W*W), by Lanczos when W has low numerical rank.

        By Kronecker's theorem W has rank at most p for a symbol of degree
        p, so the Lanczos loop of sigma_max reaches an invariant subspace in
        about p steps, and the determinant is prod(1 - theta_i) over the
        Ritz values.  A beta_k at or below 1e-16 sigma_max^2 restarts the
        loop in a fresh block; the loop stops when a fresh block closes at
        its first step, and solves the tridiagonal once.  When that takes
        more than cols // 8 steps (a near-singular symbol or one of high
        rank), or the norm does not converge, the determinant is the dense
        slogdet of the formed Gram instead.  The cap keeps the failed
        attempt's reorthogonalization, about cols^3 / 32 multiply-adds,
        well below the cols^3 of the dense Gram.
        """
        try:
            top = self.sigma_max() ** 2
        except NumericalError:
            return self._dense_det()
        floor = LANCZOS_DET_TOL * top
        for alpha, beta in self._lanczos(max(self.cols // 8, 1), floor):
            # a fresh block closes at its first step: W*W vanishes on the
            # complement of the blocks found so far
            if beta[-1] <= floor and (len(beta) == 1 or beta[-2] == 0.0):
                return float(np.prod(1.0 - np.linalg.eigvalsh(_tridiagonal(alpha, beta))))
        return self._dense_det()

    def _dense_det(self):
        w = self.mat
        sign, logdet = np.linalg.slogdet(np.eye(self.cols) - w.conj().T @ w)
        return float(sign.real * np.exp(logdet)) if sign != 0 else 0.0


def hankel_from_symbol(s, M, max_shift=0):
    """The M x (M + max_shift) master of a circle function's negative
    coefficients; square by default.

    Requires the grid to resolve frequencies down to -(2M - 1 + max_shift).
    """
    n = s.grid.size
    avail = n // 2 - 1
    need = 2 * M - 1 + max_shift
    if need > avail:
        raise ValueError(
            f"grid of size {n} resolves {avail} negative coefficients; "
            f"order {M} with shift {max_shift} needs {need}")
    return HankelOp(M, s.coeffs()[: -avail - 1: -1], cols=M + max_shift)


def solve_block(h, r=1.0):
    """x = (I - r^2 H*H)^{-1} e0 by conjugate gradients from 0.

    The loop stops when its recurrence residual reaches 1e-15 or after cols
    steps.  A step with p*Ap <= 0 raises NumericalError, and so does a true
    residual ||A x - e0||, recomputed with the same operator, above
    1e-10 / (1 - (r sigma)^2), with sigma = ||H|| cached.  At r = 1 that
    sigma gates the one-to-one regime before any step: 1 - sigma <=
    REGULAR_GAP raises RegularityError.  The co-analytic solve
    (I - r^2 HH*)^{-1} t-bar is the conjugate of x, since
    I - r^2 HH* = conj(I - r^2 H*H) for complex symmetric H.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    sigma = h.sigma_max()
    if r == 1.0 and 1.0 - sigma <= REGULAR_GAP:
        raise RegularityError(
            f"sigma_max = {sigma:.9g}: scattering data is not in the one-to-one regime")
    b = np.zeros(h.cols, dtype=np.complex128)
    b[0] = 1.0

    def system(v):
        return v - (r * r) * h._gram(v)

    x = np.zeros_like(b)
    res = b.copy()
    p = b.copy()
    rs = np.sum(np.abs(res) ** 2)
    for _ in range(h.cols):
        if not np.sqrt(rs) > 1e-15:
            break
        ap = system(p)
        curvature = np.sum(np.conj(p) * ap).real
        if not curvature > 0.0:
            raise NumericalError(
                f"block system is not positive definite (p*Ap = {curvature:.3e})")
        alpha = rs / curvature
        x += alpha * p
        res = res - alpha * ap
        rs_next = np.sum(np.abs(res) ** 2)
        p = res + (rs_next / rs) * p
        rs = rs_next
    resid = np.linalg.norm(system(x) - b)
    if resid > 1e-10 / max(1.0 - (r * sigma) ** 2, 1e-300):
        raise NumericalError(
            f"block solve residual {resid:.3e} exceeds 1e-10 * condition estimate")
    return x


def aak_boundary(h, g, grid):
    """(f, psi_H) at the grid nodes from the analytic-half solve vector g.

    With q = -H* conj(g) = -conj(H g) (H is complex symmetric, and conj(g)
    is the co-analytic solve vector), f = q/g is the Schur function with
    phi_H = t f, and psi_H = sqrt(g[0])/g its outer companion.
    """
    q = -np.conj(h.apply(g))
    q_t, g_t = (DiskFunction(v).boundary(grid).samples for v in (q, g))
    return q_t / g_t, np.sqrt(g[0].real) / g_t


def aak_limit_sweep(h):
    """Solve constants at r = 0.9, 0.99, 0.999 when the r=1 solve is
    unavailable.

    Returns (values, exists): the limit is declared nonexistent when the
    sweep grows beyond 1e6.
    """
    values = [float(solve_block(h, r=r)[0].real) for r in (0.9, 0.99, 0.999)]
    return values, values[-1] <= 1e6


@dataclass
class RegularityReport:
    regular: bool
    lhs: float          # <(I - H*H)^{-1} 1, 1> at the larger order solved
    rhs: float          # 1 / D(0)^2
    sigma_max: float    # of the order-M truncation
    converged: bool     # truncation stability between orders M and 2M
    reason: str = ""
    r_sweep: list = None


def regularity_test(s, d0, M):
    """Decide the one-to-one regime: the solve constant must match 1/D(0)^2
    within REGULARITY_TOL.

    Takes a sampled scattering function and a candidate D(0).  An order-M
    truncation whose r = 1 solve is refused is reported as regular=False
    rather than raised.  The decision and lhs come from order 2M when the
    grid resolves it and that solve is not refused, otherwise from order M;
    the gap between the two orders sets `converged`.
    """
    def lhs_at(order):
        h = hankel_from_symbol(s, order)
        try:
            return float(solve_block(h)[0].real), h
        except RegularityError:
            return None, h

    lhs, h = lhs_at(M)
    sigma = h.sigma_max()
    rhs = 1.0 / (d0 * d0)
    if lhs is None:
        sweep, exists = aak_limit_sweep(h)
        reason = (f"sigma_max = {sigma:.9g} too close to 1; r-sweep "
                  f"{'bounded' if exists else 'diverges'} at {sweep[-1]:.3g}")
        return RegularityReport(False, float("nan"), rhs, sigma, False,
                                reason=reason, r_sweep=sweep)
    # decide on the larger order solved; the order-M value audits stability
    lhs2 = lhs_at(2 * M)[0] if 2 * M <= s.grid.size // 4 else lhs
    converged = (lhs2 is not None
                 and abs(lhs2 - lhs) <= 10 * REGULARITY_TOL * max(abs(lhs), 1.0))
    lhs = lhs if lhs2 is None else lhs2
    gap = abs(lhs * d0 * d0 - 1.0)
    regular = gap <= REGULARITY_TOL
    reason = "" if regular else f"|lhs * D(0)^2 - 1| = {gap:.3e}"
    return RegularityReport(regular, lhs, rhs, sigma, converged, reason)
