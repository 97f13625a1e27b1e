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
(I - r^2 W*W) x = e0, and the r = 1 solve is kept, so each operator runs it
once whoever reads it.  At r = 1 that loop is the one gate of the one-to-one
regime: it refuses, with RegularityError, when 1 - ||W|| <= REGULAR_GAP,
before any step.  By Kronecker's theorem a symbol of degree p has a Hankel
operator of rank at most p, so CG stops after about p steps and the
determinant's Lanczos after about p.  aak_boundary turns the r = 1 solve
vector and its partner into the grid samples of the Schur function and its
outer companion that the inverse map reads.  regularity_test compares the
constant of one r = 1 solve with 1/D(0)^2 (AAK), at the one order M or 2M
picked by the norm of s's negative coefficients order M leaves unread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import DiskFunction
from .errors import NumericalError, RegularityError


#: The r = 1 solve is refused, with RegularityError, when 1 - sigma_max is at
#: most this: the one gate of the one-to-one regime.
REGULAR_GAP = 1e-8

#: The bound of a regular decision on |lhs D(0)^2 - 1|, and of a converged
#: one on the norm of s's negative coefficients its order leaves unread.
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
    coefficients serves the norm, every solve and every product.  The norm
    and the r = 1 solve are kept once computed."""

    order: int
    neg: np.ndarray = field(repr=False)
    cols: int = None
    _mat: np.ndarray = field(default=None, init=False, repr=False)
    _sigma: float = field(default=None, init=False, repr=False)
    _spec: np.ndarray = field(default=None, init=False, repr=False)
    _g: np.ndarray = field(default=None, init=False, repr=False)

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

    The r = 1 solution is kept on h, read-only, and returned by every later
    r = 1 call on the same operator.  The loop stops when its recurrence
    residual reaches 1e-15 or after cols steps.  A step with p*Ap <= 0
    raises NumericalError, and so does a true residual ||A x - e0||,
    recomputed with the same operator, above 1e-10 / (1 - (r sigma)^2),
    with sigma = ||H|| cached.  At r = 1 that sigma gates the one-to-one
    regime before any step: 1 - sigma <= REGULAR_GAP raises
    RegularityError.  The co-analytic solve (I - r^2 HH*)^{-1} t-bar is the
    conjugate of x, since I - r^2 HH* = conj(I - r^2 H*H) for complex
    symmetric H.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    if r == 1.0 and h._g is not None:
        return h._g
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
    if r == 1.0:
        x.setflags(write=False)
        h._g = x
    return x


def aak_boundary(g, q, grid):
    """(f, psi_H) at the grid nodes from the analytic-half solve vector g and
    its partner q = -H* conj(g) = -conj(H g) (H is complex symmetric, and
    conj(g) is the co-analytic solve vector): f = q/g is the Schur function
    with phi_H = t f, and psi_H = sqrt(g[0])/g its outer companion.
    """
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
    lhs: float          # <(I - H*H)^{-1} 1, 1> at the deciding order
    rhs: float          # 1 / D(0)^2
    sigma_max: float    # of the order-M truncation
    converged: bool     # the deciding order leaves at most REGULARITY_TOL unread
    reason: str = ""
    r_sweep: list = None
    # the HankelOps the test built, each with its norm kept: order M, then
    # order 2M when that order decided, so ops[-1] is the deciding operator
    # and keeps its r = 1 solve unless that solve was refused
    ops: tuple = field(default=(), repr=False, compare=False)


def _unread(h, order):
    """||(shat(-(order+1)), ..., shat(-(N/2-1)))||: what order `order` leaves unread."""
    return float(np.linalg.norm(h.neg[order:]))


def regularity_test(s, d0, M):
    """Decide the one-to-one regime from a sampled scattering function and a
    candidate D(0): one r = 1 solve constant must match 1/D(0)^2 within
    REGULARITY_TOL.  It solves at order 2M when order M leaves more than
    that norm of s's negative coefficients unread and the grid resolves 2M,
    else at order M.  A refused solve is reported as regular=False, with an
    r-sweep on the same operator, rather than raised.
    """
    h = hankel_from_symbol(s, M)
    sigma = h.sigma_max()
    order = 2 * M if _unread(h, M) > REGULARITY_TOL and 2 * M <= s.grid.size // 4 else M
    ops = (h,) if order == M else (h, hankel_from_symbol(s, order))
    converged = _unread(h, order) <= REGULARITY_TOL
    rhs = 1.0 / (d0 * d0)
    try:
        lhs = float(solve_block(ops[-1])[0].real)
    except RegularityError:
        sweep, exists = aak_limit_sweep(ops[-1])
        reason = (f"sigma_max = {ops[-1].sigma_max():.9g} too close to 1; r-sweep "
                  f"{'bounded' if exists else 'diverges'} at {sweep[-1]:.3g}")
        return RegularityReport(False, float("nan"), rhs, sigma, converged,
                                reason=reason, r_sweep=sweep, ops=ops)
    gap = abs(lhs * d0 * d0 - 1.0)
    regular = gap <= REGULARITY_TOL
    reason = "" if regular else f"|lhs * D(0)^2 - 1| = {gap:.3e}"
    return RegularityReport(regular, lhs, rhs, sigma, converged, reason, ops=ops)
