"""Discrete harmonic analysis on the unit circle.

Everything is sampled on the uniform grid t_j = exp(2*pi*i*j/N) with N a
power of two.  The Fourier convention is fixed project-wide as

    ghat(k) = (1/N) * sum_j g(t_j) t_j^(-k),

so coefficient arrays use the numpy.fft frequency layout (index k for
0 <= k <= N/2, index N+k for negative k).  Analytic objects on the disk
(or on its exterior) are held as one-sided coefficient lists; outer
functions are built in the log domain through the conjugate-function
multiplier, never by quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning

DEFAULT_GRID_SIZE = 4096

#: Weights below this level trigger a ConditioningWarning from the outer
#: construction; their logs are clamped at LOG_FLOOR.
CLAMP_THRESHOLD = 1e-14
LOG_FLOOR = np.log(1e-300)


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid of the N-th roots of unity, counterclockwise."""

    size: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 16 or not _is_power_of_two(self.size):
            raise ValueError(f"grid size must be a power of two >= 16, got {self.size}")
        j = np.arange(self.size)
        nodes = np.exp(2j * np.pi * j / self.size)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def thetas(self):
        return 2.0 * np.pi * np.arange(self.size) / self.size


def default_grid():
    return CircleGrid(DEFAULT_GRID_SIZE)


class CircleFunction:
    """Function on the circle held as N complex samples at the grid nodes.

    Fourier coefficients are computed lazily and cached; both samples and
    coefficients are read-only, so instances are safe to share.
    """

    def __init__(self, grid, samples):
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} samples, got shape {samples.shape}")
        samples = samples.copy()
        samples.setflags(write=False)
        self.grid = grid
        self.samples = samples
        self._coeffs = None

    def coeffs(self):
        """Fourier coefficients in numpy.fft layout: ghat(k) = (1/N) sum g t^-k."""
        if self._coeffs is None:
            c = np.fft.fft(self.samples) / self.grid.size
            c.setflags(write=False)
            self._coeffs = c
        return self._coeffs

    def coeff(self, k):
        """ghat(k) for a single integer frequency k in (-N/2, N/2]."""
        n = self.grid.size
        if not -n // 2 < k <= n // 2:
            raise ValueError(f"frequency {k} outside (-{n // 2}, {n // 2}]")
        return self.coeffs()[k % n]

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.size, value, dtype=np.complex128))

    @classmethod
    def from_coeffs(cls, grid, coeffs):
        """Inverse transform; `coeffs` is in numpy.fft layout."""
        return cls(grid, np.fft.ifft(np.asarray(coeffs, dtype=np.complex128)) * grid.size)


def fourier_coeffs(f):
    """Coefficient array of a CircleFunction, numpy.fft layout."""
    return f.coeffs()


def parseval_gap(f):
    """Relative gap between sum_k |ghat(k)|^2 and the mean square of samples."""
    lhs = float(np.sum(np.abs(f.coeffs()) ** 2))
    rhs = float(np.mean(np.abs(f.samples) ** 2))
    return abs(lhs - rhs) / max(rhs, 1e-300)


def _require_real(samples, what, tol=1e-10):
    if np.max(np.abs(samples.imag)) > tol:
        raise ValueError(f"{what} must be real-valued (max imaginary part "
                         f"{np.max(np.abs(samples.imag)):.3e})")
    return samples.real


def conjugate_function(u):
    """Harmonic conjugate with multiplier -i*sign(k) and zero mean.

    u + i*conjugate(u) has only nonnegative frequencies.  The Nyquist bin is
    zeroed so the result stays real.
    """
    n = u.grid.size
    _require_real(u.samples, "conjugate_function input")
    c = np.array(u.coeffs())
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = -1j * np.sign(k)
    mult[0] = 0.0
    mult[n // 2] = 0.0
    tilde = np.fft.ifft(mult * c) * n
    return CircleFunction(u.grid, tilde.real)


def clamped_log(w_samples, warn=True):
    """Log of a nonnegative weight with near-zeros clamped.

    Returns (log values, boolean mask of clamped nodes).  Clamping is never
    silent: any clamped node raises a ConditioningWarning unless warn=False.
    """
    w = np.asarray(w_samples, dtype=float)
    mask = w < CLAMP_THRESHOLD
    if warn and mask.any():
        warnings.warn(
            f"weight has {int(mask.sum())} sample(s) below {CLAMP_THRESHOLD:g}; "
            "logs clamped, accuracy reduced near those nodes",
            ConditioningWarning,
            stacklevel=3,
        )
    return np.log(np.maximum(w, np.exp(LOG_FLOOR))), mask


class DiskFunction:
    """Analytic function on |z|<1, or on |z|>1, via one-sided coefficients.

    kind='interior':  f(z) = sum_m coef[m] z^m
    kind='exterior':  f(z) = sum_m coef[m] z^(-m);  vanishing at infinity
                      means coef[0] == 0.
    """

    def __init__(self, coef, kind="interior"):
        if kind not in ("interior", "exterior"):
            raise ValueError(f"unknown kind {kind!r}")
        coef = np.asarray(coef, dtype=np.complex128).copy()
        coef.setflags(write=False)
        self.coef = coef
        self.kind = kind

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        c = self.coef
        if self.kind == "exterior":
            z = np.where(z == 0, np.inf, z)
            z = 1.0 / z
        out = np.zeros_like(z)
        for cm in c[::-1]:
            out = out * z + cm
        return out if out.shape else complex(out)

    def at_zero(self):
        if self.kind == "exterior":
            return complex(self.coef[0]) if len(self.coef) else 0.0
        return complex(self.coef[0])

    def boundary(self, grid):
        """Boundary values on the grid as a CircleFunction."""
        n = grid.size
        if len(self.coef) > n // 2:
            raise ValueError("coefficient list longer than grid resolution allows")
        spec = np.zeros(n, dtype=np.complex128)
        if self.kind == "interior":
            spec[: len(self.coef)] = self.coef
        else:
            spec[0] = self.coef[0]
            m = np.arange(1, len(self.coef))
            spec[-m] = self.coef[1:]
        return CircleFunction(grid, np.fft.ifft(spec) * n)


def disk_from_boundary(samples, grid, kind="interior"):
    """One-sided coefficients of boundary samples known to be analytic.

    The wrong-sided spectral mass is reported back as `tail`; callers that
    need a guarantee check it against their own tolerance.
    """
    c = np.fft.fft(np.asarray(samples, dtype=np.complex128)) / grid.size
    n = grid.size
    half = n // 2
    if kind == "interior":
        keep = c[:half]
        wrong = np.sum(np.abs(c[half:]) ** 2)
    else:
        keep = np.concatenate(([c[0]], c[-1: -half: -1]))
        wrong = np.sum(np.abs(c[1:half]) ** 2)
    total = np.sum(np.abs(c) ** 2)
    tail = float(np.sqrt(wrong / max(total, 1e-300)))
    return DiskFunction(keep, kind), tail


def outer_boundary_samples(w, grid=None, warn=True):
    """Boundary values of the outer function of a weight, pointwise exact:
    the modulus equals sqrt of the (clamped) weight sample by sample."""
    grid = grid or w.grid
    ws = _require_real(w.samples, "weight")
    if np.any(ws < 0):
        raise ValueError(f"weight must be nonnegative (min sample {ws.min():.3e})")
    logw, _ = clamped_log(ws, warn=warn)
    c = np.fft.fft(logw) / grid.size
    half = grid.size // 2
    # (1/2)(log w + i conj(log w)) has coefficients c0/2 at k=0 and c_k for
    # k >= 1; splitting the (real) Nyquist bin the same way as k=0 keeps the
    # reconstructed modulus pointwise equal to sqrt(w) even when clamping
    # spreads the log's spectrum across every bin.
    spec = np.zeros(grid.size, dtype=np.complex128)
    spec[0] = c[0].real / 2.0
    spec[1:half] = c[1:half]
    spec[half] = c[half].real / 2.0
    log_outer = np.fft.ifft(spec) * grid.size
    return np.exp(log_outer)


def outer_from_modulus_squared(w, grid=None):
    """Outer function O with |O|^2 = w on the circle and O(0) > 0.

    Built in the log domain: O = exp((1/2)(log w + i * conj(log w))).
    Near-zero samples are clamped (with a ConditioningWarning); exact
    accuracy contracts then hold only away from the clamped nodes.
    """
    grid = grid or w.grid
    boundary = outer_boundary_samples(w, grid)
    out, _ = disk_from_boundary(boundary, grid, kind="interior")
    return out


def herglotz_from_density(w, grid=None):
    """Herglotz transform R of a nonnegative density: R(0) = what(0) and
    Re R(rt) -> w(t) as r -> 1."""
    grid = grid or w.grid
    ws = _require_real(w.samples, "density")
    if np.any(ws < -1e-12):
        raise ValueError(f"density must be nonnegative (min sample {ws.min():.3e})")
    c = np.fft.fft(np.maximum(ws, 0.0)) / grid.size
    half = grid.size // 2
    coef = np.empty(half, dtype=np.complex128)
    coef[0] = c[0].real
    coef[1:] = 2.0 * c[1:half]
    return DiskFunction(coef, "interior")


# ---------------------------------------------------------------------------
# CSV interchange: rows "index,theta,re,im", exact float round trip
# ---------------------------------------------------------------------------

#: Rows formatted per `%` call; bounds the size of each string written.
CSV_BLOCK_ROWS = 4096
_CSV_ROW = "%d,%.17g,%.17g,%.17g\n"


def write_circle_csv(path, f, config=None):
    """Write a CircleFunction; `config` (a dict) is embedded as a comment.

    Values are printed at 17 significant digits, which round-trips every
    float64 exactly.
    """
    n = f.grid.size
    columns = (f.grid.thetas, f.samples.real, f.samples.imag)
    with open(path, "w") as fh:
        if config:
            items = ",".join(f"{k}={config[k]}" for k in sorted(config))
            fh.write(f"# config: {items}\n")
        fh.write("index,theta,re,im\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n)
            values = [None] * (4 * (stop - start))  # row-major: index, theta, re, im
            values[0::4] = range(start, stop)
            for i, column in enumerate(columns, 1):
                values[i::4] = column[start:stop].tolist()
            fh.write(_CSV_ROW * (stop - start) % tuple(values))


def read_circle_csv(path):
    """Read a CircleFunction written by write_circle_csv.

    Returns (function, config dict); unknown grid sizes, rows without
    exactly four numeric fields, an index column that does not list 0..N-1
    exactly once, thetas off their grid nodes by more than 1e-12 and
    non-finite samples raise ValueError.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    config = {}
    for line in lines:
        if line.startswith("# config:"):
            for item in line[len("# config:"):].split(","):
                if "=" in item:
                    k, v = item.split("=", 1)
                    config[k.strip()] = v.strip()
    rows = [line for line in lines if line and not line.startswith(("#", "index,"))]
    n = len(rows)
    if not _is_power_of_two(n) or n < 16:
        raise ValueError(f"CSV has {n} rows; expected a power of two >= 16")
    four_fields = "CSV rows must have the four fields index,theta,re,im"
    try:
        vals = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        if any(row.count(",") != 3 for row in rows):
            raise ValueError(four_fields) from exc
        raise ValueError(f"CSV field is not a number: {exc}") from exc
    if vals.shape[1] != 4:
        raise ValueError(four_fields)
    if not np.array_equal(np.sort(vals[:, 0]), np.arange(n)):
        raise ValueError(f"CSV index column must list 0..{n - 1} exactly once")
    idx = vals[:, 0].astype(np.int64)
    grid = CircleGrid(n)
    theta_err = float(np.max(np.abs(vals[:, 1] - grid.thetas[idx])))
    if not theta_err <= 1e-12:
        raise ValueError(f"CSV theta is off its grid node by {theta_err:.3e}")
    if not np.all(np.isfinite(vals[:, 2:])):
        raise ValueError("CSV samples must be finite")
    samples = np.empty(n, dtype=np.complex128)
    samples[idx] = vals[:, 2] + 1j * vals[:, 3]
    return CircleFunction(grid, samples), config
