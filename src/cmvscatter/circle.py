"""Discrete harmonic analysis on the unit circle.

Everything is sampled on the uniform grid t_j = exp(2*pi*i*j/N) with N a
power of two.  The Fourier convention is fixed project-wide as

    ghat(k) = (1/N) * sum_j g(t_j) t_j^(-k),

so coefficient arrays use the numpy.fft frequency layout (index k for
0 <= k <= N/2, index N+k for negative k).  Analytic objects on the disk
(or on its exterior) are held as one-sided coefficient lists.  Only
`outer_from_modulus_squared` builds an outer function in the log domain,
through the conjugate-function multiplier; the forward and inverse maps
read theirs off polynomials and solve vectors.

Circle functions travel as CSV rows "index,theta,re,im".  The writer
prints each float byte for byte as '%.17g' would, from digits rounded in
long double where the error bound certifies the rounding and from one '%'
call per block for the rest; where long double is plain double, every
value takes the '%' path and only the speed changes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import types
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning

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

    def __post_init__(self):
        if self.size < 16 or not _is_power_of_two(self.size):
            raise ValueError(f"grid size must be a power of two >= 16, got {self.size}")

    @functools.cached_property
    def nodes(self):
        """The nodes t_j, computed on first read and kept: a command that
        works on coefficients alone never computes them."""
        j = np.arange(self.size)
        nodes = np.exp(2j * np.pi * j / self.size)
        nodes.setflags(write=False)
        return nodes

    @property
    def thetas(self):
        return 2.0 * np.pi * np.arange(self.size) / self.size


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

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.size, value, dtype=np.complex128))


def parseval_gap(f):
    """Relative gap between sum_k |ghat(k)|^2 and the mean square of samples."""
    lhs = float(np.sum(np.abs(f.coeffs()) ** 2))
    rhs = float(np.mean(np.abs(f.samples) ** 2))
    return abs(lhs - rhs) / max(rhs, 1e-300)


def _require_real(samples, what):
    if np.max(np.abs(samples.imag)) > 1e-10:
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

    def at_zero(self):
        return complex(self.coef[0]) if len(self.coef) else 0j

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


def outer_boundary_samples(w):
    """Boundary values of the outer function of a weight, pointwise exact:
    the modulus equals sqrt of the (clamped) weight sample by sample.  Any
    clamped sample raises a ConditioningWarning."""
    grid = w.grid
    ws = _require_real(w.samples, "weight")
    if np.any(ws < 0):
        raise ValueError(f"weight must be nonnegative (min sample {ws.min():.3e})")
    clamped = int(np.count_nonzero(ws < CLAMP_THRESHOLD))
    if clamped:
        warnings.warn(
            f"weight has {clamped} sample(s) below {CLAMP_THRESHOLD:g}; "
            "logs clamped, accuracy reduced near those nodes",
            ConditioningWarning,
            stacklevel=2,
        )
    logw = np.log(np.maximum(ws, np.exp(LOG_FLOOR)))
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


def outer_from_modulus_squared(w):
    """Outer function O with |O|^2 = w on the circle and O(0) > 0.

    Built in the log domain: O = exp((1/2)(log w + i * conj(log w))).
    Near-zero samples are clamped (with a ConditioningWarning); exact
    accuracy contracts then hold only away from the clamped nodes.
    """
    out, _ = disk_from_boundary(outer_boundary_samples(w), w.grid, kind="interior")
    return out


# ---------------------------------------------------------------------------
# CSV interchange: rows "index,theta,re,im", exact float round trip
# ---------------------------------------------------------------------------

#: Rows per block.  One _format_g17 call formats every column of a block,
#: 4 x CSV_BLOCK_ROWS values for `forward --weight`, and the temporaries of
#: that call set the writer's peak memory (1.6 MiB traced for s and w at
#: N = 16384, against 2.8 MiB with blocks of 2048 rows).
CSV_BLOCK_ROWS = 1024

# Values are formatted as '%.17g' in numpy.  Each value fills a 48-byte
# slot, NUL where nothing is printed, which translate(None, b"\0") drops:
#   byte 0        the sign
#   bytes 1-5     "0." and up to three zeros, for decimal exponents -1..-4
#   byte 6 + 2i   digit i of 17, and byte 7 + 2i the point if it follows
#   bytes 40-44   the exponent, "e+dd" to "e-ddd"
#   byte 45       the field's terminator, "," or "\n", set by the writer
# Tables hold the bytes at these offsets as uint64 words, so a slot is
# filled word by word from table lookups and byte order never enters.


def _words(b):
    """The uint64 words of an array of bytes whose last axis is 8k long."""
    b = np.ascontiguousarray(b, dtype=np.uint8)
    return b.view(np.uint64)


#: Powers of ten 10^p that scale a float64 to 17 digits, and the decimal
#: exponents a float64 can print.
_P_LO, _P_HI = -293, 341
_E_LO, _E_HI = -330, 330


@functools.cache
def _g17_tables():
    """The lookup tables of _format_g17, built on its first call, so a
    command that writes no CSV never builds them."""
    t = types.SimpleNamespace()
    # 10^p in long double: exact through 10^27 (5^27 < 2^64), correctly
    # rounded beyond
    t.pow10 = np.array([f"1e{p}" for p in range(_P_LO, _P_HI + 1)], dtype=np.longdouble)
    # The rounding error of y = |x| 10^p, relative to y, is at most eps/2
    # (half an ulp) when 10^p is exact and under 2 eps otherwise; the 0.1%
    # margin covers the float64 arithmetic of the certification check.  A
    # long double that is not IEEE (double-double) gets an infinite bound,
    # so every value takes the '%' fallback.
    ld = np.finfo(np.longdouble)
    eps = float(ld.eps) if ld.nmant in (52, 63, 112) else np.inf
    p = np.arange(_P_LO, _P_HI + 1)
    t.bound = np.where((p >= 0) & (p <= 27), 0.5, 2.0) * eps * 1.001

    # a 4-digit group at the even bytes of a word
    b = np.zeros((10, 10, 10, 10, 8), np.uint8)
    for place in range(4):
        b[..., 2 * place] = (np.arange(10) + 48).reshape((10,) + (1,) * (3 - place))
    t.digits4 = _words(b.reshape(-1, 8))[:, 0]

    # word 0 at 100 * (point after digit 0) + 50 * sign + 10 * zeros + digit 0
    b = np.zeros((2, 2, 5, 10, 8), np.uint8)
    b[1, ..., 7] = ord(".")
    b[:, 1, ..., 0] = ord("-")
    b[..., 1:6] = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"], dtype="S5").view(
        np.uint8).reshape(5, 1, 5)
    b[..., 6] = np.arange(10) + 48
    t.word0 = _words(b.reshape(-1, 8))[:, 0]

    # word 5 by decimal exponent: empty where '%.17g' prints fixed notation
    t.exponent = _words(np.array([b"" if -4 <= e < 17 else b"e%+03d" % e
                                  for e in range(_E_LO, _E_HI + 1)], dtype="S8").view(
        np.uint8).reshape(-1, 8))[:, 0]

    # For trailing zeros: the index among the 17 digits of the last nonzero
    # digit of 4-digit group j, at 10000 j + group, and 0 for a zero group.
    g = np.arange(10000, dtype=np.int16)
    last = (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)).astype(np.uint8)
    t.last_digit = ((np.arange(0, 16, 4, dtype=np.uint8)[:, None] + last) * (g != 0)).ravel()
    # Words 0-4 of a value whose last nonzero digit is L and whose point
    # follows digit P (-4 <= P <= 16), at 21 L + P + 4: digits past
    # max(L, P) are masked off, and the point is kept only when digits follow.
    L = np.arange(17)[:, None, None]
    P = np.arange(-4, 17)[None, :, None]
    i = np.arange(17)
    b = np.zeros((17, 21, 40), np.uint8)
    b[..., :6] = 255
    b[..., 6::2] = np.where(i <= np.maximum(L, P), 255, 0)
    t.trim_and = _words(b.reshape(-1, 40))
    b = np.zeros((17, 21, 40), np.uint8)
    b[..., 7::2] = np.where((i == P) & (P < L), ord("."), 0)
    t.trim_or = _words(b.reshape(-1, 40))
    return t


def _format_g17(x):
    """The (n, 6) uint64 slots of '%.17g' % v for every float64 v in x.

    The 17 digits are round(|x| 10^(16 - k)) for the decimal exponent k,
    scaled in long double.  A value whose rounding the long double error
    bound cannot certify, or that is not finite, takes one '%' call.
    """
    t = _g17_tables()
    n = len(x)
    out = np.empty((n, 6), dtype=np.uint64)
    ax = np.abs(x)
    zero = ax == 0
    finite = np.isfinite(x) & ~zero
    safe = np.where(finite, ax, 1.0)
    k = np.floor(np.log10(safe)).astype(np.int64)
    lx = safe.astype(np.longdouble)
    y = lx * t.pow10[16 - k - _P_LO]
    r = np.rint(y)
    d = r.astype(np.int64)
    fix = np.flatnonzero((d < 10 ** 16) | (d > 10 ** 17))  # log10 off by one
    if len(fix):
        k[fix] += np.where(d[fix] > 10 ** 17, 1, -1)
        y[fix] = lx[fix] * t.pow10[16 - k[fix] - _P_LO]
        r[fix] = np.rint(y[fix])
        d[fix] = r[fix].astype(np.int64)
    # certified: |y - exact| < bound < distance from y to the nearest half,
    # and 10^16 < d excludes the one rounding that may cross 10^16 from below
    margin = 0.5 - np.abs((y - r).astype(np.float64))
    certified = (finite & (margin > d * t.bound[16 - k - _P_LO])
                 & (d > 10 ** 16) & (d <= 10 ** 17))
    d[~certified] = 10 ** 16  # in range for the lookups; '%' rewrites these slots
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    k[zero] = 0
    d[zero] = 0
    hi = d // 100000000
    lo = d - hi * 100000000
    lead = hi // 100000000
    group = np.empty((n, 4), np.int64)
    group[:, 0] = hi // 10000 - lead * 10000
    group[:, 1] = hi % 10000
    group[:, 2] = lo // 10000
    group[:, 3] = lo % 10000
    # the point follows digit k in fixed notation (k < 0: in the "0.000"
    # prefix) and digit 0 in scientific notation
    point = np.where((k >= -4) & (k < 17), k, 0)
    out[:, 0] = t.word0[(point == 0) * 100 + np.signbit(x) * 50 + np.maximum(-point, 0) * 10 + lead]
    out[:, 1:5] = t.digits4[group]
    out[:, 5] = t.exponent[k - _E_LO]
    zeros = np.flatnonzero(zero)
    if len(zeros):
        out[zeros, 0] = t.word0[np.signbit(x[zeros]) * 50]  # "0" or "-0"
        out[zeros, 1:5] = 0
    # trailing zeros to drop (the last digit is 0), or a point past word 0
    trim = np.flatnonzero((lo % 10 == 0) & ~zero | (point > 0) & (point < 16))
    if len(trim):
        groups = group[trim] + np.array([0, 10000, 20000, 30000])
        at = t.last_digit[groups].max(axis=1).astype(np.int64) * 21 + point[trim] + 4
        out[trim, :5] = out[trim, :5] & t.trim_and[at] | t.trim_or[at]
    rest = np.flatnonzero(~certified & ~zero)
    if len(rest):
        out[rest] = _percent_slots(x[rest])
    return out


def _percent_slots(x):
    """The slots of '%.17g' % v for every v in x, from one '%' call."""
    text = ("%.17g," * len(x) % tuple(x.tolist())).encode()
    return _words(np.array(text.split(b",")[:-1], dtype="S48").view(np.uint8).reshape(-1, 48))


def _index_field(n, words):
    """The uint64 words of "j," for each row j < n, right-aligned in 8 * words bytes."""
    j = np.arange(n)
    b = np.zeros((n, 8 * words), np.uint8)
    b[:, -1] = ord(",")
    for place in range(len(str(n - 1))):
        p = 10 ** place
        b[:, -2 - place] = np.where((j >= p) | (place == 0), j // p % 10 + 48, 0)
    return _words(b)


def write_circle_csv(path, f, config=None):
    """Write the CircleFunctions `f`, all on one grid, one to each path in
    `path`; `config` (a dict) is embedded as a comment.  Values are printed
    at 17 significant digits, which round-trips every float64 exactly, and
    the files share the formatting of their index,theta columns.

    The bytes are those of '%.17g' % x.  Each block of rows is laid out in
    numpy, with one _format_g17 call on the block's theta column and every
    file's re and im columns together: the 17 digits come from scaling |x|
    by a power of ten in long double, and the rounding is used only where
    the long double error bound certifies it.  Other values (about 0.44% of
    those formatted for the forward benchmark's outputs, and every
    non-finite one) take one '%' call per block, and on a platform whose long double is plain
    double every value does: the output stays exact, only slower.  A column
    of +0.0 only, with no sign bit (the imaginary part of a real function),
    is not formatted; it prints the constant "0".
    """
    grid = f[0].grid
    if len(path) != len(f) or any(g.grid.size != grid.size for g in f):
        raise ValueError("write_circle_csv needs one path per function, all on one grid")
    n = grid.size
    head = "index,theta,re,im\n"
    if config:
        head = config_comment(config) + "\n" + head
    iw = len(str(n - 1)) // 8 + 1  # words of the "index," field
    # a row of NUL but for the terminators of the theta, re and im slots
    ends = np.frombuffer(bytes(8 * iw) + b"".join(bytes(45) + end + bytes(2)
                                                  for end in (b",", b",", b"\n")), dtype=np.uint64)
    # theta, then re and im of each file; None marks a column of +0.0 only
    cols = [grid.thetas]
    for g in f:
        cols += [c if c.view(np.uint64).any() else None for c in (g.samples.real, g.samples.imag)]
    zero_slot = np.array([_g17_tables().word0[0], 0, 0, 0, 0, 0], dtype=np.uint64)
    index = _index_field(n, iw)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", newline="\n")) for p in path]
        for fh in files:
            fh.write(head)
            fh.flush()  # the rows go straight to the binary buffer below
        for start in range(0, n, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, n)
            formatted = iter(_format_g17(np.concatenate(
                [c[start:stop] for c in cols if c is not None])).reshape(-1, stop - start, 6))
            slots = [zero_slot if c is None else next(formatted) for c in cols]
            buf = bytearray(8 * (iw + 18) * (stop - start))
            rows = np.frombuffer(buf, dtype=np.uint64).reshape(stop - start, iw + 18)
            rows[:, :iw] = index[start:stop]
            rows[:, iw: iw + 6] = slots[0]
            for fh, re, im in zip(files, slots[1::2], slots[2::2]):
                rows[:, iw + 6: iw + 12] = re
                rows[:, iw + 12:] = im
                rows |= ends
                fh.buffer.write(buf.translate(None, b"\0"))


def config_comment(config):
    """The '# config:' line that read_circle_csv parses back: key=value
    pairs in sorted key order."""
    return "# config: " + ",".join(f"{k}={config[k]}" for k in sorted(config))


def read_circle_csv(path):
    """Read a CircleFunction written by write_circle_csv.

    The header block ('#' lines, blank lines and the "index,theta,re,im"
    line) comes before the rows; after it, '#' comments and blank lines
    are skipped and any other line is a row.  The rows stream from the open
    file into one np.loadtxt call, so no list of row strings is built.

    Returns (function, config dict); unknown grid sizes, rows without
    exactly four numeric fields, an index column that does not list 0..N-1
    exactly once, thetas off their grid nodes by more than 1e-12 and
    non-finite samples raise ValueError.
    """
    config = {}
    four_fields = "CSV rows must have the four fields index,theta,re,im"
    with open(path) as fh:
        for line in map(str.strip, fh):
            if line.startswith("# config:"):
                for item in line[len("# config:"):].split(","):
                    if "=" in item:
                        k, v = item.split("=", 1)
                        config[k.strip()] = v.strip()
            elif line and not line.startswith(("#", "index,")):
                break
        else:
            raise ValueError("CSV has 0 rows; expected a power of two >= 16")
        # np.loadtxt skips empty lines but reads one of spaces as a row
        rows = itertools.chain([line], (row for row in fh if not row.isspace()))
        try:
            vals = np.loadtxt(rows, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            # a second pass, on the error path only, tells the two causes apart
            fh.seek(0)
            fields = (row.split("#", 1)[0] for row in fh)
            if any(row.count(",") != 3 for row in fields if row.strip()):
                raise ValueError(four_fields) from exc
            raise ValueError(f"CSV field is not a number: {exc}") from exc
    n = len(vals)
    if not _is_power_of_two(n) or n < 16:
        raise ValueError(f"CSV has {n} rows; expected a power of two >= 16")
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
    # part by part: re + 1j * im would turn a -0.0 part into +0.0
    samples.real[idx] = vals[:, 2]
    samples.imag[idx] = vals[:, 3]
    return CircleFunction(grid, samples), config
