import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvscatter import (
    CircleFunction,
    CircleGrid,
    ConditioningWarning,
    conjugate_function,
    outer_from_modulus_squared,
    read_circle_csv,
    write_circle_csv,
)
from cmvscatter import circle
from cmvscatter.circle import parseval_gap


def test_grid_validation():
    with pytest.raises(ValueError):
        CircleGrid(1000)
    with pytest.raises(ValueError):
        CircleGrid(8)
    g = CircleGrid(16)
    assert np.allclose(g.nodes[4], 1j)


def test_fourier_constant(grid):
    f = CircleFunction.constant(grid, 1.0)
    c = f.coeffs()
    assert abs(c[0] - 1.0) < 1e-14
    assert np.max(np.abs(c[1:])) < 1e-14


def test_fourier_monomial(grid):
    f = CircleFunction(grid, grid.nodes ** 2)
    assert abs(f.coeffs()[2] - 1.0) < 1e-13
    assert abs(f.coeffs()[0]) < 1e-13
    assert abs(f.coeffs()[-2]) < 1e-13


def test_fourier_squared_distance(grid):
    # |1 - t|^2 = 2 - t - conj(t)
    f = CircleFunction(grid, np.abs(1.0 - grid.nodes) ** 2)
    assert abs(f.coeffs()[0] - 2.0) < 1e-13
    assert abs(f.coeffs()[1] + 1.0) < 1e-13
    assert abs(f.coeffs()[-1] + 1.0) < 1e-13
    assert abs(f.coeffs()[5]) < 1e-13


def test_fourier_roundtrip_and_real_symmetry(grid):
    rng = np.random.default_rng(1)
    samples = rng.normal(size=grid.size)
    f = CircleFunction(grid, samples)
    c = f.coeffs()
    back = np.fft.ifft(c) * grid.size
    assert np.max(np.abs(back - f.samples)) < 1e-12 * np.max(np.abs(samples))
    for k in (1, 2, 17, 100):
        assert abs(c[-k] - np.conj(c[k])) < 1e-12


def test_parseval(grid):
    rng = np.random.default_rng(2)
    f = CircleFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    assert parseval_gap(f) < 1e-12


def test_conjugate_cosine(grid):
    theta = grid.thetas
    u = CircleFunction(grid, np.cos(theta))
    tilde = conjugate_function(u)
    assert np.max(np.abs(tilde.samples.real - np.sin(theta))) < 1e-12


def test_conjugate_constant(grid):
    tilde = conjugate_function(CircleFunction.constant(grid, 1.0))
    assert np.max(np.abs(tilde.samples)) < 1e-13


def test_conjugate_log_modulus(grid):
    # u = log|1 - z/2| pairs with arg(1 - z/2), mean-zero branch
    t = grid.nodes
    u = CircleFunction(grid, np.log(np.abs(1.0 - 0.5 * t)))
    tilde = conjugate_function(u)
    assert np.max(np.abs(tilde.samples.real - np.angle(1.0 - 0.5 * t))) < 1e-12
    assert abs(tilde.coeffs()[0]) < 1e-13


def test_conjugate_rejects_complex(grid):
    with pytest.raises(ValueError):
        conjugate_function(CircleFunction(grid, grid.nodes))


def test_outer_unit_weight(grid):
    out = outer_from_modulus_squared(CircleFunction.constant(grid, 1.0))
    assert abs(out.at_zero() - 1.0) < 1e-13
    assert np.max(np.abs(out.coef[1:])) < 1e-13


def test_outer_rational_weight(grid):
    t = grid.nodes
    w = CircleFunction(grid, 0.75 / np.abs(1.0 - 0.5 * t) ** 2)
    out = outer_from_modulus_squared(w)
    closed = (np.sqrt(3.0) / 2.0) / (1.0 - 0.5 * t)
    assert np.max(np.abs(out.boundary(grid).samples - closed)) < 1e-10
    assert abs(out.at_zero() - np.sqrt(3.0) / 2.0) < 1e-12
    assert np.max(np.abs(np.abs(out.boundary(grid).samples) ** 2 - w.samples.real)) < 1e-8


def test_outer_quartic_weight_shifted_zero(grid):
    # zero of |1 - zeta t|^4 / 6 falls between nodes: all samples stay
    # positive and the closed form (1 - zeta z)^2 / sqrt6 is reproduced
    # through the near-singularity
    zeta = np.exp(1j * np.pi / grid.size)
    t = grid.nodes
    w = CircleFunction(grid, np.abs(1.0 - zeta * t) ** 4 / 6.0)
    out = outer_from_modulus_squared(w)
    target = np.array([1.0, -2.0 * zeta, zeta ** 2]) / np.sqrt(6.0)
    assert np.max(np.abs(out.coef[:3] - target)) < 5e-3
    assert np.max(np.abs(out.coef[3:10])) < 5e-3
    assert out.at_zero().real > 0


def test_outer_quartic_weight_exact_zero(grid):
    # w(1) = 0 exactly on the node: the log is clamped; the modulus identity
    # |O|^2 = w still holds pointwise, while the global normalization is
    # biased by the clamp and only a relaxed check is meaningful
    t = grid.nodes
    w = CircleFunction(grid, np.abs(1.0 - t) ** 4 / 6.0)
    with pytest.warns(ConditioningWarning):
        out = outer_from_modulus_squared(w)
    from cmvscatter.circle import outer_boundary_samples
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        boundary = outer_boundary_samples(w)
    assert np.max(np.abs(np.abs(boundary[1:]) ** 2 - w.samples.real[1:])) < 1e-10
    assert 0.1 < out.at_zero().real / (1.0 / np.sqrt(6.0)) < 1.5


def test_outer_rejects_negative(grid):
    w = np.ones(grid.size)
    w[3] = -1e-6
    with pytest.raises(ValueError):
        outer_from_modulus_squared(CircleFunction(grid, w))


def test_outer_multiplicative(grid):
    rng = np.random.default_rng(3)
    t = grid.nodes

    def weight(seed):
        r = np.random.default_rng(seed)
        vals = np.ones(grid.size)
        for k in range(1, 4):
            c = 0.2 * (r.normal() + 1j * r.normal())
            vals = vals + (c * t ** k).real * 2
        return np.exp(vals - vals.min() + 0.1)

    w1, w2 = weight(10), weight(11)
    o1 = outer_from_modulus_squared(CircleFunction(grid, w1))
    o2 = outer_from_modulus_squared(CircleFunction(grid, w2))
    o12 = outer_from_modulus_squared(CircleFunction(grid, w1 * w2))
    prod = o1.boundary(grid).samples * o2.boundary(grid).samples
    scale = np.max(np.abs(prod))
    assert np.max(np.abs(o12.boundary(grid).samples - prod)) < 1e-9 * scale


def test_csv_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(6)
    f = CircleFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    path = tmp_path / "f.csv"
    write_circle_csv([path], [f], {"grid": grid.size, "cmd": "test"})
    g, config = read_circle_csv(path)
    assert np.array_equal(g.samples, f.samples)
    assert config["grid"] == str(grid.size)
    # byte-identical on rewrite
    path2 = tmp_path / "f2.csv"
    write_circle_csv([path2], [g], {"grid": grid.size, "cmd": "test"})
    assert path.read_bytes() == path2.read_bytes()


def _reference_csv_text(f, config):
    """The per-row writer: every value through format(x, ".17g")."""
    lines = []
    if config:
        items = ",".join(f"{k}={config[k]}" for k in sorted(config))
        lines.append(f"# config: {items}")
    lines.append("index,theta,re,im")
    thetas = f.grid.thetas
    for j in range(f.grid.size):
        s = f.samples[j]
        lines.append(f"{j},{format(float(thetas[j]), '.17g')},"
                     f"{format(float(s.real), '.17g')},{format(float(s.imag), '.17g')}")
    return "\n".join(lines) + "\n"


# Scaled by an inexact 10^p, these land more than half an ulp from the exact
# product and on the wrong side of a half: only the bound of two ulps sends
# them to the '%' path.
_PERCENT_PATH = [float.fromhex(h) for h in (
    "-0x1.90f129581bc41p+354", "0x1.a1935e0c73043p-401", "-0x1.463223e91cdd1p+691",
    "-0x1.af9ffdfe4fa2dp+839", "0x1.918e476f475dfp+158", "-0x1.cb872663f7427p+839",
    "0x1.cec4bff1a5e17p-205", "0x1.4922e3d1d39ebp+711", "0x1.0ef4f8e3cc4cap-258",
    "-0x1.67b28a8e9e741p-792", "0x1.9d55b34a2b519p-916", "0x1.680864a33e894p-702")]


def _complex(re, im):
    """re + i im with the sign of every zero kept, which re + 1j * im loses."""
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def _assert_reads_back(path, f):
    g, _ = read_circle_csv(path)
    for got, want in ((g.samples.real, f.samples.real), (g.samples.imag, f.samples.imag)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("size,block,fallback", [
    pytest.param(size, block, fallback, id=f"{size}-{block}" + "-fallback" * fallback)
    for fallback in (False, True)
    for size, block in [(16, None), (64, 7), (8192, None), (8192, 7), (8192, 3000)]])
def test_csv_writer_matches_per_row_format(tmp_path, monkeypatch, size, block, fallback):
    # block None: the shipped CSV_BLOCK_ROWS, which exceeds 16 and divides 8192;
    # a complex and a real function go through one call, so each block formats
    # both files' columns at once, across block edges that 7 and 3000 leave
    # unaligned.  fallback: an infinite rounding bound sends every value,
    # 24-byte fields at the block edges included, through the '%' path.
    if block is not None:
        monkeypatch.setattr(circle, "CSV_BLOCK_ROWS", block)
    if fallback:
        tables = circle._g17_tables()
        monkeypatch.setattr(tables, "bound", np.full_like(tables.bound, np.inf))
    sent = []
    percent = circle._percent_slots
    monkeypatch.setattr(circle, "_percent_slots", lambda x: sent.append(len(x)) or percent(x))
    grid = CircleGrid(size)
    rng = np.random.default_rng(size)
    # 24-byte fields first, last and across the block edge that 7 leaves
    specials = [-2.2250738585072014e-308, -1.7976931348623157e308, -0.0, 5e-324, 1e300, 0.0,
                -5e-324, -1e300, -7.0, 1.0 / 3.0, 123456789.0, 1e16, -1e-5, 0.1] + _PERCENT_PATH[:2]
    im = rng.normal(size=size)
    im[-len(specials):] = specials[::-1]
    f = CircleFunction(grid, _complex(rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size),
                                      im))
    re = rng.normal(size=size)
    re[: len(specials)] = specials
    re[-len(specials):] = specials[::-1]
    g = CircleFunction(grid, _complex(re, np.zeros(size)))
    paths = [tmp_path / "f.csv", tmp_path / "g.csv"]
    for config in (None, {"grid": size, "command": "test"}):
        sent.clear()
        write_circle_csv(paths, [f, g], config)
        for path, h in zip(paths, (f, g)):
            assert path.read_text() == _reference_csv_text(h, config)
            _assert_reads_back(path, h)
        if fallback:  # every nonzero value of the four formatted columns
            assert sum(sent) == np.count_nonzero(np.concatenate(
                [grid.thetas, f.samples.real, f.samples.imag, g.samples.real]))
        else:
            assert sum(sent) >= 4  # at least the _PERCENT_PATH values of f and g


def test_csv_writer_keeps_signed_zeros(tmp_path, monkeypatch):
    # only a column of +0.0 with no sign bit takes the constant "0" slot
    lengths = []
    fmt = circle._format_g17
    monkeypatch.setattr(circle, "_format_g17", lambda x: lengths.append(len(x)) or fmt(x))
    n = 64
    grid = CircleGrid(n)
    re = np.random.default_rng(9).normal(size=n)
    one_neg, one_nonzero = np.zeros(n), np.zeros(n)
    one_neg[17] = -0.0
    one_nonzero[40] = 2.5e-7
    ims = [np.zeros(n), np.full(n, -0.0), one_neg, one_nonzero]
    funcs = [CircleFunction(grid, _complex(re, im)) for im in ims]
    paths = [tmp_path / f"f{k}.csv" for k in range(4)]
    write_circle_csv(paths, funcs)
    for path, h in zip(paths, funcs):
        assert path.read_text() == _reference_csv_text(h, None)
        _assert_reads_back(path, h)
    assert np.signbit(funcs[1].samples.imag).all() and np.signbit(funcs[2].samples.imag[17])
    assert paths[1].read_text().count(",-0\n") == n
    assert paths[2].read_text().count(",-0\n") == 1
    assert sum(lengths) == n * (1 + 4 + 3)  # theta, four re and three im columns


def test_csv_writer_formats_each_block_in_one_call(tmp_path, monkeypatch):
    # a complex s and a real w: theta, s.re, s.im and w.re, one call per block;
    # w.im, all +0.0, is never formatted
    lengths = []
    fmt = circle._format_g17
    monkeypatch.setattr(circle, "_format_g17", lambda x: lengths.append(len(x)) or fmt(x))
    n = 8192
    grid = CircleGrid(n)
    rng = np.random.default_rng(10)
    s = CircleFunction(grid, np.exp(1j * rng.normal(size=n)))
    w = CircleFunction(grid, rng.random(n))
    write_circle_csv([tmp_path / "s.csv", tmp_path / "w.csv"], [s, w])
    assert len(lengths) == -(-n // circle.CSV_BLOCK_ROWS)
    assert sum(lengths) == 4 * n
    assert max(lengths) == 4 * circle.CSV_BLOCK_ROWS


def test_csv_writer_peak_memory(tmp_path):
    # the blocks, not the grid size, bound what the writer holds at once
    import tracemalloc

    n = 16384
    grid = CircleGrid(n)
    rng = np.random.default_rng(11)
    s = CircleFunction(grid, np.exp(1j * rng.normal(size=n)))
    w = CircleFunction(grid, rng.random(n))
    circle._g17_tables()  # built once per process, not per write
    tracemalloc.start()
    try:
        write_circle_csv([tmp_path / "s.csv", tmp_path / "w.csv"], [s, w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def _g17_lines(x):
    """The writer's formatter applied to x, one value per line."""
    slots = circle._format_g17(np.asarray(x, dtype=np.float64)).view(np.uint8)
    slots[:, circle.SLOT_BYTES - 1] = ord("\n")
    return slots.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def _g17_corpus():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    halves = np.arange(-50, 50) + 0.5
    edges = np.array([1e16, 1e17, 2.0 ** 53, 2.0 ** 56, 9.9999999999999995e-5, 1e-4, 1e-5,
                      99999999999999992.0, 10000000000000002.0])
    integers = np.concatenate([np.arange(-1000, 1000), 10 ** np.arange(18) - 1,
                               np.random.default_rng(7).integers(0, 10 ** 17, 500)])
    values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308,
                              1.7976931348623157e308, np.inf, -np.inf, np.nan],
                             _PERCENT_PATH, tens, edges, halves, integers.astype(np.float64)])
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, -np.inf)])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("fallback", [False, True])
def test_format_g17_corpus(monkeypatch, fallback):
    # fallback: an infinite rounding bound, as on a platform whose long double
    # is plain double, sends every value through the '%' path
    if fallback:
        tables = circle._g17_tables()
        monkeypatch.setattr(tables, "bound", np.full_like(tables.bound, np.inf))
    x = _g17_corpus()
    assert _g17_lines(x) == ["%.17g" % v for v in x.tolist()]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40),
       st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
def test_format_g17_matches_format_property(floats, bits):
    x = np.concatenate([np.array(floats, dtype=np.float64),
                        np.array(bits, dtype=np.uint64).view(np.float64)])
    assert _g17_lines(x) == [format(v, ".17g") for v in x.tolist()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 52 - 1), st.integers(3, 56), st.booleans()),
                max_size=30),
       st.lists(st.tuples(st.integers(1, 99999), st.integers(0, 16), st.integers(-2, 1)),
                max_size=30))
def test_format_g17_point_inside_digits_property(tmp_path_factory, bits, scaled):
    # 10 <= |x| < 1e17: fixed notation whose point, if any, falls among the
    # digits.  Random bit patterns with binary exponents 3..56, and integers
    # with trailing zeros scaled by 10^-2..10^1, against '%.17g' and, through
    # the writer, against the per-row format.
    b = np.array(bits, dtype=np.uint64).reshape(-1, 3)
    random = ((b[:, 2] << 63) | ((b[:, 1] + 1023) << 52) | b[:, 0]).view(np.float64)
    ints = np.array([i * 10 ** (j + e + 2) / 100 for i, j, e in scaled])
    x = np.concatenate([[1200.0, 1e16, 123456789012345680.0, 10.5, -10.5, 10.0, 1e16 - 2],
                        random, ints])
    x = x[(np.abs(x) >= 10) & (np.abs(x) < 1e17) | (x == 123456789012345680.0)]
    assert _g17_lines(x) == ["%.17g" % v for v in x.tolist()]
    size = 16
    while 2 * size < len(x):
        size *= 2
    f = CircleFunction(CircleGrid(size), _complex(np.resize(x, size), np.resize(-x[::-1], size)))
    path = tmp_path_factory.getbasetemp() / "point.csv"
    write_circle_csv([path], [f])
    assert path.read_text() == _reference_csv_text(f, None)


def test_format_g17_certifies_most_values(monkeypatch):
    # the long double path, not the '%' fallback, formats the bulk of the values
    sent = []
    percent = circle._percent_slots
    monkeypatch.setattr(circle, "_percent_slots", lambda x: sent.append(len(x)) or percent(x))
    x = np.random.default_rng(3).normal(size=20000) * 10.0 ** np.arange(-8, 8).repeat(1250)
    assert _g17_lines(x) == ["%.17g" % v for v in x.tolist()]
    assert sum(sent) < 0.02 * len(x)


def test_csv_writer_shares_index_theta_between_files(tmp_path):
    grid = CircleGrid(64)
    rng = np.random.default_rng(8)
    f = CircleFunction(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
    g = CircleFunction(grid, rng.normal(size=64))
    config = {"grid": 64, "command": "test"}
    write_circle_csv([tmp_path / "f.csv", tmp_path / "g.csv"], [f, g], config)
    for name, h in (("f.csv", f), ("g.csv", g)):
        assert (tmp_path / name).read_text() == _reference_csv_text(h, config)
    coarse = CircleFunction(CircleGrid(32), np.ones(32))
    with pytest.raises(ValueError):
        write_circle_csv([tmp_path / "f.csv", tmp_path / "g.csv"], [f, coarse])
