"""Seeded inputs, op lists and output checks for the benchmark workloads.

An op is one `cmvscatter` CLI command on files written beforehand.  Its check
reads the files the command wrote and holds them to the acceptance suite's
tolerances; it runs outside the timed region.  Sequences are built here
from the seed alone, so the program under test only ever sees the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROUNDTRIP_TOL = 1e-6     # AC1: recovered a_n and a_minus1
UNIMODULAR_TOL = 1e-12   # |s| = 1 sample by sample
SZEGO_TOL = 1e-10        # D0^2 = prod(1 - |a_k|^2)
WIDOM_TOL = 1e-6         # AC2, when the support is below M
GLM_TOL = 1e-5           # AC4


@dataclass
class Op:
    argv: list
    check: Callable  # check(exit code) -> (ok, detail, coefficient error)
    label: str = ""  # the input, for reports


@dataclass
class Workload:
    name: str
    sizes: dict
    ops: list                     # one pass; the run repeats whole passes
    warmup: Op                    # untimed first op; also the set-up probe
    prepare: list = field(default_factory=list)        # must pass before timing
    known_defects: list = field(default_factory=list)  # run once, reported


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------

def ac1_corpus():
    """The acceptance corpus: three named sequences and ten seeded real ones."""
    named = [(0.5,), (0.5, 1.0 / 3.0), (0.5, 1.0 / 3.0, -0.25)]
    rng = np.random.default_rng(20260808)
    random = [tuple(rng.uniform(-0.7, 0.7, int(rng.integers(1, 7)))) for _ in range(10)]
    return [(-1.0, np.array(a, dtype=complex)) for a in named + random]


def random_complex(rng, support, max_mod=0.5, decay=0.0):
    """Random phases, |a_k| <= max_mod / (k+1)^decay, unimodular a_minus1.

    Moduli up to 0.7 now and then draw a weight with a near-zero that
    N = 4096 does not resolve (ROUNDTRIP_DEFECT is one), so timed sequences
    default to 0.5.
    """
    k = np.arange(support)
    mod = rng.uniform(0.0, max_mod, support) / (k + 1.0) ** decay
    a = mod * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, support))
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)), a


#: Drawn with |a_k| <= 0.7: roundtrip at N = 4096, M = 256 misses AC1 with
#: coefficient error 2.7e-6 (exact at N = 8192).
ROUNDTRIP_DEFECT = (
    -0.9915575596635041 + 0.1296672891447815j,
    np.array([-0.5840393988533015 + 0.23242124970907152j,
              0.003970968677638021 + 0.42536878753787022j,
              -0.1952559228951604 - 0.24750844339431299j,
              0.373378232174509 - 0.4690507206101468j,
              0.27066544649315966 + 0.56873999462213887j,
              -0.48336325586635176 + 0.44674353015626234j]))


def jacobi(gamma1, gamma2, support):
    """Truncated coefficients of the weight |t-1|^{2 g1} |t+1|^{2 g2}."""
    n = np.arange(support)
    return -1.0, (-(gamma1 - (-1.0) ** n * gamma2) / (n + 1.0 + gamma1 + gamma2)).astype(complex)


def constant(value, support):
    return -1.0, np.full(support, value, dtype=complex)


def write_seq(path, seq):
    a_minus1, a = complex(seq[0]), seq[1]
    obj = {"a_minus1": [a_minus1.real, a_minus1.imag],
           "a": [[float(x.real), float(x.imag)] for x in a]}
    Path(path).write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _exit_ok(rc):
    """(exit code is 0, detail); the report shows the exit code itself."""
    return rc == 0, ""


def check_roundtrip(prefix, seq):
    a_minus1, a = seq

    def check(rc):
        ok, detail = _exit_ok(rc)
        if not ok:
            return False, detail, 0.0
        rec = json.loads(Path(prefix + ".roundtrip.json").read_text())["recovery"]
        got = np.array([complex(*x) for x in rec["a"]])
        truth = np.zeros(len(got), dtype=complex)
        truth[: len(a)] = a
        err = float(np.max(np.abs(got - truth)))
        am1_err = abs(complex(*rec["a_minus1"]) - a_minus1)
        ok = len(got) >= len(a) and err <= ROUNDTRIP_TOL and am1_err <= ROUNDTRIP_TOL
        return ok, f"coefficient error {err:.2e}, a_minus1 error {am1_err:.2e}", err

    return check


def check_forward(prefix, seq, grid):
    a = seq[1]
    product = float(np.exp(np.sum(np.log1p(-np.abs(a) ** 2))))

    def check(rc):
        ok, detail = _exit_ok(rc)
        if not ok:
            return False, detail, 0.0
        rows = np.loadtxt(prefix + ".s.csv", delimiter=",", comments=["#", "index"])
        if rows.shape != (grid, 4) or not np.array_equal(rows[:, 0], np.arange(grid)):
            return False, f"s.csv holds {rows.shape} values, expected {grid} rows", 0.0
        unimodular = float(np.max(np.abs(np.hypot(rows[:, 2], rows[:, 3]) - 1.0)))
        d0 = json.loads(Path(prefix + ".meta.json").read_text())["D0"]
        szego = abs(d0 * d0 - product)
        ok = unimodular <= UNIMODULAR_TOL and szego <= SZEGO_TOL
        return ok, f"||s|-1| {unimodular:.1e}, |D0^2 - prod(1-|a_k|^2)| {szego:.1e}", 0.0

    return check


def check_widom(prefix, support, m_list):
    def check(rc):
        ok, detail = _exit_ok(rc)
        if not ok:
            return False, detail, 0.0
        lines = Path(prefix + ".widom.csv").read_text().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines
                if line and line[0].isdigit()]
        gaps = [gap for m, _, _, gap in rows if m > support]
        ok = [int(r[0]) for r in rows] == m_list and max(gaps) <= WIDOM_TOL
        return ok, f"widom gap {max(gaps):.1e}", 0.0

    return check


def check_glm(prefix):
    def check(rc):
        ok, detail = _exit_ok(rc)
        if not ok:
            return False, detail, 0.0
        res = json.loads(Path(prefix + ".glm.json").read_text())["factorization_residual"]
        return res <= GLM_TOL, f"glm residual {res:.1e}", 0.0

    return check


def check_classify(prefix, nonregular_pair=False):
    """gi implies hs implies regular; the AC6 pair has index 2 and is not regular."""

    def check(rc):
        ok, detail = _exit_ok(rc)
        if not ok:
            return False, detail, 0.0
        rep = json.loads(Path(prefix + ".classify.json").read_text())
        ok = (not rep["gi_member"] or rep["hs_member"]) and (not rep["hs_member"] or rep["regular"])
        if nonregular_pair:
            ok = ok and rep["index"] == 2 and not rep["regular"]
        return ok, (f"index {rep['index']} regular {rep['regular']} "
                    f"hs {rep['hs_member']} gi {rep['gi_member']}"), 0.0

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def roundtrip_m256(seed, work):
    """The AC1 corpus plus five seeded complex sequences, round-tripped."""
    n, m, n_max = 4096, 256, 12
    rng = np.random.default_rng(seed)
    seqs = ac1_corpus() + [random_complex(rng, int(rng.integers(1, 7))) for _ in range(5)]
    labels = [f"AC1 corpus #{i}" for i in range(13)] + [f"random_complex #{i}" for i in range(5)]
    ops = [_roundtrip_op(work, f"rt{i}", seq, label, n, m, n_max)
           for i, (seq, label) in enumerate(zip(seqs, labels))]
    known = [_roundtrip_op(work, "kd", ROUNDTRIP_DEFECT, "ROUNDTRIP_DEFECT", n, m, n_max)]
    return Workload("roundtrip-m256", {"N": n, "M": m, "n_max": n_max}, ops, warmup=ops[0],
                    known_defects=known)


def _roundtrip_op(work, tag, seq, label, n, m, n_max):
    src = write_seq(work / f"{tag}.json", seq)
    out = str(work / tag)
    return Op(["roundtrip", "--input", src, "--out", out, "--grid", str(n),
               "--trunc", str(m), "--order", str(n_max)], check_roundtrip(out, seq), label)


def _forward_op(work, tag, seq, n, label):
    src = write_seq(work / f"{tag}.json", seq)
    out = str(work / tag)
    return Op(["forward", "--input", src, "--out", out, "--grid", str(n), "--weight"],
              check_forward(out, seq, n), label)


def forward_n16384(seed, work):
    """Long supports through the forward map; no Hankel work.

    The known defects are inputs the forward map gets wrong at this grid
    (negative or NaN weight samples, or a D0 off the Szego product); they
    run once per run, outside the timed passes, and are reported.
    """
    n = 16384
    rng = np.random.default_rng(seed)
    seqs = [(jacobi, (0.25, 0.0, 200)), (jacobi, (2.0, 0.0, 200)), (jacobi, (0.0, 2.0, 200)),
            (jacobi, (0.25, 0.0, 2000)), (jacobi, (0.0, 0.25, 2000)),
            (constant, (-0.4, 30)), (constant, (-0.2, 50)), (constant, (-0.1, 80)),
            (constant, (0.3, 10)), (constant, (0.5, 5)), (constant, (0.5j, 10))]
    ops = [_forward_op(work, f"fw{i}", make(*params), n, f"{make.__name__}{params}")
           for i, (make, params) in enumerate(seqs)]
    ops += [_forward_op(work, f"fwr{support}", random_complex(rng, support, 0.7, 1.0), n,
                        f"random_complex(support={support}, |a_k| <= 0.7/(k+1))")
            for support in (50, 100, 200, 400)]
    defects = [(jacobi, (2.0, 0.0, 2000)), (jacobi, (0.0, 2.0, 2000)),
               (constant, (0.5, 39)), (constant, (-0.4, 100)), (constant, (0.3, 400)),
               (constant, (0.5, 20)), (constant, (0.1, 100))]
    known = [_forward_op(work, f"kd{i}", make(*params), n, f"{make.__name__}{params}")
             for i, (make, params) in enumerate(defects)]
    return Workload("forward-n16384", {"N": n, "M": None, "n_max": None}, ops,
                    warmup=ops[9], known_defects=known)


def classify_n16384(seed, work):
    """Large single Hankel solves, the non-regular path and the dense GLM inverse."""
    n = 16384
    rng = np.random.default_rng(seed)
    corpus = ac1_corpus()
    grid = ["--grid", str(n)]
    prepare, ops = [], []
    for tag, (g1, g2) in (("s20", (2.0, 0.0)), ("s02", (0.0, 2.0))):
        label = f"jacobi{(g1, g2, 400)}"
        prepare.append(_forward_op(work, tag, jacobi(g1, g2, 400), n, label))
        out = str(work / f"cl_{tag}")
        ops.append(Op(["classify", "--input", str(work / f"{tag}.s.csv"), "--out", out,
                       *grid, "--trunc", "512"], check_classify(out, nonregular_pair=True),
                      f"s of {label}"))
    # The corpus sequence runs at M = 512 so that one pass stays near 20 s on
    # one BLAS thread; the Jacobi sequence keeps the M = 1024 op, whose
    # truncation-stability check reaches M = 2048.
    pick = int(rng.integers(len(corpus)))
    for tag, seq, label, m in (
            ("cl_corpus", corpus[pick], f"AC1 corpus #{pick}", "512"),
            ("cl_jacobi", jacobi(0.25, 0.0, 2000), "jacobi(0.25, 0.0, 2000)", "1024")):
        src = write_seq(work / f"{tag}.json", seq)
        out = str(work / tag)
        ops.append(Op(["classify", "--input", src, "--out", out, *grid, "--trunc", m],
                      check_classify(out), label))
    seq = random_complex(rng, int(rng.integers(1, 7)))
    src = write_seq(work / "widom.json", seq)
    m_list = [256, 512, 1024]
    widom = Op(["widom", "--input", src, "--out", str(work / "widom"), *grid,
                "--trunc", ",".join(map(str, m_list))],
               check_widom(str(work / "widom"), len(seq[1]), m_list),
               f"random_complex(support={len(seq[1])})")
    seq = random_complex(rng, int(rng.integers(1, 7)))
    src = write_seq(work / "glm.json", seq)
    ops += [widom, Op(["glm", "--input", src, "--out", str(work / "glm"), *grid,
                       "--order", "8", "--trunc", "256"], check_glm(str(work / "glm")),
                      f"random_complex(support={len(seq[1])})")]
    return Workload("classify-n16384", {"N": n, "M": [256, 512, 1024, 2048], "n_max": 16},
                    ops, warmup=widom, prepare=prepare)


WORKLOADS = {
    "roundtrip-m256": roundtrip_m256,
    "forward-n16384": forward_n16384,
    "classify-n16384": classify_n16384,
}
