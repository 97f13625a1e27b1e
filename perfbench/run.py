"""cmvscatter benchmark: one client runs CLI commands in-process, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip-m256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --out BENCH_x.json

Each op is one `cmvscatter.cli.main(argv)` call on files generated from the
seed beforehand; its output is checked after the timer stops.  A run repeats
whole passes over the workload's op list until `--seconds` have elapsed.

--trace 0 prints the end-to-end metrics: set-up time (a fresh interpreter
importing `cmvscatter.cli` and running the untimed warm-up op, median of
three), ops per second, median and tail op latency and peak resident memory.
--trace 1 runs every op twice, untraced and traced, and prints per-layer
counts and self times per pass plus the tracing overhead; the spans go to
`.perfbench_out/`.  Inputs the program is known to get wrong run once per
run, untimed, and are listed as known defects.  The last stdout line is the
result JSON; the line before it, `record: {...}`, holds sizes, seed, BLAS
thread counts, versions, failures and known defects.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy loads and inherited by the set-up
# probes.  On a 2-CPU machine OpenBLAS's default of one thread per CPU ran a
# roundtrip op about 3x slower (1.4 s against 0.45 s) and with a run-to-run
# spread near 25%, because its workers compete with the interpreter thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ["roundtrip-m256", "forward-n16384", "classify-n16384"]

# A fresh interpreter: import the CLI and run one command.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from cmvscatter.cli import main; sys.exit(main(sys.argv[2:]))")


def run_op(cli, op):
    """(seconds, exit code, console output) of one CLI call.

    An exception that escapes the CLI is what a shell user sees as exit 1
    with a traceback, so it is recorded as that and the run goes on.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception:  # noqa: BLE001 - counted as a failed op
            rc = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return elapsed, rc, sink.getvalue()


def setup_seconds(op):
    """Median wall time of fresh processes that import the CLI and run `op`.

    Returns (median seconds, number of probes that exited non-zero).
    """
    times, bad = [], 0
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), *op.argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=120, check=False)
        times.append(time.perf_counter() - start)
        bad += proc.returncode != 0
    return statistics.median(times), bad


def tail_latency(lat):
    """The highest percentile with at least 10 samples beyond it (nearest rank).

    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead.  Returns (value, percentile, samples beyond).
    """
    lat = sorted(lat)
    n = len(lat)
    if n < 20:
        return lat[-1], 100.0, 0
    return lat[n - 11], 100.0 * (n - 10) / n, 10


def blas_record():
    """BLAS library names and the thread counts they report."""
    import numpy
    import scipy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": {}}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    out["threads"][f"{pkg.__name__}:{lib.name}"] = int(fn())
                    break
    return out


class Loop:
    """Tallies of one run: latencies, failures and the largest roundtrip error."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.coeff_err_max = 0.0

    def check(self, op, rc, output):
        self.attempted += 1
        ok, detail, err = op.check(rc)
        self.coeff_err_max = max(self.coeff_err_max, err)
        if not ok:
            self.failures.append(report(op, rc, output, detail))


def report(op, rc, output, detail):
    """A failed or known-defective op: its input, command, exit code and why."""
    last = output.strip().splitlines()[-1:] if rc else []
    argv = [Path(a).name if os.sep in a else a for a in op.argv]
    return {"input": op.label, "argv": argv, "exit": rc,
            "detail": "; ".join(filter(None, [detail] + last))}


def timed_passes(cli, wl, seconds, loop):
    """Returns (passes, median ms of each op of the pass)."""
    passes, start = 0, time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in wl.ops:
            elapsed, rc, output = run_op(cli, op)
            loop.latencies.append(elapsed)
            loop.check(op, rc, output)
        passes += 1
    per_op = [loop.latencies[i::len(wl.ops)] for i in range(len(wl.ops))]
    return passes, [round(1e3 * statistics.median(x), 3) for x in per_op]


def traced_passes(cli, wl, seconds, loop, tracer):
    """Each op runs untraced and traced back to back, alternating which first.

    Returns (passes, traced over untraced ops per second, op log).
    """
    passes, start = 0, time.perf_counter()
    plain = traced = 0.0
    ops_log = []
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(wl.ops):
            for with_trace in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.op = len(ops_log)
                    with tracer:
                        elapsed, rc, output = run_op(cli, op)
                    ops_log.append((tracer.op, op.argv, rc))
                    traced += elapsed
                else:
                    elapsed, rc, output = run_op(cli, op)
                    plain += elapsed
                loop.check(op, rc, output)
        passes += 1
    return passes, plain / traced, ops_log


def run_workload(args):
    if not (SRC / "cmvscatter" / "cli.py").is_file():
        print(f"error: no cmvscatter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from cmvscatter import cli

    import tracer as tracing
    import workloads

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        for op in wl.prepare:
            _, rc, output = run_op(cli, op)
            ok, detail, _ = op.check(rc)
            if not ok:
                print(f"error: preparing {op.label}: {report(op, rc, output, detail)}",
                      file=sys.stderr)
                return 1
        loop = Loop()
        setup_s = probe_failures = op_ms = None
        if not args.trace:
            setup_s, probe_failures = setup_seconds(wl.warmup)
            loop.attempted += SETUP_SAMPLES
            loop.failures += [report(wl.warmup, None, "", "set-up probe failed")] * probe_failures
        _, rc, output = run_op(cli, wl.warmup)
        loop.check(wl.warmup, rc, output)

        if args.trace:
            tracer = tracing.Tracer()
            passes, overhead, ops_log = traced_passes(cli, wl, args.seconds, loop, tracer)
            metrics = tracer.per_layer(passes, overhead, loop.coeff_err_max)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl", ops_log)
        else:
            passes, op_ms = timed_passes(cli, wl, args.seconds, loop)
            lat = loop.latencies
            tail, pct, beyond = tail_latency(lat)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
                "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }

        known = []
        for op in wl.known_defects:
            _, rc, output = run_op(cli, op)
            ok, detail, _ = op.check(rc)
            known.append({**report(op, rc, output, detail), "passes_check": ok})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(loop.failures)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **wl.sizes, "passes": passes,
        "ops_per_pass": len(wl.ops), "samples": len(loop.latencies),
        "op_ms": None if op_ms is None else dict(zip((f"{op.argv[0]} {op.label}" for op in wl.ops), op_ms)),
        "fail_ratio": failed / loop.attempted,
        "setup_samples": None if args.trace else SETUP_SAMPLES,
        "tail_percentile": None if args.trace else pct,
        "tail_samples_beyond": None if args.trace else beyond,
        "nproc": NPROC, "blas": blas_record(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "failures": loop.failures, "known_defects": known,
    }
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
              "metrics": metrics}
    _print_report(record, result)
    if args.out:
        Path(args.out).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


def _print_report(record, result):
    r = record
    print(f"workload {r['workload']}  seed {r['seed']}  N={r['N']} M={r['M']} "
          f"n_max={r['n_max']}  {r['passes']} pass(es) of {r['ops_per_pass']} ops")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_p50_ms":
            note = f"  ({r['samples']} samples)"
        elif name == "op_tail_ms":
            note = (f"  (p{r['tail_percentile']:.1f} of {r['samples']} samples, "
                    f"{r['tail_samples_beyond']} beyond)")
        elif name == "setup_s":
            note = f"  (median of {r['setup_samples']} fresh processes)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<44} {r['fail_ratio']:>14.6g} 1  "
          f"({result['failed']} of {result['attempted']} ops)")
    for f in r["failures"]:
        print(f"  FAILED: cmvscatter {f['argv'][0]} on {f['input']}: exit {f['exit']}; "
              f"{f['detail']}")
    for k in r["known_defects"]:
        state = "now passes" if k["passes_check"] else "still fails"
        print(f"  known defect ({state}): cmvscatter {k['argv'][0]} on {k['input']}: "
              f"exit {k['exit']}; {k['detail']}")


def run_all(args):
    """Every workload in its own process, so each reports its own peak memory."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-2]))
        results[name] = {"record": json.loads(lines[-2][len("record: "):]),
                         "result": json.loads(lines[-1])}
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({name: r["result"] for name, r in results.items()}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write record and result JSON here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
