"""Command-line surface.

Exit codes form the scripting contract: 0 success, 2 invalid input,
3 numerical failure, 4 non-regular data (the non-uniqueness regime).
All outputs embed the run configuration, and identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .circle import (CircleFunction, CircleGrid, config_comment, read_circle_csv,
                     write_circle_csv)
from .classify import classify, jacobi_verblunsky, widom_det
from .errors import NumericalError, RegularityError
from .hankel import regularity_test
from .inverse import glm_factorization_residual, glm_matrix, recover_verblunsky
from .opuc import VerblunskySeq
from .scatter import forward_scatter

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NONREGULAR = 4


def _pair(value, name):
    """The complex number of the [re, im] pair `value` of the input JSON."""
    # exact types: bool is an int subclass, and true, "1" and null are not numbers
    if (type(value) is list and len(value) == 2
            and type(value[0]) in (int, float) and type(value[1]) in (int, float)):
        return complex(value[0], value[1])
    raise TypeError(f"{name} must be an [re, im] pair of numbers, got {json.dumps(value)}")


def _load_seq(path):
    """The sequence of the input JSON {"a_minus1": [re, im], "a": [[re, im], ...]}."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        a_minus1, a = _pair(obj["a_minus1"], "a_minus1"), obj["a"]
        if type(a) is not list:
            raise TypeError(f"a must be a list of [re, im] pairs, got {json.dumps(a)}")
        # one shared name: formatting "a[k]" for each entry doubled the
        # parse time of a 2000-entry sequence
        a = tuple(_pair(x, "an entry of a") for x in a)
    except (OSError, KeyError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read Verblunsky JSON from {path}: {exc}") from exc
    return VerblunskySeq(a_minus1=a_minus1, a=a)


def _load_scattering_csv(args):
    """The scattering function in the CSV of --input.  Its row count is the
    grid the run uses, so that becomes the run's grid."""
    s, _ = read_circle_csv(args.input)
    if np.max(np.abs(np.abs(s.samples) - 1.0)) > 1e-6:
        raise ValueError(f"{args.input} is not unimodular; not a scattering function")
    args.grid = s.grid.size
    return s


def _config(args):
    """The run configuration every output embeds: the command, its input
    and the grid, plus whichever of trunc, order and radius it takes."""
    cfg = {"command": args.command, "grid": args.grid}
    for key in ("input", "trunc", "order", "radius"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _out_prefix(args):
    if args.out:
        return Path(args.out)
    if getattr(args, "input", None):
        return Path(Path(args.input).stem)
    return Path(args.command.replace("-", "_"))  # demo-nonunique takes no --input


def _jsonable(x):
    """The JSON form of what json cannot write itself: a complex number is
    [re, im], an array a list and a numpy scalar its Python value."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)!r}")


def _write_json(args, suffix, fields):
    """Write `fields`, a dict or a report dataclass under its field names,
    and the run's config to the output prefix with `suffix`."""
    if dataclasses.is_dataclass(fields):
        fields = dataclasses.asdict(fields)
    with open(_out_prefix(args).with_suffix(suffix), "w") as fh:
        json.dump({**fields, "config": _config(args)}, fh, indent=2, sort_keys=True,
                  default=_jsonable)
        fh.write("\n")


def _validate(args):
    # --grid is checked where a sequence is read, by CircleGrid: an s CSV
    # brings its own grid
    trunc = getattr(args, "trunc", None)
    order = getattr(args, "order", None)
    if isinstance(trunc, int) and trunc < 1:
        raise ValueError(f"--trunc must be a positive order, got {trunc}")
    elif isinstance(trunc, list) and (not trunc or min(trunc) < 1):
        raise ValueError(f"--trunc needs one or more positive orders, got {trunc}")
    lowest = 1 if args.command == "glm" else 0  # a GLM block of order 0 is empty
    if order is not None and order < lowest:
        raise ValueError(f"--order must be at least {lowest}, got {order}")
    radius = getattr(args, "radius", None)
    if radius is not None and not 0.0 < radius <= 1.0:
        raise ValueError(f"--radius must lie in (0, 1], got {radius}")


def cmd_forward(args):
    seq = _load_seq(args.input)
    grid = CircleGrid(args.grid)
    data = forward_scatter(seq, grid)
    prefix = _out_prefix(args)
    s_path = prefix.with_suffix(".s.csv")
    paths, funcs = [s_path], [data.s]
    if args.weight:
        paths.append(prefix.with_suffix(".w.csv"))
        funcs.append(data.w)
    write_circle_csv(paths, funcs, _config(args))  # the files share their index,theta columns
    _write_json(args, ".meta.json", {
        "a_minus1": data.a_minus1,
        "D0": data.d0,
        "D_tail": data.tail,
        "clamped_nodes": int(data.clamped.sum()),
    })
    print(f"forward: wrote {s_path} (D0 = {data.d0:.12g}, "
          f"{int(data.clamped.sum())} clamped nodes)")
    return EXIT_OK


def cmd_inverse(args):
    report = recover_verblunsky(_load_scattering_csv(args), n_max=args.order, M=args.trunc)
    _write_json(args, ".recovery.json", report)
    print(f"inverse: residual {report.residual:.3e}, regular={report.regular}, "
          f"a_minus1 = {report.a_minus1:.9g}")
    if args.strict and not report.regular:
        return EXIT_NONREGULAR
    return EXIT_OK


def cmd_roundtrip(args):
    seq = _load_seq(args.input)
    grid = CircleGrid(args.grid)
    data = forward_scatter(seq, grid)
    report = recover_verblunsky(data.s, n_max=args.order, M=args.trunc)
    n = min(len(seq.a), len(report.a))
    coeff_err = float(np.max(np.abs(np.asarray(seq.a[:n]) - report.a[:n]))) if n else 0.0
    tail_err = float(np.max(np.abs(report.a[n:]))) if len(report.a) > n else 0.0
    am1_err = abs(report.a_minus1 - seq.a_minus1)
    _write_json(args, ".roundtrip.json", {
        "coefficient_error": coeff_err,
        "tail_error": tail_err,
        "a_minus1_error": am1_err,
        "recovery": dataclasses.asdict(report),
    })
    print(f"roundtrip: max coefficient error {max(coeff_err, tail_err):.3e}, "
          f"a_minus1 error {am1_err:.3e}")
    if args.strict and not report.regular:
        return EXIT_NONREGULAR
    return EXIT_OK


def cmd_widom(args):
    seq = _load_seq(args.input)
    grid = CircleGrid(args.grid)
    m_list = args.trunc
    rows = widom_det(seq, m_list, grid)
    lines = [config_comment(_config(args)), "M,det,product,gap"]
    for m, det, product, gap in rows:
        lines.append(f"{m},{det!r},{product!r},{gap!r}")
    _out_prefix(args).with_suffix(".widom.csv").write_text("\n".join(lines) + "\n")
    last = rows[-1]
    print(f"widom: at M={last[0]} det={last[1]:.9g} product={last[2]:.9g} "
          f"gap={last[3]:.3e}")
    return EXIT_OK


def cmd_classify(args):
    if str(args.input).endswith(".json"):
        seq = _load_seq(args.input)
        report = classify(seq=seq, grid=CircleGrid(args.grid), M=args.trunc, r=args.radius)
    else:
        report = classify(s=_load_scattering_csv(args), M=args.trunc, r=args.radius)
    _write_json(args, ".classify.json", report)
    print(f"classify: index={report.index} regular={report.regular} "
          f"hs={report.hs_member} gi={report.gi_member}")
    return EXIT_OK


def cmd_glm(args):
    seq = _load_seq(args.input)
    grid = CircleGrid(args.grid)
    data = forward_scatter(seq, grid)
    glm = glm_matrix(data, args.order, args.trunc)
    residual = glm_factorization_residual(data, args.order, args.trunc, glm=glm)
    _write_json(args, ".glm.json", {"factorization_residual": residual, "diagonal": glm.diag})
    print(f"glm: factorization residual {residual:.3e}")
    return EXIT_OK


def cmd_demo_nonunique(args):
    grid = CircleGrid(args.grid)
    truncs = args.trunc
    sup_diffs = {}
    away_diffs = {}
    away = np.abs(np.angle(grid.nodes)) > 0.3
    away &= np.abs(np.angle(-grid.nodes)) > 0.3
    for m in truncs:
        seq_a = jacobi_verblunsky(2.0, 0.0, m)
        seq_b = jacobi_verblunsky(0.0, 2.0, m)
        da = forward_scatter(seq_a, grid)
        db = forward_scatter(seq_b, grid)
        keep = ~(da.excluded_nodes() | db.excluded_nodes())
        diff = np.abs(da.s.samples - db.s.samples)
        sup_diffs[m] = float(np.max(diff[keep]))
        away_diffs[m] = float(np.max(diff[keep & away]))
        print(f"demo-nonunique: truncation {m}: sup |s_1 - s_2| = {sup_diffs[m]:.6g} "
              f"(away from t = +-1: {away_diffs[m]:.6g})")
    t2 = CircleFunction(grid, grid.nodes ** 2)
    rep = regularity_test(s=t2, d0=1.0 / np.sqrt(6.0), M=min(max(truncs), grid.size // 4))
    print(f"demo-nonunique: common s = t^2 regularity: lhs={rep.lhs:.6g} "
          f"rhs={rep.rhs:.6g} regular={rep.regular}")
    _write_json(args, ".demo.json", {
        "sup_differences": {str(k): v for k, v in sup_diffs.items()},
        "sup_differences_away_from_singularities": {
            str(k): v for k, v in away_diffs.items()},
        "common_s_regularity": {
            "lhs": rep.lhs, "rhs": rep.rhs, "regular": rep.regular,
            "sigma_max": rep.sigma_max,
        },
    })
    return EXIT_OK


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmvscatter",
        description="Forward and inverse scattering for CMV matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, trunc_default=None, trunc_list=False):
        # only the commands that read --trunc take it
        if needs_input:
            p.add_argument("--input", required=True, help="input file")
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--grid", type=int, default=4096, help="grid size (power of two)")
        if trunc_list:
            p.add_argument("--trunc", type=_int_list, default=trunc_default,
                           help="comma-separated truncation orders")
        elif trunc_default is not None:
            p.add_argument("--trunc", type=int, default=trunc_default,
                           help="Hankel truncation order")

    p = sub.add_parser("forward", help="Verblunsky JSON -> scattering CSV")
    common(p)
    p.add_argument("--weight", action="store_true", help="also write the density CSV")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("inverse", help="scattering CSV -> recovery JSON")
    common(p, trunc_default=256)
    p.add_argument("--order", type=int, default=12, help="highest coefficient to recover")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the data is not in the one-to-one regime")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("roundtrip", help="forward then inverse, report the gap")
    common(p, trunc_default=256)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("widom", help="determinant identity table")
    common(p, trunc_default=[64, 128, 256], trunc_list=True)
    p.set_defaults(func=cmd_widom)

    p = sub.add_parser("classify", help="class membership report")
    common(p, trunc_default=256)
    p.add_argument("--radius", type=float, default=0.95, help="winding-number radius")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("glm", help="GLM factorization residual")
    common(p, trunc_default=128)
    p.add_argument("--order", type=int, default=8, help="GLM block order")
    p.set_defaults(func=cmd_glm)

    p = sub.add_parser("demo-nonunique", help="two sequences, one scattering function")
    common(p, needs_input=False, trunc_default=[100, 400], trunc_list=True)
    p.set_defaults(func=cmd_demo_nonunique)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (ValueError, OSError, RegularityError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, RegularityError):
            return EXIT_NONREGULAR
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
