import dataclasses
import json

import numpy as np
import pytest

from cmvscatter import VerblunskySeq, read_circle_csv
from cmvscatter.cli import _jsonable, _load_seq, main


def write_seq(path, seq):
    """The input JSON of `seq`: {"a_minus1": [re, im], "a": [[re, im], ...]}."""
    obj = {"a_minus1": [seq.a_minus1.real, seq.a_minus1.imag],
           "a": [[x.real, x.imag] for x in seq.a]}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def free_json(tmp_path):
    return write_seq(tmp_path / "free.json", VerblunskySeq(a_minus1=-1.0))


@pytest.fixture
def a05_json(tmp_path):
    return write_seq(tmp_path / "a05.json", VerblunskySeq(a_minus1=1.0, a=(0.5,)))


def test_forward_free(free_json, tmp_path, capsys):
    out = tmp_path / "free"
    code = main(["forward", "--input", free_json, "--out", str(out), "--grid", "1024"])
    assert code == 0
    s, config = read_circle_csv(out.with_suffix(".s.csv"))
    assert np.max(np.abs(s.samples - 1.0)) < 1e-12
    assert config["command"] == "forward"
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert abs(meta["D0"] - 1.0) < 1e-12


def test_forward_closed_form(a05_json, tmp_path):
    out = tmp_path / "a05"
    code = main(["forward", "--input", a05_json, "--out", str(out),
                 "--grid", "4096", "--weight"])
    assert code == 0
    s, _ = read_circle_csv(out.with_suffix(".s.csv"))
    t = s.grid.nodes
    closed = -(t - 0.5) / (t * (1.0 - 0.5 * t))
    assert np.max(np.abs(s.samples - closed)) < 1e-8
    w, _ = read_circle_csv(out.with_suffix(".w.csv"))
    assert abs(np.mean(w.samples.real) - 1.0) < 1e-10


def test_forward_deterministic(a05_json, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["forward", "--input", a05_json, "--out", str(out1), "--grid", "1024"])
    main(["forward", "--input", a05_json, "--out", str(out2), "--grid", "1024"])
    assert (out1.with_suffix(".s.csv").read_bytes()
            == out2.with_suffix(".s.csv").read_bytes())


def test_forward_meta_reports_tail(a05_json, tmp_path):
    c20 = write_seq(tmp_path / "c20.json", VerblunskySeq(a_minus1=-1.0, a=(0.5,) * 20))
    for src, resolved in ((a05_json, True), (c20, False)):
        out = tmp_path / "run"
        assert main(["forward", "--input", src, "--out", str(out), "--grid", "1024"]) == 0
        tail = json.loads(out.with_suffix(".meta.json").read_text())["D_tail"]
        assert tail < 1e-12 if resolved else tail > 0.1


def test_forward_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a_minus1": [1.0, 0.0], "a": [[2.0, 0.0]]}')
    code = main(["forward", "--input", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2


def test_seq_json_read_back_exactly(tmp_path):
    seq = VerblunskySeq(a_minus1=np.exp(0.4j), a=(0.5, -0.25j, 1e-300 + 0.1j))
    back = _load_seq(write_seq(tmp_path / "c.json", seq))
    assert back.a_minus1 == seq.a_minus1
    assert back.a == seq.a


@pytest.mark.parametrize("text, cause", [
    ('{"a_minus1": [1.0, 0.0], "a": [[0.5]]}', "an entry of a must be an [re, im] pair"),
    ('{"a_minus1": [-1], "a": []}', "a_minus1 must be an [re, im] pair"),
    ('{"a_minus1": [1.0, 0.0], "a": {"k": 1}}', "a must be a list of [re, im] pairs"),
    ('{"a_minus1": [1.0, 0.0], "a": "ab"}', "a must be a list of [re, im] pairs"),
    ('{"a_minus1": [1.0, 0.0], "a": [[0.5, 0, 9]]}', "an entry of a must be an [re, im] pair"),
    ('{"a_minus1": [1.0, 0.0], "a": [[0, false]]}', "an entry of a must be an [re, im] pair"),
    # json reads an integer literal of any length, and complex() overflows on it
    ('{"a_minus1": [1.0, 0.0], "a": [[1' + "0" * 400 + ', 0]]}',
     "too large to convert to float"),
])
def test_malformed_sequence_json_is_input_error(text, cause, tmp_path, capsys):
    # each value must be a list of two JSON numbers; a bool is not one
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["forward", "--input", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read Verblunsky JSON from {bad}: ")
    assert cause in err
    assert not (tmp_path / "x.s.csv").exists()


def test_forward_missing_file(tmp_path):
    code = main(["forward", "--input", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_forward_exit_3_on_inaccurate_polynomial(tmp_path, capsys):
    # constant 1/2 with support 40: Phi's values on the gap arc are lost to
    # cancellation; a valid sequence, so a numerical failure, not bad input
    src = write_seq(tmp_path / "c40.json", VerblunskySeq(a_minus1=-1.0, a=(0.5,) * 40))
    code = main(["forward", "--input", src, "--out", str(tmp_path / "c40"),
                 "--grid", "4096"])
    assert code == 3
    assert "Szego polynomial" in capsys.readouterr().err


def test_forward_constant_half_support_20(tmp_path):
    a = (0.5,) * 20
    src = write_seq(tmp_path / "c20.json", VerblunskySeq(a_minus1=-1.0, a=a))
    out = tmp_path / "c20"
    code = main(["forward", "--input", src, "--out", str(out), "--grid", "16384"])
    assert code == 0
    d0 = json.loads(out.with_suffix(".meta.json").read_text())["D0"]
    assert abs(d0 ** 2 / 0.75 ** 20 - 1.0) < 1e-12


def test_inverse_roundtrip_via_files(a05_json, tmp_path):
    out = tmp_path / "a05"
    main(["forward", "--input", a05_json, "--out", str(out), "--grid", "4096"])
    code = main(["inverse", "--input", str(out.with_suffix(".s.csv")),
                 "--out", str(tmp_path / "rec"), "--trunc", "256", "--order", "8"])
    assert code == 0
    rec = json.loads((tmp_path / "rec.recovery.json").read_text())
    assert abs(rec["a"][0][0] - 0.5) < 1e-8
    assert rec["regular"] is True


def test_inverse_free_roundtrip(free_json, tmp_path):
    out = tmp_path / "free"
    main(["forward", "--input", free_json, "--out", str(out), "--grid", "4096"])
    code = main(["inverse", "--input", str(out.with_suffix(".s.csv")),
                 "--out", str(tmp_path / "rec"), "--trunc", "128", "--order", "4"])
    assert code == 0
    rec = json.loads((tmp_path / "rec.recovery.json").read_text())
    assert max(abs(x[0]) + abs(x[1]) for x in rec["a"]) < 1e-10


def test_inverse_strict_exit_on_monomial(tmp_path):
    import cmvscatter as cs

    g = cs.CircleGrid(1024)
    t2 = cs.CircleFunction(g, g.nodes ** 2)
    cs.write_circle_csv([tmp_path / "t2.csv"], [t2])
    code = main(["inverse", "--input", str(tmp_path / "t2.csv"),
                 "--out", str(tmp_path / "rec"), "--trunc", "128",
                 "--order", "4", "--strict"])
    assert code == 4
    rec = json.loads((tmp_path / "rec.recovery.json").read_text())
    assert rec["regular"] is False


def test_roundtrip_command(a05_json, tmp_path):
    code = main(["roundtrip", "--input", a05_json, "--out", str(tmp_path / "rt"),
                 "--grid", "4096", "--trunc", "256", "--order", "8"])
    assert code == 0
    rt = json.loads((tmp_path / "rt.roundtrip.json").read_text())
    assert rt["coefficient_error"] < 1e-6
    assert rt["a_minus1_error"] < 1e-6


def test_widom_command(a05_json, tmp_path):
    code = main(["widom", "--input", a05_json, "--out", str(tmp_path / "w"),
                 "--grid", "2048", "--trunc", "64,128,256"])
    assert code == 0
    lines = (tmp_path / "w.widom.csv").read_text().strip().splitlines()
    assert lines[1] == "M,det,product,gap"
    rows = [line.split(",") for line in lines[2:]]
    gaps = [float(r[3]) for r in rows]
    assert gaps[-1] <= 1e-6
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


def test_glm_command(a05_json, tmp_path):
    code = main(["glm", "--input", a05_json, "--out", str(tmp_path / "g"),
                 "--grid", "2048", "--order", "8", "--trunc", "128"])
    assert code == 0
    rep = json.loads((tmp_path / "g.glm.json").read_text())
    assert rep["factorization_residual"] < 1e-6


def test_classify_command_seq(a05_json, tmp_path):
    code = main(["classify", "--input", a05_json, "--out", str(tmp_path / "c"),
                 "--grid", "2048", "--trunc", "128"])
    assert code == 0
    rep = json.loads((tmp_path / "c.classify.json").read_text())
    assert rep["regular"] is True
    assert rep["index"] == 0


def test_demo_nonunique_command(tmp_path, capsys):
    code = main(["demo-nonunique", "--out", str(tmp_path / "demo"),
                 "--grid", "4096", "--trunc", "100,400"])
    assert code == 0
    rep = json.loads((tmp_path / "demo.demo.json").read_text())
    diffs = rep["sup_differences"]
    assert diffs["400"] < diffs["100"]
    assert rep["common_s_regularity"]["regular"] is False
    assert abs(rep["common_s_regularity"]["rhs"] - 6.0) < 1e-9


def test_demo_nonunique_tests_t2_at_the_largest_trunc(tmp_path):
    # the t^2 regularity check runs at the largest --trunc, whatever the order
    reps = []
    for name, truncs in (("up", "100,400"), ("down", "400,100")):
        assert main(["demo-nonunique", "--out", str(tmp_path / name),
                     "--grid", "4096", "--trunc", truncs]) == 0
        reps.append(json.loads((tmp_path / f"{name}.demo.json").read_text()))
    assert reps[0]["common_s_regularity"] == reps[1]["common_s_regularity"]


def test_forward_takes_no_trunc(a05_json, tmp_path):
    # forward reads no Hankel order, so a small grid passes and --trunc is
    # not an option of the command
    out = tmp_path / "a05"
    assert main(["forward", "--input", a05_json, "--out", str(out), "--grid", "512"]) == 0
    _, config = read_circle_csv(out.with_suffix(".s.csv"))
    assert "trunc" not in config
    assert "trunc" not in json.loads(out.with_suffix(".meta.json").read_text())["config"]
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--input", a05_json, "--out", str(out), "--trunc", "64"])
    assert exc.value.code == 2


def test_inverse_side_runs_no_schur_loop_and_no_outer_pass(tmp_path, monkeypatch):
    # phi and psi come from the Hankel solve and the forward map from one FFT
    # of the Szego polynomial, so no command reaches the pointwise Schur loop
    # or the clamped log of the outer pass
    from cmvscatter import circle, classify, cli, hankel, inverse, opuc, scatter

    def refuse(*args, **kwargs):
        raise AssertionError("reached from a command")

    for module in (circle, classify, cli, hankel, inverse, opuc, scatter):
        for name in ("schur_function", "outer_boundary_samples", "outer_from_modulus_squared",
                     "conjugate_function"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    src = write_seq(tmp_path / "c.json",
                    VerblunskySeq(a_minus1=np.exp(0.7j), a=(0.4 - 0.2j, 0.3j, -0.25)))
    out = str(tmp_path / "c")
    for argv in (["forward", "--input", src, "--weight"],
                 ["roundtrip", "--input", src],
                 ["inverse", "--input", out + ".s.csv"],
                 ["classify", "--input", src],
                 ["classify", "--input", out + ".s.csv"],
                 ["widom", "--input", src, "--trunc", "64,128"],
                 ["glm", "--input", src, "--trunc", "64"],
                 ["demo-nonunique", "--trunc", "16,64"]):
        assert main([*argv, "--out", out, "--grid", "2048"]) == 0, argv


def test_config_validation(a05_json, tmp_path):
    code = main(["forward", "--input", a05_json, "--out", str(tmp_path / "x"),
                 "--grid", "1000"])
    assert code == 2
    main(["forward", "--input", a05_json, "--out", str(tmp_path / "a05"), "--grid", "1024"])
    code = main(["inverse", "--input", str(tmp_path / "a05.s.csv"), "--out", str(tmp_path / "x"),
                 "--grid", "1024", "--trunc", "512"])
    assert code == 2
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("argv", [
    pytest.param(["inverse", "--trunc", "2048", "--order", "12"], id="inverse-trunc-2048"),
    pytest.param(["classify", "--trunc", "2048"], id="classify-trunc-2048"),
    pytest.param(["inverse", "--grid", "1024", "--trunc", "128"], id="inverse-grid-1024"),
    pytest.param(["inverse", "--grid", "1000", "--trunc", "128"], id="inverse-grid-1000"),
    pytest.param(["classify", "--grid", "1000", "--trunc", "128"], id="classify-grid-1000"),
])
def test_s_csv_runs_on_its_own_grid(argv, a05_json, tmp_path):
    # the grid of an s CSV is its row count: --trunc is checked against that
    # grid, --grid is never read (1000 is no power of two), and the config
    # records the file's grid
    main(["forward", "--input", a05_json, "--out", str(tmp_path / "a05"), "--grid", "16384"])
    out = tmp_path / "x"
    assert main(argv + ["--input", str(tmp_path / "a05.s.csv"), "--out", str(out)]) == 0
    (report,) = tmp_path.glob("x.*.json")
    assert json.loads(report.read_text())["config"]["grid"] == 16384


@pytest.mark.parametrize("command", ["forward", "roundtrip", "widom", "classify", "glm",
                                     "demo-nonunique"])
def test_grid_checked_where_a_sequence_is_read(command, a05_json, tmp_path, capsys):
    # a sequence runs on --grid, so a grid that is not a power of two is an
    # input error there, caught before any output is written
    argv = [command, "--out", str(tmp_path / "x"), "--grid", "1000"]
    if command != "demo-nonunique":
        argv += ["--input", a05_json]
    assert main(argv) == 2
    assert "grid size must be a power of two >= 16, got 1000" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_trunc_beyond_the_grid_of_a_sequence(a05_json, tmp_path, capsys):
    # a sequence runs on --grid, and the Hankel order it cannot resolve is
    # refused where the master is built, before any output is written
    code = main(["classify", "--input", a05_json, "--out", str(tmp_path / "x"),
                 "--grid", "1024", "--trunc", "512"])
    assert code == 2
    assert "grid of size 1024 resolves 511 negative coefficients" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("trunc", ["", "0,64", "64,-128"])
@pytest.mark.parametrize("command", ["widom", "demo-nonunique"])
def test_list_trunc_must_hold_positive_orders(command, trunc, a05_json, tmp_path, capsys):
    # an empty list, an order 0 and a negative order are input errors, caught
    # before any output is written
    argv = [command, "--out", str(tmp_path / "x"), "--grid", "1024", f"--trunc={trunc}"]
    if command == "widom":
        argv += ["--input", a05_json]
    assert main(argv) == 2
    assert "--trunc needs one or more positive orders" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("argv, message", [
    pytest.param(["glm", "--order", "0"], "--order must be at least 1", id="glm-order-0"),
    pytest.param(["classify", "--trunc", "0"], "--trunc must be a positive order",
                 id="classify-trunc-0"),
    pytest.param(["classify", "--radius", "1.5"], "--radius must lie in (0, 1]",
                 id="radius-above-1"),
    pytest.param(["classify", "--radius", "-0.5"], "--radius must lie in (0, 1]",
                 id="radius-negative"),
    pytest.param(["classify", "--radius", "nan"], "--radius must lie in (0, 1]", id="radius-nan"),
    pytest.param(["inverse", "--order", "-1"], "--order must be at least 0",
                 id="inverse-order-negative"),
    pytest.param(["classify", "--trunc", "32"], "Hankel order 32 too small",
                 id="classify-s-trunc-32"),
    pytest.param(["inverse", "--trunc", "128", "--order", "100"], "need >= 164",
                 id="inverse-order-beyond-trunc"),
])
def test_bad_values_rejected_where_they_enter(argv, message, a05_json, tmp_path, capsys):
    # out-of-range values are input errors, caught before any output is
    # written; inverse and the last classify case read an s CSV
    src = a05_json
    if argv[0] == "inverse" or argv[-1] == "32":
        main(["forward", "--input", a05_json, "--out", str(tmp_path / "a05"), "--grid", "1024"])
        src = str(tmp_path / "a05.s.csv")
    capsys.readouterr()
    assert main(argv + ["--input", src, "--out", str(tmp_path / "x"), "--grid", "1024"]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_order_limited_only_by_its_consumers(a05_json, tmp_path):
    # --order is bounded by what recover_verblunsky and the GLM block read,
    # not by a fixed fraction of --trunc
    out = tmp_path / "a05"
    main(["forward", "--input", a05_json, "--out", str(out), "--grid", "2048"])
    assert main(["inverse", "--input", str(out.with_suffix(".s.csv")), "--out", str(out),
                 "--grid", "2048", "--trunc", "256", "--order", "100"]) == 0
    rec = json.loads(out.with_suffix(".recovery.json").read_text())
    a = np.array(rec["a"]) @ [1.0, 1.0j]
    assert len(a) == 101
    assert np.max(np.abs(a - np.r_[0.5, np.zeros(100)])) < 1e-12
    assert main(["glm", "--input", a05_json, "--out", str(out), "--grid", "1024",
                 "--trunc", "16", "--order", "8"]) == 0
    assert json.loads(out.with_suffix(".glm.json").read_text())["factorization_residual"] < 1e-12


def test_inverse_trunc_beyond_coefficient_window(a05_json, tmp_path, capsys):
    # the order-M master needs 2M - 1 negative coefficients and a grid of
    # size N resolves N/2 - 1 of them, so inverse serves --trunc up to N/4
    out = tmp_path / "a05"
    main(["forward", "--input", a05_json, "--out", str(out), "--grid", "4096"])
    capsys.readouterr()
    code = main(["inverse", "--input", str(out.with_suffix(".s.csv")),
                 "--out", str(tmp_path / "rec"), "--grid", "4096", "--trunc", "1025"])
    assert code == 2
    err = capsys.readouterr().err
    assert "resolves 2047 negative coefficients" in err
    assert "order 1025 with shift 0 needs 2049" in err
    assert not list(tmp_path.glob("rec.*"))
    assert main(["inverse", "--input", str(out.with_suffix(".s.csv")),
                 "--out", str(tmp_path / "rec"), "--grid", "4096", "--trunc", "1024"]) == 0
    rec = json.loads((tmp_path / "rec.recovery.json").read_text())
    assert rec["residual"] < 1e-12


def test_non_finite_sequence_rejected(tmp_path, capsys):
    # json.load accepts NaN, and every |.| comparison with NaN is False
    bad = tmp_path / "nan.json"
    bad.write_text('{"a_minus1":[NaN,0],"a":[[NaN,0]]}')
    code = main(["forward", "--input", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def _csv_lines(a05_json, tmp_path):
    out = tmp_path / "a05"
    main(["forward", "--input", a05_json, "--out", str(out), "--grid", "1024"])
    return out.with_suffix(".s.csv").read_text().splitlines()


def _inverse_exit(tmp_path, lines):
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    return main(["inverse", "--input", str(path), "--out", str(tmp_path / "rec"),
                 "--grid", "1024", "--trunc", "128", "--order", "4"])


def test_csv_rows_in_any_order_accepted(a05_json, tmp_path):
    lines = _csv_lines(a05_json, tmp_path)
    head, rows = lines[:2], lines[2:]
    assert _inverse_exit(tmp_path, head + rows[::-1]) == 0


def test_csv_duplicated_row_rejected(a05_json, tmp_path, capsys):
    lines = _csv_lines(a05_json, tmp_path)
    lines[2 + 5] = lines[2 + 4]  # index 4 twice, index 5 missing
    assert _inverse_exit(tmp_path, lines) == 2
    assert "exactly once" in capsys.readouterr().err


def test_csv_shuffled_theta_rejected(a05_json, tmp_path, capsys):
    lines = _csv_lines(a05_json, tmp_path)
    r4, r5 = lines[2 + 4].split(","), lines[2 + 5].split(",")
    r4[1], r5[1] = r5[1], r4[1]
    lines[2 + 4], lines[2 + 5] = ",".join(r4), ",".join(r5)
    assert _inverse_exit(tmp_path, lines) == 2
    assert "theta" in capsys.readouterr().err


def test_csv_non_finite_sample_rejected(a05_json, tmp_path, capsys):
    lines = _csv_lines(a05_json, tmp_path)
    row = lines[2 + 7].split(",")
    row[2] = "nan"
    lines[2 + 7] = ",".join(row)
    assert _inverse_exit(tmp_path, lines) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("edit, cause", [
    (lambda row: row[:3], "four fields"),
    (lambda row: row + ["0"], "four fields"),
    (lambda row: row[:2] + ["0.5x"] + row[3:], "not a number"),
], ids=["3-fields", "5-fields", "non-numeric"])
def test_csv_malformed_row_rejected(a05_json, tmp_path, capsys, edit, cause):
    lines = _csv_lines(a05_json, tmp_path)
    lines[2 + 9] = ",".join(edit(lines[2 + 9].split(",")))
    assert _inverse_exit(tmp_path, lines) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("line, code", [
    ("# a note", 0), ("", 0), ("  ", 0), ("index,theta,re,im", 2),
], ids=["comment", "blank", "spaces", "header"])
def test_csv_header_block_precedes_the_rows(a05_json, tmp_path, capsys, line, code):
    # comments and blank lines may sit among the rows; the header line may not
    lines = _csv_lines(a05_json, tmp_path)
    lines.insert(2 + 9, line)
    assert _inverse_exit(tmp_path, lines) == code
    if code:
        assert "not a number" in capsys.readouterr().err


def test_classify_fits_the_glm_block_to_the_truncation(a05_json, tmp_path):
    # the 16-column GLM block reads the first 16 Schur steps of
    # order-min(M, 128) vectors, and from step M on they depend on the zeros
    # filled in past the truncation (for jacobi(0.25, 0, 2000) at --trunc 8,
    # G_n[0] reads 0.99988 for n = 8..15, where every true value is at least
    # 1): below --trunc 16 glm_column_norm is null, not a broadcast error or
    # a truncation artefact
    for trunc in (1, 2, 3, 4, 5, 6, 7, 8, 15, 16):
        out = tmp_path / f"c{trunc}"
        assert main(["classify", "--input", a05_json, "--grid", "1024",
                     "--trunc", str(trunc), "--out", str(out)]) == 0
        rep = json.loads(out.with_suffix(".classify.json").read_text())
        norm = rep["diagnostics"]["glm_column_norm"]
        assert (norm is None) if trunc < 16 else norm > 1.0


def test_classify_and_inverse_deterministic(a05_json, tmp_path):
    s_csv = tmp_path / "a05.s.csv"
    main(["forward", "--input", a05_json, "--out", str(tmp_path / "a05"), "--grid", "2048"])
    runs = [
        (["classify", "--input", a05_json, "--grid", "2048", "--trunc", "128"], ".classify.json"),
        (["classify", "--input", str(s_csv), "--grid", "2048", "--trunc", "128"], ".classify.json"),
        (["inverse", "--input", str(s_csv), "--grid", "2048", "--trunc", "128",
          "--order", "6"], ".recovery.json"),
    ]
    for argv, suffix in runs:
        outs = [tmp_path / f"{argv[0]}{k}" for k in (1, 2)]
        for out in outs:
            assert main(argv + ["--out", str(out)]) == 0
        assert (outs[0].with_suffix(suffix).read_bytes()
                == outs[1].with_suffix(suffix).read_bytes())


def test_cli_import_leaves_scipy_sparse_unloaded(a05_json, tmp_path):
    # numpy is the only runtime dependency: a process that runs one command
    # of each kind loads no scipy module at all, scipy.sparse included
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cmvscatter

    src = str(Path(cmvscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out, grid = str(tmp_path / "r"), ["--grid", "1024"]
    runs = [["forward", "--input", a05_json, "--out", out, "--weight", *grid],
            ["inverse", "--input", out + ".s.csv", "--out", out, "--trunc", "128",
             "--order", "4", *grid],
            ["roundtrip", "--input", a05_json, "--out", out, "--trunc", "128",
             "--order", "4", *grid],
            ["classify", "--input", a05_json, "--out", out, "--trunc", "128", *grid],
            ["classify", "--input", out + ".s.csv", "--out", out, "--trunc", "128", *grid],
            ["glm", "--input", a05_json, "--out", out, "--trunc", "64", *grid],
            ["widom", "--input", a05_json, "--out", out, "--trunc", "32,64", *grid],
            ["demo-nonunique", "--out", out, "--trunc", "50,100", *grid]]
    probe = ("import json, sys, cmvscatter.cli as cli; "
             "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
             "print(json.dumps([codes, sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy')]))")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert scipy_modules == []


def test_every_json_output_from_one_writer(tmp_path):
    # reports serialize under their dataclass field names next to the
    # config, complex values as [re, im] pairs equal to the report in memory
    from cmvscatter import CircleGrid, classify, forward_scatter, glm_matrix, recover_verblunsky
    from cmvscatter.classify import ClassReport
    from cmvscatter.inverse import RecoveryReport

    def pairs(values):
        return [[z.real, z.imag] for z in np.atleast_1d(values)]

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    seq = VerblunskySeq(a_minus1=np.exp(0.7j), a=(0.4 - 0.2j, 0.3j, -0.25))
    src = write_seq(tmp_path / "c.json", seq)
    out = str(tmp_path / "c")
    grid = ["--grid", "2048"]
    assert main(["forward", "--input", src, "--out", out, *grid]) == 0
    s, _ = read_circle_csv(out + ".s.csv")

    assert main(["inverse", "--input", out + ".s.csv", "--out", out, "--trunc", "128",
                 "--order", "6", *grid]) == 0
    rec = json.loads((tmp_path / "c.recovery.json").read_text())
    assert set(rec) == fields(RecoveryReport) | {"config"}
    assert rec["config"]["command"] == "inverse"
    assert rec["config"]["input"] == out + ".s.csv"
    report = recover_verblunsky(s, n_max=6, M=128)
    assert rec["a"] == pairs(report.a)
    assert rec["a_minus1"] == pairs(report.a_minus1)[0]
    assert abs(complex(*rec["a_minus1"]) - seq.a_minus1) < 1e-12

    assert main(["roundtrip", "--input", src, "--out", out, "--trunc", "128",
                 "--order", "6", *grid]) == 0
    rt = json.loads((tmp_path / "c.roundtrip.json").read_text())
    assert set(rt) == {"coefficient_error", "tail_error", "a_minus1_error", "recovery",
                       "config"}
    assert set(rt["recovery"]) == fields(RecoveryReport)
    assert rt["recovery"]["a"] == rec["a"]

    for source in (src, out + ".s.csv"):
        assert main(["classify", "--input", source, "--out", out, "--trunc", "128",
                     *grid]) == 0
        cls = json.loads((tmp_path / "c.classify.json").read_text())
        assert set(cls) == fields(ClassReport) | {"config"}
        if source == src:
            report = classify(seq=seq, grid=CircleGrid(2048), M=128)
        else:
            report = classify(s=s, M=128)
        assert cls["diagnostics"]["a_minus1"] == pairs(report.diagnostics["a_minus1"])[0]
        assert cls["index"] == report.index and cls["regular"] == report.regular

    assert main(["glm", "--input", src, "--out", out, "--trunc", "64", "--order", "8",
                 *grid]) == 0
    glm = json.loads((tmp_path / "c.glm.json").read_text())
    assert set(glm) == {"factorization_residual", "diagonal", "config"}
    data = forward_scatter(seq, CircleGrid(2048))
    assert glm["diagonal"] == pairs(glm_matrix(data, 8, 64).diag)

    with pytest.raises(TypeError):
        _jsonable(object())


def test_only_cli_knows_the_json_formats():
    # cli reads the input JSON and writes every output JSON; no other module
    # of the package imports json, and the sequence has no JSON form of its own
    import ast
    from pathlib import Path

    import cmvscatter

    importers = set()
    for path in Path(cmvscatter.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module == "json"):
                importers.add(path.stem)
    assert importers == {"cli"}
    assert not hasattr(VerblunskySeq, "to_json")
    assert not hasattr(VerblunskySeq, "from_json")
