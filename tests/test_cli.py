"""Command-line frontend: file formats, exit codes, end-to-end roundtrips."""

import json
import pathlib
import shlex
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from finiteq import FiniteState, SystemParams, number_state, position_state
from finiteq.cli import build_parser, main, parse_complex
from finiteq.serialization import (
    load_state,
    load_zeros_csv,
    load_zeros_sidecar,
    save_state,
    save_zeros_csv,
    sidecar_path,
    state_from_dict,
    zeros_svg,
)
from finiteq.zeros import ZeroSet

TABLE_D6_N0 = [0.75971, 0.45004, 0.09373, 0.01365, 0.09373, 0.45004]


def test_parse_complex_forms():
    assert parse_complex("1+1i") == 1 + 1j
    assert parse_complex("0.3-0.2i") == 0.3 - 0.2j
    assert parse_complex("-1.5i") == -1.5j
    assert parse_complex("2") == 2.0
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("1e-3+2.5e-1i") == 0.001 + 0.25j
    assert parse_complex("1+i") == 1 + 1j


def test_parse_complex_rejects_garbage():
    from finiteq.cli import _UsageError

    for bad in ("abc", "1+2j+3i", "", "1 + 2i x", "1+2J", "(1+2i)", "1i+2"):
        with pytest.raises(_UsageError):
            parse_complex(bad)


def test_state_number_matches_table(tmp_path, capsys):
    out = tmp_path / "n0.json"
    assert main(["state", "number", "--d", "6", "--N", "0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["d"] == 6
    assert data["lambda"] == 1.0
    comps = np.array([complex(re, im) for re, im in data["components"]])
    assert np.max(np.abs(comps.real - TABLE_D6_N0)) < 2e-5


def test_zeros_csv_and_sidecar(tmp_path):
    state = tmp_path / "n0.json"
    zcsv = tmp_path / "zeros.csv"
    svg = tmp_path / "cell.svg"
    assert main(["state", "number", "--d", "6", "--N", "0", "--out", str(state)]) == 0
    assert main(["zeros", "--state", str(state), "--out", str(zcsv), "--svg", str(svg)]) == 0
    positions, mults = load_zeros_csv(zcsv)
    # one row per zero; this state carries a genuine double zero at the cell
    # center, so six zeros counted with multiplicity occupy five or six rows
    assert int(np.sum(mults)) == 6
    assert positions.size in (5, 6)
    side = load_zeros_sidecar(sidecar_path(zcsv))
    assert set(side) == {"M", "N", "residual"}
    assert side["residual"] <= 1e-6
    assert svg.exists()


def test_full_file_roundtrip(tmp_path):
    params = SystemParams(4)
    rng = np.random.default_rng(5)
    vec = FiniteState(rng.normal(size=4) + 1j * rng.normal(size=4))
    src = tmp_path / "state.json"
    save_state(src, vec, params)
    zcsv = tmp_path / "z.csv"
    rec = tmp_path / "rec.json"
    assert main(["zeros", "--state", str(src), "--out", str(zcsv)]) == 0
    assert main(["reconstruct", "--zeros", str(zcsv), "--out", str(rec)]) == 0
    got, lam = load_state(rec)
    assert lam == 1.0
    assert got.fidelity(vec) >= 1 - 1e-6


def test_svg_structure_vacuum_d4(tmp_path):
    state = tmp_path / "vac.json"
    svg = tmp_path / "cell.svg"
    assert main(["state", "coherent", "--d", "4", "--A", "0", "--out", str(state)]) == 0
    assert main(["plot", "--state", str(state), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}rect")) == 1
    assert len(root.findall(f"{ns}circle")) == 4
    assert len(root.findall(f"{ns}polygon")) == 0


def test_svg_overlay_markers(tmp_path):
    s1 = tmp_path / "vac.json"
    s2 = tmp_path / "disp.json"
    svg = tmp_path / "two.svg"
    assert main(["state", "coherent", "--d", "4", "--A", "0", "--out", str(s1)]) == 0
    assert main(["state", "coherent", "--d", "4", "--A", "1+1i", "--out", str(s2)]) == 0
    assert main(["plot", "--state", str(s1), "--overlay", str(s2), "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}circle")) == 4
    assert len(root.findall(f"{ns}polygon")) == 4


def test_overlap_coherent_labels(tmp_path, capsys):
    assert main(["overlap", "--d", "5", "--A1", "0.3", "--A2", "0.1+0.2i"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_vs_direct"] < 1e-9
    assert abs(payload["abs"]) <= 1.0 + 1e-12


def test_overlap_coherent_labels_at_d_1000(capsys):
    # labels 0.6 and 0.3 of the way up the cell, where the loop summation did not converge
    assert main(["overlap", "--d", "1000", "--A1", "29+47i", "--A2", "8+24i"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_vs_direct"] <= 1e-9


def test_overlap_state_files(tmp_path):
    params = SystemParams(3)
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(f1, position_state(0, 3), params)
    save_state(f2, position_state(1, 3), params)
    out = tmp_path / "ov.json"
    assert main(["overlap", "--in1", str(f1), "--in2", str(f2), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["abs"]) < 1e-12


def test_verify_passes(capsys):
    assert main(["verify", "--d", "4", "--seed", "7", "--suite", "all"]) == 0
    report = capsys.readouterr().out
    assert "checks passed" in report
    assert "FAIL" not in report


def test_verify_failure_exit_code(monkeypatch, capsys):
    from finiteq import verify

    monkeypatch.setitem(verify.SUITES, "theta", lambda d, rng: [verify.CheckResult("broken", False, "error 1")])
    assert main(["verify", "--suite", "theta", "--d", "3"]) == 2
    captured = capsys.readouterr()
    assert "FAIL  broken" in captured.out and "0/1 checks passed" in captured.out
    assert "verification failed" in captured.err


def test_run_suite_rejects_an_unknown_suite():
    from finiteq import verify

    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope", 3, 0)


def test_verify_hilbert_rejects_self_consistent_wrong_weyl_pair(monkeypatch):
    # a transposed table with a matching inverse passes the round trip, not the entry check
    from finiteq import hilbert, verify

    weyl, inverse = hilbert.weyl_function, hilbert.operator_from_weyl
    monkeypatch.setattr(hilbert, "weyl_function", lambda op: weyl(op).T)
    monkeypatch.setattr(hilbert, "operator_from_weyl", lambda table: inverse(table.T))
    results = {r.name: r.passed for r in verify.run_suite("hilbert", 4, 7)}
    assert results["phase-space table roundtrip"]
    assert not results["phase-space table entries vs Tr[op D]"]


def test_verify_analytic_rejects_wrong_quadrature_prefactor(monkeypatch):
    # a prefactor off by 1e-8 slips under the scalar product's 1e-5, not under the identity's 1e-10
    from finiteq import analytic, verify

    trapezoid = analytic._cell_trapezoid
    monkeypatch.setattr(analytic, "_cell_trapezoid",
                        lambda params, evaluate, pref, *args, **kwargs:
                        trapezoid(params, evaluate, pref * (1 + 1e-8), *args, **kwargs))
    results = {r.name: r.passed for r in verify.run_suite("analytic", 4, 7)}
    assert results["cell integral reproduces bilinear pairing"]
    assert not results["coherent states resolve the identity"]


def _projection_vanishes(n, d):
    """Hermite projections that cancel identically: the d-point Fourier matrix
    lacks the eigenvalue i**n (d = 1 carries {1}, d = 2 {1, -1}, d = 3 and 4 miss -i)."""
    return {1: n % 4 != 0, 2: n % 2 == 1, 3: n % 4 == 3, 4: n % 4 == 3}.get(d, False)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_verify_zak_draws_an_n_that_has_a_number_state(d):
    from finiteq import verify

    params = SystemParams(d)
    has_state = []
    for n in range(9):
        try:
            number_state(n, params)
            has_state.append(n)
        except ValueError:
            pass
    assert has_state == [n for n in range(9) if not _projection_vanishes(n, d)]
    drawn = set()
    for seed in range(12):
        check = verify.run_suite("zak", d, seed)[0]
        n = int(check.name.removeprefix("F eigenvector (n=").removesuffix(")"))
        assert check.passed and n in has_state
        drawn.add(n)
    assert len(drawn) > 1


def test_verify_deterministic(capsys):
    main(["verify", "--d", "3", "--seed", "11", "--suite", "zak"])
    first = capsys.readouterr().out
    main(["verify", "--d", "3", "--seed", "11", "--suite", "zak"])
    second = capsys.readouterr().out
    assert first == second


def test_main_calls_share_no_values(tmp_path, capsys):
    # main parses with one parser per process; no flag value may carry over to the next call
    first, second = tmp_path / "c.json", tmp_path / "n.json"
    assert main(["state", "coherent", "--d", "3", "--lambda", "1.2",
                 "--A", "0.5-0.1i", "--out", str(first)]) == 0
    assert main(["state", "number", "--d", "4", "--N", "0", "--out", str(second)]) == 0
    assert json.loads(second.read_text())["lambda"] == 1.0
    assert main(["verify", "--suite", "theta", "--seed", "5", "--d", "3"]) == 0
    assert main(["verify", "--suite", "theta"]) == 0
    assert "(d=4, seed=0, suite=theta)" in capsys.readouterr().out
    assert main(["state", "number", "--d", "4", "--out", str(second)]) == 1  # --N is not remembered
    assert "--N is required" in capsys.readouterr().err
    assert build_parser() is not build_parser()


# flags a subcommand does not read, with a value each; argparse must refuse them
_UNREAD_FLAGS = [
    ("state", "--cell-a", "0.5"), ("state", "--cell-b", "0.5"), ("state", "--tol", "1e-3"),
    ("state", "--seed", "3"),
    ("zeros", "--d", "4"), ("zeros", "--lambda", "2.5"), ("zeros", "--tol", "1e-3"), ("zeros", "--seed", "3"),
    ("reconstruct", "--d", "4"), ("reconstruct", "--seed", "3"),
    ("overlap", "--cell-a", "0.5"), ("overlap", "--cell-b", "0.5"), ("overlap", "--tol", "1e-3"),
    ("overlap", "--seed", "3"),
    ("verify", "--lambda", "2.5"), ("verify", "--cell-a", "1.3"), ("verify", "--cell-b", "-0.7"),
    ("verify", "--tol", "1e-3"), ("verify", "--out", "verify.txt"),
    ("plot", "--d", "4"), ("plot", "--lambda", "2.5"), ("plot", "--tol", "1e-3"), ("plot", "--seed", "3"),
    ("plot", "--out", "other.svg"),
]


@pytest.mark.parametrize("command, flag, value", _UNREAD_FLAGS)
def test_unread_flags_are_usage_errors(command, flag, value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["state", "number", "--d", "4", "--N", "0", "--out", "s.json"]) == 0
    assert main(["zeros", "--state", "s.json", "--out", "z.csv"]) == 0
    valid = {
        "state": ["state", "number", "--d", "4", "--N", "0", "--out", "n.json"],
        "zeros": ["zeros", "--state", "s.json", "--out", "z2.csv"],
        "reconstruct": ["reconstruct", "--zeros", "z.csv", "--out", "r.json"],
        "overlap": ["overlap", "--d", "3", "--A1", "0.3", "--A2", "0.1+0.2i", "--out", "ov.json"],
        "verify": ["verify", "--suite", "theta", "--d", "3"],
        "plot": ["plot", "--state", "s.json", "--svg", "p.svg"],
    }[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(valid + [flag, value]) == 1
    assert "usage error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert main(valid) == 0  # the same call without the flag runs


def test_readme_commands_parse():
    # every finiteq line of the README's command-line block is a valid call
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    calls = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("finiteq ")]
    assert len(calls) >= 10
    for argv in calls:
        build_parser().parse_args(argv[1:])


def test_usage_error_exit_code(capsys):
    assert main(["state", "number", "--d", "6"]) == 1  # --N and --out missing
    assert "usage error" in capsys.readouterr().err
    assert main(["state", "number", "--N", "0", "--out", "n.json"]) == 1
    assert "usage error: --d is required" in capsys.readouterr().err
    assert main(["zeros", "--state", "x.json"]) == 1
    assert main(["frobnicate"]) == 1


def test_overlap_usage_and_dimension_errors(tmp_path, capsys):
    f3, f4 = tmp_path / "a.json", tmp_path / "b.json"
    save_state(f3, position_state(0, 3), SystemParams(3))
    save_state(f4, position_state(0, 4), SystemParams(4))
    assert main(["overlap", "--in1", str(f3), "--in2", str(f4)]) == 1
    assert "input error: dimension mismatch: 3 vs 4" in capsys.readouterr().err
    for argv in ([], ["--in1", str(f3)]):
        assert main(["overlap", "--d", "3"] + argv) == 1
        assert "usage error: overlap needs either --A1/--A2 or --in1/--in2" in capsys.readouterr().err


def test_zeros_reports_a_miscount_as_a_computation_failure(tmp_path, capsys):
    # along the zero lines of a position state at d = 64 the series cancels below double precision
    state, zcsv = tmp_path / "p.json", tmp_path / "z.csv"
    assert main(["state", "position", "--d", "64", "--m", "0", "--out", str(state)]) == 0
    capsys.readouterr()
    assert main(["zeros", "--state", str(state), "--out", str(zcsv)]) == 1
    assert "computation failed: found 63 zeros in the cell, expected 64" in capsys.readouterr().err
    assert not zcsv.exists()


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["zeros", "--state", str(bad), "--out", str(tmp_path / "z.csv")]) == 1
    assert "input error" in capsys.readouterr().err


def test_state_record_reads_d_by_the_integer_rule(tmp_path, capsys):
    # d = 2.9 with two components loaded as a d = 2 state; a string or a list is refused as well
    record = {"lambda": 1.0, "components": [[1.0, 0.0], [0.0, 1.0]]}
    for d in (2.9, "2", [2], 0, None):
        with pytest.raises(ValueError, match="^malformed state record: d must be"):
            state_from_dict(dict(record, d=d))
    assert state_from_dict(dict(record, d=2.0))[0].d == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(record, d=2.9)))
    assert main(["zeros", "--state", str(bad), "--out", str(tmp_path / "z.csv")]) == 1
    assert "input error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["zeros", "--state", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "z.csv")]) == 1
    assert "input error" in capsys.readouterr().err


def test_outputs_onto_the_input_are_refused(tmp_path, capsys):
    # the sidecar of s.csv is s.json: written, it would replace the state
    # read from s.json, and the next run would fail on the zeros sidecar
    state = tmp_path / "s.json"
    assert main(["state", "number", "--d", "4", "--N", "0", "--out", str(state)]) == 0
    before = state.read_bytes()
    (tmp_path / "sub").mkdir()
    capsys.readouterr()
    for outputs in (["--out", str(tmp_path / "s.csv")],
                    ["--out", str(state)],
                    ["--out", str(tmp_path / "z.csv"), "--svg", str(tmp_path / "sub" / ".." / "s.json")]):
        assert main(["zeros", "--state", str(state)] + outputs) == 1
        assert "input error" in capsys.readouterr().err
        assert state.read_bytes() == before
    assert main(["plot", "--state", str(state), "--svg", str(state)]) == 1
    assert state.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "sub"]
    zcsv = tmp_path / "z.csv"
    zcsv.write_text("re,im,multiplicity\n1.0,1.0,4\n")
    assert main(["reconstruct", "--zeros", str(zcsv), "--out", str(zcsv)]) == 1
    assert "input error" in capsys.readouterr().err
    assert zcsv.read_text() == "re,im,multiplicity\n1.0,1.0,4\n"


def test_load_zeros_csv_skips_blank_rows_and_rejects_bad_ones(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("re,im,multiplicity\n1.0,2.0,1\n\n ,\n3.0,4.0,2\n")
    positions, mults = load_zeros_csv(path)
    assert positions.tolist() == [1 + 2j, 3 + 4j] and mults.tolist() == [1, 2]
    path.write_text("re,im,multiplicity\n1.0,oops,1\n")
    with pytest.raises(ValueError, match="malformed zeros CSV row"):
        load_zeros_csv(path)
    path.write_text("re,im,multiplicity\n")
    with pytest.raises(ValueError, match="no zeros found in"):
        load_zeros_csv(path)


def test_write_atomic_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    from finiteq import serialization

    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(serialization.os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        serialization.write_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_state_record_needs_d_components():
    record = {"d": 3, "lambda": 1.0, "components": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(ValueError, match="state record claims d=3 but has 2 components"):
        state_from_dict(record)


def test_svg_labels_a_double_zero():
    zs = ZeroSet(np.array([1 + 1j, 2 + 2j]), np.array([2, 1]), SystemParams(3), 0, 0, 0.0)
    root = ET.fromstring(zeros_svg(zs))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}circle")) == 2
    assert [t.text for t in root.findall(f"{ns}text")][1:] == ["x2"]


def test_zeros_csv_round_trips_positions_exactly(tmp_path):
    # 17 significant digits name every double; 16 lose the last bit of a
    # quarter of the values in [0, 10)
    rng = np.random.default_rng(41)
    positions = 10 * rng.uniform(size=500) + 10j * rng.uniform(size=500)
    zs = ZeroSet(positions, np.ones(500, dtype=int), SystemParams(500), 10, 20, 1e-13)
    save_zeros_csv(tmp_path / "z.csv", zs)
    loaded, mults = load_zeros_csv(tmp_path / "z.csv")
    assert loaded.tobytes() == positions.tobytes()
    assert np.array_equal(mults, zs.multiplicities)


@pytest.mark.parametrize("label", ["inf", "nan+1i", "1e400i"])
def test_non_finite_coherent_label_is_an_input_error(label, capsys, tmp_path):
    assert main(["state", "coherent", "--d", "4", "--A", label, "--out", str(tmp_path / "c.json")]) == 1
    assert "input error: coherent label must be finite" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_reconstruct_rejects_bad_zeros(tmp_path, capsys):
    zcsv = tmp_path / "z.csv"
    zcsv.write_text("re,im,multiplicity\n0.5,0.5,1\n1.0,1.0,1\n2.0,2.0,1\n3.0,3.0,1\n")
    assert main(["reconstruct", "--zeros", str(zcsv), "--out", str(tmp_path / "r.json")]) == 1
    assert "no such state exists" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_reconstruct_rejects_bad_tolerance(tol, tmp_path, capsys):
    # an off-rule set (residual about 1.9): nan and inf took any zero sum and wrote a "state"
    zcsv = tmp_path / "z.csv"
    zcsv.write_text("re,im,multiplicity\n0.5,0.5,1\n1.0,1.0,1\n2.0,2.0,1\n")
    assert main(["reconstruct", "--zeros", str(zcsv), "--tol", tol, "--out", str(tmp_path / "r.json")]) == 1
    assert "input error: residual_tol must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_reconstruct_rejects_non_finite_zeros(tmp_path, capsys):
    # an inf position ended in an OverflowError traceback from round()
    zcsv = tmp_path / "z.csv"
    zcsv.write_text("re,im,multiplicity\n0.5,0.5,1\ninf,1.0,1\n2.0,2.0,1\n3.0,3.0,1\n")
    assert main(["reconstruct", "--zeros", str(zcsv), "--out", str(tmp_path / "r.json")]) == 1
    assert "input error: points must be finite, got (inf+1j)" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_state_sampled_from_csv(tmp_path):
    from finiteq import GaussianCoherent, coherent_state_closed

    x = np.linspace(-10, 10, 2001)
    vals = GaussianCoherent(0.4)(x)
    csv_path = tmp_path / "wave.csv"
    csv_path.write_text(
        "x,re,im\n" + "\n".join(f"{xi},{v.real},{v.imag}" for xi, v in zip(x, vals)) + "\n"
    )
    out = tmp_path / "s.json"
    assert main(["state", "sampled", "--d", "3", "--csv", str(csv_path), "--out", str(out)]) == 0
    got, _ = load_state(out)
    expect = coherent_state_closed(0.4, SystemParams(3))
    assert got.fidelity(expect) > 1 - 1e-9


def test_position_and_momentum_state_commands(tmp_path):
    out = tmp_path / "p.json"
    assert main(["state", "position", "--d", "5", "--m", "2", "--out", str(out)]) == 0
    got, _ = load_state(out)
    assert abs(got.components[2] - 1) < 1e-15
    assert main(["state", "momentum", "--d", "5", "--m", "0", "--out", str(out)]) == 0
    got, _ = load_state(out)
    assert np.max(np.abs(got.components - 5**-0.5)) < 1e-14


def test_cell_anchor_flags(tmp_path):
    state = tmp_path / "c.json"
    zcsv = tmp_path / "z.csv"
    assert main(["state", "coherent", "--d", "3", "--A", "0.4+0.1i", "--out", str(state)]) == 0
    assert main(["zeros", "--state", str(state), "--cell-a", "-2.0", "--cell-b", "1.5",
                 "--out", str(zcsv)]) == 0
    positions, mults = load_zeros_csv(zcsv)
    width = np.sqrt(2 * np.pi * 3)
    assert int(np.sum(mults)) == 3
    for z in positions:
        assert -2.0 <= z.real < -2.0 + width
        assert 1.5 <= z.imag < 1.5 + width


@pytest.mark.parametrize("flag,value", [("--cell-b", "inf"), ("--cell-a", "nan")])
def test_non_finite_cell_anchor_is_an_input_error(flag, value, tmp_path, capsys):
    state = tmp_path / "c.json"
    assert main(["state", "coherent", "--d", "3", "--A", "0.4+0.1i", "--out", str(state)]) == 0
    capsys.readouterr()
    assert main(["zeros", "--state", str(state), flag, value, "--out", str(tmp_path / "z.csv")]) == 1
    assert f"input error: cell anchor {flag[-1]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "z.csv").exists()


def test_lambda_flag_roundtrip(tmp_path):
    out = tmp_path / "c.json"
    assert main(["state", "coherent", "--d", "3", "--lambda", "1.2",
                 "--A", "0.5-0.1i", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["lambda"] == 1.2
