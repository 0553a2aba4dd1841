"""CLI behavior: subcommands, exit codes, file formats, determinism."""

import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinent.cli
import spinent.dicke
import spinent.metrics
from spinent import CoherentSpec, analyze, coherent_state, custom_state, \
    pairwise_correlators, random_state, twisted_state
from spinent.cli import _build_parser, main
from spinent.dicke import _correlators_from_moments
from spinent.metrics import _assemble_report
from spinent.io import (
    CSV_HEADER,
    dump_document,
    parse_state,
    report_document,
)

SQRT3 = math.sqrt(3.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(argv, capsys):
    # Any warning, e.g. a numpy RuntimeWarning, escapes main as an exception.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(argv, capsys)


def assert_input_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("spinent: error:")
    assert "Traceback" not in err


def run_limited(argv):
    # The CLI in a child process with 2 GiB of address space, so that a
    # request for petabytes fails at once, whatever the host would lazily
    # grant.
    root = str(Path(spinent.cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=root if not path else root + os.pathsep + path)
    result = subprocess.run(
        [sys.executable, "-m", "spinent.cli", *argv], capture_output=True,
        text=True, env=env, timeout=120, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    return result.returncode, result.stdout, result.stderr


def rows(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestMakeState:
    def test_coherent_document(self, capsys):
        code, out, _ = run(["make-state", "coherent", "--n", "2",
                            "--theta", str(math.pi / 2)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["renormalize"] is False
        mags = [re * re + im * im for re, im in doc["coefficients"]]
        assert abs(sum(mags) - 1.0) < 1e-12
        assert abs(mags[1] - 0.5) < 1e-12

    def test_dicke_document(self, capsys):
        code, out, _ = run(["make-state", "dicke", "--n", "4", "--m", "1"],
                           capsys)
        assert code == 0
        state = parse_state(out)
        assert state.coefficients[1] == 1.0

    def test_custom_coefficients(self, capsys):
        code, out, _ = run(["make-state", "custom", "--n", "2", "--coeffs",
                            str(SQRT3 / 2), "0", "0.5"], capsys)
        assert code == 0
        state = parse_state(out)
        assert abs(state.coefficients[0] - SQRT3 / 2) < 1e-15

    def test_custom_renormalize(self, capsys):
        code, out, _ = run(["make-state", "custom", "--n", "2",
                            "--renormalize", "--coeffs", "3", "0", "4"],
                           capsys)
        assert code == 0
        state = parse_state(out)
        assert abs(state.coefficients[0] - 0.6) < 1e-15

    def test_complex_coefficient_token(self, capsys):
        code, out, _ = run(["make-state", "custom", "--n", "2", "--coeffs",
                            "0.6", "0", "0.8j"], capsys)
        assert code == 0
        assert parse_state(out).coefficients[2] == 0.8j

    @pytest.mark.parametrize("argv, check", [
        (["custom", "--n", "1", "--coeffs", "0.6", "-0.8j"],
         lambda state: state.coefficients[1] == -0.8j),
        (["custom", "--n", "1", "--coeffs", "-.6", "-8e-1"],
         lambda state: state.coefficients.tolist() == [-0.6, -0.8]),
        (["twist", "--n", "4", "--theta", "1", "--mu", "-1e-3"],
         lambda state: state.coefficients.tolist() == twisted_state(
             CoherentSpec(4, 1.0), -1e-3).coefficients.tolist()),
    ])
    def test_negative_scientific_and_complex_tokens(self, argv, check,
                                                    capsys):
        code, out, err = run(["make-state", *argv], capsys)
        assert (code, err) == (0, "")
        assert check(parse_state(out))

    def test_option_after_coefficients_still_refused(self, capsys):
        code, out, err = run(["make-state", "custom", "--n", "1",
                              "--coeffs", "0.6", "--bogus"], capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --bogus" in err

    @pytest.mark.parametrize("argv, message", [
        (["make-state", "dicke", "--n", "2", "--m", "-inf"], "m=-inf"),
        (["make-state", "coherent", "--n", "2", "--theta", "-nan"],
         "theta must lie in"),
        (["make-state", "twist", "--n", "2", "--theta", "1", "--mu", "-INF"],
         "mu must be finite"),
        (["sweep", "coherent", "--n", "2", "--start", "-inf", "--stop", "1",
          "--steps", "3"], "--start and --stop must be finite"),
        (["make-state", "custom", "--n", "1", "--coeffs", "1", "-info"],
         "cannot parse coefficient '-info'"),
        (["make-state", "coherent", "--n", "2", "--theta", "-1"],
         "theta must lie in"),
        (["make-state", "coherent", "--n", "2", "--theta", "-1e-3"],
         "theta must lie in"),
        (["make-state", "coherent", "--n", "2", "--theta", "-.5E+1"],
         "theta must lie in"),
    ])
    def test_negative_non_finite_token_is_a_value(self, argv, message,
                                                  capsys):
        # The library's message, not argparse's "expected one argument".
        code, out, err = run(argv, capsys)
        assert_input_error(code, out, err)
        assert message in err

    def test_missing_flag_exits_1(self, capsys):
        code, _, err = run(["make-state", "twist", "--n", "4",
                            "--theta", "1.0"], capsys)
        assert code == 1
        assert "--mu" in err

    def test_unparsable_coefficient_exits_1(self, capsys):
        code, _, err = run(["make-state", "custom", "--n", "2", "--coeffs",
                            "1", "0", "zebra"], capsys)
        assert code == 1
        assert "zebra" in err

    def test_out_of_range_theta_exits_1(self, capsys):
        code, _, err = run(["make-state", "coherent", "--n", "4",
                            "--theta", "4"], capsys)
        assert code == 1
        assert err.startswith("spinent: error:")
        assert "theta" in err

    @pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
    def test_non_finite_m_exits_1(self, m, capsys):
        assert_input_error(*run(["make-state", "dicke", "--n", "4",
                                 f"--m={m}"], capsys))

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_mu_exits_1(self, mu, capsys):
        code, out, err = run_strict(["make-state", "twist", "--n", "4",
                                     "--theta", "1", f"--mu={mu}"], capsys)
        assert_input_error(code, out, err)
        assert "mu" in err

    @pytest.mark.parametrize("kind,flags", [
        ("coherent", ["--theta", "1.1", "--phi", "0.4"]),
        ("twist", ["--theta", "1.1", "--phi", "0.4", "--mu", "0.05"])])
    def test_past_float_binomials(self, kind, flags, capsys):
        # C(2000, 1000) ~ 2e600 is beyond the float range.
        code, out, err = run_strict(["make-state", kind, "--n", "2000"]
                                    + flags, capsys)
        assert code == 0
        assert err == ""
        state = parse_state(out)
        assert state.n_atoms == 2000

    @pytest.mark.parametrize("coeff", ["1e300", "1e-200"])
    def test_renormalize_at_extreme_scale(self, coeff, capsys):
        code, out, err = run_strict(["make-state", "custom", "--n", "1",
                                     "--renormalize", "--coeffs", coeff,
                                     coeff], capsys)
        assert (code, err) == (0, "")
        assert parse_state(out).coefficients.tolist() == [INV_SQRT2] * 2

    @pytest.mark.parametrize("coeffs,cause", [
        (["inf", "0"], "infinite"), (["nan", "1"], "NaN"),
        (["0", "0"], "zero vector")])
    def test_renormalize_rejects_by_cause(self, coeffs, cause, capsys):
        code, out, err = run_strict(["make-state", "custom", "--n", "1",
                                     "--renormalize", "--coeffs", *coeffs],
                                    capsys)
        assert_input_error(code, out, err)
        assert cause in err

    def test_overflowing_norm_is_one_error_line(self, capsys):
        code, out, err = run_strict(["make-state", "custom", "--n", "1",
                                     "--coeffs", "1e300", "1e300"], capsys)
        assert_input_error(code, out, err)
        assert err == ("spinent: error: squared amplitude magnitudes sum to "
                       "inf, more than 1e-06 away from 1\n")

    def test_unindexable_atom_count_exits_1(self, capsys):
        # Refused before numpy is asked for an array.
        code, out, err = run(["make-state", "dicke", "--n", str(10 ** 18),
                              "--m", "0"], capsys)
        assert_input_error(code, out, err)
        assert "too large" in err

    @pytest.mark.parametrize("kind,flags", [
        ("dicke", ["--m", "0"]), ("twist", ["--theta", "1", "--mu", "0.1"])])
    def test_unallocatable_atom_count_exits_1(self, kind, flags):
        # numpy's MemoryError for 10**15 atoms becomes an error line.
        code, out, err = run_limited(["make-state", kind, "--n",
                                      str(10 ** 15), *flags])
        assert_input_error(code, out, err)
        assert "Unable to allocate" in err


class TestAnalyze:
    def make_file(self, tmp_path, coeffs, n=2):
        path = tmp_path / "state.json"
        doc = dump_document({
            "n": n,
            "coefficients": [[float(c.real), float(c.imag)]
                             for c in map(complex, coeffs)],
            "renormalize": False,
        })
        path.write_text(doc, encoding="utf-8")
        return str(path)

    def test_entangled_state_exit_0(self, tmp_path, capsys):
        path = self.make_file(tmp_path, [SQRT3 / 2, 0.0, 0.5])
        code, out, _ = run(["analyze", path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "entangled"
        assert abs(doc["metrics"]["s_param"] - 3.0 / 16.0) < 1e-12
        assert doc["degenerate_frame"] is False

    def test_stdin_pipe(self, capsys, monkeypatch):
        _, state_text, _ = run(["make-state", "coherent", "--n", "5",
                                "--theta", "1.0", "--phi", "2.0"], capsys)
        monkeypatch.setattr(sys, "stdin", io.StringIO(state_text))
        code, out, _ = run(["analyze", "-"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "unentangled"
        assert abs(doc["mean_spin"]["magnitude"] - 2.5) < 1e-10

    def test_degenerate_frame_exit_2(self, tmp_path, capsys):
        ghz = 1.0 / math.sqrt(2.0)
        path = self.make_file(tmp_path, [ghz, 0.0, ghz])
        code, out, _ = run(["analyze", path], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["classification"] == "degenerate-frame"
        assert doc["frame"] is None
        assert doc["metrics"]["s_param"] is None

    def test_renormalize_flag_honored(self, tmp_path, capsys):
        path = tmp_path / "loose.json"
        path.write_text(dump_document({
            "n": 2,
            "coefficients": [[3.0, 0.0], [0.0, 0.0], [4.0, 0.0]],
            "renormalize": True,
        }), encoding="utf-8")
        code, out, _ = run(["analyze", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["classification"] == "entangled"

    def test_unnormalized_without_flag_exit_1(self, tmp_path, capsys):
        path = self.make_file(tmp_path, [3.0, 0.0, 4.0])
        code, _, err = run(["analyze", path], capsys)
        assert code == 1
        assert "magnitudes sum" in err

    def test_non_boolean_renormalize_exit_1(self, tmp_path, capsys):
        path = tmp_path / "loose.json"
        path.write_text(dump_document({
            "n": 2,
            "coefficients": [[3.0, 0.0], [0.0, 0.0], [4.0, 0.0]],
            "renormalize": "no",
        }), encoding="utf-8")
        code, out, err = run(["analyze", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("spinent: error:")
        assert "renormalize" in err

    def test_epsilon_is_not_an_option(self, tmp_path, capsys):
        # The frame threshold is the fixed DEFAULT_EPSILON.
        path = self.make_file(tmp_path, [1.0, 0.0, 0.0, 0.0, 0.0], n=4)
        code, out, err = run(["analyze", path, "--epsilon=1e-12"], capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_s_tolerance_is_not_an_option(self, tmp_path, capsys):
        # The S cut is the fixed DEFAULT_S_TOLERANCE.
        path = self.make_file(tmp_path, [1.0, 0.0, 0.0, 0.0, 0.0], n=4)
        code, out, err = run(["analyze", path, "--s-tolerance=1e-10"],
                             capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(["analyze", str(path)], capsys)
        assert_input_error(code, out, err)
        assert "not UTF-8 text" in err

    def test_non_utf8_stdin_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff{"), encoding="utf-8"))
        code, out, err = run(["analyze", "-"], capsys)
        assert_input_error(code, out, err)
        assert "not UTF-8 text" in err

    def test_single_atom_exit_1(self, tmp_path, capsys):
        path = self.make_file(tmp_path, [1.0, 0.0], n=1)
        code, _, err = run(["analyze", path], capsys)
        assert code == 1
        assert "at least 2 atoms" in err

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 1
        assert "JSON" in err

    def test_huge_integer_coefficient_exit_1(self, tmp_path, capsys):
        # complex() of an integer beyond float range raises OverflowError.
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "coefficients": [[1' + "0" * 400
                        + ', 0], [0, 0]]}', encoding="utf-8")
        code, out, err = run(["analyze", str(path)], capsys)
        assert_input_error(code, out, err)
        assert "coefficient 0 exceeds float range" in err

    def test_integer_past_digit_limit_exit_1(self, tmp_path, capsys):
        # json refuses integers longer than Python's int/str digit limit
        # with a plain ValueError, not a JSONDecodeError.
        path = tmp_path / "longer.json"
        path.write_text('{"n": 1, "coefficients": [[1' + "0" * 5000
                        + ', 0], [0, 0]]}', encoding="utf-8")
        code, out, err = run(["analyze", str(path)], capsys)
        assert_input_error(code, out, err)
        assert "JSON" in err

    def test_twisted_state_at_ten_thousand(self, tmp_path, capsys):
        # Inputs of this size used to stop on an imaginary-residue
        # AssertionError in the ladder moments.
        code, out, err = run_strict(["make-state", "twist", "--n", "10000",
                                     "--theta", "1.2", "--phi", "0.3",
                                     "--mu", "3e-5"], capsys)
        assert (code, err) == (0, "")
        path = tmp_path / "twist.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run_strict(["analyze", str(path)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["classification"] == "entangled"

    def test_near_zero_variance_axis_exit_0(self, tmp_path, capsys):
        # |m=0> + 1e-6 |m=1> at N = 300, turned by pi/2 about x and by phi
        # about z: the y' form rounds below zero, past the old absolute
        # -1e-12 floor, and analyze stopped with a math domain error.
        n = 300
        m = n / 2.0 - np.arange(n + 1)
        half = 0.5 * np.sqrt(n / 2.0 * (n / 2.0 + 1) - m[1:] * m[:-1])
        lam, vec = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))
        base = np.zeros(n + 1)
        base[n // 2 - 1:n // 2 + 1] = 1e-6, 1.0
        phi = np.linspace(0.05, 6.25, 60)[36]
        turn = (vec * np.exp(-0.5j * np.pi * lam)) @ vec.T
        coeffs = np.exp(-1j * phi * m) * (turn @ base)
        path = self.make_file(tmp_path, coeffs / np.linalg.norm(coeffs), n)
        code, out, err = run_strict(["analyze", path], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["classification"] == "entangled"
        assert doc["metrics"]["var_yp"] >= 0.0

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code, _, err = run(["analyze", str(tmp_path / "absent.json")],
                           capsys)
        assert code == 1
        assert "error" in err

    def test_report_is_serialization_fixed_point(self, tmp_path, capsys):
        path = self.make_file(tmp_path, [SQRT3 / 2, 0.0, 0.5])
        _, out, _ = run(["analyze", path], capsys)
        assert dump_document(json.loads(out)) == out

    def test_report_matches_library(self, tmp_path, capsys):
        coeffs = [SQRT3 / 2, 0.0, 0.5]
        path = self.make_file(tmp_path, coeffs)
        _, out, _ = run(["analyze", path], capsys)
        direct = report_document(analyze(custom_state(2, coeffs)))
        assert json.loads(out) == direct


class TestSweep:
    def test_twist_monotone_onset(self, capsys):
        code, out, _ = run(["sweep", "twist", "--n", "10", "--start", "0",
                            "--stop", "0.5", "--steps", "51"], capsys)
        assert code == 0
        table = rows(out)
        assert len(table) == 51
        s_values = [float(r[5]) for r in table]
        assert s_values[0] < 1e-10
        assert table[0][10] == "unentangled"
        assert s_values[1] > 1e-5
        assert table[1][10] == "entangled"
        assert all(b >= a for a, b in zip(s_values, s_values[1:]))

    def test_negative_scientific_start(self, capsys):
        code, out, err = run(["sweep", "twist", "--n", "4", "--start",
                              "-1e-3", "--stop", "0", "--steps", "2"],
                             capsys)
        assert (code, err) == (0, "")
        assert [row[0] for row in rows(out)] == ["-0.001", "0"]

    def test_twist_deterministic(self, capsys):
        argv = ["sweep", "twist", "--n", "8", "--start", "0.01",
                "--stop", "0.3", "--steps", "7"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_coherent_sweep_never_entangled(self, capsys):
        code, out, _ = run(["sweep", "coherent", "--n", "6",
                            "--start", "0.2", "--stop", "2.9",
                            "--steps", "10"], capsys)
        assert code == 0
        for r in rows(out):
            assert float(r[5]) < 1e-10
            assert abs(float(r[6]) - 1.0) < 1e-9
            assert r[10] == "unentangled"

    def test_dicke_sweep_closed_form_and_degenerate_row(self, capsys):
        # n=4 ladder states: var_xp = (j(j+1) - m^2)/2 with j = 2, so
        # S = ((6 - m^2)/2 - 1)^2 for m != 0; the m = 0 row has no frame.
        code, out, _ = run(["sweep", "dicke", "--n", "4", "--start", "-2",
                            "--stop", "2", "--steps", "5"], capsys)
        assert code == 0
        table = rows(out)
        for r in table:
            m = float(r[0])
            if m == 0.0:
                assert r[5] == "nan"
                assert r[10] == "degenerate-frame"
            else:
                expected = ((6.0 - m * m) / 2.0 - 1.0) ** 2
                assert abs(float(r[5]) - expected) < 1e-10

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "coherent", "--n", "3",
                            "--start", "0.5", "--stop", "1.5",
                            "--steps", "3", "--output", str(target)],
                           capsys)
        assert code == 0
        assert out == ""
        table = rows(target.read_text(encoding="utf-8"))
        assert len(table) == 3

    def test_too_few_steps_exit_1(self, capsys):
        code, _, err = run(["sweep", "twist", "--n", "4", "--start", "0",
                            "--stop", "1", "--steps", "1"], capsys)
        assert code == 1
        assert "steps" in err

    def test_dicke_sweep_off_grid_value_exit_1(self, capsys):
        code, _, err = run(["sweep", "dicke", "--n", "4", "--start", "-2",
                            "--stop", "2", "--steps", "4"], capsys)
        assert code == 1
        assert "m=" in err

    def test_out_of_range_theta_exits_1(self, capsys):
        code, out, err = run(["sweep", "coherent", "--n", "4", "--start",
                              "0", "--stop", "4", "--steps", "3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("spinent: error:")
        assert "theta" in err

    def test_nan_start_exits_1(self, capsys):
        assert_input_error(*run(["sweep", "dicke", "--n", "4", "--start",
                                 "nan", "--stop", "0", "--steps", "2"],
                                capsys))

    @pytest.mark.parametrize("start,stop", [
        ("inf", "0"), ("0", "-inf"), ("-1e308", "1e308")])
    def test_non_finite_range_exits_1(self, start, stop, capsys):
        code, out, err = run_strict(["sweep", "twist", "--n", "4",
                                     f"--start={start}", f"--stop={stop}",
                                     "--steps", "2"], capsys)
        assert_input_error(code, out, err)
        assert "--start" in err

    def test_past_float_binomials(self, capsys):
        code, out, err = run_strict(["sweep", "coherent", "--n", "2000",
                                     "--start", "0", "--stop", "3",
                                     "--steps", "3"], capsys)
        assert code == 0
        assert err == ""
        table = rows(out)
        assert len(table) == 3
        assert all(r[10] == "unentangled" for r in table)


class TestOracleCheck:
    def test_small_range_passes(self, capsys):
        code, out, _ = run(["oracle-check", "--n", "2..4", "--trials", "5",
                            "--seed", "7"], capsys)
        assert code == 0
        assert "result: PASS" in out
        assert "classification mismatches: 0" in out

    def test_repeat_is_byte_identical(self, capsys):
        argv = ["oracle-check", "--n", "3", "--trials", "4", "--seed", "11"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_cap_raised_past_default(self, capsys):
        code, out, _ = run(["oracle-check", "--n", "15", "--cap", "15",
                            "--trials", "1"], capsys)
        assert code == 0
        assert "cap 15" in out
        assert "result: PASS" in out

    def test_cap_exceeded_exit_1(self, capsys):
        code, _, err = run(["oracle-check", "--n", "20"], capsys)
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("n", ["64", "2..64"])
    def test_numpy_size_limit_exit_1(self, n, capsys):
        # Refused by the cap rule before any state is drawn.
        code, out, err = run(["oracle-check", "--n", n, "--cap", "64",
                              "--trials", "1"], capsys)
        assert_input_error(code, out, err)
        assert err.count("\n") == 1
        assert "too large for numpy" in err

    def test_bad_range_exit_1(self, capsys):
        code, _, err = run(["oracle-check", "--n", "8..2"], capsys)
        assert code == 1
        assert "2 <= A <= B" in err

    def test_zero_trials_exit_1(self, capsys):
        code, _, err = run(["oracle-check", "--n", "3", "--trials", "0"],
                           capsys)
        assert code == 1
        assert "trials" in err

    def test_negative_seed_exit_1(self, capsys):
        code, out, err = run(["oracle-check", "--n", "3", "--seed", "-1"],
                             capsys)
        assert_input_error(code, out, err)
        assert "--seed" in err

    def test_one_degenerate_side_counts_once(self, capsys, monkeypatch):
        # The oracle reports its first state degenerate and the ladder
        # path does not: one state disagrees, once.
        original, calls = spinent.cli.oracle_metrics, []

        def degenerate_first(full):
            result = original(full)
            calls.append(full)
            if len(calls) > 1:
                return result
            return dataclasses.replace(
                result, frame=None, per_atom_var_xp=None,
                per_atom_var_yp=None, report=_assemble_report(
                    full.n_atoms, None, result.mean_spin.magnitude))

        monkeypatch.setattr(spinent.cli, "oracle_metrics", degenerate_first)
        code, out, _ = run(["oracle-check", "--n", "3", "--trials", "2"],
                           capsys)
        assert code == 1
        assert len(calls) == 2
        assert "classification mismatches: 1\n" in out
        assert "result: FAIL" in out

    def test_one_moment_pass_per_state(self, capsys, monkeypatch):
        # The ladder correlators come from analyze's moments, so each state
        # costs one collective_moments call, through whichever module.
        states, passes = [], []

        def counted(module, name, log):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                log.append(args[0])
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(spinent.cli, "random_state", states)
        for module in (spinent.dicke, spinent.metrics):
            counted(module, "collective_moments", passes)
        code, out, _ = run(["oracle-check", "--n", "2..6", "--trials", "3"],
                           capsys)
        assert code == 0
        assert "result: PASS" in out
        assert len(states) == 5 * 3
        assert len(passes) == len(states)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_correlators_from_analyze_moments(self, n):
        rng = np.random.default_rng(500 + n)
        for state in [random_state(n, rng) for _ in range(3)] + [
                coherent_state(CoherentSpec(n, 0.9, 0.2))]:
            direct = pairwise_correlators(state)
            reused = _correlators_from_moments(n, analyze(state).moments)
            for name in direct.__dataclass_fields__:
                assert getattr(direct, name) == getattr(reused, name)


class TestLayout:
    """The field names and their order, as a script reading the output sees
    them; written out here because the code derives them."""

    def test_sweep_csv_header(self, capsys):
        _, out, _ = run(["sweep", "dicke", "--n", "2", "--start", "-1",
                         "--stop", "1", "--steps", "3"], capsys)
        assert out.split("\n")[0] == (
            "parameter,var_xp,var_yp,corr_x,corr_y,s_param,q_x,q_y,xi_rx,"
            "xi_ry,classification")

    def test_analyze_report_key_order(self, capsys, monkeypatch):
        _, state_text, _ = run(["make-state", "coherent", "--n", "4",
                                "--theta", "1.0"], capsys)
        monkeypatch.setattr(sys, "stdin", io.StringIO(state_text))
        _, out, _ = run(["analyze", "-"], capsys)
        doc = json.loads(out)
        assert list(doc) == ["version", "n_atoms", "mean_spin", "frame",
                             "degenerate_frame", "degenerate_phi", "metrics",
                             "classification"]
        assert list(doc["mean_spin"]) == ["jx", "jy", "jz", "magnitude",
                                          "transverse"]
        assert list(doc["frame"]) == ["cos_theta", "sin_theta", "cos_phi",
                                      "sin_phi"]
        assert list(doc["metrics"]) == ["var_xp", "var_yp", "corr_x",
                                        "corr_y", "s_param", "q_x", "q_y",
                                        "xi_rx", "xi_ry"]

    def test_oracle_check_field_order(self, capsys):
        _, out, _ = run(["oracle-check", "--n", "2", "--trials", "1"],
                        capsys)
        names = [line.split()[0] for line in out.split("\n")
                 if "max deviation" in line]
        assert names == ["jx", "jy", "jz", "jx2", "jy2", "jz2", "sym_xy",
                         "sym_xz", "sym_yz", "xx", "yy", "zz", "xy", "xz",
                         "yz", "magnitude", "var_xp", "var_yp", "corr_x",
                         "corr_y", "s_param", "q_x", "q_y", "xi_rx",
                         "xi_ry"]


class TestPrecisionVariable:
    def test_reduces_csv_digits(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINENT_PRECISION", "3")
        _, out, _ = run(["sweep", "coherent", "--n", "2",
                         "--start", "0.123456789", "--stop", "1.0",
                         "--steps", "2"], capsys)
        assert rows(out)[0][0] == "0.123"

    def test_default_is_full_precision(self, capsys, monkeypatch):
        monkeypatch.delenv("SPINENT_PRECISION", raising=False)
        _, out, _ = run(["sweep", "coherent", "--n", "2",
                         "--start", "0.123456789", "--stop", "1.0",
                         "--steps", "2"], capsys)
        assert float(rows(out)[0][0]) == 0.123456789

    @pytest.mark.parametrize("bad", ["0", "18", "banana"])
    def test_invalid_value_exit_1(self, capsys, monkeypatch, bad):
        monkeypatch.setenv("SPINENT_PRECISION", bad)
        code, _, err = run(["sweep", "coherent", "--n", "2",
                            "--start", "0.1", "--stop", "1.0",
                            "--steps", "2"], capsys)
        assert code == 1
        assert "SPINENT_PRECISION" in err


class TestUsageErrors:
    def test_unknown_command_exit_1(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_missing_required_flag_exit_1(self, capsys):
        code, _, err = run(["sweep", "twist", "--n", "4"], capsys)
        assert code == 1
        assert "required" in err

    def test_no_command_exit_1(self, capsys):
        assert run([], capsys)[0] == 1


class TestRepeatedCalls:
    """main reuses one parser; no call may see another call's flags."""

    def first_run(self, argv, capsys):
        # The output of argv when it is the first call in the process.
        _build_parser.cache_clear()
        return run(argv, capsys)

    def assert_same_as_first(self, earlier, argv, capsys):
        # Runs earlier, then argv; returns what earlier gave.
        expected = self.first_run(argv, capsys)
        result = self.first_run(earlier, capsys)
        assert run(argv, capsys) == expected
        return result

    def test_valid_command_after_usage_error(self, capsys):
        code, _, _ = self.assert_same_as_first(
            ["make-state", "twist", "--n", "4", "--bogus"],
            ["make-state", "coherent", "--n", "4", "--theta", "1.0"], capsys)
        assert code == 1

    def test_valid_command_after_help(self, capsys):
        code, out, _ = self.assert_same_as_first(
            ["--help"],
            ["make-state", "coherent", "--n", "4", "--theta", "1.0"], capsys)
        assert code == 0
        assert out.startswith("usage: spinent")

    def test_sweep_flags_do_not_leak(self, capsys):
        self.assert_same_as_first(
            ["sweep", "twist", "--n", "4", "--start", "0", "--stop", "0.5",
             "--steps", "3", "--theta", "2.0", "--phi", "0.7"],
            ["make-state", "coherent", "--n", "4", "--theta", "1.0"], capsys)

    def test_omitted_flag_stays_omitted(self, capsys):
        argv = ["make-state", "twist", "--n", "4", "--theta", "1.0"]
        self.assert_same_as_first(argv + ["--mu", "0.3"], argv, capsys)
        assert_input_error(*run(argv, capsys))
