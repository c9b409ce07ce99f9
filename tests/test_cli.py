import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_spec
from wdistill.cli import main, render_report
from wdistill.protocol import FIDELITY_TOL

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RANDOM64 = os.path.join(GOLDEN, "random64.json")
WORKED_FILE = {"coefficients": [[0.70710678, 0], [0.54772256, 0], [0.44721360, 0]]}


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(WORKED_FILE), encoding="utf-8")
    return str(path)


def write_spec(tmp_path, doc, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def tiny_coupling(epsilon: float, omega: float = 50.0) -> str:
    return (
        f"coupling epsilon = {epsilon!r} with omega = {omega!r} gives interaction "
        "times dt or a Ramsey angle omega * sum(dt) beyond the double range"
    )


def random_spec_file(tmp_path, n: int, seed: int) -> tuple[str, tuple[complex, ...]]:
    """conftest.random_spec written as a coefficient file; returns (path, coefficients)."""
    coeffs = random_spec(np.random.default_rng(seed), n).coeffs
    doc = {"coefficients": [[c.real, c.imag] for c in coeffs]}
    return write_spec(tmp_path, doc, f"n{n}.json"), coeffs


class TestRender:
    def test_sorted_keys_and_newline(self):
        text = render_report({"b": 1, "a": [1.5, True, None], "c": {"y": 0.1, "x": "s"}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        parsed = json.loads(text)
        assert parsed["a"] == [1.5, True, None]

    def test_floats_round_trip_exactly(self):
        values = [0.1, 1 / 3, 0.6, math.sqrt(2), 1e-17, 123456.789]
        parsed = json.loads(render_report({"v": values}))
        assert parsed["v"] == values


class TestDistill:
    def test_worked_spec_report(self, capsys, worked_path):
        code, out = run_cli(capsys, "distill", worked_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert doc["min_index"] == 3
        assert doc["scheme"] == "abstract"
        assert doc["report_schema"] == 3
        assert doc["success_probability_analytic"] == pytest.approx(0.6, abs=1e-7)
        assert doc["success_probability_exact"] == pytest.approx(
            doc["success_probability_analytic"], abs=1e-10
        )
        assert doc["fidelity_with_w"] == pytest.approx(1.0, abs=1e-12)
        fired = {b["fired"]: b["probability"] for b in doc["branches"]}
        assert fired[None] == doc["success_probability_exact"]
        assert fired[1] == pytest.approx(0.3, abs=1e-7)
        assert fired[2] == pytest.approx(0.1, abs=1e-7)
        # one row per reachable outcome: success, then the fired parties ascending
        assert [b["fired"] for b in doc["branches"]] == [None, 1, 2]
        assert all(b.keys() == {"fired", "probability"} for b in doc["branches"])

    def test_zero_coefficient_exits_2(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"coefficients": [[1, 0], [0, 0]]})
        assert main(["distill", path]) == 2

    def test_uniform_spec(self, capsys, tmp_path):
        amp = 1 / math.sqrt(3)
        path = write_spec(tmp_path, {"coefficients": [[amp, 0]] * 3})
        code, out = run_cli(capsys, "distill", path)
        assert code == 0
        assert json.loads(out)["success_probability_exact"] == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_rejected_then_rescaled(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"coefficients": [[1, 0], [1, 0]]})
        assert main(["distill", path]) == 2
        capsys.readouterr()
        code, out = run_cli(capsys, "distill", path, "--allow-unnormalized")
        assert code == 0
        doc = json.loads(out)
        assert doc["normalization_factor"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert doc["success_probability_exact"] == pytest.approx(1.0, abs=1e-10)

    def test_normalize_flag_in_file(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"coefficients": [[3, 0], [4, 0]], "normalize": True})
        code, out = run_cli(capsys, "distill", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["normalization_factor"] == pytest.approx(0.2, abs=1e-12)
        assert doc["success_probability_exact"] == pytest.approx(2 * 0.36, abs=1e-10)

    @pytest.mark.parametrize(
        "doc",
        [
            {"coefficients": [[1.0, 0]]},
            {"coefficients": "nope"},
            {"coefficients": [[1, 0], [0, "x"]]},
            {"coefficients": [[1, 0], [0]]},
            {"no_coefficients": []},
            # json.dumps writes NaN, Infinity and -Infinity tokens
            {"coefficients": [[0.6, 0], [True, 0.8]]},
            {"coefficients": [[0.6, 0], ["0.8", 0]]},
            {"coefficients": [[0.6, 0], [[0.8], 0]]},
            {"coefficients": [[0.6, 0], None]},
            {"coefficients": [[0.6, 0], [math.nan, 0.8]]},
            {"coefficients": [[0.6, 0], [0, math.inf]]},
            {"coefficients": [[0.6, 0], [-math.inf, 0]]},
        ],
    )
    def test_malformed_specs_exit_2(self, tmp_path, doc):
        assert main(["distill", write_spec(tmp_path, doc)]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["distill", str(path)]) == 2

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["distill", str(tmp_path / "absent.json")]) == 1

    def test_out_file(self, capsys, worked_path, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["distill", worked_path, "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["fidelity_with_w"] == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, capsys, worked_path):
        _, first = run_cli(capsys, "distill", worked_path)
        _, second = run_cli(capsys, "distill", worked_path)
        assert first == second


class TestCavity:
    def test_worked_spec_report(self, capsys, worked_path):
        code, out = run_cli(capsys, "cavity", worked_path, "--epsilon", "1", "--omega", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["scheme"] == "cavity"
        assert doc["report_schema"] == 3
        assert doc["jc_params"] == {"omega": 50.0, "epsilon": 1.0}
        dts = [s["delta_t"] for s in doc["steps"]]
        assert [s["user"] for s in doc["steps"]] == [1, 2]
        assert dts[0] == pytest.approx(0.8860771, abs=1e-6)
        assert dts[1] == pytest.approx(0.6154797, abs=1e-6)
        assert doc["success_probability_exact"] == pytest.approx(0.6, abs=1e-7)
        assert doc["fidelity_with_w"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_exits_2(self, worked_path):
        assert main(["cavity", worked_path, "--epsilon", "0"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cavity", "--epsilon", "0"], "coupling epsilon must be > 0, got 0.0"),
            (["cavity", "--epsilon", "-2"], "coupling epsilon must be > 0, got -2.0"),
            (["cavity", "--fock", "0"], "fock_cutoff must be >= 1, got 0"),
            (["sample", "--scheme", "cavity", "--epsilon", "0"], "coupling epsilon must be > 0, got 0.0"),
            (["sample", "--scheme", "cavity", "--fock", "0"], "fock_cutoff must be >= 1, got 0"),
            # both flags invalid: the coupling is named, as JCParams checks it first
            (["cavity", "--epsilon", "0", "--fock", "0"], "coupling epsilon must be > 0, got 0.0"),
            (["cavity", "--epsilon", "nan", "--fock", "0"], "epsilon must be finite"),
            # the abstract scheme reads no JC flag, but sample validates them all
            (["sample", "--epsilon", "nan", "--fock", "0"], "epsilon must be finite"),
            (["sample", "--epsilon", "0"], "coupling epsilon must be > 0, got 0.0"),
            (["sample", "--fock", "0"], "fock_cutoff must be >= 1, got 0"),
            # couplings so small that an interaction time or omega * sum(dt) overflows
            (
                ["sample", "--scheme", "cavity", "--trials", "1000", "--epsilon", "5e-324"],
                tiny_coupling(5e-324),
            ),
            (["cavity", "--epsilon", "5e-324"], tiny_coupling(5e-324)),
            (["cavity", "--epsilon", "1e-308"], tiny_coupling(1e-308)),
            (["cavity", "--epsilon", "1e-300", "--omega", "1e9"], tiny_coupling(1e-300, 1e9)),
            # each dt is finite, their sum is not
            (["cavity", "--epsilon", "5e-309"], tiny_coupling(5e-309)),
            (["sample", "--scheme", "cavity", "--epsilon", "5e-309"], tiny_coupling(5e-309)),
        ],
    )
    def test_bad_jc_flags_exit_2(self, capsys, worked_path, argv, message):
        # JCParams checks --epsilon and --omega, then the CLI checks --fock;
        # jc_steps checks the interaction times they give
        assert main([argv[0], worked_path, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"wdistill: invalid input: {message}\n"

    def test_ramsey_angle_overflow_over_many_parties_exits_2(self, capsys):
        # 63 passes of dt ~ 1e300 each: omega * sum(dt) overflows at omega = 1e8
        assert main(["cavity", RANDOM64, "--epsilon", "1e-300", "--omega", "1e8"]) == 2
        assert capsys.readouterr().err == f"wdistill: invalid input: {tiny_coupling(1e-300, 1e8)}\n"

    def test_probabilities_independent_of_omega(self, capsys, worked_path):
        _, out_a = run_cli(capsys, "cavity", worked_path, "--omega", "50")
        _, out_b = run_cli(capsys, "cavity", worked_path, "--omega", "9.5")
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        assert doc_a["success_probability_exact"] == pytest.approx(
            doc_b["success_probability_exact"], abs=1e-12
        )
        for ba, bb in zip(doc_a["branches"], doc_b["branches"]):
            assert ba["fired"] == bb["fired"]
            assert ba["probability"] == pytest.approx(bb["probability"], abs=1e-12)
        assert doc_a["steps"] == doc_b["steps"]  # interaction times carry no omega

    @pytest.mark.parametrize("argv", [["cavity"], ["sample", "--scheme", "cavity"]])
    def test_fock_cutoff_changes_no_byte(self, capsys, argv):
        # a cavity never holds two photons: --fock is validated, and read by nothing
        path = os.path.join(GOLDEN, "worked.json")
        _, low = run_cli(capsys, argv[0], path, *argv[1:], "--fock", "1")
        _, high = run_cli(capsys, argv[0], path, *argv[1:], "--fock", "7")
        assert low and low == high

    def test_agrees_with_distill(self, capsys, worked_path):
        _, out_d = run_cli(capsys, "distill", worked_path)
        _, out_c = run_cli(capsys, "cavity", worked_path)
        p_d = json.loads(out_d)["success_probability_exact"]
        p_c = json.loads(out_c)["success_probability_exact"]
        assert abs(p_d - p_c) <= 1e-10


class TestSample:
    def test_worked_spec(self, capsys, worked_path):
        code, out = run_cli(
            capsys, "sample", worked_path, "--trials", "100000", "--seed", "42"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["empirical_p"] - 0.6) <= 4 * math.sqrt(0.6 * 0.4 / 100_000)
        lo, hi = doc["wilson_interval"]
        assert lo <= doc["empirical_p"] <= hi
        assert doc["report_schema"] == 3
        assert sum(row["count"] for row in doc["histogram"]) == 100_000
        assert [row["fired"] for row in doc["histogram"]] == [None, 1, 2]
        assert doc["histogram"][0]["count"] == doc["successes"]
        assert doc["seed"] == 42

    def test_single_trial(self, capsys, worked_path):
        code, out = run_cli(capsys, "sample", worked_path, "--trials", "1", "--seed", "0")
        assert code == 0
        assert json.loads(out)["empirical_p"] in (0.0, 1.0)

    def test_histogram_lists_only_outcomes_that_occurred(self, capsys):
        # one trial each: seed 1 fails at party 2's mode, seed 3 at party 1's
        path = os.path.join(GOLDEN, "worked.json")
        for seed, fired in ((0, None), (1, 2), (3, 1)):
            _, out = run_cli(capsys, "sample", path, "--trials", "1", "--seed", str(seed))
            assert json.loads(out)["histogram"] == [{"fired": fired, "count": 1}]

    def test_byte_identical_reruns(self, capsys, worked_path):
        args = ("sample", worked_path, "--trials", "5000", "--seed", "9")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_cavity_scheme(self, capsys, worked_path):
        code, out = run_cli(
            capsys, "sample", worked_path, "--trials", "20000", "--seed", "3",
            "--scheme", "cavity",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scheme"] == "cavity"
        assert doc["jc_params"] == {"omega": 50.0, "epsilon": 1.0}
        assert abs(doc["empirical_p"] - 0.6) <= 4 * math.sqrt(0.6 * 0.4 / 20_000)

    def test_bad_trials_exits_1(self, worked_path):
        assert main(["sample", worked_path, "--trials", "0"]) == 1


class TestSweep:
    def test_header_and_rows(self, capsys):
        code, out = run_cli(capsys, "sweep", "--n", "3", "--steps", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "min_coeff_sq,analytic_p,exact_p"
        assert len(lines) == 6
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        # uniform endpoint: m = 1/3 gives probability 1
        assert rows[-1][0] == pytest.approx(1 / 3, abs=1e-15)
        assert rows[-1][1] == pytest.approx(1.0, abs=1e-12)
        # the m = 0.2 row reproduces the worked three-party probability
        assert rows[2][0] == pytest.approx(0.2, abs=1e-15)
        assert rows[2][1] == pytest.approx(0.6, abs=1e-12)
        for m, analytic, exact in rows:
            assert abs(exact - analytic) <= 1e-10
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)

    def test_trailing_newline_and_separators(self, capsys):
        _, out = run_cli(capsys, "sweep", "--n", "2", "--steps", "2")
        assert out.endswith("\n") and "\r" not in out

    def test_bad_flags_exit_1(self):
        assert main(["sweep", "--n", "1", "--steps", "5"]) == 1
        assert main(["sweep", "--n", "3", "--steps", "1"]) == 1

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "4", "--steps", "3", "--out", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("min_coeff_sq,analytic_p,exact_p\n")


class TestWState:
    def test_three_party_table(self, capsys):
        code, out = run_cli(capsys, "wstate", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert set(lines) == {"001 0.57735027", "010 0.57735027", "100 0.57735027"}

    def test_two_party_amplitudes(self, capsys):
        _, out = run_cli(capsys, "wstate", "--n", "2")
        assert all(line.endswith("0.70710678") for line in out.splitlines())

    def test_rejects_single_party(self):
        assert main(["wstate", "--n", "1"]) == 1

    def test_beyond_the_old_dense_cap(self, capsys):
        code, out = run_cli(capsys, "wstate", "--n", "25")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0" * 24 + "1 0.20000000"
        assert lines[-1] == "1" + "0" * 24 + " 0.20000000"
        assert len(lines) == 25


class TestLargeN:
    """Sizes the dense engine refused (N=11 exceeded its 2^20-amplitude cap)."""

    @pytest.mark.parametrize("n", [11, 2000])
    @pytest.mark.parametrize("command", [["distill"], ["cavity", "--fock", "3"]])
    def test_exact_report(self, capsys, tmp_path, n, command):
        path, coeffs = random_spec_file(tmp_path, n, seed=n)
        code, out = run_cli(capsys, command[0], path, *command[1:])
        assert code == 0
        doc = json.loads(out)
        # every party but the minimal one can fail, and success is reachable
        assert len(doc["branches"]) == n
        # each outcome is one row of fixed size: the report is O(N)
        assert len(out) < 256 * n
        analytic = n * min(abs(c) for c in coeffs) ** 2
        assert abs(doc["success_probability_exact"] - analytic) <= 1e-10
        assert abs(doc["fidelity_with_w"] - 1.0) <= 1e-12

    @pytest.mark.parametrize("scheme", ["abstract", "cavity"])
    def test_sample(self, capsys, tmp_path, scheme):
        path, _ = random_spec_file(tmp_path, 2000, seed=7)
        code, out = run_cli(capsys, "sample", path, "--trials", "100", "--scheme", scheme)
        assert code == 0
        assert sum(row["count"] for row in json.loads(out)["histogram"]) == 100


class TestUnderflow:
    """|c_2| = 1e-170: |c_2|^2 underflows to 0, below any representable probability."""

    @pytest.mark.parametrize(
        "argv", [["distill"], ["cavity"], ["sample", "--trials", "10"], ["sample", "--scheme", "cavity"]]
    )
    def test_exits_2_naming_the_floor(self, capsys, tmp_path, argv):
        path = write_spec(tmp_path, {"coefficients": [[1.0, 0.0], [1e-170, 0.0]]})
        assert main([argv[0], path, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "1e-170" in err and "2.2e-162" in err


class TestIngestRange:
    """Coefficients anywhere in the double range ingest or exit 2, never a traceback."""

    def test_integer_beyond_the_double_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"coefficients": [[1, 0], [1' + "0" * 400 + ", 0]]}", encoding="utf-8")
        assert main(["distill", str(path)]) == 2
        assert "coefficient 1: expected a [re, im] pair of finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("mag", [1e200, 1e-200])
    def test_extreme_magnitudes_normalize(self, capsys, tmp_path, mag):
        path = write_spec(tmp_path, {"coefficients": [[mag, 0], [mag, 0]], "normalize": True})
        code, out = run_cli(capsys, "distill", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["normalization_factor"] == pytest.approx(1 / (mag * math.sqrt(2)), rel=1e-15)
        assert doc["success_probability_exact"] == pytest.approx(1.0, abs=1e-15)
        assert doc["fidelity_with_w"] == pytest.approx(1.0, abs=1e-15)

    def test_invalid_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"coefficients": [[1, 0], [0, 1]]}\xff')
        assert main(["distill", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"wdistill: invalid spec: {path} is not valid UTF-8: ")

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"coefficients": ' + "[" * 10**5 + "]" * 10**5 + "}", encoding="utf-8")
        assert main(["distill", str(path)]) == 2
        assert capsys.readouterr().err == f"wdistill: invalid spec: {path} nests JSON too deeply to parse\n"

    def test_zero_message_only_for_an_all_zero_file(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"coefficients": [[0, 0], [0.0, -0.0]], "normalize": True})
        assert main(["distill", path]) == 2
        assert "all coefficients are zero" in capsys.readouterr().err

    def test_unrescalable_subnormal_exits_2(self, capsys, tmp_path):
        # 1 / (5e-324 * sqrt 2) is beyond the largest double
        path = write_spec(tmp_path, {"coefficients": [[5e-324, 0], [5e-324, 0]], "normalize": True})
        assert main(["distill", path]) == 2
        assert "too small to rescale" in capsys.readouterr().err


class TestCavityRange:
    """The cavity scheme at any ratio min|c_i| / |c_k| down to 1e-150: keep is the
    ratio itself, so no relative error of size ulp / ratio reaches the fidelity."""

    @pytest.mark.parametrize("ratio", [1e-11, 1e-15, 1e-100, 1e-150])
    def test_small_ratio_meets_both_cross_checks(self, capsys, tmp_path, ratio):
        doc = {"coefficients": [[0.6, 0.8], [0.0, ratio], [-1.0, 0.0]], "normalize": True}
        code, out = run_cli(capsys, "cavity", write_spec(tmp_path, doc))
        assert code == 0
        report = json.loads(out)
        analytic = 3 * (ratio / math.sqrt(2)) ** 2
        assert report["success_probability_analytic"] == pytest.approx(analytic, rel=1e-14)
        # relative: PROB_MATCH_TOL is absolute, and the probability is ~ratio^2;
        # cos(acos r) would put a relative error of ~2e-16 / ratio on it
        assert report["success_probability_exact"] == pytest.approx(analytic, rel=1e-12)
        assert abs(1.0 - report["fidelity_with_w"]) <= FIDELITY_TOL


class TestExitCodes:
    def test_unknown_command_exits_1(self):
        assert main(["bogus"]) == 1

    def test_unknown_flag_exits_1(self, worked_path):
        assert main(["distill", worked_path, "--frobnicate"]) == 1

    def test_numerical_failure_exits_3(self, monkeypatch, worked_path):
        from wdistill import cli
        from wdistill.errors import ToleranceError

        def boom(spec):
            raise ToleranceError("synthetic breach")

        monkeypatch.setattr(cli, "run_exact", boom)
        assert main(["distill", worked_path]) == 3

    def test_emitted_codes_are_in_contract(self, tmp_path, worked_path):
        observed = {
            main(["distill", worked_path]),
            main(["distill", str(tmp_path / "none.json")]),
            main(["distill", write_spec(tmp_path, {"coefficients": [[1, 0], [0, 0]]})]),
            main(["sweep", "--n", "0", "--steps", "2"]),
        }
        assert observed <= {0, 1, 2, 3}


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(WORKED_FILE), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "wdistill.cli", "wstate", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.70710678" in proc.stdout
