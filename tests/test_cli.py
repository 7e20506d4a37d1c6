import hashlib
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from d1q3rv import simulator
from d1q3rv.cli import BENCHMARK_ROWS, main, parse_number
from d1q3rv.scheme import SchemeParameters


def test_parse_number_accepts_fractions_and_decimals():
    assert parse_number("2/3") == 2.0 / 3.0
    assert parse_number("0.25") == 0.25
    assert parse_number("-4/13") == -4.0 / 13.0
    assert parse_number("1e-3") == 1e-3
    with pytest.raises(Exception):
        parse_number("abc")
    with pytest.raises(Exception):
        parse_number("1/0")
    with pytest.raises(Exception):
        parse_number("1e400")


def test_matrix_prints_both_routes(capsys):
    assert main(["matrix", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert "matrix product" in out and "closed form" in out
    m = re.search(r"max discrepancy: ([0-9.e+-]+)", out)
    assert float(m.group(1)) < 1e-14
    assert "column sums" in out
    assert out.count("0.208333333333") >= 6


def test_matrix_identity_at_zero_rates(capsys):
    assert main(["matrix", "--V", "0.9", "--u", "0.3", "--s", "0", "--sp", "0",
                 "--alpha", "1.4"]) == 0
    out = capsys.readouterr().out
    assert "non-negative: yes" in out


def usage_error(argv, capsys) -> str:
    """Run argv, a usage error: exit 2, nothing on stdout, one 'error: ' line on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and err.count("\n") == 1 and err.startswith("error: "), err
    return err


def test_matrix_missing_required_flag_exits_2(capsys):
    err = usage_error(["matrix", "--u", "0", "--s", "1", "--sp", "1", "--alpha", "0"], capsys)
    assert "--V" in err


def test_unknown_flag_exits_2(capsys):
    err = usage_error(["check", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                       "--frobnicate", "1"], capsys)
    assert err == "error: unrecognized arguments: --frobnicate 1\n"


def test_check_stable_point_exit_0(capsys):
    assert main(["check", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("stable") == 3
    assert "nine" in out and "reduced" in out and "entries" in out


def test_check_unstable_point_exit_1(capsys):
    assert main(["check", "--V", "0.25", "--u", "0", "--s", "1.6", "--sp", "1.3",
                 "--alpha", "4/13"]) == 1
    assert "unstable" in capsys.readouterr().out


OVERFLOW = ["--V", "0", "--u", "0", "--s", "0", "--sp=-1e308", "--alpha=-1e308"]
DIVERGENT = ["--V", "0.9", "--u", "0.9", "--s", "1.99", "--sp", "0.05", "--alpha=-1.9",
             "--ncells", "20", "--steps", "2000"]


def run_without_runtime_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


def test_check_nan_entry_exit_1(capsys):
    # the overflowing product makes three closed-form entries NaN
    assert run_without_runtime_warnings(["check", *OVERFLOW]) == 1
    out, err = capsys.readouterr()
    assert out.count("unstable") == 3
    assert "RuntimeWarning" not in err and err.count("note:") == 1


HUGE_SHIFT = ["--V", "1e308", "--s", "1", "--sp", "1", "--alpha", "0", "--ncells", "4",
              "--steps", "3"]


@pytest.mark.parametrize("argv", [["matrix", *OVERFLOW], ["simulate", *DIVERGENT],
                                  ["simulate", *HUGE_SHIFT]])
def test_non_finite_values_get_one_note_line(argv, capsys):
    assert run_without_runtime_warnings(argv) == 0
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and err.count("note: some values") == 1
    # the simulated weights are negative too, which is a note of its own
    assert err.count("note:") == err.count("\n") == (2 if argv[0] == "simulate" else 1)


def test_simulate_run_that_is_nan_throughout_prints_nan_diagnostics(capsys):
    assert run_without_runtime_warnings(["simulate", *HUGE_SHIFT]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mass drift: nan" in out and "undershoot nan" in out[0]
    assert out[-1] == "nan,nan,nan,nan,nan,nan,nan"


def test_simulate_overflowed_initial_mass_prints_nan_drift(capsys):
    # cells at 1e308 sum to an infinite mass, so no drift from it is defined
    argv = ["simulate", "--V", "0.25", "--s", "1", "--sp", "1", "--alpha", "0",
            "--high", "1e308", "--steps", "50"]
    assert run_without_runtime_warnings(argv) == 0
    out, err = capsys.readouterr()
    assert "mass drift: nan" in out.splitlines()
    assert out.splitlines()[-1].split(",")[3] == "nan"
    assert err.count("note:") == err.count("\n") == 1


def test_check_interval_mode(capsys):
    assert main(["check", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1"]) == 0
    out = capsys.readouterr().out
    assert "gamma interval" in out
    assert "[-1.25" in out and "alpha interval" in out


def test_check_interval_mode_empty_exit_1(capsys):
    assert main(["check", "--V", "0.25", "--u", "0", "--s", "1.6", "--sp", "1.3"]) == 1
    assert "empty" in capsys.readouterr().out


def test_check_interval_with_nan_bounds_states_no_comparison(capsys):
    assert run_without_runtime_warnings(["check", "--V", "1e308", "--u", "1e308",
                                         "--s", "1", "--sp", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "gamma interval: empty (lower nan, upper nan)\n"
    assert err.count("note:") == err.count("\n") == 1


def test_check_alpha_unconstrained_when_second_rate_zero(capsys):
    assert main(["check", "--V", "0", "--u", "0", "--s", "1", "--sp", "0"]) == 0
    # -u * s * V is -0.0 here; the pinned value prints as 0
    assert capsys.readouterr().out == ("gamma interval: [0, 0]\n"
                                       "alpha-unconstrained (s' = 0 pins gamma at 0)\n")


def test_check_says_why_a_pinned_gamma_outside_the_interval_exits_1(capsys):
    # the interval is nonempty within TAU_STAB, but s' = 0 pins gamma at -1e-6, below it
    assert main(["check", "--V", "1e6", "--u", "1e5", "--s", "1e-17", "--sp", "0"]) == 1
    assert capsys.readouterr().out == (
        "gamma interval: [9.9999999999999998e-13, -5.9999950000000006e-12]\n"
        "alpha-unconstrained (s' = 0 pins gamma at -9.9999999999999995e-07), "
        "outside the gamma interval\n")


def test_check_negative_zero_rates_print_positive_zeros(capsys):
    # "-0" parses exactly, as the rational 0, so s is +0.0 and the pinned s' = 0 path
    # prints as for "0"; the chain's tie at -0.0 and +0.0 is pinned in test_stability
    assert main(["check", "--V", "0", "--u", "0", "--s", "-0", "--sp", "0"]) == 0
    assert capsys.readouterr().out == ("gamma interval: [0, 0]\n"
                                       "alpha-unconstrained (s' = 0 pins gamma at 0)\n")


def test_region_writes_files_and_summary(tmp_path, capsys):
    csv = tmp_path / "region.csv"
    svg = tmp_path / "region.svg"
    assert main(["region", "--V", "2/3", "--u-list", "0", "--grid", "12",
                 "--out-csv", str(csv), "--out-svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert csv.exists() and svg.exists()
    assert re.search(r"feasible=\d+", out)
    assert csv.read_text().startswith("V,u,s,s_prime,class")
    assert svg.read_text().startswith("<?xml")


def test_region_multiple_u_values_get_suffixed_files(tmp_path):
    csv = tmp_path / "r.csv"
    assert main(["region", "--V", "0.5", "--u-list", "0,0.5", "--grid", "8",
                 "--out-csv", str(csv)]) == 0
    assert (tmp_path / "r_u0.csv").exists() and (tmp_path / "r_u1.csv").exists()


def test_region_default_u_list_summary_lines(capsys):
    assert main(["region", "--V", "0.5", "--grid", "8"]) == 0
    out = capsys.readouterr().out
    assert len([ln for ln in out.splitlines() if "feasible=" in ln]) == 6


def test_region_zero_velocity_prints_and_writes_positive_zeros(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    assert main(["region", "--V", "0", "--grid", "3", "--out-csv", str(csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(ln.startswith("V=0 u=0: ") for ln in lines)
    for i in range(6):
        rows = (tmp_path / f"r_u{i}.csv").read_text().splitlines()[1:]
        assert len(rows) == 9 and {row.split(",")[1] for row in rows} == {"0"}


def test_region_overflowing_default_u_list_exits_4(capsys):
    assert main(["region", "--V", "1e308", "--grid", "3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: V=1e+308 overflows its default u_list, got (-inf, ")


def test_region_unwritable_sink_exits_3(tmp_path, capsys):
    target = tmp_path / "nosuchdir" / "x.csv"
    assert main(["region", "--V", "0.5", "--u-list", "0", "--grid", "8",
                 "--out-csv", str(target)]) == 3


@pytest.mark.parametrize("grid", ["1", "0", "-5"])
def test_region_grid_below_two_exits_2(grid, capsys):
    err = usage_error(["region", "--V", "0.5", "--grid", grid], capsys)
    assert err.startswith("error: argument --grid: must be at least 2")


def test_simulate_stdout_diagnostics(capsys):
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0", "--profile", "step", "--ncells", "50",
                 "--steps", "100"]) == 0
    out = capsys.readouterr().out
    assert "R non-negative: yes" in out
    assert "OSCILLATIONS" not in out
    assert "min_f_over_run" in out
    drift = float(re.search(r"mass drift: ([0-9.e+-]+)", out).group(1))
    assert drift <= 1e-12


def test_simulate_flags_oscillations(capsys):
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1.9", "--sp", "1.4",
                 "--alpha", "0.14285714285714302", "--profile", "step",
                 "--ncells", "200", "--steps", "1000"]) == 0
    out = capsys.readouterr().out
    assert "R non-negative: no" in out
    assert "OSCILLATIONS" in out


def test_simulate_rounding_at_large_densities_is_not_flagged(capsys):
    # a constant profile under a non-negative R: the undershoot is rounding of 1e13
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0", "--ncells", "50", "--steps", "200",
                 "--low", "1e13", "--high", "1e13"]) == 0
    out = capsys.readouterr().out
    assert "R non-negative: yes" in out and "OSCILLATIONS" not in out


def test_simulate_smooth_profile_not_flagged(capsys):
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1.9", "--sp", "1.4",
                 "--alpha", "0.14285714285714302", "--profile", "smooth",
                 "--ncells", "200", "--steps", "1000"]) == 0
    assert "OSCILLATIONS" not in capsys.readouterr().out


def test_simulate_writes_diagnostics_and_snapshots(tmp_path, capsys):
    out_csv = tmp_path / "diag.csv"
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0", "--ncells", "20", "--steps", "10",
                 "--snap-every", "5", "--out", str(out_csv)]) == 0
    assert out_csv.exists()
    snap = tmp_path / "diag.snapshots.csv"
    assert snap.exists()
    assert snap.read_text().startswith("step,cell,x,f1,f2,f3,rho")
    capsys.readouterr()
    # without --snap-every only the diagnostics are written
    alone = tmp_path / "alone.csv"
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0", "--ncells", "20", "--steps", "10", "--out", str(alone)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {alone}\n")
    assert alone.read_bytes() == out_csv.read_bytes()
    assert not (tmp_path / "alone.snapshots.csv").exists()


def test_simulate_records_snapshots_only_when_it_writes_them(tmp_path, monkeypatch, capsys):
    run, asked = simulator.run, []

    def recording_run(*args):
        asked.append(args[-1])
        return run(*args)

    monkeypatch.setattr(simulator, "run", recording_run)
    argv = ["simulate", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1", "--alpha", "0",
            "--ncells", "20", "--steps", "10", "--snap-every", "5"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-2].startswith("min_f_over_run,")
    assert err == "note: --snap-every records no snapshots without --out\n"
    assert main(argv[:-2]) == 0   # the note changes neither stdout nor the exit code
    assert capsys.readouterr() == (out, "")
    assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert asked == [0, 0, 5]
    assert (tmp_path / "d.snapshots.csv").exists()


def test_simulate_negative_weights_give_one_note_line(capsys):
    assert main(["simulate", "--V", "0.9", "--u", "0.9", "--s", "1.99", "--sp", "0.05",
                 "--alpha=-1.9", "--ncells", "20", "--steps", "10"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("note: equilibrium weights are negative")
    assert "UserWarning" not in err and "simulator.py" not in err


def test_simulate_negative_density_exits_4(capsys):
    assert main(["simulate", "--V", "0.25", "--u", "0", "--s", "1", "--sp", "1",
                 "--alpha", "0", "--low", "-1"]) == 4


@pytest.mark.parametrize("argv", [
    ["region", "--V", "0.5", "--grid", "2000000"],
    ["simulate", "--V", "0.25", "--s", "1", "--sp", "1", "--alpha", "0",
     "--ncells", "2000000000000", "--steps", "1"],
])
def test_request_too_large_for_memory_exits_4_with_one_line(argv, capsys):
    # NumPy refuses these allocations (terabytes) at once, so nothing large is made.
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    assert err.startswith("error: not enough memory: Unable to allocate "), err


def test_reproduce_report_shape(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    result_lines = [ln for ln in out.splitlines() if ln.strip().startswith("RESULT")]
    assert len(result_lines) == 12
    assert out.count("DISCREPANCY") == 2
    assert "-0.15 < 0" in out
    assert "2 of 4 rows disagree" in out


def test_reproduce_stdout_is_pinned(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1eda8c588bb36a1a84a438d9769c7b967b14e15278dd06466d5a0ac6a24957c5")


# The simulate files' sha256 under each gemm summation order (conftest.gemm_order).
SIMULATE_DIGESTS = {
    "fused": {
        "d.csv": "489f3550378dad230e6dfa5cfcbd66706cfe474aa14d9905a67206ce79ecae63",
        "d.snapshots.csv": "ff550d0a1f71695a284858c4fcae3b9f71a3140deba7dc8bacea58715ee49559",
    },
    "plain": {
        "d.csv": "a9ed503e4f6d962071fc8d7825732b1baae8954ddaaa900ec28fdaf360dc6c19",
        "d.snapshots.csv": "315784bb737f6c6da62abffa8fda125a3d398e36b19d5a92eccb8bd09b44f38c",
    },
}


def test_simulate_output_files_are_pinned(tmp_path, capsys, gemm_order):
    out_csv = tmp_path / "d.csv"
    assert main(["simulate", "--V", "0.25", "--u", "0.25", "--s", "1.6", "--sp", "1.3",
                 "--alpha=-0.17548076923076938", "--profile", "hat", "--ncells", "37",
                 "--steps", "150", "--snap-every", "7", "--out", str(out_csv)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("d.csv", "d.snapshots.csv")}
    assert digests == SIMULATE_DIGESTS.get(gemm_order), (gemm_order, digests)


def test_reproduce_batched_results_match_serial_runs(capsys):
    assert main(["reproduce"]) == 0
    got = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("  RESULT")]
    expect = []
    for _, *fields in BENCHMARK_ROWS:
        p = SchemeParameters(*(float(Fraction(v)) for v in fields))
        for kind in (simulator.SMOOTH, simulator.HAT, simulator.STEP):
            d = simulator.run(simulator.InitialProfile(kind=kind), simulator.default_grid(), p,
                              1000).diagnostics
            expect.append(f"  RESULT {kind:6s}: undershoot={d.undershoot:.6e} "
                          f"overshoot={d.overshoot:.6e} min_f={d.min_f_over_run:.6e} "
                          f"l1_error={d.l1_error:.6e}")
    assert got == expect


SCHEME = ["--V", "0.25", "--s", "1", "--sp", "1", "--alpha", "0"]


@pytest.mark.parametrize("argv,flag", [
    (["simulate", *SCHEME, "--ncells", "0"], "--ncells"),
    (["simulate", *SCHEME, "--ncells", "-3"], "--ncells"),
    # R does not depend on the lattice velocity, so no subcommand takes it
    (["simulate", *SCHEME, "--lambda", "1"], "--lambda"),
    (["check", *SCHEME, "--lambda", "1"], "--lambda"),
    (["matrix", *SCHEME, "--lambda", "1"], "--lambda"),
    (["simulate", *SCHEME, "--steps", "-1"], "--steps"),
    (["simulate", *SCHEME, "--snap-every", "-2"], "--snap-every"),
    (["region", "--V", "0.5", "--u-list", ""], "--u-list"),
    (["simulate", *SCHEME, "--profile", "smooth", "--width", "0"], "--width"),
    (["simulate", *SCHEME, "--profile", "hat", "--width", "-0.1"], "--width"),
])
def test_out_of_range_value_exits_2_with_one_line(argv, flag, capsys):
    err = usage_error(argv, capsys)
    if flag == "--lambda":
        assert err == "error: unrecognized arguments: --lambda 1\n"
    else:
        assert err.startswith(f"error: argument {flag}: must ")


@pytest.mark.parametrize("argv,err", [
    (["simulate", *SCHEME, "--steps", "x"], "error: argument --steps: invalid int value: 'x'\n"),
    (["region", "--V", "1/2", "--u-list", "0,abc"],
     "error: argument --u-list: not a comma-separated number list: '0,abc'\n"),
], ids=["int", "number-list"])
def test_malformed_value_names_the_expected_form(argv, err, capsys):
    assert usage_error(argv, capsys) == err


@pytest.mark.parametrize("argv", [
    ["check", "--V", "1e400", "--s", "1", "--sp", "1"],
    ["simulate", "--V", "1e400", "--s", "1", "--sp", "1", "--alpha", "0"],
])
def test_overflowing_number_exits_2(argv, capsys):
    err = usage_error(argv, capsys)
    assert err == "error: argument --V: out of floating-point range: '1e400'\n"


@pytest.mark.parametrize("argv, flag, value, code", [
    (["check", "--u", "0", "--s", "1", "--sp", "1", "--alpha", "0"], "--V", "-2/3", 0),
    (["check", "--V", "1/4", "--s", "8/5", "--sp", "4/5"], "--u", "-1/4", 1),
    (["check", "--V", "1/4", "--s", "1", "--sp", "1", "--alpha", "0"], "--u", "-.5e-1", 0),
    (["check", "--V", "1/4", "--u", "1/4", "--s", "8/5", "--sp", "4/5"], "--alpha", "-7/8", 0),
    (["check", "--V", "1/4", "--u", "0", "--s", "1", "--sp", "1"], "--alpha", "-5/4", 0),
    (["check", "--V", "1/4", "--u", "0", "--s", "1", "--sp", "1"], "--alpha", "-1e-2", 0),
    (["region", "--V", "2/3", "--grid", "21"], "--u-list", "-2/3,0", 0),
], ids=["V", "u", "u-dot", "alpha", "alpha-upwind", "alpha-exponent", "u-list"])
def test_negative_values_parse_in_both_spellings(argv, flag, value, code, capsys):
    # "--u -1/4" and "--u=-1/4" are one request; argparse alone reads a
    # leading "-" before a fraction or an exponent as the start of a flag
    outputs = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        assert main(argv + spelling) == code
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, code", [
    (["check", "--V", "1/4", "--u", "0", "--s", "3/2", "--sp", "1", "--alpha", "13/16"], 0),
    (["check", "--V", "1/4", "--s", "1", "--sp", "1", "--frobnicate", "1"], 2),
])
def test_python_dash_m_runs_the_cli(argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "d1q3rv", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    if code == 0:
        assert done.stdout.count(" stable ") == 3
    else:
        assert done.stdout == "" and done.stderr == "error: unrecognized arguments: --frobnicate 1\n"
