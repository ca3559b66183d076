import json
import math

import pytest

from seqdisc.cli import main


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "-o", str(out)])
    return code, out


def test_angle_scan_csv(tmp_path):
    code, out = run(tmp_path, "scan.csv", "angle-scan",
                    "--theta", str(math.pi / 12), "--epsilon", "0.179",
                    "--resolution", "40")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,phi,cost,residual_mass,bound_width,note"
    assert len(lines) == 41
    # phi = 0 carries no information: empty cost, populated note
    first = lines[1].split(",")
    assert first[1] == "0" and first[2] == "" and first[5] != ""


def test_angle_scan_is_deterministic(tmp_path):
    args = ("angle-scan", "--theta", "0.3", "--epsilon", "0.15", "--resolution", "30")
    _, a = run(tmp_path, "a.csv", *args)
    _, b = run(tmp_path, "b.csv", *args)
    assert a.read_bytes() == b.read_bytes()


def test_angle_scan_preset_multi_theta(tmp_path):
    code, out = run(tmp_path, "fig.csv", "angle-scan", "--preset", "fig1",
                    "--resolution", "25")
    assert code == 0
    thetas = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
    assert len(thetas) == 3


def test_cost_curve_csv(tmp_path):
    code, out = run(tmp_path, "curve.csv", "cost-curve",
                    "--theta", str(math.pi / 12),
                    "--epsilon-range", "0.1:0.3:4:log", "--resolution", "120")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("epsilon,neg_log_epsilon,cost_fbm,cost_ubm,"
                        "cost_lol,cost_gof,phi_opt")
    assert len(lines) == 5
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        # the optimized fixed angle never loses to the named fixed strategies
        assert vals[5] <= min(vals[2], vals[3]) + 1e-6


def test_cost_curve_rejects_biased_prior(tmp_path):
    code, _ = run(tmp_path, "x.csv", "cost-curve", "--theta", "0.3",
                  "--q1", "0.4", "--epsilon", "0.2")
    assert code == 2


def test_angle_scan_rejects_invalid_epsilon(tmp_path, capsys):
    # an invalid error bound is a usage error, not a failure to converge
    code, _ = run(tmp_path, "x.csv", "angle-scan", "--theta", "0.3", "--epsilon", "0.6",
                  "--resolution", "5")
    assert code == 2
    assert "error bound must lie in (0, min(q1, q2)) = (0, 0.5)" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0", "-0.1", "0.6", "nan"])
@pytest.mark.parametrize("command", ["strings", "simulate"])
@pytest.mark.parametrize("strategy", ["ubm", "lol", "fixed:0.6"])
def test_strings_and_simulate_reject_invalid_epsilon(tmp_path, capsys, command, strategy, eps):
    if command == "strings" and strategy == "lol":
        strategy = "fbm"  # LOL has no string set
    code, _ = run(tmp_path, "x.csv", command, "--theta", str(math.pi / 12),
                  "--strategy", strategy, f"--epsilon={eps}")
    assert code == 2
    assert "error bound must lie in (0, min(q1, q2)) = (0, 0.5)" in capsys.readouterr().err


def test_angle_scan_exits_3_when_no_angle_converges(tmp_path, capsys):
    # a two-point grid holds only the uninformative endpoints
    code, _ = run(tmp_path, "x.csv", "angle-scan", "--theta", "0.3", "--epsilon", "0.1",
                  "--resolution", "2")
    assert code == 3
    assert "no grid point converged over the scan range" in capsys.readouterr().err


def test_cost_curve_refines_from_an_anchor_when_no_grid_point_converges(tmp_path):
    # a two-point grid holds only the uninformative endpoints, but the FBM and
    # Helstrom angles converge, so the search refines from the better of them
    code, out = run(tmp_path, "x.csv", "cost-curve", "--theta", "0.2617993877991494",
                    "--epsilon", "0.179", "--resolution", "2")
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[5:] == ["2.4083758482755773", "0.44420166345373469"]


def test_strings_csv_and_aggregate(tmp_path):
    code, out = run(tmp_path, "s.csv", "strings", "--theta", str(math.pi / 12),
                    "--epsilon", "0.179", "--strategy", "fbm",
                    "--coverage", "1.0")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,string,n,prob,true_error,guess"
    labels = {line.split(",")[1] for line in lines[1:]}
    assert labels == {"2", "12", "112", "1112", "11112", "111112", "111111"}

    code, out = run(tmp_path, "agg.csv", "strings", "--theta", str(math.pi / 12),
                    "--epsilon", "0.179", "--strategy", "ubm", "--aggregate")
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(int(r[2]) % 2 == 0 for r in rows)


def test_strings_json_fixed_angle(tmp_path):
    code, out = run(tmp_path, "s.json", "strings", "--theta", "0.3",
                    "--epsilon", "0.15", "--strategy", "fixed:0.6",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload
    assert all(row["strategy"] == "fixed:0.6" for row in payload)
    probs = [row["prob"] for row in payload]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_optimize_csv(tmp_path):
    code, out = run(tmp_path, "opt.csv", "optimize", "--theta", str(math.pi / 12),
                    "--epsilon", "0.179", "--resolution", "200")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,epsilon,phi_opt,cost,bound_width"
    _, _, phi_opt, cost, _ = (float(v) for v in lines[1].split(","))
    assert 1.955 <= cost <= 2.055
    assert 0.0 < phi_opt < math.pi / 4


def test_simulate_json_reproducible(tmp_path):
    args = ("simulate", "--theta", str(math.pi / 12), "--epsilon", "0.179",
            "--strategy", "ubm", "--trials", "2000", "--seed", "7",
            "--format", "json")
    code, a = run(tmp_path, "sim_a.json", *args)
    assert code == 0
    _, b = run(tmp_path, "sim_b.json", *args)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["trials"] == 2000
    assert payload["mean_copies"] == pytest.approx(3.2, abs=0.2)
    assert payload["empirical_error"] <= 0.179 + 0.03


def test_simulate_csv_per_string(tmp_path):
    code, out = run(tmp_path, "sim.csv", "simulate", "--theta", str(math.pi / 12),
                    "--epsilon", "0.179", "--strategy", "fbm", "--trials", "500")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,string,count,errors,observed_error,observed_prob"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 500


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": [0.3], "epsilon": 0.2, "resolution": 30}))
    # explicit flag beats the config file's epsilon
    code, out = run(tmp_path, "merged.csv", "angle-scan",
                    "--config", str(cfg), "--epsilon", "0.25")
    assert code == 0
    assert len(out.read_text().splitlines()) == 31

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(tmp_path, "bad.csv", "angle-scan", "--config", str(bad),
                  "--theta", "0.3", "--epsilon", "0.2")
    assert code == 2


def test_svg_outputs(tmp_path):
    code, out = run(tmp_path, "scan.svg", "angle-scan", "--theta", "0.3",
                    "--epsilon", "0.2", "--resolution", "25", "--format", "svg")
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and "polyline" in text

    code, out = run(tmp_path, "sim.svg", "simulate", "--theta", "0.3",
                    "--epsilon-range", "0.1:0.25:3:lin", "--strategy", "ubm",
                    "--trials", "300", "--format", "svg")
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_exit_code_usage_errors(tmp_path):
    # missing epsilon
    code, _ = run(tmp_path, "x1.csv", "angle-scan", "--theta", "0.3")
    assert code == 2
    # theta out of range
    code, _ = run(tmp_path, "x2.csv", "optimize", "--theta", "1.2",
                  "--epsilon", "0.2")
    assert code == 2
    # malformed epsilon range
    code, _ = run(tmp_path, "x3.csv", "cost-curve", "--theta", "0.3",
                  "--epsilon-range", "0.1:0.3:log")
    assert code == 2
    # unknown strategy
    code, _ = run(tmp_path, "x4.csv", "strings", "--theta", "0.3",
                  "--epsilon", "0.2", "--strategy", "mystery")
    assert code == 2


def test_exit_code_io_error(tmp_path):
    code, _ = run(tmp_path, "no/such/dir/out.csv", "optimize", "--theta", "0.3",
                  "--epsilon", "0.2", "--resolution", "50")
    assert code == 4
