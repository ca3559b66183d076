import hashlib
import json
import math

import pytest

import seqdisc.cli
import seqdisc.montecarlo
import seqdisc.stringlab
from seqdisc import (
    DiscriminationProblem,
    StrategyKind,
    StrategySpec,
    enumerate_strings,
    optimize_angle,
    run_trials,
    scan_angles,
)
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


def test_simulate_exits_3_when_a_trial_passes_the_copy_cap(tmp_path, capsys, monkeypatch):
    # at eps = 1e-9 the longest of these 4,396 FBM trials takes 73 copies
    monkeypatch.setattr(seqdisc.montecarlo, "TRIAL_COPY_CAP", 72)
    code, out = run(tmp_path, "sim.json", "simulate", "--theta", repr(math.pi / 12),
                    "--epsilon", "1e-9", "--strategy", "fbm", "--trials", "4396", "--seed", "7")
    assert code == 3
    assert "seqdisc: trial exceeded 72 copies without reaching the bound" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_exits_3_when_no_string_can_stop(tmp_path, capsys):
    # at phi = 0 no outcome tells the states apart, so nothing ever stops
    code, out = run(tmp_path, "sim.json", "simulate", "--theta", repr(math.pi / 12),
                    "--epsilon", "0.1", "--strategy", "fixed:0.0", "--trials", "5000")
    assert code == 3
    assert ("seqdisc: no outcome string can stop within 1000000 copies at phi=0.0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_strings_exits_3_past_the_string_cap(tmp_path, capsys, monkeypatch):
    # UBM at eps = 0.179 walks 254 strings; under a cap of 253 the search fails
    # before it walks any, and before any output
    argv = ("strings", "--theta", repr(math.pi / 12), "--epsilon", "0.179", "--strategy", "ubm")
    monkeypatch.setattr(seqdisc.stringlab, "_MAX_STRINGS", 254)
    code, out = run(tmp_path, "ok.csv", *argv)
    assert code == 0 and out.exists()
    monkeypatch.setattr(seqdisc.stringlab, "_MAX_STRINGS", 253)
    code, out = run(tmp_path, "s.csv", *argv)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("seqdisc: the string search needs to walk more than 253 strings")
    assert "--coverage" in err and "--max-depth" in err
    assert not out.exists()


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


def _fmt(x) -> str:
    """The CLI's rule for one CSV value."""
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _reference_strings(theta, q1, eps, names, max_depth, fmt, aggregate) -> bytes:
    """`strings` output rendered row by row, through `_fmt`, from the string set's columns."""
    problem = DiscriminationProblem(theta=theta, q1=q1)
    header = ["strategy", "string", "n", "prob", "true_error", "guess"]
    rows = []
    for name in names:
        if name.startswith("fixed:"):
            spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=float(name[6:]))
        elif name == "gof":  # at the angle of `--resolution 200`
            spec = StrategySpec(StrategyKind.FIXED_ANGLE,
                                phi=optimize_angle(problem, eps, resolution=200)[0])
        else:
            spec = StrategySpec(StrategyKind[name.upper()])
        strings, _ = enumerate_strings(problem, spec, eps, 0.998, max_depth)
        labels = strings.labels.astype(str).tolist()
        ns, probs, errors = strings.n.tolist(), strings.prob.tolist(), strings.true_error.tolist()
        if not aggregate:
            rows += [[name, *row] for row in zip(labels, ns, probs, errors, strings.guess.tolist())]
            continue
        by_n = {}
        for n, prob, error in zip(ns, probs, errors):
            total, weighted = by_n.get(n, (0.0, 0.0))
            by_n[n] = (total + prob, weighted + prob * error)
        for n, (total, weighted) in sorted(by_n.items()):
            rows.append([name, f"len={n}", n, total, weighted / total if total else 0.0, ""])
    if fmt == "csv":
        text = "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
    else:
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2, sort_keys=True) + "\n"
    return text.encode()


# 7 rows a chunk puts chunk boundaries inside each strategy's rows
@pytest.mark.parametrize("chunk_rows", [None, 7])
@pytest.mark.parametrize("aggregate", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("names,q1,eps,max_depth", [
    (["fbm", "ubm", "fixed:0.7"], 0.5, 0.179, 64),
    (["fbm", "ubm", "fixed:0.7"], 0.5, 0.15, 64),
    (["fbm", "ubm", "fixed:0.7"], 0.3, 0.15, 64),
    # no UBM string stops within one copy: an empty table
    (["ubm"], 0.5, 0.01, 1),
    # 7,617 strings: many rows share each prob and true_error text
    (["fixed:0.6"], 0.5, 0.074, 64),
    # strings of up to 161 copies, in codes of four words
    (["fbm"], 0.5, 1e-20, 200),
    # pi/4 is the UBM angle: both strategies write the same row ends
    (["ubm", "fixed:0.7853981633974483", "ubm"], 0.5, 0.15, 64),
    # 158,744 strings with 39 distinct row ends
    (["ubm"], 0.5, 0.074, 64),
])
def test_strings_bytes_match_row_by_row_reference(tmp_path, monkeypatch, names, q1, eps, max_depth,
                                                  fmt, aggregate, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(seqdisc.cli, "_CHUNK_ROWS", chunk_rows)
    theta = math.pi / 12
    argv = ["strings", "--theta", repr(theta), "--q1", repr(q1), "--epsilon", repr(eps),
            "--max-depth", str(max_depth), "--format", fmt]
    for name in names:
        argv += ["--strategy", name]
    if aggregate:
        argv.append("--aggregate")
    code, out = run(tmp_path, f"s.{fmt}", *argv)
    assert code == 0
    expected = _reference_strings(theta, q1, eps, names, max_depth, fmt, aggregate)
    assert out.read_bytes() == expected


def test_strings_gof_is_enumerate_strings_at_the_optimal_angle(tmp_path):
    theta = math.pi / 12
    code, out = run(tmp_path, "gof.csv", "strings", "--theta", repr(theta), "--epsilon", "0.179",
                    "--strategy", "gof", "--resolution", "200")
    assert code == 0
    assert out.read_bytes() == _reference_strings(theta, 0.5, 0.179, ["gof"], 64, "csv", False)


def test_simulate_gof_is_run_trials_at_the_optimal_angle(tmp_path):
    problem = DiscriminationProblem(theta=math.pi / 12)
    code, out = run(tmp_path, "gof.json", "simulate", "--theta", repr(problem.theta),
                    "--epsilon", "0.179", "--strategy", "gof", "--resolution", "200",
                    "--trials", "2000", "--seed", "7", "--format", "json")
    assert code == 0
    phi, _ = optimize_angle(problem, 0.179, resolution=200)
    report = run_trials(problem, StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi), 0.179, 2000, 7)
    payload = json.loads(out.read_text())
    assert payload["strategy"] == "gof"
    assert [payload[k] for k in ("trials", "mean_copies", "mean_copies_stderr", "empirical_error",
                                 "min_copies", "max_copies", "seed")] == \
        [report.trials, report.mean_copies, report.mean_copies_stderr, report.empirical_error,
         report.min_copies, report.max_copies, report.seed]
    assert payload["per_string"] == {k: list(v) for k, v in report.per_string.items()}


def test_cost_curve_json_and_svg_hold_the_csv_rows(tmp_path):
    argv = ("cost-curve", "--theta", str(math.pi / 12), "--epsilon-range", "0.1:0.3:3:log",
            "--resolution", "120")
    _, csv_out = run(tmp_path, "curve.csv", *argv)
    lines = csv_out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    code, json_out = run(tmp_path, "curve.json", *argv, "--format", "json")
    assert code == 0
    assert [[row[h] for h in header] for row in json.loads(json_out.read_text())] == rows
    code, svg_out = run(tmp_path, "curve.svg", *argv, "--format", "svg")
    assert code == 0
    text = svg_out.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 4
    assert text.count("<circle") == 4 * len(rows)
    for label in ("FBM", "UBM", "LOL", "GOF"):
        assert f">{label}</text>" in text


def test_angle_scan_json_is_scan_angles(tmp_path):
    problem = DiscriminationProblem(theta=math.pi / 12)
    code, out = run(tmp_path, "scan.json", "angle-scan", "--theta", repr(problem.theta),
                    "--epsilon", "0.179", "--resolution", "25", "--format", "json")
    assert code == 0
    scan = scan_angles(problem, 0.179, 0.0, math.pi / 2 - 1e-9, 25)
    expected = [
        {"theta": problem.theta, "phi": phi, "cost": None, "residual_mass": None,
         "bound_width": None, "note": scan.failures[phi]} if r is None else
        {"theta": problem.theta, "phi": phi, "cost": r.expected_copies,
         "residual_mass": r.residual_mass, "bound_width": r.bound_width, "note": ""}
        for phi, r in scan.samples
    ]
    assert json.loads(out.read_text()) == expected
    assert expected[0]["cost"] is None  # phi = 0 fails


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


def _simulate_json_reference(epsilons, name, trials, seed) -> bytes:
    """The simulate JSON at theta = pi/12 as json.dump(payload, indent=2, sort_keys=True)
    writes it."""
    problem = DiscriminationProblem(theta=math.pi / 12)
    payload = []
    for eps in epsilons:
        r = run_trials(problem, StrategySpec(StrategyKind(name)), eps, trials, seed)
        payload.append({
            "epsilon": eps, "neg_log_epsilon": -math.log(eps), "strategy": name,
            "trials": r.trials, "mean_copies": r.mean_copies,
            "mean_copies_stderr": r.mean_copies_stderr, "empirical_error": r.empirical_error,
            "min_copies": r.min_copies, "max_copies": r.max_copies, "seed": r.seed,
            "per_string": {k: list(v) for k, v in sorted(r.per_string.items())},
        })
    return (json.dumps(payload if len(payload) > 1 else payload[0], indent=2, sort_keys=True)
            + "\n").encode()


@pytest.mark.parametrize("name,eps,trials", [
    ("ubm", ("--epsilon", "0.074"), 3000),
    ("ubm", ("--epsilon-range", "0.1:0.25:3:lin"), 3000),
    ("lol", ("--epsilon", "0.074"), 3000),
    # one trial: a tally of a single string
    ("ubm", ("--epsilon", "0.074"), 1),
    # strings past 63 copies, tallied by multi-word keys
    ("fbm", ("--epsilon", "1e-9"), 300),
], ids=["one-eps", "three-eps", "lol", "one-string", "long-strings"])
def test_simulate_json_is_json_dump_of_the_records(tmp_path, name, eps, trials):
    argv = ["simulate", "--theta", repr(math.pi / 12), *eps, "--strategy", name,
            "--trials", str(trials), "--seed", "7", "--format", "json"]
    code, out = run(tmp_path, "sim.json", *argv)
    assert code == 0
    flag, value = eps
    epsilons = (seqdisc.cli._parse_epsilon_range(value) if flag == "--epsilon-range"
                else [float(value)])
    assert out.read_bytes() == _simulate_json_reference(epsilons, name, trials, 7)
    records = json.loads(out.read_text())
    records = records if isinstance(records, list) else [records]
    assert len(records) == len(epsilons)
    if trials == 1:
        assert all(len(r["per_string"]) == 1 for r in records)
    if name == "fbm":
        assert all(r["max_copies"] > 63 for r in records)


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


# each of these crashed with a traceback before config values were checked
@pytest.mark.parametrize("command,cfg,message", [
    ("angle-scan", [1, 2], "must hold a JSON object"),
    ("angle-scan", {"resolution": "5"}, "'resolution' cannot be '5'"),
    ("optimize", {"epsilon": "0.2"}, "'epsilon' cannot be '0.2'"),
    ("cost-curve", {"epsilon_range": [0.1, 0.3, 3, "lin"]},
     "'epsilon_range' cannot be [0.1, 0.3, 3, 'lin']"),
    # and these are values that no flag gives
    ("angle-scan", {"theta": 0.3}, "'theta' cannot be 0.3"),
    ("strings", {"strategy": "ubm"}, "'strategy' cannot be 'ubm'"),
    ("strings", {"strategy": ["ubm", 2]}, "'strategy' cannot be ['ubm', 2]"),
    ("angle-scan", {"resolution": 2.5}, "'resolution' cannot be 2.5"),
    ("angle-scan", {"resolution": True}, "'resolution' cannot be True"),
    ("angle-scan", {"epsilon": None}, "'epsilon' cannot be None"),
    ("strings", {"aggregate": 1}, "'aggregate' cannot be 1"),
    ("optimize", {"fmt": "xml"}, "'fmt' cannot be 'xml'"),
    ("optimize", {"resolutoin": 50}, "unknown setting 'resolutoin'"),
    ("optimize", {"output": "x.csv"}, "unknown setting 'output'"),
])
def test_bad_config_values_exit_2_naming_the_key(tmp_path, capsys, command, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(tmp_path, "out.csv", command, "--config", str(path),
                    "--theta", "0.3", "--epsilon", "0.2")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("seqdisc: ") and message in err
    assert not out.exists()


# per command, a setting flag and a config key that the command does not read; both were
# once accepted and ignored
@pytest.mark.parametrize("argv,flag,cfg", [
    (("angle-scan", "--theta", "0.3", "--epsilon", "0.2", "--resolution", "5"),
     ("--strategy", "zzz"), {"coverage": 9}),
    (("cost-curve", "--theta", "0.3", "--epsilon", "0.3", "--resolution", "20"),
     ("--trials", "7"), {"seed": 1}),
    (("strings", "--theta", "0.3", "--epsilon", "0.2"), ("--seed", "3"), {"trials": 7}),
    (("optimize", "--theta", "0.3", "--epsilon", "0.2", "--resolution", "20"),
     ("--coverage", "9"), {"max_depth": 5}),
    (("simulate", "--theta", "0.3", "--epsilon", "0.2", "--trials", "50"),
     ("--aggregate",), {"coverage": 0.5}),
], ids=["angle-scan", "cost-curve", "strings", "optimize", "simulate"])
def test_each_command_takes_only_the_settings_it_reads(tmp_path, capsys, argv, flag, cfg):
    code, _ = run(tmp_path, "ok.csv", *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exited:
        run(tmp_path, "flag.csv", *argv, *flag)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run(tmp_path, "cfg.csv", *argv, "--config", str(path))
    assert code == 2
    [key] = cfg
    assert f"unknown setting {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_preset_settings_are_checked_against_the_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(seqdisc.cli._PRESETS, "fig1",
                        {**seqdisc.cli._PRESETS["fig1"], "trials": 5})
    code, out = run(tmp_path, "fig1.csv", "angle-scan", "--preset", "fig1")
    assert code == 2
    assert capsys.readouterr().err == "seqdisc: preset 'fig1': unknown setting 'trials'\n"
    assert not out.exists()


def test_config_values_read_as_their_flags_give_them(tmp_path):
    # a JSON integer stands for a float; a switch may be false
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": [0.3], "epsilon": 0.2, "coverage": 1,
                               "strategy": ["fbm"], "aggregate": False, "fmt": "csv"}))
    code, out = run(tmp_path, "from_cfg.csv", "strings", "--config", str(cfg))
    assert code == 0
    _, flags = run(tmp_path, "from_flags.csv", "strings", "--theta", "0.3", "--epsilon", "0.2",
                   "--coverage", "1", "--strategy", "fbm")
    assert out.read_bytes() == flags.read_bytes()


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


@pytest.mark.parametrize("argv,message", [
    (["strings", "--strategy", "ubm"], "strings supports csv or json output"),
    (["optimize"], "optimize supports csv or json output"),
    (["simulate", "--strategy", "ubm"], "svg output needs an --epsilon-range"),
])
def test_unsupported_format_is_rejected_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                                        message):
    def refuse(*args, **kwargs):
        raise AssertionError("called before the output format was checked")

    for name in ("enumerate_strings", "optimize_angle", "run_trials"):
        monkeypatch.setattr(seqdisc.cli, name, refuse)
    code, out = run(tmp_path, "out.svg", *argv, "--theta", repr(math.pi / 12),
                    "--epsilon", "0.179", "--format", "svg")
    assert code == 2
    assert capsys.readouterr().err == f"seqdisc: {message}\n"
    assert not out.exists()


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # flags of one call (--aggregate, the appended --strategy) must not leak into the next
    theta = repr(math.pi / 12)
    calls = [
        ("strings", "--theta", theta, "--epsilon", "0.179", "--strategy", "ubm", "--aggregate"),
        ("simulate", "--theta", theta, "--epsilon", "0.179", "--strategy", "lol",
         "--trials", "500", "--format", "json"),
        ("strings", "--theta", theta, "--epsilon", "0.179", "--strategy", "fbm"),
    ]
    assert seqdisc.cli._build_parser() is seqdisc.cli._build_parser()
    cached = [run(tmp_path, f"cached{i}", *argv) for i, argv in enumerate(calls)]
    fresh = []
    for i, argv in enumerate(calls):
        seqdisc.cli._build_parser.cache_clear()
        fresh.append(run(tmp_path, f"fresh{i}", *argv))
    assert [code for code, _ in cached] == [code for code, _ in fresh] == [0, 0, 0]
    assert [out.read_bytes() for _, out in cached] == [out.read_bytes() for _, out in fresh]


def test_exit_code_io_error(tmp_path):
    code, _ = run(tmp_path, "no/such/dir/out.csv", "optimize", "--theta", "0.3",
                  "--epsilon", "0.2", "--resolution", "50")
    assert code == 4


# sha256 of these outputs as written before the engine's slots followed their
# runs: the engine's block layout moves no byte of them
@pytest.mark.parametrize("argv,digest", [
    (("angle-scan", "--epsilon", "0.125", "--theta", repr(math.pi / 12), "--resolution", "100"),
     "e3cb039aca55e57618e0f1aabb6f29dfdccb8c2af392b1009ad03ed6eb4f81cd"),
    (("cost-curve", "--preset", "fig3", "--resolution", "100"),
     "164568acdcafbda4c4c167efacee7d21e3bd00510ade18e44db440e4b8d7ed3d"),
    (("cost-curve", "--preset", "fig3"),
     "492905b1894b43f4d888b87cfc90de50a17f2ed73829c14be1be50c06826f4d3"),
])
def test_engine_outputs_are_pinned(tmp_path, argv, digest):
    code, out = run(tmp_path, "out.csv", *argv)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_RANGE = ("--theta", repr(math.pi / 12), "--epsilon-range", "0.1:0.25:3:lin")


# sha256 of each (command, format) pair no other test pins, recorded before the
# CLI's writers and settings were merged into one path each
@pytest.mark.parametrize("argv,digest", [
    (("angle-scan", "--theta", "0.3", "--epsilon", "0.2", "--resolution", "25", "--format", "json"),
     "bd026a437c41be284c1a1f93a8c30bfd06672a507e177f934d79599412eafbad"),
    (("angle-scan", "--theta", "0.3", "--epsilon", "0.2", "--resolution", "25", "--format", "svg"),
     "b47a000c600d5566b90bf48a638b0b30ededfd84f42ea4290272d94d71cc7109"),
    (("cost-curve", *_RANGE, "--resolution", "50", "--format", "json"),
     "982eeb1443508f89e8a79b01380d22141a719d224cb9cab08757fcaf4f4bef31"),
    (("cost-curve", *_RANGE, "--resolution", "50", "--format", "svg"),
     "cd7ffdcc50a21d43e61e877188d624173d2d216e4025f840c81498be77ad2060"),
    (("optimize", *_RANGE, "--resolution", "50", "--format", "csv"),
     "88f6d0b701e50865d2d68f7616077ee1d35db5a88bb8ece65ccea61f8b1180db"),
    (("optimize", *_RANGE, "--resolution", "50", "--format", "json"),
     "dcd911b9e8a319ff17bcd79188b9e8afc1b534f06aac27c8060b9151df8992fe"),
    (("simulate", *_RANGE, "--strategy", "ubm", "--trials", "300", "--format", "csv"),
     "25bf5bc24f1618a691400675ae55ed2ced30d8cb070d2e598c7ad3dcffc215f0"),
    (("simulate", *_RANGE, "--strategy", "ubm", "--trials", "300", "--format", "json"),
     "454e0b8c4cf3885e588312a58b133f59e07142dae9cdcd5c83cc650bdaf2ff9b"),
    (("simulate", *_RANGE, "--strategy", "ubm", "--trials", "300", "--format", "svg"),
     "96f855bd3382395c33cdd7449eacfb474c80cf9b697c482ccc691c6b8f64d015"),
    (("strings", "--preset", "fig4"),
     "731187725f58b91333b150b3c7e32a4fac34422033f089ebf495a21d2527252e"),
    (("strings", "--preset", "fig4", "--format", "json"),
     "e679553e1498fd8c24bc643587c5e95ef65f7d2c515648c177972cba630d5b47"),
])
def test_every_command_and_format_is_pinned(tmp_path, argv, digest):
    code, out = run(tmp_path, "out", *argv)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
