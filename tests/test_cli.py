"""End-to-end CLI behavior: parsing, output, manifests, replay."""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
import pytest

from ggprivacy.cli import (_SUBCOMMANDS, _apply_config_defaults,
                           build_parser, main, parse_grid)
from ggprivacy.errors import ParameterError
from ggprivacy.simulate import SimConfig, histograms_to_csv, make_histograms

FAST_ACCT = ["--bins", "8192"]

SUBCOMMANDS = ["sample", "epsilon", "solve-sigma", "family", "tail-weight",
               "simulate-argmax", "pate-label", "train", "replay"]


# -- plumbing --------------------------------------------------------------------

def test_parse_grid_forms():
    assert parse_grid("1,1.5,2") == [1.0, 1.5, 2.0]
    assert parse_grid("1:4:7") == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert parse_grid("2:2:1") == [2.0]
    with pytest.raises(ParameterError):
        parse_grid("1:2")
    with pytest.raises(ParameterError):
        parse_grid("1:2:0")
    with pytest.raises(ParameterError):
        parse_grid(",")
    with pytest.raises(ParameterError, match="'x'"):
        parse_grid("1,x")
    with pytest.raises(ParameterError, match="'x'"):
        parse_grid("1:2:x")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert name in capsys.readouterr().out


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "SUBCOMMAND" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--beta", "2", "--sigma", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--sigma", "1", "-n", "3"])
    assert exc.value.code == 2
    assert "--beta is required" in capsys.readouterr().err


def test_domain_error_exits_one(capsys):
    rc = main(["sample", "--beta", "0.5", "--sigma", "1", "-n", "3"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# -- sample ----------------------------------------------------------------------

def run_sample(capsys, *extra) -> list[float]:
    rc = main(["sample", "--beta", "2", "--sigma", "1", "-n", "5", *extra])
    assert rc == 0
    out = capsys.readouterr().out
    return [float(line) for line in out.strip().splitlines()]


def test_sample_is_seeded_and_repeatable(capsys):
    first = run_sample(capsys, "--seed", "7")
    second = run_sample(capsys, "--seed", "7")
    assert len(first) == 5 and first == second
    other = run_sample(capsys, "--seed", "8")
    assert other != first


def test_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("GG_PRIVACY_SEED", "7")
    from_env = run_sample(capsys)
    assert from_env == run_sample(capsys, "--seed", "7")
    monkeypatch.setenv("GG_PRIVACY_SEED", "not-a-number")
    assert main(["sample", "--beta", "2", "--sigma", "1", "-n", "5"]) == 1
    assert "GG_PRIVACY_SEED" in capsys.readouterr().err


def test_default_seed_used_without_flag_or_env(capsys, monkeypatch):
    monkeypatch.delenv("GG_PRIVACY_SEED", raising=False)
    bare = run_sample(capsys)
    explicit = run_sample(capsys, "--seed", "61803398")
    assert bare == explicit


# -- config files -----------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "sample.cfg"
    cfg.write_text("# defaults\nbeta = 2\nsigma = 1\ncount = 3\n")
    rc = main(["sample", "--config", str(cfg), "--seed", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    rc = main(["sample", "--config", str(cfg), "--seed", "1", "-n", "5"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["sample", "--config", str(cfg), "--beta", "2",
                 "--sigma", "1", "-n", "2"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_bad_config_value_and_missing_file_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tolerance = abc\n")
    assert main(["solve-sigma", "--config", str(cfg), "--beta", "2",
                 "--epsilon", "1", "--delta", "1e-5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'tolerance'" in err and "'abc'" in err
    missing = tmp_path / "absent.csv"
    assert main(["pate-label", "--histograms", str(missing), "--betas", "2",
                 "--sigmas", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.csv" in err


def test_config_misspelt_flag_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tails.cfg"
    cfg.write_text("smooth = ture\n")
    assert main(["tail-weight", "--config", str(cfg), "--betas", "1,2",
                 "--cutoff", "1", "--epsilon", "2", "--delta", "1e-3",
                 *FAST_ACCT]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'smooth'" in err and "'ture'" in err


@pytest.mark.parametrize("word,value", [("TRUE", True), ("On", True),
                                        ("NO", False), ("0", False)])
def test_config_flag_values(word, value):
    build_parser()
    sub = _SUBCOMMANDS["tail-weight"]
    _apply_config_defaults(sub, {"smooth": word})
    assert sub.get_default("smooth") is value


def test_config_value_outside_choices_exits_one(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("model = svm\n")
    assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'model'" in err and "'svm'" in err


def test_config_without_subcommand_is_usage_error(tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("beta = 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2


# -- epsilon ------------------------------------------------------------------------

def test_epsilon_reports_estimate_and_conservative(capsys):
    # The estimate is reported; no conservative line or certificate follows,
    # since the command no longer assumes a sample count to certify.
    rc = main(["epsilon", "--beta", "2", "--sigma", repr(math.sqrt(2)),
               "--delta", "1e-5", *FAST_ACCT])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("epsilon = ")
    for word in ("conservative", "certificate", "eta", "tau"):
        assert word not in out
    value = float(out.split("epsilon = ")[1].split()[0])
    assert 0.5 < value < 10.0


@pytest.mark.parametrize("target,estimate", [("--delta", "epsilon"),
                                             ("--epsilon", "delta")])
def test_epsilon_labels_a_point_estimate(capsys, target, estimate):
    # epsilon prints one line, its answer labelled a point estimate, and no
    # certificate, plain or subsampled.
    other = {"epsilon": "delta", "delta": "epsilon"}[estimate]
    for spec, value in ((["--sigma", repr(math.sqrt(2))], ("1e-5", "4.0")),
                        (["--sigma", "2", "--compositions", "10",
                          "--sample-rate", "0.1"], ("1e-5", "0.5"))):
        value = value[target == "--epsilon"]
        assert main(["epsilon", "--beta", "2", *spec, target, value,
                     *FAST_ACCT]) == 0
        line = re.fullmatch(rf"{estimate} = (\S+) at {other} = "
                            rf"{float(value):g} \(point estimate\)\n",
                            capsys.readouterr().out)
        assert line
        answer = float(line.group(1))
        assert (0.5 < answer < 10.0 if estimate == "epsilon"
                else 0.0 < answer < 1e-2)


def test_epsilon_requires_exactly_one_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["epsilon", "--beta", "2", "--sigma", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["epsilon", "--beta", "2", "--sigma", "1",
              "--epsilon", "1", "--delta", "1e-5"])
    assert exc.value.code == 2


def test_epsilon_curve_points_below_two_exits_one(capsys):
    assert main(["epsilon", "--beta", "2", "--sigma", "1", "--delta", "1e-5",
                 "--curve-points", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "curve_points" in err


def test_epsilon_out_writes_curve_and_manifest(tmp_path, capsys):
    out = tmp_path / "curve.json"
    rc = main(["epsilon", "--beta", "2", "--sigma", "1.5", "--delta", "1e-4",
               "--out", str(out), *FAST_ACCT])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    curve = json.loads(out.read_text())
    assert set(curve) == {"epsilon", "delta", "config", "mechanism"}
    assert set(curve["config"]) == {"trunc_L", "cells", "mesh_h"}
    manifest = json.loads((tmp_path / "curve.json.manifest.json").read_text())
    assert manifest["command"] == "epsilon"
    # epsilon draws nothing, so its manifest records no seed.
    assert "seed" not in manifest and "seed" not in manifest["arguments"]
    assert "samples" not in manifest["arguments"]
    assert manifest["outputs"] == [{
        "name": "curve.json",
        "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}]
    assert manifest["arguments"]["sigma"] == 1.5


def test_replay_reproduces_outputs_bytewise(tmp_path, capsys):
    out = tmp_path / "curve.json"
    assert main(["epsilon", "--beta", "2", "--sigma", "1.5", "--delta", "1e-4",
                 "--out", str(out), *FAST_ACCT]) == 0
    original = out.read_bytes()
    manifest_path = tmp_path / "curve.json.manifest.json"
    original_manifest = manifest_path.read_bytes()
    out.unlink()
    capsys.readouterr()
    assert main(["replay", str(manifest_path)]) == 0
    assert out.read_bytes() == original
    assert manifest_path.read_bytes() == original_manifest


@pytest.mark.parametrize("edit,problem", [
    (lambda entry: {**entry, "sha256": "0" * 64}, "does not reproduce"),
    (lambda entry: entry["name"], "has no recorded SHA-256"),
])
def test_replay_fails_on_hash_mismatch(tmp_path, capsys, edit, problem):
    out = tmp_path / "curve.json"
    assert main(["epsilon", "--beta", "2", "--sigma", "1.5", "--delta", "1e-4",
                 "--out", str(out), *FAST_ACCT]) == 0
    manifest_path = tmp_path / "curve.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"] = [edit(manifest["outputs"][0])]
    manifest_path.write_text(json.dumps(manifest))
    edited = manifest_path.read_bytes()
    capsys.readouterr()
    assert main(["replay", str(manifest_path)]) == 1
    err = capsys.readouterr().err
    assert str(out) in err and problem in err
    assert manifest_path.read_bytes() == edited


def test_replay_reproduces_repeated_flag_and_switch(tmp_path, capsys):
    out = tmp_path / "tails.csv"
    assert main(["tail-weight", "--betas", "1,2", "--cutoff", "1",
                 "--cutoff", "2", "--smooth", "--epsilon", "2",
                 "--delta", "1e-3", "--tolerance", "0.2",
                 "--out", str(out), *FAST_ACCT]) == 0
    manifest_path = tmp_path / "tails.csv.manifest.json"
    arguments = json.loads(manifest_path.read_text())["arguments"]
    assert arguments["cutoff"] == [1.0, 2.0] and arguments["smooth"] is True
    original, original_manifest = out.read_bytes(), manifest_path.read_bytes()
    out.unlink()
    assert main(["replay", str(manifest_path)]) == 0
    assert out.read_bytes() == original
    assert manifest_path.read_bytes() == original_manifest


def test_replay_writes_next_to_the_manifest(tmp_path, capsys, monkeypatch):
    record = tmp_path / "sub"
    record.mkdir()
    monkeypatch.chdir(record)
    assert main(["sample", "--beta", "2", "--sigma", "1", "-n", "5",
                 "--seed", "4", "--out", "o.txt"]) == 0
    original = (record / "o.txt").read_bytes()
    original_manifest = (record / "o.txt.manifest.json").read_bytes()
    (record / "o.txt").unlink()
    monkeypatch.chdir(tmp_path)
    assert main(["replay", "sub/o.txt.manifest.json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    assert (record / "o.txt").read_bytes() == original
    assert (record / "o.txt.manifest.json").read_bytes() == original_manifest


def test_replay_names_the_manifest_missing_a_required_key(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--beta", "2", "--sigma", "1", "-n", "5",
                 "--out", "o.txt"]) == 0
    manifest_path = tmp_path / "o.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["arguments"]["beta"]
    manifest_path.write_text(json.dumps(manifest))
    (tmp_path / "o.txt").unlink()
    capsys.readouterr()
    assert main(["replay", str(manifest_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {manifest_path}:")
    assert "--beta is required" in err
    assert [p.name for p in tmp_path.iterdir()] == [manifest_path.name]


def test_replay_rejects_unknown_command(tmp_path, capsys):
    bad = tmp_path / "weird.manifest.json"
    bad.write_text(json.dumps({"command": "frobnicate", "arguments": {},
                               "seed": 1, "outputs": []}))
    assert main(["replay", str(bad)]) == 1
    assert "frobnicate" in capsys.readouterr().err


SAMPLE_ARGS = {"beta": 2.0, "sigma": 1.0, "count": 3, "seed": 1, "out": "o.txt"}
EPSILON_ARGS = {"beta": 2.0, "sigma": 1.0, "compositions": 20, "delta": 1e-5,
                "out": "o.txt"}
SOLVE_ARGS = {"beta": 1.5, "epsilon": 2.0, "delta": 1e-5, "bins": 8192,
              "out": "o.txt"}


@pytest.mark.parametrize("manifest,field", [
    ("{not json", "JSON"),
    ({"outputs": [{"name": "a"}]}, "'command'"),
    ({"command": "sample", "arguments": SAMPLE_ARGS, "outputs": "o.txt"},
     "'outputs'"),
    ({"command": "sample", "arguments": [], "outputs": ["o.txt"]},
     "'arguments'"),
    ({"command": "sample", "arguments": {**SAMPLE_ARGS, "count": "abc"},
      "outputs": ["o.txt"]}, "'count'"),
    ({"command": "sample", "arguments": {**SAMPLE_ARGS, "count": 3.0},
      "outputs": ["o.txt"]}, "'count'"),
    ({"command": "sample", "arguments": {**SAMPLE_ARGS, "bogus": 1},
      "outputs": ["o.txt"]}, "'bogus'"),
    ({"command": "epsilon", "arguments": {**EPSILON_ARGS, "trunc_l": 30.0},
      "outputs": ["o.txt"]}, "'trunc_l'"),
    ({"command": "solve-sigma", "arguments": {**SOLVE_ARGS, "seed": 61803398},
      "outputs": ["o.txt"]}, "'seed'"),
    ({"command": "solve-sigma",
      "arguments": {**SOLVE_ARGS, "samples": 5000000}, "outputs": ["o.txt"]},
     "'samples'"),
    ({"command": "epsilon", "arguments": {**EPSILON_ARGS, "samples": 5000000},
      "outputs": ["o.txt"]}, "'samples'"),
    ({"command": "sample", "arguments": {**SAMPLE_ARGS, "beta": [2.0, 3.0]},
      "outputs": ["o.txt"]}, "'beta'"),
], ids=["not-json", "no-command", "outputs-string", "arguments-list",
        "text-for-int", "float-for-int", "unknown-key", "window-key",
        "seed-key", "samples-key", "epsilon-samples-key", "list-for-one"])
def test_replay_rejects_malformed_manifest_before_running(
        tmp_path, capsys, monkeypatch, manifest, field):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "o.txt.manifest.json"
    bad.write_text(manifest if isinstance(manifest, str)
                   else json.dumps(manifest))
    assert main(["replay", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and field in err
    assert [p.name for p in tmp_path.iterdir()] == [bad.name]


@pytest.mark.parametrize("command,flag", [
    ("epsilon", "--seed"), ("solve-sigma", "--seed"), ("family", "--seed"),
    ("tail-weight", "--seed"), ("epsilon", "--samples"),
    ("solve-sigma", "--samples"), ("family", "--samples"),
    ("tail-weight", "--samples"), ("simulate-argmax", "--samples")])
def test_commands_take_no_seed_or_sample_count_they_would_not_use(
        capsys, command, flag):
    # The accountant and calibration commands draw nothing, and no command
    # prints the certificate that a sample count sizes.
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


# -- calibration commands -------------------------------------------------------------

def test_solve_sigma_command(tmp_path, capsys):
    out = tmp_path / "solved.json"
    rc = main(["solve-sigma", "--beta", "2", "--epsilon", "2",
               "--delta", "1e-3", "--tolerance", "0.2",
               "--out", str(out), *FAST_ACCT])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sigma = " in text
    # 8192 bins take both stages: the line counts the probes on each grid.
    counts = re.search(r" (\d+) probes: (\d+) on 4375 cells, "
                       r"(\d+) on 8505 cells\)", text)
    total, coarse, caller = map(int, counts.groups())
    assert total == coarse + caller and coarse >= 1 and caller >= 1
    payload = json.loads(out.read_text())
    assert set(payload) == {"sigma", "bracket", "epsilon", "probes"}
    assert payload["probes"] == total
    assert payload["bracket"][0] <= payload["sigma"] == payload["bracket"][1]
    assert abs(payload["epsilon"] - 2.0) <= 0.1


def test_family_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "family.csv"
    rc = main(["family", "--betas", "1:2:3", "--epsilon", "2",
               "--delta", "1e-3", "--tolerance", "0.2",
               "--out", str(out), *FAST_ACCT])
    assert rc == 0
    assert "sigma monotone in beta:" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,sigma"
    assert len(lines) == 4
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [1.0, 1.5, 2.0]


def test_tail_weight_command_repeatable_cutoff(tmp_path, capsys):
    out = tmp_path / "tails.csv"
    rc = main(["tail-weight", "--betas", "1,2", "--cutoff", "1",
               "--cutoff", "2", "--smooth", "--epsilon", "2", "--delta", "1e-3",
               "--tolerance", "0.2", "--out", str(out), *FAST_ACCT])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    # Smoothing needs >= 5 shapes, so no extra column appears here.
    assert lines[0] == "beta,tau,weight"
    assert len(lines) == 1 + 4


# -- studies ----------------------------------------------------------------------------

def test_simulate_argmax_small_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["simulate-argmax", "--betas", "2", "--classes", "2",
               "--epsilon", "2", "--delta", "1e-3", "--tolerance", "0.3",
               "--r-grid", "0.02:0.1:2", "--histograms-per-r", "2",
               "--trials", "5", "--total-votes", "100", "--seed", "5",
               "--out", str(out), "--bins", "4096"])
    assert rc == 0
    assert "normalized AUC" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,sigma,epsilon,delta,metric,value,stderr"
    assert len(lines) == 1 + 2 + 1  # two grid points + AUC row


def test_pate_label_with_sigma_grid(tmp_path, capsys, rng):
    hists = tmp_path / "hists.csv"
    hists.write_text(histograms_to_csv(
        make_histograms(SimConfig(3, 300, (0.2,), 4), rng)))
    out = tmp_path / "pate.csv"
    rc = main(["pate-label", "--histograms", str(hists), "--betas", "1,2",
               "--sigmas", "5,5", "--trials", "6", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.count("accuracy") == 2
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    with pytest.raises(SystemExit) as exc:
        main(["pate-label", "--histograms", str(hists), "--betas", "1,2",
              "--sigmas", "5"])
    assert exc.value.code == 2


def test_pate_label_with_family_csv(tmp_path, capsys, rng):
    hists = tmp_path / "hists.csv"
    hists.write_text(histograms_to_csv(
        make_histograms(SimConfig(2, 300, (0.2,), 3), rng)))
    family = tmp_path / "family.csv"
    family.write_text("beta,sigma\n1,4\n2,6\n")
    rc = main(["pate-label", "--histograms", str(hists),
               "--family", str(family), "--trials", "5", "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "beta 1" in out and "beta 2" in out


@pytest.mark.parametrize("rows,problem", [
    ("beta,sigma\nabc,1\n", "'abc'"),
    ("beta,sigma\n", "no data rows"),
], ids=["bad-cell", "header-only"])
def test_pate_label_bad_family_csv_exits_one(tmp_path, capsys, rng, rows,
                                             problem):
    hists = tmp_path / "hists.csv"
    hists.write_text(histograms_to_csv(
        make_histograms(SimConfig(2, 300, (0.2,), 1), rng)))
    family = tmp_path / "family.csv"
    family.write_text(rows)
    out = tmp_path / "pate.csv"
    assert main(["pate-label", "--histograms", str(hists), "--family",
                 str(family), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and problem in err
    assert not out.exists()


# -- training -----------------------------------------------------------------------------

def test_train_synthetic_logistic(capsys):
    rc = main(["train", "--train-size", "60", "--test-size", "20",
               "--dim", "3", "--batch-size", "20", "--epochs", "1",
               "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    record = json.loads(lines[0])
    assert record["epoch"] == 1 and record["epsilon"] is None
    assert 0.0 <= record["test_acc"] <= 1.0
    assert "finished after 3 steps" in lines[-1]


def test_train_zero_epochs_exits_one(capsys):
    assert main(["train", "--epochs", "0", "--train-size", "60",
                 "--test-size", "20", "--dim", "3", "--batch-size", "20"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epochs" in err


def test_train_refuses_accounting_beta_above_two(capsys):
    rc = main(["train", "--beta", "3", "--target-epsilon", "8",
               "--train-size", "60", "--test-size", "20", "--dim", "3",
               "--batch-size", "20", "--epochs", "1", "--seed", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "beta=3" in err and "dimension reduction" in err


def test_train_from_csv_dataset(tmp_path, capsys, rng):
    rows = ["f1,f2,label"]
    for i in range(12):
        x = rng.normal(size=2) + (3.0 if i % 2 else -3.0)
        rows.append(f"{x[0]},{x[1]},{i % 2}")
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["train", "--dataset", str(data), "--batch-size", "4",
               "--epochs", "1", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "finished after 3 steps" in out
    assert "test_acc" not in out.strip().splitlines()[-1]


def test_train_seeds_from_dataset_content_not_path(tmp_path, monkeypatch, rng):
    rows = ["f1,f2,label"]
    for i in range(40):  # overlapping classes, so accuracy shows the stream
        x = rng.normal(size=2) + (0.3 if i % 2 else -0.3)
        rows.append(f"{x[0]},{x[1]},{i % 2}")
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    written = []
    for i, path in enumerate(("data.csv", "./data.csv",
                              str(tmp_path / "data.csv"))):
        assert main(["train", "--dataset", path, "--batch-size", "4",
                     "--epochs", "2", "--seed", "5", "--out", f"r{i}.jsonl"]) == 0
        written.append((tmp_path / f"r{i}.jsonl").read_bytes())
    assert written[0] == written[1] == written[2]
