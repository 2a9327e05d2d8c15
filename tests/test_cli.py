"""End-to-end checks of the command-line interface."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refac.chisq import chi2_cdf, truncation_variance_factor
from refac.cli import main
from refac.design import CONTRAST_BUDGET_BYTES, MAX_FACTORS, build_structure
from refac.estimate import effect_estimates
from refac.rerandomize import Assignment
from refac.rng import stream
from refac.simlab import (COLUMN_KINDS, OutcomeRecipe, PopulationSpec,
                          generate_population)


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _covariate_csv(path, n=32, seed=41, extra=None):
    rng = stream(seed, 9)
    x = rng.standard_normal((n, 2))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "age", "score"] + list(extra or ()))
        for i in range(n):
            row = [f"u{i + 1:03d}", f"{x[i, 0]:.6f}", f"{x[i, 1]:.6f}"]
            if extra:
                row += [f"{x[i, 0]:.6f}"] * len(extra)
            writer.writerow(row)
    return str(path), x


def _design_config(path, **overrides):
    cfg = {"k": 2, "sizes": {"equal": 32},
           "criterion": {"type": "overall", "p": 0.2}, "seed": 5}
    cfg.update(overrides)
    return _write_json(path, cfg)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# design


def test_design_writes_assignment_and_report(tmp_path):
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(tmp_path / "cfg.json")
    out = tmp_path / "assign.csv"
    rep = tmp_path / "report.json"
    assert main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(out), "--report", str(rep)]) == 0

    rows = _read_csv(out)
    assert rows[0] == ["unit", "assignment"]
    assert len(rows) == 33
    assert [r[0] for r in rows[1:]] == [f"u{i + 1:03d}" for i in range(32)]
    labels = [int(r[1]) for r in rows[1:]]
    assert sorted(set(labels)) == [1, 2, 3, 4]
    assert all(labels.count(q) == 8 for q in (1, 2, 3, 4))

    payload = json.loads(rep.read_text())
    assert payload["schema_version"] == 2
    assert payload["command"] == "design"
    assert payload["config"]["seed"] == 5
    assert payload["config"]["covariates"] == ["age", "score"]
    crit = payload["config"]["criterion"]
    assert crit["type"] == "overall" and crit["dims"] == [6]
    assert crit["p"][0] == pytest.approx(0.2)
    assert payload["acceptance_probability"] == pytest.approx(0.2, abs=1e-9)
    assert payload["balance"]["passed"] is True
    assert payload["draws_attempted"] >= 1
    values, limits = payload["balance"]["values"], payload["balance"]["limits"]
    assert set(values) == {"overall"}
    assert values["overall"] <= limits["overall"]

    # same seed, same inputs -> byte-identical assignment
    out2 = tmp_path / "assign2.csv"
    assert main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(out2), "--report", str(tmp_path / "r2.json")]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_design_seed_precedence(tmp_path, monkeypatch, capsys):
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    out = {name: tmp_path / f"{name}.csv"
           for name in ("flag", "config", "env", "other")}

    cfg_5 = _design_config(tmp_path / "cfg5.json", seed=5)
    cfg_9 = _design_config(tmp_path / "cfg9.json", seed=9)
    cfg_none = {"k": 2, "sizes": {"equal": 32},
                "criterion": {"type": "overall", "p": 0.2}}
    cfg_bare = _write_json(tmp_path / "bare.json", cfg_none)

    monkeypatch.delenv("REFAC_SEED", raising=False)
    assert main(["design", "--config", cfg_5, "--covariates", cov,
                 "--seed", "9", "--out", str(out["flag"])]) == 0
    assert main(["design", "--config", cfg_9, "--covariates", cov,
                 "--out", str(out["config"])]) == 0
    assert out["flag"].read_bytes() == out["config"].read_bytes()

    monkeypatch.setenv("REFAC_SEED", "9")
    assert main(["design", "--config", cfg_bare, "--covariates", cov,
                 "--out", str(out["env"])]) == 0
    assert out["env"].read_bytes() == out["flag"].read_bytes()

    assert main(["design", "--config", cfg_5, "--covariates", cov,
                 "--out", str(out["other"])]) == 0
    assert out["other"].read_bytes() != out["flag"].read_bytes()

    capsys.readouterr()
    monkeypatch.setenv("REFAC_SEED", "not-a-number")
    assert main(["design", "--config", cfg_bare, "--covariates", cov,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "REFAC_SEED" in capsys.readouterr().err

    monkeypatch.delenv("REFAC_SEED")
    assert main(["design", "--config", cfg_bare, "--covariates", cov,
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert "REFAC_SEED" in capsys.readouterr().err


def test_design_validation_failures(tmp_path, capsys):
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(tmp_path / "cfg.json")
    out = str(tmp_path / "a.csv")

    def run(config=cfg, covariates=cov):
        code = main(["design", "--config", config, "--covariates", covariates,
                     "--out", out])
        return code, capsys.readouterr().err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("unit,age\nu1,1.0\nu2,2.0,extra\n", encoding="utf-8")
    code, err = run(covariates=str(ragged))
    assert code == 2 and "row 3 has 3 fields, expected 2" in err

    no_unit = tmp_path / "nounit.csv"
    no_unit.write_text("id,age\nu1,1.0\n", encoding="utf-8")
    code, err = run(covariates=str(no_unit))
    assert code == 2 and "'unit'" in err

    dupes = tmp_path / "dupes.csv"
    dupes.write_text("unit,age,age\nu1,1.0,2.0\n", encoding="utf-8")
    code, err = run(covariates=str(dupes))
    assert code == 2 and "duplicate column names" in err

    words = tmp_path / "words.csv"
    words.write_text("unit,age\nu1,young\n" + "u2,1.0\n" * 31,
                     encoding="utf-8")
    code, err = run(covariates=str(words))
    assert code == 2 and "not a number" in err

    # NaN parses as a float; it once reached the draw loop and ended there
    # in a bare AssertionError
    not_finite = tmp_path / "nan.csv"
    text = open(cov, encoding="utf-8").read().splitlines()
    text[3] = text[3].rsplit(",", 1)[0] + ",nan"
    not_finite.write_text("\n".join(text) + "\n", encoding="utf-8")
    code, err = run(covariates=str(not_finite))
    assert code == 2 and "row 4, column 'score': not a number: 'nan' (values must be finite)" in err

    bad_key = _design_config(tmp_path / "bad_key.json", extra_knob=1)
    code, err = run(config=bad_key)
    assert code == 2 and "unknown keys" in err

    no_total = _design_config(tmp_path / "no_total.json", sizes={})
    code, err = run(config=no_total)
    assert code == 2 and "sizes: missing required key 'equal'" in err

    small = _design_config(tmp_path / "small.json", sizes={"equal": 16})
    code, err = run(config=small)
    assert code == 2 and "32 units" in err and "16" in err

    both = _design_config(tmp_path / "both.json",
                          criterion={"type": "overall", "p": 0.2, "a": 3.0})
    code, err = run(config=both)
    assert code == 2 and "exactly one of 'a'" in err

    one_based = _design_config(
        tmp_path / "tier0.json",
        criterion={"type": "effect-tiers", "tiers": [[0, 1], [2]],
                   "p": [0.2, 0.5]})
    code, err = run(config=one_based)
    assert code == 2 and "1-based" in err

    # a config that is not an object once ended in a TypeError with exit 1
    as_list = _write_json(tmp_path / "list.json", ["k", "sizes", "criterion"])
    code, err = run(config=as_list)
    assert code == 2 and f"{as_list}: expected a JSON object" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    code, err = run(config=str(not_json))
    assert code == 2 and "invalid JSON" in err

    # a budget the report cannot write as a 64-bit integer is refused before
    # any draw and before the assignment file is written
    huge = _design_config(tmp_path / "huge.json", max_draws=2 ** 70)
    code, err = run(config=huge)
    assert code == 2 and f"max_draws must lie in [1, 2**63), got {2 ** 70}" in err
    assert not (tmp_path / "a.csv").exists()


def test_design_budget_exhausted(tmp_path, capsys):
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(tmp_path / "cfg.json",
                         criterion={"type": "overall", "a": 1e-8})
    code = main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(tmp_path / "a.csv"), "--max-draws", "16"])
    err = capsys.readouterr().err
    assert code == 3
    assert "nearest miss" in err and "overall" in err


def test_design_rejects_factor_count_above_memory_cap(tmp_path, capsys):
    # validated before any (2^K - 1) x 2^K contrast matrix is allocated
    assert 8 * (2 ** MAX_FACTORS - 1) * 2 ** MAX_FACTORS <= CONTRAST_BUDGET_BYTES
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(tmp_path / "cfg.json", k=MAX_FACTORS + 1)
    code = main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(tmp_path / "a.csv")])
    assert code == 2
    assert f"factor count must lie in [1, {MAX_FACTORS}]" in capsys.readouterr().err


def test_design_singular_covariates(tmp_path, capsys):
    cov, _ = _covariate_csv(tmp_path / "cov.csv", extra=["age_copy"])
    cfg = _design_config(tmp_path / "cfg.json")
    code = main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(tmp_path / "a.csv")])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_design_grid_criterion_config(tmp_path):
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(
        tmp_path / "cfg.json",
        criterion={"type": "grid", "effect_tiers": [[1, 2], [3]],
                   "covariate_tiers": [[1], [2]], "cells": "triangular",
                   "p": [0.5, 0.8]})
    rep = tmp_path / "report.json"
    assert main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(tmp_path / "a.csv"), "--report", str(rep)]) == 0
    crit = json.loads(rep.read_text())["config"]["criterion"]
    assert crit["dims"] == [2, 4]
    assert crit["cells"] == [[[1, 1]], [[1, 2], [2, 1], [2, 2]]]
    assert len(crit["a"]) == 2


# ---------------------------------------------------------------------------
# analyze


def _analysis_files(tmp_path, drop=None, label_edit=None):
    rng = stream(42, 3)
    n = 40
    x = rng.standard_normal((n, 2))
    codes = np.repeat(np.arange(4), 10)
    rng.shuffle(codes)
    y = 1.0 + 0.8 * x[:, 0] - 0.4 * x[:, 1] + 0.5 * codes + \
        0.3 * rng.standard_normal(n)
    labels = codes + 1
    if label_edit is not None:
        labels = label_edit(labels.copy())
    header = ["unit", "age", "score", "outcome", "assignment"]
    if drop:
        header = [h for h in header if h != drop]
    path = tmp_path / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            full = {"unit": f"u{i}", "age": f"{x[i, 0]:.9f}",
                    "score": f"{x[i, 1]:.9f}", "outcome": f"{y[i]:.9f}",
                    "assignment": str(labels[i])}
            writer.writerow([full[h] for h in header])
    cfg = _write_json(tmp_path / "acfg.json",
                      {"k": 2, "sizes": {"equal": 40},
                       "criterion": {"type": "overall", "p": 0.2}})
    return str(path), cfg, y, codes


def test_analyze_matches_direct_estimates(tmp_path):
    data, cfg, y, codes = _analysis_files(tmp_path)
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--config", cfg, "--data", data,
                 "--seed", "11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "analyze"
    assert payload["effects"]["names"] == ["1", "2", "1:2"]

    s = build_structure(2)
    direct = effect_estimates(
        np.asarray(y), Assignment(codes=codes.astype(np.int32), q_count=4), s)
    np.testing.assert_allclose(payload["effects"]["estimates"], direct,
                               rtol=1e-9)

    cov = np.asarray(payload["covariance_estimate"])
    assert cov.shape == (3, 3)
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)

    cs = payload["confidence_set"]
    assert cs["alpha"] == 0.05
    np.testing.assert_allclose(cs["center"], direct, rtol=1e-9)
    intervals = np.asarray(cs["intervals"])
    assert intervals.shape == (3, 2)
    assert np.all(intervals[:, 0] < direct) and np.all(direct < intervals[:, 1])
    assert cs["threshold"] > 0.0

    out2 = tmp_path / "analysis2.json"
    assert main(["analyze", "--config", cfg, "--data", data,
                 "--seed", "11", "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_analyze_builds_the_estimated_law_once(tmp_path, monkeypatch):
    confidence = importlib.import_module("refac.confidence")
    calls = []
    original = confidence.projection_coefficients

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(confidence, "projection_coefficients", counted)
    data, cfg, _, _ = _analysis_files(tmp_path)
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "11",
                 "--draws", "2000", "--out", str(tmp_path / "a.json")]) == 0
    assert len(calls) == 1


def test_analyze_contrast_rows(tmp_path):
    data, cfg, _, _ = _analysis_files(tmp_path)
    contrast = _write_json(tmp_path / "contrast.json",
                           {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]})
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "11",
                 "--contrast", contrast, "--alpha", "0.1",
                 "--draws", "20000", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["alpha"] == 0.1
    assert payload["config"]["draws"] == 20000
    assert len(payload["confidence_set"]["center"]) == 2
    assert np.asarray(payload["confidence_set"]["shape"]).shape == (2, 2)


def test_analyze_data_validation(tmp_path, capsys):
    out = str(tmp_path / "o.json")

    data, cfg, _, _ = _analysis_files(tmp_path, drop="outcome")
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "1",
                 "--out", out]) == 2
    assert "missing 'outcome'" in capsys.readouterr().err

    data, cfg, _, _ = _analysis_files(tmp_path, drop="assignment")
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "1",
                 "--out", out]) == 2
    assert "missing 'assignment'" in capsys.readouterr().err

    def oob(labels):
        labels[0] = 9
        return labels

    data, cfg, _, _ = _analysis_files(tmp_path, label_edit=oob)
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "1",
                 "--out", out]) == 2
    assert "outside 1..4" in capsys.readouterr().err

    def lopsided(labels):
        labels[labels == 2] = 1
        return labels

    data, cfg, _, _ = _analysis_files(tmp_path, label_edit=lopsided)
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "1",
                 "--out", out]) == 2
    assert "config expects" in capsys.readouterr().err

    data, cfg, _, _ = _analysis_files(tmp_path)
    rows = _read_csv(data)
    rows[5][rows[0].index("outcome")] = "inf"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "1",
                 "--out", out]) == 2
    assert "row 6, column 'outcome': not a number: 'inf' (values must be finite)" in \
        capsys.readouterr().err

    # the law sample holds 8 bytes a draw: 10^10 draws are refused up front
    data, cfg, _, _ = _analysis_files(tmp_path)
    assert main(["analyze", "--config", cfg, "--data", data, "--seed", "1",
                 "--draws", "10000000000", "--out", out]) == 2
    assert "law draws must lie in [1, " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def _simulation_configs(tmp_path, **extras):
    pop = _write_json(tmp_path / "pop.json", {
        "n": 80, "k": 2, "sizes": {"equal": 80},
        "columns": [{"kind": "normal"}, {"kind": "uniform", "low": -1.0,
                                         "high": 1.0}],
        "outcome": {"intercepts": [0.0, 0.5, 1.0, 1.5],
                    "slopes": [1.0, 0.5], "noise_scales": 0.8,
                    "additive": True},
    })
    designs = {"designs": [
        {"name": "balanced", "criterion": {"type": "overall", "p": 0.3}},
    ], "seed": 3, "theory_draws": 2000}
    designs.update(extras)
    return pop, _write_json(tmp_path / "designs.json", designs)


def test_simulate_writes_csv_and_json(tmp_path):
    pop, designs = _simulation_configs(tmp_path)
    out_csv, out_json = tmp_path / "rows.csv", tmp_path / "full.json"
    assert main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "30", "--out-csv", str(out_csv),
                 "--out-json", str(out_json)]) == 0

    rows = _read_csv(out_csv)
    assert len(rows) == 1 + 2 * 3  # header + (baseline + 1 design) x 3 effects
    assert rows[0][:2] == ["design", "effect"]
    assert len(rows[0]) == 21
    assert {r[0] for r in rows[1:]} == {"complete", "balanced"}

    payload = json.loads(out_json.read_text())
    assert payload["schema_version"] == 2
    assert payload["command"] == "simulate"
    assert payload["config"]["reps"] == 30
    assert payload["config"]["seed"] == 3
    assert payload["config"]["theory_draws"] == 2000
    assert payload["config"]["population"]["n"] == 80
    names = [d["name"] for d in payload["report"]["designs"]]
    assert names == ["complete", "balanced"]
    assert payload["timing_seconds"] > 0.0

    # a second run reproduces the CSV byte for byte; the JSON may differ
    # only in its timing
    csv2, json2 = tmp_path / "rows2.csv", tmp_path / "full2.json"
    assert main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "30", "--out-csv", str(csv2),
                 "--out-json", str(json2)]) == 0
    assert csv2.read_bytes() == out_csv.read_bytes()
    first, second = payload, json.loads(json2.read_text())
    first.pop("timing_seconds"), second.pop("timing_seconds")
    assert first == second


def test_simulate_builtin_population_resolves(tmp_path, capsys):
    pop = _write_json(tmp_path / "pop.json", {"builtin": "education-like"})
    bad = _write_json(tmp_path / "bad.json", {"builtin": "no-such-thing"})
    designs = _write_json(tmp_path / "designs.json", {
        "designs": [{"name": "x", "criterion": {"type": "complete"}}],
        "seed": 1})
    code = main(["simulate", "--population", bad, "--designs", designs,
                 "--reps", "2", "--out-json", str(tmp_path / "o.json")])
    assert code == 2 and "unknown builtin" in capsys.readouterr().err
    # the real builtin parses and replicates (tiny rep count to stay fast)
    assert main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "2", "--out-json", str(tmp_path / "o.json")]) == 0
    payload = json.loads((tmp_path / "o.json").read_text())
    assert payload["config"]["population"]["n"] == 1398


def test_simulate_validation(tmp_path, capsys, monkeypatch):
    pop, _ = _simulation_configs(tmp_path)
    out = str(tmp_path / "o.json")

    def run(designs_payload, reps="4"):
        designs = _write_json(tmp_path / "d.json", designs_payload)
        code = main(["simulate", "--population", pop, "--designs", designs,
                     "--reps", reps, "--out-json", out])
        return code, capsys.readouterr().err

    code, err = run({"designs": [], "seed": 1})
    assert code == 2 and "nonempty" in err

    code, err = run({"designs": [{"criterion": {"type": "complete"}}],
                     "seed": 1})
    assert code == 2 and "'name'" in err

    code, err = run({"designs": [
        {"name": "complete", "criterion": {"type": "overall", "p": 0.5}}],
        "seed": 1})
    assert code == 2 and "reserved" in err

    code, err = run({"designs": [
        {"name": "a", "criterion": {"type": "overall", "p": 0.5}}],
        "seed": 1, "typo_key": True})
    assert code == 2 and "unknown keys" in err

    code, err = run({"designs": [
        {"name": "a", "criterion": {"type": "overall", "p": 0.5}}],
        "seed": 1, "coverage": True, "draws": 10 ** 10})
    assert code == 2 and "law draws must lie in" in err

    # 10^10 theory draws of 3 effects would take 240 GB: refused before any
    # law sample is drawn
    monkeypatch.setattr(importlib.import_module("refac.simlab"), "simulate_law", None)
    code, err = run({"designs": [
        {"name": "a", "criterion": {"type": "overall", "p": 0.5}}],
        "seed": 1, "theory_draws": 10 ** 10})
    assert code == 2
    assert "theory_draws must lie in [1000, 11184810] for 3 effects, got 10000000000" in err

    # 10^11 reps of 2 designs would keep 4.8 TB of estimates: refused first
    monkeypatch.setattr(importlib.import_module("refac.simlab"), "population_truth", None)
    code, err = run({"designs": [{"name": "a", "criterion": {"type": "overall", "p": 0.5}}],
                     "seed": 1}, reps="100000000000")
    assert code == 2 and "reps must lie in [2, 5592405] for 2 designs" in err


def test_simulate_budget_exhausted_exits_alike_on_threads(tmp_path):
    # a replication that runs out of draws reaches the caller unchanged, from
    # the lowest failing task, for any worker count; each run is timed out so
    # that a hang fails the test
    pop, designs = _simulation_configs(tmp_path, max_draws=2, designs=[
        {"name": "tight", "criterion": {"type": "overall", "p": 0.001}}])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runs = []
    for workers in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from refac.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "simulate", "--population", pop,
             "--designs", designs, "--reps", "4", "--workers", workers,
             "--out-json", str(tmp_path / "o.json")],
            capture_output=True, text=True, env=env, timeout=60)
        runs.append((proc.returncode, proc.stderr))
    assert runs[0][0] == 3
    assert "no assignment passed within 2 draws" in runs[0][1]
    assert runs[1] == runs[0]


# ---------------------------------------------------------------------------
# JSON reports


def _plain(value):
    """``value`` with tuples as lists and NaN (coverage off) as None, the
    shape JSON gives back, so that equal reports compare equal."""
    if isinstance(value, float) and value != value:
        return None
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _reject_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


def test_reports_are_one_line_of_json_that_round_trips(tmp_path, monkeypatch):
    cli = importlib.import_module("refac.cli")
    written, original = {}, cli._write_json

    def recorded(path, payload):
        written[path] = payload
        original(path, payload)

    monkeypatch.setattr(cli, "_write_json", recorded)
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    data, acfg, _, _ = _analysis_files(tmp_path)
    pop, designs = _simulation_configs(tmp_path)
    reports = [str(tmp_path / f"{name}.json") for name in ("design", "analyze", "simulate")]
    assert main(["design", "--config", _design_config(tmp_path / "cfg.json"),
                 "--covariates", cov, "--out", str(tmp_path / "a.csv"),
                 "--report", reports[0]]) == 0
    assert main(["analyze", "--config", acfg, "--data", data, "--seed", "11",
                 "--draws", "2000", "--out", reports[1]]) == 0
    assert main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "5", "--out-json", reports[2]]) == 0
    for path in reports:
        text = open(path, encoding="utf-8").read()
        assert text.endswith("}\n") and text.count("\n") == 1
        loaded = json.loads(text, parse_constant=_reject_constant)
        assert loaded["schema_version"] == 2
        assert _plain(loaded) == _plain(written[path])  # floats compare exactly


def test_write_json_is_one_line_of_strict_utf8_json(tmp_path, capsys):
    cli = importlib.import_module("refac.cli")
    floats = [1e-5, 1e16, 5e-324, -0.0, 1 / 3]
    undefined = [math.nan, math.inf, -math.inf,
                 np.float64("nan"), np.float64("inf"), np.float64("-inf")]
    payload = {"floats": floats, "undefined": undefined, "count": np.int64(7),
               "passed": np.bool_(True), "pair": (1, 2), "covariates": ["âge", "score"]}
    path = tmp_path / "report.json"
    cli._write_json(str(path), payload)
    cli._write_json(None, payload)
    for text in (path.read_bytes().decode("utf-8"), capsys.readouterr().out):
        assert text.endswith("}\n") and text.count("\n") == 1
        assert '"âge"' in text
        loaded = json.loads(text, parse_constant=_reject_constant)
        assert loaded == {"floats": floats, "undefined": [None] * 6, "count": 7,
                          "passed": True, "pair": [1, 2], "covariates": ["âge", "score"]}
        assert np.array(loaded["floats"]).view(np.uint64).tolist() == \
            np.array(floats).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_roundtrip(tmp_path):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", "--dims", "6,2", "--p", "0.1,0.5",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["tier", "dim", "cutoff", "probability",
                       "variance_factor"]
    assert len(rows) == 3
    cutoffs = [float(r[2]) for r in rows[1:]]
    assert [float(r[3]) for r in rows[1:]] == pytest.approx([0.1, 0.5])
    assert float(rows[1][4]) == pytest.approx(
        truncation_variance_factor(6, cutoffs[0]))

    back = tmp_path / "back.csv"
    assert main(["thresholds", "--dims", "6,2",
                 "--a", f"{cutoffs[0]:.17g},{cutoffs[1]:.17g}",
                 "--out", str(back)]) == 0
    probs = [float(r[3]) for r in _read_csv(back)[1:]]
    assert probs == pytest.approx([0.1, 0.5], rel=1e-12)
    assert chi2_cdf(cutoffs[1], 2) == pytest.approx(0.5, rel=1e-12)


def test_thresholds_to_stdout_and_validation(tmp_path, capsys):
    assert main(["thresholds", "--dims", "3", "--p", "0.25"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("tier,") and len(lines) == 2

    assert main(["thresholds", "--dims", "3", "--p", "0.2", "--a", "1.0"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["thresholds", "--dims", "3"]) == 2
    capsys.readouterr()
    assert main(["thresholds", "--dims", "0", "--p", "0.2"]) == 2
    capsys.readouterr()
    assert main(["thresholds", "--dims", "x", "--p", "0.2"]) == 2
    assert "comma-separated" in capsys.readouterr().err
    assert main(["thresholds", "--dims", "3,2", "--p", "0.2"]) == 2
    assert "--p lists 1 values for 2" in capsys.readouterr().err
    assert main(["thresholds", "--dims", "3", "--a", "-1.0"]) == 2
    assert "cutoffs must be positive and finite, got -1.0" in capsys.readouterr().err
    assert main(["thresholds", "--dims", "3", "--a", "inf"]) == 2
    assert "cutoffs must be positive and finite, got inf" in capsys.readouterr().err
    for p in ("0", "nan"):
        assert main(["thresholds", "--dims", "3", "--p", p]) == 2
        err = capsys.readouterr().err
        assert f"strictly inside (0, 1), got {float(p)}" in err
        assert "complete randomization" not in err
    assert main(["thresholds", "--dims", "3", "--p", "1"]) == 2
    assert "got 1.0; use complete randomization instead of p = 1" in \
        capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation and resolved configs


def _grid(**overrides):
    spec = {"type": "grid", "effect_tiers": [[1, 2], [3]],
            "covariate_tiers": [[1], [2]], "p": [0.5, 0.8]}
    spec.update(overrides)
    return spec


@pytest.mark.parametrize("criterion, message", [
    ({"type": "mahalanobis", "p": 0.2},
     "unknown criterion type 'mahalanobis'; expected one of 'complete', "
     "'overall', 'effect-tiers', 'grid'"),
    ({"type": "effect-tiers", "p": [0.2, 0.5]},
     "effect-tiers criterion needs 'tiers'"),
    ({"type": "grid", "covariate_tiers": [[1], [2]], "p": 0.2},
     "grid criterion needs 'effect_tiers'"),
    ({"type": "grid", "effect_tiers": [[1, 2, 3]], "p": 0.2},
     "grid criterion needs 'covariate_tiers'"),
    (_grid(cells="diagonal"),
     'cells must be "triangular" or an explicit grouping'),
    (_grid(cells=[[[1, 1]], 5]), "cells[2] must be a list of [t, h] pairs"),
    (_grid(cells=[[[1, 1, 2]]]),
     "cells[1]: each cell is a 1-based [covariate_tier, effect_tier] pair"),
    (_grid(cells=[[[1, 1]], [[1, 3]]]),
     "cells[2]: cell [1, 3] outside the 2 x 2 tier layout (1-based)"),
], ids=["unknown-type", "no-tiers", "no-effect-tiers", "no-covariate-tiers",
        "cells-not-a-list", "group-not-a-list", "malformed-pair",
        "cell-outside-layout"])
def test_design_rejects_malformed_criteria(tmp_path, capsys, criterion, message):
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(tmp_path / "cfg.json", criterion=criterion)
    code = main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(tmp_path / "a.csv")])
    assert code == 2
    assert f"{cfg}: criterion: {message}" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("column, message", [
    ({"kind": "poisson", "rate": 2.0},
     "columns[2]: unknown kind 'poisson'; expected normal, binary, or uniform"),
    ({"kind": "binary"}, "columns[2]: binary column needs 'rate'"),
    ({"kind": "normal", "mean": math.nan},
     "columns[2]: normal column mean must be finite, got nan"),
], ids=["unknown-kind", "binary-without-rate", "nan-mean"])
def test_simulate_rejects_malformed_columns(tmp_path, capsys, column, message):
    _, designs = _simulation_configs(tmp_path)
    pop = _write_json(tmp_path / "bad_pop.json", {
        "n": 80, "k": 2, "sizes": {"equal": 80},
        "columns": [{"kind": "normal"}, column],
        "outcome": {"intercepts": [0.0, 0.5, 1.0, 1.5], "slopes": [1.0, 0.5]}})
    code = main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "4", "--out-json", str(tmp_path / "o.json")])
    assert code == 2
    assert f"{pop}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"outcome": {"slopes": "x"}}, "slopes must be numbers, got 'x'"),
    ({"outcome": {"clamp": 5}}, "clamp must be [lo, hi], got 5"),
    ({"outcome": {"noise_scales": ["a", "b"]}}, "noise_scales must be numbers, got ['a', 'b']"),
    ({"correlation": "x"}, "correlation must be numbers, got 'x'"),
    ({"outcome": {"additive": "no"}}, "additive must be true or false, got 'no'"),
    ({"outcome": {"intercepts": [math.inf, 0.5, 1.0, 1.5]}},
     "intercepts must be finite, got (inf, 0.5, 1.0, 1.5)"),
    # numpy would read these as numbers, but JSON strings and booleans are not
    ({"outcome": {"slopes": ["1", True]}},
     "outcome: slopes must be numbers, got ['1', True]"),
    ({"outcome": {"noise_scales": ["0.5", "0.5", "0.5", "0.5"]}},
     "outcome: noise_scales must be numbers, got ['0.5', '0.5', '0.5', '0.5']"),
    ({"outcome": {"clamp": ["-1", "1"]}}, "outcome: clamp must be numbers, got ['-1', '1']"),
    ({"correlation": [[True, 0.0], [0.0, 1.0]]},
     "correlation must be numbers, got [[True, 0.0], [0.0, 1.0]]"),
    ({"outcome": {"slopes": [10 ** 400, 0.5]}}, "outcome: slopes must be numbers"),
], ids=["slopes", "clamp", "noise-scales", "correlation", "additive", "infinite-intercept",
        "string-and-boolean-slopes", "string-noise-scales", "string-clamp",
        "boolean-correlation", "integer-past-the-float-range"])
def test_simulate_rejects_population_values_of_the_wrong_type(tmp_path, capsys, change,
                                                              message):
    _, designs = _simulation_configs(tmp_path)
    population = {"n": 80, "k": 2, "sizes": {"equal": 80},
                  "columns": [{"kind": "normal"}, {"kind": "normal"}],
                  **{key: value for key, value in change.items() if key != "outcome"},
                  "outcome": {"intercepts": [0.0, 0.5, 1.0, 1.5], "slopes": [1.0, 0.5],
                              **change.get("outcome", {})}}
    pop = _write_json(tmp_path / "bad_pop.json", population)
    code = main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "4", "--out-json", str(tmp_path / "o.json")])
    assert code == 2
    assert message in capsys.readouterr().err


#: a value for each column parameter that has no default
_REQUIRED_COLUMN_VALUES = {"rate": 0.3}


@pytest.mark.parametrize("kind", list(COLUMN_KINDS))
def test_simulate_builds_each_column_kind_like_the_library(tmp_path, monkeypatch, kind):
    required = {name: _REQUIRED_COLUMN_VALUES[name]
                for name, default in COLUMN_KINDS[kind].items() if default is None}
    cli, simlab = (importlib.import_module(f"refac.{m}") for m in ("cli", "simlab"))
    specs = []
    monkeypatch.setattr(cli, "generate_population",
                        lambda spec, rng: specs.append(spec) or generate_population(spec, rng))
    pop = _write_json(tmp_path / "pop.json", {
        "n": 40, "k": 2, "sizes": {"equal": 40}, "columns": [{"kind": kind, **required}],
        "outcome": {"intercepts": [0.0, 0.5, 1.0, 1.5], "slopes": [1.0]}})
    designs = _write_json(tmp_path / "designs.json", {
        "designs": [{"name": "x", "criterion": {"type": "complete"}}],
        "seed": 3, "theory_draws": 1000})
    assert main(["simulate", "--population", pop, "--designs", designs, "--reps", "2",
                 "--workers", "1", "--out-json", str(tmp_path / "o.json")]) == 0

    column = getattr(simlab, f"{kind}_column")(**required)
    assert specs[0].columns == (column,)
    expected = generate_population(PopulationSpec(
        n=40, k=2, columns=(column,),
        outcome=OutcomeRecipe(intercepts=(0.0, 0.5, 1.0, 1.5), slopes=[1.0])), stream(3, 2))
    actual = generate_population(specs[0], stream(3, 2))
    np.testing.assert_array_equal(actual.x, expected.x)
    np.testing.assert_array_equal(actual.potential, expected.potential)


@pytest.mark.parametrize("coverage", ["false", 0, None])
def test_simulate_reads_coverage_only_as_a_json_boolean(tmp_path, capsys, coverage):
    pop, designs = _simulation_configs(tmp_path, coverage=coverage)
    code = main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "4", "--out-json", str(tmp_path / "o.json")])
    assert code == 2
    assert f"coverage must be true or false, got {coverage!r}" in capsys.readouterr().err


def _assert_tree_close(actual, expected, where="config"):
    """Equal JSON trees, with floats compared to a relative 1e-12."""
    if isinstance(expected, float):
        assert type(actual) is float, where
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), where
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key, value in expected.items():
            _assert_tree_close(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_tree_close(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


_PINNED_DESIGNS = [
    ({"type": "overall", "a": 3.5}, {"equal": 32},
     {"type": "overall", "dims": [6], "a": [3.5], "p": [0.2560303046027818]},
     [8, 8, 8, 8], 196),
    ({"type": "effect-tiers", "tiers": [[1, 2], [3]], "p": [0.2, 0.6]},
     {"equal": 32},
     {"type": "effect-tiers", "tiers": [[1, 2], [3]], "dims": [4, 2],
      "a": [1.648776618065969, 1.83258146374831], "p": [0.2, 0.6]},
     [8, 8, 8, 8], 417),
    (_grid(cells=[[[1, 1], [2, 1]], [[1, 2]], [[2, 2]]], a=[7.5, 3.0, 2.5],
           p=None),
     [6, 8, 8, 10],
     {"type": "grid", "effect_tiers": [[1, 2], [3]],
      "covariate_tiers": [[1], [2]],
      "cells": [[[1, 1], [2, 1]], [[1, 2]], [[2, 2]]], "dims": [4, 1, 1],
      "a": [7.5, 3.0, 2.5],
      "p": [0.8882907071839568, 0.9167354833364496, 0.8861537019933423]},
     [6, 8, 8, 10], 70),
]


@pytest.mark.parametrize("criterion, sizes, resolved, counts, budget",
                         _PINNED_DESIGNS, ids=["overall-a", "effect-tiers-p",
                                               "grid-cells"])
def test_design_report_config_is_pinned(tmp_path, criterion, sizes, resolved,
                                        counts, budget):
    criterion = {k: v for k, v in criterion.items() if v is not None}
    cov, _ = _covariate_csv(tmp_path / "cov.csv")
    cfg = _design_config(tmp_path / "cfg.json", criterion=criterion, sizes=sizes)
    rep = tmp_path / "report.json"
    assert main(["design", "--config", cfg, "--covariates", cov,
                 "--out", str(tmp_path / "a.csv"), "--report", str(rep)]) == 0
    _assert_tree_close(json.loads(rep.read_text())["config"], {
        "k": 2, "sizes": counts, "criterion": resolved, "seed": 5,
        "max_draws": budget, "covariates": ["age", "score"], "n": 32})


def test_analyze_report_config_is_pinned(tmp_path):
    data, _, _, _ = _analysis_files(tmp_path)
    cfg = _write_json(tmp_path / "tiers.json", {
        "k": 2, "sizes": {"equal": 40}, "seed": 11, "alpha": 0.1, "draws": 2000,
        "criterion": {"type": "effect-tiers", "tiers": [[1, 2], [3]],
                      "p": [0.2, 0.6]}})
    contrast = _write_json(tmp_path / "contrast.json", [[1, -1, 0]])
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--config", cfg, "--data", data,
                 "--contrast", contrast, "--out", str(out)]) == 0
    _assert_tree_close(json.loads(out.read_text())["config"], {
        "k": 2, "sizes": [10, 10, 10, 10],
        "criterion": _PINNED_DESIGNS[1][2], "seed": 11, "alpha": 0.1,
        "draws": 2000, "contrast": [[1.0, -1.0, 0.0]],
        "covariates": ["age", "score"], "n": 40})


def test_simulate_report_config_is_pinned(tmp_path):
    columns = [{"kind": "normal", "mean": 1.0, "sd": 2.0},
               {"kind": "binary", "rate": 0.3},
               {"kind": "uniform", "low": -1.0, "high": 1.0}]
    outcome = {"intercepts": [0.0, 0.5, 1.0, 1.5], "slopes": [1.0, 0.5, -0.5],
               "noise_scales": 0.8, "additive": True}
    pop = _write_json(tmp_path / "pop.json", {
        "n": 80, "k": 2, "sizes": {"equal": 80}, "columns": columns,
        "outcome": outcome})
    designs = _write_json(tmp_path / "designs.json", {
        "designs": [{"name": "balanced",
                     "criterion": {"type": "overall", "p": 0.3}}],
        "seed": 3, "coverage": True, "alpha": 0.1, "draws": 2000,
        "theory_draws": 2000})
    out = tmp_path / "full.json"
    assert main(["simulate", "--population", pop, "--designs", designs,
                 "--reps", "4", "--out-json", str(out)]) == 0
    _assert_tree_close(json.loads(out.read_text())["config"], {
        "population": {
            "n": 80, "k": 2, "sizes": [20, 20, 20, 20], "columns": columns,
            "correlation": None,
            "outcome": {**outcome, "clamp": None}},
        "designs": [{"name": "balanced", "criterion": {
            "type": "overall", "dims": [9], "a": [6.393305964475309],
            "p": [0.3]}}],
        "reps": 4, "seed": 3, "coverage": True, "alpha": 0.1, "draws": 2000,
        "theory_draws": 2000, "max_draws": None, "workers": None})


@pytest.mark.parametrize("argv, rows", [
    (["--dims", "6,2,1", "--p", "0.1,0.5,0.9"],
     [[1, 6, 2.2041306564986427, 0.1, 0.25894596377445345],
      [2, 2, 1.386294361119891, 0.5, 0.30685281944005488],
      [3, 1, 2.705543454095404, 0.9, 0.62301548413468266]]),
    (["--dims", "4,1", "--a", "2.5,0.75"],
     [[1, 4, 2.5, 0.35536420706457217, 0.37013388490655852],
      [2, 1, 0.75, 0.6135237692287675, 0.22593243578762198]]),
], ids=["p", "a"])
def test_thresholds_csv_is_pinned(tmp_path, argv, rows):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", *argv, "--out", str(out)]) == 0
    table = _read_csv(out)
    assert table[0] == ["tier", "dim", "cutoff", "probability", "variance_factor"]
    _assert_tree_close([[int(r[0]), int(r[1])] + [float(v) for v in r[2:]]
                        for r in table[1:]], rows)
