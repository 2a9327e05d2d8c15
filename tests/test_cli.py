"""End-to-end checks of the command-line interface."""

import csv
import importlib
import json

import numpy as np
import pytest

from refac.chisq import chi2_cdf, truncation_variance_factor
from refac.cli import main
from refac.design import CONTRAST_BUDGET_BYTES, MAX_FACTORS, build_structure
from refac.estimate import effect_estimates
from refac.rerandomize import Assignment
from refac.rng import stream


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
    assert payload["schema_version"] == 1
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

    bad_key = _design_config(tmp_path / "bad_key.json", extra_knob=1)
    code, err = run(config=bad_key)
    assert code == 2 and "unknown keys" in err

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

    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    code, err = run(config=str(not_json))
    assert code == 2 and "invalid JSON" in err


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
    assert payload["schema_version"] == 1
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


def test_simulate_validation(tmp_path, capsys):
    pop, _ = _simulation_configs(tmp_path)
    out = str(tmp_path / "o.json")

    def run(designs_payload):
        designs = _write_json(tmp_path / "d.json", designs_payload)
        code = main(["simulate", "--population", pop, "--designs", designs,
                     "--reps", "4", "--out-json", out])
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
    assert "positive" in capsys.readouterr().err
