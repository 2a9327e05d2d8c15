"""Command-line interface: design, analyze, simulate, thresholds.

File formats
------------
Data files are UTF-8 comma-separated tables with a header row.  The column
named ``unit`` (required) carries unit identifiers; ``outcome`` and
``assignment`` are reserved for the observed outcome and the 1-based
treatment-combination label; every other column is a numeric covariate, in
file order.  Configuration files are JSON; all indices in configs (effects,
covariates, grid cells, assignment labels) are 1-based.  JSON reports carry
a schema-version field and the fully resolved configuration.

Exit codes: 0 success, 2 validation problem (also used by argparse),
3 draw budget exhausted, 4 numerical failure (singular matrix).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .balance import (BalanceCriterion, CompleteRandomization, CriterionEngine,
                      EffectTierCriterion, GridTierCriterion,
                      MahalanobisCriterion, thresholds_from_probability)
from .chisq import chi2_cdf, truncation_variance_factor
from .confidence import DEFAULT_LAW_DRAWS, confidence_set, estimated_law
from .design import (CovariateTierPartition, EffectTierPartition,
                     FactorialStructure, GroupSizes, TierGrid, build_structure)
from .errors import SingularMatrixError, ValidationError
from .estimate import effect_estimates
from .rerandomize import (Assignment, MaxDrawsExceeded, default_max_draws,
                          rerandomize)
from .rng import stream
from .simlab import (CovariateColumn, OutcomeRecipe, PopulationSpec,
                     education_like, generate_population, replicate,
                     report_rows, report_to_dict)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MAX_DRAWS = 3
EXIT_NUMERICAL = 4

_RESERVED_COLUMNS = ("unit", "outcome", "assignment")
_BUILTIN_POPULATIONS = ("education-like",)


# ---------------------------------------------------------------------------
# low-level I/O helpers


def _fmt(value) -> str:
    """Cell formatting for CSV output: floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _open_out(path: str | None):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(path: str | None, header, rows) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str | None, payload: dict) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def _read_table(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header plus (file line number, fields) rows; enforces a rectangle."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    numbered = [(i, row) for i, row in enumerate(raw, start=1) if row]
    if not numbered:
        raise ValidationError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in numbered[0][1]]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise ValidationError(f"{path}: duplicate column names {dupes}")
    for line_no, row in numbered[1:]:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}")
    return header, numbered[1:]


@dataclass
class DataFile:
    path: str
    units: list[str]
    covariate_names: list[str]
    x: np.ndarray
    outcome: np.ndarray | None
    assignment_labels: np.ndarray | None


def read_data_file(path: str) -> DataFile:
    header, rows = _read_table(path)
    if "unit" not in header:
        raise ValidationError(f"{path}: missing required 'unit' column")
    covariate_names = [h for h in header if h not in _RESERVED_COLUMNS]
    if not covariate_names:
        raise ValidationError(
            f"{path}: no covariate columns (every column is one of "
            f"{_RESERVED_COLUMNS})")
    col = {name: header.index(name) for name in header}

    def parse_float(text: str, line_no: int, name: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise ValidationError(
                f"{path}: row {line_no}, column {name!r}: not a number: "
                f"{text!r}") from None

    units, x_rows = [], []
    outcome = [] if "outcome" in header else None
    labels = [] if "assignment" in header else None
    for line_no, row in rows:
        units.append(row[col["unit"]])
        x_rows.append([parse_float(row[col[name]], line_no, name)
                       for name in covariate_names])
        if outcome is not None:
            outcome.append(parse_float(row[col["outcome"]], line_no, "outcome"))
        if labels is not None:
            text = row[col["assignment"]]
            try:
                labels.append(int(text))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {line_no}, column 'assignment': expected an "
                    f"integer label, got {text!r}") from None
    if not units:
        raise ValidationError(f"{path}: no data rows")
    return DataFile(
        path=path, units=units, covariate_names=covariate_names,
        x=np.asarray(x_rows, dtype=float),
        outcome=None if outcome is None else np.asarray(outcome, dtype=float),
        assignment_labels=None if labels is None else np.asarray(labels))


def _assignment_from_labels(labels: np.ndarray, sizes: GroupSizes,
                            path: str) -> Assignment:
    q = sizes.q_count
    bad = (labels < 1) | (labels > q)
    if bad.any():
        first = int(np.argmax(bad))
        raise ValidationError(
            f"{path}: assignment label {labels[first]} at data row {first + 1} "
            f"is outside 1..{q}")
    counts = np.bincount(labels - 1, minlength=q)
    for qi in range(q):
        if counts[qi] != sizes.counts[qi]:
            raise ValidationError(
                f"{path}: group {qi + 1} has {counts[qi]} units, config "
                f"expects {sizes.counts[qi]}")
    return Assignment(codes=(labels - 1).astype(np.int32), q_count=q)


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(spec: dict, allowed, context: str) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValidationError(f"{context}: unknown keys {unknown}; allowed: "
                              f"{sorted(allowed)}")


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    return value


def _as_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{label} must be a number, got {value!r}")
    return float(value)


def _number_list(value, label: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, list):
        return [_as_number(v, f"{label}[{i + 1}]") for i, v in enumerate(value)]
    raise ValidationError(f"{label} must be a number or a list of numbers")


def _parse_sizes(value, q_count: int, context: str) -> GroupSizes:
    if isinstance(value, dict):
        _check_keys(value, {"equal"}, f"{context}: sizes")
        return GroupSizes.equal(q_count, _as_int(value["equal"], "sizes.equal"))
    if isinstance(value, list):
        if len(value) != q_count:
            raise ValidationError(
                f"{context}: sizes lists {len(value)} groups, the design has "
                f"{q_count}")
        return GroupSizes(tuple(_as_int(v, f"sizes[{i + 1}]")
                                for i, v in enumerate(value)))
    raise ValidationError(
        f"{context}: sizes must be a list of {q_count} counts or "
        f'{{"equal": total}}')


def _parse_tiers(value, count: int, label: str) -> tuple[tuple[int, ...], ...]:
    """1-based index lists from JSON -> 0-based tier tuples."""
    if not isinstance(value, list) or not all(isinstance(t, list) for t in value):
        raise ValidationError(f"{label} must be a list of index lists")
    tiers = []
    for t, tier in enumerate(value):
        cleaned = []
        for v in tier:
            i = _as_int(v, f"{label}[{t + 1}]")
            if not 1 <= i <= count:
                raise ValidationError(
                    f"{label}[{t + 1}]: index {i} outside 1..{count} "
                    f"(indices are 1-based)")
            cleaned.append(i - 1)
        tiers.append(tuple(cleaned))
    return tuple(tiers)


def _resolve_cutoffs(spec: dict, dims, context: str) -> tuple[list[float], list[float]]:
    """Exactly one of 'a' (cutoffs) / 'p' (acceptance probabilities) -> both."""
    a_spec, p_spec = spec.get("a"), spec.get("p")
    if (a_spec is None) == (p_spec is None):
        raise ValidationError(
            f"{context}: supply exactly one of 'a' (cutoff values) or 'p' "
            f"(per-tier acceptance probabilities)")
    dims = [int(d) for d in dims]
    if p_spec is not None:
        probs = _number_list(p_spec, f"{context}: p")
        if len(probs) != len(dims):
            raise ValidationError(
                f"{context}: got {len(probs)} probabilities for {len(dims)} "
                f"statistics")
        cutoffs = [float(v) for v in thresholds_from_probability(dims, probs)]
        return cutoffs, probs
    cutoffs = _number_list(a_spec, f"{context}: a")
    if len(cutoffs) != len(dims):
        raise ValidationError(
            f"{context}: got {len(cutoffs)} cutoffs for {len(dims)} statistics")
    probs = [chi2_cdf(a, d) for a, d in zip(cutoffs, dims)]
    return cutoffs, probs


def parse_criterion(spec, structure: FactorialStructure, covariate_count: int,
                    context: str) -> tuple[BalanceCriterion, dict]:
    """Criterion object plus its resolved config (both cutoffs and probabilities)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError(f'{context}: criterion must be an object with a "type"')
    ctype = spec["type"]
    f_count, l_count = structure.f_count, covariate_count

    if ctype == "complete":
        _check_keys(spec, {"type"}, context)
        return CompleteRandomization(), {"type": "complete"}

    if ctype == "overall":
        _check_keys(spec, {"type", "a", "p"}, context)
        dims = [f_count * l_count]
        a, p = _resolve_cutoffs(spec, dims, context)
        return MahalanobisCriterion(a[0]), {
            "type": "overall", "dims": dims, "a": a, "p": p}

    if ctype == "effect-tiers":
        _check_keys(spec, {"type", "tiers", "a", "p"}, context)
        if "tiers" not in spec:
            raise ValidationError(f"{context}: effect-tiers criterion needs 'tiers'")
        partition = EffectTierPartition(
            _parse_tiers(spec["tiers"], f_count, f"{context}: tiers"))
        partition.validate(f_count)
        dims = [l_count * s for s in partition.sizes()]
        a, p = _resolve_cutoffs(spec, dims, context)
        return EffectTierCriterion(partition, tuple(a)), {
            "type": "effect-tiers", "tiers": spec["tiers"], "dims": dims,
            "a": a, "p": p}

    if ctype == "grid":
        _check_keys(spec, {"type", "effect_tiers", "covariate_tiers", "cells",
                           "a", "p"}, context)
        for key in ("effect_tiers", "covariate_tiers"):
            if key not in spec:
                raise ValidationError(f"{context}: grid criterion needs {key!r}")
        eff = EffectTierPartition(
            _parse_tiers(spec["effect_tiers"], f_count, f"{context}: effect_tiers"))
        eff.validate(f_count)
        cov = CovariateTierPartition(
            _parse_tiers(spec["covariate_tiers"], l_count,
                         f"{context}: covariate_tiers"))
        cov.validate(l_count)
        cells_spec = spec.get("cells", "triangular")
        if cells_spec == "triangular":
            grid = TierGrid.triangular(len(cov), len(eff))
        elif isinstance(cells_spec, list):
            groups = []
            for j, group in enumerate(cells_spec):
                if not isinstance(group, list):
                    raise ValidationError(
                        f"{context}: cells[{j + 1}] must be a list of [t, h] pairs")
                pairs = []
                for pair in group:
                    if (not isinstance(pair, list) or len(pair) != 2):
                        raise ValidationError(
                            f"{context}: cells[{j + 1}]: each cell is a "
                            f"1-based [covariate_tier, effect_tier] pair")
                    t = _as_int(pair[0], f"{context}: cells[{j + 1}]")
                    h = _as_int(pair[1], f"{context}: cells[{j + 1}]")
                    if not (1 <= t <= len(cov) and 1 <= h <= len(eff)):
                        raise ValidationError(
                            f"{context}: cells[{j + 1}]: cell [{t}, {h}] outside "
                            f"the {len(cov)} x {len(eff)} tier layout (1-based)")
                    pairs.append((t - 1, h - 1))
                groups.append(tuple(pairs))
            grid = TierGrid(cells=tuple(groups))
            grid.validate(len(cov), len(eff))
        else:
            raise ValidationError(
                f'{context}: cells must be "triangular" or an explicit grouping')
        dims = [int(d) for d in grid.dims(cov, eff)]
        a, p = _resolve_cutoffs(spec, dims, context)
        criterion = GridTierCriterion(eff, cov, grid, tuple(a))
        resolved_cells = [[[t + 1, h + 1] for (t, h) in cell] for cell in grid.cells]
        return criterion, {
            "type": "grid", "effect_tiers": spec["effect_tiers"],
            "covariate_tiers": spec["covariate_tiers"], "cells": resolved_cells,
            "dims": dims, "a": a, "p": p}

    raise ValidationError(
        f"{context}: unknown criterion type {ctype!r}; expected one of "
        f"'complete', 'overall', 'effect-tiers', 'grid'")


def _resolve_seed(flag_value, config: dict | None, *, context: str) -> int:
    if flag_value is not None:
        seed = flag_value
    elif config is not None and "seed" in config:
        seed = _as_int(config["seed"], f"{context}: seed")
    else:
        env = os.environ.get("REFAC_SEED")
        if env is None:
            raise ValidationError(
                "no seed: pass --seed, put \"seed\" in the config, or set "
                "REFAC_SEED")
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(
                f"REFAC_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    return seed


def _design_context(config: dict, covariate_count: int, context: str):
    """(structure, sizes, criterion, resolved criterion) from a design config."""
    _check_keys(config, {"k", "sizes", "criterion", "seed", "max_draws",
                         "alpha", "draws"}, context)
    for key in ("k", "sizes", "criterion"):
        if key not in config:
            raise ValidationError(f"{context}: missing required key {key!r}")
    structure = build_structure(_as_int(config["k"], f"{context}: k"))
    sizes = _parse_sizes(config["sizes"], structure.q_count, context)
    criterion, resolved = parse_criterion(config["criterion"], structure,
                                          covariate_count, f"{context}: criterion")
    return structure, sizes, criterion, resolved


# ---------------------------------------------------------------------------
# commands


def cmd_design(args) -> None:
    config = _load_json(args.config)
    data = read_data_file(args.covariates)
    structure, sizes, criterion, resolved_crit = _design_context(
        config, data.x.shape[1], args.config)
    if sizes.n != len(data.units):
        raise ValidationError(
            f"{args.covariates} has {len(data.units)} units but the group "
            f"sizes sum to {sizes.n}")
    seed = _resolve_seed(args.seed, config, context=args.config)
    max_draws = args.max_draws
    if max_draws is None and "max_draws" in config:
        max_draws = _as_int(config["max_draws"], f"{args.config}: max_draws")

    engine = CriterionEngine(data.x, structure, sizes, criterion)
    budget = max_draws if max_draws is not None else \
        default_max_draws(engine.acceptance_probability)
    outcome = rerandomize(data.x, structure, sizes, criterion, stream(seed),
                          max_draws=budget, engine=engine)

    _write_csv(args.out, ["unit", "assignment"],
               zip(data.units, outcome.assignment.labels().tolist()))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "design",
        "config": {
            "k": structure.k,
            "sizes": list(sizes.counts),
            "criterion": resolved_crit,
            "seed": seed,
            "max_draws": budget,
            "covariates": data.covariate_names,
            "n": sizes.n,
        },
        "acceptance_probability": engine.acceptance_probability,
        "draws_attempted": outcome.draws_attempted,
        "balance": {
            "passed": outcome.report.passed,
            "values": outcome.report.values,
            "limits": outcome.report.limits,
        },
    }
    _write_json(args.report, payload)


def cmd_analyze(args) -> None:
    config = _load_json(args.config)
    data = read_data_file(args.data)
    if data.outcome is None:
        raise ValidationError(f"{args.data}: missing 'outcome' column")
    if data.assignment_labels is None:
        raise ValidationError(f"{args.data}: missing 'assignment' column")
    structure, sizes, criterion, resolved_crit = _design_context(
        config, data.x.shape[1], args.config)
    if sizes.n != len(data.units):
        raise ValidationError(
            f"{args.data} has {len(data.units)} units but the group sizes "
            f"sum to {sizes.n}")
    assignment = _assignment_from_labels(data.assignment_labels, sizes, args.data)
    seed = _resolve_seed(args.seed, config, context=args.config)
    alpha = args.alpha if args.alpha is not None else \
        _as_number(config.get("alpha", 0.05), f"{args.config}: alpha")
    draws = args.draws if args.draws is not None else \
        _as_int(config.get("draws", DEFAULT_LAW_DRAWS), f"{args.config}: draws")

    if args.contrast is not None:
        spec = _load_json(args.contrast)
        rows = spec.get("rows") if isinstance(spec, dict) else spec
        if not isinstance(rows, list):
            raise ValidationError(
                f'{args.contrast}: expected a list of rows or {{"rows": [...]}}')
        contrast = np.asarray(rows, dtype=float)
        contrast_resolved = [list(map(float, row)) for row in np.atleast_2d(contrast)]
    else:
        contrast = None
        contrast_resolved = "identity"

    tau_hat = effect_estimates(data.outcome, assignment, structure)
    law = estimated_law(data.outcome, data.x, assignment, structure, sizes,
                        criterion)
    cs = confidence_set(data.outcome, data.x, assignment, structure, sizes,
                        criterion, contrast=contrast, alpha=alpha,
                        rng=stream(seed), draws=draws, law=law)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "config": {
            "k": structure.k,
            "sizes": list(sizes.counts),
            "criterion": resolved_crit,
            "seed": seed,
            "alpha": alpha,
            "draws": draws,
            "contrast": contrast_resolved,
            "covariates": data.covariate_names,
            "n": sizes.n,
        },
        "effects": {
            "names": list(structure.effect_names()),
            "estimates": tau_hat.tolist(),
        },
        "covariance_estimate": law.covariance().tolist(),
        "confidence_set": {
            "alpha": cs.alpha,
            "draws": cs.draws,
            "center": cs.center.tolist(),
            "shape": cs.shape.tolist(),
            "threshold": cs.threshold,
            "intervals": cs.axis_intervals().tolist(),
        },
    }
    _write_json(args.out, payload)


def cmd_simulate(args) -> None:
    pop_cfg = _load_json(args.population)
    designs_cfg = _load_json(args.designs)
    spec, sizes, resolved_pop = _parse_population(pop_cfg, args.population)
    structure = build_structure(spec.k)

    if isinstance(designs_cfg, list):
        entries, extras = designs_cfg, {}
    elif isinstance(designs_cfg, dict):
        _check_keys(designs_cfg, {"designs", "seed", "coverage", "alpha",
                                  "draws", "theory_draws", "max_draws",
                                  "workers"}, args.designs)
        if "designs" not in designs_cfg:
            raise ValidationError(f"{args.designs}: missing 'designs' list")
        entries, extras = designs_cfg["designs"], designs_cfg
    else:
        raise ValidationError(f"{args.designs}: expected a list or an object")
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{args.designs}: 'designs' must be a nonempty list")

    designs, resolved_designs = [], []
    for i, entry in enumerate(entries):
        context = f"{args.designs}: designs[{i + 1}]"
        if not isinstance(entry, dict) or "name" not in entry or "criterion" not in entry:
            raise ValidationError(f"{context}: needs 'name' and 'criterion'")
        name = str(entry["name"])
        criterion, resolved = parse_criterion(entry["criterion"], structure,
                                              spec.covariate_count, context)
        designs.append((name, criterion))
        resolved_designs.append({"name": name, "criterion": resolved})

    seed = _resolve_seed(args.seed, extras, context=args.designs)
    coverage = args.coverage if args.coverage is not None else \
        bool(extras.get("coverage", False))
    alpha = args.alpha if args.alpha is not None else \
        _as_number(extras.get("alpha", 0.05), f"{args.designs}: alpha")
    law_draws = args.draws if args.draws is not None else \
        _as_int(extras.get("draws", 20_000), f"{args.designs}: draws")
    theory_draws = _as_int(extras.get("theory_draws", 200_000),
                           f"{args.designs}: theory_draws")
    max_draws = args.max_draws
    if max_draws is None and "max_draws" in extras:
        max_draws = _as_int(extras["max_draws"], f"{args.designs}: max_draws")
    workers = args.workers if args.workers is not None else \
        _as_int(extras.get("workers", 1), f"{args.designs}: workers")

    population = generate_population(spec, stream(seed, 2))
    report = replicate(population, structure, sizes, designs, reps=args.reps,
                       seed=seed, coverage=coverage, alpha=alpha,
                       law_draws=law_draws, theory_draws=theory_draws,
                       max_draws=max_draws, workers=workers)

    rows = report_rows(report)
    if args.out_csv is not None:
        _write_csv(args.out_csv, list(rows[0].keys()),
                   [list(r.values()) for r in rows])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": {
            "population": resolved_pop,
            "designs": resolved_designs,
            "reps": args.reps,
            "seed": seed,
            "coverage": coverage,
            "alpha": alpha,
            "draws": law_draws,
            "theory_draws": theory_draws,
            "max_draws": max_draws,
            "workers": workers,
        },
        "report": report_to_dict(report),
        "timing_seconds": report.timing_seconds,
    }
    _write_json(args.out_json, payload)


def _parse_population(cfg, path: str) -> tuple[PopulationSpec, GroupSizes, dict]:
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: population spec must be a JSON object")
    if "builtin" in cfg:
        _check_keys(cfg, {"builtin"}, path)
        name = cfg["builtin"]
        if name not in _BUILTIN_POPULATIONS:
            raise ValidationError(
                f"{path}: unknown builtin {name!r}; available: "
                f"{list(_BUILTIN_POPULATIONS)}")
        spec, sizes = education_like()
        resolved = {"builtin": name, "n": spec.n, "k": spec.k,
                    "sizes": list(sizes.counts),
                    "covariates": spec.covariate_count}
        return spec, sizes, resolved

    _check_keys(cfg, {"n", "k", "sizes", "columns", "correlation", "outcome"},
                path)
    for key in ("n", "k", "sizes", "columns", "outcome"):
        if key not in cfg:
            raise ValidationError(f"{path}: missing required key {key!r}")
    n = _as_int(cfg["n"], f"{path}: n")
    k = _as_int(cfg["k"], f"{path}: k")
    sizes = _parse_sizes(cfg["sizes"], 2 ** k, path)
    if sizes.n != n:
        raise ValidationError(
            f"{path}: sizes sum to {sizes.n}, but n = {n}")

    if not isinstance(cfg["columns"], list) or not cfg["columns"]:
        raise ValidationError(f"{path}: columns must be a nonempty list")
    columns = []
    for i, c in enumerate(cfg["columns"]):
        context = f"{path}: columns[{i + 1}]"
        if not isinstance(c, dict) or "kind" not in c:
            raise ValidationError(f'{context}: needs a "kind"')
        kind = c["kind"]
        if kind == "normal":
            _check_keys(c, {"kind", "mean", "sd"}, context)
            columns.append(CovariateColumn(
                "normal", _as_number(c.get("mean", 0.0), f"{context}: mean"),
                _as_number(c.get("sd", 1.0), f"{context}: sd")))
        elif kind == "binary":
            _check_keys(c, {"kind", "rate"}, context)
            if "rate" not in c:
                raise ValidationError(f"{context}: binary column needs 'rate'")
            columns.append(CovariateColumn(
                "binary", _as_number(c["rate"], f"{context}: rate")))
        elif kind == "uniform":
            _check_keys(c, {"kind", "low", "high"}, context)
            columns.append(CovariateColumn(
                "uniform", _as_number(c.get("low", 0.0), f"{context}: low"),
                _as_number(c.get("high", 1.0), f"{context}: high")))
        else:
            raise ValidationError(
                f"{context}: unknown kind {kind!r}; expected normal, binary, "
                f"or uniform")

    correlation = None
    if cfg.get("correlation") is not None:
        correlation = np.asarray(cfg["correlation"], dtype=float)

    oc = cfg["outcome"]
    if not isinstance(oc, dict):
        raise ValidationError(f"{path}: outcome must be an object")
    _check_keys(oc, {"intercepts", "slopes", "noise_scales", "additive",
                     "clamp"}, f"{path}: outcome")
    for key in ("intercepts", "slopes"):
        if key not in oc:
            raise ValidationError(f"{path}: outcome needs {key!r}")
    noise = oc.get("noise_scales", 1.0)
    recipe = OutcomeRecipe(
        intercepts=tuple(_number_list(oc["intercepts"], f"{path}: intercepts")),
        slopes=np.asarray(oc["slopes"], dtype=float),
        noise_scales=(tuple(noise) if isinstance(noise, list) else
                      _as_number(noise, f"{path}: noise_scales")),
        additive=bool(oc.get("additive", False)),
        clamp=None if oc.get("clamp") is None else tuple(oc["clamp"]))
    spec = PopulationSpec(n=n, k=k, columns=tuple(columns), outcome=recipe,
                          correlation=correlation)
    resolved = {
        "n": n, "k": k, "sizes": list(sizes.counts),
        "columns": cfg["columns"],
        "correlation": None if correlation is None else correlation.tolist(),
        "outcome": {
            "intercepts": list(recipe.intercepts),
            "slopes": recipe.slopes.tolist(),
            "noise_scales": (list(recipe.noise_scales)
                             if isinstance(recipe.noise_scales, tuple)
                             else recipe.noise_scales),
            "additive": recipe.additive,
            "clamp": None if recipe.clamp is None else list(recipe.clamp),
        },
    }
    return spec, sizes, resolved


def _parse_count_list(text: str, label: str, cast) -> list:
    try:
        return [cast(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValidationError(f"{label} must be a comma-separated list, got "
                              f"{text!r}") from None


def cmd_thresholds(args) -> None:
    dims = _parse_count_list(args.dims, "--dims", int)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"--dims needs positive dimensions, got {args.dims!r}")
    if (args.p is None) == (args.a is None):
        raise ValidationError("supply exactly one of --p or --a")
    if args.p is not None:
        probs = _parse_count_list(args.p, "--p", float)
        if len(probs) != len(dims):
            raise ValidationError(
                f"--p lists {len(probs)} values for {len(dims)} dimensions")
        cutoffs = [float(v) for v in thresholds_from_probability(dims, probs)]
    else:
        cutoffs = _parse_count_list(args.a, "--a", float)
        if len(cutoffs) != len(dims):
            raise ValidationError(
                f"--a lists {len(cutoffs)} values for {len(dims)} dimensions")
        for a in cutoffs:
            if not (math.isfinite(a) and a > 0.0):
                raise ValidationError(f"cutoffs must be positive, got {a}")
        probs = [chi2_cdf(a, d) for a, d in zip(cutoffs, dims)]
    factors = [truncation_variance_factor(d, a) for d, a in zip(dims, cutoffs)]
    rows = [(i + 1, dims[i], cutoffs[i], probs[i], factors[i])
            for i in range(len(dims))]
    _write_csv(args.out, ["tier", "dim", "cutoff", "probability",
                          "variance_factor"], rows)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refac",
        description="Design and analyze rerandomized 2^K factorial experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="draw a balanced assignment for a covariate file")
    d.add_argument("--config", required=True, help="design config JSON")
    d.add_argument("--covariates", required=True, help="covariate CSV (needs a 'unit' column)")
    d.add_argument("--out", required=True, help="assignment CSV to write")
    d.add_argument("--report", help="balance report JSON (default: stdout)")
    d.add_argument("--seed", type=int, help="RNG seed (falls back to config, then REFAC_SEED)")
    d.add_argument("--max-draws", type=int, dest="max_draws")

    a = sub.add_parser("analyze", help="estimate effects and a confidence set")
    a.add_argument("--config", required=True, help="design config JSON (same schema as design)")
    a.add_argument("--data", required=True, help="CSV with unit, covariates, outcome, assignment")
    a.add_argument("--contrast", help="JSON file with contrast rows (default: identity)")
    a.add_argument("--alpha", type=float)
    a.add_argument("--draws", type=int, help="Monte Carlo draws for the threshold")
    a.add_argument("--seed", type=int)
    a.add_argument("--out", help="output JSON (default: stdout)")

    s = sub.add_parser("simulate", help="replicate designs on a synthetic population")
    s.add_argument("--population", required=True, help="population spec JSON")
    s.add_argument("--designs", required=True, help="designs JSON")
    s.add_argument("--reps", type=int, required=True)
    s.add_argument("--seed", type=int)
    s.add_argument("--coverage", action="store_true", default=None,
                   help="also check confidence-set coverage each replication")
    s.add_argument("--alpha", type=float)
    s.add_argument("--draws", type=int, help="law draws per confidence set")
    s.add_argument("--max-draws", type=int, dest="max_draws")
    s.add_argument("--workers", type=int)
    s.add_argument("--out-csv", dest="out_csv", help="flat per-effect CSV report")
    s.add_argument("--out-json", dest="out_json", help="full JSON report (default: stdout)")

    t = sub.add_parser("thresholds", help="convert between cutoffs and acceptance probabilities")
    t.add_argument("--dims", required=True, help="comma-separated chi-square dimensions")
    t.add_argument("--p", help="comma-separated acceptance probabilities")
    t.add_argument("--a", help="comma-separated cutoff values")
    t.add_argument("--out", help="output CSV (default: stdout)")

    return parser


_HANDLERS = {
    "design": cmd_design,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "thresholds": cmd_thresholds,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
        return EXIT_OK
    except MaxDrawsExceeded as exc:
        print(f"refac: {exc}", file=sys.stderr)
        if exc.best_report is not None:
            print(f"  nearest miss reached {exc.best_ratio:.4f} x its cutoff:",
                  file=sys.stderr)
            for name, value in exc.best_report.values.items():
                limit = exc.best_report.limits.get(name)
                against = "" if limit is None else f" (cutoff {limit:.6g})"
                print(f"    {name} = {value:.6g}{against}", file=sys.stderr)
        return EXIT_MAX_DRAWS
    except SingularMatrixError as exc:
        print(f"refac: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValidationError as exc:
        print(f"refac: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
