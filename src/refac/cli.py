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
from dataclasses import MISSING, dataclass, fields

import numpy as np
import orjson

from .balance import (BalanceCriterion, CompleteRandomization, CriterionEngine,
                      EffectTierCriterion, GridTierCriterion,
                      MahalanobisCriterion, thresholds_from_probability)
from .chisq import chi2_cdf, truncation_variance_factor
from .confidence import DEFAULT_ALPHA, DEFAULT_LAW_DRAWS, confidence_set
from .design import (CovariateTierPartition, EffectTierPartition,
                     FactorialStructure, GroupSizes, TierGrid, build_structure)
from .errors import SingularMatrixError, ValidationError
from .estimate import effect_estimates
from .rerandomize import (Assignment, MaxDrawsExceeded, default_max_draws,
                          rerandomize)
from .rng import stream
from .simlab import (COVERAGE_LAW_DRAWS, THEORY_DRAWS, CovariateColumn, OutcomeRecipe,
                     PopulationSpec, education_like, generate_population, replicate,
                     report_rows, report_to_dict)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MAX_DRAWS = 3
EXIT_NUMERICAL = 4

_RESERVED_COLUMNS = ("unit", "outcome", "assignment")
#: built-in populations: name -> function giving the spec and its group sizes
_BUILTIN_POPULATIONS = {"education-like": education_like}


# ---------------------------------------------------------------------------
# low-level I/O helpers


def _open_out(path: str | None, binary: bool = False):
    """``path`` opened for writing; None or "-" is standard output."""
    if path is None or path == "-":
        sys.stdout.flush()  # text already written to stdout comes first
        return contextlib.nullcontext(sys.stdout.buffer if binary else sys.stdout)
    return open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="")


def _write_csv(path: str | None, header, rows) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:  # floats at 17 significant digits
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])


def _write_json(path: str | None, payload: dict) -> None:
    """One line of strict JSON (RFC 8259) in UTF-8; NaN and infinities become null."""
    with _open_out(path, binary=True) as fh:
        fh.write(orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY) + b"\n")


def _write_report(path: str | None, command: str, **body) -> None:
    _write_json(path, {"schema_version": SCHEMA_VERSION, "command": command, **body})


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
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
        raise ValidationError(f"{path}: row {line_no}, column {name!r}: not a "
                              f"number: {text!r} (values must be finite)")

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
    assignment = Assignment.from_labels(labels, q)
    for qi, (count, expected) in enumerate(zip(assignment.counts(), sizes.counts)):
        if count != expected:
            raise ValidationError(
                f"{path}: group {qi + 1} has {count} units, config expects {expected}")
    return assignment


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(spec: dict, allowed, context: str, required=()) -> None:
    if not isinstance(spec, dict):
        raise ValidationError(f"{context}: expected a JSON object")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValidationError(f"{context}: unknown keys {unknown}; allowed: "
                              f"{sorted(allowed)}")
    for key in required:
        if key not in spec:
            raise ValidationError(f"{context}: missing required key {key!r}")


@contextlib.contextmanager
def _prefixed(context: str):
    """Prefix a library :class:`ValidationError` with where in the file it arose."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{label} must be an integer, got {value!r}")
    return value


def _as_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{label} must be a number, got {value!r}")
    return float(value)


def _as_bool(value, label: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{label} must be true or false, got {value!r}")
    return value


def _number_list(value, label: str) -> list[float]:
    if isinstance(value, list):
        return [_as_number(v, f"{label}[{i + 1}]") for i, v in enumerate(value)]
    return [_as_number(value, label)]


def _parse_sizes(value, q_count: int, context: str) -> GroupSizes:
    if isinstance(value, dict):
        _check_keys(value, {"equal"}, f"{context}: sizes", required=("equal",))
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


def _tier_partition(cls, spec: dict, key: str | None, count: int, context: str):
    """The 1-based index lists under ``key`` -> a validated 0-based tier
    partition; without a key, all ``count`` indices in one tier."""
    if key is None:
        return cls((range(count),))
    label, value = f"{context}: {key}", spec[key]
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
    partition = cls(tuple(tiers))
    partition.validate(count)
    return partition


def _parse_cells(value, t_count: int, h_count: int, context: str) -> TierGrid:
    """A grid's "cells": "triangular" or groups of 1-based [t, h] pairs."""
    if value == "triangular":
        return TierGrid.triangular(t_count, h_count)
    if not isinstance(value, list):
        raise ValidationError(
            f'{context}: cells must be "triangular" or an explicit grouping')
    groups = []
    for j, group in enumerate(value):
        where = f"{context}: cells[{j + 1}]"
        if not isinstance(group, list):
            raise ValidationError(f"{where} must be a list of [t, h] pairs")
        pairs = []
        for pair in group:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(
                    f"{where}: each cell is a 1-based [covariate_tier, effect_tier] pair")
            t, h = (_as_int(v, where) for v in pair)
            if not (1 <= t <= t_count and 1 <= h <= h_count):
                raise ValidationError(
                    f"{where}: cell [{t}, {h}] outside the {t_count} x {h_count} "
                    f"tier layout (1-based)")
            pairs.append((t - 1, h - 1))
        groups.append(tuple(pairs))
    grid = TierGrid(cells=tuple(groups))
    grid.validate(t_count, h_count)
    return grid


def _resolve_cutoffs(cutoffs, probs, dims, parse, where: str = "",
                     names=("a", "p")) -> tuple[list[float], list[float]]:
    """Exactly one of cutoffs / acceptance probabilities, one per dimension -> both;
    ``parse(value, label)`` reads the one given into floats."""
    if (cutoffs is None) == (probs is None):
        raise ValidationError(
            f"{where}supply exactly one of {names[0]!r} (cutoff values) or "
            f"{names[1]!r} (per-tier acceptance probabilities)")
    name, given = (names[1], probs) if cutoffs is None else (names[0], cutoffs)
    values = parse(given, f"{where}{name}")
    if len(values) != len(dims):
        raise ValidationError(
            f"{where}{name} lists {len(values)} values for {len(dims)} dimensions")
    if cutoffs is None:
        return [float(v) for v in thresholds_from_probability(dims, values)], values
    for a in values:
        if not (math.isfinite(a) and a > 0.0):
            raise ValidationError(f"{where}cutoffs must be positive and finite, got {a}")
    return values, [chi2_cdf(a, d) for a, d in zip(values, dims)]


#: per criterion type: its effect-tier and covariate-tier keys (None takes
#: all effects or all covariates as one tier), then its other allowed keys
_CRITERION_KEYS = {
    "complete": (None, None, ()),
    "overall": (None, None, ("a", "p")),
    "effect-tiers": ("tiers", None, ("a", "p")),
    "grid": ("effect_tiers", "covariate_tiers", ("cells", "a", "p")),
}


def parse_criterion(spec, structure: FactorialStructure, covariate_count: int,
                    context: str) -> tuple[BalanceCriterion, dict]:
    """Criterion object plus its resolved config (both cutoffs and probabilities):
    every thresholded type is a grid of cells over effect and covariate tiers."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError(f'{context}: criterion must be an object with a "type"')
    ctype = spec["type"]
    if not isinstance(ctype, str) or ctype not in _CRITERION_KEYS:
        raise ValidationError(
            f"{context}: unknown criterion type {ctype!r}; expected one of "
            f"'complete', 'overall', 'effect-tiers', 'grid'")
    effect_key, covariate_key, others = _CRITERION_KEYS[ctype]
    tier_keys = [key for key in (effect_key, covariate_key) if key is not None]
    _check_keys(spec, {"type", *tier_keys, *others}, context)
    if ctype == "complete":
        return CompleteRandomization(), {"type": "complete"}
    for key in tier_keys:
        if key not in spec:
            raise ValidationError(f"{context}: {ctype} criterion needs {key!r}")

    effects = _tier_partition(EffectTierPartition, spec, effect_key,
                              structure.f_count, context)
    covariates = _tier_partition(CovariateTierPartition, spec, covariate_key,
                                 covariate_count, context)
    if ctype == "grid":
        grid = _parse_cells(spec.get("cells", "triangular"), len(covariates),
                            len(effects), context)
    else:  # one group per effect tier
        grid = TierGrid(cells=tuple(((0, h),) for h in range(len(effects))))
    dims = [int(d) for d in grid.dims(covariates, effects)]
    a, p = _resolve_cutoffs(spec.get("a"), spec.get("p"), dims, _number_list,
                            f"{context}: ")

    resolved = {"type": ctype, **{key: spec[key] for key in tier_keys}}
    if ctype == "grid":
        criterion = GridTierCriterion(effects, covariates, grid, tuple(a))
        resolved["cells"] = [[[t + 1, h + 1] for (t, h) in cell] for cell in grid.cells]
    elif ctype == "effect-tiers":
        criterion = EffectTierCriterion(effects, tuple(a))
    else:
        criterion = MahalanobisCriterion(a[0])
    return criterion, {**resolved, "dims": dims, "a": a, "p": p}


def _resolve_seed(flag_value, config: dict, *, context: str) -> int:
    if flag_value is not None:
        seed = flag_value
    elif "seed" in config:
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


#: settings that a flag, the config or a default gives, per command and in
#: report order: key (also the flag's dest) -> (default, check of a config value)
_DESIGN_SETTINGS = {"max_draws": (None, _as_int)}
_ANALYZE_SETTINGS = {"alpha": (DEFAULT_ALPHA, _as_number), "draws": (DEFAULT_LAW_DRAWS, _as_int)}
_SIMULATE_SETTINGS = {
    "coverage": (False, _as_bool),
    "alpha": (DEFAULT_ALPHA, _as_number),
    "draws": (COVERAGE_LAW_DRAWS, _as_int),
    "theory_draws": (THEORY_DRAWS, _as_int),
    "max_draws": (None, _as_int),
    "workers": (None, _as_int),
}


def _settings(args, config: dict, table: dict, context: str) -> dict:
    """Each setting of ``table`` from its flag, else the config, else its default."""
    settings = {}
    for key, (default, check) in table.items():
        value = getattr(args, key, None)
        if value is None:
            value = check(config[key], f"{context}: {key}") if key in config else default
        settings[key] = value
    return settings


@dataclass
class _DesignInputs:
    """What design and analyze read alike."""

    data: DataFile
    structure: FactorialStructure
    sizes: GroupSizes
    criterion: BalanceCriterion
    resolved_criterion: dict
    seed: int
    settings: dict
    assignment: Assignment | None

    def echo(self, **resolved) -> dict:
        """The report's config; ``resolved`` replaces or follows the settings."""
        return {"k": self.structure.k, "sizes": list(self.sizes.counts),
                "criterion": self.resolved_criterion, "seed": self.seed,
                **self.settings, **resolved, "covariates": self.data.covariate_names,
                "n": self.sizes.n}


def _design_inputs(args, data_path: str, analyze: bool) -> _DesignInputs:
    """Read the design config, data file and settings; analyze also needs the
    outcome and assignment columns, and checks the labels against the sizes."""
    config = _load_json(args.config)
    data = read_data_file(data_path)
    if analyze:
        for name, column in (("outcome", data.outcome),
                             ("assignment", data.assignment_labels)):
            if column is None:
                raise ValidationError(f"{data_path}: missing {name!r} column")
    _check_keys(config, {"k", "sizes", "criterion", "seed", *_DESIGN_SETTINGS,
                         *_ANALYZE_SETTINGS}, args.config, required=("k", "sizes", "criterion"))
    structure = build_structure(_as_int(config["k"], f"{args.config}: k"))
    sizes = _parse_sizes(config["sizes"], structure.q_count, args.config)
    criterion, resolved = parse_criterion(config["criterion"], structure,
                                          data.x.shape[1], f"{args.config}: criterion")
    if sizes.n != len(data.units):
        raise ValidationError(
            f"{data_path} has {len(data.units)} units but the group sizes sum "
            f"to {sizes.n}")
    assignment = (_assignment_from_labels(data.assignment_labels, sizes, data_path)
                  if analyze else None)
    seed = _resolve_seed(args.seed, config, context=args.config)
    settings = _settings(args, config, _ANALYZE_SETTINGS if analyze else _DESIGN_SETTINGS,
                         args.config)
    return _DesignInputs(data, structure, sizes, criterion, resolved, seed,
                         settings, assignment)


# ---------------------------------------------------------------------------
# commands


def cmd_design(args) -> None:
    inputs = _design_inputs(args, args.covariates, analyze=False)
    data, budget = inputs.data, inputs.settings["max_draws"]
    engine = CriterionEngine(data.x, inputs.structure, inputs.sizes, inputs.criterion)
    if budget is None:
        budget = default_max_draws(engine.acceptance_probability)
    outcome = rerandomize(data.x, inputs.structure, inputs.sizes, inputs.criterion,
                          stream(inputs.seed), max_draws=budget, engine=engine)

    _write_csv(args.out, ["unit", "assignment"],
               zip(data.units, outcome.assignment.labels().tolist()))
    _write_report(
        args.report, "design",
        config=inputs.echo(max_draws=budget),
        acceptance_probability=engine.acceptance_probability,
        draws_attempted=outcome.draws_attempted,
        balance={
            "passed": outcome.report.passed,
            "values": outcome.report.values,
            "limits": outcome.report.limits,
        })


def cmd_analyze(args) -> None:
    inputs = _design_inputs(args, args.data, analyze=True)
    contrast, contrast_resolved = None, "identity"
    if args.contrast is not None:
        spec = _load_json(args.contrast)
        rows = spec.get("rows") if isinstance(spec, dict) else spec
        if not isinstance(rows, list):
            raise ValidationError(
                f'{args.contrast}: expected a list of rows or {{"rows": [...]}}')
        contrast = np.asarray(rows, dtype=float)
        contrast_resolved = [list(map(float, row)) for row in np.atleast_2d(contrast)]

    data, structure = inputs.data, inputs.structure
    tau_hat = effect_estimates(data.outcome, inputs.assignment, structure)
    cs = confidence_set(data.outcome, data.x, inputs.assignment, structure,
                        inputs.sizes, inputs.criterion, contrast=contrast,
                        alpha=inputs.settings["alpha"], rng=stream(inputs.seed),
                        draws=inputs.settings["draws"])
    _write_report(
        args.out, "analyze",
        config=inputs.echo(contrast=contrast_resolved),
        effects={
            "names": list(structure.effect_names()),
            "estimates": tau_hat.tolist(),
        },
        covariance_estimate=cs.law.covariance().tolist(),
        confidence_set={
            "alpha": cs.alpha,
            "draws": cs.draws,
            "center": cs.center.tolist(),
            "shape": cs.shape.tolist(),
            "threshold": cs.threshold,
            "intervals": cs.axis_intervals().tolist(),
        })


def cmd_simulate(args) -> None:
    pop_cfg = _load_json(args.population)
    designs_cfg = _load_json(args.designs)
    spec, structure, sizes, resolved_pop = _parse_population(pop_cfg, args.population)

    extras = designs_cfg if isinstance(designs_cfg, dict) else {"designs": designs_cfg}
    _check_keys(extras, {"designs", "seed", *_SIMULATE_SETTINGS}, args.designs,
                required=("designs",))
    entries = extras["designs"]
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
    settings = _settings(args, extras, _SIMULATE_SETTINGS, args.designs)

    population = generate_population(spec, stream(seed, 2))
    report = replicate(population, structure, sizes, designs, reps=args.reps,
                       seed=seed, coverage=settings["coverage"],
                       alpha=settings["alpha"], law_draws=settings["draws"],
                       theory_draws=settings["theory_draws"],
                       max_draws=settings["max_draws"], workers=settings["workers"])

    rows = report_rows(report)
    if args.out_csv is not None:
        _write_csv(args.out_csv, list(rows[0].keys()),
                   [list(r.values()) for r in rows])
    _write_report(
        args.out_json, "simulate",
        config={"population": resolved_pop, "designs": resolved_designs,
                "reps": args.reps, "seed": seed, **settings},
        report=report_to_dict(report),
        timing_seconds=report.timing_seconds)


def _parse_population(cfg, path: str) -> tuple[PopulationSpec, FactorialStructure,
                                               GroupSizes, dict]:
    """The JSON population spec -> the library's spec, structure, group sizes and
    echo; the library checks the columns, outcome and correlation, and its errors
    are prefixed with the file and field."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: population spec must be a JSON object")
    if "builtin" in cfg:
        _check_keys(cfg, {"builtin"}, path)
        name = cfg["builtin"]
        if not isinstance(name, str) or name not in _BUILTIN_POPULATIONS:
            raise ValidationError(
                f"{path}: unknown builtin {name!r}; available: "
                f"{list(_BUILTIN_POPULATIONS)}")
        spec, sizes = _BUILTIN_POPULATIONS[name]()
        resolved = {"builtin": name, "n": spec.n, "k": spec.k,
                    "sizes": list(sizes.counts), "covariates": spec.covariate_count}
        return spec, build_structure(spec.k), sizes, resolved

    _check_keys(cfg, {"n", "k", "sizes", "columns", "correlation", "outcome"},
                path, required=("n", "k", "sizes", "columns", "outcome"))
    n = _as_int(cfg["n"], f"{path}: n")
    with _prefixed(path):  # before any 2^k is formed
        structure = build_structure(_as_int(cfg["k"], "k"))
    sizes = _parse_sizes(cfg["sizes"], structure.q_count, path)
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
        params = {key: value for key, value in c.items() if key != "kind"}
        with _prefixed(context):
            columns.append(CovariateColumn.named(c["kind"], **params))

    recipe_fields = fields(OutcomeRecipe)
    oc = cfg["outcome"]
    _check_keys(oc, [f.name for f in recipe_fields], f"{path}: outcome",
                required=[f.name for f in recipe_fields if f.default is MISSING])
    if isinstance(oc["intercepts"], list):  # the recipe keeps a tuple
        oc = {**oc, "intercepts": tuple(oc["intercepts"])}
    with _prefixed(f"{path}: outcome"):
        recipe = OutcomeRecipe(**oc)
    with _prefixed(path):
        spec = PopulationSpec(n=n, k=structure.k, columns=tuple(columns), outcome=recipe,
                              correlation=cfg.get("correlation"))
    resolved = {
        "n": n, "k": structure.k, "sizes": list(sizes.counts),
        "columns": cfg["columns"],
        "correlation": None if spec.correlation is None else spec.correlation.tolist(),
        "outcome": {**{f.name: getattr(recipe, f.name) for f in recipe_fields},
                    "slopes": recipe.slopes.tolist()},
    }
    return spec, structure, sizes, resolved


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
    cutoffs, probs = _resolve_cutoffs(
        args.a, args.p, dims, lambda text, label: _parse_count_list(text, label, float),
        names=("--a", "--p"))
    rows = [(i + 1, d, a, p, truncation_variance_factor(d, a))
            for i, (d, a, p) in enumerate(zip(dims, cutoffs, probs))]
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
    s.add_argument("--workers", type=int, help="replication threads (default: usable CPUs)")
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
