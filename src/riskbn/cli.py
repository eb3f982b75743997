"""Command-line front end.

Subcommands: validate, fit, strength, profile, multifactor, profiles,
query, compare, simulate, summarize. Every command that writes files also writes a
JSON run manifest next to its primary output (same path plus
``.manifest.json``). Its ``config`` is every parsed flag plus the values the
command resolves; it also carries seeds and SHA-256 digests of inputs and
outputs. Table outputs are byte-deterministic for a fixed configuration and
seed; manifests additionally carry a timestamp.

Each flag's domain is stated once, as its argparse ``type=``, so a bad value
is refused before any file is read. Exit codes:

* 0: success.
* 1: a file cannot be read or written. An ``--out`` whose directory is
  missing or not writable is refused before any input is read.
* 2: a flag value outside its own domain, an input file that fails to parse
  or validate, or a name the model or schema lacks.
* 3: inputs that are each valid but cannot be combined: k above the pool
  size, source equal to target, zero-probability evidence, the evaluation
  cap exceeded, constant ranks, a sample too large for one array.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bf_threshold_posterior,
    conditional_profile,
    default_target_state,
    multifactor_search,
    risk_profiles,
    spearman,
    strength_ranking,
)
from .charts import hbar_chart, line_chart, vbar_chart
from .core import (
    DagStructure,
    Network,
    VariableSpec,
    parse_model,
    parse_model_parts,
    serialize_model,
)
from .data import (
    DEFAULT_CONTROL,
    DEFAULT_OUTCOME,
    Dataset,
    FilterConfig,
    Schema,
    apply_filters,
    default_dag,
    default_schema,
    load_dataset,
    render_dataset,
    simulate_dataset,
    summarize,
)
from .errors import (
    DomainError,
    IllegalState,
    IncompleteAssignment,
    InvalidOption,
    MalformedCsv,
    NotUtf8,
    PoolTooLarge,
    RiskbnError,
    UnknownVariable,
    VariableSetMismatch,
    ZeroProbabilityEvidence,
)
from .inference import GENERATOR_ID, evidence_probability, posterior
from .learning import EmConfig, default_prior, em_fit, fit_cpts

_IO_EXIT, _VALIDATION_EXIT, _COMPUTE_EXIT = 1, 2, 3
_COMPUTE_ERRORS = (ZeroProbabilityEvidence, PoolTooLarge, DomainError, IncompleteAssignment)
_INPUT_FLAGS = ("data", "schema", "dag", "model", "ranking_a", "ranking_b")


def _fmt(x: float) -> str:
    return "%.12g" % x


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(args, outputs: list[Path], seeds: dict | None = None,
                    **resolved) -> Path:
    """Manifest beside ``outputs[0]``: every parsed flag plus ``resolved``
    values as config, and digests of every input file flag that is set."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    config.update(resolved)
    inputs = [getattr(args, k) for k in _INPUT_FLAGS if getattr(args, k, None)]
    manifest = {
        "tool": "riskbn",
        "version": __version__,
        "command": args.command,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "seeds": seeds or {},
        "inputs": {p: _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = Path(f"{outputs[0]}.manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(c) if isinstance(c, float) else c for c in row])
    path.write_text(buf.getvalue())


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _load_model(path: str) -> Network:
    return parse_model(_read_text(path))


def _resolve_structure(args) -> tuple[tuple[VariableSpec, ...], DagStructure]:
    """Schema/DAG from --schema/--dag model files, defaulting to the bundled
    schema and placeholder DAG."""
    if getattr(args, "schema", None):
        schema, file_dag, _ = parse_model_parts(_read_text(args.schema))
    else:
        schema = default_schema().network_variables
        file_dag = None
    if getattr(args, "dag", None):
        dag_schema, dag, _ = parse_model_parts(_read_text(args.dag))
        if tuple(v.name for v in dag_schema) != tuple(v.name for v in schema):
            raise VariableSetMismatch("--dag file declares different variables than the schema")
    elif file_dag is not None and file_dag.edges:
        dag = file_dag
    else:
        dag = default_dag()
    return tuple(schema), dag


def _data_schema(network_specs: tuple[VariableSpec, ...]) -> Schema:
    specs = list(network_specs)
    if not any(v.name == "honesty" for v in specs):
        specs.append(VariableSpec("honesty", ("Yes", "No"), "meta"))
    return Schema(tuple(specs))


def _load_data(args, network_specs: tuple[VariableSpec, ...]) -> Dataset:
    schema = _data_schema(network_specs)
    return load_dataset(_read_text(args.data), schema)


def _pool_by_kind(network: Network, kinds: tuple[str, ...], target: str) -> list[str]:
    return [v.name for v in network.schema if v.kind in kinds and v.name != target]


# --- subcommands ---------------------------------------------------------------

def cmd_validate(args) -> int:
    network = _load_model(args.model)
    print(f"OK: {len(network.schema)} variables, {len(network.dag.edges)} edges")
    return 0


def cmd_fit(args) -> int:
    schema, dag = _resolve_structure(args)
    if args.target != DEFAULT_OUTCOME and all(v.name != args.target for v in schema):
        # custom schemas need not carry the built-in outcome
        raise UnknownVariable(f"--target {args.target!r} is not in the schema")
    dataset = _load_data(args, schema)

    if args.filter_rt is not None or args.filter_honesty:
        config = FilterConfig(
            min_response_time_ms=args.filter_rt,
            require_honesty=args.filter_honesty,
            action=args.filter_action,
        )
        dataset, report = apply_filters(dataset, config)
        print(f"filters: {report.flagged_response_time} flagged by response time, "
              f"{report.flagged_honesty} by honesty; {report.n_output} records kept")

    prior = default_prior(schema, outcome=args.target, outcome_p=args.prior_p, ess=args.ess)
    out = Path(args.out)
    outputs = [out]
    seeds: dict = {}
    if args.latent:
        dataset = dataset.without_columns(args.latent)
        config = EmConfig(max_iterations=args.em_max_iterations, tolerance=args.em_tolerance,
                          restarts=args.em_restarts, jitter=args.em_jitter, seed=args.seed)
        network, trace = em_fit(schema, dag, dataset, args.latent, prior, config)
        trace_path = Path(str(out) + ".trace.json")
        trace_path.write_text(json.dumps({
            "log_likelihoods": [list(r) for r in trace.log_likelihoods],
            "converged": list(trace.converged),
            "selected": trace.selected,
        }, indent=2) + "\n")
        outputs.append(trace_path)
        seeds["em_seed"] = args.seed
        status = "converged" if trace.converged[trace.selected] else "hit iteration cap"
        print(f"EM: restart {trace.selected} selected ({status}), "
              f"final objective {_fmt(trace.log_likelihoods[trace.selected][-1])}")
    else:
        network = fit_cpts(schema, dag, dataset, prior)
    out.write_text(serialize_model(network))
    _write_manifest(args, outputs, seeds)
    print(f"model written to {out}")
    return 0


def cmd_strength(args) -> int:
    network = _load_model(args.model)
    candidates = args.candidates.split(",") if args.candidates else None
    control = args.control if args.control != "none" else None
    if control == DEFAULT_CONTROL and control not in network.variables:
        control = None  # custom models need not carry the built-in control
    report = strength_ranking(network, args.target, candidates, control)
    rows = []
    for name, score in report.entries:
        above = (report.control_score is not None and score > report.control_score
                 and name != report.control)
        rows.append([name, float(score), "yes" if name == report.control else "no",
                     "yes" if above else "no"])
    out = Path(args.out)
    _write_csv(out, ["variable", "score", "is_control", "above_control"], rows)
    svg_path = out.with_suffix(".svg")
    svg_path.write_text(hbar_chart(
        f"Strength of influence on {args.target}",
        [(name, score) for name, score in report.entries],
        highlight=report.control, reference=report.control_score, axis_max=1.0,
        comment=f"riskbn {__version__}",
    ))
    _write_manifest(args, [out, svg_path])
    print(f"ranking written to {out} ({len(report.entries)} variables)")
    return 0


def cmd_profile(args) -> int:
    network = _load_model(args.model)
    profile = conditional_profile(network, args.target, args.source, args.target_state)
    resolved_state = args.target_state
    if resolved_state is None:
        resolved_state = default_target_state(network.spec(args.target).states)
    out = Path(args.out)
    _write_csv(out, ["state", "posterior"], [[s, float(p)] for s, p in profile])
    svg_path = out.with_suffix(".svg")
    svg_path.write_text(vbar_chart(
        f"P({args.target} = {resolved_state} | {args.source})",
        list(profile), axis_max=1.0, comment=f"riskbn {__version__}",
    ))
    _write_manifest(args, [out, svg_path])
    print(f"profile written to {out}")
    return 0


def cmd_multifactor(args) -> int:
    if args.k_min > args.k_max:
        raise InvalidOption(f"--k-min {args.k_min} is above --k-max {args.k_max}")
    network = _load_model(args.model)
    k_range = range(args.k_min, args.k_max + 1)
    if args.pool:
        pools = [("custom", list(dict.fromkeys(args.pool.split(","))))]
    else:
        pools = [
            ("game", _pool_by_kind(network, ("game",), args.target)),
            ("profiling", _pool_by_kind(network, ("demographic", "psychological", "outcome"),
                                        args.target)),
        ]
        pools = [(name, pool) for name, pool in pools if pool]
    thresholds = [
        ("substantial (BF 10^1/2)", bf_threshold_posterior(args.prior_p, math.sqrt(10.0))),
        ("strong (BF 10)", bf_threshold_posterior(args.prior_p, 10.0)),
    ]
    rows = []
    series = []
    for pool_name, pool in pools:
        ks = [k for k in k_range if k <= len(pool)]
        result = multifactor_search(network, args.target, args.target_state, pool, ks,
                                    max_evals=args.max_evals)
        points = []
        for entry in result.entries:
            example = ""
            if entry.argmax:
                example = ";".join(f"{v}={s}" for v, s in entry.argmax[0])
            max_p = entry.max_posterior if entry.max_posterior is not None else ""
            rows.append([pool_name, entry.k, max_p, entry.evaluated, entry.skipped, example])
            if entry.max_posterior is not None:
                points.append((float(entry.k), entry.max_posterior))
        series.append((pool_name, points))
    out = Path(args.out)
    _write_csv(out, ["pool", "k", "max_posterior", "evaluated", "skipped", "best_evidence"],
               rows)
    svg_path = out.with_suffix(".svg")
    svg_path.write_text(line_chart(
        f"Max posterior P({args.target} = {args.target_state}) by evidence count",
        series, hlines=[(f"{label}: {_fmt(v)}", v) for label, v in thresholds],
        x_label="fixed evidence count", y_label="posterior",
        comment=f"riskbn {__version__}",
    ))
    _write_manifest(args, [out, svg_path], thresholds=dict(thresholds))
    print(f"multifactor table written to {out}")
    return 0


def cmd_profiles(args) -> int:
    network = _load_model(args.model)
    if args.pool:
        pool = args.pool.split(",")
    else:
        pool = _pool_by_kind(network, ("demographic", "psychological", "outcome"), args.target)
    threshold = args.threshold
    if threshold is None:
        threshold = bf_threshold_posterior(args.prior_p, math.sqrt(10.0))
    result = risk_profiles(network, args.target, args.target_state, pool, args.k,
                           threshold, max_evals=args.max_evals)
    n = len(result.profiles)
    rows = [[v, s, count, float(count / n) if n else ""]
            for (v, s), count in result.frequency]
    out = Path(args.out)
    _write_csv(out, ["variable", "state", "count", "share_of_profiles"], rows)
    svg_path = out.with_suffix(".svg")
    svg_path.write_text(hbar_chart(
        f"Assignment frequency in the {n} risk profiles "
        f"(k={args.k}, threshold={_fmt(threshold)})",
        [(f"{v} = {s}", float(c)) for (v, s), c in result.frequency],
        value_format="%d", comment=f"riskbn {__version__}",
    ))
    _write_manifest(args, [out, svg_path], threshold=threshold)
    if n == 0:
        print("no profiles met the threshold")
    print(f"profile table written to {out} ({n} profiles)")
    return 0


def cmd_query(args) -> int:
    network = _load_model(args.model)
    dist = posterior(network, args.target, args.evidence)
    p_evidence = evidence_probability(network, args.evidence)
    for state, p in zip(dist.states, dist.probabilities):
        print(f"P({args.target}={state} | evidence) = {_fmt(p)}")
    print(f"P(evidence) = {_fmt(p_evidence)}")
    if args.out is not None:
        out = Path(args.out)
        out.write_text(json.dumps({
            "target": args.target, "evidence": args.evidence,
            "posterior": {s: p for s, p in zip(dist.states, dist.probabilities)},
            "evidence_probability": p_evidence,
        }, indent=2, sort_keys=True) + "\n")
        _write_manifest(args, [out])
    return 0


def _read_ranking_csv(path: str) -> dict[str, float]:
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedCsv(f"{path} line {reader.line_num}: {exc}") from None
    if reader.fieldnames is None or "variable" not in reader.fieldnames \
            or "score" not in reader.fieldnames:
        raise VariableSetMismatch(f"{path} is not a strength CSV (variable/score columns)")
    scores: dict[str, float] = {}
    for i, row in enumerate(rows, start=1):
        try:
            score = float(row["score"])
        except (TypeError, ValueError):
            raise IllegalState(row["score"], i, "score") from None
        if not math.isfinite(score):
            raise IllegalState(row["score"], i, "score")
        if row["variable"] in scores:
            raise VariableSetMismatch(
                f"{path}: variable {row['variable']!r} repeats in data row {i}")
        scores[row["variable"]] = score
    if not scores:
        raise VariableSetMismatch(f"{path} has no data rows")
    return scores


def cmd_compare(args) -> int:
    ranking_a = _read_ranking_csv(args.ranking_a)
    ranking_b = _read_ranking_csv(args.ranking_b)
    if set(ranking_a) != set(ranking_b):
        only_a = sorted(set(ranking_a) - set(ranking_b))
        only_b = sorted(set(ranking_b) - set(ranking_a))
        raise VariableSetMismatch(
            f"rankings cover different variables (only in A: {only_a}, only in B: {only_b})"
        )
    names = sorted(ranking_a)
    result = spearman([ranking_a[n] for n in names], [ranking_b[n] for n in names])
    print(f"spearman_rho={_fmt(result.rho)} p_value={_fmt(result.p_value)} n={result.n}"
          + (" (exact extreme)" if result.exact_extreme else ""))
    if args.out is not None:
        out = Path(args.out)
        out.write_text(json.dumps({
            "rho": result.rho, "p_value": result.p_value, "n": result.n,
            "exact_extreme": result.exact_extreme,
        }, indent=2) + "\n")
        _write_manifest(args, [out])
    return 0


def cmd_simulate(args) -> int:
    generated = args.seed is None
    seed = int(np.random.SeedSequence().entropy % 2 ** 32) if generated else args.seed
    network = _load_model(args.model) if args.model else None
    schema = _data_schema(network.schema) if network else None
    dataset = simulate_dataset(args.n, seed, network, schema)
    out = Path(args.out)
    with out.open("w") as fh:
        fh.writelines(render_dataset(dataset))
    _write_manifest(args, [out], {"seed": seed, "generated": generated},
                    generator=GENERATOR_ID)
    print(f"{args.n} records written to {out} (seed {seed})")
    return 0


def cmd_summarize(args) -> int:
    schema, _ = _resolve_structure(args)
    table = summarize(_load_data(args, schema))
    rows = [[r.variable, r.state, r.count,
             float(r.percent) if r.percent is not None else ""] for r in table]
    if args.out is not None:
        out = Path(args.out)
        _write_csv(out, ["variable", "state", "count", "percent"], rows)
        _write_manifest(args, [out])
        print(f"summary written to {out}")
    else:
        for row in rows:
            pct = _fmt(row[3]) if isinstance(row[3], float) else "-"
            print(f"{row[0]},{row[1]},{row[2]},{pct}")
    return 0


# --- flag types ------------------------------------------------------------------
# argparse catches only ValueError, TypeError and ArgumentTypeError from a
# ``type=``; InvalidOption passes through to ``main``, which reports it as exit 2.

def _flag_type(flag: str, domain: str, parse, ok):
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise InvalidOption(f"{flag} must be {domain}, got {text}")
    return convert


def _whole_literal(text: str) -> int:
    """A whole-valued number in any float literal form, such as ``1e8``."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


def _whole(flag: str, low: int, parse=int):
    return _flag_type(flag, f"a whole number at least {low}", parse, lambda v: v >= low)


def _positive(flag: str):
    return _flag_type(flag, "a positive finite number", float, lambda v: 0 < v < math.inf)


def _probability(flag: str, interval: str):
    """``interval`` is ``[0, 1]``, ``[0, 1)`` or ``(0, 1)``: a round bracket
    excludes its end."""
    open_low, open_high = interval[0] == "(", interval[-1] == ")"
    return _flag_type(flag, f"in {interval}", float,
                      lambda v: (0 < v if open_low else 0 <= v)
                      and (v < 1 if open_high else v <= 1))


_out_path = _flag_type("--out", "a non-empty path", str, bool)
# The commands that also draw a chart write it to ``--out`` with the suffix
# ``.svg``, which must not be the table itself.
_table_path = _flag_type(
    "--out", "a non-empty path not ending in .svg (the chart takes that suffix)", str,
    lambda v: bool(v) and Path(v).suffix.lower() != ".svg")


def _check_writable(out: str) -> None:
    """Refuse an ``--out`` that cannot be written before any work starts:
    every output of a command lands in the directory of ``--out``."""
    path = Path(out)
    directory = path.parent
    if path.is_dir():
        raise IsADirectoryError(f"cannot write --out {out}: it is a directory")
    if not directory.is_dir() or not os.access(directory, os.W_OK):
        raise PermissionError(f"cannot write --out {out}: "
                              f"{directory} is not a writable directory")


def _evidence(text: str) -> dict[str, str]:
    """``--evidence``: comma-separated ``Var=state`` pairs, case-sensitive."""
    evidence: dict[str, str] = {}
    for pair in text.split(",") if text else ():
        name, sep, state = pair.partition("=")
        if not sep or not name or not state:
            raise InvalidOption(f"--evidence entry {pair!r} is not Var=state")
        if name in evidence:
            raise InvalidOption(f"--evidence names {name!r} twice")
        evidence[name] = state
    return evidence


# --- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbn",
        description="Discrete Bayesian-network engine and risk-profile analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"riskbn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fit", help="fit CPTs from a dataset (EM with --latent)")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", help="model file supplying variables (default: built-in schema)")
    p.add_argument("--dag", help="model file supplying edges (default: placeholder DAG)")
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--prior-p", type=_probability("--prior-p", "(0, 1)"), default=0.1)
    p.add_argument("--ess", type=_positive("--ess"), default=2.0)
    p.add_argument("--latent", action="append", default=[],
                   help="treat this variable as unobserved (repeatable)")
    p.add_argument("--seed", type=_whole("--seed", 0), default=0)
    p.add_argument("--em-restarts", type=_whole("--em-restarts", 1), default=10)
    p.add_argument("--em-max-iterations", type=_whole("--em-max-iterations", 1), default=500)
    p.add_argument("--em-tolerance", type=_positive("--em-tolerance"), default=1e-6)
    p.add_argument("--em-jitter", type=_probability("--em-jitter", "[0, 1)"), default=0.05)
    p.add_argument("--filter-rt", type=_whole("--filter-rt", 0), default=None,
                   help="drop/blank records with any response time below this (ms)")
    p.add_argument("--filter-honesty", action="store_true")
    p.add_argument("--filter-action", choices=("drop", "blank"), default="drop")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("strength", help="strength-of-influence ranking")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--control", default=DEFAULT_CONTROL,
                   help="control variable marking the irrelevance line ('none' to disable)")
    p.add_argument("--candidates", help="comma-separated candidate variables")
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_strength)

    p = sub.add_parser("profile", help="per-state conditional profile of the target")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--source", required=True)
    p.add_argument("--target-state", default=None)
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("multifactor", help="brute-force multi-evidence risk search")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--target-state", default="Yes")
    p.add_argument("--pool", help="comma-separated pool (default: game and profiling pools)")
    p.add_argument("--k-min", type=_whole("--k-min", 1), default=1)
    p.add_argument("--k-max", type=_whole("--k-max", 1), default=5)
    p.add_argument("--prior-p", type=_probability("--prior-p", "(0, 1)"), default=0.1)
    p.add_argument("--max-evals", type=_whole("--max-evals", 1, _whole_literal), default=10**8)
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_multifactor)

    p = sub.add_parser("profiles", help="risk-profile frequency table")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--target-state", default="Yes")
    p.add_argument("--pool", help="comma-separated pool (default: profiling variables)")
    p.add_argument("--k", type=_whole("--k", 1), default=5)
    p.add_argument("--threshold", type=_probability("--threshold", "[0, 1]"), default=None,
                   help="posterior cutoff (default: substantial-evidence threshold)")
    p.add_argument("--prior-p", type=_probability("--prior-p", "(0, 1)"), default=0.1)
    p.add_argument("--max-evals", type=_whole("--max-evals", 1, _whole_literal), default=10**8)
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("query", help="posterior of one variable given evidence")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--evidence", type=_evidence, default={},
                   help="comma-separated Var=state pairs")
    p.add_argument("--out", type=_out_path)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="Spearman comparison of two strength CSVs")
    p.add_argument("ranking_a")
    p.add_argument("ranking_b")
    p.add_argument("--out", type=_out_path)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="sample a synthetic dataset")
    p.add_argument("--n", type=_whole("--n", 1), required=True)
    p.add_argument("--seed", type=_whole("--seed", 0), default=None)
    p.add_argument("--model", help="sample from this model instead of the default generator")
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("summarize", help="marginal frequency table of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", help="model file supplying variables (default: built-in schema)")
    p.add_argument("--out", type=_out_path)
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is not None:
            _check_writable(args.out)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IO_EXIT
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _COMPUTE_EXIT
    except RiskbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
