"""Command-line front end.

Subcommands: validate, fit, strength, profile, multifactor, profiles,
query, compare, simulate, summarize. Every command that writes files also writes a
JSON run manifest next to its primary output (same path plus
``.manifest.json``) with the resolved configuration, seeds, and SHA-256
digests of inputs and outputs. Table outputs are byte-deterministic for a
fixed configuration and seed; manifests additionally carry a timestamp.

Exit codes: 0 success, 1 I/O error, 2 validation error, 3 computation error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    bf_threshold_posterior,
    conditional_profile,
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
    build_network,
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
    build_default_generator,
    default_dag,
    default_schema,
    load_dataset,
    save_dataset,
    summarize,
)
from .errors import (
    DomainError,
    IllegalState,
    IncompleteAssignment,
    InvalidOption,
    NotUtf8,
    PoolTooLarge,
    RiskbnError,
    VariableSetMismatch,
    ZeroProbabilityEvidence,
)
from .inference import ancestral_sample, evidence_probability, posterior
from .learning import EmConfig, default_prior, em_fit, fit_cpts
from .data import dataset_from_batch

_IO_EXIT, _VALIDATION_EXIT, _COMPUTE_EXIT = 1, 2, 3
_COMPUTE_ERRORS = (ZeroProbabilityEvidence, PoolTooLarge, DomainError, IncompleteAssignment)


def _fmt(x: float) -> str:
    return "%.12g" % x


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, config: dict, seeds: dict,
                    inputs: list[Path], outputs: list[Path]) -> Path:
    manifest = {
        "tool": "riskbn",
        "version": __version__,
        "command": command,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = Path(str(out) + ".manifest.json")
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


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise InvalidOption(f"--seed must be at least 0, got {seed}")


def cmd_fit(args) -> int:
    _check_seed(args.seed)
    schema, dag = _resolve_structure(args)
    dataset = _load_data(args, schema)
    inputs = [Path(args.data)] + [Path(p) for p in (args.schema, args.dag) if p]

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
    config_dict = {
        "data": args.data, "schema": args.schema, "dag": args.dag,
        "target": args.target, "prior_p": args.prior_p, "ess": args.ess,
        "latent": list(args.latent), "filter_rt": args.filter_rt,
        "filter_honesty": args.filter_honesty, "filter_action": args.filter_action,
        "out": str(out),
    }
    if args.latent:
        config_dict.update({
            "em_restarts": args.em_restarts, "em_max_iterations": args.em_max_iterations,
            "em_tolerance": args.em_tolerance, "em_jitter": args.em_jitter,
        })
    _write_manifest(out, "fit", config_dict, seeds, inputs, outputs)
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
    _write_manifest(out, "strength", {
        "model": args.model, "target": args.target, "control": args.control,
        "candidates": args.candidates, "out": str(out),
    }, {}, [Path(args.model)], [out, svg_path])
    print(f"ranking written to {out} ({len(report.entries)} variables)")
    return 0


def cmd_profile(args) -> int:
    network = _load_model(args.model)
    profile = conditional_profile(network, args.target, args.source, args.target_state)
    resolved_state = args.target_state
    if resolved_state is None:
        states = network.spec(args.target).states
        resolved_state = "Yes" if "Yes" in states else states[-1]
    out = Path(args.out)
    _write_csv(out, ["state", "posterior"], [[s, float(p)] for s, p in profile])
    svg_path = out.with_suffix(".svg")
    svg_path.write_text(vbar_chart(
        f"P({args.target} = {resolved_state} | {args.source})",
        list(profile), axis_max=1.0, comment=f"riskbn {__version__}",
    ))
    _write_manifest(out, "profile", {
        "model": args.model, "target": args.target, "source": args.source,
        "target_state": args.target_state, "out": str(out),
    }, {}, [Path(args.model)], [out, svg_path])
    print(f"profile written to {out}")
    return 0


def _max_evals(value: float) -> int:
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        raise InvalidOption(f"--max-evals must be a positive whole number, got {value:g}")
    return int(value)


def cmd_multifactor(args) -> int:
    max_evals = _max_evals(args.max_evals)
    network = _load_model(args.model)
    k_range = range(args.k_min, args.k_max + 1)
    if args.pool:
        pools = [("custom", args.pool.split(","))]
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
                                    max_evals=max_evals)
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
    _write_manifest(out, "multifactor", {
        "model": args.model, "target": args.target, "target_state": args.target_state,
        "pool": args.pool, "k_min": args.k_min, "k_max": args.k_max,
        "prior_p": args.prior_p, "max_evals": args.max_evals,
        "thresholds": {label: v for label, v in thresholds}, "out": str(out),
    }, {}, [Path(args.model)], [out, svg_path])
    print(f"multifactor table written to {out}")
    return 0


def cmd_profiles(args) -> int:
    max_evals = _max_evals(args.max_evals)
    network = _load_model(args.model)
    if args.pool:
        pool = args.pool.split(",")
    else:
        pool = _pool_by_kind(network, ("demographic", "psychological", "outcome"), args.target)
    threshold = args.threshold
    if threshold is None:
        threshold = bf_threshold_posterior(args.prior_p, math.sqrt(10.0))
    result = risk_profiles(network, args.target, args.target_state, pool, args.k,
                           threshold, max_evals=max_evals)
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
    _write_manifest(out, "profiles", {
        "model": args.model, "target": args.target, "target_state": args.target_state,
        "pool": args.pool, "k": args.k, "threshold": threshold,
        "prior_p": args.prior_p, "max_evals": args.max_evals, "out": str(out),
    }, {}, [Path(args.model)], [out, svg_path])
    if n == 0:
        print("no profiles met the threshold")
    print(f"profile table written to {out} ({n} profiles)")
    return 0


def _parse_evidence(text: str | None) -> dict[str, str]:
    """Comma-separated ``Var=state`` pairs, case-sensitive."""
    if not text:
        return {}
    evidence: dict[str, str] = {}
    for pair in text.split(","):
        name, sep, state = pair.partition("=")
        if not sep or not name or not state:
            raise DomainError(f"evidence entry {pair!r} is not Var=state")
        if name in evidence:
            raise DomainError(f"variable '{name}' appears twice in the evidence")
        evidence[name] = state
    return evidence


def cmd_query(args) -> int:
    network = _load_model(args.model)
    evidence = _parse_evidence(args.evidence)
    dist = posterior(network, args.target, evidence)
    p_evidence = evidence_probability(network, evidence)
    for state, p in zip(dist.states, dist.probabilities):
        print(f"P({args.target}={state} | evidence) = {_fmt(p)}")
    print(f"P(evidence) = {_fmt(p_evidence)}")
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps({
            "target": args.target, "evidence": evidence,
            "posterior": {s: p for s, p in zip(dist.states, dist.probabilities)},
            "evidence_probability": p_evidence,
        }, indent=2, sort_keys=True) + "\n")
        _write_manifest(out, "query", {
            "model": args.model, "target": args.target,
            "evidence": args.evidence, "out": str(out),
        }, {}, [Path(args.model)], [out])
    return 0


def _read_ranking_csv(path: str) -> dict[str, float]:
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    if reader.fieldnames is None or "variable" not in reader.fieldnames \
            or "score" not in reader.fieldnames:
        raise VariableSetMismatch(f"{path} is not a strength CSV (variable/score columns)")
    scores: dict[str, float] = {}
    for i, row in enumerate(reader, start=1):
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
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps({
            "rho": result.rho, "p_value": result.p_value, "n": result.n,
            "exact_extreme": result.exact_extreme,
        }, indent=2) + "\n")
        _write_manifest(out, "compare", {
            "ranking_a": args.ranking_a, "ranking_b": args.ranking_b, "out": str(out),
        }, {}, [Path(args.ranking_a), Path(args.ranking_b)], [out])
    return 0


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise InvalidOption(f"--n must be at least 1, got {args.n}")
    _check_seed(args.seed)
    seed = args.seed
    seeds_generated = False
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 32))
        seeds_generated = True
    if args.model:
        network = _load_model(args.model)
        inputs = [Path(args.model)]
    else:
        network = build_default_generator(seed).network
        inputs = []
    batch = ancestral_sample(network, args.n, seed)
    schema = _data_schema(tuple(network.schema))
    dataset = dataset_from_batch(batch, schema)
    out = Path(args.out)
    out.write_text(save_dataset(dataset))
    _write_manifest(out, "simulate", {
        "n": args.n, "model": args.model, "out": str(out),
        "generator": batch.generator,
    }, {"seed": seed, "generated": seeds_generated}, inputs, [out])
    print(f"{args.n} records written to {out} (seed {seed})")
    return 0


def cmd_summarize(args) -> int:
    if args.schema:
        specs, _, _ = parse_model_parts(_read_text(args.schema))
        schema = _data_schema(tuple(specs))
    else:
        schema = default_schema()
    dataset = load_dataset(_read_text(args.data), schema)
    table = summarize(dataset)
    rows = [[r.variable, r.state, r.count,
             float(r.percent) if r.percent is not None else ""] for r in table]
    if args.out:
        out = Path(args.out)
        _write_csv(out, ["variable", "state", "count", "percent"], rows)
        inputs = [Path(args.data)] + ([Path(args.schema)] if args.schema else [])
        _write_manifest(out, "summarize", {
            "data": args.data, "schema": args.schema, "out": str(out),
        }, {}, inputs, [out])
        print(f"summary written to {out}")
    else:
        for row in rows:
            pct = _fmt(row[3]) if isinstance(row[3], float) else "-"
            print(f"{row[0]},{row[1]},{row[2]},{pct}")
    return 0


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
    p.add_argument("--out", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--prior-p", type=float, default=0.1, dest="prior_p")
    p.add_argument("--ess", type=float, default=2.0)
    p.add_argument("--latent", action="append", default=[],
                   help="treat this variable as unobserved (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--em-restarts", type=int, default=10, dest="em_restarts")
    p.add_argument("--em-max-iterations", type=int, default=500, dest="em_max_iterations")
    p.add_argument("--em-tolerance", type=float, default=1e-6, dest="em_tolerance")
    p.add_argument("--em-jitter", type=float, default=0.05, dest="em_jitter")
    p.add_argument("--filter-rt", type=int, default=None, dest="filter_rt",
                   help="drop/blank records with any response time below this (ms)")
    p.add_argument("--filter-honesty", action="store_true", dest="filter_honesty")
    p.add_argument("--filter-action", choices=("drop", "blank"), default="drop",
                   dest="filter_action")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("strength", help="strength-of-influence ranking")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--control", default=DEFAULT_CONTROL,
                   help="control variable marking the irrelevance line ('none' to disable)")
    p.add_argument("--candidates", help="comma-separated candidate variables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_strength)

    p = sub.add_parser("profile", help="per-state conditional profile of the target")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--source", required=True)
    p.add_argument("--target-state", default=None, dest="target_state")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("multifactor", help="brute-force multi-evidence risk search")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--target-state", default="Yes", dest="target_state")
    p.add_argument("--pool", help="comma-separated pool (default: game and profiling pools)")
    p.add_argument("--k-min", type=int, default=1, dest="k_min")
    p.add_argument("--k-max", type=int, default=5, dest="k_max")
    p.add_argument("--prior-p", type=float, default=0.1, dest="prior_p")
    p.add_argument("--max-evals", type=float, default=1e8, dest="max_evals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_multifactor)

    p = sub.add_parser("profiles", help="risk-profile frequency table")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--target-state", default="Yes", dest="target_state")
    p.add_argument("--pool", help="comma-separated pool (default: profiling variables)")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--threshold", type=float, default=None,
                   help="posterior cutoff (default: substantial-evidence threshold)")
    p.add_argument("--prior-p", type=float, default=0.1, dest="prior_p")
    p.add_argument("--max-evals", type=float, default=1e8, dest="max_evals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("query", help="posterior of one variable given evidence")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--evidence", help="comma-separated Var=state pairs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="Spearman comparison of two strength CSVs")
    p.add_argument("ranking_a")
    p.add_argument("ranking_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="sample a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", help="sample from this model instead of the default generator")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("summarize", help="marginal frequency table of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", help="model file supplying variables (default: built-in schema)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
