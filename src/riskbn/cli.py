"""Command-line front end.

Subcommands: validate, fit, strength, profile, multifactor, profiles,
query, compare, simulate, summarize. ``main`` gives each command one run
record (``_Run``), which derives once every path the command may write for
``--out``; the command writes its outputs through it. Last, after every
output, ``main`` writes the JSON run manifest next to the table (same path
plus ``.manifest.json``). Its ``config`` is every parsed flag plus the
values the command resolves; it also carries seeds, SHA-256 digests of the
inputs and of exactly the files the command wrote (``outputs``), and the
process's peak resident memory (``peak_rss_kb``). Each digest is of the
bytes the command read or wrote, hashed as they pass, so no file is read
twice and a piped input (``--data /dev/stdin``) gets the digest of what
came through the pipe. Table outputs are byte-deterministic for a fixed
configuration and seed; manifests additionally carry a timestamp and the
peak memory.

Each command imports the modules it runs, numpy among them, inside its
handler: ``validate`` loads no data, learning or analysis code, and
``--version``, ``--help`` and a refused flag load no numpy. The cohort is
never held whole: ``summarize`` and ``fit`` pass the open ``--data`` file to
:func:`~riskbn.data.load_dataset`, which reads it a slice at a time, and
``simulate`` samples, renders and writes one block of records at a time.

Each flag's domain is stated once, as its argparse ``type=``, so a bad value
is refused before any file is read. Exit codes:

* 0: success.
* 1: a file cannot be read or written. An ``--out`` whose directory is
  missing or not writable is refused before any input is read.
* 2: a flag value outside its own domain, an ``--out`` that would overwrite
  an input file (refused before any input is read), an input file that
  fails to parse or validate, or a name the model or schema lacks.
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
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import DEFAULT_CONTROL, DEFAULT_OUTCOME, __version__
from .errors import (
    DomainError,
    IllegalState,
    IncompleteAssignment,
    InvalidOption,
    MalformedCsv,
    NotUtf8,
    PoolTooLarge,
    RaggedRow,
    RiskbnError,
    UnknownVariable,
    VariableSetMismatch,
    ZeroProbabilityEvidence,
)

if TYPE_CHECKING:
    from .core import DagStructure, Network, VariableSpec
    from .data import Dataset, Schema

_IO_EXIT, _VALIDATION_EXIT, _COMPUTE_EXIT = 1, 2, 3
_COMPUTE_ERRORS = (ZeroProbabilityEvidence, PoolTooLarge, DomainError, IncompleteAssignment)
_INPUT_FLAGS = ("data", "schema", "dag", "model", "ranking_a", "ranking_b")


def _fmt(x: float) -> str:
    return "%.12g" % x


# The SHA-256 of each input file the running command has read, by the path
# it was named by; ``main`` empties it before each command.
_digests: dict[str, str] = {}


class _Input:
    """An input file open for binary reading that hashes the bytes read from
    it; closing it records their digest under its path."""

    def __init__(self, path: str):
        self.path = path
        self.file = open(path, "rb")
        self.hash = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = self.file.read(size)
        self.hash.update(data)
        return data

    def __enter__(self) -> _Input:
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()
        _digests[self.path] = self.hash.hexdigest()


def _peak_rss_kb() -> int:
    """This process's peak resident set size so far, in kilobytes (macOS
    reports ``ru_maxrss`` in bytes, Linux in kilobytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


class _Run:
    """One command's run record, made by ``main`` once ``--out`` is known to
    be writable: every path the command may write for ``--out``, derived
    once; the digest of each file written through it; and the seeds, work
    counters and resolved values the manifest records."""

    def __init__(self, args):
        self.inputs = [getattr(args, k) for k in _INPUT_FLAGS if getattr(args, k, None)]
        out = getattr(args, "out", None)
        self.table = Path(out) if out is not None else None
        # a command with a chart or an EM trace requires --out
        self.chart = self.table.with_suffix(".svg") if getattr(args, "chart", False) else None
        self.trace = Path(f"{out}.trace.json") if getattr(args, "latent", None) else None
        self.manifest = Path(f"{out}.manifest.json") if out is not None else None
        self.outputs: dict[str, str] = {}
        self.seeds: dict = {}
        self.counters: dict = {}
        self.resolved: dict = {}

    def paths(self) -> list[Path]:
        """Every file the command may write for ``--out``."""
        return [p for p in (self.table, self.chart, self.trace, self.manifest) if p is not None]

    def write(self, path: Path, pieces: Iterable[str]) -> None:
        """Write the text ``pieces`` to ``path`` as UTF-8, one at a time, and
        record the digest of the bytes written."""
        digest = hashlib.sha256()
        with path.open("wb") as fh:
            for piece in pieces:
                data = piece.encode()
                digest.update(data)
                fh.write(data)
                del piece, data  # neither is held while the next piece is made
        self.outputs[str(path)] = digest.hexdigest()

    def write_csv(self, header: list[str], rows: list[list]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) if isinstance(c, float) else c for c in row])
        self.write(self.table, [buf.getvalue()])


def _write_manifest(args, run: _Run) -> None:
    """The manifest beside the table: every parsed flag plus the resolved
    values as config, the seeds and work counters, and the digests of every
    input file flag that is set and of every file the command wrote, as it
    read or wrote them."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "chart")}
    config.update(run.resolved)
    manifest = {
        "tool": "riskbn",
        "version": __version__,
        "command": args.command,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "seeds": run.seeds,
        "counters": run.counters,
        "inputs": {p: _digests[p] for p in run.inputs},
        "outputs": run.outputs,
        "peak_rss_kb": _peak_rss_kb(),
    }
    run.manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_input(path: str) -> _Input:
    """An input file, open for reading; every input file is read through
    here."""
    return _Input(path)


def _read_text(path: str) -> str:
    """A text input, less one leading UTF-8 byte-order mark (Excel writes
    one). The mark is decoded with the text, so a bad byte is reported at
    its offset in the file."""
    with _read_input(path) as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(path, exc.start) from None
    return text.removeprefix("\ufeff")


def _load_model(path: str) -> Network:
    from .core import parse_model

    return parse_model(_read_text(path))


def _resolve_structure(args) -> tuple[tuple[VariableSpec, ...], DagStructure]:
    """Schema/DAG from --schema/--dag model files, defaulting to the bundled
    schema and placeholder DAG."""
    from .core import parse_model_parts
    from .data import default_dag, default_schema

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
    from .core import VariableSpec
    from .data import Schema

    specs = list(network_specs)
    if not any(v.name == "honesty" for v in specs):
        specs.append(VariableSpec("honesty", ("Yes", "No"), "meta"))
    return Schema(tuple(specs))


def _load_data(args, network_specs: tuple[VariableSpec, ...]) -> Dataset:
    """The ``--data`` cohort, read from the open file one slice at a time by
    ``load_dataset``, so the file is never held whole."""
    from .data import load_dataset

    schema = _data_schema(network_specs)
    try:
        with _read_input(args.data) as f:
            return load_dataset(f, schema)
    except NotUtf8 as exc:
        raise NotUtf8(args.data, exc.offset) from None


def _target_state(args, network: Network) -> str:
    """``--target-state``, or the state a profile reports when none is named."""
    from .analysis import default_target_state

    if args.target_state is not None:
        return args.target_state
    return default_target_state(network.spec(args.target).states)


def _pool_by_kind(network: Network, kinds: tuple[str, ...], target: str) -> list[str]:
    return [v.name for v in network.schema if v.kind in kinds and v.name != target]


# --- subcommands ---------------------------------------------------------------

def cmd_validate(args, run: _Run) -> None:
    network = _load_model(args.model)
    print(f"OK: {len(network.schema)} variables, {len(network.dag.edges)} edges")


def _incomplete_records(dataset: Dataset, names: list[str]) -> int:
    """Records missing a cell of any of ``names``; a column the dataset
    lacks is missing in every record."""
    import numpy as np

    missing = np.zeros(dataset.n, dtype=bool)
    for name in names:
        col = dataset.columns.get(name)
        if col is None:
            return dataset.n
        missing |= col < 0
    return int(np.count_nonzero(missing))


def cmd_fit(args, run: _Run) -> None:
    from .data import FilterConfig, apply_filters
    from .core import render_model
    from .learning import EmConfig, default_prior, em_fit, fit_cpts

    schema, dag = _resolve_structure(args)
    names = {v.name for v in schema}
    if args.target != DEFAULT_OUTCOME and args.target not in names:
        # custom schemas need not carry the built-in outcome
        raise UnknownVariable(f"--target {args.target!r} is not in the schema")
    for name in args.latent:
        if name not in names:
            raise UnknownVariable(f"--latent {name!r} is not in the schema")
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
    # a latent's cells are unobserved by definition, so only the others count
    run.counters.update(records=dataset.n, incomplete_records=_incomplete_records(
        dataset, [v.name for v in schema if v.name not in args.latent]))
    if args.latent:
        dataset = dataset.without_columns(args.latent)
        config = EmConfig(max_iterations=args.em_max_iterations, tolerance=args.em_tolerance,
                          restarts=args.em_restarts, jitter=args.em_jitter, seed=args.seed)
        network, trace = em_fit(schema, dag, dataset, args.latent, prior, config)
        run.write(run.trace, [json.dumps({
            "log_likelihoods": [list(r) for r in trace.log_likelihoods],
            "converged": list(trace.converged),
            "selected": trace.selected,
        }, indent=2) + "\n"])
        run.seeds["em_seed"] = args.seed
        run.counters.update(em_iterations=[len(r) - 1 for r in trace.log_likelihoods],
                            selected_restart=trace.selected)
        status = "converged" if trace.converged[trace.selected] else "hit iteration cap"
        print(f"EM: restart {trace.selected} selected ({status}), "
              f"final objective {_fmt(trace.log_likelihoods[trace.selected][-1])}")
    else:
        network = fit_cpts(schema, dag, dataset, prior)
    run.write(run.table, render_model(network))
    print(f"model written to {run.table}")


def cmd_strength(args, run: _Run) -> None:
    from .analysis import strength_ranking
    from .charts import hbar_chart

    network = _load_model(args.model)
    control = args.control if args.control != "none" else None
    if args.control is None and DEFAULT_CONTROL in network.variables \
            and DEFAULT_CONTROL != args.target:
        # the built-in control, where the model has it and it is not the target
        control = DEFAULT_CONTROL
    run.resolved["control"] = control
    report = strength_ranking(network, args.target, args.candidates, control)
    rows = []
    for name, score in report.entries:
        above = (report.control_score is not None and score > report.control_score
                 and name != report.control)
        rows.append([name, float(score), "yes" if name == report.control else "no",
                     "yes" if above else "no"])
    run.write_csv(["variable", "score", "is_control", "above_control"], rows)
    run.write(run.chart, [hbar_chart(
        f"Strength of influence on {args.target}",
        [(name, score) for name, score in report.entries],
        highlight=report.control, reference=report.control_score, axis_max=1.0,
        comment=f"riskbn {__version__}",
    )])
    print(f"ranking written to {run.table} ({len(report.entries)} variables)")


def cmd_profile(args, run: _Run) -> None:
    from .analysis import conditional_profile
    from .charts import vbar_chart

    network = _load_model(args.model)
    target_state = run.resolved["target_state"] = _target_state(args, network)
    profile = conditional_profile(network, args.target, args.source, target_state)
    run.write_csv(["state", "posterior"], [[s, float(p)] for s, p in profile])
    run.write(run.chart, [vbar_chart(
        f"P({args.target} = {target_state} | {args.source})",
        list(profile), axis_max=1.0, comment=f"riskbn {__version__}",
    )])
    print(f"profile written to {run.table}")


def cmd_multifactor(args, run: _Run) -> None:
    from .analysis import bf_threshold_posterior, multifactor_search
    from .charts import line_chart

    if args.k_min > args.k_max:
        raise InvalidOption(f"--k-min {args.k_min} is above --k-max {args.k_max}")
    network = _load_model(args.model)
    target_state = run.resolved["target_state"] = _target_state(args, network)
    k_range = range(args.k_min, args.k_max + 1)
    if args.pool:
        pools = [("custom", args.pool)]
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
    run.resolved["thresholds"] = dict(thresholds)
    rows = []
    series = []
    for pool_name, pool in pools:
        ks = [k for k in k_range if k <= len(pool)]
        result = multifactor_search(network, args.target, target_state, pool, ks,
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
    run.write_csv(["pool", "k", "max_posterior", "evaluated", "skipped", "best_evidence"], rows)
    run.write(run.chart, [line_chart(
        f"Max posterior P({args.target} = {target_state}) by evidence count",
        series, hlines=[(f"{label}: {_fmt(v)}", v) for label, v in thresholds],
        x_label="fixed evidence count", y_label="posterior",
        comment=f"riskbn {__version__}",
    )])
    print(f"multifactor table written to {run.table}")


def cmd_profiles(args, run: _Run) -> None:
    from .analysis import bf_threshold_posterior, risk_profiles
    from .charts import hbar_chart

    network = _load_model(args.model)
    target_state = run.resolved["target_state"] = _target_state(args, network)
    pool = args.pool or _pool_by_kind(network, ("demographic", "psychological", "outcome"),
                                      args.target)
    threshold = args.threshold
    if threshold is None:
        threshold = bf_threshold_posterior(args.prior_p, math.sqrt(10.0))
    run.resolved["threshold"] = threshold
    result = risk_profiles(network, args.target, target_state, pool, args.k,
                           threshold, max_evals=args.max_evals)
    n = len(result.profiles)
    rows = [[v, s, count, float(count / n) if n else ""]
            for (v, s), count in result.frequency]
    run.write_csv(["variable", "state", "count", "share_of_profiles"], rows)
    run.write(run.chart, [hbar_chart(
        f"Assignment frequency in the {n} risk profiles "
        f"(k={args.k}, threshold={_fmt(threshold)})",
        [(f"{v} = {s}", float(c)) for (v, s), c in result.frequency],
        value_format="%d", comment=f"riskbn {__version__}",
    )])
    if n == 0:
        print("no profiles met the threshold")
    print(f"profile table written to {run.table} ({n} profiles)")


def cmd_query(args, run: _Run) -> None:
    from .inference import evidence_probability, posterior

    network = _load_model(args.model)
    dist = posterior(network, args.target, args.evidence)
    p_evidence = evidence_probability(network, args.evidence)
    for state, p in zip(dist.states, dist.probabilities):
        print(f"P({args.target}={state} | evidence) = {_fmt(p)}")
    print(f"P(evidence) = {_fmt(p_evidence)}")
    if args.out is not None:
        run.write(run.table, [json.dumps({
            "target": args.target, "evidence": args.evidence,
            "posterior": {s: p for s, p in zip(dist.states, dist.probabilities)},
            "evidence_probability": p_evidence,
        }, indent=2, sort_keys=True) + "\n"])


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
        if None in row.values():  # DictReader pads a short row with None
            raise RaggedRow(i, len(row), len(row) - list(row.values()).count(None))
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


def cmd_compare(args, run: _Run) -> None:
    from .analysis import spearman

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
        run.write(run.table, [json.dumps({
            "rho": result.rho, "p_value": result.p_value, "n": result.n,
            "exact_extreme": result.exact_extreme,
        }, indent=2) + "\n"])


def cmd_simulate(args, run: _Run) -> None:
    import numpy as np

    from .data import render_simulated
    from .inference import GENERATOR_ID

    generated = args.seed is None
    seed = int(np.random.SeedSequence().entropy % 2 ** 32) if generated else args.seed
    network = _load_model(args.model) if args.model else None
    schema = _data_schema(network.schema) if network else None
    run.seeds.update(seed=seed, generated=generated)
    run.resolved["generator"] = GENERATOR_ID
    run.write(run.table, render_simulated(args.n, seed, network, schema))
    print(f"{args.n} records written to {run.table} (seed {seed})")


def cmd_summarize(args, run: _Run) -> None:
    from .data import summarize

    schema, _ = _resolve_structure(args)
    table = summarize(_load_data(args, schema))
    rows = [[r.variable, r.state, r.count,
             float(r.percent) if r.percent is not None else ""] for r in table]
    if args.out is not None:
        run.write_csv(["variable", "state", "count", "percent"], rows)
        print(f"summary written to {run.table}")
    else:
        for row in rows:
            pct = _fmt(row[3]) if isinstance(row[3], float) else "-"
            print(f"{row[0]},{row[1]},{row[2]},{pct}")


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


def _names(flag: str):
    """Comma-separated variable names, none empty; a repeated name counts
    once, where it is first named."""
    return _flag_type(flag, "comma-separated variable names, none empty",
                      lambda text: list(dict.fromkeys(text.split(","))),
                      lambda names: "" not in names)


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


def _check_not_an_input(args, run: _Run) -> None:
    """Refuse an ``--out`` that would overwrite an input file before any
    input is read."""
    for path in run.paths():
        for source in run.inputs:
            try:
                same = os.path.samefile(path, source)
            except OSError:  # one of them does not exist
                same = False
            if same:
                raise InvalidOption(f"--out {args.out} would overwrite the input file {source}")


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
    p.add_argument("--control", default=None,
                   help="control variable marking the irrelevance line ('none' to disable; "
                        f"default: {DEFAULT_CONTROL} when the model has it and it is not "
                        "the target)")
    p.add_argument("--candidates", type=_names("--candidates"),
                   help="comma-separated candidate variables")
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_strength, chart=True)

    p = sub.add_parser("profile", help="per-state conditional profile of the target")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--source", required=True)
    p.add_argument("--target-state", default=None,
                   help="default: Yes when the target has it, otherwise its last state")
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_profile, chart=True)

    p = sub.add_parser("multifactor", help="brute-force multi-evidence risk search")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--target-state", default=None,
                   help="default: Yes when the target has it, otherwise its last state")
    p.add_argument("--pool", type=_names("--pool"),
                   help="comma-separated pool (default: game and profiling pools)")
    p.add_argument("--k-min", type=_whole("--k-min", 1), default=1)
    p.add_argument("--k-max", type=_whole("--k-max", 1), default=5)
    p.add_argument("--prior-p", type=_probability("--prior-p", "(0, 1)"), default=0.1)
    p.add_argument("--max-evals", type=_whole("--max-evals", 1, _whole_literal), default=10**8)
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_multifactor, chart=True)

    p = sub.add_parser("profiles", help="risk-profile frequency table")
    p.add_argument("--model", required=True)
    p.add_argument("--target", default=DEFAULT_OUTCOME)
    p.add_argument("--target-state", default=None,
                   help="default: Yes when the target has it, otherwise its last state")
    p.add_argument("--pool", type=_names("--pool"),
                   help="comma-separated pool (default: profiling variables)")
    p.add_argument("--k", type=_whole("--k", 1), default=5)
    p.add_argument("--threshold", type=_probability("--threshold", "[0, 1]"), default=None,
                   help="posterior cutoff (default: substantial-evidence threshold)")
    p.add_argument("--prior-p", type=_probability("--prior-p", "(0, 1)"), default=0.1)
    p.add_argument("--max-evals", type=_whole("--max-evals", 1, _whole_literal), default=10**8)
    p.add_argument("--out", type=_table_path, required=True)
    p.set_defaults(func=cmd_profiles, chart=True)

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
    _digests.clear()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is not None:
            _check_writable(args.out)  # a directory has no .svg sibling to derive
        run = _Run(args)
        _check_not_an_input(args, run)
        args.func(args, run)
        if run.manifest is not None:
            _write_manifest(args, run)
        return 0
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
