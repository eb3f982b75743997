"""Workload definitions: inputs made from the seed, the `riskbn` command
sequence each workload times, and the values read back from its outputs.

Every workload runs in its own work directory with relative paths, exactly
as the README writes the commands. See README.md beside this file for why
each workload exists and which layers it drives. Import this module only
after ``run.use_checkout`` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import riskbn.cli
from riskbn.analysis import (
    conditional_profile, multifactor_search, risk_profiles, spearman, strength_ranking,
)
from riskbn.core import parse_model, serialize_model
from riskbn.data import (
    DEFAULT_CONTROL, Dataset, FilterConfig, apply_filters, build_default_generator,
    dataset_from_batch, default_dag, default_schema, load_dataset, save_dataset,
    simulate_dataset, summarize,
)
from riskbn.inference import ancestral_sample, evidence_probability, joint_table, posterior
from riskbn.learning import EmConfig, default_prior, em_fit, fit_cpts, log_likelihood

TARGET = "Previous_CB_Offending"
SOURCE = "A3Q7_HowToHelpPol"
QUERY_EVIDENCE = "Previous_CB_Victimization=Yes,Empathy=Low"
RT_THRESHOLD_MS = 800
BLANK_SHARE = 0.05          # share of the response-time cohort given a fast answer
EM_RESTARTS = 3
EM_MAX_ITERATIONS = 15
# Far below any step the fits take (the smallest relative step over all
# restarts of cohort seeds 0-9 is 3.7e-7), so every restart runs to the cap
# and the EM work is the same on every seed. At the default 1e-6 some
# restarts stopped after 3 iterations.
EM_TOLERANCE = 1e-9
COHORT_SEEDS = 10           # --seed s uses cohort seed s % COHORT_SEEDS (all referenced)

N_COHORT = 100_000          # the README cohort of both workloads
N_RT_COHORT = 2_000         # the cohort with rt_* and honesty columns (latent only)


@dataclass(frozen=True)
class Command:
    """One `riskbn` invocation: its arguments, the table outputs whose bytes
    must repeat, and the reader that turns its outputs into checked values."""

    name: str
    argv: tuple[str, ...]
    tables: tuple[str, ...]
    extract: Callable[[Path, str], dict]


# --- output readers ------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _strength(prefix: str, out: str) -> Callable[[Path, str], dict]:
    def extract(work: Path, stdout: str) -> dict:
        values = {}
        for row in _rows(work / out):
            values[f"{prefix}.{row['variable']}"] = float(row["score"])
            values[f"{prefix}.{row['variable']}.above_control"] = row["above_control"]
        return values
    return extract


def _records(work: Path, stdout: str) -> dict:
    with open(work / "cohort.csv", "rb") as fh:
        return {"simulate.records": sum(1 for _ in fh) - 1}


def _summary(work: Path, stdout: str) -> dict:
    return {f"summarize.{r['variable']}={r['state']}": int(r["count"])
            for r in _rows(work / "marginals.csv")}


def _profile(work: Path, stdout: str) -> dict:
    return {f"profile.{r['state']}": float(r["posterior"]) for r in _rows(work / "profile.csv")}


def _multifactor(work: Path, stdout: str) -> dict:
    values = {}
    for r in _rows(work / "multifactor.csv"):
        key = f"multifactor.{r['pool']}.k{r['k']}"
        values[key + ".max"] = float(r["max_posterior"])
        values[key + ".evaluated"] = int(r["evaluated"])
        values[key + ".skipped"] = int(r["skipped"])
    return values


def _profiles(work: Path, stdout: str) -> dict:
    match = re.search(r"\((\d+) profiles\)", stdout)
    values = {"profiles.count": int(match.group(1)) if match else None}
    for r in _rows(work / "profiles.csv"):
        values[f"profiles.{r['variable']}={r['state']}"] = int(r["count"])
    return values


def _query(work: Path, stdout: str) -> dict:
    result = json.loads((work / "query.json").read_text())
    values = {f"query.{s}": float(p) for s, p in result["posterior"].items()}
    values["query.evidence_probability"] = float(result["evidence_probability"])
    return values


def _validate(work: Path, stdout: str) -> dict:
    return {"validate.stdout": stdout.strip()}


def _em_values(prefix: str, trace: dict) -> dict:
    selected = trace["selected"]
    values = {f"{prefix}.selected": selected,
              f"{prefix}.objective": trace["log_likelihoods"][selected][-1]}
    for r, objectives in enumerate(trace["log_likelihoods"]):
        values[f"{prefix}.iterations.r{r}"] = len(objectives)
        values[f"{prefix}.converged.r{r}"] = trace["converged"][r]
    return values


def _em(work: Path, stdout: str) -> dict:
    return _em_values("em", json.loads((work / "latent.json.trace.json").read_text()))


def _filtered_em(work: Path, stdout: str) -> dict:
    match = re.search(r"filters: (\d+) flagged by response time, (\d+) by honesty; "
                      r"(\d+) records kept", stdout)
    values = _em_values("em_rt", json.loads((work / "latent_rt.json.trace.json").read_text()))
    values["filter.flagged_rt"] = int(match.group(1)) if match else None
    values["filter.kept"] = int(match.group(3)) if match else None
    return values


def _compare(work: Path, stdout: str) -> dict:
    result = json.loads((work / "compare.json").read_text())
    return {"compare.rho": float(result["rho"]), "compare.p_value": float(result["p_value"]),
            "compare.n": int(result["n"])}


def _nothing(work: Path, stdout: str) -> dict:
    return {}


# --- command sequences ---------------------------------------------------------

def _em_args(seed: int) -> tuple[str, ...]:
    return ("--latent", TARGET, "--seed", str(seed), "--em-restarts", str(EM_RESTARTS),
            "--em-max-iterations", str(EM_MAX_ITERATIONS), "--em-tolerance", str(EM_TOLERANCE))


def commands(workload: str, seed: int) -> list[Command]:
    """The timed `riskbn` sequence of a workload for cohort seed ``seed``."""
    if workload == "pipeline":
        return [
            Command("simulate", ("simulate", "--n", str(N_COHORT), "--seed", str(seed),
                                 "--out", "cohort.csv"), ("cohort.csv",), _records),
            Command("summarize", ("summarize", "--data", "cohort.csv", "--out", "marginals.csv"),
                    ("marginals.csv",), _summary),
            Command("fit", ("fit", "--data", "cohort.csv", "--out", "model.json"),
                    ("model.json",), _nothing),
            Command("strength", ("strength", "--model", "model.json", "--out", "strength.csv"),
                    ("strength.csv",), _strength("strength", "strength.csv")),
            Command("profile", ("profile", "--model", "model.json", "--source", SOURCE,
                                "--out", "profile.csv"), ("profile.csv",), _profile),
            Command("multifactor", ("multifactor", "--model", "model.json", "--k-min", "1",
                                    "--k-max", "5", "--out", "multifactor.csv"),
                    ("multifactor.csv",), _multifactor),
            Command("profiles", ("profiles", "--model", "model.json", "--k", "5",
                                 "--threshold", "0.26", "--out", "profiles.csv"),
                    ("profiles.csv",), _profiles),
            Command("query", ("query", "--model", "model.json", "--evidence", QUERY_EVIDENCE,
                              "--out", "query.json"), ("query.json",), _query),
            Command("validate", ("validate", "model.json"), (), _validate),
        ]
    if workload == "latent":
        return [
            Command("fit_latent", ("fit", "--data", "cohort.csv", "--out", "latent.json")
                    + _em_args(seed), ("latent.json", "latent.json.trace.json"), _em),
            Command("strength", ("strength", "--model", "latent.json",
                                 "--out", "strength_latent.csv"),
                    ("strength_latent.csv",), _strength("strength_latent", "strength_latent.csv")),
            Command("compare", ("compare", "strength_supervised.csv", "strength_latent.csv",
                                "--out", "compare.json"), ("compare.json",), _compare),
            Command("fit_latent_rt", ("fit", "--data", "cohort_rt.csv", "--filter-rt",
                                      str(RT_THRESHOLD_MS), "--filter-action", "blank",
                                      "--out", "latent_rt.json") + _em_args(seed),
                    ("latent_rt.json", "latent_rt.json.trace.json"), _filtered_em),
        ]
    raise KeyError(workload)


# --- inputs --------------------------------------------------------------------

def add_meta(dataset: Dataset, seed: int) -> Dataset:
    """The cohort plus ``rt_*`` and ``honesty`` columns from the benchmark's
    own random stream.

    Response times are all at least 1.5 s, then one fast answer
    (< RT_THRESHOLD_MS) is planted in exactly ``BLANK_SHARE`` of the
    records, so ``--filter-rt`` blanks that share.
    """
    n = dataset.n
    rng = np.random.default_rng([seed, 2309])
    rt_names = dataset.schema.response_time_columns
    times = {name: np.clip(rng.lognormal(np.log(4000.0), 0.4, n), 1500, 60000).astype(np.int32)
             for name in rt_names}
    fast_rows = rng.choice(n, size=round(BLANK_SHARE * n), replace=False)
    fast_cols = rng.integers(0, len(rt_names), size=fast_rows.size)
    fast_ms = rng.integers(150, RT_THRESHOLD_MS, size=fast_rows.size)
    for row, col, ms in zip(fast_rows, fast_cols, fast_ms):
        times[rt_names[col]][row] = ms
    honesty_states = dataset.schema.get("honesty").states
    honest = np.where(rng.random(n) < 0.03, honesty_states.index("No"),
                      honesty_states.index("Yes")).astype(np.int16)
    columns = dict(dataset.columns, honesty=honest)
    return Dataset(dataset.schema, n, columns, times, "benchmark")


def prepare(workload: str, seed: int, work: Path) -> None:
    """Write the inputs a workload's timed sequence reads (nothing for
    pipeline, which simulates its own cohort as its first command)."""
    if workload == "pipeline":
        return
    (work / "cohort.csv").write_text(save_dataset(simulate_dataset(N_COHORT, seed)))
    rt_cohort = add_meta(simulate_dataset(N_RT_COHORT, seed), seed)
    (work / "cohort_rt.csv").write_text(save_dataset(rt_cohort))
    # The supervised ranking that `compare` reads is prepared untimed.
    for argv in (["fit", "--data", work / "cohort.csv", "--out", work / "supervised.json"],
                 ["strength", "--model", work / "supervised.json",
                  "--out", work / "strength_supervised.csv"]):
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            status = riskbn.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"preparing inputs failed: riskbn {' '.join(argv)}")


# --- traced replay -------------------------------------------------------------

def _pools(network) -> tuple[list[str], list[str]]:
    """The `multifactor` command's default game and profiling pools."""
    game = [v.name for v in network.schema if v.kind == "game"]
    profiling = [v.name for v in network.schema
                 if v.kind in ("demographic", "psychological", "outcome") and v.name != TARGET]
    return game, profiling


def replay(workload: str, seed: int, span, work: Path) -> tuple[dict, dict]:
    """Replay a workload's library calls in this process, one span per call.

    Both workloads make the same calls on the same two cohorts: the
    100k-record cohort and the response-time cohort. Input preparation is
    included. Calls that a workload does not time run once at their
    smallest size: on ``pipeline`` both EM fits get one restart and one
    iteration, and on ``latent`` multifactor and risk profiles run at
    k = 1. So every per-layer metric is measured on every workload.
    The record counts cover the cohorts the workload's timed commands
    read: the 100k cohort on ``pipeline``, both cohorts on ``latent``.
    Returns the work counts as ``{name: (value, unit)}`` and the values
    checked against the reference.
    Writes the model to ``work/model.json`` for the `validate` command.
    """
    full = workload == "pipeline"
    em_config = (EmConfig(max_iterations=1, restarts=1, seed=seed) if full else
                 EmConfig(max_iterations=EM_MAX_ITERATIONS, tolerance=EM_TOLERANCE,
                          restarts=EM_RESTARTS, seed=seed))
    schema = default_schema()
    specs = schema.network_variables
    dag = default_dag()
    prior = default_prior(specs)

    with span("data.simulate"):
        generator = build_default_generator(seed).network
        with span("inference.ancestral_sample"):
            batch = ancestral_sample(generator, N_COHORT, seed)
        dataset = dataset_from_batch(batch, schema)
    with span("data.save"):
        text = save_dataset(dataset)
    with span("data.load"):
        dataset = load_dataset(text, schema)
    with span("data.summarize"):
        summarize(dataset)
    with span("learning.fit_cpts"):
        supervised = fit_cpts(specs, dag, dataset, prior)
    with span("learning.em_fit"):
        latent, trace = em_fit(specs, dag, dataset.without_columns([TARGET]), [TARGET], prior,
                               em_config)
    model = supervised if full else latent
    with span("core.serialize"):
        text = serialize_model(model)
    (work / "model.json").write_text(text)
    # Each analysis command of the sequence parses the model once.
    for _ in range(5 if full else 1):
        with span("core.parse"):
            model = parse_model(text)
    with span("learning.log_likelihood"):
        log_likelihood(model, dataset)

    with span("analysis.strength"):
        ranking = strength_ranking(model, TARGET, None, DEFAULT_CONTROL)
    if full:
        with span("analysis.profile"):
            conditional_profile(model, TARGET, SOURCE)
    else:
        with span("analysis.strength"):
            a = dict(strength_ranking(supervised, TARGET, None, DEFAULT_CONTROL).entries)
        b = dict(ranking.entries)
        with span("analysis.spearman"):
            spearman([a[k] for k in sorted(a)], [b[k] for k in sorted(a)])
    game, profiling = _pools(model)
    ks = range(1, 6) if full else range(1, 2)
    searches = {}
    for pool_name, pool in (("game", game), ("profiling", profiling)):
        with span(f"analysis.multifactor_{pool_name}"):
            searches[pool_name] = multifactor_search(model, TARGET, "Yes", pool, ks)
    with span("analysis.risk_profiles"):
        found = risk_profiles(model, TARGET, "Yes", profiling, 5 if full else 1, 0.26)
    for name in profiling + game:
        for state in model.spec(name).states:
            with span("inference.posterior"):
                posterior(model, TARGET, {name: state})
    with span("inference.joint_table"):
        joint_table(model, profiling + [TARGET])

    # The response-time cohort: filter, then EM with the blanked records
    # on the per-record elimination path.
    rt_cohort = load_dataset(save_dataset(add_meta(simulate_dataset(N_RT_COHORT, seed), seed)),
                             schema)
    with span("data.filter"):
        rt_cohort, report = apply_filters(rt_cohort,
                                          FilterConfig(RT_THRESHOLD_MS, False, "blank"))
    with span("learning.em_fit_rt"):
        rt_model, rt_trace = em_fit(specs, dag, rt_cohort.without_columns([TARGET]), [TARGET],
                                    prior, em_config)
    with span("learning.log_likelihood_rt"):
        log_likelihood(rt_model, rt_cohort)
    blanked = np.nonzero(rt_cohort.columns["Previous_CB_Victimization"] < 0)[0]
    for i in blanked[:20]:
        record = {k: v for k, v in rt_cohort.record(int(i)).items() if k != "honesty"}
        with span("inference.evidence_probability"):
            evidence_probability(rt_model, record)

    entries = [e for s in searches.values() for e in s.entries]
    evaluated = sum(e.evaluated for e in entries)
    records = dataset.n if full else dataset.n + rt_cohort.n
    incomplete = 0 if full else int(blanked.size)
    counts = {
        "data.records": (records, "count"),
        "data.incomplete_records": (incomplete, "count"),
        "data.incomplete_share": (incomplete / records, "ratio"),
        "core.model_bytes": (len(text.encode()), "bytes"),
        "learning.em_iterations": (sum(len(r) for r in trace.log_likelihoods), "count"),
        "learning.em_iterations_rt": (sum(len(r) for r in rt_trace.log_likelihoods), "count"),
        "analysis.multifactor_evaluated": (evaluated, "count"),
        "analysis.multifactor_skipped": (sum(e.skipped for e in entries), "count"),
        "analysis.multifactor_useful_ratio": (evaluated / sum(e.evaluated + e.skipped
                                                              for e in entries), "ratio"),
        "analysis.profiles_found": (len(found.profiles), "count"),
    }

    checked: dict = {}
    if full:
        checked.update({f"strength.{k}": v for k, v in ranking.entries})
        for pool_name, search in searches.items():
            for e in search.entries:
                key = f"multifactor.{pool_name}.k{e.k}"
                checked.update({key + ".max": e.max_posterior, key + ".evaluated": e.evaluated,
                                key + ".skipped": e.skipped})
        checked["profiles.count"] = len(found.profiles)
    else:
        for prefix, t in (("em", trace), ("em_rt", rt_trace)):
            checked.update({f"{prefix}.selected": t.selected,
                            f"{prefix}.objective": t.log_likelihoods[t.selected][-1]})
            checked.update({f"{prefix}.iterations.r{r}": len(x)
                            for r, x in enumerate(t.log_likelihoods)})
        checked.update({f"strength_latent.{k}": v for k, v in ranking.entries})
        checked.update({"filter.flagged_rt": report.flagged_response_time,
                        "filter.kept": report.n_output})
    return counts, checked
