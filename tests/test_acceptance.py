"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts. Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from riskbn.analysis import (
    bf_threshold_posterior,
    influence_strength,
    multifactor_search,
    strength_ranking,
)
from riskbn.cli import main
from riskbn.core import Cpt, DagStructure, VariableSpec, build_network
from riskbn.data import (
    PUBLISHED_MARGINALS,
    Schema,
    dataset_from_batch,
    default_dag,
    default_schema,
    simulate_dataset,
)
from riskbn.errors import ZeroProbabilityEvidence
from riskbn.inference import (
    ancestral_sample,
    evidence_probability,
    joint_table,
    posterior,
)
from riskbn.learning import EmConfig, em_fit, fit_cpts
from riskbn.ranks import spearman
from riskbn.data import build_default_generator

from helpers import JointOracle, random_evidence, random_network

OUTCOME = "Previous_CB_Offending"
CONTROL = "A1Q1_PhotoSharing"

_EM_TRACES: list[tuple[tuple[float, ...], ...]] = []


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_bayes_factor_thresholds():
    substantial = bf_threshold_posterior(0.1, 10 ** 0.5)
    strong = bf_threshold_posterior(0.1, 10.0)
    ok = abs(substantial - 0.2601) <= 0.001 and abs(strong - 0.5263) <= 0.001
    _report(1, "Jeffreys thresholds at prior 0.1 give ~0.26 and ~0.53", ok,
            f"got {substantial:.6f} and {strong:.6f}")


def test_criterion_02_inference_matches_enumeration():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        net = random_network(rng, max_vars=10, max_states=4, allow_zeros=True)
        oracle = JointOracle(net)
        for _ in range(2):
            target = net.variables[int(rng.integers(len(net.variables)))]
            evidence = random_evidence(rng, net, exclude=(target,))
            p = oracle.evidence_probability(evidence)
            worst = max(worst, abs(evidence_probability(net, evidence) - p))
            expected = oracle.posterior(target, evidence)
            if expected is None:
                with pytest.raises(ZeroProbabilityEvidence):
                    posterior(net, target, evidence)
            else:
                got = np.asarray(posterior(net, target, evidence).probabilities)
                worst = max(worst, np.abs(got - expected).max())
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, "posterior/evidence probability match joint enumeration on "
               "100 random networks", ok,
            f"worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_learning_recovery_50k():
    start = time.time()
    gen = build_default_generator(0)
    schema = default_schema()
    dataset = simulate_dataset(50_000, seed=7)
    fitted = fit_cpts(schema.network_variables, default_dag(schema), dataset)
    worst = 0.0
    for name in gen.network.variables:
        parents = gen.network.parents(name)
        config_probs = (joint_table(gen.network, list(parents)).reshape(-1)
                        if parents else np.array([1.0]))
        mask = config_probs >= 0.01
        if not mask.any():
            continue
        dev = np.abs(gen.network.cpts[name].rows[mask]
                     - fitted.cpts[name].rows[mask]).max()
        worst = max(worst, float(dev))
    elapsed = time.time() - start
    ok = worst <= 0.02 and elapsed < 60.0
    _report(3, "fit on 50k synthetic samples recovers CPT entries (parent "
               "configs with probability >= 0.01) within 0.02", ok,
            f"worst deviation {worst:.4f}, {elapsed:.1f}s")


def test_criterion_04_soft_prior_anchor():
    schema = default_schema()
    empty = dataset_from_batch(
        ancestral_sample(build_default_generator(0).network, 1, seed=0), schema
    ).without_columns(list(schema.get(v.name).name for v in schema.variables))
    # a dataset with zero observed cells: every CPT row must be its prior mean
    fitted = fit_cpts(schema.network_variables, default_dag(schema), empty)
    p_yes = fitted.cpts[OUTCOME].rows[0, 0]
    row = fitted.cpts[OUTCOME].rows
    ok = bool((row[:, 0] == 0.1).all()) and p_yes == 0.1
    _report(4, "fitting with no observations returns P(offending=Yes) = 0.1 "
               "exactly", ok, f"got {p_yes!r}")


def test_criterion_05_control_ranks_below_game_variables():
    start = time.time()
    schema = default_schema()
    dag = default_dag(schema)
    game_vars = [v.name for v in schema.variables
                 if v.kind == "game" and v.name != CONTROL]
    ok = True
    details = []
    for seed in (11, 22, 33, 44, 55):
        dataset = simulate_dataset(5000, seed=seed)
        fitted = fit_cpts(schema.network_variables, dag, dataset)
        report = strength_ranking(fitted, OUTCOME, control=CONTROL)
        control_score = report.control_score
        floor = min(report.score(v) for v in game_vars)
        ok = ok and all(report.score(v) > control_score for v in game_vars)
        details.append(f"{floor:.3f}>{control_score:.3f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(5, "independent control ranks below every planted game variable "
               "on 5 fitted synthetic datasets (n=5000)", ok,
            f"min-game vs control per seed: {', '.join(details)}; {elapsed:.1f}s")


def test_criterion_06_latent_em_ranking_agreement():
    start = time.time()
    schema = default_schema()
    dag = default_dag(schema)
    rhos = []
    for seed in (101, 202, 303, 404, 505):
        dataset = simulate_dataset(5000, seed=seed)
        full_fit = fit_cpts(schema.network_variables, dag, dataset)
        full_rank = strength_ranking(full_fit, OUTCOME, control=CONTROL)
        hidden = dataset.without_columns([OUTCOME])
        em_net, trace = em_fit(schema.network_variables, dag, hidden, [OUTCOME],
                               config=EmConfig(restarts=10, seed=seed))
        _EM_TRACES.extend(trace.log_likelihoods)
        em_rank = strength_ranking(em_net, OUTCOME, control=CONTROL)
        names = sorted(name for name, _ in full_rank.entries)
        rho = spearman([full_rank.score(n) for n in names],
                       [em_rank.score(n) for n in names]).rho
        rhos.append(rho)
    elapsed = time.time() - start
    ok = all(r >= 0.8 for r in rhos) and elapsed < 180.0
    _report(6, "full-data vs latent-EM strength rankings reach Spearman "
               "rho >= 0.8 on 5 seeds", ok,
            f"rhos: {', '.join(f'{r:.3f}' for r in rhos)}; {elapsed:.1f}s")


def test_criterion_07_spearman_unit_values():
    identical = spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]).rho
    reversed_ = spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]).rho
    classic = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]).rho
    ok = identical == 1.0 and reversed_ == -1.0 and abs(classic - 0.8) <= 1e-12
    _report(7, "spearman unit values: identical -> 1, reversed -> -1, "
               "classic example -> 0.8", ok,
            f"got {identical}, {reversed_}, {classic:.12f}")


def test_criterion_08_js_distance_units():
    def h2(p):
        return 0.0 if p in (0.0, 1.0) else -(p * math.log2(p) + (1 - p) * math.log2(1 - p))

    def two_point_net(row_a, row_b):
        schema = [VariableSpec("S", ("0", "1")), VariableSpec("T", ("0", "1"))]
        dag = DagStructure(("S", "T"), (("S", "T"),))
        cpts = [Cpt("S", (), [[0.5, 0.5]]), Cpt("T", ("S",), [row_a, row_b])]
        return build_network(schema, dag, cpts)

    identical = influence_strength(two_point_net([0.25, 0.75], [0.25, 0.75]), "S", "T")
    disjoint = influence_strength(two_point_net([1.0, 0.0], [0.0, 1.0]), "S", "T")
    mixed = influence_strength(two_point_net([0.5, 0.5], [1.0, 0.0]), "S", "T")
    # independent entropy-formula oracle for the (0.5,0.5) vs (1,0) mixture
    oracle = math.sqrt(h2(0.75) - 0.5 * h2(0.5) - 0.5 * h2(1.0))
    ok = (identical == 0.0 and disjoint == 1.0
          and abs(mixed - 0.5579) <= 1e-3 and abs(mixed - oracle) <= 1e-12)
    _report(8, "JS distance units: identical -> 0, disjoint -> 1, "
               "(0.5,0.5) vs (1,0) -> ~0.5579", ok,
            f"got {identical}, {disjoint}, {mixed:.6f} (oracle {oracle:.6f})")


def test_criterion_09_multifactor_matches_enumeration():
    start = time.time()
    rng = np.random.default_rng(919)
    ok = True
    worst = 0.0
    for _ in range(12):
        net = random_network(rng, max_vars=8, max_states=3, allow_zeros=True)
        oracle = JointOracle(net)
        target = net.variables[-1]
        t_state = net.spec(target).states[0]
        pool = list(net.variables[:-1])[:6]
        ks = [k for k in (1, 2, 3) if k <= len(pool)]
        result = multifactor_search(net, target, t_state, pool, ks)
        for k in ks:
            best = None
            evaluated = skipped = 0
            for combo in itertools.combinations(pool, k):
                for states in itertools.product(*(net.spec(v).states for v in combo)):
                    vec = oracle.posterior(target, dict(zip(combo, states)))
                    if vec is None:
                        skipped += 1
                        continue
                    evaluated += 1
                    p = float(vec[net.state_index(target, t_state)])
                    best = p if best is None else max(best, p)
            entry = result.entry(k)
            ok = ok and entry.evaluated == evaluated and entry.skipped == skipped
            if best is None:
                ok = ok and entry.max_posterior is None
            else:
                worst = max(worst, abs(entry.max_posterior - best))
                ok = ok and abs(entry.max_posterior - best) <= 1e-12
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _report(9, "multifactor maxima equal exhaustive joint enumeration "
               "(networks <= 8 vars, k <= 3)", ok,
            f"worst max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_10_table_calibration_via_cli(tmp_path):
    start = time.time()
    data = tmp_path / "sim.csv"
    summary = tmp_path / "summary.csv"
    assert main(["simulate", "--n", "100000", "--seed", "42", "--out", str(data)]) == 0
    assert main(["summarize", "--data", str(data), "--out", str(summary)]) == 0
    rows = {}
    for line in summary.read_text().splitlines()[1:]:
        variable, state, count, percent = line.split(",")
        rows[(variable, state)] = float(percent)
    worst = 0.0
    for variable, column in PUBLISHED_MARGINALS.items():
        for state, published in column.items():
            worst = max(worst, abs(rows[(variable, state)] - published))
    elapsed = time.time() - start
    ok = worst <= 1.0 and elapsed < 30.0
    _report(10, "simulate 100k + summarize reproduces every published root "
                "marginal within 1 percentage point", ok,
            f"worst deviation {worst:.2f}pp, {elapsed:.1f}s")


def test_criterion_11_em_objective_monotone():
    traces = list(_EM_TRACES)
    if not traces:  # standalone run: produce one EM run to check
        schema = default_schema()
        hidden = simulate_dataset(2000, seed=77).without_columns([OUTCOME])
        _, trace = em_fit(schema.network_variables, default_dag(schema), hidden,
                          [OUTCOME], config=EmConfig(restarts=4, seed=77))
        traces = list(trace.log_likelihoods)
    worst = 0.0
    for objectives in traces:
        diffs = np.diff(objectives)
        if diffs.size:
            worst = min(worst, float(diffs.min()))
    ok = worst >= -1e-9
    _report(11, "EM objective never decreases by more than 1e-9 per iteration "
                f"across {len(traces)} restarts", ok, f"worst step {worst:.2e}")


def test_criterion_12_end_to_end_determinism(tmp_path):
    def pipeline(workdir):
        workdir.mkdir()
        data = workdir / "data.csv"
        model = workdir / "model.json"
        strength = workdir / "strength.csv"
        multifactor = workdir / "multifactor.csv"
        profiles = workdir / "profiles.csv"
        assert main(["simulate", "--n", "2000", "--seed", "606", "--out", str(data)]) == 0
        assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
        assert main(["strength", "--model", str(model), "--out", str(strength)]) == 0
        assert main(["multifactor", "--model", str(model), "--k-min", "1",
                     "--k-max", "3", "--out", str(multifactor)]) == 0
        # fitted demographic effects are heavily shrunk at n=2000, so use a
        # cutoff the fitted network can actually reach (content, not an
        # empty table, should feed the byte comparison)
        assert main(["profiles", "--model", str(model), "--k", "3",
                     "--threshold", "0.12", "--out", str(profiles)]) == 0
        return [data, model, strength, multifactor, profiles,
                strength.with_suffix(".svg"), multifactor.with_suffix(".svg"),
                profiles.with_suffix(".svg")]

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    mismatched = [a.name for a, b in zip(first, second)
                  if a.read_bytes() != b.read_bytes()]
    ok = not mismatched
    _report(12, "simulate -> fit -> strength -> multifactor -> profiles is "
                "byte-identical across reruns with one seed", ok,
            f"mismatched: {mismatched}" if mismatched else "8 artifacts compared")
