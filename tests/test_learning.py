import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbn.core import Cpt, DagStructure, VariableSpec, build_network, config_index, parse_model
from riskbn.data import Dataset, Schema, dataset_from_batch, default_dag, default_schema, simulate_dataset
from riskbn.errors import SchemaMismatch
from riskbn.inference import ancestral_sample, evidence_probability, joint_table, posterior
from riskbn.learning import (
    DirichletPrior,
    EmConfig,
    _EmProblem,
    default_prior,
    em_fit,
    fit_cpts,
    log_likelihood,
)

from helpers import JointOracle, chain_network, random_network

OUTCOME = "Previous_CB_Offending"


def outcome_schema():
    return (VariableSpec(OUTCOME, ("Yes", "No"), "outcome"),)


def outcome_dataset(values: list[str] | None):
    schema = Schema(outcome_schema())
    if values is None:
        return Dataset(schema, 0, {})
    codes = np.array([0 if v == "Yes" else 1 for v in values], dtype=np.int16)
    return Dataset(schema, len(values), {OUTCOME: codes})


def test_zero_records_returns_prior_mean_exactly():
    schema = outcome_schema()
    dag = DagStructure((OUTCOME,), ())
    net = fit_cpts(schema, dag, outcome_dataset(None))
    assert net.cpts[OUTCOME].rows[0, 0] == 0.1
    assert net.cpts[OUTCOME].rows[0, 1] == 0.9


def test_ten_records_three_yes():
    schema = outcome_schema()
    dag = DagStructure((OUTCOME,), ())
    ds = outcome_dataset(["Yes"] * 3 + ["No"] * 7)
    net = fit_cpts(schema, dag, ds)
    assert net.cpts[OUTCOME].rows[0, 0] == pytest.approx((0.2 + 3) / 12, abs=1e-12)


def test_ten_records_one_yes_regression_fixture():
    # arithmetic coincidence: (0.2 + 1) / 12 == 0.1 == the prior mean
    schema = outcome_schema()
    dag = DagStructure((OUTCOME,), ())
    ds = outcome_dataset(["Yes"] + ["No"] * 9)
    net = fit_cpts(schema, dag, ds)
    assert net.cpts[OUTCOME].rows[0, 0] == pytest.approx(0.1, abs=1e-12)


def test_small_ess_approaches_maximum_likelihood():
    schema = outcome_schema()
    dag = DagStructure((OUTCOME,), ())
    ds = outcome_dataset(["Yes"] * 3 + ["No"] * 7)
    prior = DirichletPrior({OUTCOME: np.array([0.1, 0.9])}, ess=1e-9)
    net = fit_cpts(schema, dag, ds, prior)
    assert net.cpts[OUTCOME].rows[0, 0] == pytest.approx(0.3, abs=1e-9)


def test_missing_values_listwise_per_family():
    # B's family only counts records where both A and B are observed
    schema = (VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1")))
    dag = DagStructure(("A", "B"), (("A", "B"),))
    ds_schema = Schema(schema)
    a = np.array([0, 0, 1, -1, 1], dtype=np.int16)
    b = np.array([1, -1, 1, 1, 0], dtype=np.int16)
    ds = Dataset(ds_schema, 5, {"A": a, "B": b})
    prior = DirichletPrior(ess=2.0)
    net = fit_cpts(schema, dag, ds, prior)
    # A observed 4 times (1 missing): counts (2, 2) -> (1+2)/(2+4)
    assert net.cpts["A"].rows[0, 0] == pytest.approx(0.5)
    # complete (A,B) pairs: (0,1), (1,1), (1,0)
    assert net.cpts["B"].rows[0, 1] == pytest.approx((1 + 1) / 3)  # P(B=1|A=0)
    assert net.cpts["B"].rows[1, 1] == pytest.approx((1 + 1) / 4)  # P(B=1|A=1)


def test_unknown_column_rejected():
    schema = outcome_schema()
    dag = DagStructure((OUTCOME,), ())
    other = Schema((VariableSpec("Other", ("x", "y")),))
    ds = Dataset(other, 2, {"Other": np.array([0, 1], dtype=np.int16)})
    with pytest.raises(SchemaMismatch):
        fit_cpts(schema, dag, ds)


def test_fit_recovers_truth_on_large_sample():
    rng = np.random.default_rng(21)
    true_net = random_network(rng, max_vars=5, max_states=3)
    batch = ancestral_sample(true_net, 50_000, seed=4)
    ds = dataset_from_batch(batch, Schema(true_net.schema))
    fitted = fit_cpts(true_net.schema, true_net.dag, ds, DirichletPrior(ess=2.0))
    for name in true_net.variables:
        parents = true_net.parents(name)
        config_probs = (joint_table(true_net, list(parents)).reshape(-1)
                        if parents else np.array([1.0]))
        rows_true = true_net.cpts[name].rows
        rows_fit = fitted.cpts[name].rows
        mask = config_probs >= 0.01
        assert np.abs(rows_true[mask] - rows_fit[mask]).max() < 0.02


def test_fitted_networks_always_validate():
    rng = np.random.default_rng(31)
    net = random_network(rng, max_vars=6, max_states=3)
    batch = ancestral_sample(net, 100, seed=9)
    ds = dataset_from_batch(batch, Schema(net.schema))
    fitted = fit_cpts(net.schema, net.dag, ds)
    sums = [fitted.cpts[v].rows.sum(axis=1) for v in fitted.variables]
    for s in sums:
        assert np.abs(s - 1.0).max() < 1e-9


# --- log likelihood -----------------------------------------------------------

def test_log_likelihood_empty_dataset():
    net = chain_network()
    ds = Dataset(Schema(net.schema), 0, {})
    assert log_likelihood(net, ds) == 0.0


def test_log_likelihood_of_a_network_without_variables_is_zero():
    net = parse_model('{"variables": [], "edges": [], "cpts": {}}')
    assert log_likelihood(net, Dataset(Schema(()), 3, {})) == 0.0


def test_log_likelihood_single_record():
    net = chain_network()
    ds = Dataset(Schema(net.schema), 1, {
        "A": np.array([1], dtype=np.int16), "B": np.array([1], dtype=np.int16)})
    assert log_likelihood(net, ds) == pytest.approx(math.log(0.27), abs=1e-12)


def test_log_likelihood_marginalizes_missing():
    net = chain_network()
    ds = Dataset(Schema(net.schema), 1, {
        "A": np.array([-1], dtype=np.int16), "B": np.array([1], dtype=np.int16)})
    assert log_likelihood(net, ds) == pytest.approx(math.log(0.41), abs=1e-12)


def test_log_likelihood_zero_probability_record_warns():
    schema = [VariableSpec("A", ("0", "1"))]
    dag = DagStructure(("A",), ())
    net = build_network(schema, dag, [Cpt("A", (), [[1.0, 0.0]])])
    ds = Dataset(Schema(tuple(schema)), 1, {"A": np.array([1], dtype=np.int16)})
    with pytest.warns(UserWarning, match="zero"):
        value = log_likelihood(net, ds)
    assert value == -np.inf


def test_true_network_beats_perturbed_on_its_own_data():
    rng = np.random.default_rng(41)
    true_net = random_network(rng, max_vars=5, max_states=3)
    batch = ancestral_sample(true_net, 5000, seed=10)
    ds = dataset_from_batch(batch, Schema(true_net.schema))
    perturbed_cpts = []
    for name in true_net.variables:
        rows = true_net.cpts[name].rows * rng.uniform(0.4, 1.6, true_net.cpts[name].rows.shape)
        rows = rows / rows.sum(axis=1, keepdims=True)
        perturbed_cpts.append(Cpt(name, true_net.parents(name), rows))
    perturbed = build_network(true_net.schema, true_net.dag, perturbed_cpts)
    assert log_likelihood(true_net, ds) > log_likelihood(perturbed, ds)


# --- EM ---------------------------------------------------------------------------

def test_em_isolated_latent_stays_at_prior_mean():
    schema = (VariableSpec("L", ("Yes", "No"), "outcome"), VariableSpec("X", ("a", "b")))
    dag = DagStructure(("L", "X"), ())
    ds = Dataset(Schema(schema), 6, {"X": np.array([0, 1, 0, 0, 1, 1], dtype=np.int16)})
    prior = default_prior(schema, outcome="L", outcome_p=0.1)
    net, trace = em_fit(schema, dag, ds, ["L"], prior,
                        EmConfig(restarts=1, jitter=0.0, seed=2))
    assert net.cpts["L"].rows[0, 0] == pytest.approx(0.1, abs=1e-12)
    # jittered restarts stay within the jitter band of the anchor
    net2, _ = em_fit(schema, dag, ds, ["L"], prior, EmConfig(restarts=3, seed=2))
    assert net2.cpts["L"].rows[0, 0] == pytest.approx(0.1, abs=0.01)


def test_em_deterministic_for_fixed_seed():
    schema = default_schema().network_variables
    dag = default_dag()
    ds = simulate_dataset(400, 5).without_columns([OUTCOME])
    config = EmConfig(restarts=1, max_iterations=30, seed=12)
    net_a, trace_a = em_fit(schema, dag, ds, [OUTCOME], config=config)
    net_b, trace_b = em_fit(schema, dag, ds, [OUTCOME], config=config)
    assert net_a == net_b
    assert trace_a.log_likelihoods == trace_b.log_likelihoods


def test_em_rejects_observed_latent():
    schema = default_schema().network_variables
    dag = default_dag()
    ds = simulate_dataset(50, 5)
    with pytest.raises(SchemaMismatch):
        em_fit(schema, dag, ds, [OUTCOME])


@pytest.mark.parametrize("ess", [0.0, -1.0, float("nan"), float("inf")])
def test_dirichlet_prior_rejects_ess_outside_positive_finite(ess):
    with pytest.raises(SchemaMismatch):
        DirichletPrior(ess=ess)


@pytest.mark.parametrize("mean", [[float("nan"), 0.9], [float("nan"), float("nan")],
                                  [[0.1, 0.9], [0.5, float("nan")]]])
def test_dirichlet_prior_rejects_nan_means(mean):
    with pytest.raises(SchemaMismatch):
        DirichletPrior({OUTCOME: np.array(mean)})


def test_default_prior_rejects_nan_outcome_p():
    with pytest.raises(SchemaMismatch):
        default_prior(outcome_schema(), outcome_p=float("nan"))


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"jitter": float("nan")}, {"jitter": 1.0},
                                    {"jitter": 5.0}, {"jitter": -0.01}])
def test_em_config_rejects_out_of_range_seed_and_jitter(kwargs):
    with pytest.raises(SchemaMismatch):
        EmConfig(**kwargs)


def test_em_monotone_objective_and_recovery():
    # two-cluster net: latent L drives three observed children
    rng = np.random.default_rng(8)
    schema = (
        VariableSpec("L", ("Yes", "No"), "outcome"),
        VariableSpec("X1", ("a", "b")),
        VariableSpec("X2", ("a", "b")),
        VariableSpec("X3", ("a", "b", "c")),
    )
    dag = DagStructure(
        ("L", "X1", "X2", "X3"),
        (("L", "X1"), ("L", "X2"), ("L", "X3")),
    )
    cpts = [
        Cpt("L", (), [[0.25, 0.75]]),
        Cpt("X1", ("L",), [[0.9, 0.1], [0.2, 0.8]]),
        Cpt("X2", ("L",), [[0.7, 0.3], [0.15, 0.85]]),
        Cpt("X3", ("L",), [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]),
    ]
    true_net = build_network(schema, dag, cpts)
    batch = ancestral_sample(true_net, 4000, seed=13)
    ds = dataset_from_batch(batch, Schema(schema)).without_columns(["L"])
    prior = default_prior(schema, outcome="L", outcome_p=0.25)
    net, trace = em_fit(schema, dag, ds, ["L"], prior, EmConfig(restarts=6, seed=3))
    for objectives in trace.log_likelihoods:
        diffs = np.diff(objectives)
        assert (diffs >= -1e-9).all()
    # alignment keeps the rare cluster on the Yes slot and recovers children
    assert net.cpts["L"].rows[0, 0] == pytest.approx(0.25, abs=0.05)
    assert net.cpts["X1"].rows[0, 0] == pytest.approx(0.9, abs=0.08)
    assert net.cpts["X2"].rows[0, 0] == pytest.approx(0.7, abs=0.08)


def incidental_missingness_fit():
    schema = (
        VariableSpec("L", ("Yes", "No"), "outcome"),
        VariableSpec("X1", ("a", "b")),
        VariableSpec("X2", ("a", "b")),
    )
    dag = DagStructure(("L", "X1", "X2"), (("L", "X1"), ("L", "X2")))
    rng = np.random.default_rng(14)
    x1 = rng.integers(0, 2, size=60).astype(np.int16)
    x2 = rng.integers(0, 2, size=60).astype(np.int16)
    x1[:5] = -1
    ds = Dataset(Schema(schema), 60, {"X1": x1, "X2": x2})
    return em_fit(schema, dag, ds, ["L"], config=EmConfig(restarts=2, max_iterations=40, seed=6))


def blanked_parent_fit():
    # as --filter-action blank does to Previous_CB_Victimization, plus a
    # blanked root parent of the latent and a blanked (barren) game leaf
    ds = simulate_dataset(300, 3).without_columns([OUTCOME])
    columns = dict(ds.columns)
    for name, start, step in (("Previous_CB_Victimization", 0, 15), ("Empathy", 2, 11),
                              ("A3Q7_HowToHelpPol", 1, 7)):
        column = columns[name].copy()
        column[start::step] = -1
        columns[name] = column
    ds = Dataset(ds.schema, ds.n, columns)
    return em_fit(default_schema().network_variables, default_dag(), ds, [OUTCOME],
                  config=EmConfig(restarts=2, max_iterations=6, tolerance=1e-9, seed=4))


def test_em_handles_incidental_missingness():
    # records missing an observed cell share the E-step with complete ones
    net, trace = incidental_missingness_fit()
    assert np.abs(net.cpts["X1"].rows.sum(axis=1) - 1.0).max() < 1e-9
    for objectives in trace.log_likelihoods:
        assert (np.diff(objectives) >= -1e-9).all()


def test_em_not_converged_is_flagged_not_raised():
    schema = default_schema().network_variables
    dag = default_dag()
    ds = simulate_dataset(300, 19).without_columns([OUTCOME])
    net, trace = em_fit(schema, dag, ds, [OUTCOME],
                        config=EmConfig(restarts=1, max_iterations=2, seed=1))
    assert trace.converged == (False,)
    assert net is not None


# Objectives recorded from the per-record elimination E-step this package
# used before the single vectorized one; both compute the same quantity.
INCIDENTAL_TRACE = (
    (
        -86.85116327159616, -85.64904537899731, -85.64836042391475, -85.6478962577292,
        -85.64757478791752, -85.64734523931916, -85.64717450344035, -85.64704090127789,
        -85.64693014480991, -85.64683271838157, -85.64674217850262, -85.64665404821596,
        -85.64656509652504, -85.64647286716286, -85.646375368715, -85.64627086900987,
        -85.64615775672085, -85.64603444610766, -85.64589930925295, -85.64575062561602,
        -85.6455865422827, -85.64540504060369, -85.64520390642889, -85.64498070214475,
        -85.64473273939248, -85.64445705180728, -85.64415036746067, -85.64380908094942,
        -85.6434292253105, -85.64300644415975, -85.64253596468629, -85.6420125723859,
        -85.6414305887095, -85.64078385312838, -85.64006571149451, -85.63926901299433,
        -85.6383861184577, -85.63740892326982, -85.63632889863642, -85.63513715542068,
        -85.63382453516682,
    ),
    (
        -86.53170062905619, -85.6496074458216, -85.64863812027419, -85.64800809268628,
        -85.6475978978583, -85.64733019922876, -85.64715487936027, -85.64703943427006,
        -85.6469627687114,
    ),
)

BLANKED_PARENT_TRACE = (
    (
        -104059.68819110534, -103412.31057605807, -103412.08673043775,
        -103411.5317488955, -103409.93987659781, -103405.19592932153,
        -103395.09429963784,
    ),
    (
        -104047.68287314434, -103412.38767437902, -103412.2389291688,
        -103411.83382917696, -103410.50137307844, -103405.50159613989,
        -103391.64806044477,
    ),
)


@pytest.mark.parametrize("fit, expected, converged, selected", [
    (incidental_missingness_fit, INCIDENTAL_TRACE, (False, True), 0),
    (blanked_parent_fit, BLANKED_PARENT_TRACE, (False, False), 1),
])
def test_em_trace_matches_pinned_objectives(fit, expected, converged, selected):
    _, trace = fit()
    assert trace.converged == converged
    assert trace.selected == selected
    assert [len(r) for r in trace.log_likelihoods] == [len(r) for r in expected]
    for got, want in zip(trace.log_likelihoods, expected):
        assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_em_first_iteration_matches_per_record_posteriors():
    # One evaluation and one M-step from the prior means, against the
    # objective and expected counts of per-record elimination. The complete
    # records' pattern keys the latent's children (a group with nothing
    # summed out); the blanked records' pattern sums the victimization cell out.
    schema = default_schema().network_variables
    dag = default_dag()
    ds = simulate_dataset(2000, 3).without_columns([OUTCOME])
    victimization = ds.columns["Previous_CB_Victimization"].copy()
    victimization[::20] = -1
    ds = Dataset(ds.schema, ds.n, dict(ds.columns, Previous_CB_Victimization=victimization))
    prior = default_prior(schema)
    layouts = sorted((p.records.size, [g.n_summed > 1 for g in p.groups])
                     for p in _EmProblem(schema, dag, ds, [OUTCOME], prior).patterns)
    assert layouts == [(100, [True]), (1900, [False])]

    net, trace = em_fit(schema, dag, ds, [OUTCOME], prior,
                        EmConfig(restarts=1, max_iterations=1, jitter=0.0))
    start = build_network(schema, dag, [
        Cpt(v.name, net.parents(v.name),
            prior.mean_rows(v.name, *net.cpts[v.name].rows.shape)) for v in schema])
    records = [ds.record(i) for i in range(ds.n)]
    log_prior = sum(float((prior.ess * start.cpts[v.name].rows
                           * np.log(start.cpts[v.name].rows)).sum()) for v in schema)
    objective = sum(math.log(evidence_probability(start, r)) for r in records) + log_prior
    assert trace.log_likelihoods[0][0] == pytest.approx(objective, rel=1e-12, abs=0)

    weights = np.array([posterior(start, OUTCOME, r).probabilities for r in records])
    supervised = fit_cpts(schema, dag, ds, prior)
    for v in schema:
        members = net.parents(v.name) + (v.name,)
        if OUTCOME not in members:
            expected = supervised.cpts[v.name].rows
        else:
            cards = [net.spec(m).cardinality for m in members]
            counted = np.all([ds.columns[m] >= 0 for m in members if m != OUTCOME], axis=0)
            counts = np.zeros(int(np.prod(cards)))
            for s in range(2):
                flat = config_index([np.full(ds.n, s) if m == OUTCOME else ds.columns[m]
                                     for m in members], cards)
                np.add.at(counts, flat[counted], weights[counted, s])
            counts = counts.reshape(-1, cards[-1])
            alpha = prior.ess * start.cpts[v.name].rows
            expected = (alpha + counts) / (prior.ess + counts.sum(axis=1, keepdims=True))
        np.testing.assert_allclose(net.cpts[v.name].rows, expected, rtol=0, atol=1e-12)

    # The uniform prior means give every complete record the same posterior,
    # so a record read through the wrong key shows only in the second
    # evaluation, under the first M-step's CPTs.
    _, trace = em_fit(schema, dag, ds, [OUTCOME], prior,
                      EmConfig(restarts=1, max_iterations=2, tolerance=1e-300, jitter=0.0))
    log_prior = sum(float((prior.ess * start.cpts[v.name].rows
                           * np.log(net.cpts[v.name].rows)).sum()) for v in schema)
    objective = sum(math.log(evidence_probability(net, r)) for r in records) + log_prior
    assert trace.log_likelihoods[0][1] == pytest.approx(objective, rel=1e-12, abs=0)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["cells", "columns", "leaves"]))
@settings(max_examples=60, deadline=None)
def test_log_likelihood_matches_oracle_under_missingness(seed, mode):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_vars=7, max_states=3, allow_zeros=True)
    n = int(rng.integers(1, 40))
    states = ancestral_sample(net, n, seed=int(rng.integers(2**31))).states
    blank = np.zeros(states.shape, dtype=bool)
    if mode == "cells":
        blank = rng.random(states.shape) < 0.35
    elif mode == "columns":
        blank[:, rng.random(states.shape[1]) < 0.4] = True
    else:
        leaves = [j for j, v in enumerate(net.variables) if not net.children(v)]
        blank[:, leaves] = rng.random((n, len(leaves))) < 0.5
    columns = {name: np.where(blank[:, j], -1, states[:, j]).astype(np.int16)
               for j, name in enumerate(net.variables) if not blank[:, j].all()}
    ds = Dataset(Schema(net.schema), n, columns)
    oracle = JointOracle(net)
    expected = sum(math.log(oracle.evidence_probability(ds.record(i))) for i in range(n))
    assert log_likelihood(net, ds) == pytest.approx(expected, rel=1e-9, abs=1e-9)


PROFILING = tuple(v.name for v in default_schema().network_variables
                  if v.kind in ("demographic", "psychological"))


@pytest.mark.parametrize("absent", [PROFILING + (OUTCOME,), PROFILING,
                                    ("Previous_CB_Victimization", OUTCOME)])
def test_log_likelihood_with_absent_columns_matches_elimination_in_bounded_memory(absent):
    # without the profiling columns every record hides 72,900 profiling
    # configurations; summing them out per distinct key keeps the tables
    # far below records x configurations (120 x 145,800 doubles = 140 MB)
    net = fit_cpts(default_schema().network_variables, default_dag(), simulate_dataset(2000, 2))
    ds = simulate_dataset(120, 1).without_columns(absent)
    tracemalloc.start()
    try:
        value = log_likelihood(net, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = sum(math.log(evidence_probability(net, ds.record(i))) for i in range(ds.n))
    assert value == pytest.approx(expected, rel=1e-9)
    assert peak < 48e6


def test_fit_cpts_of_100k_cohort_counts_from_its_columns_in_bounded_memory():
    # an (n x 21) int32 code matrix alone is 8.4 MB here, before the
    # (n x family) copy that each family's count made from it
    specs, dag = default_schema().network_variables, default_dag()
    ds = simulate_dataset(100_000, 0)
    prior = default_prior(specs)
    tracemalloc.start()
    try:
        net = fit_cpts(specs, dag, ds, prior)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert net.cpts[OUTCOME].rows.shape == (72_900, 2)


def test_em_set_up_of_100k_cohort_in_bounded_memory():
    # an (n x 21) int32 code matrix, int64 record indices and a second copy
    # of every static family's index peaked at 61.9 MB and held 31.0 MB here
    specs, dag = default_schema().network_variables, default_dag()
    ds = simulate_dataset(100_000, 0).without_columns([OUTCOME])
    prior = default_prior(specs)
    tracemalloc.start()
    try:
        problem = _EmProblem(specs, dag, ds, [OUTCOME], prior)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 28e6
    assert held <= 16e6
    assert len(problem.patterns) == 1


def _em_peak(ds, restarts):
    config = EmConfig(restarts=restarts, max_iterations=1)
    tracemalloc.start()
    try:
        _, trace = em_fit(default_schema().network_variables, default_dag(), ds, [OUTCOME],
                          config=config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, trace


def test_em_memory_does_not_grow_with_restarts():
    # keeping every restart's final CPTs added about 1.2 MB per restart here
    ds = simulate_dataset(2000, 0).without_columns([OUTCOME])
    few, _ = _em_peak(ds, 2)
    many, trace = _em_peak(ds, 10)
    assert many - few <= 1e6
    assert trace.selected == np.argmax([r[-1] for r in trace.log_likelihoods])


def test_fit_cpts_without_a_column_gives_its_families_the_prior_mean():
    specs, dag = default_schema().network_variables, default_dag()
    prior = default_prior(specs)
    ds = simulate_dataset(500, 4)
    net = fit_cpts(specs, dag, ds.without_columns(["Empathy"]), prior)
    full = fit_cpts(specs, dag, ds, prior)
    for name in net.variables:
        rows = net.cpts[name].rows
        if "Empathy" in (name,) + net.parents(name):
            assert np.array_equal(rows, prior.mean_rows(name, *rows.shape))
        else:
            assert np.array_equal(rows, full.cpts[name].rows)
