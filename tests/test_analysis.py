import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbn import analysis, inference
from riskbn.analysis import (
    DEFAULT_MAX_EVALS,
    _average_ranks,
    _student_t_two_sided,
    bayes_factor,
    bf_threshold_posterior,
    conditional_profile,
    estimate_evaluations,
    influence_strength,
    multifactor_search,
    risk_profiles,
    spearman,
    strength_ranking,
)
from riskbn.core import Cpt, DagStructure, VariableSpec, build_network
from riskbn.data import build_default_generator, default_dag, default_schema, simulate_dataset
from riskbn.errors import (
    DegenerateSourceWarning,
    DomainError,
    LengthMismatch,
    PoolTooLarge,
)
from riskbn.inference import joint_table, marginal
from riskbn.learning import fit_cpts

from helpers import JointOracle, chain_network, copy_network, random_network


def h2(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def disconnected_pair():
    schema = [VariableSpec("X", ("0", "1")), VariableSpec("Y", ("0", "1"))]
    dag = DagStructure(("X", "Y"), ())
    cpts = [Cpt("X", (), [[0.6, 0.4]]), Cpt("Y", (), [[0.3, 0.7]])]
    return build_network(schema, dag, cpts)


# --- influence strength ---------------------------------------------------------

def test_influence_disconnected_is_exactly_zero():
    net = disconnected_pair()
    assert influence_strength(net, "X", "Y") == 0.0


def test_influence_collider_parents_unconditionally_independent():
    schema = [VariableSpec(n, ("0", "1")) for n in ("A", "B", "C")]
    dag = DagStructure(("A", "B", "C"), (("A", "C"), ("B", "C")))
    cpts = [Cpt("A", (), [[0.4, 0.6]]), Cpt("B", (), [[0.7, 0.3]]),
            Cpt("C", ("A", "B"), [[0.9, 0.1], [0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])]
    net = build_network(schema, dag, cpts)
    assert influence_strength(net, "A", "B") == 0.0


def test_influence_copy_edge_uniform_binary_is_one():
    net = copy_network(2)
    assert influence_strength(net, "S", "T") == pytest.approx(1.0, abs=1e-12)


def test_influence_chain_matches_entropy_oracle():
    net = chain_network()
    oracle = math.sqrt(h2(0.41) - 0.7 * h2(0.2) - 0.3 * h2(0.1))
    assert influence_strength(net, "A", "B") == pytest.approx(oracle, abs=1e-12)


def test_influence_in_unit_interval_even_for_large_spaces():
    # deterministic 3-state copy would overshoot 1 without the bound guard
    net = copy_network(3)
    score = influence_strength(net, "S", "T")
    assert score == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        rnet = random_network(rng, max_vars=6, max_states=4)
        a, b = rnet.variables[0], rnet.variables[-1]
        s = influence_strength(rnet, a, b)
        assert 0.0 <= s <= 1.0


def test_influence_invariant_under_source_state_relabeling():
    net = chain_network()
    # swap A's states (and B's rows with them)
    schema = [VariableSpec("A", ("1", "0")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [Cpt("A", (), [[0.3, 0.7]]), Cpt("B", ("A",), [[0.1, 0.9], [0.8, 0.2]])]
    relabeled = build_network(schema, dag, cpts)
    assert influence_strength(relabeled, "A", "B") == pytest.approx(
        influence_strength(net, "A", "B"), abs=1e-12)


def test_influence_degenerate_source_warns_and_returns_zero():
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [Cpt("A", (), [[1.0, 0.0]]), Cpt("B", ("A",), [[0.2, 0.8], [0.6, 0.4]])]
    net = build_network(schema, dag, cpts)
    with pytest.warns(DegenerateSourceWarning):
        assert influence_strength(net, "A", "B") == 0.0


def test_influence_source_equals_target_rejected():
    with pytest.raises(DomainError):
        influence_strength(chain_network(), "A", "A")


# --- ranking -------------------------------------------------------------------

def build_ranking_net():
    # Y copies the outcome-ish variable O; X disconnected
    schema = [VariableSpec("O", ("0", "1")), VariableSpec("X", ("0", "1")),
              VariableSpec("Y", ("0", "1"))]
    dag = DagStructure(("O", "X", "Y"), (("O", "Y"),))
    cpts = [Cpt("O", (), [[0.5, 0.5]]), Cpt("X", (), [[0.5, 0.5]]),
            Cpt("Y", ("O",), [[1.0, 0.0], [0.0, 1.0]])]
    return build_network(schema, dag, cpts)


def test_ranking_orders_copy_above_disconnected():
    report = strength_ranking(build_ranking_net(), "O", ["X", "Y"])
    assert report.entries[0][0] == "Y"
    assert report.entries[1] == ("X", 0.0)


def test_ranking_tie_breaks_by_name():
    schema = [VariableSpec("O", ("0", "1")), VariableSpec("B", ("0", "1")),
              VariableSpec("A", ("0", "1"))]
    dag = DagStructure(("O", "B", "A"), ())
    cpts = [Cpt(n, (), [[0.5, 0.5]]) for n in ("O", "B", "A")]
    net = build_network(schema, dag, cpts)
    report = strength_ranking(net, "O", ["B", "A"])
    assert [name for name, _ in report.entries] == ["A", "B"]


def test_ranking_marks_control():
    report = strength_ranking(build_ranking_net(), "O", ["Y"], control="X")
    assert report.control == "X"
    assert report.control_score == 0.0
    assert any(name == "X" for name, _ in report.entries)


def test_ranking_rejects_control_equal_to_target(monkeypatch):
    def no_elimination(*args, **kwargs):
        raise AssertionError("eliminated before checking the control")

    monkeypatch.setattr(analysis, "joint_table", no_elimination)
    for candidates in (None, ["Y"]):
        with pytest.raises(DomainError, match="control and target must differ"):
            strength_ranking(build_ranking_net(), "O", candidates, control="O")


def test_ranking_rejects_target_candidate():
    with pytest.raises(DomainError):
        strength_ranking(build_ranking_net(), "O", ["O", "X"])


# --- conditional profile ----------------------------------------------------------

def test_profile_copy_edge():
    net = copy_network(2)
    profile = conditional_profile(net, "T", "S", target_state="s1")
    assert profile == (("s0", 0.0), ("s1", 1.0))


def test_profile_chain_reads_cpt():
    net = chain_network()
    profile = conditional_profile(net, "B", "A")
    assert profile[0][1] == pytest.approx(0.2)
    assert profile[1][1] == pytest.approx(0.9)


def test_profile_disconnected_source_gives_marginal():
    net = disconnected_pair()
    target_marginal = marginal(net, "Y").probabilities[1]
    profile = conditional_profile(net, "Y", "X", target_state="1")
    assert all(p == pytest.approx(target_marginal, abs=1e-12) for _, p in profile)


# --- one joint table per source ----------------------------------------------------

def _oracle_pair_table(oracle, source, target):
    """P(source, target) summed out of the full joint, source on axis 0."""
    a, b = oracle.axis[source], oracle.axis[target]
    others = tuple(i for i in range(len(oracle.variables)) if i not in (a, b))
    table = oracle.joint.sum(axis=others)
    return table if a < b else table.T


def _entropy_form_jsd(dists, weights):
    """JS divergence as H(mixture) - sum_i w_i H(d_i), base 2."""
    def h(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())
    return h(weights @ dists) - sum(w * h(d) for w, d in zip(weights, dists))


def _oracle_strength_squared(net, oracle, source, target):
    table = _oracle_pair_table(oracle, source, target)
    mass = table.sum(axis=1)
    rows = np.flatnonzero(mass > 0)
    if rows.size < 2:
        return 0.0
    dists = table[rows] / mass[rows, None]
    jsd = _entropy_form_jsd(dists, mass[rows] / mass.sum())
    card = min(rows.size, net.cardinality(target))
    if math.log2(card) > 1.0:
        jsd /= math.log2(card)
    return max(jsd, 0.0)


def zero_state_source_net():
    # S's middle state has probability zero; T depends on S and U
    schema = [VariableSpec("S", ("a", "b", "c")), VariableSpec("U", ("0", "1")),
              VariableSpec("T", ("t0", "t1", "t2"))]
    dag = DagStructure(("S", "U", "T"), (("S", "T"), ("U", "T")))
    cpts = [Cpt("S", (), [[0.6, 0.0, 0.4]]), Cpt("U", (), [[0.3, 0.7]]),
            Cpt("T", ("S", "U"), [[0.5, 0.5, 0.0], [0.1, 0.2, 0.7], [0.2, 0.2, 0.6],
                                  [0.3, 0.3, 0.4], [0.0, 0.1, 0.9], [0.8, 0.0, 0.2]])]
    return build_network(schema, dag, cpts)


def test_strength_and_profile_match_oracle_on_random_networks():
    rng = np.random.default_rng(61)
    nets = [zero_state_source_net()] + [
        random_network(rng, max_vars=6, max_states=4, allow_zeros=True) for _ in range(12)]
    zero_state_sources = compared = 0
    for net in nets:
        oracle = JointOracle(net)
        for source, target in itertools.permutations(net.variables, 2):
            table = _oracle_pair_table(oracle, source, target)
            mass = table.sum(axis=1)
            zero_state_sources += bool((mass == 0).any())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSourceWarning)
                score = influence_strength(net, source, target)
            expected = _oracle_strength_squared(net, oracle, source, target)
            if not analysis._d_connected_unconditionally(net, source, target):
                # independent pairs score exactly 0, whatever the rounding
                assert score == 0.0
                assert expected < 1e-12
            else:
                assert score == pytest.approx(math.sqrt(expected), abs=1e-12)
            t_state = net.spec(target).states[-1]
            t_idx = net.state_index(target, t_state)
            expected_profile = [(net.spec(source).states[v], table[v, t_idx] / mass[v])
                                for v in np.flatnonzero(mass > 0)]
            profile = conditional_profile(net, target, source, target_state=t_state)
            assert [s for s, _ in profile] == [s for s, _ in expected_profile]
            for (_, got), (_, want) in zip(profile, expected_profile):
                assert got == pytest.approx(want, abs=1e-12)
            compared += 1
    assert zero_state_sources > 0
    assert compared > 100
    assert [s for s, _ in conditional_profile(zero_state_source_net(), "T", "S")] == ["a", "c"]


def test_strength_and_profile_read_one_joint_table_per_source(monkeypatch):
    net = build_default_generator(0).network
    target = "Previous_CB_Offending"
    tables = []

    def counting_joint_table(network, variables, evidence=None):
        tables.append(tuple(variables))
        return joint_table(network, variables, evidence)

    # joint_table is the only elimination, whether called from analysis or
    # through a posterior, marginal or evidence probability
    monkeypatch.setattr(analysis, "joint_table", counting_joint_table)
    monkeypatch.setattr(inference, "joint_table", counting_joint_table)
    report = strength_ranking(net, target, control="A1Q1_PhotoSharing")
    connected = [v for v in net.variables
                 if v != target and analysis._d_connected_unconditionally(net, v, target)]
    assert len(report.entries) == len(connected) + 1
    assert tables == [(v, target) for v in connected]

    tables.clear()
    conditional_profile(net, target, "Empathy")
    assert tables == [("Empathy", target)]


# --- Bayes factor -------------------------------------------------------------------

def test_bf_thresholds_match_published_values():
    assert bf_threshold_posterior(0.1, math.sqrt(10)) == pytest.approx(0.2601, abs=1e-3)
    assert bf_threshold_posterior(0.1, 10.0) == pytest.approx(0.5263, abs=1e-3)


def test_bf_no_update_is_one():
    assert bayes_factor(0.37, 0.37) == pytest.approx(1.0, abs=1e-12)


def test_bf_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            bayes_factor(bad, 0.5)
        with pytest.raises(DomainError):
            bayes_factor(0.5, bad)
        with pytest.raises(DomainError):
            bf_threshold_posterior(bad, 2.0)
    with pytest.raises(DomainError):
        bf_threshold_posterior(0.5, 0.0)


@given(st.floats(0.01, 0.9), st.floats(0.01, 100.0))
@settings(max_examples=200, deadline=None)
def test_bf_round_trip_bijection(prior_p, bf):
    # cancellation in (1 - posterior) caps the attainable precision when the
    # posterior approaches 1, hence the relative (not absolute) tolerance
    assert bayes_factor(prior_p, bf_threshold_posterior(prior_p, bf)) == \
        pytest.approx(bf, rel=1e-10)


def test_bf_round_trip_tight_in_paper_regime():
    for bf in (math.sqrt(10.0), 10.0, 2.0, 0.5):
        assert bayes_factor(0.1, bf_threshold_posterior(0.1, bf)) == \
            pytest.approx(bf, rel=1e-12)


# --- multifactor search ---------------------------------------------------------------

def test_multifactor_chain_k1():
    net = chain_network()
    result = multifactor_search(net, "B", "1", ["A"], [1])
    entry = result.entry(1)
    assert entry.max_posterior == pytest.approx(0.9, abs=1e-12)
    assert entry.argmax == ((("A", "1"),),)
    assert entry.evaluated == 2
    assert entry.skipped == 0


def test_multifactor_matches_oracle_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(8):
        net = random_network(rng, max_vars=7, max_states=3, allow_zeros=True)
        oracle = JointOracle(net)
        target = net.variables[-1]
        pool = list(net.variables[:-1])[:5]
        t_state = net.spec(target).states[0]
        ks = [k for k in (1, 2, 3) if k <= len(pool)]
        result = multifactor_search(net, target, t_state, pool, ks)
        for k in ks:
            best, evaluated, skipped = None, 0, 0
            for combo in itertools.combinations(pool, k):
                for states in itertools.product(*(net.spec(v).states for v in combo)):
                    ev = dict(zip(combo, states))
                    vec = oracle.posterior(target, ev)
                    if vec is None:
                        skipped += 1
                        continue
                    evaluated += 1
                    p = vec[net.state_index(target, t_state)]
                    if best is None or p > best:
                        best = p
            entry = result.entry(k)
            assert entry.evaluated == evaluated
            assert entry.skipped == skipped
            if best is None:
                assert entry.max_posterior is None
            else:
                # independent float paths agree to solver precision
                assert entry.max_posterior == pytest.approx(best, abs=1e-12)
                for assignment in entry.argmax:
                    vec = oracle.posterior(target, dict(assignment))
                    p = vec[net.state_index(target, t_state)]
                    assert p == pytest.approx(best, abs=1e-12)


def predicted_roots(net, target, pool, k_values):
    """Number of eliminations the root rule asks for: one, unless the whole
    pool's table would have more cells than the largest CPT."""
    cells = net.cardinality(target) * math.prod(net.cardinality(v) for v in pool)
    if cells > max(cpt.rows.size for cpt in net.cpts.values()):
        return math.comb(len(pool), max(k_values))
    return 1


def fan_in_network(rng, n_roots, n_parents):
    """Binary roots X0..X(n-1) and a binary target T whose parents are the
    first ``n_parents`` of them; random CPT rows."""
    names = [f"X{i}" for i in range(n_roots)]
    schema = [VariableSpec(n, ("0", "1")) for n in names + ["T"]]
    dag = DagStructure(tuple(names) + ("T",), tuple((n, "T") for n in names[:n_parents]))
    cpts = [Cpt(n, (), rng.dirichlet([1, 1])[None, :]) for n in names]
    cpts.append(Cpt("T", tuple(names[:n_parents]), rng.dirichlet([1, 1], 2 ** n_parents)))
    return build_network(schema, dag, cpts)


def check_subset_tables(monkeypatch, net, target, pool, k_values):
    """Every subset's table and posterior match per-subset elimination at
    1e-12, each subset comes once, and the eliminations are the predicted
    roots; returns the number of eliminations."""
    t_state = net.spec(target).states[0]
    t_idx = net.state_index(target, t_state)
    eliminations = []

    def counting_joint_table(network, variables):
        eliminations.append(tuple(variables))
        return joint_table(network, variables)

    monkeypatch.setattr(analysis, "joint_table", counting_joint_table)
    seen = []
    for subset, table, post in analysis._subset_tables(
            net, target, t_state, pool, k_values, DEFAULT_MAX_EVALS):
        seen.append(subset)
        reference = joint_table(net, list(subset) + [target])
        np.testing.assert_allclose(table, reference, rtol=0, atol=1e-12)
        denom = reference.sum(axis=-1)
        with np.errstate(invalid="ignore"):
            expected = np.where(denom > 0, reference[..., t_idx] / denom, -1.0)
        np.testing.assert_allclose(post, expected, rtol=0, atol=1e-12)
    assert sorted(seen) == sorted(itertools.chain.from_iterable(
        itertools.combinations(sorted(pool, key=net.index), k) for k in k_values))
    assert len(eliminations) == predicted_roots(net, target, pool, k_values)
    return len(eliminations)


@pytest.mark.parametrize("seed", [55, 56, 58])
def test_subset_tables_match_per_subset_elimination(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_vars=6, max_states=3, allow_zeros=True)
    target = net.variables[-1]
    pool = list(net.variables[:-1])
    for k_values in ([1, 2, 3], [2], [1, 3]):
        check_subset_tables(monkeypatch, net, target, pool, k_values)


@pytest.mark.parametrize("n_parents, k_values, roots", [
    (2, [1, 2], math.comb(14, 2)),    # whole-pool table past the largest CPT
    (14, [1, 2], 1),                  # one elimination of the whole pool
    (14, [1, 13], 1),                 # one root even where k reaches the pool's size less one
])
def test_subset_tables_root_rule_branches(monkeypatch, n_parents, k_values, roots):
    net = fan_in_network(np.random.default_rng(n_parents), 14, n_parents)
    pool = [f"X{i}" for i in range(14)]
    assert check_subset_tables(monkeypatch, net, "T", pool, k_values) == roots


def test_multifactor_profiling_pool_k1_to_10_in_bounded_memory():
    # the whole-pool root is 145,800 doubles; the descent holds one
    # root-to-leaf path of tables, under twice the root, plus one subset's
    # posteriors
    net = fit_cpts(default_schema().network_variables, default_dag(),
                   simulate_dataset(100_000, 0))
    target = "Previous_CB_Offending"
    pool = [v.name for v in net.schema
            if v.kind in ("demographic", "psychological", "outcome") and v.name != target]
    root_bytes = 8 * net.cardinality(target) * math.prod(net.cardinality(v) for v in pool)
    assert root_bytes == 8 * 145_800
    tracemalloc.start()
    try:
        result = multifactor_search(net, target, "Yes", pool, range(1, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.k for e in result.entries] == list(range(1, 11))
    assert peak <= 4 * root_bytes


@pytest.mark.parametrize("k_values", [[1], [1, 2], [1, 3], [1, 2, 3]])
def test_multifactor_ties_across_subsets_keep_enumeration_order(k_values):
    # U and V share one CPT, so U=b and V=b tie exactly; W never reaches 0.6
    schema = [VariableSpec("T", ("0", "1")), VariableSpec("U", ("a", "b")),
              VariableSpec("V", ("a", "b")), VariableSpec("W", ("x", "y", "z"))]
    dag = DagStructure(("T", "U", "V", "W"), (("T", "U"), ("T", "V"), ("T", "W")))
    shared = [[0.6, 0.4], [0.4, 0.6]]
    cpts = [Cpt("T", (), [[0.5, 0.5]]), Cpt("U", ("T",), shared), Cpt("V", ("T",), shared),
            Cpt("W", ("T",), [[0.3, 0.3, 0.4], [0.3, 0.35, 0.35]])]
    net = build_network(schema, dag, cpts)
    entry = multifactor_search(net, "T", "1", ["U", "V", "W"], k_values).entry(1)
    assert entry.argmax == ((("U", "b"),), (("V", "b"),))
    assert entry.max_posterior == 0.6


def test_multifactor_independent_pool_equals_marginal():
    schema = [VariableSpec("T", ("0", "1")), VariableSpec("U", ("0", "1")),
              VariableSpec("V", ("0", "1", "2"))]
    dag = DagStructure(("T", "U", "V"), ())
    cpts = [Cpt("T", (), [[0.35, 0.65]]), Cpt("U", (), [[0.5, 0.5]]),
            Cpt("V", (), [[0.2, 0.3, 0.5]])]
    net = build_network(schema, dag, cpts)
    result = multifactor_search(net, "T", "1", ["U", "V"], [1, 2])
    for entry in result.entries:
        assert entry.max_posterior == pytest.approx(0.65, abs=1e-12)


def test_multifactor_counts_impossible_combos():
    # V2 deterministically equals V1, so half the 2-var combos are impossible
    schema = [VariableSpec("T", ("0", "1")), VariableSpec("V1", ("0", "1")),
              VariableSpec("V2", ("0", "1"))]
    dag = DagStructure(("T", "V1", "V2"), (("V1", "V2"),))
    cpts = [Cpt("T", (), [[0.5, 0.5]]), Cpt("V1", (), [[0.5, 0.5]]),
            Cpt("V2", ("V1",), [[1.0, 0.0], [0.0, 1.0]])]
    net = build_network(schema, dag, cpts)
    entry = multifactor_search(net, "T", "1", ["V1", "V2"], [2]).entry(2)
    assert entry.skipped == 2
    assert entry.evaluated == 2


def test_multifactor_pool_too_large():
    rng = np.random.default_rng(60)
    net = random_network(rng, max_vars=8, max_states=4)
    target = net.variables[-1]
    pool = list(net.variables[:-1])
    with pytest.raises(PoolTooLarge) as exc:
        multifactor_search(net, target, net.spec(target).states[0], pool,
                           range(1, len(pool) + 1), max_evals=10)
    assert exc.value.estimated > 10


def test_estimate_evaluations_elementary_symmetric():
    # pools of cardinalities 2 and 3: k=1 -> 5, k=2 -> 6
    assert estimate_evaluations([2, 3], [1]) == 5
    assert estimate_evaluations([2, 3], [2]) == 6
    assert estimate_evaluations([2, 3], [1, 2]) == 11


def test_multifactor_determinism():
    rng = np.random.default_rng(91)
    net = random_network(rng, max_vars=6, max_states=3)
    target = net.variables[0]
    pool = [v for v in net.variables if v != target][:4]
    t_state = net.spec(target).states[-1]
    a = multifactor_search(net, target, t_state, pool, [1, 2])
    b = multifactor_search(net, target, t_state, pool, [1, 2])
    assert a == b


# --- risk profiles ----------------------------------------------------------------------

def test_risk_profiles_threshold_zero_includes_all_feasible():
    net = chain_network()
    rp = risk_profiles(net, "B", "1", ["A"], 1, 0.0)
    assert len(rp.profiles) == 2
    assert rp.frequency == ((("A", "0"), 1), (("A", "1"), 1))


def test_risk_profiles_threshold_one_empty_on_noisy_net():
    net = chain_network()
    rp = risk_profiles(net, "B", "1", ["A"], 1, 1.0)
    assert rp.profiles == ()
    assert rp.frequency == ()


def test_risk_profiles_counts_sum_to_k_times_profiles():
    rng = np.random.default_rng(71)
    net = random_network(rng, max_vars=6, max_states=3)
    target = net.variables[-1]
    pool = list(net.variables[:-1])[:4]
    k = min(3, len(pool))
    rp = risk_profiles(net, target, net.spec(target).states[0], pool, k, 0.1)
    assert sum(c for _, c in rp.frequency) == k * len(rp.profiles)
    for profile in rp.profiles:
        assert len(profile.evidence) == k
        assert len({v for v, _ in profile.evidence}) == k
        assert profile.posterior >= 0.1


def test_risk_profiles_sorted_by_posterior():
    rng = np.random.default_rng(72)
    net = random_network(rng, max_vars=5, max_states=3)
    target = net.variables[-1]
    pool = list(net.variables[:-1])
    rp = risk_profiles(net, target, net.spec(target).states[0], pool, 2, 0.0)
    posts = [p.posterior for p in rp.profiles]
    assert posts == sorted(posts, reverse=True)


def test_risk_profiles_threshold_domain():
    net = chain_network()
    with pytest.raises(DomainError):
        risk_profiles(net, "B", "1", ["A"], 1, 1.5)


# --- spearman ------------------------------------------------------------------------------

def test_spearman_identical_is_one():
    r = spearman([0.1, 0.5, 0.9, 0.2], [0.1, 0.5, 0.9, 0.2])
    assert r.rho == 1.0
    assert r.exact_extreme


def test_spearman_reversed_is_minus_one():
    r = spearman([1, 2, 3, 4], [4, 3, 2, 1])
    assert r.rho == -1.0
    assert r.p_value == 0.0


def test_spearman_classic_d2_value():
    r = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
    assert r.rho == pytest.approx(0.8, abs=1e-12)
    # two-sided t approximation with 3 degrees of freedom
    t = 0.8 * math.sqrt(3 / (1 - 0.64))
    from scipy import stats as sps
    assert r.p_value == pytest.approx(2 * sps.t.sf(t, 3), rel=1e-12)


def test_spearman_average_ranks_for_ties():
    # d2 formula with average ranks, checked by hand
    r = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    ra = np.array([1.5, 1.5, 3.0])
    rb = np.array([1.0, 2.0, 3.0])
    expected = np.corrcoef(ra, rb)[0, 1]
    assert r.rho == pytest.approx(expected, abs=1e-12)


def test_student_t_tail_matches_scipy():
    from scipy import stats as sps
    grid = np.concatenate([np.linspace(0.0, 10.0, 41), np.linspace(10.0, 100.0, 19)[1:]])
    for df in range(1, 301):
        reference = 2 * sps.t.sf(grid, df)
        for t, ref in zip(grid, reference):
            if ref > 1e-300:
                assert _student_t_two_sided(float(t), df) == pytest.approx(ref, rel=1e-10), (t, df)


@pytest.mark.parametrize("t", [1e-8, 1e-4, 0.5, 3.0, 1e3, 1e8])
def test_student_t_tail_closed_forms(t):
    # df = 1 (Cauchy) and df = 2 have closed forms, written without
    # cancellation; they also cover tiny |t|, where scipy's own df = 1 tail
    # loses digits.
    s = math.sqrt(2.0 + t * t)
    assert _student_t_two_sided(t, 1) == pytest.approx(2 / math.pi * math.atan(1 / t), rel=1e-13)
    assert _student_t_two_sided(t, 2) == pytest.approx(2 / (s * (s + t)), rel=1e-13)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_scipy(xs):
    from scipy import stats as sps
    assert np.array_equal(_average_ranks(np.array(xs, dtype=np.float64)), sps.rankdata(xs))


@pytest.mark.parametrize("n", [3, 10, 100, 1000])
@pytest.mark.parametrize("sign", [1, -1])
def test_spearman_near_extreme_rho_has_finite_p(n, sign):
    a = np.arange(n, dtype=np.float64)
    b = a.copy()
    b[[-2, -1]] = b[[-1, -2]]
    r = spearman(a, sign * b)
    assert abs(r.rho) < 1.0 and not r.exact_extreme
    assert 0.0 <= r.p_value <= 1.0


@pytest.mark.parametrize("df", [1, 10, 1000])
def test_student_t_tail_at_rho_next_to_one(df):
    rho = math.nextafter(1.0, 0.0)
    assert 0.0 <= _student_t_two_sided(rho * math.sqrt(df / (1.0 - rho * rho)), df) <= 1.0


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(DomainError):
        spearman([1], [2])
    with pytest.raises(DomainError):
        spearman([1, 1, 1], [1, 2, 3])


def test_spearman_symmetric():
    a, b = [3.0, 1.0, 2.0, 5.0], [2.0, 2.5, 0.5, 4.0]
    assert spearman(a, b).rho == pytest.approx(spearman(b, a).rho, abs=1e-15)


@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=12, unique=True),
       st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_spearman_invariant_under_monotone_transform(xs, scale):
    ys = list(reversed(sorted(xs)))
    base = spearman(xs, ys)
    transformed = spearman([scale * x + 7 for x in xs], ys)
    assert transformed.rho == pytest.approx(base.rho, abs=1e-12)
    cubed = spearman([x ** 3 for x in xs], ys)
    assert cubed.rho == pytest.approx(base.rho, abs=1e-12)
