import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbn import inference
from riskbn.core import (
    Cpt,
    DagStructure,
    VariableSpec,
    build_network,
    serialize_model,
    topological_order,
)
from riskbn.data import default_dag, default_schema, simulate_dataset
from riskbn.errors import (
    DomainError,
    IncompleteAssignment,
    UnknownState,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from riskbn.inference import (
    ancestral_sample,
    evidence_probability,
    joint_probability,
    joint_table,
    marginal,
    posterior,
    sample_blocks,
)
from riskbn.learning import fit_cpts

from helpers import (
    JointOracle,
    chain_network,
    child_env,
    copy_network,
    elimination_order_oracle,
    random_evidence,
    random_network,
    shuffle_schema,
    uniform_network,
)


def single_node(p1=0.3):
    schema = [VariableSpec("A", ("0", "1"))]
    dag = DagStructure(("A",), ())
    return build_network(schema, dag, [Cpt("A", (), [[1 - p1, p1]])])


# --- joint probability ---------------------------------------------------------

def test_joint_chain():
    net = chain_network()
    assert joint_probability(net, {"A": "1", "B": "1"}) == pytest.approx(0.27, abs=1e-15)


def test_joint_zero_factor():
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [Cpt("A", (), [[0.5, 0.5]]), Cpt("B", ("A",), [[1.0, 0.0], [0.5, 0.5]])]
    net = build_network(schema, dag, cpts)
    assert joint_probability(net, {"A": "0", "B": "1"}) == 0.0


def test_joint_complement_single_node():
    assert joint_probability(single_node(), {"A": "0"}) == pytest.approx(0.7)


def test_joint_requires_complete_assignment():
    net = chain_network()
    with pytest.raises(IncompleteAssignment):
        joint_probability(net, {"A": "1"})
    with pytest.raises(UnknownState):
        joint_probability(net, {"A": "1", "B": "5"})


# --- posterior -----------------------------------------------------------------

def test_posterior_chain_hand_value():
    net = chain_network()
    dist = posterior(net, "A", {"B": "1"})
    assert dist.probabilities[1] == pytest.approx(0.27 / 0.41, abs=1e-12)


def test_posterior_empty_evidence_is_prior():
    dist = posterior(single_node(), "A", {})
    assert dist.probabilities == pytest.approx((0.7, 0.3))


def test_posterior_zero_probability_evidence():
    schema = [VariableSpec("A", ("0", "1", "2")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [Cpt("A", (), [[0.5, 0.5, 0.0]]),
            Cpt("B", ("A",), [[0.5, 0.5]] * 3)]
    net = build_network(schema, dag, cpts)
    with pytest.raises(ZeroProbabilityEvidence):
        posterior(net, "B", {"A": "2"})


def test_posterior_rejects_target_in_evidence():
    net = chain_network()
    with pytest.raises(DomainError):
        posterior(net, "B", {"B": "1"})


def test_joint_table_rejects_repeated_targets():
    with pytest.raises(DomainError):
        joint_table(chain_network(), ["A", "A"])


def test_posterior_unknown_variable():
    net = chain_network()
    with pytest.raises(UnknownVariable):
        posterior(net, "Z", {})
    with pytest.raises(UnknownVariable):
        posterior(net, "A", {"Z": "1"})


# --- marginal -------------------------------------------------------------------

def test_marginal_chain():
    net = chain_network()
    assert marginal(net, "B").probabilities[1] == pytest.approx(0.41, abs=1e-12)


def test_marginal_root_is_cpt_row():
    net = chain_network()
    assert marginal(net, "A").probabilities == pytest.approx((0.7, 0.3))


def test_marginal_copy_edge_matches_parent():
    net = copy_network(3)
    assert marginal(net, "T").probabilities == pytest.approx(
        marginal(net, "S").probabilities)


def test_marginal_equals_parent_mixture():
    # marginal(child) must equal the parent-config-weighted posterior mixture
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_network(rng, max_vars=5, max_states=3)
        leaf = net.variables[-1]
        parents = net.parents(leaf)
        if not parents:
            continue
        mix = np.zeros(net.cardinality(leaf))
        parent_table = joint_table(net, list(parents))
        it = np.ndindex(parent_table.shape)
        for idx in it:
            w = parent_table[idx]
            if w == 0:
                continue
            ev = {p: net.spec(p).states[i] for p, i in zip(parents, idx)}
            mix += w * np.asarray(posterior(net, leaf, ev).probabilities)
        assert mix == pytest.approx(marginal(net, leaf).probabilities, abs=1e-9)


# --- evidence probability ---------------------------------------------------------

def test_evidence_probability_empty():
    assert evidence_probability(chain_network(), {}) == 1.0


def test_evidence_probability_matches_marginal_and_joint():
    net = chain_network()
    assert evidence_probability(net, {"B": "1"}) == pytest.approx(0.41, abs=1e-12)
    assert evidence_probability(net, {"A": "1", "B": "1"}) == pytest.approx(0.27, abs=1e-12)


# --- oracle equivalence (also acceptance criterion 2) --------------------------------

def test_posterior_and_evidence_match_enumeration_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(100):
        net = random_network(rng, max_vars=8, max_states=4, allow_zeros=True)
        oracle = JointOracle(net)
        for _ in range(3):
            target = net.variables[int(rng.integers(len(net.variables)))]
            evidence = random_evidence(rng, net, exclude=(target,))
            p_oracle = oracle.evidence_probability(evidence)
            assert evidence_probability(net, evidence) == pytest.approx(
                p_oracle, abs=1e-9)
            expected = oracle.posterior(target, evidence)
            if expected is None:
                with pytest.raises(ZeroProbabilityEvidence):
                    posterior(net, target, evidence)
            else:
                got = posterior(net, target, evidence)
                assert np.asarray(got.probabilities) == pytest.approx(
                    expected, abs=1e-9)
                assert sum(got.probabilities) == pytest.approx(1.0, abs=1e-9)
            checked += 1
    assert checked == 300


def test_joint_table_with_evidence_matches_oracle():
    # the normalized table is the joint posterior over 0-3 targets, with
    # axes in the order given; a zero total means impossible evidence. Every
    # other network declares its variables in a shuffled order, so some
    # children precede their parents. Each table is the caller's own array.
    rng = np.random.default_rng(99)
    for i in range(40):
        net = random_network(rng, max_vars=6, max_states=3)
        if i % 2:
            net = shuffle_schema(rng, net)
        oracle = JointOracle(net)
        picks = rng.choice(len(net.variables), size=int(rng.integers(0, 4)), replace=False)
        targets = [net.variables[j] for j in picks]
        evidence = random_evidence(rng, net, exclude=tuple(targets))
        table = joint_table(net, targets, evidence)
        assert table.shape == tuple(net.cardinality(v) for v in targets)
        assert_own_array(table, net)
        total = table.sum()
        assert total == pytest.approx(oracle.evidence_probability(evidence), abs=1e-12)
        if total <= 0.0:
            assert oracle.evidence_probability(evidence) == 0.0
            continue
        sub = oracle._slice(evidence)
        remaining = [v for v in net.variables if v not in evidence]
        axes = tuple(i for i, v in enumerate(remaining) if v not in targets)
        expected = sub.sum(axis=axes)
        canonical = [v for v in remaining if v in targets]
        expected = np.transpose(expected, [canonical.index(v) for v in targets])
        expected = expected / expected.sum()
        assert table / total == pytest.approx(expected, abs=1e-9)
        reversed_table = joint_table(net, targets[::-1], evidence)
        assert reversed_table / total == pytest.approx(expected.T, abs=1e-9)
        root = next(v for v in net.variables if not net.parents(v))
        table = joint_table(net, [root])
        assert_own_array(table, net)
        assert table.tolist() == net.cpts[root].rows[0].tolist()


def assert_own_array(table: np.ndarray, net) -> None:
    assert table.flags.writeable
    assert not any(np.shares_memory(table, cpt.rows) for cpt in net.cpts.values())


def test_final_product_in_pairs_keeps_the_bits_of_one_einsum(monkeypatch):
    # the pairing rule only picks the cheaper of two products that round
    # alike, so forcing it either way gives the same tables bit for bit
    rng = np.random.default_rng(13)
    wide = []
    for _ in range(40):
        net = random_network(rng, max_vars=7, max_states=3)
        picks = rng.choice(len(net.variables), size=int(rng.integers(0, len(net.variables) + 1)),
                           replace=False)
        targets = [net.variables[j] for j in picks]
        evidence = random_evidence(rng, net, exclude=tuple(targets))
        tables = []
        for forced in (False, True):
            def rule(network, factors, targets, forced=forced):
                wide.append(len(factors) > 2)
                return forced
            monkeypatch.setattr(inference, "_pairs_read_less", rule)
            tables.append(joint_table(net, targets, evidence))
        assert np.array_equal(tables[0], tables[1])
    assert sum(wide) >= 20


def test_final_product_pairs_only_where_fewer_cells_are_read():
    net = fit_cpts(default_schema().network_variables, default_dag(), simulate_dataset(2000, 0))
    # the profiling variables and the target: eleven CPTs, 145,800 cells out
    names = [v.name for v in net.schema
             if v.kind in ("demographic", "psychological", "outcome")]
    factors = [inference._cpt_factor(net, v, {}) for v in names]
    assert inference._pairs_read_less(net, factors, names)
    # a complete record slices every CPT to one cell: one einsum of scalars
    record = {v: net.spec(v).states[0] for v in net.variables}
    scalars = [inference._cpt_factor(net, v, net.check_evidence(record)) for v in net.variables]
    assert not inference._pairs_read_less(net, scalars, [])


# --- wide models: more factors than one einsum call takes ------------------------

def star_network(n_children: int = 70, seed: int = 0):
    """Root R (3 states) with ``n_children`` binary children C0, C1, ..."""
    rng = np.random.default_rng(seed)
    children = [f"C{i}" for i in range(n_children)]
    schema = [VariableSpec("R", ("a", "b", "c"))] + [VariableSpec(c, ("0", "1")) for c in children]
    dag = DagStructure(("R", *children), tuple(("R", c) for c in children))
    cpts = [Cpt("R", (), [[0.5, 0.3, 0.2]])]
    for c in children:
        p = rng.uniform(0.05, 0.95, size=3)
        cpts.append(Cpt(c, ("R",), np.stack([1 - p, p], axis=1)))
    return build_network(schema, dag, cpts)


def test_star_with_every_child_observed_matches_the_closed_form(monkeypatch):
    net = star_network()
    children = net.variables[1:]
    evidence = {c: "01"[i % 2] for i, c in enumerate(children)}
    prior = net.cpts["R"].rows[0]
    likelihood = np.ones(3)
    for c in children:
        likelihood *= net.cpts[c].rows[:, net.state_index(c, evidence[c])]
    joint = prior * likelihood
    # numpy 2 takes at most 63 operands to one einsum call and numpy before
    # 2.0 at most 31; the 71 factors of this query must go in calls of 31
    einsum, widths = np.einsum, []

    def counting_einsum(*operands, **kwargs):
        widths.append(len(operands) // 2)
        return einsum(*operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    assert evidence_probability(net, evidence) == pytest.approx(joint.sum(), rel=1e-12, abs=0)
    dist = posterior(net, "R", evidence)
    assert dist.probabilities == pytest.approx(joint / joint.sum(), rel=1e-12, abs=0)
    assert max(widths) == 31


def test_long_chain_complete_record_matches_the_chain_rule():
    n = 100
    names = [f"X{i}" for i in range(n)]
    schema = [VariableSpec(v, ("0", "1")) for v in names]
    dag = DagStructure(tuple(names), tuple(zip(names, names[1:])))
    rng = np.random.default_rng(3)
    cpts = [Cpt(names[0], (), [[0.4, 0.6]])]
    for parent, child in zip(names, names[1:]):
        p = rng.uniform(0.05, 0.95, size=2)
        cpts.append(Cpt(child, (parent,), np.stack([1 - p, p], axis=1)))
    net = build_network(schema, dag, cpts)
    record = {v: "01"[int(b)] for v, b in zip(names, rng.integers(0, 2, size=n))}
    assert evidence_probability(net, record) == joint_probability(net, record)


def test_query_on_a_star_with_70_observed_children_exits_0(tmp_path, capsys):
    from riskbn.cli import main

    model = tmp_path / "star.json"
    model.write_text(serialize_model(star_network()))
    evidence = ",".join(f"C{i}=1" for i in range(70))
    assert main(["query", "--model", str(model), "--target", "R", "--evidence", evidence]) == 0
    assert "P(R=a | evidence) = " in capsys.readouterr().out


@pytest.mark.parametrize("width", [2, 3])
def test_fold_width_keeps_the_bits(monkeypatch, width):
    # each partial product keeps all of its variables, so folding the
    # factors in calls of any width multiplies every cell in the same order
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(40):
        net = random_network(rng, max_vars=8, max_states=3)
        picks = rng.choice(len(net.variables), size=int(rng.integers(0, 4)), replace=False)
        targets = [net.variables[j] for j in picks]
        cases.append((net, targets, random_evidence(rng, net, exclude=tuple(targets))))
    expected = [joint_table(*case) for case in cases]
    monkeypatch.setattr(inference._contract, "__defaults__", (width,))
    for case, table in zip(cases, expected):
        assert np.array_equal(joint_table(*case), table)


# --- elimination order -------------------------------------------------------------

def assert_fill_in_order(net, targets, evidence) -> None:
    """``joint_table`` eliminates in the order the fill-in-graph oracle
    plans, and each step's contraction sums out exactly that variable."""
    contract, eliminated = inference._contract, []

    def spy(factors, keep, *args):
        summed = {v for scope, _ in factors for v in scope} - set(keep)
        if len(summed) == 1:
            eliminated.extend(summed)
        return contract(factors, keep, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_contract", spy)
        joint_table(net, targets, evidence)
    evidence_idx = net.check_evidence(evidence)
    relevant = inference._relevant(net, list(targets) + list(evidence_idx))
    factors = [inference._cpt_factor(net, v, evidence_idx) for v in relevant]
    eliminate = set(relevant) - set(targets) - set(evidence_idx)
    assert eliminated == elimination_order_oracle(net, factors, eliminate)


@pytest.mark.parametrize("n", [3, 7, 60])
def test_elimination_order_on_chains(n):
    names = tuple(f"V{i}" for i in range(n))
    net = uniform_network(names, DagStructure(names, tuple(zip(names, names[1:]))))
    assert_fill_in_order(net, [names[-1]], {})
    assert_fill_in_order(net, [names[-1]], {names[0]: "1"})
    assert_fill_in_order(net, [names[0], names[-1]], {})
    assert_fill_in_order(net, [names[n // 2]], {names[-1]: "0"})
    assert_fill_in_order(net, [], {names[-1]: "1", names[n // 3]: "0"})


def test_elimination_order_on_stars():
    # edges out of the hub, then into it: there every parent ties on degree
    net = star_network(n_children=9)
    children = net.variables[1:]
    assert_fill_in_order(net, ["R"], {c: "1" for c in children[::2]})
    assert_fill_in_order(net, list(children[:2]), {c: "0" for c in children[3:]})
    names = tuple(f"P{i}" for i in range(8)) + ("H",)
    net = uniform_network(names, DagStructure(names, tuple((p, "H") for p in names[:-1])))
    assert_fill_in_order(net, ["H"], {})
    assert_fill_in_order(net, [names[3]], {"H": "1", names[5]: "0"})
    assert_fill_in_order(net, [], {"H": "0"})


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_elimination_order_on_random_networks(seed, shuffled):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_vars=12, max_states=4)
    if shuffled:
        net = shuffle_schema(rng, net)
    picks = rng.choice(len(net.variables), size=int(rng.integers(0, 4)), replace=False)
    targets = [net.variables[j] for j in picks]
    assert_fill_in_order(net, targets, random_evidence(rng, net, exclude=tuple(targets),
                                                       max_vars=5))


def test_elimination_order_on_the_default_dag():
    # the README query's evidence, every other variable as the target, and
    # the profiling pool's whole table
    net = fit_cpts(default_schema().network_variables, default_dag(), simulate_dataset(2000, 0))
    evidence = {"Previous_CB_Victimization": "Yes", "Empathy": "Low"}
    for target in net.variables:
        if target not in evidence:
            assert_fill_in_order(net, [target], evidence)
    target = "Previous_CB_Offending"
    pool = [v.name for v in net.schema
            if v.kind in ("demographic", "psychological", "outcome") and v.name != target]
    assert_fill_in_order(net, pool + [target], {})


_QUERY = """
import sys
from riskbn.core import parse_model
from riskbn.inference import evidence_probability, posterior
net = parse_model(open(sys.argv[1]).read())
evidence = {"Previous_CB_Victimization": "Yes", "Empathy": "Low"}
print(repr(posterior(net, "Previous_CB_Offending", evidence).probabilities))
print(repr(evidence_probability(net, evidence)))
"""


def test_query_bytes_do_not_depend_on_string_hash_seed(tmp_path):
    # factors are multiplied in canonical order, not set order, so the
    # last digits of a posterior repeat under any PYTHONHASHSEED
    specs = default_schema().network_variables
    model = tmp_path / "model.json"
    model.write_text(serialize_model(fit_cpts(specs, default_dag(), simulate_dataset(5000, 3))))
    outputs = set()
    for hash_seed in ("1", "2", "3", "5"):
        proc = subprocess.run([sys.executable, "-c", _QUERY, str(model)], capture_output=True,
                              text=True, env=child_env(PYTHONHASHSEED=hash_seed), timeout=120,
                              check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


# --- sampling --------------------------------------------------------------------

def test_sampling_deterministic():
    net = chain_network()
    a = ancestral_sample(net, 50, seed=7)
    b = ancestral_sample(net, 50, seed=7)
    assert np.array_equal(a.states, b.states)
    assert a.generator == b.generator
    assert a.seed == 7


def test_sampling_single_record_repeatable():
    net = chain_network()
    first = ancestral_sample(net, 1, seed=3).record(net, 0)
    again = ancestral_sample(net, 1, seed=3).record(net, 0)
    assert first == again


def test_sampling_deterministic_cpts_force_assignment():
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [Cpt("A", (), [[0.0, 1.0]]), Cpt("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])]
    net = build_network(schema, dag, cpts)
    batch = ancestral_sample(net, 200, seed=1)
    assert (batch.states == 1).all()


def test_sampling_law_of_large_numbers_small_net():
    net = chain_network()
    batch = ancestral_sample(net, 100_000, seed=11)
    freq_b1 = (batch.states[:, 1] == 1).mean()
    assert abs(freq_b1 - 0.41) < 0.01


def test_sampling_rejects_nonpositive_n():
    with pytest.raises(DomainError):
        ancestral_sample(chain_network(), 0, seed=1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_sampled_states_do_not_depend_on_the_block_size(seed, n, rows):
    net = random_network(np.random.default_rng(seed), max_vars=6)
    # record by record: each variable, in topological order, draws its n
    # doubles in one call, and a record takes the first state whose
    # cumulative probability exceeds its double
    rng = np.random.default_rng(seed)
    whole = np.zeros((n, len(net.variables)), dtype=np.int16)
    col = {v: j for j, v in enumerate(net.variables)}
    for name in topological_order(net):
        u = rng.random(n)
        parents = net.parents(name)
        for i in range(n):
            row = 0
            for p in parents:
                row = row * net.cardinality(p) + int(whole[i, col[p]])
            cdf = np.cumsum(net.cpts[name].rows[row])
            cdf[-1] = 1.0
            whole[i, col[name]] = int((u[i] >= cdf).sum())
    blocks = list(sample_blocks(net, n, seed, rows))
    assert [len(b) for b in blocks] == [min(rows, n - a) for a in range(0, n, rows)]
    assert np.array_equal(np.concatenate(blocks), whole)
    assert np.array_equal(ancestral_sample(net, n, seed).states, whole)


def test_sample_size_past_one_array_is_refused_before_any_draw():
    # numpy's own limit for an (n, #variables) int16 array; no block is drawn
    n = np.iinfo(np.intp).max // 4 + 1
    with pytest.raises(DomainError, match=f"sample size {n} is too large for one array"):
        sample_blocks(chain_network(), n, 0, 8192)
    assert next(sample_blocks(chain_network(), n - 1, 0, 2)).shape == (2, 2)


def test_sampling_stream_fixture_locked_to_generator_id():
    # reproducibility contract: this stream belongs to the recorded
    # generator id; changing the RNG or draw scheme must change the id
    batch = ancestral_sample(chain_network(), 6, seed=0)
    assert batch.generator == "numpy-pcg64-cdf"
    assert batch.states.tolist() == [[0, 0], [0, 0], [0, 0], [0, 1], [1, 1], [1, 0]]


def test_sampling_lln_all_marginals_default_generator():
    from riskbn.data import build_default_generator

    net = build_default_generator(0).network
    batch = ancestral_sample(net, 100_000, seed=24)
    for j, name in enumerate(net.variables):
        exact = np.asarray(marginal(net, name).probabilities)
        counts = np.bincount(batch.states[:, j], minlength=net.cardinality(name))
        assert np.abs(counts / len(batch) - exact).max() < 0.01
