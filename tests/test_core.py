import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbn.core import (
    Cpt,
    DagStructure,
    Distribution,
    VariableSpec,
    build_network,
    config_index,
    parse_model,
    parse_model_parts,
    render_model,
    serialize_model,
    topological_order,
)
from riskbn.errors import (
    CycleDetected,
    MissingCpt,
    ModelSyntaxError,
    RiskbnError,
    RowNotNormalized,
    ShapeMismatch,
    UnknownState,
    UnknownVariable,
)

from helpers import chain_network, random_network, topological_order_oracle, uniform_network
from riskbn.data import build_default_generator


def test_chain_builds_and_validates():
    net = chain_network()
    assert net.variables == ("A", "B")
    assert net.parents("B") == ("A",)
    assert net.children("A") == ("B",)
    assert net.cpts["A"].rows[0, 1] == 0.3


def test_two_node_cycle_detected():
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    with pytest.raises(CycleDetected) as exc:
        DagStructure(("A", "B"), (("A", "B"), ("B", "A")))
    assert "A" in str(exc.value) and "B" in str(exc.value)


def test_longer_cycle_is_named():
    with pytest.raises(CycleDetected) as exc:
        DagStructure(("A", "B", "C"), (("A", "B"), ("B", "C"), ("C", "A")))
    message = str(exc.value)
    assert "->" in message


def test_row_not_normalized():
    schema = [VariableSpec("A", ("0", "1"))]
    dag = DagStructure(("A",), ())
    with pytest.raises(RowNotNormalized) as exc:
        build_network(schema, dag, [Cpt("A", (), [[0.5, 0.6]])])
    assert exc.value.variable == "A"
    assert exc.value.row == 0


def test_missing_cpt():
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    with pytest.raises(MissingCpt):
        build_network(schema, dag, [Cpt("A", (), [[0.5, 0.5]])])


def test_wrong_row_count_rejected():
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [Cpt("A", (), [[0.5, 0.5]]), Cpt("B", ("A",), [[0.5, 0.5]])]
    with pytest.raises(ShapeMismatch):
        build_network(schema, dag, cpts)


def test_non_canonical_parent_order_rejected():
    schema = [VariableSpec(n, ("0", "1")) for n in ("A", "B", "C")]
    dag = DagStructure(("A", "B", "C"), (("A", "C"), ("B", "C")))
    rows = [[0.5, 0.5]] * 4
    cpts = [Cpt("A", (), [[0.5, 0.5]]), Cpt("B", (), [[0.5, 0.5]]),
            Cpt("C", ("B", "A"), rows)]
    with pytest.raises(ShapeMismatch):
        build_network(schema, dag, cpts)


def test_self_loop_and_duplicate_edge():
    with pytest.raises(ShapeMismatch):
        DagStructure(("A",), (("A", "A"),))
    with pytest.raises(ShapeMismatch):
        DagStructure(("A", "B"), (("A", "B"), ("A", "B")))


def test_edge_references_unknown_node():
    with pytest.raises(UnknownVariable):
        DagStructure(("A",), (("A", "Z"),))


def test_network_index_is_declaration_order_and_refuses_unknown_names():
    net = chain_network()
    assert [net.index(v) for v in ("A", "B")] == [0, 1]
    with pytest.raises(UnknownVariable) as exc:
        net.index("Z")
    assert str(exc.value) == "'Z' is not a network variable"


def test_duplicate_states_rejected():
    with pytest.raises(ShapeMismatch):
        VariableSpec("A", ("x", "x"))


def test_single_state_rejected():
    with pytest.raises(ShapeMismatch):
        VariableSpec("A", ("only",))


def test_nan_probabilities_rejected():
    schema = [VariableSpec("A", ("0", "1"))]
    dag = DagStructure(("A",), ())
    with pytest.raises((ShapeMismatch, RowNotNormalized)):
        build_network(schema, dag, [Cpt("A", (), [[float("nan"), 0.5]])])
    with pytest.raises((ShapeMismatch, RowNotNormalized)):
        Distribution("A", ("0", "1"), (float("nan"), 0.5))
    # JSON accepts NaN literals; the network validator must still refuse them
    text = '{"variables": [{"name": "A", "states": ["0", "1"]}], "edges": [], ' \
           '"cpts": {"A": {"parents": [], "rows": [[NaN, 0.5]]}}}'
    with pytest.raises((ShapeMismatch, RowNotNormalized)):
        parse_model(text)


def test_network_is_immutable():
    net = chain_network()
    with pytest.raises(ValueError):
        net.cpts["A"].rows[0, 0] = 0.9


def test_distribution_validation():
    with pytest.raises(RowNotNormalized):
        Distribution("A", ("0", "1"), (0.5, 0.6))
    d = Distribution("A", ("0", "1"), (0.25, 0.75))
    assert d["1"] == 0.75
    with pytest.raises(UnknownState):
        d["nope"]


# --- topological order -------------------------------------------------------

def test_topological_chain():
    schema = [VariableSpec(n, ("0", "1")) for n in ("A", "B", "C")]
    dag = DagStructure(("A", "B", "C"), (("A", "B"), ("B", "C")))
    cpts = [Cpt("A", (), [[0.5, 0.5]]),
            Cpt("B", ("A",), [[0.5, 0.5]] * 2),
            Cpt("C", ("B",), [[0.5, 0.5]] * 2)]
    net = build_network(schema, dag, cpts)
    assert topological_order(net) == ("A", "B", "C")


def test_topological_declaration_tiebreak():
    schema = [VariableSpec("B", ("0", "1")), VariableSpec("A", ("0", "1"))]
    dag = DagStructure(("B", "A"), ())
    cpts = [Cpt("B", (), [[0.5, 0.5]]), Cpt("A", (), [[0.5, 0.5]])]
    net = build_network(schema, dag, cpts)
    assert topological_order(net) == ("B", "A")


def test_topological_collider_parents_first():
    schema = [VariableSpec(n, ("0", "1")) for n in ("A", "B", "C")]
    dag = DagStructure(("A", "B", "C"), (("A", "C"), ("B", "C")))
    cpts = [Cpt("A", (), [[0.5, 0.5]]), Cpt("B", (), [[0.5, 0.5]]),
            Cpt("C", ("A", "B"), [[0.5, 0.5]] * 4)]
    net = build_network(schema, dag, cpts)
    order = topological_order(net)
    assert order == ("A", "B", "C")
    assert set(order) == {"A", "B", "C"}


def test_topological_respects_every_edge_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        net = random_network(rng)
        order = topological_order(net)
        assert sorted(order) == sorted(net.variables)
        position = {v: i for i, v in enumerate(order)}
        for p, c in net.dag.edges:
            assert position[p] < position[c]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dag_names_a_cycle_or_orders_like_the_oracle(data):
    nodes = data.draw(st.lists(st.text("abc", min_size=1, max_size=2),
                               min_size=1, max_size=7, unique=True))
    pairs = [(p, c) for p in nodes for c in nodes if p != c]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    declared = data.draw(st.permutations(nodes))
    try:
        dag = DagStructure(tuple(nodes), tuple(edges))
    except CycleDetected as exc:
        cycle = exc.cycle
        assert len(topological_order_oracle(nodes, edges)) < len(nodes)
        assert len(set(cycle)) == len(cycle) >= 2
        assert all(pair in edges for pair in zip(cycle, cycle[1:] + cycle[:1]))
        return
    for node in nodes:
        assert dag.parents_of(node) == tuple(p for p, c in edges if c == node)
    net = uniform_network(declared, dag)
    assert topological_order(net) == topological_order_oracle(declared, edges)


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"V{i}" for i in range(n))


def test_5000_node_chain_builds_and_parses():
    names = _names(5000)
    net = uniform_network(names, DagStructure(names, tuple(zip(names, names[1:]))))
    assert topological_order(net) == names
    assert parse_model(serialize_model(net)) == net


def test_5000_node_cycle_is_named_in_full():
    names = _names(5000)
    with pytest.raises(CycleDetected) as exc:
        DagStructure(names, tuple(zip(names, names[1:] + names[:1])))
    assert exc.value.cycle == list(names)


# --- serialization -------------------------------------------------------------

def test_round_trip_chain():
    net = chain_network()
    assert parse_model(serialize_model(net)) == net


def test_round_trip_random_networks_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_network(rng)
        again = parse_model(serialize_model(net))
        assert again == net
        for name in net.variables:
            assert np.array_equal(again.cpts[name].rows, net.cpts[name].rows)


def test_serialize_is_stable():
    net = chain_network()
    assert serialize_model(net) == serialize_model(net)


def test_parse_missing_cpt():
    net = chain_network()
    doc = json.loads(serialize_model(net))
    del doc["cpts"]["B"]
    with pytest.raises(MissingCpt):
        parse_model(json.dumps(doc))


def test_parse_bad_json_has_position():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("{ not json")
    assert exc.value.line is not None


def test_parse_json_beyond_parser_limits_has_position():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("[" * 100_000 + "]" * 100_000)
    assert (exc.value.line, exc.value.column) == (1, 100_000)
    text = '{"variables": [{"name": "' + "1" * 5000 + '"}],\n "edges": ' + "2" * 4301 + "}"
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert (exc.value.line, exc.value.column) == (2, 11)


_KEYS = ["variables", "edges", "cpts", "name", "states", "kind", "parents", "rows", "A", "B"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=25)


@given(st.one_of(st.text(), _JSON_VALUES.map(json.dumps)))
@example("[" * 100_000 + "]" * 100_000)
@example('{"variables": [], "edges": [], "n": ' + "7" * 5000 + "}")
@example('{"variables": [{"name": 5, "states": ["a", "b"]}], "edges": []}')
@example('{"variables": [{"name": ' + "[" * 900 + "]" * 900 + ', "states": ["a", "b"]}], '
         '"edges": []}')
@settings(max_examples=300, deadline=None)
def test_parse_model_parses_or_raises_riskbn_error(text):
    try:
        parse_model(text)
    except RiskbnError:
        pass


_TWO_STATES = ["a", "b"]


@pytest.mark.parametrize("doc, message", [
    ({"variables": [{"name": 5, "states": _TWO_STATES}], "edges": []},
     "name of variable entry 0 must be a string"),
    ({"variables": [{"name": "A", "states": _TWO_STATES},
                    {"name": [[[["B"]]]], "states": _TWO_STATES}], "edges": []},
     "name of variable entry 1 must be a string"),
    ({"variables": [{"name": "A", "states": _TWO_STATES, "kind": 7}], "edges": []},
     "kind of variable entry 0 must be a string"),
    ({"variables": [{"name": "A", "states": _TWO_STATES}, {"name": "5", "states": _TWO_STATES}],
      "edges": [["A", "5"], ["A", 5]]},
     "edge entry 1 must be a [parent, child] pair of names"),
])
def test_parse_model_requires_string_names(doc, message):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model_parts(json.dumps(doc))
    assert str(exc.value) == message


def test_parse_model_deeply_nested_name_not_echoed():
    text = ('{"variables": [{"name": ' + "[" * 900 + "]" * 900
            + ', "states": ["a", "b"]}], "edges": []}')
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert "[" not in str(exc.value)


def test_serialize_model_never_runs_pure_python_encoder(monkeypatch):
    # json.dumps with indent, or any encoder given indent, builds its
    # iterator with json.encoder._make_iterencode; the C encoder does not.
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    net = build_default_generator(0).network
    assert parse_model(serialize_model(net)) == net


def test_serialize_model_one_cpt_row_per_line():
    net = build_default_generator(0).network
    lines = serialize_model(net).splitlines()
    for name in net.variables:
        start = lines.index('      "rows": [') + 1
        lines = lines[start:]
        rows = net.cpts[name].rows
        for line, row in zip(lines, rows):
            assert line.startswith("        [")
            assert json.loads(line.strip().rstrip(",")) == row.tolist()
        assert lines[len(rows)] == "      ]"


def _ints_for_whole_numbers(doc):
    """``doc`` with every CPT entry that is 0.0 or 1.0 written as 0 or 1."""
    for entry in doc["cpts"].values():
        if isinstance(entry["rows"], list):
            entry["rows"] = [[int(p) if type(p) is float and p in (0.0, 1.0) else p
                              for p in row] if isinstance(row, list) else row
                             for row in entry["rows"]]
    return doc


_LAYOUTS = {
    "indent": lambda doc, k: json.dumps(doc, indent=k),
    "compact": lambda doc, k: json.dumps(doc, separators=(",", ":")),
    "integers": lambda doc, k: json.dumps(_ints_for_whole_numbers(doc), indent=k),
}


def _same_bits(a, b) -> bool:
    return a == b and all(a.cpts[n].rows.tobytes() == b.cpts[n].rows.tobytes()
                          for n in a.variables)


def _parse_error(text):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    return str(exc.value)


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(_LAYOUTS)), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_any_layout_of_a_model_parses_to_the_same_bits(seed, layout, indent):
    rng = np.random.default_rng(seed)
    doc = json.loads(serialize_model(random_network(rng, allow_zeros=True)))
    name = doc["variables"][int(rng.integers(len(doc["variables"])))]["name"]
    rows = doc["cpts"][name]["rows"]
    rows[0] = [1.0] + [0.0] * (len(rows[0]) - 1)  # a deterministic row
    net = parse_model(json.dumps(doc))
    assert _same_bits(parse_model(serialize_model(net)), net)
    assert _same_bits(parse_model(_LAYOUTS[layout](copy.deepcopy(doc), indent)), net)

    # the rows a model may not hold keep their error, whatever the layout
    for bad, message in [
        ([[True] + r[1:] for r in rows], "are not numeric"),
        (rows + [rows[0] + [0.0]], "are not numeric"),  # ragged
        ([[[r[0]]] + r[1:] for r in rows], "are not numeric"),  # a nested row
        ([["0.5"] + r[1:] for r in rows], "are not numeric"),
        ([[None] + r[1:] for r in rows], "are not numeric"),
        ({"0": rows[0]}, "must be a non-empty array of arrays"),
        (rows[0], "must be a non-empty array of arrays"),
        ([], "must be a non-empty array of arrays"),
    ]:
        broken = copy.deepcopy(doc)
        broken["cpts"][name]["rows"] = bad
        assert _parse_error(_LAYOUTS[layout](broken, indent)) == f"rows of '{name}' {message}"


def test_an_integer_past_float64_in_rows_is_not_numeric():
    doc = json.loads(serialize_model(chain_network()))
    doc["cpts"]["B"]["rows"][1][0] = 10 ** 400
    assert _parse_error(json.dumps(doc)) == "rows of 'B' are not numeric"


def test_rows_outside_a_cpt_entry_are_ignored():
    # the hook that turns rows into arrays sees every object; only CPT entries count
    doc = json.loads(serialize_model(chain_network()))
    doc["rows"] = [[0.5, 0.5]]
    doc["variables"][0]["rows"] = [[True]]
    assert parse_model(json.dumps(doc)) == chain_network()


def _wide_network(n_children: int, card: int = 64):
    """Roots A and B of ``card`` states each, and ``n_children`` binary
    children of both: each child's CPT has card ** 2 rows."""
    states = tuple(map(str, range(card)))
    specs = [VariableSpec("A", states), VariableSpec("B", states)]
    specs += [VariableSpec(f"C{i}", ("0", "1")) for i in range(n_children)]
    edges = [(p, f"C{i}") for i in range(n_children) for p in ("A", "B")]
    uniform = np.full((1, card), 1 / card)
    cpts = [Cpt("A", (), uniform), Cpt("B", (), uniform)]
    rng = np.random.default_rng(n_children)
    for i in range(n_children):
        p = rng.random(card * card)
        cpts.append(Cpt(f"C{i}", ("A", "B"), np.stack([p, 1 - p], axis=1)))
    return build_network(specs, DagStructure([v.name for v in specs], edges), cpts)


def _traced(call) -> tuple[int, int]:
    """Peak and final traced bytes of ``call()``, its result still held."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 -- held, so its memory is in the final figure
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()


def test_model_parse_holds_one_cpt_of_number_lists_at_a_time():
    # above what the parsed CPTs themselves hold, a parse of eight equal CPTs
    # peaks like a parse of one; holding every CPT's JSON lists before
    # turning any into an array peaks near eight times as high
    def excess(n_children):
        text = serialize_model(_wide_network(n_children))
        peak, held = _traced(lambda: parse_model_parts(text))
        return peak - held
    assert excess(8) <= 1.2 * excess(1)


def test_model_renderer_holds_one_block_of_rows_at_a_time():
    small, large = _wide_network(1, 64), _wide_network(1, 128)  # 4,096 and 16,384 rows
    peak_small = _traced(lambda: sum(map(len, render_model(small))))[0]
    assert _traced(lambda: sum(map(len, render_model(large))))[0] <= 1.2 * peak_small


def test_negative_zero_keeps_its_text_through_a_round_trip():
    # -0.0 and 0.0 are equal floats but different bytes; rendering groups
    # rows by bytes, so each keeps its own text
    net = build_network(
        [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))],
        DagStructure(("A", "B"), (("A", "B"),)),
        [Cpt("A", (), [[0.5, 0.5]]), Cpt("B", ("A",), [[0.0, 1.0], [-0.0, 1.0]])])
    text = serialize_model(net)
    assert "[0.0, 1.0],\n        [-0.0, 1.0]" in text
    assert serialize_model(parse_model(text)) == text


def test_rows_that_are_all_distinct_render_each_as_its_own_json_text():
    net = _wide_network(1, 128)
    rows = net.cpts["C0"].rows
    assert len({row.tobytes() for row in rows}) == len(rows)
    body = ",\n        ".join(json.dumps(row) for row in rows.tolist())
    assert f'"rows": [\n        {body}\n      ]' in serialize_model(net)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
def test_serialized_model_is_its_rendered_pieces_in_any_block_size(monkeypatch, block_rows):
    nets = [build_default_generator(0).network, chain_network(), _wide_network(2, 7)]
    expected = [serialize_model(net) for net in nets]
    monkeypatch.setattr("riskbn.core._BLOCK_ROWS", block_rows)
    for net, text in zip(nets, expected):
        assert "".join(render_model(net)) == serialize_model(net) == text


def test_parse_unknown_cpt_variable():
    net = chain_network()
    doc = json.loads(serialize_model(net))
    doc["cpts"]["Z"] = {"parents": [], "rows": [[0.5, 0.5]]}
    with pytest.raises(ModelSyntaxError):
        parse_model(json.dumps(doc))


def test_parse_unknown_state_in_rows():
    net = chain_network()
    doc = json.loads(serialize_model(net))
    doc["cpts"]["B"]["rows"] = [[0.8, 0.2]]  # wrong row count for its parents
    with pytest.raises(ShapeMismatch):
        parse_model(json.dumps(doc))


def test_parse_model_parts_without_cpts():
    text = json.dumps({
        "variables": [{"name": "A", "states": ["x", "y"], "kind": "game"}],
        "edges": [],
    })
    schema, dag, cpts = parse_model_parts(text)
    assert schema[0].kind == "game"
    assert cpts == {}
    with pytest.raises(MissingCpt):
        parse_model(text)


def test_config_index_matches_row_index_and_splits_linearly():
    rng = np.random.default_rng(5)
    net = random_network(rng, max_vars=6, max_states=4)
    name = max(net.variables, key=lambda v: len(net.parents(v)))
    parents = net.parents(name)
    assert parents
    cards = [net.cardinality(p) for p in parents]
    states = [rng.integers(0, c, size=20) for c in cards]
    rows = config_index(states, cards)
    for i in range(20):
        assignment = {p: net.spec(p).states[states[k][i]] for k, p in enumerate(parents)}
        assert rows[i] == net.row_index(name, assignment)
    # zeroing disjoint variables splits the index into parts that sum back
    head = config_index([s if k % 2 else 0 for k, s in enumerate(states)], cards)
    tail = config_index([0 if k % 2 else s for k, s in enumerate(states)], cards)
    assert np.array_equal(head + tail, rows)
