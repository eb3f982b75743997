"""Shared test fixtures: hand-built networks, a random-network generator, an
independent full-joint enumeration oracle, a brute-force topological-order
oracle, the fill-in-graph elimination-order oracle, per-row dataset CSV
oracles and a model parse through ``json`` alone.

The joint oracle builds the complete joint tensor directly from CPT lookups
over index grids; it shares no code with the variable-elimination engine, so
agreement between the two is a real cross-check. The CSV oracles read and
write one row at a time, cell by cell, the plainest reading of the format;
the reader splits its records one character at a time.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

import riskbn
from riskbn.core import Cpt, DagStructure, Network, VariableSpec, _json_limit_error, build_network
from riskbn.data import MISSING_TOKENS, Dataset, Schema
from riskbn.errors import IllegalState, MalformedCsv, ModelSyntaxError, RaggedRow, UnknownColumn

_RT_MAX = 2**31 - 1


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child interpreter that imports this riskbn."""
    paths = [str(Path(riskbn.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **extra)


def chain_network() -> Network:
    """A -> B with P(A=1)=0.3, P(B=1|A=0)=0.2, P(B=1|A=1)=0.9."""
    schema = [VariableSpec("A", ("0", "1")), VariableSpec("B", ("0", "1"))]
    dag = DagStructure(("A", "B"), (("A", "B"),))
    cpts = [
        Cpt("A", (), [[0.7, 0.3]]),
        Cpt("B", ("A",), [[0.8, 0.2], [0.1, 0.9]]),
    ]
    return build_network(schema, dag, cpts)


def copy_network(n_states: int = 2) -> Network:
    """S -> T where T deterministically copies S; S uniform."""
    states = tuple(f"s{i}" for i in range(n_states))
    schema = [VariableSpec("S", states), VariableSpec("T", states)]
    dag = DagStructure(("S", "T"), (("S", "T"),))
    cpts = [
        Cpt("S", (), [[1.0 / n_states] * n_states]),
        Cpt("T", ("S",), np.eye(n_states)),
    ]
    return build_network(schema, dag, cpts)


def random_network(rng: np.random.Generator, max_vars: int = 10,
                   max_states: int = 4, allow_zeros: bool = False) -> Network:
    n_vars = int(rng.integers(3, max_vars + 1))
    names = [f"V{i}" for i in range(n_vars)]
    cards = rng.integers(2, max_states + 1, size=n_vars)
    schema = [
        VariableSpec(names[i], tuple(f"s{j}" for j in range(cards[i])))
        for i in range(n_vars)
    ]
    edges = []
    for j in range(1, n_vars):
        k = int(rng.integers(0, min(j, 3) + 1))
        parents = rng.choice(j, size=k, replace=False)
        for p in sorted(parents):
            edges.append((names[p], names[j]))
    dag = DagStructure(tuple(names), tuple(edges))

    parent_map = {c: [] for c in names}
    for p, c in edges:
        parent_map[c].append(p)
    cpts = []
    for j, name in enumerate(names):
        n_rows = int(np.prod([cards[names.index(p)] for p in parent_map[name]])) \
            if parent_map[name] else 1
        rows = rng.dirichlet(np.full(cards[j], 0.8), size=n_rows)
        if allow_zeros and rng.random() < 0.5:
            for r in range(n_rows):
                if rng.random() < 0.3 and cards[j] > 2:
                    rows[r, int(rng.integers(cards[j]))] = 0.0
                    rows[r] /= rows[r].sum()
        cpts.append(Cpt(name, tuple(parent_map[name]), rows))
    return build_network(schema, dag, cpts)


def uniform_network(names: Sequence[str], dag: DagStructure) -> Network:
    """Binary variables declared in ``names`` order over ``dag``, with every
    CPT row uniform."""
    position = {n: i for i, n in enumerate(names)}
    cpts = []
    for name in names:
        parents = tuple(sorted(dag.parents_of(name), key=position.__getitem__))
        cpts.append(Cpt(name, parents, np.full((2 ** len(parents), 2), 0.5)))
    return build_network([VariableSpec(n, ("0", "1")) for n in names], dag, cpts)


def topological_order_oracle(nodes: Sequence[str],
                             edges: Sequence[tuple[str, str]]) -> tuple[str, ...]:
    """Repeatedly place the earliest of ``nodes`` whose parents are all
    placed; the result falls short of ``nodes`` when the rest lie on or
    behind a cycle."""
    placed: list[str] = []
    while True:
        ready = [n for n in nodes if n not in placed
                 and all(p in placed for p, c in edges if c == n)]
        if not ready:
            return tuple(placed)
        placed.append(ready[0])


def elimination_order_oracle(network: Network, factors: Sequence[tuple],
                             eliminate: set[str]) -> list[str]:
    """Greedy min-degree order over the factor interaction graph."""
    neighbors: dict[str, set[str]] = {v: set() for v in eliminate}
    for scope in (set(s) for s, _ in factors):
        for v in scope & eliminate:
            neighbors[v] |= scope - {v}
    order: list[str] = []
    remaining = set(eliminate)
    while remaining:
        v = min(remaining,
                key=lambda x: (len(neighbors[x] & remaining) + len(neighbors[x] - eliminate),
                               network.index(x)))
        order.append(v)
        remaining.remove(v)
        clique = neighbors[v]
        for u in clique & remaining:
            neighbors[u] |= clique - {u}
    return order


def shuffle_schema(rng: np.random.Generator, network: Network) -> Network:
    """The same distribution with its variables declared in a random order,
    so some children may come before their parents. Each CPT's parents and
    rows are reordered to the new canonical order."""
    names = [network.variables[i] for i in rng.permutation(len(network.variables))]
    position = {v: i for i, v in enumerate(names)}
    cpts = []
    for name in names:
        cpt = network.cpts[name]
        parents = tuple(sorted(cpt.parents, key=position.__getitem__))
        shape = [network.cardinality(v) for v in cpt.parents + (name,)]
        axes = [cpt.parents.index(p) for p in parents] + [len(parents)]
        rows = cpt.rows.reshape(shape).transpose(axes).reshape(-1, network.cardinality(name))
        cpts.append(Cpt(name, parents, rows))
    dag = DagStructure(tuple(names), network.dag.edges)
    return build_network([network.spec(v) for v in names], dag, cpts)


class JointOracle:
    """Brute-force joint tensor over every variable, for cross-checking."""

    def __init__(self, network: Network):
        self.network = network
        self.variables = network.variables
        self.axis = {v: i for i, v in enumerate(self.variables)}
        cards = [network.cardinality(v) for v in self.variables]
        grids = np.indices(cards, dtype=np.int32)
        joint = np.ones(cards)
        for name in self.variables:
            parents = network.parents(name)
            row = np.zeros(cards, dtype=np.int64)
            stride = 1
            for p in reversed(parents):
                row += grids[self.axis[p]] * stride
                stride *= network.cardinality(p)
            joint = joint * network.cpts[name].rows[row, grids[self.axis[name]]]
        self.joint = joint

    def _slice(self, evidence: dict[str, str]):
        idx = [slice(None)] * len(self.variables)
        for name, state in evidence.items():
            idx[self.axis[name]] = self.network.state_index(name, state)
        return self.joint[tuple(idx)]

    def evidence_probability(self, evidence: dict[str, str]) -> float:
        return float(self._slice(evidence).sum())

    def posterior(self, target: str, evidence: dict[str, str]) -> np.ndarray | None:
        """Normalized conditional, or None when the evidence is impossible."""
        sub = self._slice(evidence)
        remaining = [v for v in self.variables if v not in evidence]
        t_axis = remaining.index(target)
        other = tuple(i for i in range(len(remaining)) if i != t_axis)
        vector = sub.sum(axis=other) if other else sub
        total = vector.sum()
        if total <= 0:
            return None
        return vector / total

    def joint_probability(self, assignment: dict[str, str]) -> float:
        return float(self._slice(assignment))


def random_evidence(rng: np.random.Generator, network: Network,
                    exclude: tuple[str, ...] = (), max_vars: int = 3) -> dict[str, str]:
    pool = [v for v in network.variables if v not in exclude]
    k = int(rng.integers(0, min(len(pool), max_vars) + 1))
    chosen = rng.choice(len(pool), size=k, replace=False)
    out = {}
    for i in chosen:
        spec = network.spec(pool[i])
        out[pool[i]] = spec.states[int(rng.integers(spec.cardinality))]
    return out


_FIELD_LIMIT = 131_072  # bytes


def split_csv(text: str) -> list[list[str]]:
    """The records of CSV ``text``, each the list of its cells' text, read
    one character at a time. A ``"`` toggles quoting; commas and line ends
    (``\\r\\n``, ``\\n`` or a bare ``\\r``) outside quotes end fields and
    records; a quoted field loses its quotes, and ``""`` inside it is one
    ``"``; a blank line is a record of no cells. MalformedCsv names the line
    of the first (by offset) of: a field of more than ``_FIELD_LIMIT`` bytes
    (at its start); an opening quote not at a field's start, or a closing
    one followed by anything but a comma, a line end or a quote; a quote
    still open at the end (at the last opening quote not after a quote)."""
    errors = []  # (offset, rank, message)
    records: list[list[str]] = []
    row: list[str] = []
    start, quotes, opener, i = 0, 0, 0, 0

    def field(end: int) -> str:
        raw = text[start:end]
        if len(raw.encode("utf-8", "surrogatepass")) > _FIELD_LIMIT:
            errors.append((start, 0, f"field larger than field limit ({_FIELD_LIMIT})"))
        return raw[1:-1].replace('""', '"') if raw.startswith('"') else raw

    while i < len(text):
        c = text[i]
        if c == '"':
            if quotes % 2 == 0:
                if i and text[i - 1] not in ',\r\n"':
                    errors.append((i, 1, "a quote inside an unquoted field"))
                if not i or text[i - 1] != '"':
                    opener = i
            elif i + 1 < len(text) and text[i + 1] not in ',\r\n"':
                errors.append((i, 1, "text after a closing quote"))
            quotes += 1
        elif quotes % 2 == 0 and c in ",\r\n":
            row.append(field(i))
            if c != ",":
                records.append(row if len(row) > 1 or start < i else [])
                row = []
                i += text.startswith("\r\n", i)
            start = i + 1
        i += 1
    if quotes % 2:
        errors.append((opener, 2, "a quoted field still open at the end of the input"))
    if row or start < len(text):  # the last record has no line end
        row.append(field(len(text)))
        records.append(row)
    if errors:
        at, _, message = min(errors)
        line = 1 + len(re.findall(r"\r\n?|\n", text[:at]))
        raise MalformedCsv(f"line {line}: {message}")
    return records


def load_dataset_per_row(text: str, schema: Schema) -> Dataset:
    """Per-row, per-cell reading of the dataset CSV format; an oracle for
    ``riskbn.data.load_dataset``, which must agree on every value and error."""
    rows = split_csv(text)
    if not rows or not rows[0]:  # an empty file, or a blank first line
        raise RaggedRow(0, 1, 0)
    header = [h.strip() for h in rows.pop(0)]

    spec_by_name = {v.name: v for v in schema.variables}
    rt_allowed = set(schema.response_time_columns)
    for name in header:
        if name in spec_by_name or name in rt_allowed:
            continue
        raise UnknownColumn(f"column '{name}' is not declared in the schema")
    if len(set(header)) != len(header):
        raise UnknownColumn("duplicate column names in header")

    n = len(rows)
    cat_cols = {name: np.full(n, -1, dtype=np.int16)
                for name in header if name in spec_by_name}
    rt_cols = {name: np.full(n, -1, dtype=np.int32)
               for name in header if name in rt_allowed}

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise RaggedRow(i + 1, len(header), len(row))
        for name, cell in zip(header, row):
            cell = cell.strip()
            if cell in MISSING_TOKENS:
                continue
            if name in cat_cols:
                spec = spec_by_name[name]
                if cell not in spec.states:
                    raise IllegalState(cell, i + 1, name)
                cat_cols[name][i] = spec.states.index(cell)
            else:
                try:
                    value = int(cell)
                except ValueError:
                    raise IllegalState(cell, i + 1, name) from None
                if not 0 <= value <= _RT_MAX:
                    raise IllegalState(cell, i + 1, name)
                rt_cols[name][i] = value
    return Dataset(schema, n, cat_cols, rt_cols, "ingest")


def save_dataset_per_row(dataset: Dataset) -> str:
    """``csv.writer`` fed one row at a time; the reference output of
    ``riskbn.data.save_dataset``."""
    header: list[str] = []
    for v in dataset.schema.variables:
        if v.name in dataset.columns:
            header.append(v.name)
    for name in dataset.schema.response_time_columns:
        if name in dataset.response_times:
            header.append(name)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    spec_by_name = {v.name: v for v in dataset.schema.variables}
    for i in range(dataset.n):
        row = []
        for name in header:
            if name in dataset.columns:
                code = dataset.columns[name][i]
                row.append("" if code < 0 else spec_by_name[name].states[code])
            else:
                value = dataset.response_times[name][i]
                row.append("" if value < 0 else str(int(value)))
        writer.writerow(row)
    return buf.getvalue()


def parse_model_parts_oracle(
    text: str,
) -> tuple[tuple[VariableSpec, ...], DagStructure, dict[str, Cpt]]:
    """The whole document through one ``json.loads``, whose object hook makes
    each ``"rows"`` table of numbers an array (see :func:`_rows_array`): the
    plainest reading of the model format, what ``parse_model_parts`` must
    match in every array bit and every error."""
    try:
        doc = json.loads(text, object_pairs_hook=_rows_array)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise _json_limit_error(text, too_deep=True) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise _json_limit_error(text, too_deep=False) from None
    if not isinstance(doc, dict):
        raise ModelSyntaxError("model document must be a JSON object")
    for key in ("variables", "edges"):
        if key not in doc:
            raise ModelSyntaxError(f"model document missing '{key}'")

    variables = doc["variables"]
    if not isinstance(variables, list):
        raise ModelSyntaxError("'variables' must be an array")
    schema = []
    for i, entry in enumerate(variables):
        if not isinstance(entry, dict) or "name" not in entry or "states" not in entry:
            raise ModelSyntaxError(f"variable entry {i} must carry 'name' and 'states'")
        if not isinstance(entry["name"], str):
            raise ModelSyntaxError(f"name of variable entry {i} must be a string")
        states = entry["states"]
        if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
            raise ModelSyntaxError(f"states of variable entry {i} must be an array of strings")
        kind = entry.get("kind", "demographic")
        if not isinstance(kind, str):
            raise ModelSyntaxError(f"kind of variable entry {i} must be a string")
        schema.append(VariableSpec(entry["name"], tuple(states), kind))
    schema = tuple(schema)

    edges = doc["edges"]
    if not isinstance(edges, list):
        raise ModelSyntaxError("'edges' must be an array")
    pairs = []
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise ModelSyntaxError(f"edge entry {i} must be a [parent, child] pair of names")
        pairs.append((e[0], e[1]))
    dag = DagStructure(tuple(v.name for v in schema), tuple(pairs))

    cpt_map: dict[str, Cpt] = {}
    raw_cpts = doc.get("cpts", {})
    if not isinstance(raw_cpts, dict):
        raise ModelSyntaxError("'cpts' must be an object keyed by variable name")
    known = {v.name for v in schema}
    for name, entry in raw_cpts.items():
        if name not in known:
            raise ModelSyntaxError(f"CPT given for unknown variable '{name}'")
        if not isinstance(entry, dict) or "rows" not in entry:
            raise ModelSyntaxError(f"CPT of '{name}' must carry 'rows'")
        parents = entry.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise ModelSyntaxError(f"parents of '{name}' must be an array of names")
        for p in parents:
            if p not in known:
                raise ModelSyntaxError(f"CPT of '{name}' references unknown parent '{p}'")
        rows = entry.pop("rows")  # so that the Cpt's copy is the array's only lasting one
        if not isinstance(rows, np.ndarray):  # _rows_array left it as it was
            if not _is_table(rows):
                raise ModelSyntaxError(f"rows of '{name}' must be a non-empty array of arrays")
            raise ModelSyntaxError(f"rows of '{name}' are not numeric")
        cpt_map[name] = Cpt(name, tuple(parents), rows)
    return schema, dag, cpt_map


def _is_table(rows) -> bool:
    return isinstance(rows, list) and bool(rows) and all(isinstance(r, list) for r in rows)


def _rows_array(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads``'s hook for each object: the object as a dict, with a
    ``"rows"`` table of equal-width rows of JSON numbers (no ``true`` or
    ``false``) made a float64 array. Any other ``"rows"`` value, and a
    ragged table or one with an integer past float64, is left for
    :func:`parse_model_parts` to refuse."""
    obj = dict(pairs)
    rows = obj.get("rows")
    if _is_table(rows) and len(set(map(len, rows))) == 1 \
            and set(map(type, chain.from_iterable(rows))) <= {int, float}:
        shape = (len(rows), len(rows[0]))
        try:
            obj["rows"] = np.fromiter(chain.from_iterable(rows), np.float64,
                                      shape[0] * shape[1]).reshape(shape)
        except OverflowError:  # an integer past float64
            pass
    return obj
