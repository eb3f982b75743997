"""Discrete Bayesian-network representation: variables, DAG, CPTs.

A :class:`Network` is immutable after construction and is the single source
of truth for every query, learning and analysis operation in the package.

Conventions fixed here and relied on everywhere else:

* Canonical variable order is schema declaration order.
* Topological order places, at each step, the earliest-declared node whose
  parents are all placed. ``ancestral_sample``, and so the bytes
  ``simulate`` writes, depend on this order.
* A node's CPT parents are listed in canonical order.
* CPT rows enumerate parent configurations in row-major order with the
  LAST parent's state index varying fastest.
* Probabilities are double precision; every CPT row must sum to 1 within
  ``ROW_SUM_TOL``.
"""

from __future__ import annotations

import heapq
import json
import re
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    MissingCpt,
    ModelSyntaxError,
    RowNotNormalized,
    ShapeMismatch,
    UnknownState,
    UnknownVariable,
)

ROW_SUM_TOL = 1e-9

VARIABLE_KINDS = ("demographic", "psychological", "game", "outcome", "meta")

#: Partial assignment of variables to state labels, used for conditioning.
Evidence = Mapping[str, str]


@dataclass(frozen=True)
class VariableSpec:
    """A categorical variable: name, ordered state labels and a kind tag."""

    name: str
    states: tuple[str, ...]
    kind: str = "demographic"

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.name:
            raise ShapeMismatch("variable name must be non-empty")
        if self.kind not in VARIABLE_KINDS:
            raise ShapeMismatch(f"unknown kind {self.kind!r} for variable '{self.name}'")
        if len(self.states) < 2:
            raise ShapeMismatch(f"variable '{self.name}' needs at least 2 states")
        if len(set(self.states)) != len(self.states):
            raise ShapeMismatch(f"duplicate state labels in variable '{self.name}'")

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise UnknownState(f"'{state}' is not a state of '{self.name}' "
                               f"(states: {', '.join(self.states)})") from None


@dataclass(frozen=True)
class DagStructure:
    """Directed acyclic graph over variable names.

    ``nodes`` keeps declaration order; ``edges`` are (parent, child) pairs.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    _parents: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple((p, c) for p, c in self.edges))
        parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        if len(parents) != len(self.nodes):
            raise ShapeMismatch("duplicate node names in DAG")
        seen = set()
        for parent, child in self.edges:
            if parent not in parents:
                raise UnknownVariable(f"edge references undeclared node '{parent}'")
            if child not in parents:
                raise UnknownVariable(f"edge references undeclared node '{child}'")
            if parent == child:
                raise ShapeMismatch(f"self-loop on '{parent}'")
            if (parent, child) in seen:
                raise ShapeMismatch(f"duplicate edge {parent} -> {child}")
            seen.add((parent, child))
            parents[child].append(parent)
        object.__setattr__(self, "_parents", {n: tuple(ps) for n, ps in parents.items()})
        _topological(self.nodes, self._parents)

    def parents_of(self, node: str) -> tuple[str, ...]:
        """``node``'s parents in edge order."""
        return self._parents.get(node, ())


def _topological(nodes: Sequence[str],
                 parents: Mapping[str, Sequence[str]]) -> tuple[str, ...]:
    """Kahn's algorithm: each step places the earliest-listed node whose
    parents are all placed. Raises CycleDetected, naming one cycle, when
    some nodes can never be placed."""
    position = {n: i for i, n in enumerate(nodes)}
    waiting = [len(parents[n]) for n in nodes]
    children: list[list[int]] = [[] for _ in nodes]
    for i, n in enumerate(nodes):
        for p in parents[n]:
            children[position[p]].append(i)
    ready = [i for i, w in enumerate(waiting) if not w]  # ascending, so already a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(nodes[i])
        for c in children[i]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    if len(order) < len(nodes):
        # each node left over waits on a parent left over too, so walking
        # such parent links from one of them must reach some node twice
        path: dict[str, int] = {}
        node = nodes[next(i for i, w in enumerate(waiting) if w)]
        while node not in path:
            path[node] = len(path)
            node = next(p for p in parents[node] if waiting[position[p]])
        raise CycleDetected([node] + list(path)[path[node] + 1:][::-1])
    return tuple(order)


class Cpt:
    """Conditional probability table for one variable.

    ``rows`` has one distribution over the variable's states per parent
    configuration; configurations are enumerated row-major with the last
    parent's state varying fastest.
    """

    __slots__ = ("variable", "parents", "rows")

    def __init__(self, variable: str, parents: Sequence[str], rows):
        self.variable = variable
        self.parents = tuple(parents)
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatch(f"CPT rows of '{variable}' must be a 2-D table")
        arr = arr.copy()
        arr.setflags(write=False)
        self.rows = arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cpt)
            and self.variable == other.variable
            and self.parents == other.parents
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows)
        )

    def __repr__(self) -> str:
        return f"Cpt({self.variable!r}, parents={self.parents!r}, rows={self.rows.shape})"


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over one variable's states, canonical order."""

    variable: str
    states: tuple[str, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if len(self.states) != len(self.probabilities):
            raise ShapeMismatch(f"distribution over '{self.variable}' has mismatched lengths")
        total = sum(self.probabilities)
        if not abs(total - 1.0) <= ROW_SUM_TOL:  # also rejects NaN
            raise RowNotNormalized(self.variable, 0, total)
        if not all(-ROW_SUM_TOL <= p <= 1 + ROW_SUM_TOL for p in self.probabilities):
            raise ShapeMismatch(f"distribution over '{self.variable}' has entries outside [0, 1]")

    def __getitem__(self, state: str) -> float:
        try:
            return self.probabilities[self.states.index(state)]
        except ValueError:
            raise UnknownState(f"'{state}' is not a state of '{self.variable}'") from None


class Network:
    """Validated immutable Bayesian network; build via :func:`build_network`."""

    __slots__ = ("schema", "dag", "cpts", "_index", "_spec", "_parents", "_children", "_topo")

    def __init__(self, schema: Sequence[VariableSpec], dag: DagStructure,
                 cpts: Mapping[str, Cpt]):
        self.schema = tuple(schema)
        self.dag = dag
        self.cpts = dict(cpts)
        self._index = {v.name: i for i, v in enumerate(self.schema)}
        self._spec = {v.name: v for v in self.schema}
        self._parents = {v.name: self.cpts[v.name].parents for v in self.schema}
        children: dict[str, list[str]] = {v.name: [] for v in self.schema}
        for p, c in dag.edges:
            children[p].append(c)
        self._children = {n: tuple(sorted(cs, key=self._index.__getitem__))
                          for n, cs in children.items()}
        self._topo = _topological(self.variables, self._parents)

    # -- lookups -------------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.schema)

    def spec(self, name: str) -> VariableSpec:
        try:
            return self._spec[name]
        except KeyError:
            raise UnknownVariable(f"'{name}' is not a network variable") from None

    def index(self, name: str) -> int:
        self.spec(name)
        return self._index[name]

    def cardinality(self, name: str) -> int:
        return self.spec(name).cardinality

    def parents(self, name: str) -> tuple[str, ...]:
        self.spec(name)
        return self._parents[name]

    def children(self, name: str) -> tuple[str, ...]:
        self.spec(name)
        return self._children[name]

    def state_index(self, name: str, state: str) -> int:
        return self.spec(name).state_index(state)

    def row_index(self, name: str, parent_states: Mapping[str, str]) -> int:
        """Row of ``name``'s CPT selected by a full parent assignment."""
        idx = 0
        for parent in self.parents(name):
            idx = idx * self.cardinality(parent) + self.state_index(parent, parent_states[parent])
        return idx

    def check_evidence(self, evidence: Evidence) -> dict[str, int]:
        """Validate an evidence mapping, returning {variable: state index}."""
        out: dict[str, int] = {}
        for name, state in evidence.items():
            out[name] = self.state_index(name, state)
        return out

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Network)
            and self.schema == other.schema
            and self.dag == other.dag
            and self.cpts == other.cpts
        )

    def __repr__(self) -> str:
        return f"Network({len(self.schema)} variables, {len(self.dag.edges)} edges)"


def build_network(schema: Sequence[VariableSpec], dag: DagStructure,
                  cpts: Iterable[Cpt] | Mapping[str, Cpt]) -> Network:
    """Validate and assemble a :class:`Network`.

    Checks: schema/DAG name agreement, one CPT per node, canonical parent
    order, row counts, normalization and entry bounds. Raises the relevant
    :mod:`riskbn.errors` class on the first violation found.
    """
    schema = tuple(schema)
    names = [v.name for v in schema]
    if len(set(names)) != len(names):
        raise ShapeMismatch("duplicate variable names in schema")
    for v in schema:
        if v.kind == "meta":
            raise ShapeMismatch(f"meta variable '{v.name}' cannot join the network")
    if set(dag.nodes) != set(names):
        missing = set(names) - set(dag.nodes)
        extra = set(dag.nodes) - set(names)
        raise ShapeMismatch(
            f"DAG nodes do not match schema (missing: {sorted(missing)}, extra: {sorted(extra)})"
        )

    if isinstance(cpts, Mapping):
        cpt_map = dict(cpts)
    else:
        cpt_map = {}
        for cpt in cpts:
            if cpt.variable in cpt_map:
                raise ShapeMismatch(f"two CPTs supplied for '{cpt.variable}'")
            cpt_map[cpt.variable] = cpt

    order = {n: i for i, n in enumerate(names)}
    spec_map = {v.name: v for v in schema}
    for name in names:
        cpt = cpt_map.get(name)
        if cpt is None:
            raise MissingCpt(f"no CPT for variable '{name}'")
        canonical = tuple(sorted(dag.parents_of(name), key=order.__getitem__))
        if cpt.parents != canonical:
            raise ShapeMismatch(
                f"CPT parents of '{name}' are {list(cpt.parents)}, "
                f"expected canonical order {list(canonical)}"
            )
        expected_rows = 1
        for p in canonical:
            expected_rows *= spec_map[p].cardinality
        rows = cpt.rows
        if rows.shape != (expected_rows, spec_map[name].cardinality):
            raise ShapeMismatch(
                f"CPT of '{name}' has shape {rows.shape}, "
                f"expected ({expected_rows}, {spec_map[name].cardinality})"
            )
        if not np.all((rows >= 0.0) & (rows <= 1.0)):  # also rejects NaN
            raise ShapeMismatch(f"CPT of '{name}' has entries outside [0, 1]")
        sums = rows.sum(axis=1)
        bad = np.nonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))[0]
        if bad.size:
            raise RowNotNormalized(name, int(bad[0]), float(sums[bad[0]]))
    extra_cpts = set(cpt_map) - set(names)
    if extra_cpts:
        raise ShapeMismatch(f"CPTs for unknown variables: {sorted(extra_cpts)}")

    return Network(schema, dag, cpt_map)


def config_index(states: Sequence, cards: Sequence[int]) -> np.ndarray:
    """Row-major index of a joint configuration, last variable fastest.

    Over a node's parents this is its CPT row; with the node itself
    appended, it is the flat (row, state) position in ``rows.ravel()``.
    ``states`` holds one integer array or scalar per variable, and they
    broadcast, so per-record and per-configuration parts may sit on
    different axes. The index is linear in the states: zeroing different
    variables splits it into parts that sum back to the whole.
    """
    index = np.zeros((), dtype=np.int64)
    for state, card in zip(states, cards):
        index = index * card + np.asarray(state, dtype=np.int64)
    return index


def topological_order(network: Network) -> tuple[str, ...]:
    """Parents before children; deterministic (declaration-order tie-break)."""
    return network._topo


# --- model file format -------------------------------------------------------

def _json_lines(items: Sequence[str], indent: int, brackets: str = "[]") -> str:
    """Already-encoded ``items`` inside ``brackets``, one item per line."""
    if not items:
        return brackets
    pad = " " * indent
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}{brackets[1]}"


def serialize_model(network: Network) -> str:
    """Render a network as the JSON model format (bit-exact probabilities).

    One variable, edge or CPT row per line. Every value goes through the C
    JSON encoder; ``json.dumps`` with ``indent`` would run the pure-Python one.
    """
    encode = json.JSONEncoder().encode
    variables = [encode({"name": v.name, "states": list(v.states), "kind": v.kind})
                 for v in network.schema]
    edges = [encode([p, c]) for p, c in network.dag.edges]
    cpts = []
    for name in network.variables:
        cpt = network.cpts[name]
        # rows hold numbers only, so "], [" occurs only between two rows
        rows = encode(cpt.rows.tolist())[1:-1].replace("], [", "]\n[").split("\n")
        cpts.append(f"{encode(name)}: {{\n"
                    f'      "parents": {encode(list(cpt.parents))},\n'
                    f'      "rows": {_json_lines(rows, 8)}\n'
                    "    }")
    return ("{\n"
            f'  "variables": {_json_lines(variables, 4)},\n'
            f'  "edges": {_json_lines(edges, 4)},\n'
            f'  "cpts": {_json_lines(cpts, 4, "{}")}\n'
            "}\n")


def parse_model(text: str) -> Network:
    """Parse the JSON model format back into a validated :class:`Network`."""
    return build_network(*parse_model_parts(text))


_JSON_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|[\[\]{}]')


def _json_limit_error(text: str, too_deep: bool) -> ModelSyntaxError:
    """Locate what ``json.loads`` refuses without a position: the deepest
    nesting (``too_deep``, past the recursion limit), else the first integer
    longer than ``sys.get_int_max_str_digits()``."""
    max_digits = sys.get_int_max_str_digits()
    depth, deepest, at = 0, 0, 0
    for match in _JSON_TOKENS.finditer(text):
        token = match.group()
        if token in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, at = depth, match.start()
        elif token in ("]", "}"):
            depth -= 1
        elif not too_deep and token.lstrip("-").isdigit() \
                and len(token.lstrip("-")) > max_digits:
            at = match.start()
            break
    message = (f"JSON nests {deepest} levels deep, too deep to parse" if too_deep
               else f"integer has more than {max_digits} digits")
    return ModelSyntaxError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def parse_model_parts(
    text: str,
) -> tuple[tuple[VariableSpec, ...], DagStructure, dict[str, Cpt]]:
    """Parse a model document into (schema, dag, cpts).

    CPTs may be absent or partial: callers that only need structure (e.g.
    ``fit`` with a schema/DAG override) use the parts directly.
    """
    try:
        doc = json.loads(text)
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
        rows = entry["rows"]
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(r, list) for r in rows)):
            raise ModelSyntaxError(f"rows of '{name}' must be a non-empty array of arrays")
        if not set(map(type, chain.from_iterable(rows))) <= {int, float}:  # JSON numbers only
            raise ModelSyntaxError(f"rows of '{name}' are not numeric")
        try:
            cpt_map[name] = Cpt(name, tuple(parents), rows)
        except (ValueError, TypeError, OverflowError):  # ragged, or an int past float64
            raise ModelSyntaxError(f"rows of '{name}' are not numeric") from None
    return schema, dag, cpt_map
