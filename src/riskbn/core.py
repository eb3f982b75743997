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
from typing import Iterable, Iterator, Mapping, Sequence

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
            raise _unknown(name) from None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise _unknown(name) from None

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


def _unknown(name: str) -> UnknownVariable:
    return UnknownVariable(f"'{name}' is not a network variable")


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
    variables splits it into parts that sum back to the whole. It is built
    in place, in one int64 array of the states' broadcast shape.
    """
    index = np.zeros(np.broadcast_shapes(*map(np.shape, states)), dtype=np.int64)
    for state, card in zip(states, cards):
        index *= card
        index += state
    return index


def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of a 2-D array, and each row's
    position among the distinct rows. Rows are compared by their bytes, so
    ``-0.0`` and ``0.0`` are different rows."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def topological_order(network: Network) -> tuple[str, ...]:
    """Parents before children; deterministic (declaration-order tie-break)."""
    return network._topo


# --- model file format -------------------------------------------------------

_BLOCK_ROWS = 4096  # CPT rows render_model encodes, and the parser reads, at once


def _json_lines(items: Sequence[str], indent: int) -> str:
    """Already-encoded ``items`` inside brackets, one item per line."""
    if not items:
        return "[]"
    pad = " " * indent
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def serialize_model(network: Network) -> str:
    """Render a network as the JSON model format (bit-exact probabilities):
    the pieces of :func:`render_model` joined."""
    return "".join(render_model(network))


def render_model(network: Network) -> Iterator[str]:
    """The text of :func:`serialize_model` in pieces, so that a writer of
    the pieces holds at most ``_BLOCK_ROWS`` CPT rows as text at a time.

    One variable, edge or CPT row per line. Every value goes through the C
    JSON encoder; ``json.dumps`` with ``indent`` would run the pure-Python one.
    """
    encode = json.JSONEncoder().encode
    variables = [encode({"name": v.name, "states": list(v.states), "kind": v.kind})
                 for v in network.schema]
    edges = [encode([p, c]) for p, c in network.dag.edges]
    yield ("{\n"
           f'  "variables": {_json_lines(variables, 4)},\n'
           f'  "edges": {_json_lines(edges, 4)},\n'
           '  "cpts": {')
    for i, name in enumerate(network.variables):
        cpt = network.cpts[name]
        yield (f"{',' if i else ''}\n    {encode(name)}: {{\n"
               f'      "parents": {encode(list(cpt.parents))},\n'
               '      "rows": [')
        for lo in range(0, len(cpt.rows), _BLOCK_ROWS):
            block = cpt.rows[lo:lo + _BLOCK_ROWS]
            yield f"{',' if lo else ''}\n        " + _encode_rows(encode, block)
        yield "\n      ]\n    }"
    yield "\n  }\n}\n" if network.variables else "}\n}\n"


def _encode_rows(encode, rows: np.ndarray) -> str:
    """``rows`` as JSON arrays, one per line; each distinct row is encoded
    once. The texts are locals, so none outlives the call."""
    first, inverse = unique_rows(rows)
    # rows hold numbers only, so "], [" occurs only between two rows
    texts = encode(rows[first].tolist())[2:-2].split("], [")
    return "[" + "],\n        [".join([texts[i] for i in inverse.tolist()]) + "]"


def parse_model(text: str) -> Network:
    """Parse the JSON model format back into a validated :class:`Network`."""
    return build_network(*parse_model_parts(text))


_JSON_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|[\[\]{}]')
_WS = re.compile(r"[ \t\n\r]*")
# a string, its closing quote (absent if it runs to the end) and, after a
# key, the colon
_STRING = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)(")?([ \t\n\r]*:)?', re.DOTALL)


def _syntax_error(text: str, message: str, at: int) -> ModelSyntaxError:
    """``message`` at offset ``at`` of ``text``, with ``json``'s line and column."""
    return ModelSyntaxError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


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
    return _syntax_error(text, message, at)


def parse_model_parts(
    text: str,
) -> tuple[tuple[VariableSpec, ...], DagStructure, dict[str, Cpt]]:
    """Parse a model document into (schema, dag, cpts).

    CPTs may be absent or partial: callers that only need structure (e.g.
    ``fit`` with a schema/DAG override) use the parts directly.

    Each CPT's rows are read from the text a block at a time, each distinct
    row text of a block decoded once (see :func:`_cut_tables`); one
    ``json.loads`` reads the rest, with those tables cut out. Whatever the
    reader leaves in the text, ``json`` reads, so what is accepted, and each
    error with its line and column, is as if ``json`` read it all.
    """
    rest, tables, cuts = _cut_tables(text)
    try:
        doc = json.loads(rest)
    except json.JSONDecodeError as exc:
        at = exc.pos + sum(cut for end, cut in cuts if end <= exc.pos)
        raise _syntax_error(text, exc.msg, at) from None
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
        rows = tables.pop(name, None)  # so that the Cpt's copy is the array's only lasting one
        if rows is None:  # the reader left it in the text: not a table of numbers
            rows = entry["rows"]
            if isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows):
                raise ModelSyntaxError(f"rows of '{name}' are not numeric")
            raise ModelSyntaxError(f"rows of '{name}' must be a non-empty array of arrays")
        cpt_map[name] = Cpt(name, tuple(parents), rows)
    return schema, dag, cpt_map


def _cut_tables(text: str) -> tuple[str, dict[str, np.ndarray], list[tuple[int, int]]]:
    """Read each ``cpts -> <name> -> rows`` table of a model document that
    :func:`_read_table` can, and cut it from the text.

    Returns the text with each table read cut to ``[]``; the arrays read, by
    variable name; and for each cut, the end of its ``[]`` in the returned
    text and the characters it removed. The scan visits the strings only,
    and counts the brackets between them for the depth. Keys compare by
    their decoded value. Each name keeps the table, if any, after its last
    ``"rows"`` key: where ``json`` keeps the last of duplicate keys, that is
    the table it keeps, and the entries it drops are never looked up. The
    scan stops at a string ``json`` would refuse, before which ``json``
    stops too.
    """
    tables: dict[str, np.ndarray] = {}
    pieces: list[str] = []
    cuts: list[tuple[int, int]] = []
    section = name = None  # the last key at depths 1 and 2
    depth = pos = kept = shift = 0
    for match in _STRING.finditer(text):
        at = match.start()
        depth += (text.count("{", pos, at) + text.count("[", pos, at)
                  - text.count("}", pos, at) - text.count("]", pos, at))
        pos = match.end()
        if match.group(2) is None:  # unterminated
            break
        if match.group(3) is None or not 1 <= depth <= 3:  # not a key, or too deep to matter
            continue
        key = match.group(1)
        if "\\" in key:
            try:
                key = json.loads(f'"{key}"')
            except ValueError:
                break
        if depth == 1:
            section = key
        elif depth == 2:
            name = key
        elif section == "cpts" and key == "rows":
            tables.pop(name, None)  # json keeps the last rows of the last entry
            read = _read_table(text, pos)
            if read is not None:
                tables[name], start, pos = read
                pieces += (text[kept:start], "[]")
                kept = pos
                shift += pos - start - 2
                cuts.append((pos - shift, pos - start - 2))
    if not pieces:
        return text, tables, cuts
    pieces.append(text[kept:])
    return "".join(pieces), tables, cuts


def _read_table(text: str, at: int) -> tuple[np.ndarray, int, int] | None:
    """The value at ``text[at:]`` as a float64 array, with its start and end
    in ``text``, if it is a non-empty table of equal-width rows of JSON
    numbers that ``json`` reads as floats; otherwise None.

    Such a table holds no ``"``, so it ends before the next one, and Python
    never walks its text. It is read a block of about ``_BLOCK_ROWS`` rows
    at a time (see :func:`_read_rows`), so one block's rows at a time are
    held as text.
    """
    start = _WS.match(text, at).end()
    quote = text.find('"', start)
    # in a document json reads, only "}", "," and white space come between
    # the table and the next string
    end = text.rfind("]", start, len(text) if quote < 0 else quote)  # the table's "]"
    lo = _WS.match(text, start + 1).end()  # the first row's "["
    if not text.startswith("[", start) or not lo < end or text[lo] != "[":
        return None
    n_rows = text.count("[", lo, end)
    block = -(-(end - lo) * _BLOCK_ROWS // n_rows)  # characters of about _BLOCK_ROWS rows
    out = None
    done = 0
    repeats = True  # until a block of the table holds no repeated row
    while lo < end:
        hi = text.find("[", lo + block, end)
        if hi < 0:
            hi = end
        read = _read_rows(text[lo + 1:hi] + ("," if hi == end else ""), repeats)
        if read is None or (out is not None and read[0].shape[1] != out.shape[1]):
            return None
        rows, repeats = read
        if len(rows) == n_rows:  # the whole table in one block
            return rows, start, end + 1
        if out is None:
            out = np.empty((n_rows, rows.shape[1]))
        out[done:done + len(rows)] = rows
        done += len(rows)
        lo = hi
    return out, start, end + 1


def _read_rows(block: str, repeats: bool) -> tuple[np.ndarray, bool] | None:
    """The rows of a block of a table, each ``<numbers>]`` then a ``,``
    between white space, as a float64 array, and whether any row text
    repeats; None if ``json`` would not read them as rows of numbers of one
    width. With ``repeats``, each distinct row text is decoded once, by one
    ``json.loads``; without, the block is decoded whole.
    """
    texts, inverse = [block], slice(None)
    if repeats:
        rows = block.split("[")
        texts = list(dict.fromkeys(rows))
        repeats = len(texts) < len(rows)
        if repeats:
            ids = dict(zip(texts, range(len(texts))))
            inverse = np.fromiter(map(ids.__getitem__, rows), np.intp, len(rows))
    comma = texts[-1].rfind(",")
    if comma < 0 or not _WS.fullmatch(texts[-1], comma + 1):
        return None
    texts[-1] = texts[-1][:comma]
    rows_text = "[[" + "[".join(texts) + "]"
    # true and null hold a "u", false an "l", and no number either
    if "u" in rows_text or "l" in rows_text or "{" in rows_text:
        return None
    try:
        values = json.loads(rows_text)
    except (ValueError, RecursionError):  # json refuses it, or cannot say where
        return None
    # with every "[" opening a row, the rows hold numbers only
    if len(values) != rows_text.count("[") - 1 or set(map(type, values)) != {list}:
        return None
    widths = set(map(len, values))
    if len(widths) != 1:
        return None
    width = widths.pop()
    try:
        decoded = np.fromiter(chain.from_iterable(values), np.float64,
                              len(values) * width).reshape(len(values), width)
    except OverflowError:  # an integer past float64
        return None
    return decoded[inverse], repeats
