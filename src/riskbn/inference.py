"""Exact probabilistic queries on a network.

Every query that eliminates (posteriors, marginals, joint tables and
evidence probabilities) goes through one entry point, ``_query_factor``:
variable elimination over the ancestor closure of the involved variables
(barren descendants contribute factors that sum to one and are skipped
outright). Elimination order is greedy min-degree on the factor interaction
graph with declaration-order tie-breaks, so every query is deterministic.

All query functions are pure over an immutable :class:`~riskbn.core.Network`
and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .core import Distribution, Evidence, Network, config_index
from .errors import (
    DomainError,
    IncompleteAssignment,
    ZeroProbabilityEvidence,
)

GENERATOR_ID = "numpy-pcg64-cdf"


# --- factors -----------------------------------------------------------------

@dataclass
class Factor:
    """Non-negative table over the Cartesian product of its scope's states.

    Scope is kept sorted in canonical (schema) order; ``values`` has one
    axis per scope variable, row-major to match the CPT convention.
    """

    scope: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise DomainError("factor scope has repeated variables")


def _cpt_factor(network: Network, name: str, evidence_idx: Mapping[str, int]) -> Factor:
    """Build the factor for ``name``'s CPT, sliced by any evidence."""
    cpt = network.cpts[name]
    axes_vars = list(cpt.parents) + [name]
    shape = tuple(network.cardinality(v) for v in axes_vars)
    values = cpt.rows.reshape(shape)

    order = np.argsort([network.index(v) for v in axes_vars], kind="stable")
    axes_vars = [axes_vars[i] for i in order]
    values = np.transpose(values, order)

    keep_vars: list[str] = []
    index: list = []
    for v in axes_vars:
        if v in evidence_idx:
            index.append(evidence_idx[v])
        else:
            keep_vars.append(v)
            index.append(slice(None))
    values = values[tuple(index)]
    return Factor(tuple(keep_vars), np.ascontiguousarray(values, dtype=np.float64))


def _align(factor: Factor, union: Sequence[str], cards: Mapping[str, int]) -> np.ndarray:
    """Reshape a factor's values for broadcasting over ``union`` (superset)."""
    scope = set(factor.scope)
    shape = tuple(cards[v] if v in scope else 1 for v in union)
    return factor.values.reshape(shape)


def _product(factors: Sequence[Factor], network: Network) -> Factor:
    if not factors:
        return Factor((), np.array(1.0))
    union = sorted({v for f in factors for v in f.scope}, key=network.index)
    cards = {v: network.cardinality(v) for v in union}
    out = np.array(1.0)
    for f in factors:
        out = out * _align(f, union, cards)
    return Factor(tuple(union), out)


def _sum_out(factor: Factor, name: str) -> Factor:
    axis = factor.scope.index(name)
    scope = factor.scope[:axis] + factor.scope[axis + 1:]
    return Factor(scope, factor.values.sum(axis=axis))


def ancestor_closure(parents: Callable[[Hashable], Iterable[Hashable]],
                     nodes: Iterable[Hashable]) -> set:
    """``nodes`` and all their ancestors under the ``parents`` map."""
    closure: set = set()
    stack = list(nodes)
    while stack:
        n = stack.pop()
        if n in closure:
            continue
        closure.add(n)
        stack.extend(parents(n))
    return closure


def _relevant(network: Network, names: Iterable[str]) -> list[str]:
    """Ancestor closure in canonical order, so factor products (and their
    rounding) do not depend on set iteration order."""
    return sorted(ancestor_closure(network.parents, names), key=network.index)


def _elimination_order(network: Network, factors: Sequence[Factor],
                       eliminate: set[str]) -> list[str]:
    """Greedy min-degree order over the factor interaction graph."""
    neighbors: dict[str, set[str]] = {v: set() for v in eliminate}
    scopes = [set(f.scope) for f in factors]
    for scope in scopes:
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


def _eliminate_all(network: Network, factors: list[Factor],
                   eliminate: set[str]) -> list[Factor]:
    for name in _elimination_order(network, factors, eliminate):
        touched = [f for f in factors if name in f.scope]
        if not touched:
            continue
        rest = [f for f in factors if name not in f.scope]
        factors = rest + [_sum_out(_product(touched, network), name)]
    return factors


def _query_factor(network: Network, targets: Sequence[str], evidence: Evidence) -> Factor:
    """Unnormalized joint P(targets, evidence) as a factor over ``targets``."""
    evidence_idx = network.check_evidence(evidence)
    if len(set(targets)) != len(targets):
        raise DomainError(f"query variables repeat: {list(targets)}")
    for t in targets:
        network.spec(t)
        if t in evidence_idx:
            raise DomainError(f"query variable '{t}' is also evidence")
    relevant = _relevant(network, list(targets) + list(evidence_idx))
    factors = [_cpt_factor(network, name, evidence_idx) for name in relevant]
    keep = set(targets)
    result = _eliminate_all(network, factors, set(relevant) - keep - set(evidence_idx))
    return _product(result, network)


# --- public queries ----------------------------------------------------------

def joint_probability(network: Network, full_assignment: Mapping[str, str]) -> float:
    """Chain-rule probability of one complete assignment."""
    missing = [v for v in network.variables if v not in full_assignment]
    if missing:
        raise IncompleteAssignment(f"assignment missing variables: {missing}")
    idx = network.check_evidence(full_assignment)
    prob = 1.0
    for name in network.variables:
        row = network.row_index(name, full_assignment)
        prob *= float(network.cpts[name].rows[row, idx[name]])
    return prob


def evidence_probability(network: Network, evidence: Evidence) -> float:
    """Exact P(evidence); 1.0 for empty evidence (an empty product)."""
    return float(_query_factor(network, (), evidence).values)


def posterior(network: Network, target: str, evidence: Evidence) -> Distribution:
    """Exact conditional distribution P(target | evidence).

    Raises :class:`ZeroProbabilityEvidence` when P(evidence) = 0, so that
    combination searches can tell impossible evidence from low risk.
    """
    factor = _query_factor(network, [target], evidence)
    values = factor.values
    total = float(values.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidence(
            f"evidence {dict(evidence)!r} has probability zero"
        )
    probs = values / total
    return Distribution(target, network.spec(target).states, tuple(float(p) for p in probs))


def marginal(network: Network, variable: str) -> Distribution:
    """Marginal distribution; identical to a posterior with empty evidence."""
    return posterior(network, variable, {})


def joint_table(network: Network, variables: Sequence[str],
                evidence: Evidence | None = None) -> np.ndarray:
    """Unnormalized joint P(variables, evidence) as an array.

    Axes follow ``variables`` in the order given (internally computed in
    canonical order, then transposed).
    """
    factor = _query_factor(network, variables, evidence or {})
    return np.transpose(factor.values, [factor.scope.index(v) for v in variables]).copy()


# --- sampling ----------------------------------------------------------------

@dataclass(frozen=True)
class SampleBatch:
    """Complete assignments drawn from a network, plus provenance.

    ``states`` is an (n, #variables) integer matrix of state indices in
    canonical variable order.
    """

    variables: tuple[str, ...]
    states: np.ndarray
    seed: int
    generator: str = GENERATOR_ID

    def __post_init__(self):
        self.states.setflags(write=False)

    def __len__(self) -> int:
        return self.states.shape[0]

    def record(self, network: Network, i: int) -> dict[str, str]:
        return {
            name: network.spec(name).states[self.states[i, j]]
            for j, name in enumerate(self.variables)
        }


def ancestral_sample(network: Network, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` complete assignments by forward sampling in topological order.

    Deterministic for a fixed (seed, n, network); the generator id is
    recorded so fixtures stay tied to this implementation's stream.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    variables = network.variables
    col = {v: i for i, v in enumerate(variables)}
    try:
        states = np.zeros((n, len(variables)), dtype=np.int16)
    except ValueError:  # numpy refuses the shape before allocating
        raise DomainError(f"sample size {n} is too large for one array") from None
    for name in network._topo:
        parents = network.parents(name)
        row_idx = config_index([states[:, col[p]] for p in parents],
                               [network.cardinality(p) for p in parents])
        probs = network.cpts[name].rows[np.broadcast_to(row_idx, (n,))]
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        u = rng.random(n)
        states[:, col[name]] = (u[:, None] >= cdf).sum(axis=1).astype(np.int16)
    return SampleBatch(variables, states, int(seed))
