"""Exact probabilistic queries on a network.

Every query that eliminates is a call of :func:`joint_table`: variable
elimination over the ancestor closure of the involved variables (barren
descendants contribute factors that sum to one and are skipped outright).
Each step chooses its variable from the scopes of the live factors: the one
with the fewest neighbours in them, declaration order breaking ties (greedy
min-degree), so every query is deterministic. A factor is a ``(scope,
values)`` pair; a CPT factor is a view of the CPT rows over (parents...,
child), sliced by the evidence, so no factor is transposed or copied before
it is contracted. Each step contracts the factors that mention the chosen
variable (``_contract``) into one over its neighbours; a last
contraction multiplies what is left into the targets' axes, in the order the
caller gave. :func:`joint_probability` is the chain rule, not an elimination.

``_contract`` is the only caller of ``np.einsum``, and it folds: numpy
refuses an einsum of 64 operands or more (32 or more before numpy 2.0), and
one step may touch any number of factors (a root with 70 observed children
touches 71). So the factors are multiplied left to right, at most 31 to a
call; each partial product keeps all of its variables, so every cell rounds
as in one einsum call. The last product folds two at a time where that reads
fewer cells than one wide call (``_pairs_read_less``).

All query functions are pure over an immutable :class:`~riskbn.core.Network`
and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import Distribution, Evidence, Network, config_index, topological_order
from .errors import (
    DomainError,
    IncompleteAssignment,
    ZeroProbabilityEvidence,
)

GENERATOR_ID = "numpy-pcg64-cdf"
_CHUNK_ROWS = 8192  # records ancestral_sample draws at once


# --- factors -----------------------------------------------------------------

# A factor: its scope, and a non-negative array with one axis per scope
# variable, in scope order.
_Factor = tuple[tuple[str, ...], np.ndarray]


def _cpt_factor(network: Network, name: str, evidence_idx: Mapping[str, int]) -> _Factor:
    """View of ``name``'s CPT over (parents..., name), sliced by any evidence."""
    cpt = network.cpts[name]
    axes_vars = cpt.parents + (name,)
    values = cpt.rows.reshape([network.cardinality(v) for v in axes_vars])
    index = tuple(evidence_idx.get(v, slice(None)) for v in axes_vars)
    return tuple(v for v in axes_vars if v not in evidence_idx), values[index]


def _contract(factors: Sequence[_Factor], keep: Sequence[str], width: int = 31) -> np.ndarray:
    """Sum over every variable not in ``keep`` of the product of ``factors``,
    with axes in ``keep``'s order, as a fresh array (never a view of a CPT).

    At most ``width`` factors go to one einsum call: the first ``width`` are
    replaced by their product over all of their variables until few enough
    are left. Labels are numbered per call, so numpy's 52-label limit bounds
    only one step's union scope, far past any table that fits in memory.
    """
    factors = list(factors)
    while len(factors) > width:
        head = factors[:width]
        scope = tuple(dict.fromkeys(v for s, _ in head for v in s))
        factors[:width] = [(scope, _contract(head, scope))]
    if not factors:
        return np.array(1.0)  # the empty product
    labels: dict[str, int] = {}
    sizes: dict[str, int] = {}
    operands: list = []
    for scope, values in factors:
        operands += [values, [labels.setdefault(v, len(labels)) for v in scope]]
        sizes.update(zip(scope, values.shape))
    out = np.empty([sizes[v] for v in keep])
    return np.einsum(*operands, [labels[v] for v in keep], out=out)


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


def _pairs_read_less(network: Network, factors: Sequence[_Factor],
                     targets: Sequence[str]) -> bool:
    """Whether multiplying ``factors`` two at a time, left to right, reads
    fewer cells than one einsum over all of them. A contraction reads one
    cell of each operand per output cell and writes that cell: one einsum
    costs n + 1 per cell of the targets' table, each pair three per cell of
    its product, the last pair three per cell of the targets' table. Wide
    tables of many factors pass; a scalar product of sliced CPTs does not."""
    out = math.prod(network.cardinality(v) for v in targets)
    if len(factors) < 3 or out <= 3:
        return False  # a product has at least one cell: pairs cost at least 3 each
    margin = (len(factors) - 2) * out
    sizes: dict[str, int] = {}
    for i, (scope, values) in enumerate(factors[:-1]):
        sizes.update(zip(scope, values.shape))
        if i:
            margin -= 3 * math.prod(sizes.values())
        if margin <= 0:
            break
    return margin > 0


# --- public queries ----------------------------------------------------------

def joint_table(network: Network, variables: Sequence[str],
                evidence: Evidence | None = None) -> np.ndarray:
    """Unnormalized joint P(variables, evidence) as an array; the one
    elimination, which posteriors, marginals and evidence probabilities call.

    Axes follow ``variables`` in the order given; the array is the caller's own.
    """
    evidence_idx = network.check_evidence(evidence or {})
    if len(set(variables)) != len(variables):
        raise DomainError(f"query variables repeat: {list(variables)}")
    for t in variables:
        network.spec(t)
        if t in evidence_idx:
            raise DomainError(f"query variable '{t}' is also evidence")
    relevant = _relevant(network, list(variables) + list(evidence_idx))
    factors = [_cpt_factor(network, name, evidence_idx) for name in relevant]
    eliminate = set(relevant) - set(variables) - set(evidence_idx)
    # each variable's neighbours in the live factors' scopes, itself included,
    # which adds one to every degree and so leaves the min-degree order as is
    neighbours: dict[str, set[str]] = {v: set() for v in relevant}
    for scope, _ in factors:
        for v in scope:
            neighbours[v].update(scope)
    while eliminate:
        name = min(eliminate, key=lambda v: (len(neighbours[v]), network.index(v)))
        eliminate.remove(name)
        touched = [f for f in factors if name in f[0]]
        factors = [f for f in factors if name not in f[0]]
        scope = tuple(sorted(neighbours.pop(name) - {name}, key=network.index))
        for v in scope:
            neighbours[v].update(scope)
            neighbours[v].discard(name)
        factors.append((scope, _contract(touched, scope)))
    # only the variables are left, so nothing is summed; folding two at a
    # time multiplies left to right as one einsum does, with the same bits
    if _pairs_read_less(network, factors, variables):
        return _contract(factors, variables, 2)
    return _contract(factors, variables)


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
    return float(joint_table(network, (), evidence))


def posterior(network: Network, target: str, evidence: Evidence) -> Distribution:
    """Exact conditional distribution P(target | evidence).

    Raises :class:`ZeroProbabilityEvidence` when P(evidence) = 0, so that
    combination searches can tell impossible evidence from low risk.
    """
    values = joint_table(network, [target], evidence)
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


def sample_blocks(network: Network, n: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    """The states of :func:`ancestral_sample`, ``rows`` records at a time:
    successive (at most ``rows``, #variables) int16 blocks, whatever ``rows``
    is. Refusals come before any block is drawn.

    ``ancestral_sample`` draws ``rng.random(n)`` per variable in topological
    order, so the variable at position j draws the (j·n + i)-th double of
    the PCG64 stream for record i. A block [a, b) moves the bit generator
    to j·n + a for each variable (``advance``) and draws b - a doubles:
    the same doubles, so every block holds the same states.
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if n * len(network.variables) * 2 > np.iinfo(np.intp).max:  # numpy's limit for (n, V) int16
        raise DomainError(f"sample size {n} is too large for one array")
    return _sample_blocks(network, n, seed, rows)


def _sample_blocks(network: Network, n: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    bits = np.random.PCG64(seed)  # what np.random.default_rng(seed) draws from
    start = bits.state
    rng = np.random.Generator(bits)
    col = {v: i for i, v in enumerate(network.variables)}
    order = [(col[name], [col[p] for p in network.parents(name)],
              [network.cardinality(p) for p in network.parents(name)], network.cpts[name].rows)
             for name in topological_order(network)]
    for a in range(0, n, rows):
        size = min(rows, n - a)
        states = np.zeros((size, len(col)), dtype=np.int16)
        bits.state = start
        bits.advance(a)
        for j, (c, parents, cards, cpt_rows) in enumerate(order):
            if j:
                bits.advance(n - size)  # from (j - 1)·n + a + size to j·n + a
            row_idx = config_index([states[:, p] for p in parents], cards)
            probs = cpt_rows[np.broadcast_to(row_idx, (size,))]
            cdf = np.cumsum(probs, axis=1)
            cdf[:, -1] = 1.0
            u = rng.random(size)
            states[:, c] = (u[:, None] >= cdf).sum(axis=1).astype(np.int16)
        yield states


def ancestral_sample(network: Network, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` complete assignments by forward sampling in topological order.

    Deterministic for a fixed (seed, n, network); the generator id is
    recorded so fixtures stay tied to this implementation's stream. The
    records are drawn ``_CHUNK_ROWS`` at a time (:func:`sample_blocks`), so
    the per-record probability tables are one block's.
    """
    blocks = sample_blocks(network, n, seed, _CHUNK_ROWS)
    states = np.empty((n, len(network.variables)), dtype=np.int16)
    for a, block in zip(range(0, n, _CHUNK_ROWS), blocks):
        states[a:a + len(block)] = block
    return SampleBatch(network.variables, states, int(seed))
