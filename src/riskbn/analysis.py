"""The network analyses: strength-of-influence ranking, and multi-factor
risk search with Bayes-factor thresholds. Rank comparison lives in
:mod:`riskbn.ranks`, which loads no numpy; its two public names are
re-exported here.

Every analysis reads the network through joint tables (``joint_table``),
never through per-evidence posteriors. Strength of influence and the
conditional profile read one table P(source, target) per source: its row
sums are the source weights, and each row over its sum is one conditional
P(target | source = v). Source states of zero mass are omitted.

Strength of influence scores how much conditioning on one variable shifts
the target's conditional distribution: the square root of the generalized,
marginal-weighted Jensen-Shannon divergence of the per-state conditionals,
base-2 logarithms. For a binary target this lies in [0, 1] as is; when both
the source and target spaces exceed two states the divergence is divided by
its information-theoretic bound so the score stays in [0, 1].

The multi-factor search and the risk profiles score every evidence
combination of a given size exactly. Rather than one elimination per state
combination, they read all state combinations of a variable subset from its
joint table with the target. Those tables form a marginalization lattice
(``_subset_tables``): usually one elimination of the whole pool's table,
from which every subset's table is summed one axis at a time out of its
smallest superset, depth first, so at most twice the root's cells are held
at once. Where the whole-pool table would outgrow the network's largest CPT,
the subsets of the largest size are the roots instead. Results depend only
on the network, the pool, the target and the sizes, and are tested against
full joint enumeration.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Network
from .errors import DegenerateSourceWarning, DomainError, PoolTooLarge
from .inference import ancestor_closure, joint_table
from .ranks import RankComparison, spearman  # re-exported

DEFAULT_MAX_EVALS = 100_000_000


# --- strength of influence -----------------------------------------------------

def _d_connected_unconditionally(network: Network, a: str, b: str) -> bool:
    """With empty conditioning, two nodes are dependent only if they share
    an ancestor (a trail without colliders runs through a common ancestor)."""
    return bool(ancestor_closure(network.parents, [a])
                & ancestor_closure(network.parents, [b]))


def influence_strength(network: Network, source: str, target: str) -> float:
    """Jensen-Shannon strength of ``source`` on ``target``, in [0, 1], from
    the generalized divergence of the conditionals P(target | source = v)
    weighted by the source marginal (see the module docstring).
    """
    if source == target:
        raise DomainError("source and target must differ")
    network.spec(source)
    network.spec(target)
    if not _d_connected_unconditionally(network, source, target):
        return 0.0

    joint = joint_table(network, [source, target])
    weights = joint.sum(axis=1)
    positive = np.nonzero(weights > 0)[0]
    if positive.size < 2:
        warnings.warn(
            f"source '{source}' has fewer than two states with positive "
            "probability; strength is 0",
            DegenerateSourceWarning,
        )
        return 0.0

    conditionals = joint[positive] / weights[positive, None]
    w = weights[positive] / weights.sum()
    jsd = _js_divergence(conditionals, w)
    bound = math.log2(min(int(positive.size), network.cardinality(target)))
    if bound > 1.0:
        jsd /= bound
    return math.sqrt(max(jsd, 0.0))


def _js_divergence(distributions: Sequence[np.ndarray], weights: np.ndarray) -> float:
    """Generalized JS divergence, base 2, in cancellation-free KL form."""
    mixture = np.zeros_like(distributions[0])
    for w, d in zip(weights, distributions):
        mixture = mixture + w * d
    total = 0.0
    for w, d in zip(weights, distributions):
        nz = d > 0
        total += float(w * (d[nz] * np.log2(d[nz] / mixture[nz])).sum())
    return max(total, 0.0)


@dataclass(frozen=True)
class StrengthReport:
    """Descending influence ranking against one target variable."""

    target: str
    entries: tuple[tuple[str, float], ...]
    control: str | None = None
    control_score: float | None = None

    def score(self, variable: str) -> float:
        for name, s in self.entries:
            if name == variable:
                return s
        raise DomainError(f"'{variable}' is not in the ranking")


def strength_ranking(network: Network, target: str,
                     candidates: Sequence[str] | None = None,
                     control: str | None = None) -> StrengthReport:
    """Rank candidate variables by influence on the target.

    Ties break alphabetically. The control's score is recorded so reports
    can draw the irrelevance line under it.
    """
    if candidates is None:
        names = [v for v in network.variables if v != target]
    else:
        names = list(dict.fromkeys(candidates))
        if target in names:
            raise DomainError("candidates must exclude the target")
    if control is not None:
        network.spec(control)
        if control == target:
            raise DomainError("control and target must differ")
        if control not in names:
            names.append(control)
    scores = [(name, influence_strength(network, name, target)) for name in names]
    scores.sort(key=lambda e: (-e[1], e[0]))
    control_score = None
    if control is not None:
        control_score = next(s for name, s in scores if name == control)
    return StrengthReport(target, tuple(scores), control, control_score)


def default_target_state(states: Sequence[str]) -> str:
    """The state a profile reports when none is named: ``Yes`` when the
    target has such a state, otherwise its last state."""
    return "Yes" if "Yes" in states else states[-1]


def conditional_profile(network: Network, target: str, source: str,
                        target_state: str | None = None) -> tuple[tuple[str, float], ...]:
    """Per-source-state posterior of the target's affirmative state.

    ``target_state`` defaults to ``Yes`` when the target has such a state,
    otherwise to its last state. Source states with zero marginal
    probability are omitted (their conditional is undefined).
    """
    if source == target:
        raise DomainError("source and target must differ")
    if target_state is None:
        target_state = default_target_state(network.spec(target).states)
    t_idx = network.state_index(target, target_state)
    joint = joint_table(network, [source, target])
    weights = joint.sum(axis=1)
    return tuple((state, float(joint[v, t_idx] / weights[v]))
                 for v, state in enumerate(network.spec(source).states) if weights[v] > 0)


# --- Bayes factors ----------------------------------------------------------------

def bayes_factor(prior_p: float, posterior_p: float) -> float:
    """Ratio of prior odds to posterior odds."""
    for name, p in (("prior", prior_p), ("posterior", posterior_p)):
        if not 0.0 < p < 1.0:
            raise DomainError(f"{name} probability must lie strictly in (0, 1)")
    return ((1.0 - prior_p) / prior_p) / ((1.0 - posterior_p) / posterior_p)


def bf_threshold_posterior(prior_p: float, bf: float) -> float:
    """Posterior probability at which the Bayes factor reaches ``bf``."""
    if not 0.0 < prior_p < 1.0:
        raise DomainError("prior probability must lie strictly in (0, 1)")
    if not bf > 0.0:
        raise DomainError("Bayes factor must be positive")
    return 1.0 / (1.0 + (1.0 - prior_p) / (prior_p * bf))


# --- multi-factor search ------------------------------------------------------------

@dataclass(frozen=True)
class MultiFactorEntry:
    """Best posterior over all evidence sets of exactly ``k`` assignments."""

    k: int
    max_posterior: float | None
    argmax: tuple[tuple[tuple[str, str], ...], ...]
    evaluated: int
    skipped: int


@dataclass(frozen=True)
class MultiFactorResult:
    target: str
    target_state: str
    entries: tuple[MultiFactorEntry, ...]

    def entry(self, k: int) -> MultiFactorEntry:
        for e in self.entries:
            if e.k == k:
                return e
        raise DomainError(f"no entry for k={k}")


def estimate_evaluations(cards: Sequence[int], k_values: Iterable[int]) -> int:
    """Number of evidence combinations: sum over k of the k-th elementary
    symmetric polynomial of the pool cardinalities."""
    poly = [1]
    for c in cards:
        poly = [poly[i] + (poly[i - 1] * c if i else 0) for i in range(len(poly))] + \
               [poly[-1] * c]
    return sum(poly[k] for k in k_values if k < len(poly))


def _descent(table: np.ndarray, subset: tuple[int, ...], m: int,
             order: Sequence[int], k_values: Sequence[int]):
    """Depth first through the lattice below ``subset``: yield each subset
    with its table, ``subset`` and ``table`` first. Each child is its parent
    less one pool position, and its table is the parent's summed over that
    axis, so only the tables of one root-to-leaf path are held.

    ``order`` lists the pool positions by cardinality, then canonical order;
    ``subset`` holds its first ``m`` entries but not the next. A subset's
    parent is the subset plus the first entry of ``order`` it lacks, its
    smallest superset, so each subset is built exactly once. A child is
    built only when it or a subset below it has a size in ``k_values``.
    """
    yield subset, table
    size = len(subset) - 1
    for i in range(m):
        if any(size - i <= k <= size for k in k_values):
            child = tuple(c for c in subset if c != order[i])
            yield from _descent(table.sum(axis=subset.index(order[i])), child, i,
                                order, k_values)


def _subset_tables(network: Network, target: str, target_state: str,
                   candidate_pool: Sequence[str], k_range: Iterable[int],
                   max_evals: int):
    """Yield (subset, joint table over subset + target, target posterior)
    for every subset of the pool whose size lies in ``k_range``.

    The table's axes follow the subset, in canonical variable order, with
    the target last; the posterior is P(target = target_state | subset
    states), or -1 where those states have probability zero.

    The tables form a marginalization lattice with one elimination per
    root. Every other table sums one axis out of its smallest superset
    (``_descent``), depth first, so one root-to-leaf path of tables is held
    at a time: at most twice the root's cells, since every variable has at
    least two states. The root is the whole pool, one elimination, unless
    its table would have more cells than the network's largest CPT; then
    the C(pool, max k) subsets of the largest size are the roots. The
    choice rests on cardinalities and CPT sizes only, and bounds memory;
    the results depend only on the network, the pool, the target and the
    sizes. Subsets come in lattice order, not enumeration order. Pool, size
    and cap checks run before any elimination.
    """
    pool = list(dict.fromkeys(candidate_pool))
    if not pool:
        raise DomainError("candidate pool is empty")
    for name in pool:
        network.spec(name)
    if target in pool:
        raise DomainError("candidate pool must exclude the target")
    pool.sort(key=network.index)
    t_idx = network.state_index(target, target_state)
    k_values = sorted(set(int(k) for k in k_range))
    if not k_values:
        raise DomainError("k range is empty")
    if k_values[0] < 1 or k_values[-1] > len(pool):
        raise DomainError(f"k must lie within [1, {len(pool)}]")
    cards = [network.cardinality(v) for v in pool]
    estimated = estimate_evaluations(cards, k_values)
    if estimated > max_evals:
        raise PoolTooLarge(estimated, max_evals)

    order = sorted(range(len(pool)), key=lambda i: (cards[i], i))
    top = k_values[-1]
    whole = tuple(range(len(pool)))
    if network.cardinality(target) * math.prod(cards) <= max(
            cpt.rows.size for cpt in network.cpts.values()):
        top = len(pool)

    for root in itertools.combinations(whole, top):
        m = next((i for i, c in enumerate(order) if c not in root), len(order))
        for subset, table in _descent(joint_table(network, [pool[c] for c in root] + [target]),
                                      root, m, order, k_values):
            if len(subset) in k_values:
                denom = table.sum(axis=-1)
                post = np.full(denom.shape, -1.0)
                np.divide(table[..., t_idx], denom, out=post, where=denom > 0)
                yield tuple(pool[c] for c in subset), table, post


def _assignment(network: Network, subset: Sequence[str],
                idx: Sequence[int]) -> tuple[tuple[str, str], ...]:
    """The (variable, state) pairs of one cell of a subset table."""
    return tuple((v, network.spec(v).states[i]) for v, i in zip(subset, idx))


def multifactor_search(network: Network, target: str, target_state: str,
                       candidate_pool: Sequence[str], k_range: Iterable[int],
                       max_evals: int = DEFAULT_MAX_EVALS) -> MultiFactorResult:
    """Exhaustively score every evidence set of each size in ``k_range``.

    For each k, every subset of k distinct pool variables and every state
    combination is evaluated; zero-probability combinations are skipped and
    counted. Takes one elimination of the whole pool, or C(pool, max k) when
    that table would outgrow the network's largest CPT (see
    ``_subset_tables``); holds one root-to-leaf path of lattice tables at a
    time. The result depends only on the network, the pool, the target and
    the k range. Ties on the maximum (exact ``==``) keep every achieving set,
    in enumeration order (canonical variable order, row-major states).
    """
    best: dict[int, tuple[float | None, list, int, int]] = {}
    for subset, _, post in _subset_tables(network, target, target_state,
                                          candidate_pool, k_range, max_evals):
        max_p, ties, evaluated, skipped = best.get(len(subset), (None, [], 0, 0))
        valid = int((post >= 0).sum())
        evaluated += valid
        skipped += post.size - valid
        if valid:
            local_max = float(post.max())
            if max_p is None or local_max > max_p:
                max_p, ties = local_max, []
            if local_max == max_p:
                ties += [(subset, tuple(idx)) for idx in np.argwhere(post == max_p)]
        best[len(subset)] = (max_p, ties, evaluated, skipped)

    entries = []
    for k, (max_p, ties, evaluated, skipped) in sorted(best.items()):
        # subsets arrive in lattice order; put ties back into enumeration order
        ties.sort(key=lambda tie: ([network.index(v) for v in tie[0]], tie[1]))
        argmax = tuple(_assignment(network, subset, idx) for subset, idx in ties)
        entries.append(MultiFactorEntry(k, max_p, argmax, evaluated, skipped))
    return MultiFactorResult(target, target_state, tuple(entries))


# --- risk profiles ------------------------------------------------------------------

@dataclass(frozen=True)
class RiskProfile:
    evidence: tuple[tuple[str, str], ...]
    posterior: float


@dataclass(frozen=True)
class RiskProfileSet:
    """All size-k evidence sets meeting the posterior threshold, plus the
    per-assignment frequency table across those profiles."""

    threshold: float
    k: int
    profiles: tuple[RiskProfile, ...]
    frequency: tuple[tuple[tuple[str, str], int], ...]


def risk_profiles(network: Network, target: str, target_state: str,
                  candidate_pool: Sequence[str], k: int, threshold: float,
                  max_evals: int = DEFAULT_MAX_EVALS) -> RiskProfileSet:
    """Collect every evidence set of exactly ``k`` assignments whose target
    posterior is at least ``threshold`` (exact ``>=``); profiles sort by
    posterior (descending, then lexicographically). Takes one elimination of
    the whole pool, or C(pool, k) by the root rule of ``_subset_tables``,
    and the result depends only on the network, the pool, the target, ``k``
    and ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError("threshold must lie in [0, 1]")
    profiles: list[RiskProfile] = []
    counts: dict[tuple[str, str], int] = {}
    for subset, _, post in _subset_tables(network, target, target_state,
                                          candidate_pool, [k], max_evals):
        for idx in np.argwhere(post >= threshold):
            assignment = _assignment(network, subset, idx)
            profiles.append(RiskProfile(assignment, float(post[tuple(idx)])))
            for pair in assignment:
                counts[pair] = counts.get(pair, 0) + 1

    profiles.sort(key=lambda p: (-p.posterior, p.evidence))
    frequency = tuple(sorted(counts.items(), key=lambda e: (-e[1], e[0])))
    return RiskProfileSet(float(threshold), int(k), tuple(profiles), frequency)
