"""CPT estimation: closed-form Dirichlet posterior means for observed data,
and EM for networks with declared latent (unobserved) variables.

The estimator throughout is the Dirichlet posterior MEAN,
``(alpha_s + n_s) / (ess + n)`` with ``alpha_s = ess * prior_mean_s``: it is
defined for empty rows (returning exactly the prior mean) and matches the
soft-prior behaviour the analyses rely on.

EM monitors the penalized objective ``log P(data | theta) + sum alpha_s *
log theta_s``. The posterior-mean M-step is the exact maximizer of the
penalized expected complete-data objective, so this quantity never
decreases across iterations; the raw likelihood alone carries no such
guarantee under a mean (rather than mode) update.

Missing cells follow three rules:

* In the objective (``log_likelihood`` and EM's monitored value) they are
  marginalized: each record contributes log P(its observed cells).
* In the counts they are deleted listwise per family: a family uses a
  record only when none of its non-latent members is missing. Families
  without a latent member are counted once; latent-touching families take
  expected counts.
* A missing cell with no observed descendant (outside the ancestor closure
  of the record's observed cells and the latents) sums to one and is
  dropped, the same rule :mod:`riskbn.inference` uses.

One E-step serves every record (expected sufficient statistics; Koller &
Friedman, *Probabilistic Graphical Models*, section 19.2), and
``log_likelihood`` is the same routine with no latents. Records are
grouped by missingness pattern; a pattern's hidden cells are the latents
plus the missing cells that are not dropped. The kept cells are the
latents, plus the missing cells whose children are all observed where
keeping them gathers fewer CPT entries. One (configurations of the kept
cells, records) log table then gives, by a numpy log-sum-exp, each
record's log-likelihood and posterior. Each family's log terms enter it
in one of three ways:

* Per record, through a flat CPT index built once per fit, which the
  M-step reads too: one weighted ``np.bincount`` per pattern over it
  gives a family's expected counts. The families without a latent member
  (static) are summed into one constant term per pattern, since EM's
  static CPTs change only at the first M-step. It is computed once per
  fit, and once per restart for the first evaluation, which runs on
  jittered static CPTs.
* Per key, for the families that read a summed-out cell: they see a
  record only through their observed members, and a key is one
  combination of those. The summed-out cells are summed out first, in
  one (configurations of the hidden cells, keys) table.
* Per key also, for the per-record families with a latent member other
  than the one with the most distinct record indices, when that gathers
  fewer CPT entries: they are evaluated as one (configurations, keys)
  table and gathered per record through one flat index. The M-step sums
  the posterior per key through that index with one ``np.bincount`` and
  counts each of these families from the sum.

``_patterns`` lays each pattern out every way these choices allow and
keeps the layout whose evaluation gathers the fewest CPT entries
(``_Pattern.size``). It reads the dataset's int16 columns, and its flat
indices and keys are int32: each points into a float64 table the fit
holds, and one of 2**31 cells would take 16 GB, so none can wrap.

On the shipped DAG with ``Previous_CB_Offending`` latent, every summed-out
cell and every observed cell its families read lie in that variable's
family, so the summed-out table never has more entries than that CPT
(145,800). On a complete 100k cohort the latent's family reads about
19,500 distinct parent rows, while its nine game children take about
5,200 joint values: the children are keyed, and the table holds two
numbers per record. The keys cost one sort per fit and pay back over
several evaluations: on that cohort (2-core host) a one-restart,
one-iteration fit takes about 0.17 s keyed against 0.13 s per record, and
three restarts of 16 evaluations take 0.54 s against 0.79-0.87 s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Mapping, Sequence

import numpy as np

from . import DEFAULT_OUTCOME
from .core import (
    Cpt,
    DagStructure,
    Network,
    VariableSpec,
    build_network,
    config_index,
    unique_rows,
)
from .data import Dataset
from .errors import SchemaMismatch
from .inference import ancestor_closure, marginal

DEFAULT_PRIOR_P = 0.1
DEFAULT_ESS = 2.0


# --- priors -------------------------------------------------------------------

@dataclass(frozen=True)
class DirichletPrior:
    """Per-variable prior mean distributions and one equivalent sample size.

    ``means[name]`` is either a 1-D distribution shared by every parent
    configuration or a full (rows, states) table. Variables without an
    entry use a uniform mean.
    """

    means: dict[str, np.ndarray] = field(default_factory=dict)
    ess: float = DEFAULT_ESS

    def __post_init__(self):
        if not 0 < self.ess < np.inf:
            raise SchemaMismatch(f"equivalent sample size must be positive and finite, "
                                 f"got {self.ess}")
        clean: dict[str, np.ndarray] = {}
        for name, mean in self.means.items():
            arr = np.asarray(mean, dtype=np.float64)
            if arr.ndim not in (1, 2):
                raise SchemaMismatch(f"prior mean for '{name}' must be 1-D or 2-D")
            sums = arr.sum(axis=-1)
            if not (np.all(np.abs(sums - 1.0) <= 1e-9) and np.all((0 <= arr) & (arr <= 1))):
                raise SchemaMismatch(f"prior mean for '{name}' is not a distribution")
            arr = arr.copy()
            arr.setflags(write=False)
            clean[name] = arr
        object.__setattr__(self, "means", clean)

    def mean_rows(self, name: str, n_rows: int, n_states: int) -> np.ndarray:
        mean = self.means.get(name)
        if mean is None:
            return np.full((n_rows, n_states), 1.0 / n_states)
        if mean.ndim == 1:
            if mean.shape[0] != n_states:
                raise SchemaMismatch(f"prior mean for '{name}' has wrong state count")
            return np.broadcast_to(mean, (n_rows, n_states)).copy()
        if mean.shape != (n_rows, n_states):
            raise SchemaMismatch(f"prior mean for '{name}' has shape {mean.shape}, "
                                 f"expected ({n_rows}, {n_states})")
        return mean.copy()


def default_prior(schema: Sequence[VariableSpec], outcome: str = DEFAULT_OUTCOME,
                  outcome_p: float = DEFAULT_PRIOR_P, ess: float = DEFAULT_ESS) -> DirichletPrior:
    """Uniform means everywhere except the outcome variable, which gets
    probability ``outcome_p`` on its first state (Yes)."""
    means: dict[str, np.ndarray] = {}
    for v in schema:
        if v.name == outcome:
            rest = (1.0 - outcome_p) / (v.cardinality - 1)
            means[v.name] = np.array([outcome_p] + [rest] * (v.cardinality - 1))
    return DirichletPrior(means, ess)


# --- dataset encoding ----------------------------------------------------------

def _network_columns(schema: Sequence[VariableSpec], dataset: Dataset) -> list:
    """Each schema variable's int16 state codes (-1 missing) as the dataset
    holds them, None where it has no such column; validates columns."""
    names = {v.name for v in schema}
    for col_name in dataset.columns:
        spec = dataset.schema.get(col_name)
        if spec is not None and spec.kind == "meta":
            continue
        if col_name not in names:
            raise SchemaMismatch(f"dataset column '{col_name}' is not a network variable")
    columns = [dataset.columns.get(v.name) for v in schema]
    for v, col in zip(schema, columns):
        ds_spec = dataset.schema.get(v.name)
        if col is not None and ds_spec is not None and ds_spec.states != v.states:
            raise SchemaMismatch(
                f"states of '{v.name}' differ between dataset and network schema"
            )
    return columns


@dataclass(frozen=True)
class _Family:
    """One CPT family: its child and parent names, and the dataset columns
    and cardinalities of its members (parents in canonical order, then the
    child)."""

    name: str
    parents: tuple[str, ...]
    members: tuple[int, ...]
    cards: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return int(np.prod(self.cards[:-1], dtype=np.int64))

    @property
    def n_states(self) -> int:
        return self.cards[-1]


def _families(schema: Sequence[VariableSpec], dag: DagStructure) -> tuple[_Family, ...]:
    order = {v.name: i for i, v in enumerate(schema)}
    families = []
    for j, v in enumerate(schema):
        parents = tuple(sorted(dag.parents_of(v.name), key=order.__getitem__))
        members = tuple(order[p] for p in parents) + (j,)
        families.append(_Family(v.name, parents, members,
                                 tuple(schema[i].cardinality for i in members)))
    return tuple(families)


def _family_counts(columns: Sequence[np.ndarray | None], family: _Family) -> np.ndarray:
    """Row/state counts for one family, read from its members' columns,
    listwise-deleting incomplete records."""
    members = [columns[m] for m in family.members]
    size = family.n_rows * family.n_states
    if any(col is None for col in members):  # no record is complete
        counts = np.zeros(size)
    else:
        counts = np.bincount(_cells(members, family.cards, size), minlength=size + 1)
        counts = counts[:size].astype(np.float64)
    return counts.reshape(family.n_rows, family.n_states)


def _cells(members: Sequence[np.ndarray], cards: Sequence[int], size: int) -> np.ndarray:
    """Each record's flat (row, state) cell of its family's table, or
    ``size``, one past the table, where the record misses a member."""
    cells = config_index(members, cards)
    for col in members:
        cells[col < 0] = size
    return cells


def _posterior_mean(counts: np.ndarray, alpha: np.ndarray, ess: float) -> np.ndarray:
    """Overwrites ``counts`` with its posterior mean. The row sums are a
    matrix product: numpy's sum over a short last axis is about twenty
    times slower on the 72,900 two-state rows of the shipped latent's CPT."""
    totals = counts @ np.ones((counts.shape[1], 1))
    counts += alpha
    counts /= ess + totals
    return counts


# --- the E-step -------------------------------------------------------------------

@dataclass(frozen=True)
class _Keyed:
    """Families of a pattern evaluated once per distinct key rather than
    once per record (see the module docstring); record ``r`` has key
    ``keys[r]``.

    Each family maps to a (key part, configuration part) pair of flat CPT
    indices, shaped (1, keys) and (n_summed * n_configs, 1); their sum is
    the (row, state) cell the family reads, summed cells varying slowest.
    """

    n_summed: int
    n_configs: int
    terms: dict[str, tuple[np.ndarray, np.ndarray]]
    keys: np.ndarray

    @property
    def size(self) -> int:
        """CPT entries one evaluation gathers, the per-record gather included."""
        return (sum(rec.size * cfg.size for rec, cfg in self.terms.values())
                + self.n_configs * self.keys.size)

    @cached_property
    def index(self) -> np.ndarray:
        """Each record's flat position in the (configurations, keys) table
        left after the summed cells are summed out, shaped (configurations,
        records) like the posterior, so that the M-step sums the posterior
        per key through the array the E-step gathers with."""
        n_keys = next(iter(self.terms.values()))[0].size
        return np.arange(self.n_configs, dtype=np.int32).reshape(-1, 1) * n_keys + self.keys


@dataclass(frozen=True)
class _Pattern:
    """Records that share one set of observed cells, and the layout of
    their log table (see the module docstring).

    ``static`` and ``terms`` are the families evaluated per record, without
    and with a latent member. Each maps to a (record part, configuration
    part) pair of flat CPT indices, shaped (records,) and (configurations,
    1), or (1, 1) when no kept cell is a member; :attr:`flat` holds their
    sums. ``groups`` are evaluated per key: the families that read a
    summed-out cell, and, when keyed, the families with a latent member
    that ``terms`` leaves out.
    """

    records: np.ndarray
    observed: frozenset[int]
    n_configs: int
    static: dict[str, tuple[np.ndarray, np.ndarray]]
    terms: dict[str, tuple[np.ndarray, np.ndarray]]
    groups: tuple[_Keyed, ...]

    @property
    def size(self) -> int:
        """CPT entries the log table is built from. The static part counts
        although EM gathers it only once per fit and once per restart: its
        table is held for the whole fit, and in ``log_likelihood``, where
        every family is static, it is all the work there is."""
        per_record = sum(rec.size * cfg.size for rec, cfg in (*self.static.values(),
                                                               *self.terms.values()))
        return per_record + sum(group.size for group in self.groups)

    @cached_property
    def flat(self) -> dict[str, np.ndarray]:
        """Each per-record family's flat CPT index over the (configurations,
        records) table, or (1, records). Built once, on first use, so that
        layouts :func:`_patterns` rejects never hold one; the E-step and
        the M-step read the same array."""
        return {name: rec.reshape(1, -1) if cfg.size == 1 and cfg.item() == 0 else rec + cfg
                for name, (rec, cfg) in (*self.static.items(), *self.terms.items())}


def _configurations(columns: Sequence[int], cards: Mapping[int, int]
                    ) -> tuple[int, dict[int, np.ndarray]]:
    """Number of joint configurations of ``columns``, and each column's
    state in every configuration (last column fastest)."""
    if not columns:
        return 1, {}
    shape = [cards[c] for c in columns]
    n = int(np.prod(shape, dtype=np.int64))
    return n, dict(zip(columns, np.unravel_index(np.arange(n), shape)))


def _keyed(terms: Mapping[str, tuple[np.ndarray, np.ndarray]], n_summed: int,
           n_configs: int) -> _Keyed:
    """Key the records by the record parts of ``terms``, each shaped (records,)."""
    first, keys = unique_rows(np.stack([rec for rec, _ in terms.values()], axis=1))
    terms = {name: (rec[first].reshape(1, -1), cfg) for name, (rec, cfg) in terms.items()}
    return _Keyed(n_summed, n_configs, terms, keys.astype(np.int32))


def _layouts(codes: Mapping[int, np.ndarray], records: np.ndarray, seen: frozenset[int],
             hidden: set[int], kept: set[int], latents: set[int],
             families: Sequence[_Family]) -> list[_Pattern]:
    """The pattern's layouts when the hidden cells outside ``kept`` are summed
    out first: the per-record layout and, where it can gather fewer CPT
    entries, the keyed one, in which all per-record families with a latent
    member but the one with the most distinct record indices are evaluated
    per key. ``codes`` holds each observed column, for the pattern's records."""
    cards = {f.members[-1]: f.n_states for f in families}
    summed = sorted(hidden - kept)
    n_configs, kept_states = _configurations(sorted(kept), cards)
    n_all, all_states = _configurations(summed + sorted(kept), cards)
    static, terms, summed_terms = {}, {}, {}
    for f in families:
        if f.members[-1] not in seen and f.members[-1] not in hidden:
            continue
        rec = np.broadcast_to(config_index([codes.get(m, 0) for m in f.members],
                                           f.cards).astype(np.int32), records.shape)
        if set(summed).isdisjoint(f.members):
            cfg = config_index([kept_states.get(m, 0) for m in f.members], f.cards).astype(np.int32)
            (static if latents.isdisjoint(f.members) else terms)[f.name] = (rec, cfg.reshape(-1, 1))
        else:
            cfg = config_index([all_states.get(m, 0) for m in f.members], f.cards).astype(np.int32)
            summed_terms[f.name] = (rec, cfg.reshape(-1, 1))
    groups = (_keyed(summed_terms, n_all // n_configs, n_configs),) if summed_terms else ()
    layouts = [_Pattern(records, seen, n_configs, static, terms, groups)]
    if len(terms) > 2:
        distinct = {name: np.count_nonzero(np.bincount(rec)) for name, (rec, _) in terms.items()}
        widest = max(distinct, key=distinct.__getitem__)
        others = [name for name in terms if name != widest]
        # Keying the others gathers, per configuration, keys per family plus
        # one index per record in place of one entry per family and record;
        # there are at least as many keys as any one of them has distinct
        # record indices, and the keys are sorted only if that can pay.
        if len(others) * max(distinct[name] for name in others) < (len(others) - 1) * records.size:
            children = _keyed({name: terms[name] for name in others}, 1, n_configs)
            layouts.append(_Pattern(records, seen, n_configs, static, {widest: terms[widest]},
                                    groups + (children,)))
    return layouts


def _patterns(columns: Sequence[np.ndarray | None], n: int, families: Sequence[_Family],
              latents: Collection[int]) -> list[_Pattern]:
    """Group records by missingness pattern and lay out each pattern's table.

    The latents are always kept per record, since EM needs their
    posterior. Missing cells whose children are all observed are kept too,
    and the latent's children are keyed, when that gathers fewer CPT
    entries: summing out a missing cell first makes the keys vary with its
    children's values, and keying pays only where the children take far
    fewer joint values than there are records.
    """
    latents = set(latents)
    observed = np.column_stack([np.zeros(n, bool) if col is None else col >= 0 for col in columns])
    first, inverse = unique_rows(np.packbits(observed, axis=1))
    observed_sets = [frozenset(np.flatnonzero(observed[row]).tolist()) for row in first]
    del observed
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    parents = {f.members[-1]: f.members[:-1] for f in families}
    children: dict[int, set[int]] = {j: set() for j in parents}
    for j, ps in parents.items():
        for p in ps:
            children[p].add(j)
    patterns = []
    for records, seen in zip(groups, observed_sets):
        hidden = ancestor_closure(parents.__getitem__, seen | latents) - seen
        childless = {h for h in hidden if h not in latents and not children[h] & hidden}
        candidates = [latents] + ([latents | childless] if childless else [])
        pattern_codes = {m: columns[m] if records.size == n else columns[m][records] for m in seen}
        patterns.append(min((layout for kept in candidates
                             for layout in _layouts(pattern_codes, records, seen, hidden, kept,
                                                    latents, families)),
                            key=lambda p: p.size))
    return patterns


def _log_cpts(cpts: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    with np.errstate(divide="ignore"):
        return {name: np.log(rows).ravel() for name, rows in cpts.items()}


def _static_terms(patterns: Sequence[_Pattern],
                  log_cpts: Mapping[str, np.ndarray]) -> list[np.ndarray]:
    """Per pattern, the sum of its ``static`` families' log terms. EM's
    static CPTs change only at the first M-step, so this is computed once
    per restart and once per fit rather than in every evaluation."""
    return [sum((log_cpts[name][p.flat[name]] for name in p.static),
                np.zeros((1, p.records.size))) for p in patterns]


def _log_table(pattern: _Pattern, log_cpts: Mapping[str, np.ndarray],
               static: np.ndarray) -> np.ndarray:
    """(configurations, records) log P(observed cells, configuration) over
    the pattern's per-record hidden cells, the others summed out."""
    table = np.zeros((pattern.n_configs, pattern.records.size))
    table += static
    for name in pattern.terms:
        table += log_cpts[name][pattern.flat[name]]
    for group in pattern.groups:
        part = sum(log_cpts[name][rec + cfg] for name, (rec, cfg) in group.terms.items())
        table += _log_normalizer(part.reshape(group.n_summed, -1))[group.index]
    return table


def _log_normalizer(table: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the first axis, shifted by each column's finite max."""
    shift = table.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(table - shift).sum(axis=0)) + shift


def _e_step(patterns: Sequence[_Pattern], log_cpts: Mapping[str, np.ndarray],
            static_terms: Sequence[np.ndarray], n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-record log P(observed cells), and per pattern the posterior over
    its per-record hidden cells, shaped (configurations, records). A record
    of probability zero gets -inf and an undefined (NaN) posterior.
    ``static_terms`` are :func:`_static_terms` of the same patterns."""
    logp = np.empty(n)
    posteriors = []
    for pattern, static in zip(patterns, static_terms):
        table = _log_table(pattern, log_cpts, static)
        log_marginal = _log_normalizer(table)
        logp[pattern.records] = log_marginal
        with np.errstate(invalid="ignore"):
            posteriors.append(np.exp(table - log_marginal))
    return logp, posteriors


# --- closed-form fitting ---------------------------------------------------------

def fit_cpts(schema: Sequence[VariableSpec], dag: DagStructure, dataset: Dataset,
             prior: DirichletPrior | None = None) -> Network:
    """Dirichlet posterior-mean CPTs from (possibly partially) observed data.

    A family row with no complete records returns the prior mean; records
    missing the child or any parent are excluded from that family only.
    """
    schema = tuple(schema)
    prior = prior if prior is not None else default_prior(schema)
    columns = _network_columns(schema, dataset)
    cpts = []
    for f in _families(schema, dag):
        alpha = prior.mean_rows(f.name, f.n_rows, f.n_states)
        alpha *= prior.ess
        cpts.append(Cpt(f.name, f.parents,
                        _posterior_mean(_family_counts(columns, f), alpha, prior.ess)))
    return build_network(schema, dag, cpts)


def log_likelihood(network: Network, dataset: Dataset) -> float:
    """Sum over records of log P(observed assignment).

    Unobserved cells are marginalized exactly. Records with zero
    probability contribute -inf; their count is reported via a warning
    rather than being clamped away.
    """
    schema = network.schema
    columns = _network_columns(schema, dataset)
    if dataset.n == 0 or not schema:  # every record observes nothing, of probability 1
        return 0.0
    log_cpts = _log_cpts({name: cpt.rows for name, cpt in network.cpts.items()})
    patterns = _patterns(columns, dataset.n, _families(schema, network.dag), ())
    logp, _ = _e_step(patterns, log_cpts, _static_terms(patterns, log_cpts), dataset.n)
    zero = int(np.isneginf(logp).sum())
    if zero:
        warnings.warn(f"{zero} record(s) have probability zero under the network")
    return float(logp.sum())


# --- EM ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmConfig:
    """EM hyper-parameters; defaults follow the package conventions."""

    max_iterations: int = 500
    tolerance: float = 1e-6
    restarts: int = 10
    jitter: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1:
            raise SchemaMismatch("max_iterations and restarts must be >= 1")
        if not self.tolerance > 0:
            raise SchemaMismatch("tolerance must be positive")
        if not 0.0 <= self.jitter < 1.0:  # also rejects NaN
            raise SchemaMismatch(f"jitter must lie in [0, 1), got {self.jitter}")
        if self.seed < 0:
            raise SchemaMismatch(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EmTrace:
    """Per-restart convergence record.

    ``log_likelihoods`` holds, per restart, the penalized objective after
    each update: observed-data log-likelihood plus the Dirichlet log-prior
    term. The posterior-mean M-step never decreases this quantity, so each
    inner tuple is non-decreasing (within numerical slack). ``converged``
    flags restarts that met the tolerance before the iteration cap
    (a False entry is a flagged success, not a failure)."""

    log_likelihoods: tuple[tuple[float, ...], ...]
    converged: tuple[bool, ...]
    selected: int


@dataclass(frozen=True)
class _Static:
    """What the static families (those without a latent member) add to one
    EM evaluation: their log CPTs, each pattern's :func:`_static_terms` and
    their Dirichlet log-prior term."""

    log_cpts: dict[str, np.ndarray]
    terms: list[np.ndarray]
    prior: float


class _EmProblem:
    """Families, missingness patterns and per-fit constants shared by all
    restarts of one em_fit call."""

    def __init__(self, schema: Sequence[VariableSpec], dag: DagStructure,
                 dataset: Dataset, latents: Sequence[str], prior: DirichletPrior):
        self.schema = tuple(schema)
        self.dag = dag
        self.prior = prior
        order = {v.name: i for i, v in enumerate(self.schema)}
        self.order = order

        for name in latents:
            if name not in order:
                raise SchemaMismatch(f"latent variable '{name}' is not in the schema")
            col = dataset.columns.get(name)
            if col is not None and (col >= 0).any():
                raise SchemaMismatch(
                    f"latent variable '{name}' has observed data; drop the column first"
                )
        self.latents = tuple(sorted(set(latents), key=order.__getitem__))
        if not self.latents:
            raise SchemaMismatch("em_fit needs at least one latent variable")
        latent_cols = {order[name] for name in self.latents}

        columns = _network_columns(self.schema, dataset)
        self.n = dataset.n
        self.families = _families(self.schema, dag)
        self.patterns = _patterns(columns, self.n, self.families, latent_cols)

        # Prior means and pseudo-counts (ess * mean) per family, read-only
        # and shared by every restart and iteration. The log-prior term
        # reads only the positive pseudo-counts, through ``alphas`` if all are.
        self.means: dict[str, np.ndarray] = {}
        self.alphas: dict[str, np.ndarray] = {}
        self.positive: dict[str, tuple[np.ndarray, np.ndarray | slice]] = {}
        for f in self.families:
            mean = prior.mean_rows(f.name, f.n_rows, f.n_states)
            alpha = prior.ess * mean
            mean.setflags(write=False)
            alpha.setflags(write=False)
            self.means[f.name] = mean
            self.alphas[f.name] = alpha
            where = slice(None) if alpha.all() else np.flatnonzero(alpha > 0)
            self.positive[f.name] = (alpha.ravel()[where], where)

        # Static families never change after the first M-step. Each
        # latent-touching family is counted in the patterns in which none
        # of its non-latent members is missing.
        self.static_cpts: dict[str, np.ndarray] = {}
        self.latent_families: list[_Family] = []
        for f in self.families:
            if latent_cols.isdisjoint(f.members):
                self.static_cpts[f.name] = _posterior_mean(_family_counts(columns, f),
                                                           self.alphas[f.name], prior.ess)
            else:
                self.latent_families.append(f)
        self.counted = [{f.name for f in self.latent_families
                         if all(m in p.observed or m in latent_cols for m in f.members)}
                        for p in self.patterns]
        self.fitted = self.static(self.static_cpts)

    def static(self, theta: Mapping[str, np.ndarray]) -> _Static:
        """The static families' part of an evaluation under ``theta``."""
        log_cpts = _log_cpts({name: theta[name] for name in self.static_cpts})
        return _Static(log_cpts, _static_terms(self.patterns, log_cpts),
                       self.prior_term(theta, self.static_cpts))

    def init_theta(self, rng: np.random.Generator, jitter: float) -> dict[str, np.ndarray]:
        theta = {}
        for f in self.families:
            mean = self.means[f.name]
            if jitter > 0:
                mean = mean * (1.0 + jitter * (2.0 * rng.random(mean.shape) - 1.0))
                mean /= mean.sum(axis=1, keepdims=True)
            theta[f.name] = mean
        return theta

    def network(self, theta: Mapping[str, np.ndarray]) -> Network:
        cpts = [Cpt(f.name, f.parents, theta[f.name]) for f in self.families]
        return build_network(self.schema, self.dag, cpts)

    def prior_term(self, theta: Mapping[str, np.ndarray], names: Collection[str]) -> float:
        """Sum of alpha * log theta over the named families' positive alphas."""
        total = 0.0
        for name in names:
            alpha, where = self.positive[name]
            total += float((alpha * np.log(theta[name].ravel()[where])).sum())
        return total

    def m_step(self, posteriors: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        counts = {f.name: np.zeros(f.n_rows * f.n_states) for f in self.latent_families}
        for pattern, posterior, counted in zip(self.patterns, posteriors, self.counted):
            weights = posterior.ravel()
            for name in counted.intersection(pattern.terms):
                counts[name] += np.bincount(pattern.flat[name].ravel(), weights,
                                            counts[name].size)
            for group in pattern.groups:
                names = counted.intersection(group.terms)
                if not names:
                    continue
                key_weights = np.bincount(group.index.ravel(), weights)
                for name in names:
                    rec, cfg = group.terms[name]
                    counts[name] += np.bincount((rec + cfg).ravel(), key_weights,
                                                counts[name].size)
        theta: dict[str, np.ndarray] = dict(self.static_cpts)
        for f in self.latent_families:
            theta[f.name] = _posterior_mean(counts[f.name].reshape(f.n_rows, f.n_states),
                                            self.alphas[f.name], self.prior.ess)
        return theta


def em_fit(schema: Sequence[VariableSpec], dag: DagStructure, dataset: Dataset,
           latent_variables: Sequence[str], prior: DirichletPrior | None = None,
           config: EmConfig | None = None) -> tuple[Network, EmTrace]:
    """Fit CPTs with the named variables unobserved.

    Runs ``config.restarts`` independently initialized EM runs and returns
    the one with the best final objective; the trace records every run.
    Binary latent states are relabeled afterwards so the state whose fitted
    marginal is closer to its prior mean keeps the first (affirmative) slot.
    """
    schema = tuple(schema)
    prior = prior if prior is not None else default_prior(schema)
    config = config if config is not None else EmConfig()
    problem = _EmProblem(schema, dag, dataset, latent_variables, prior)
    latent_names = [f.name for f in problem.latent_families]

    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    traces: list[tuple[float, ...]] = []
    converged_flags: list[bool] = []
    best_theta: dict[str, np.ndarray] = {}

    for r in range(config.restarts):
        rng = np.random.default_rng(seeds[r])
        theta = problem.init_theta(rng, config.jitter)
        static = problem.static(theta)
        objectives: list[float] = []
        converged = False
        prev = None
        for t in range(config.max_iterations + 1):
            log_cpts = {**static.log_cpts,
                        **_log_cpts({name: theta[name] for name in latent_names})}
            logp, posteriors = _e_step(problem.patterns, log_cpts, static.terms, problem.n)
            objective = float(logp.sum()) + static.prior + problem.prior_term(theta, latent_names)
            objectives.append(objective)
            if prev is not None and abs(objective - prev) <= config.tolerance * max(1.0, abs(prev)):
                converged = True
                break
            prev = objective
            if t == config.max_iterations:
                break
            theta = problem.m_step(posteriors)
            static = problem.fitted  # the M-step sets the static CPTs to their fit
        traces.append(tuple(objectives))
        converged_flags.append(converged)
        if np.argmax([t[-1] for t in traces]) == r:  # the first maximum (or NaN) so far
            best_theta = theta

    best = int(np.argmax([t[-1] for t in traces]))
    theta = _align_binary_latents(problem, best_theta)
    network = problem.network(theta)
    trace = EmTrace(tuple(traces), tuple(converged_flags), best)
    return network, trace


def _align_binary_latents(problem: _EmProblem,
                          theta: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Swap a binary latent's states when the second state's fitted marginal
    is closer to the first state's prior mean (EM is label-symmetric)."""
    theta = dict(theta)
    for latent in problem.latents:
        spec = problem.schema[problem.order[latent]]
        if spec.cardinality != 2:
            continue
        net = problem.network(theta)
        m = marginal(net, latent).probabilities
        anchor = float(problem.means[latent].mean(axis=0)[0])
        if abs(m[0] - anchor) <= abs(m[1] - anchor):
            continue
        theta[latent] = theta[latent][:, ::-1].copy()
        for f in problem.families:
            if latent not in f.parents:
                continue
            table = np.flip(theta[f.name].reshape(f.cards), axis=f.parents.index(latent))
            theta[f.name] = table.reshape(f.n_rows, f.n_states).copy()
    return theta
