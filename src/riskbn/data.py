"""Variable schema, dataset ingestion, calibration filters and the synthetic
player generator.

The default schema covers nine profiling variables (demographics plus
questionnaire scores), two Yes/No outcome variables, the ten cyberbullying
game questions (two adventures) and the meta columns recorded alongside
answers (per-question response times, post-game honesty answer).

The synthetic generator replaces the private study data: its root marginals
reproduce the published survey marginals exactly (see ``CALIBRATION_NOTES``
for the two columns that needed rounding repairs), the outcome variable is
driven by planted risk factors, and one game question is generated
independently of everything else to act as the ranking control.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import Cpt, DagStructure, Network, VariableSpec, build_network
from .errors import (
    IllegalState,
    MalformedCsv,
    MissingMetaColumn,
    RaggedRow,
    RiskbnError,
    SchemaMismatch,
    UnknownColumn,
)
from .inference import SampleBatch, ancestral_sample

DEFAULT_OUTCOME = "Previous_CB_Offending"
DEFAULT_CONTROL = "A1Q1_PhotoSharing"
MISSING_TOKENS = ("", "?")
_RT_MAX = int(np.iinfo(np.int32).max)  # response times are stored as int32
_MAX_RUN_LABELS = 4096  # joint labels of one fused column run in save_dataset
_CHUNK_ROWS = 8192  # rows load_dataset holds as cell text, and render_dataset renders, at once
_SLICE_CHARS = 1 << 18  # least characters of text load_dataset reads at once
_LINE_END = re.compile(r"\r\n?|\n")  # where io.StringIO(newline="") ends a line

#: Published survey marginals (percent). Two columns do not sum to 100:
#: Gender totals 99.0 and Daily_Hours_Internet totals 97.6; the generator
#: spreads the missing mass evenly over the states of the affected variable.
#: Sexual orientation totals 60.7; the remaining 39.3 is carried by an
#: explicit Undisclosed state so that distributions are well formed without
#: silently rescaling the published numbers.
PUBLISHED_MARGINALS: dict[str, dict[str, float]] = {
    "Gender": {"Male": 62.9, "Female": 35.1, "NonBinary": 1.0},
    "Age": {"12": 18.8, "13": 4.4, "14": 26.8, "15": 33.0, "16": 17.0},
    "Sexual_Orientation": {"Heterosexual": 55.3, "NonHeterosexual": 5.4},
    "Migratory_Background": {"No": 71.4, "ParentsBornAbroad": 8.6, "BornAbroad": 20.0},
    "Self_Esteem": {"Low": 37.5, "Medium": 41.5, "High": 21.0},
    "Social_Support": {"Low": 3.6, "Medium": 33.5, "High": 62.9},
    "Family_Support": {"Low": 7.6, "Medium": 24.5, "High": 67.9},
    "Daily_Hours_Internet": {
        "LessThan1h": 8.9, "1to2h": 18.7, "2to3h": 21.4, "3to4h": 33.0, "MoreThan4h": 15.6,
    },
    "Empathy": {"Low": 45.8, "High": 54.2},
}

CALIBRATION_NOTES = (
    "Gender percentages total 99.0: the missing 1.0 is split evenly over its "
    "3 states. Daily_Hours_Internet totals 97.6: the missing 2.4 is split "
    "evenly over its 5 states. Sexual_Orientation totals 60.7: an "
    "Undisclosed state carries the remaining 39.3."
)


def calibration_targets() -> dict[str, dict[str, float]]:
    """Exact root-marginal targets (probabilities) used by the generator.

    Derived from ``PUBLISHED_MARGINALS`` with the repairs described in
    ``CALIBRATION_NOTES``; every target column sums to 1 exactly.
    """
    targets: dict[str, dict[str, float]] = {}
    for var, column in PUBLISHED_MARGINALS.items():
        probs = {state: pct / 100.0 for state, pct in column.items()}
        if var == "Sexual_Orientation":
            probs["Undisclosed"] = 1.0 - sum(probs.values())
        else:
            deficit = 1.0 - sum(probs.values())
            if abs(deficit) > 1e-12:
                share = deficit / len(probs)
                probs = {s: p + share for s, p in probs.items()}
        targets[var] = probs
    return targets


# --- schema -------------------------------------------------------------------

@dataclass(frozen=True)
class Schema:
    """Ordered variable list, including the honesty meta column.

    Response-time columns are numeric rather than categorical: any network
    variable ``v`` may carry an ``rt_v`` column of integer milliseconds.
    """

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate variable names in schema")

    @property
    def network_variables(self) -> tuple[VariableSpec, ...]:
        return tuple(v for v in self.variables if v.kind != "meta")

    @property
    def response_time_columns(self) -> tuple[str, ...]:
        return tuple(f"rt_{v.name}" for v in self.variables if v.kind == "game")

    def get(self, name: str) -> VariableSpec | None:
        for v in self.variables:
            if v.name == name:
                return v
        return None


_GAME_QUESTIONS = (
    # (name, number of answers)
    ("A1Q1_PhotoSharing", 2),
    ("A1Q2_Sociable", 2),
    ("A1Q3_MatthewMeme", 3),
    ("A3Q1_PiratedContent", 2),
    ("A3Q2_PolOrPaula", 3),
    ("A3Q3_TimeOverrun", 2),
    ("A3Q4_PolBullied", 3),
    ("A3Q5_RemindMatthew", 3),
    ("A3Q6_TalkToPol", 2),
    ("A3Q7_HowToHelpPol", 4),
)


def default_schema() -> Schema:
    """The fixed default schema: profiling, outcome, game and meta variables."""
    targets = calibration_targets()
    kinds = {
        "Gender": "demographic", "Age": "demographic",
        "Sexual_Orientation": "demographic", "Migratory_Background": "demographic",
        "Self_Esteem": "psychological", "Social_Support": "psychological",
        "Family_Support": "psychological", "Daily_Hours_Internet": "demographic",
        "Empathy": "psychological",
    }
    specs = [VariableSpec(name, tuple(targets[name]), kinds[name]) for name in kinds]
    specs.append(VariableSpec("Previous_CB_Victimization", ("Yes", "No"), "outcome"))
    specs.append(VariableSpec("Previous_CB_Offending", ("Yes", "No"), "outcome"))
    for name, n_answers in _GAME_QUESTIONS:
        states = tuple(f"Answer{i + 1}" for i in range(n_answers))
        specs.append(VariableSpec(name, states, "game"))
    specs.append(VariableSpec("honesty", ("Yes", "No"), "meta"))
    return Schema(tuple(specs))


# --- datasets -----------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Typed records over a schema.

    ``columns`` maps present variable names to int16 state-index arrays
    (-1 marks a missing cell); ``response_times`` maps ``rt_*`` columns to
    int32 millisecond arrays (-1 missing). Datasets are immutable.
    """

    schema: Schema
    n: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    response_times: dict[str, np.ndarray] = field(default_factory=dict)
    provenance: str = "ingest"

    def __post_init__(self):
        for arr in self.columns.values():
            arr.setflags(write=False)
        for arr in self.response_times.values():
            arr.setflags(write=False)

    def record(self, i: int) -> dict[str, str]:
        """Observed cells of record ``i`` as {variable: state label}."""
        out: dict[str, str] = {}
        for v in self.schema.variables:
            col = self.columns.get(v.name)
            if col is not None and col[i] >= 0:
                out[v.name] = v.states[col[i]]
        return out

    def without_columns(self, names: Iterable[str]) -> "Dataset":
        dropped = set(names)
        return replace(
            self,
            columns={k: v for k, v in self.columns.items() if k not in dropped},
        )


def dataset_from_batch(batch: SampleBatch, schema: Schema,
                       provenance: str = "synthetic") -> Dataset:
    """Wrap sampled assignments as a fully observed dataset."""
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(batch.variables):
        if schema.get(name) is None:
            raise SchemaMismatch(f"sampled variable '{name}' is not in the schema")
        columns[name] = batch.states[:, j].astype(np.int16)
    return Dataset(schema, len(batch), columns, {}, provenance)


class _CellCodes(dict):
    """Memo from a column's raw cell text to its code. A cell not seen
    before is stripped and passed to ``decode``, which returns the code (-1
    for a missing token) or raises LookupError or ValueError for an illegal
    cell; illegal cells are never memoized."""

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, cell: str) -> int:
        code = self[cell] = self.decode(cell.strip())
        return code


def _state_code(states: tuple[str, ...]):
    index = {s: i for i, s in enumerate(states)}
    index.update(dict.fromkeys(MISSING_TOKENS, -1))
    return index.__getitem__


def _response_time(cell: str) -> int:
    if cell in MISSING_TOKENS:
        return -1
    value = int(cell)
    if not 0 <= value <= _RT_MAX:
        raise ValueError(cell)
    return value


def _slices(text: str, start: int = 0):
    """Successive slices of ``text`` from ``start``. Each ends just after
    the first line end (``\\r\\n``, ``\\n`` or a bare ``\\r``, where
    ``io.StringIO(newline="")`` ends a line) at least ``_SLICE_CHARS``
    characters on, so no line straddles two slices."""
    while start < len(text):
        end = _LINE_END.search(text, start + _SLICE_CHARS - 1)
        cut = end.end() if end else len(text)
        yield text[start:cut]
        start = cut


def _lines(text: str):
    """The lines of ``io.StringIO(text, newline="")``, read from successive
    slices of ``text`` so that no whole copy of it is made."""
    for piece in _slices(text):
        yield from io.StringIO(piece, newline="")


def _decode_chunk(cells: list[str], first: int, columns) -> None:
    """Append the codes of a chunk of rows (flat, row-major ``cells``;
    ``first`` rows come before it) to each column's pieces, or raise
    IllegalState for the chunk's first illegal cell in row-major order."""
    width = len(columns)
    rows = len(cells) // width
    illegal: list[tuple[int, int, str, str]] = []  # (row, column index, name, cell)
    for j, (name, lookup, dtype, pieces) in enumerate(columns):
        column = cells[j::width]
        try:
            pieces.append(np.fromiter(map(lookup.__getitem__, column), dtype, rows))
        except (LookupError, ValueError):
            # the memo only holds legal cells, so the first cell it lacks fails
            i = next(i for i, cell in enumerate(column) if cell not in lookup)
            illegal.append((i, j, name, column[i].strip()))
    if illegal:
        i, _, name, cell = min(illegal)
        raise IllegalState(cell, first + i + 1, name)


def _columns(header_row: Sequence[str], schema: Schema) -> list:
    """Check a header row and give each of its columns a
    (name, memo, dtype, decoded pieces) entry."""
    header = [h.strip() for h in header_row]
    if not header:  # an empty file, or a blank first line
        raise RaggedRow(0, 1, 0)
    spec_by_name = {v.name: v for v in schema.variables}
    rt_allowed = set(schema.response_time_columns)
    for name in header:
        if name in spec_by_name or name in rt_allowed:
            continue
        raise UnknownColumn(f"column '{name}' is not declared in the schema")
    if len(set(header)) != len(header):
        raise UnknownColumn("duplicate column names in header")
    columns = []
    for name in header:
        if name in spec_by_name:
            lookup, dtype = _CellCodes(_state_code(spec_by_name[name].states)), np.int16
        else:
            lookup, dtype = _CellCodes(_response_time), np.int32
        columns.append((name, lookup, dtype, [np.empty(0, dtype)]))
    return columns


def _dataset(schema: Schema, n: int, columns) -> Dataset:
    decoded = {name: np.concatenate(pieces) for name, _, _, pieces in columns}
    spec_by_name = {v.name: v for v in schema.variables}
    cat_cols = {k: v for k, v in decoded.items() if k in spec_by_name}
    rt_cols = {k: v for k, v in decoded.items() if k not in spec_by_name}
    return Dataset(schema, n, cat_cols, rt_cols, "ingest")


def _read_rows(reader, schema: Schema) -> Dataset:
    """The dataset whose CSV rows ``reader`` yields, checked and decoded
    chunk by chunk; a CSV reader error is left to the caller."""
    columns = _columns(next(reader, ()), schema)
    width = len(columns)
    n = 0
    while True:
        cells: list[str] = []
        extend = cells.extend
        for row in islice(reader, _CHUNK_ROWS):
            if len(row) != width:
                _decode_chunk(cells, n, columns)  # an earlier illegal cell wins
                raise RaggedRow(n + len(cells) // width + 1, width, len(row))
            extend(row)
        if not cells:
            break
        _decode_chunk(cells, n, columns)
        n += len(cells) // width
    return _dataset(schema, n, columns)


# _WORD_MASKS[r] keeps the first r bytes of a little-endian 8-byte word
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_HASH_FACTORS = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9], dtype=np.uint64)


def _words(windows: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The 8-byte words that cover each cell of at least 8 bytes (the words
    at 0, 8, 16, ... bytes into it, its last 8 bytes for the last one), all
    cells' words in one array; each word's number in its cell; and where
    each cell's words begin."""
    count = (length + 7) >> 3
    first = np.cumsum(count) - count
    k = np.arange(count.sum()) - np.repeat(first, count)
    at = np.repeat(start, count) + np.minimum(8 * k, np.repeat(length - 8, count))
    return windows[at], k, first


def _split_slice(b: np.ndarray, width: int, field_limit: int):
    """Where the cells of ``b``, the UTF-8 bytes of whole lines of text
    holding no ``"``, start and how long they are: two (width, rows) arrays,
    a row per line. None at a line of another width (a blank line among
    them) or a field past ``field_limit`` bytes."""
    # line ends: \n, \r, and \r\n counted once, at its \r
    breaks = np.flatnonzero((b == 10) | (b == 13))
    pair = np.zeros(len(breaks), bool)
    pair[:-1] = (breaks[1:] == breaks[:-1] + 1) & (b[breaks[:-1]] == 13) & (b[breaks[1:]] == 10)
    keep = np.ones(len(breaks), bool)
    keep[1:] = ~pair[:-1]
    line_end = breaks[keep]
    next_line = line_end + 1 + pair[keep]
    if not len(line_end) or next_line[-1] < len(b):  # the text's last line has no line end
        line_end = np.append(line_end, len(b))
        next_line = np.append(next_line, len(b) + 1)
    rows = len(line_end)
    line_start = np.empty(rows, np.int64)
    line_start[0] = 0
    line_start[1:] = next_line[:-1]
    commas = np.flatnonzero(b == 44)
    if len(commas) != rows * (width - 1) or not (line_end > line_start).all():
        return None
    commas = commas.reshape(rows, width - 1).T
    if width > 1 and ((commas[0] < line_start).any() or (commas[-1] >= line_end).any()):
        return None
    start = np.empty((width, rows), np.int64)
    start[0] = line_start
    start[1:] = commas + 1
    length = np.empty((width, rows), np.int64)
    length[:-1] = commas
    length[-1] = line_end
    length -= start
    if length.max() > field_limit:
        return None
    return start, length


def _decode_slice(piece: str, columns, field_limit: int) -> np.ndarray | None:
    """The codes of the rows of ``piece``, whole lines of text holding no
    ``"`` and no NUL, as a (width, rows) array; or None at anything the CSV
    reader might read otherwise or refuse (see :func:`_split_slice`), at an
    illegal cell, or at a hash that groups two different cell texts.

    Each column's cells are grouped by a key and only one cell of each group
    is decoded, through its column's memo. A cell of at most 8 bytes is its
    own key: its bytes in one word, whose zero bytes past the cell's end
    tell its length, as no cell holds a NUL. A longer cell's key is a hash
    of its words and its length, so each such cell is checked word for word
    against its neighbour in its group."""
    width = len(columns)
    raw = piece.encode("utf-8", "surrogatepass")
    size = len(raw)
    raw += bytes(8)  # so that a word can be read at any cell's start
    b = np.frombuffer(raw, np.uint8)
    cells = _split_slice(b[:size], width, field_limit)
    if cells is None:
        return None
    start, length = cells[0].ravel(), cells[1].ravel()  # column by column
    rows = cells[0].shape[1]

    windows = np.ndarray(size + 1, "<u8", raw, strides=(1,))  # the 8 bytes from each offset
    key = windows[start] & _WORD_MASKS[np.minimum(length, 8)]
    is_long = length > 8
    long = np.flatnonzero(is_long)
    if len(long):
        words, k, first = _words(windows, start[long], length[long])
        key[long] = (np.add.reduceat(words * _HASH_FACTORS[0] ** k.astype(np.uint64), first)
                     + length[long].astype(np.uint64) * _HASH_FACTORS[1])
    order = np.argsort(key.reshape(width, rows), axis=1)
    order += np.arange(0, width * rows, rows)[:, None]
    order = order.ravel()  # cells sorted by key within each column
    key = key[order]
    new = np.empty(len(order), bool)  # where a group starts
    np.not_equal(key[1:], key[:-1], out=new[1:])
    new[::rows] = True
    # a group that holds a long cell must hold one text
    is_long = is_long[order]
    pairs = np.flatnonzero(~new[1:] & (is_long[1:] | is_long[:-1])) + 1
    if len(pairs):
        cell, neighbour = order[pairs], order[pairs - 1]
        if (not np.array_equal(length[cell], length[neighbour])
                or not np.array_equal(_words(windows, start[cell], length[cell])[0],
                                      _words(windows, start[neighbour], length[cell])[0])):
            return None

    # decode one cell of each group; groups come in column order
    reps = order[new]
    span = length[reps] + 1  # the cell and the comma or line end after it
    at = np.cumsum(span)
    chars = b[np.repeat(start[reps] - (at - span), span) + np.arange(at[-1])]
    chars[at - 1] = 44
    texts = chars.tobytes().decode("utf-8", "surrogatepass").split(",")
    bounds = np.cumsum(new.reshape(width, rows).sum(axis=1)).tolist()
    codes = np.empty(len(reps), np.int32)
    lo = 0
    for (_, lookup, dtype, _), hi in zip(columns, bounds):
        try:
            codes[lo:hi] = np.fromiter(map(lookup.__getitem__, texts[lo:hi]), dtype, hi - lo)
        except (LookupError, ValueError):
            return None
        lo = hi
    coded = np.empty(len(order), np.int32)
    coded[order] = codes[np.cumsum(new) - 1]
    return coded.reshape(width, rows)


def _load_quote_free(text: str, schema: Schema) -> Dataset | None:
    """The dataset in ``text``, which holds no ``"``, split by
    :func:`_decode_slice`; or None where the CSV path must decide, as at a
    NUL (which Python 3.10's CSV reader refuses)."""
    if "\0" in text:
        return None
    end = _LINE_END.search(text)
    cut = end.end() if end else len(text)
    try:
        columns = _columns(next(csv.reader([text[:cut]]), ()), schema)
    except (RiskbnError, csv.Error):
        return None
    field_limit = csv.field_size_limit()
    n = 0
    for piece in _slices(text, cut):
        coded = _decode_slice(piece, columns, field_limit)
        if coded is None:
            return None
        for (_, _, dtype, pieces), column in zip(columns, coded):
            pieces.append(column.astype(dtype))
        n += coded.shape[1]
    return _dataset(schema, n, columns)


def load_dataset(text: str, schema: Schema) -> Dataset:
    """Parse the dataset CSV format.

    First row holds column headers; cells that are empty or ``?`` are
    missing, and cells are stripped of surrounding whitespace. Errors carry
    1-based data-row numbers and column names. Precedence: a line the CSV
    reader cannot split, then the header (an empty file or a blank first
    line is a ragged row 0), then the first illegal cell in row-major order,
    then the first row whose width differs from the header's.

    Two tokenizers read CSV text, with the same result and the same error.
    A text holding no ``"`` is split by numpy, one slice at a time: each
    slice is encoded once, its commas and line ends are found by vector
    compares, and only each column's distinct cell texts are decoded.
    Anything out of the way (a NUL, a ragged or blank line, a field past
    ``csv.field_size_limit()``, an illegal cell) makes the numpy path give
    up without raising, and the whole text goes to the CSV reader, which
    raises the error. The CSV reader reads every other text from the start.

    The memory held does not grow with the file beyond the decoded columns:
    both paths read slices of ``text`` of at least ``_SLICE_CHARS``
    characters (no whole copy of it is made), and the CSV reader's rows are
    gathered ``_CHUNK_ROWS`` at a time into a flat cell list. Both decode
    each column through one memo of its distinct cell texts, kept for the
    whole file. No result depends on either constant.
    """
    if '"' not in text:
        dataset = _load_quote_free(text, schema)
        if dataset is not None:
            return dataset
    reader = csv.reader(_lines(text))
    try:
        try:
            return _read_rows(reader, schema)
        except RiskbnError:
            for _ in reader:  # an unsplittable line anywhere still wins
                pass
            raise
    except csv.Error as exc:
        raise MalformedCsv(f"line {reader.line_num}: {exc}") from None


def _csv_field(value: str, alone: bool) -> str:
    """``value`` as ``csv.writer`` renders it in a row, ``alone`` in a
    one-column row (where an empty field is written as ``""``)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value] if alone else [value, ""])
    return buf.getvalue()[:-1 if alone else -2]


def save_dataset(dataset: Dataset) -> str:
    """Render a dataset back to CSV; inverse of :func:`load_dataset`. The
    text is that of :func:`render_dataset` joined."""
    return "".join(render_dataset(dataset))


def render_dataset(dataset: Dataset) -> Iterator[str]:
    """The text of :func:`save_dataset` in pieces: the header line, then
    blocks of ``_CHUNK_ROWS`` rows, so that a writer of the pieces holds one
    block of rows at a time and never the whole text.

    The output is byte for byte what ``csv.writer`` (minimal quoting,
    ``\\n`` line ends) writes row by row. Each state label is quoted once.
    Neighbouring categorical columns are fused into runs whose joint labels
    (``"a,b,c"``) number at most ``_MAX_RUN_LABELS``. In each block, a run
    is rendered by indexing its label array with the run's combined codes,
    and the rows are joined from the runs.
    """
    header = [v.name for v in dataset.schema.variables if v.name in dataset.columns]
    header += [name for name in dataset.schema.response_time_columns
               if name in dataset.response_times]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    yield buf.getvalue()
    alone = len(header) == 1
    missing = _csv_field("", alone)
    spec_by_name = {v.name: v for v in dataset.schema.variables}
    runs: list[tuple[list[str], list[tuple[np.ndarray, int]]]] = []  # (labels, members)
    for name in header:
        if name in dataset.columns:
            labels = [_csv_field(s, alone) for s in spec_by_name[name].states] + [missing]
            members = [(dataset.columns[name], len(labels))]
            if runs and len(runs[-1][0]) * len(labels) <= _MAX_RUN_LABELS:
                run_labels, run_members = runs.pop()
                labels = [f"{a},{b}" for a in run_labels for b in labels]
                members = run_members + members
            runs.append((labels, members))
    label_arrays = [(np.array(labels, dtype=object), members) for labels, members in runs]
    times = [dataset.response_times[name] for name in header if name in dataset.response_times]
    for lo in range(0, dataset.n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, dataset.n)
        columns = []
        for labels, members in label_arrays:
            codes = 0
            for column, size in members:  # -1 -> missing, the last label
                codes = codes * size + column[lo:hi] % np.int64(size)
            columns.append(labels[codes].tolist())
        columns += [[str(v) if v >= 0 else missing for v in column[lo:hi].tolist()]
                    for column in times]
        rows = map(",".join, zip(*columns)) if columns else [""] * (hi - lo)
        yield "\n".join(rows) + "\n"


# --- calibration filters --------------------------------------------------------

@dataclass(frozen=True)
class FilterConfig:
    """Calibration filtering rules.

    ``min_response_time_ms`` flags records with any answered question faster
    than the threshold (None disables the rule); ``require_honesty`` flags
    records whose honesty answer is No. ``action`` is ``drop`` (remove the
    record) or ``blank`` (clear the outcome columns, keep the record).
    """

    min_response_time_ms: int | None = 800
    require_honesty: bool = False
    action: str = "drop"

    def __post_init__(self):
        if self.min_response_time_ms is not None and self.min_response_time_ms < 0:
            raise SchemaMismatch("response-time threshold must be >= 0")
        if self.action not in ("drop", "blank"):
            raise SchemaMismatch("filter action must be 'drop' or 'blank'")


@dataclass(frozen=True)
class FilterReport:
    n_input: int
    n_output: int
    flagged_response_time: int
    flagged_honesty: int
    action: str


def apply_filters(dataset: Dataset, config: FilterConfig) -> tuple[Dataset, FilterReport]:
    """Apply calibration filters; surviving records are never altered
    beyond membership (drop) or outcome blanking (blank)."""
    n = dataset.n
    rt_bad = np.zeros(n, dtype=bool)
    honesty_bad = np.zeros(n, dtype=bool)

    if config.min_response_time_ms is not None:
        if not dataset.response_times:
            raise MissingMetaColumn(
                "response-time filter is on but the dataset has no rt_* columns"
            )
        for col in dataset.response_times.values():
            rt_bad |= (col >= 0) & (col < config.min_response_time_ms)

    if config.require_honesty:
        honesty_col = dataset.columns.get("honesty")
        if honesty_col is None:
            raise MissingMetaColumn(
                "honesty filter is on but the dataset has no honesty column"
            )
        spec = dataset.schema.get("honesty")
        no_idx = spec.states.index("No")
        honesty_bad = honesty_col == no_idx

    flagged = rt_bad | honesty_bad
    if config.action == "drop":
        keep = ~flagged
        columns = {k: v[keep].copy() for k, v in dataset.columns.items()}
        rts = {k: v[keep].copy() for k, v in dataset.response_times.items()}
        out = Dataset(dataset.schema, int(keep.sum()), columns, rts, dataset.provenance)
    else:
        outcome_names = {v.name for v in dataset.schema.variables if v.kind == "outcome"}
        columns = {}
        for k, v in dataset.columns.items():
            if k in outcome_names:
                v = v.copy()
                v[flagged] = -1
            else:
                v = v.copy()
            columns[k] = v
        rts = {k: v.copy() for k, v in dataset.response_times.items()}
        out = Dataset(dataset.schema, n, columns, rts, dataset.provenance)
    report = FilterReport(
        n_input=n,
        n_output=out.n,
        flagged_response_time=int(rt_bad.sum()),
        flagged_honesty=int(honesty_bad.sum()),
        action=config.action,
    )
    return out, report


# --- summaries ------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryRow:
    variable: str
    state: str
    count: int
    percent: float | None  # None when the variable has no observed cells


def summarize(dataset: Dataset) -> tuple[SummaryRow, ...]:
    """Marginal frequency table: per state, count and percent among the
    variable's observed cells (percent absent when nothing observed)."""
    out: list[SummaryRow] = []
    for v in dataset.schema.variables:
        if v.kind == "meta":
            continue
        col = dataset.columns.get(v.name)
        if col is None:
            counts = np.zeros(len(v.states), dtype=np.int64)
        else:
            counts = np.bincount(col[col >= 0], minlength=len(v.states)).astype(np.int64)
        observed = int(counts.sum())
        for s, state in enumerate(v.states):
            pct = (100.0 * counts[s] / observed) if observed else None
            out.append(SummaryRow(v.name, state, int(counts[s]), pct))
    return tuple(out)


# --- synthetic generator ----------------------------------------------------------

# Additive risk scores for the two outcome variables: probability of "Yes"
# is base + sum of per-state loadings, clipped to [0.005, 0.95].
_VICTIMIZATION_BASE = 0.16
_VICTIMIZATION_LOADINGS: dict[str, tuple[float, ...]] = {
    "Gender": (0.02, 0.0, 0.03),
    "Age": (0.0, 0.005, 0.01, 0.015, 0.02),
    "Sexual_Orientation": (0.0, 0.05, 0.01),
    "Migratory_Background": (0.0, 0.02, 0.03),
    "Self_Esteem": (0.05, 0.02, 0.0),
    "Social_Support": (0.06, 0.03, 0.0),
    "Family_Support": (0.05, 0.02, 0.0),
    "Daily_Hours_Internet": (0.0, 0.01, 0.02, 0.03, 0.05),
    "Empathy": (0.0, 0.0),
}

_OFFENDING_BASE = 0.008
_OFFENDING_VICTIMIZATION_LOADING = (0.19, 0.0)  # (Yes, No)
_OFFENDING_LOADINGS: dict[str, tuple[float, ...]] = {
    "Gender": (0.024, 0.0, 0.008),
    "Age": (0.0, 0.002, 0.006, 0.009, 0.013),
    "Sexual_Orientation": (0.0, 0.006, 0.003),
    "Migratory_Background": (0.0, 0.005, 0.010),
    "Self_Esteem": (0.0, 0.006, 0.022),
    "Social_Support": (0.019, 0.008, 0.0),
    "Family_Support": (0.018, 0.007, 0.0),
    "Daily_Hours_Internet": (0.0, 0.003, 0.007, 0.013, 0.021),
    "Empathy": (0.019, 0.0),
}

# Answer distributions per offending state, (Yes row, No row). Separation
# between the two rows sets each question's influence on the outcome; the
# control question is sampled independently of everything.
_GAME_CPTS: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    "A1Q2_Sociable": ((0.62, 0.38), (0.45, 0.55)),
    "A1Q3_MatthewMeme": ((0.55, 0.30, 0.15), (0.22, 0.42, 0.36)),
    "A3Q1_PiratedContent": ((0.60, 0.40), (0.48, 0.52)),
    "A3Q2_PolOrPaula": ((0.18, 0.50, 0.32), (0.42, 0.22, 0.36)),
    "A3Q3_TimeOverrun": ((0.70, 0.30), (0.45, 0.55)),
    "A3Q4_PolBullied": ((0.48, 0.34, 0.18), (0.11, 0.32, 0.57)),
    "A3Q5_RemindMatthew": ((0.20, 0.17, 0.63), (0.53, 0.33, 0.14)),
    "A3Q6_TalkToPol": ((0.62, 0.38), (0.33, 0.67)),
    "A3Q7_HowToHelpPol": ((0.06, 0.13, 0.25, 0.56), (0.41, 0.31, 0.20, 0.08)),
}

_PROFILING_ORDER = (
    "Gender", "Age", "Sexual_Orientation", "Migratory_Background",
    "Self_Esteem", "Social_Support", "Family_Support",
    "Daily_Hours_Internet", "Empathy",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """A sampling network plus the calibration and planting it encodes."""

    network: Network
    calibration: dict[str, dict[str, float]]
    outcome: str
    planted_profiling: tuple[str, str]   # (variable, risky state)
    strongest_game: str
    control: str
    seed: int


def _score_rows(parents: Sequence[VariableSpec], base: float,
                loadings: Mapping[str, tuple[float, ...]]) -> np.ndarray:
    """Yes/No CPT rows for an additive risk score over all parent configs."""
    cards = [p.cardinality for p in parents]
    n_rows = int(np.prod(cards))
    config = np.stack(np.unravel_index(np.arange(n_rows), cards), axis=1)
    score = np.full(n_rows, base, dtype=np.float64)
    for j, p in enumerate(parents):
        score += np.asarray(loadings[p.name], dtype=np.float64)[config[:, j]]
    p_yes = np.clip(score, 0.005, 0.95)
    return np.stack([p_yes, 1.0 - p_yes], axis=1)


def default_dag(schema: Schema | None = None) -> DagStructure:
    """Illustrative placeholder structure (the published expert graph is not
    machine-readable): profiling variables feed both outcomes, victimization
    feeds offending, offending drives every game answer except the control,
    and the control is isolated. Override with any model file."""
    schema = schema or default_schema()
    names = tuple(v.name for v in schema.network_variables)
    edges: list[tuple[str, str]] = []
    for p in _PROFILING_ORDER:
        edges.append((p, "Previous_CB_Victimization"))
        edges.append((p, DEFAULT_OUTCOME))
    edges.append(("Previous_CB_Victimization", DEFAULT_OUTCOME))
    for name, _ in _GAME_QUESTIONS:
        if name != DEFAULT_CONTROL:
            edges.append((DEFAULT_OUTCOME, name))
    return DagStructure(names, tuple(edges))


def build_default_generator(seed: int = 0) -> GeneratorSpec:
    """Construct the calibrated synthetic generator network."""
    schema = default_schema()
    specs = {v.name: v for v in schema.network_variables}
    targets = calibration_targets()
    dag = default_dag(schema)

    cpts: list[Cpt] = []
    for name in _PROFILING_ORDER:
        spec = specs[name]
        row = [targets[name][s] for s in spec.states]
        cpts.append(Cpt(name, (), [row]))

    profiling_specs = [specs[p] for p in _PROFILING_ORDER]
    cpts.append(Cpt(
        "Previous_CB_Victimization", tuple(_PROFILING_ORDER),
        _score_rows(profiling_specs, _VICTIMIZATION_BASE, _VICTIMIZATION_LOADINGS),
    ))

    offending_parents = tuple(_PROFILING_ORDER) + ("Previous_CB_Victimization",)
    offending_parent_specs = profiling_specs + [specs["Previous_CB_Victimization"]]
    loadings = dict(_OFFENDING_LOADINGS)
    loadings["Previous_CB_Victimization"] = _OFFENDING_VICTIMIZATION_LOADING
    cpts.append(Cpt(
        DEFAULT_OUTCOME, offending_parents,
        _score_rows(offending_parent_specs, _OFFENDING_BASE, loadings),
    ))

    n_control = specs[DEFAULT_CONTROL].cardinality
    cpts.append(Cpt(DEFAULT_CONTROL, (), [[1.0 / n_control] * n_control]))
    for name, rows in _GAME_CPTS.items():
        cpts.append(Cpt(name, (DEFAULT_OUTCOME,), list(rows)))

    network = build_network(schema.network_variables, dag, cpts)
    return GeneratorSpec(
        network=network,
        calibration=targets,
        outcome=DEFAULT_OUTCOME,
        planted_profiling=("Previous_CB_Victimization", "Yes"),
        strongest_game="A3Q7_HowToHelpPol",
        control=DEFAULT_CONTROL,
        seed=int(seed),
    )


def simulate_dataset(n: int, seed: int, network: Network | None = None,
                     schema: Schema | None = None) -> Dataset:
    """Ancestral-sample a dataset from the default (or given) generator."""
    if network is None:
        network = build_default_generator(seed).network
    schema = schema or default_schema()
    batch = ancestral_sample(network, n, seed)
    return dataset_from_batch(batch, schema)
