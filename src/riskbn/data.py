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
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import DEFAULT_CONTROL, DEFAULT_OUTCOME
from .core import (
    Cpt,
    DagStructure,
    Network,
    VariableSpec,
    build_network,
)
from .errors import (
    IllegalState,
    MalformedCsv,
    MissingMetaColumn,
    NotUtf8,
    RaggedRow,
    RiskbnError,
    SchemaMismatch,
    UnknownColumn,
)
# _CHUNK_ROWS: rows render_dataset and render_simulated render at once
from .inference import _CHUNK_ROWS, SampleBatch, ancestral_sample, sample_blocks

MISSING_TOKENS = ("", "?")
_RT_MAX = int(np.iinfo(np.int32).max)  # response times are stored as int32
_MAX_RUN_LABELS = 4096  # joint labels of one fused column run in save_dataset
_SLICE_BYTES = 1 << 18  # bytes of its input load_dataset reads at once, at least
_FIELD_LIMIT = 131_072  # bytes in one field at most (the csv module's default limit)
_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, which Excel writes

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
    """Memo from a column's cell text to its code. A cell not seen before
    is stripped and passed to ``decode``, which returns the code (-1 for a
    missing token) or raises LookupError or ValueError for an illegal cell,
    whose code is None."""

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, cell: str) -> int | None:
        try:
            code = self[cell] = self.decode(cell.strip())
        except (LookupError, ValueError):
            code = self[cell] = None
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


def _slices(source: bytes | BinaryIO, check: bool = False) -> Iterator[bytes]:
    """Successive slices of the bytes ``source`` holds or reads; a file is
    read as it is consumed, ``_SLICE_BYTES`` at a time, so a pipe works.
    Each slice ends just after the last line end (``\\r\\n``, ``\\n`` or a
    bare ``\\r``) outside quotes among the bytes read, or at the end of the
    input, so no record, and no UTF-8 character, straddles two slices. A
    byte is outside quotes where the quotes before it are even in number.
    While the last line end read is not such a one, each read doubles, so a
    long record costs time linear in its length.

    With ``check``, each slice is checked as strict UTF-8 as it is read
    (NotUtf8 names the input offset of the first bad byte), and a leading
    byte-order mark is dropped."""
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)  # shares the bytes; reads copy a slice at a time
    buf, at, eof = b"", 0, False  # ``at``: the input offset of ``buf``
    while not eof:
        more = source.read(max(_SLICE_BYTES, len(buf)))
        eof = not more
        buf += more
        # a \r that ends what was read may be the first half of a \r\n
        last = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - (not eof)))
        if (buf.find(b'"', 0, last) >= 0
                and np.count_nonzero(np.frombuffer(buf, np.uint8, max(last, 0)) == 34) % 2):
            last = -1  # that line end is inside quotes: read on
        cut = len(buf) if eof else last + 1
        if cut == 0:
            continue
        piece, buf = buf[:cut], buf[cut:]
        if check and not piece.isascii():
            try:
                piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NotUtf8("dataset", at + exc.start) from None
            if at == 0 and piece.startswith(_BOM):
                piece = piece[len(_BOM):]
        at += cut
        if piece:
            yield piece


def _field_text(raw: bytes, start: int, end: int) -> str:
    """The cell text of the field ``raw[start:end]``: without its quotes, if
    it is quoted, and with each ``""`` inside them read as one ``"``."""
    text = raw[start:end].decode("utf-8", "surrogatepass")
    return text[1:-1].replace('""', '"') if text.startswith('"') else text


class _Codes:
    """A column's decoded codes, appended a piece at a time. The pieces are
    joined into one array whenever they hold a quarter as many codes as it,
    so they never hold more than a fifth of the codes. Pieces kept apart to
    the end would sit in small blocks between the reader's temporaries,
    which the allocator cannot give back, and joining them at the end would
    hold the codes twice over. Each code is copied about five times."""

    def __init__(self, dtype):
        self.joined = np.empty(0, dtype)
        self.pieces: list[np.ndarray] = []
        self.waiting = 0  # codes in ``pieces``

    def append(self, piece: np.ndarray) -> None:
        self.pieces.append(piece)
        self.waiting += len(piece)
        if 4 * self.waiting >= len(self.joined):
            self.join()

    def join(self) -> np.ndarray:
        """Every code appended, in one array, which the column keeps."""
        if self.pieces:
            self.joined = np.concatenate([self.joined, *self.pieces])
            self.pieces.clear()
            self.waiting = 0
        return self.joined


def _columns(header_row: Sequence[str], schema: Schema) -> list:
    """Check a header row and give each of its columns a
    (name, memo, dtype, decoded codes) entry."""
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
        columns.append((name, lookup, dtype, _Codes(dtype)))
    return columns


def _dataset(schema: Schema, n: int, columns) -> Dataset:
    """The dataset of the decoded columns."""
    spec_by_name = {v.name: v for v in schema.variables}
    cat_cols: dict[str, np.ndarray] = {}
    rt_cols: dict[str, np.ndarray] = {}
    for name, _, _, codes in columns:
        (cat_cols if name in spec_by_name else rt_cols)[name] = codes.join()
    return Dataset(schema, n, cat_cols, rt_cols, "ingest")


# _WORD_MASKS[r] keeps the first r bytes of a little-endian 8-byte word
_WORD_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_HASH_FACTORS = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9], dtype=np.uint64)
# the bytes that may stand next to a quote outside it: a comma, a line end or a quote
_BESIDE_QUOTE = np.array([c in b',\n\r"' for c in range(256)])


def _split(b: np.ndarray, size: int, lines: int, quoted: bool):
    """The records of a slice, the first ``size`` bytes of ``b`` (``quoted``
    if they hold a ``"``), after ``lines`` lines of the input: where each
    starts and ends, the commas outside quotes, and the slice's line count.

    A ``"`` opens a quoted field only at a field's start; inside quotes,
    commas and line ends are data and ``""`` is one ``"``. MalformedCsv,
    naming its line, at the first field past ``_FIELD_LIMIT`` bytes or
    malformed quote: one in an unquoted field (``Ma"le``), text after a
    closing quote (``"Ma"le``), or a quote open at the end of the input."""
    data = b[:size]
    # line ends: \n, \r, and \r\n counted once, at its \r
    breaks = np.flatnonzero((data == 10) | (data == 13))
    pair = np.zeros(len(breaks), bool)
    pair[:-1] = (breaks[1:] == breaks[:-1] + 1) & (b[breaks[:-1]] == 13) & (b[breaks[1:]] == 10)
    keep = np.ones(len(breaks), bool)
    keep[1:] = ~pair[:-1]
    lines_end = line_end = breaks[keep]
    next_line = line_end + 1 + pair[keep]
    commas = np.flatnonzero(data == 44)
    errors = []  # (offset, rank, message); the least wins
    if quoted:
        is_quote = data == 34
        quotes, inside = np.flatnonzero(is_quote), np.logical_xor.accumulate(is_quote)
        outside = ~inside[line_end]
        line_end, next_line = line_end[outside], next_line[outside]
        commas = commas[~inside[commas]]
        opening, closing = quotes[::2], quotes[1::2]  # the padding after ``data`` is no quote
        stray = opening[(opening > 0) & ~_BESIDE_QUOTE[b[opening - 1]]]
        after = closing[(closing + 1 < size) & ~_BESIDE_QUOTE[b[closing + 1]]]
        errors += [(at[0], 1, message) for at, message in (
            (stray, "a quote inside an unquoted field"), (after, "text after a closing quote"))
            if len(at)]
        if len(quotes) % 2:  # only the input's last slice can end inside quotes
            opener = opening[(opening == 0) | (b[opening - 1] != 34)][-1]
            errors.append((opener, 2, "a quoted field still open at the end of the input"))
    if not len(line_end) or next_line[-1] < size:  # the last record has no line end
        line_end = np.append(line_end, size)
        next_line = np.append(next_line, size + 1)
    line_start = np.append(0, next_line[:-1])
    for r in np.flatnonzero(line_end - line_start > _FIELD_LIMIT):  # only these hold a long field
        inner = commas[(commas >= line_start[r]) & (commas < line_end[r])]
        ends = np.concatenate([[line_start[r] - 1], inner, [line_end[r]]])  # around each field
        over = np.flatnonzero(np.diff(ends) > _FIELD_LIMIT + 1)
        if len(over):
            errors.append((ends[over[0]] + 1, 0, f"field larger than field limit ({_FIELD_LIMIT})"))
            break
    if errors:
        at, _, message = min(errors)
        raise MalformedCsv(f"line {lines + 1 + np.searchsorted(lines_end, at)}: {message}")
    return line_start, line_end, commas, len(lines_end)


def _cells(line_start, line_end, commas, width: int):
    """Where the cells of records of ``width`` fields start and how long they
    are: two (width, rows) arrays, a row per record, for the records before
    the first of another width (a blank record has none); that record's
    width, or None."""
    rows, ragged = len(line_end), None
    fields = commas.reshape(rows, width - 1).T if len(commas) == rows * (width - 1) else None
    if (fields is None or not (line_end > line_start).all()
            or width > 1 and ((fields[0] < line_start).any() or (fields[-1] >= line_end).any())):
        widths = np.diff(np.searchsorted(commas, line_end), prepend=0) + 1
        widths[line_end == line_start] = 0
        rows = int(np.flatnonzero(widths != width)[0])
        ragged = int(widths[rows])
        line_start, line_end = line_start[:rows], line_end[:rows]
        fields = commas[:rows * (width - 1)].reshape(rows, width - 1).T
    start = np.empty((width, rows), np.int64)
    start[0] = line_start
    start[1:] = fields + 1
    length = np.empty((width, rows), np.int64)
    length[:-1] = fields
    length[-1] = line_end
    length -= start
    return start, length, ragged


def _words(windows: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The 8-byte words that cover each cell (the words at 0, 8, 16, ...
    bytes into it, its last 8 bytes for the last one; a cell of fewer than
    8 bytes, which must not be empty, is its one word, masked), all cells'
    words in one array (a row of them for each row of ``start``, the cells'
    starts, one ``length`` for all rows); each word's number in its cell;
    and where each cell's words begin."""
    count = (length + 7) >> 3
    first = np.cumsum(count) - count
    k = np.arange(count.sum()) - np.repeat(first, count)
    offset = np.minimum(8 * k, np.repeat(np.maximum(length - 8, 0), count))
    words = windows[np.repeat(start, count, axis=-1) + offset]
    short = np.flatnonzero(length < 8)
    if len(short):
        words[..., first[short]] &= _WORD_MASKS[length[short]]
    return words, k, first


def _decode(raw: bytes, start: np.ndarray, length: np.ndarray, columns, n: int,
            quoted: bool, nul: bool) -> np.ndarray:
    """The codes of the cells of ``raw`` (which ends in 8 bytes of padding)
    at ``start`` and ``length`` (see :func:`_cells`), as a (width, rows)
    array; ``quoted`` and ``nul``: the cells hold a ``"`` or a NUL.
    IllegalState, the data rows numbered after ``n``, at the first illegal
    cell in row-major order.

    Each column's cells are grouped by a key, a quoted cell's by its text
    inside the quotes, and only one cell of each group is decoded, through
    its column's memo. A cell of at most 8 bytes is its own key: its bytes
    in one word, whose zero bytes past its end tell its length where no
    cell holds a NUL. Other cells but empty ones are keyed by a hash of
    their words and length, and checked word for word against their
    neighbour in their group, which is split where two texts meet."""
    width, rows = start.shape
    b = np.frombuffer(raw, np.uint8)
    start, length = start.ravel(), length.ravel()  # column by column
    if quoted:
        inner = b[start] == 34
        start, length = start + inner, length - 2 * inner

    windows = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))  # the 8 bytes from each offset
    key = windows[start] & _WORD_MASKS[np.minimum(length, 8)]
    is_long = length > (0 if nul else 8)
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
        least = np.maximum(np.minimum(length[cell], length[neighbour]), 1)  # bytes both hold
        words, _, first = _words(windows, np.stack([start[cell], start[neighbour]]), least)
        differ = words[0] != words[1]
        new[pairs] = length[cell] != length[neighbour]
        if differ.any():
            new[pairs] |= np.logical_or.reduceat(differ, first)

    # decode one cell of each group; groups come in column order
    reps = order[new]
    span = length[reps] + 1  # the cell and the comma or line end after it
    at = np.cumsum(span)
    chars = b[np.repeat(start[reps] - (at - span), span) + np.arange(at[-1])]
    special = ()
    if quoted:  # a cell that holds a comma or a "" is decoded on its own
        inside = (chars == 34) | (chars == 44)
        inside[at - 1] = False
        special = np.unique(np.searchsorted(at, np.flatnonzero(inside), "right")).tolist()
        chars[inside] = 34
    chars[at - 1] = 44
    texts = chars.tobytes().decode("utf-8", "surrogatepass").split(",")
    for g in special:
        texts[g] = _field_text(raw, start[reps[g]] - 1, start[reps[g]] + length[reps[g]] + 1)
    bounds = np.cumsum(new.reshape(width, rows).sum(axis=1)).tolist()
    group = np.cumsum(new) - 1
    codes = np.empty(len(reps), np.int32)
    illegal = []  # (row, column index, name, cell)
    lo = 0
    for j, ((name, lookup, dtype, _), hi) in enumerate(zip(columns, bounds)):
        try:
            codes[lo:hi] = np.fromiter(map(lookup.__getitem__, texts[lo:hi]), dtype, hi - lo)
        except TypeError:  # a code of None: an illegal cell
            bad = np.isin(group, [g for g in range(lo, hi) if lookup[texts[g]] is None])
            first = np.flatnonzero(bad)[np.argmin(order[bad])]
            illegal.append((order[first] - j * rows, j, name, texts[group[first]].strip()))
        lo = hi
    if illegal:
        i, _, name, cell = min(illegal)
        raise IllegalState(cell, n + i + 1, name)
    coded = np.empty(len(order), np.int32)
    coded[order] = codes[group]
    return coded.reshape(width, rows)


def load_dataset(data: str | bytes | BinaryIO, schema: Schema) -> Dataset:
    """Parse the dataset CSV format, given as text, as the bytes of a file,
    or as a binary file open for reading (read to its end, once, from where
    it stands; a pipe works).

    Bytes must be UTF-8 (NotUtf8, at the offset of the first bad byte, comes
    before any other error) and may begin with a byte-order mark, which is
    skipped. Text is read as its UTF-8 encoding.

    First row holds column headers; cells that are empty or ``?`` are
    missing, and cells are stripped of surrounding whitespace. Fields are
    those of RFC 4180: a quoted field holds commas, line ends and ``""`` for
    a ``"``. Records end at ``\\n``, ``\\r\\n`` or a bare ``\\r``. Errors
    carry 1-based data-row numbers and column names. Precedence: a line
    that cannot be split (a malformed quote or a field past ``_FIELD_LIMIT``
    bytes; see :func:`_split`), then the header (an empty file or a blank
    first line is a ragged row 0), then the first illegal cell in row-major
    order, then the first row whose width differs from the header's.

    The input is read one slice of whole records at a time
    (:func:`_slices`), and each slice is split by numpy: the commas and line
    ends outside quotes are found by vector compares, and only each
    column's distinct cell texts are decoded (:func:`_decode`), through one
    memo per column kept for the whole input. On the first error the rest
    of the input is still split, so that an error of higher precedence
    anywhere in it wins. The memory held does not grow with the input
    beyond the decoded columns (and, for text, its encoding). No result
    depends on the slice size.
    """
    text = isinstance(data, str)
    slices = _slices(data.encode("utf-8", "surrogatepass") if text else data, check=not text)
    columns, error, n, lines = None, None, 0, 0
    for piece in slices:
        if isinstance(error, MalformedCsv):
            continue  # read on: a byte not UTF-8 anywhere still wins
        quoted = b'"' in piece
        raw = piece + bytes(8)  # so that a word can be read at any cell's start
        try:
            line_start, line_end, commas, count = _split(
                np.frombuffer(raw, np.uint8), len(piece), lines, quoted)
            lines += count
            if error is not None:
                continue  # only an unsplittable line can still win
            if columns is None:  # the first record is the header
                header = np.searchsorted(commas, line_end[0])
                bounds = [-1, *commas[:header].tolist(), int(line_end[0])]
                columns = _columns([_field_text(raw, lo + 1, hi) for lo, hi
                                    in zip(bounds, bounds[1:])] if line_end[0] else [], schema)
                line_start, line_end, commas = line_start[1:], line_end[1:], commas[header:]
            start, length, ragged = _cells(line_start, line_end, commas, len(columns))
            if start.shape[1]:
                coded = _decode(raw, start, length, columns, n, quoted, b"\0" in piece)
                for (_, _, dtype, codes), column in zip(columns, coded):
                    codes.append(column.astype(dtype))
                n += coded.shape[1]
            if ragged is not None:
                raise RaggedRow(n + 1, len(columns), ragged)
        except RiskbnError as exc:
            error = exc
    if error is not None or columns is None:  # None, None: an empty input
        raise error or RaggedRow(0, 1, 0)
    return _dataset(schema, n, columns)


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
    names = [v.name for v in dataset.schema.variables if v.name in dataset.columns]
    times = [name for name in dataset.schema.response_time_columns
             if name in dataset.response_times]
    blocks = ((min(_CHUNK_ROWS, dataset.n - lo),
               [dataset.columns[k][lo:lo + _CHUNK_ROWS] for k in names],
               [dataset.response_times[k][lo:lo + _CHUNK_ROWS] for k in times])
              for lo in range(0, dataset.n, _CHUNK_ROWS))
    return _render_csv(dataset.schema, names, times, blocks)


def _render_csv(schema: Schema, names: list[str], times: list[str], blocks) -> Iterator[str]:
    """The header line of the categorical columns ``names`` and the
    response-time columns ``times``, then the text of each block: its
    number of rows, and a list of those rows' codes for each kind of
    column."""
    header = names + times
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    yield buf.getvalue()
    alone = len(header) == 1
    missing = _csv_field("", alone)
    spec_by_name = {v.name: v for v in schema.variables}
    runs: list[tuple[list[str], list[tuple[int, int]]]] = []  # (labels, (column, labels) members)
    for j, name in enumerate(names):
        labels = [_csv_field(s, alone) for s in spec_by_name[name].states] + [missing]
        members = [(j, len(labels))]
        if runs and len(runs[-1][0]) * len(labels) <= _MAX_RUN_LABELS:
            run_labels, run_members = runs.pop()
            labels = [f"{a},{b}" for a in run_labels for b in labels]
            members = run_members + members
        runs.append((labels, members))
    label_arrays = [(np.array(labels, dtype=object), members) for labels, members in runs]
    for size, codes_block, times_block in blocks:
        yield _render_block(label_arrays, missing, size, codes_block, times_block)


def _render_block(label_arrays, missing: str, size: int, codes_block, times_block) -> str:
    """The text of one block of rows (see :func:`_render_csv`). Its row
    texts are locals, so none outlives the block's text."""
    columns = []
    for labels, members in label_arrays:
        codes = 0
        for j, labels_j in members:  # -1 -> missing, the last label
            codes = codes * labels_j + codes_block[j] % np.int64(labels_j)
        columns.append(labels[codes].tolist())
    columns += [[str(v) if v >= 0 else missing for v in column.tolist()]
                for column in times_block]
    rows = list(map(",".join, zip(*columns))) if columns else [""] * size
    rows.append("")  # the block's last line end, without a second copy of its text
    return "\n".join(rows)


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
        states = dataset.schema.get("honesty").states
        if "No" not in states:
            raise SchemaMismatch(f"honesty filter needs a 'No' state; honesty has {list(states)}")
        honesty_bad = honesty_col == states.index("No")

    flagged = rt_bad | honesty_bad
    if config.action == "drop":
        keep = ~flagged
        columns = {k: v[keep] for k, v in dataset.columns.items()}
        rts = {k: v[keep] for k, v in dataset.response_times.items()}
        out = Dataset(dataset.schema, int(keep.sum()), columns, rts, dataset.provenance)
    else:
        # only the outcome columns change; every other array is read-only
        # and is shared with the input
        columns = dict(dataset.columns)
        for v in dataset.schema.variables:
            if v.kind == "outcome" and v.name in columns:
                columns[v.name] = np.where(flagged, np.int16(-1), columns[v.name])
        out = replace(dataset, columns=columns)
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
    score = np.full(cards, base, dtype=np.float64)  # one axis per parent, the last fastest
    for j, p in enumerate(parents):
        axis = [1] * len(cards)
        axis[j] = cards[j]
        score += np.asarray(loadings[p.name], dtype=np.float64).reshape(axis)
    p_yes = np.clip(score.ravel(), 0.005, 0.95)
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


def render_simulated(n: int, seed: int, network: Network | None = None,
                     schema: Schema | None = None) -> Iterator[str]:
    """The text of ``save_dataset(simulate_dataset(n, seed, network,
    schema))`` in pieces, sampled (:func:`~riskbn.inference.sample_blocks`)
    and rendered ``_CHUNK_ROWS`` records at a time, so that the sample is
    never held whole. Every refusal comes before the first piece exists."""
    if network is None:
        network = build_default_generator(seed).network
    schema = schema or default_schema()
    for name in network.variables:
        if schema.get(name) is None:
            raise SchemaMismatch(f"sampled variable '{name}' is not in the schema")
    col = {name: j for j, name in enumerate(network.variables)}
    names = [v.name for v in schema.variables if v.name in col]
    blocks = sample_blocks(network, n, seed, _CHUNK_ROWS)
    return _render_csv(schema, names, [],
                       ((len(block), [block[:, col[k]] for k in names], []) for block in blocks))
