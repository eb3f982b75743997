import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import load_dataset_per_row, save_dataset_per_row, split_csv
from riskbn.analysis import influence_strength, risk_profiles
from riskbn.core import VariableSpec
from riskbn.data import (
    CALIBRATION_NOTES,
    PUBLISHED_MARGINALS,
    Dataset,
    FilterConfig,
    Schema,
    _slices,
    apply_filters,
    build_default_generator,
    calibration_targets,
    dataset_from_batch,
    default_dag,
    default_schema,
    load_dataset,
    render_dataset,
    save_dataset,
    simulate_dataset,
    summarize,
)
from riskbn.errors import (
    IllegalState,
    MalformedCsv,
    RiskbnError,
    MissingMetaColumn,
    NotUtf8,
    RaggedRow,
    SchemaMismatch,
    UnknownColumn,
)
from riskbn.inference import marginal

EXPECTED_GAME_STATES = {
    "A1Q1_PhotoSharing": 2, "A1Q2_Sociable": 2, "A1Q3_MatthewMeme": 3,
    "A3Q1_PiratedContent": 2, "A3Q2_PolOrPaula": 3, "A3Q3_TimeOverrun": 2,
    "A3Q4_PolBullied": 3, "A3Q5_RemindMatthew": 3, "A3Q6_TalkToPol": 2,
    "A3Q7_HowToHelpPol": 4,
}


# --- schema ---------------------------------------------------------------------

def test_default_schema_game_question_states_golden():
    schema = default_schema()
    game = {v.name: v.cardinality for v in schema.variables if v.kind == "game"}
    assert game == EXPECTED_GAME_STATES


def test_default_schema_gender_states():
    spec = default_schema().get("Gender")
    assert spec.states == ("Male", "Female", "NonBinary")


def test_default_schema_profiling_cardinalities():
    schema = default_schema()
    cards = {v.name: v.cardinality for v in schema.variables
             if v.kind in ("demographic", "psychological")}
    assert cards == {
        "Gender": 3, "Age": 5, "Sexual_Orientation": 3, "Migratory_Background": 3,
        "Self_Esteem": 3, "Social_Support": 3, "Family_Support": 3,
        "Daily_Hours_Internet": 5, "Empathy": 2,
    }


def test_default_schema_single_offending_outcome():
    schema = default_schema()
    outcomes = [v.name for v in schema.variables if v.kind == "outcome"]
    assert outcomes == ["Previous_CB_Victimization", "Previous_CB_Offending"]
    for v in schema.variables:
        if v.kind == "outcome":
            assert v.states == ("Yes", "No")


def test_default_schema_meta_and_rt_columns():
    schema = default_schema()
    assert [v.name for v in schema.variables if v.kind == "meta"] == ["honesty"]
    assert "rt_A3Q7_HowToHelpPol" in schema.response_time_columns
    assert len(schema.response_time_columns) == 10


def test_calibration_targets_are_distributions_near_published():
    targets = calibration_targets()
    for var, probs in targets.items():
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        for state, p in probs.items():
            pub = PUBLISHED_MARGINALS[var].get(state)
            if pub is not None:
                assert abs(p - pub / 100.0) <= 0.005
    assert "Undisclosed" in targets["Sexual_Orientation"]
    assert "Gender" in CALIBRATION_NOTES


# --- ingestion -------------------------------------------------------------------

def test_header_only_file_is_empty_dataset():
    ds = load_dataset("Gender,Age\n", default_schema())
    assert ds.n == 0
    assert set(ds.columns) == {"Gender", "Age"}


def test_illegal_state_names_row_and_column():
    with pytest.raises(IllegalState) as exc:
        load_dataset("Gender\nMale\nBlue\n", default_schema())
    assert exc.value.row == 2
    assert exc.value.column == "Gender"


def test_question_mark_and_empty_are_missing():
    ds = load_dataset("Gender,Age\n?,12\nMale,\n", default_schema())
    assert ds.n == 2
    assert ds.columns["Gender"][0] == -1
    assert ds.columns["Age"][1] == -1
    assert ds.record(0) == {"Age": "12"}


def test_unknown_column_rejected():
    with pytest.raises(UnknownColumn):
        load_dataset("WrongName\nx\n", default_schema())


def test_ragged_row_rejected():
    with pytest.raises(RaggedRow) as exc:
        load_dataset("Gender,Age\nMale\n", default_schema())
    assert exc.value.row == 1


def test_rt_and_honesty_columns_parse():
    text = "A1Q1_PhotoSharing,rt_A1Q1_PhotoSharing,honesty\nAnswer1,950,Yes\nAnswer2,?,No\n"
    ds = load_dataset(text, default_schema())
    assert ds.response_times["rt_A1Q1_PhotoSharing"][0] == 950
    assert ds.response_times["rt_A1Q1_PhotoSharing"][1] == -1
    assert ds.columns["honesty"][1] == 1


def test_rt_must_be_nonnegative_integer():
    with pytest.raises(IllegalState):
        load_dataset("rt_A1Q1_PhotoSharing\nfast\n", default_schema())
    with pytest.raises(IllegalState):
        load_dataset("rt_A1Q1_PhotoSharing\n-5\n", default_schema())


_COLUMNS = ["Gender", "Age", "honesty", "rt_A1Q1_PhotoSharing", "Nope", "Gender "]
_CELLS = ["", "?", "Male", "12", "Yes", "900", "-5", "3000000000", "1e3", " 7 ", '"', "\r"]


@given(st.one_of(
    st.text(),
    st.tuples(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=4),
              st.lists(st.lists(st.one_of(st.sampled_from(_CELLS), st.text(max_size=4)),
                                max_size=5), max_size=4))
    .map(lambda t: "\n".join(",".join(row) for row in [t[0], *t[1]]))))
@example("rt_A1Q1_PhotoSharing\n3000000000\n")
@example("rt_A1Q1_PhotoSharing\n" + "9" * 5000 + "\n")
@example("Gender\n" + "x" * 200_000 + "\n")  # past the csv module's field limit
@settings(max_examples=300, deadline=None)
def test_load_dataset_parses_or_raises_riskbn_error(text):
    try:
        load_dataset(text, default_schema())
    except RiskbnError:
        pass


def _load_outcome(load, text, schema):
    """Columns of a load, or the error it raised (class and message)."""
    try:
        ds = load(text, schema)
    except RiskbnError as exc:
        return type(exc), str(exc)
    return (ds.n, {k: v.tolist() for k, v in ds.columns.items()},
            {k: v.tolist() for k, v in ds.response_times.items()})


_BOM = b"\xef\xbb\xbf"


def _load_text_and_bytes(text, schema):
    """The outcome of loading ``text``, which must equal that of loading its
    UTF-8 bytes, with and without a byte-order mark before them."""
    outcome = _load_outcome(load_dataset, text, schema)
    assert _load_outcome(load_dataset, text.encode(), schema) == outcome
    assert _load_outcome(load_dataset, _BOM + text.encode(), schema) == outcome
    return outcome


_DIFF_COLUMNS = ["Gender", "Age", "honesty", "rt_A1Q1_PhotoSharing", "rt_A1Q2_Sociable"]
_DIFF_CELLS = ["", "?", " ? ", "Male", " Male ", '"Male"', '" Female "', '"a,b"', "Blue",
               "12", "Yes", "No", "\r", "900", "+5", "5_000", "-5", "2147483647",
               "2147483648", "1e3", '""', '"x""y"', "٣"]
_DIFF_SEPARATORS = ["\n", "\r\n", "\r"]


@given(st.lists(st.sampled_from(_DIFF_COLUMNS), min_size=1, max_size=4),
       st.lists(st.lists(st.sampled_from(_DIFF_CELLS), max_size=5), max_size=6),
       st.sampled_from(_DIFF_SEPARATORS))
@example(["Gender", "Age"], [["Blue", "12"], ["Male"]], "\n")  # illegal cell, then ragged
@example(["Gender", "Age"], [["Male"], ["Blue", "12"]], "\n")  # ragged, then illegal cell
@example(["Gender", "Age"], [["Male", "99"], ["Blue", "12"]], "\n")  # row-major order
@example(["Gender", "rt_A1Q1_PhotoSharing"], [["Male", "+5"], [" Male ", "5_000"]], "\r\n")
@example(["Gender"], [['"Ma'], ["Blue"]], "\n")  # unterminated quote runs to the end
@settings(max_examples=400, deadline=None)
def test_load_dataset_matches_per_row_oracle(header, rows, separator):
    text = separator.join(",".join(row) for row in [header, *rows]) + separator
    schema = default_schema()
    assert _load_text_and_bytes(text, schema) \
        == _load_outcome(load_dataset_per_row, text, schema)


@given(st.text(alphabet=',"?\r\n Male12rt_AQ', max_size=60))
@settings(max_examples=300, deadline=None)
def test_load_dataset_matches_per_row_oracle_on_text(body):
    text = "Gender,Age,rt_A1Q1_PhotoSharing\n" + body
    schema = default_schema()
    assert _load_text_and_bytes(text, schema) \
        == _load_outcome(load_dataset_per_row, text, schema)


def _csv_field_text(cell: str, quote: bool) -> str:
    return '"' + cell.replace('"', '""') + '"' if quote or any(c in cell for c in ',"\r\n') \
        else cell


@given(st.lists(st.lists(st.tuples(st.text(alphabet='ab ,"\r\n\u00e4\u2028', max_size=5),
                                   st.booleans()), max_size=4), max_size=6),
       st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3), st.booleans())
@example([[("", False)], [("a", False)]], ["\r"], True)  # a blank record
@example([[('x"\r\ny', False), ("", True)]], ["\r\n"], False)
@settings(max_examples=400, deadline=None)
def test_split_csv_matches_csv_reader_on_rfc4180_text(rows, line_ends, last_end):
    # the oracle's splitter reads well-formed text as the csv module does
    lines = [",".join(_csv_field_text(cell, quote) for cell, quote in row) for row in rows]
    text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
    if lines and not last_end:
        text = text[:-len(line_ends[(len(lines) - 1) % len(line_ends)])]
    assert split_csv(text) == list(csv.reader(io.StringIO(text, newline="")))


_QUOTE_FREE_COLUMNS = _DIFF_COLUMNS + ["Migratory_Background"]
_QUOTE_FREE_CELLS = ["", "?", " ? ", "Male", " Male ", "\tFemale\x0b", "Blue", "Männlich",
                     "12", "Yes", "No", "900", " 900 ", "+5", "5_000", "-5", "٣", "1e3",
                     "2147483647", "2147483648", "ParentsBornAbroad", " ParentsBornAbroad ",
                     "ParentsBornAbroadX", "BornAbroad", "\u2028No"]


@given(st.lists(st.sampled_from(_QUOTE_FREE_COLUMNS), min_size=1, max_size=4),
       st.lists(st.lists(st.sampled_from(_QUOTE_FREE_CELLS), max_size=5), max_size=8),
       st.lists(st.sampled_from(_DIFF_SEPARATORS), min_size=1, max_size=3),
       st.booleans(), st.sampled_from([1, 7, 1 << 16]))
@example(["Gender"], [["Male"], [], ["Female"]], ["\n"], True, 1 << 16)  # a blank line
@example(["Gender"], [["Male"], ["Female"]], ["\n"], False, 1 << 16)  # no line end at the end
@example(["Gender", "Age"], [["Male", "12", "13"], ["Female"]], ["\n"], True, 1 << 16)
@example(["Gender"], [["Ma\x00le"]], ["\n"], True, 1 << 16)  # NUL: csv on 3.10 refuses it
@example(["Gender"], [["Male"], ["Male\x00"]], ["\n"], True, 1 << 16)  # one word, but not one text
@example(["rt_A1Q1_PhotoSharing"], [["900"], ["\x00"]], ["\r\n"], False, 7)
@example(["Gender", "Age"], [["Male", "12"], [" " * 200_000 + "Male", "12"]], ["\n"], True, 7)
@example(["Gender", "Age"], [["Male", "12"], ["Female", "x" * 200_000]], ["\r"], False, 1)
@settings(max_examples=400, deadline=None)
def test_quote_free_load_matches_per_row_oracle(header, rows, separators, last_end, slice_chars):
    lines = [",".join(row) for row in [header, *rows]]
    text = "".join(line + separators[i % len(separators)] for i, line in enumerate(lines))
    if not last_end:
        text = text[:-len(separators[(len(lines) - 1) % len(separators)])]
    schema = default_schema()
    expected = _load_outcome(load_dataset_per_row, text, schema)
    with mock.patch("riskbn.data._SLICE_BYTES", slice_chars):
        assert _load_text_and_bytes(text, schema) == expected


_LOOKALIKES = Schema((VariableSpec("Q", (
    "BornAbroad", "BornAbroaX", "ParentsBornAbroad", "ParentsBXrnAbroad", "aaaaaaaaa", "aaaaaaaaaa",
    "aaaaaaaab")),))


@pytest.mark.parametrize("pair", [
    ("BornAbroad", "BornAbroaX"),  # last words differ
    ("aaaaaaaaa", "aaaaaaaab"),  # the shortest hashed cells
    ("ParentsBornAbroad", "ParentsBXrnAbroad"),  # a word in between differs
    ("aaaaaaaaaa", "aaaaaaaaa"),  # lengths differ; the first word of each is all of the shorter
])
def test_cells_that_share_a_hash_are_told_apart(monkeypatch, pair):
    text = "Q\n" + "".join(f"{cell}\n" * 3 for cell in pair) + f"{pair[0]}\n"
    expected = _load_outcome(load_dataset_per_row, text, _LOOKALIKES)
    assert _load_outcome(load_dataset, text, _LOOKALIKES) == expected
    # a hash of the first word alone puts both texts in one group, which is
    # then split wherever its texts differ
    monkeypatch.setattr("riskbn.data._HASH_FACTORS", np.zeros(2, np.uint64))
    assert _load_outcome(load_dataset, text, _LOOKALIKES) == expected


def test_cells_either_side_of_the_exact_key_length_are_told_apart():
    # up to 8 bytes a cell is its own key; from 9 on it is hashed and checked
    states = ("aaaaaaaA", "aaaaaaaI", "aaaaaaaaA", "aaaaaaaaI", "aaaaaaaaaA", "aaaaaaaaaI")
    schema = Schema((VariableSpec("Q", states),))
    text = "Q\n" + "\n".join(states * 2) + "\n"
    assert _load_outcome(load_dataset, text, schema) \
        == _load_outcome(load_dataset_per_row, text, schema)


def _load_in_every_chunking(monkeypatch, text, schema, slice_chars=None):
    """Load ``text`` at each slice size given (default: every size up to the
    text's length); every outcome must equal the per-row oracle's, which is
    returned."""
    expected = _load_outcome(load_dataset_per_row, text, schema)
    for chars in slice_chars or range(1, len(text) + 2):
        monkeypatch.setattr("riskbn.data._SLICE_BYTES", chars)
        assert _load_text_and_bytes(text, schema) == expected, chars
    return expected


def test_quoted_line_breaks_across_slice_cuts_stay_in_their_cell(monkeypatch):
    schema = Schema((VariableSpec("Q", ("x\ny", "p\r\nq", "r")),
                     VariableSpec("Gender", ("Male", "Female"))))
    text = 'Q,Gender\n"x\ny",Male\r\n"p\r\nq", Female \n r ,\n'
    assert _load_in_every_chunking(monkeypatch, text, schema) \
        == (3, {"Q": [0, 1, 2], "Gender": [0, 1, -1]}, {})


def test_bare_carriage_return_line_ends_split_records(monkeypatch):
    text = "Gender,Age\rMale,12\rFemale,13\r\n?,14\nNonBinary,15\r"
    assert _load_in_every_chunking(monkeypatch, text, default_schema()) \
        == (4, {"Gender": [0, 1, -1, 2], "Age": [0, 1, 2, 3]}, {})


def test_unsplittable_line_in_a_later_chunk_beats_an_illegal_cell(monkeypatch):
    text = "Gender\nBlue\nMale\nMale\n" + "x" * 200_000 + "\nMale\n"
    outcome = _load_in_every_chunking(monkeypatch, text, default_schema(), (1, 7, 1 << 16))
    assert outcome[0] is MalformedCsv and outcome[1].startswith("line 5: ")


def test_illegal_cell_beats_a_ragged_row_later_in_its_chunk(monkeypatch):
    text = "Gender,Age\nMale,12\nBlue,12\nMale\nMale,99\n"
    assert _load_in_every_chunking(monkeypatch, text, default_schema()) \
        == (IllegalState, "illegal value 'Blue' for column 'Gender' in data row 2")


@pytest.mark.parametrize("text", ["", "\n", "\n\n\n", "\r\nMale\n"])
def test_blank_first_line_is_ragged_row_zero(text):
    with pytest.raises(RaggedRow) as exc:
        load_dataset(text, default_schema())
    assert exc.value.row == 0
    assert str(exc.value) == "data row 0 has 0 cells, expected 1"
    with pytest.raises(MalformedCsv):  # an unsplittable line anywhere still comes first
        load_dataset(text + "x" * 200_000 + "\n", default_schema())


_CR_LINES = "".join(f"Male,{i}\r" for i in range(30_000))


@pytest.mark.parametrize("slice_chars", [7, 1 << 16])
@pytest.mark.parametrize("text", [
    _CR_LINES,
    _CR_LINES.replace("\r", "\r\n"),
    "".join(f"Male,{i}" + ("\r", "\r\n", "\n")[i % 3] for i in range(30_000)),
    _CR_LINES + "Male,-1\n",
], ids=["cr", "crlf", "mixed", "cr-then-lf"])
def test_lines_match_one_string_reader(monkeypatch, text, slice_chars):
    # each slice ends at a line end, and never between the halves of a \r\n
    monkeypatch.setattr("riskbn.data._SLICE_BYTES", slice_chars)
    assert [line for piece in _slices(text.encode())
            for line in io.StringIO(piece.decode(), newline="")] \
        == list(io.StringIO(text, newline=""))


def _load_peak(data: str | bytes, n: int) -> int:
    tracemalloc.start()
    try:
        ds = load_dataset(data, default_schema())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == n and len(ds.columns) == 21
    return peak


def test_load_dataset_of_100k_cohort_in_bounded_memory():
    # holding every cell's text before decoding any peaks near 190 MB here
    assert _load_peak(save_dataset(simulate_dataset(100_000, 0)), 100_000) <= 32e6


def test_bare_carriage_return_cohort_loads_in_the_memory_of_a_newline_one():
    # a whole copy of this cohort nearly doubles the peak
    raw = save_dataset(simulate_dataset(20_000, 0)).encode()
    peak = _load_peak(raw, 20_000)
    cr_raw = raw.replace(b"\n", b"\r")
    assert _load_peak(cr_raw, 20_000) <= 1.2 * peak
    assert _load_peak(cr_raw[:-1] + b"\n", 20_000) <= 1.2 * peak  # one \n, at the very end


@pytest.mark.parametrize("prefix", [b"", _BOM], ids=["plain", "bom"])
def test_load_dataset_of_100k_cohort_bytes_makes_no_whole_copy(prefix):
    # decoding the bytes to text, or slicing off the mark, copies all 14 MB;
    # with a mark the bytes are not ASCII, so they are checked slice by slice
    raw = prefix + save_dataset(simulate_dataset(100_000, 0)).encode()
    assert _load_peak(raw, 100_000) <= 0.75 * len(raw)


@pytest.mark.parametrize("slice_bytes", [1, 7, 1 << 18])
@pytest.mark.parametrize("raw, offset", [
    (b"Gender\nF\xe9male\n", 8),
    (_BOM + b"Gender\nF\xe9male\n", 11),  # the mark counts: offsets are the file's
    (b"Gender\nBlue\n" + b"x" * 200_000 + b"\nM\xc3", 200_014),  # past earlier CSV errors
    (b"Gender\nMale\n\xed\xa0\x80\n", 12),  # an encoded surrogate is not UTF-8
    # after a quote that never closes, the field already refused as too long
    (b'Gender\nBlue\n"' + b"x\n" * 100_000 + b"M\xff\n", 200_014),
    # after a field of two-byte characters refused as too long, which is cut
    # between characters
    (b"Gender\nBlue\n" + "\xe4".encode() * 100_000 + b"\nM\xff\n", 200_014),
], ids=["cell", "after-bom", "before-csv-errors", "surrogate", "after-open-quote",
        "after-long-field"])
def test_bytes_that_are_not_utf8_name_the_first_bad_byte(monkeypatch, slice_bytes, raw, offset):
    monkeypatch.setattr("riskbn.data._SLICE_BYTES", slice_bytes)
    with pytest.raises(NotUtf8) as exc:
        load_dataset(raw, default_schema())
    assert exc.value.offset == offset
    assert str(exc.value) == f"dataset is not UTF-8 text (byte {offset})"


class _Pipe:
    """A reader with no seek or tell that hands out at most ``most`` bytes a
    read, as a pipe may."""

    def __init__(self, data: bytes, most: int):
        self.data, self.at, self.most = data, 0, most

    def read(self, size: int = -1) -> bytes:
        size = self.most if size < 0 else min(size, self.most)
        piece = self.data[self.at:self.at + size]
        self.at += len(piece)
        return piece


def _stream_outcome(data, schema):
    """Columns of a load, or the error it raised: class, message, row,
    column and byte offset."""
    try:
        ds = load_dataset(data, schema)
    except RiskbnError as exc:
        return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None),
                getattr(exc, "offset", None))
    return (ds.n, {k: v.tolist() for k, v in ds.columns.items()},
            {k: v.tolist() for k, v in ds.response_times.items()})


_STREAM_CELLS = ["", "?", " ? ", "Male", " Male ", '"Male"', '"Ma""le"', '"a,b"', '""', "Blue",
                 "12", "13", "900", "-5", "x" * 20, '"x\ny"', '"p\r\nq"', "M\xe4le"]


@given(st.lists(st.sampled_from(["Gender", "Age", "rt_A1Q1_PhotoSharing", '"Age"']),
                min_size=1, max_size=3, unique=True),
       st.lists(st.lists(st.sampled_from(_STREAM_CELLS), min_size=1, max_size=4), max_size=12),
       st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
       st.booleans(), st.sampled_from([None, b"\xff", b"\xe4"]), st.integers(0, 400),
       st.integers(1, 9))
@example(["Gender"], [["Male"]] * 6 + [['"Ma""le"'], ["Blue"]], ["\n"], False, None, 0, 3)
@example(["Gender", "Age"], [["Male", "12"]] * 5 + [["Male"], ["Blue", "12"]], ["\r"], True,
         b"\xff", 400, 1)
@example(["Gender"], [["Male"], ["x" * 200_000], ["Blue"]], ["\n"], False, b"\xff", -1, 5)
@settings(max_examples=150, deadline=None)
def test_streamed_load_matches_the_bytes_path_in_any_slice_size(
        header, rows, line_ends, bom, bad_byte, bad_at, most):
    # rows of the header's width, except where a row is drawn shorter or
    # longer: a ragged row; the cells hold quotes, line ends inside quotes,
    # missing tokens and a non-ASCII letter
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
    raw = (_BOM if bom else b"") + text.encode()
    if bad_byte is not None:  # one byte that is not UTF-8, anywhere (-1: at the end)
        at = bad_at % (len(raw) + 1)
        raw = raw[:at] + bad_byte + raw[at:]
    schema = default_schema()
    expected = _stream_outcome(raw, schema)
    if bad_byte is not None:  # it outranks every other error; it may split the bytes of
        # an ä or of the byte-order mark, which are then the first bad ones
        assert expected[0] is NotUtf8 and at - 2 <= expected[4] <= at
    else:
        assert _load_outcome(lambda t, s: load_dataset(raw, s), text, schema) \
            == _load_outcome(load_dataset_per_row, text, schema)
    for slice_bytes in (1, 7, 64):
        with mock.patch("riskbn.data._SLICE_BYTES", slice_bytes):
            assert _stream_outcome(raw, schema) == expected
            assert _stream_outcome(io.BytesIO(raw), schema) == expected
            assert _stream_outcome(_Pipe(raw, most), schema) == expected


_QUOTING_SCHEMA = Schema((
    VariableSpec("Gender", ("Male", "Female")),
    VariableSpec("Q", ("a,b", 'Ma"le', "x\ny", "p\r\nq", "r\rs", '"', "Male"), "game"),
    VariableSpec("honesty", ("Yes", "No"), "meta"),
))
_QUOTED_CELLS = ["Male", '"Male"', '" Female "', '""', '"?"', "", "?", '"a,b"', '"Ma""le"',
                 '"x\ny"', '"p\r\nq"', '"r\rs"', '""""', "900", '"900"', '"9""00"', "Blue",
                 '"Bl,ue"', "M\xe4le", '"M\xe4,le"', '"Yes"']
_REFUSED_CELLS = ['"Ma"le', 'Ma"le', '"Male" ', ' "Male"', '"Ma']


@given(st.lists(st.sampled_from(["Gender", '"Q"', "Q", "rt_Q", '"rt_Q"', '"hon""esty"',
                                 '"honesty"']), min_size=1, max_size=3, unique=True),
       st.lists(st.lists(st.sampled_from(_QUOTED_CELLS), min_size=1, max_size=3), max_size=10),
       st.one_of(st.none(), st.tuples(st.integers(0, 10), st.sampled_from(_REFUSED_CELLS))),
       st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
       st.booleans(), st.integers(1, 9))
@example(['"Gender"', "Q"], [['"Male"', '"a,b"'], ["Male", '"Ma""le"']], None, ["\n"], True, 1)
@example(["Q"], [['"x\ny"'], ['"p\r\nq"'], ['"r\rs"'], ['""""']], None, ["\r"], False, 2)
@example(["Gender"], [["Male"]] * 3, (2, '"Ma"le'), ["\r\n"], True, 3)
@example(["Gender"], [["Male"]] * 3, (1, 'Ma"le'), ["\n"], True, 3)
@example(["Gender"], [["Male"]] * 3, (3, '"Ma'), ["\n"], False, 3)
@settings(max_examples=200, deadline=None)
def test_quoted_cohort_matches_per_row_oracle_in_any_slice_size(
        header, rows, refused, line_ends, last_end, most):
    # quoted cells and headers, doubled quotes, and commas and line ends
    # inside quotes; at most one cell in a form that is refused
    rows = [list(row) for row in rows]
    if refused is not None:
        at, cell = refused
        if at < len(rows):
            rows[at][0] = cell
        else:
            rows.append([cell])
    lines = [",".join(row) for row in [header, *rows]]
    text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
    if not last_end:
        text = text[:-len(line_ends[(len(lines) - 1) % len(line_ends)])]
    raw = text.encode()
    expected = _load_outcome(load_dataset_per_row, text, _QUOTING_SCHEMA)
    if refused is not None:
        assert expected[0] is MalformedCsv
    for slice_bytes in (1, 7, 64, 1 << 18):
        with mock.patch("riskbn.data._SLICE_BYTES", slice_bytes):
            assert _load_text_and_bytes(text, _QUOTING_SCHEMA) == expected
            assert _load_outcome(lambda t, s: load_dataset(_Pipe(raw, most), s),
                                 text, _QUOTING_SCHEMA) == expected


@pytest.mark.parametrize("text, message", [
    ('Gender\nMale\n"Ma"le\n', "line 3: text after a closing quote"),
    ('Gender\n"Ma\nle"x\nMale\n', "line 3: text after a closing quote"),
    ('Gender\nMa"le\nMale\n', "line 2: a quote inside an unquoted field"),
    ('Gender\nMale\n "Male"\n', "line 3: a quote inside an unquoted field"),
    ('Gender\nMale\r\n"Ma\r\nMale\r\n',
     "line 3: a quoted field still open at the end of the input"),
    pytest.param('Gender\nBlue\n"' + "x" * 200_000 + '"\n',
                 "line 3: field larger than field limit (131072)", id="long-quoted-field"),
    # line ends inside the long field, which never closes, or closes after
    # many a "" and then errs again
    pytest.param('Gender\nBlue\n"' + "x\n" * 100_000,
                 "line 3: field larger than field limit (131072)", id="never-closed"),
    pytest.param('Gender\nBlue\n"' + 'x""\n' * 50_000 + '"x\nMa"le\n',
                 "line 3: field larger than field limit (131072)", id="closed-late"),
])
def test_odd_quotes_are_refused_naming_their_line(monkeypatch, text, message):
    # the lenient csv dialect reads these; RFC 4180 does not allow them
    assert _load_in_every_chunking(monkeypatch, text, default_schema(), (1, 7, 1 << 18)) \
        == (MalformedCsv, message)


def test_cells_that_differ_only_by_trailing_nuls_are_told_apart():
    # a cell of at most 8 bytes is its own key only where no cell holds a NUL
    schema = Schema((VariableSpec("Q", ("Ma", "Ma\0", "Ma\0\0\0\0\0\0", "Ma\0\0\0\0\0\0\0")),
                     VariableSpec("Gender", ("Male", "Female"))))
    text = "Q,Gender\nMa,Male\nMa\0,Male\nMa\0\0\0\0\0\0,\nMa\0\0\0\0\0\0\0,\nMa,Female\n"
    assert _load_text_and_bytes(text, schema) == _load_outcome(load_dataset_per_row, text, schema) \
        == (5, {"Q": [0, 1, 2, 3, 0], "Gender": [0, 0, -1, -1, 1]}, {})
    text = "Q,Gender\nMa,\n\0,Male\n"  # an empty cell and a NUL
    assert _load_text_and_bytes(text, schema) == _load_outcome(load_dataset_per_row, text, schema) \
        == (IllegalState, "illegal value '\\x00' for column 'Q' in data row 2")


def test_every_cell_quoted_100k_cohort_loads_the_same_columns_in_bounded_memory():
    text = save_dataset(simulate_dataset(100_000, 0))
    quoted = "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
                     for line in text.splitlines())
    plain = load_dataset(text, default_schema())
    assert _load_peak(quoted, 100_000) <= 32e6
    ds = load_dataset(quoted.encode(), default_schema())
    assert ds.columns.keys() == plain.columns.keys()
    for name, column in plain.columns.items():
        assert np.array_equal(ds.columns[name], column)


def test_a_quote_that_never_closes_is_refused_in_the_memory_of_a_plain_load():
    # a field, quoted or not, is refused once it holds _FIELD_LIMIT bytes,
    # not when it or the input ends
    raw = save_dataset(simulate_dataset(100_000, 0)).encode()
    lines = raw.split(b"\n")
    field = b"x" * 20_000_000
    too_long = "line 3: field larger than field limit (131072)"
    cases = [
        (b"\n".join([*lines[:2], b'"' + lines[2], *lines[3:]]), MalformedCsv, too_long),
        (b"Gender\nBlue\n" + field + b"\n", MalformedCsv, too_long),
        (b'Gender\nBlue\n"' + field + b'"\n', MalformedCsv, too_long),
        # a byte that is not UTF-8 after the refused field still wins
        (b"Gender\nBlue\n" + field + b"\nM\xff\n", NotUtf8,
         "dataset is not UTF-8 text (byte 20000014)"),
    ]
    plain = _traced_peak(lambda: load_dataset(io.BytesIO(raw), default_schema()))
    for data, error, message in cases:
        def refuse():
            with pytest.raises(error) as exc:
                load_dataset(io.BytesIO(data), default_schema())
            assert str(exc.value) == message

        assert _traced_peak(refuse) <= plain


def test_load_from_a_file_grows_only_by_the_columns(tmp_path):
    # the columns are the only memory a load holds that grows with the file
    peaks, columns = [], []
    for n in (100_000, 200_000):
        path = tmp_path / f"c{n}.csv"
        path.write_text(save_dataset(simulate_dataset(n, 0)))
        tracemalloc.start()
        try:
            with path.open("rb") as f:
                ds = load_dataset(f, default_schema())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ds.n == n
        columns.append(sum(c.nbytes for c in ds.columns.values()))
    assert peaks[1] - peaks[0] <= columns[1] - columns[0] + 1e6


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_dataset_of_100k_cohort_in_bounded_memory():
    ds = simulate_dataset(100_000, 0)
    size = len(save_dataset(ds))
    # rendering every row before joining any peaks near 2.9 times the text
    assert _traced_peak(lambda: save_dataset(ds)) <= 2.2 * size
    # a writer of render_dataset's pieces holds one block of rows, however many rows there are
    peak = _traced_peak(lambda: sum(map(len, render_dataset(ds))))
    small = simulate_dataset(20_000, 0)
    assert peak <= 0.4 * size
    assert peak <= 1.2 * _traced_peak(lambda: sum(map(len, render_dataset(small))))


_QUOTED_SCHEMA = Schema((
    VariableSpec("Q", ("a,b", 'say "hi"', " lead")),
    VariableSpec("A1Q1_PhotoSharing", ("Answer1", "Answer2"), "game"),
))


@given(st.lists(st.sampled_from(["Q", "A1Q1_PhotoSharing", "rt_A1Q1_PhotoSharing"]),
                min_size=1, max_size=3, unique=True),
       st.integers(0, 6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_save_dataset_matches_csv_writer_reference(names, n, rnd):
    cards = {"Q": 3, "A1Q1_PhotoSharing": 2}
    columns = {k: np.array([rnd.randrange(-1, cards[k]) for _ in range(n)], dtype=np.int16)
               for k in names if k in cards}
    times = {k: np.array([rnd.choice([-1, 0, 7, 2**31 - 1]) for _ in range(n)], dtype=np.int32)
             for k in names if k not in cards}
    ds = Dataset(_QUOTED_SCHEMA, n, columns, times)
    assert save_dataset(ds) == save_dataset_per_row(ds)


def test_save_dataset_single_column_missing_cell_quoted():
    # csv.writer writes a row holding one empty field as "" to tell it from a blank line
    ds = load_dataset("Gender\nMale\n?\n", default_schema())
    assert save_dataset(ds) == "Gender\nMale\n\"\"\n"
    assert save_dataset(ds) == save_dataset_per_row(ds)


def test_save_dataset_byte_identical_on_simulated_cohort():
    ds = simulate_dataset(2_000, 5)
    text = save_dataset(ds)
    assert text == save_dataset_per_row(ds)
    assert _load_outcome(load_dataset, text, ds.schema) \
        == _load_outcome(load_dataset_per_row, text, ds.schema)


def test_rt_beyond_int32_names_row_and_column():
    with pytest.raises(IllegalState) as exc:
        load_dataset("rt_A1Q1_PhotoSharing\n900\n2147483648\n", default_schema())
    assert (exc.value.row, exc.value.column) == (2, "rt_A1Q1_PhotoSharing")
    ds = load_dataset("rt_A1Q1_PhotoSharing\n2147483647\n", default_schema())
    assert ds.response_times["rt_A1Q1_PhotoSharing"][0] == 2**31 - 1


def test_save_load_round_trip_preserves_missingness():
    text = ("Gender,Age,rt_A1Q1_PhotoSharing,honesty\n"
            "Male,12,900,Yes\n"
            ",14,?,\n"
            "NonBinary,?,400,No\n")
    schema = default_schema()
    ds = load_dataset(text, schema)
    again = load_dataset(save_dataset(ds), schema)
    assert again.n == ds.n
    for name, col in ds.columns.items():
        assert np.array_equal(again.columns[name], col)
    for name, col in ds.response_times.items():
        assert np.array_equal(again.response_times[name], col)


# --- filters ----------------------------------------------------------------------

def _meta_dataset():
    text = ("Previous_CB_Offending,rt_A1Q1_PhotoSharing,rt_A1Q2_Sociable,honesty\n"
            "Yes,900,1200,Yes\n"
            "No,100,1500,Yes\n"
            "Yes,踏,1000,No\n").replace("踏", "1600")
    return load_dataset(text, default_schema())


def test_filters_noop_when_all_pass():
    ds = _meta_dataset()
    out, report = apply_filters(ds, FilterConfig(min_response_time_ms=50))
    assert out.n == 3
    assert report.flagged_response_time == 0


def test_fast_answer_dropped_and_reported():
    ds = _meta_dataset()
    out, report = apply_filters(ds, FilterConfig(min_response_time_ms=800))
    assert report.flagged_response_time == 1
    assert out.n == 2
    # surviving records keep their values untouched
    assert out.record(0)["Previous_CB_Offending"] == "Yes"


def test_honesty_filter_drop_and_blank():
    ds = _meta_dataset()
    config = FilterConfig(min_response_time_ms=None, require_honesty=True)
    out, report = apply_filters(ds, config)
    assert report.flagged_honesty == 1
    assert out.n == 2

    blank = FilterConfig(min_response_time_ms=None, require_honesty=True, action="blank")
    out2, report2 = apply_filters(ds, blank)
    assert out2.n == 3
    assert out2.columns["Previous_CB_Offending"][2] == -1
    assert out2.columns["honesty"][2] == 1  # non-outcome cells untouched
    assert report2.flagged_honesty == 1


def test_blank_filter_shares_every_array_it_does_not_change():
    ds = _meta_dataset()
    blank = FilterConfig(min_response_time_ms=800, action="blank")
    out, _ = apply_filters(ds, blank)
    assert out.columns["Previous_CB_Offending"].tolist() == [0, -1, 0]
    assert out.columns["Previous_CB_Offending"].dtype == np.int16
    assert not out.columns["Previous_CB_Offending"].flags.writeable
    assert ds.columns["Previous_CB_Offending"].tolist() == [0, 1, 0]  # input unchanged
    assert out.columns["honesty"] is ds.columns["honesty"]
    for name, col in ds.response_times.items():
        assert out.response_times[name] is col


def test_missing_meta_column_raises():
    ds = load_dataset("Gender\nMale\n", default_schema())
    with pytest.raises(MissingMetaColumn):
        apply_filters(ds, FilterConfig(min_response_time_ms=800))
    with pytest.raises(MissingMetaColumn):
        apply_filters(ds, FilterConfig(min_response_time_ms=None, require_honesty=True))


def test_honesty_filter_without_a_no_state_is_a_schema_mismatch():
    schema = Schema((VariableSpec("Gender", ("Male", "Female")),
                     VariableSpec("honesty", ("Y", "N"), "meta")))
    ds = load_dataset("Gender,honesty\nMale,Y\nFemale,N\n", schema)
    with pytest.raises(SchemaMismatch) as exc:
        apply_filters(ds, FilterConfig(min_response_time_ms=None, require_honesty=True))
    assert str(exc.value) == "honesty filter needs a 'No' state; honesty has ['Y', 'N']"


# --- generator ----------------------------------------------------------------------

def test_generator_root_marginals_exact():
    gen = build_default_generator(0)
    targets = calibration_targets()
    for var, probs in targets.items():
        dist = marginal(gen.network, var)
        for state, p in probs.items():
            assert dist[state] == pytest.approx(p, abs=1e-9)


def test_generator_control_strength_is_zero():
    gen = build_default_generator(0)
    assert influence_strength(gen.network, gen.control, gen.outcome) == 0.0


def test_generator_strongest_game_beats_age():
    gen = build_default_generator(0)
    strong = influence_strength(gen.network, "A3Q7_HowToHelpPol", gen.outcome)
    weak = influence_strength(gen.network, "Age", gen.outcome)
    assert strong > weak


def test_generator_outcome_marginal_near_soft_prior():
    gen = build_default_generator(0)
    p = marginal(gen.network, gen.outcome)["Yes"]
    assert 0.08 <= p <= 0.14


def test_generator_planted_driver_tops_risk_profiles():
    gen = build_default_generator(0)
    net = gen.network
    pool = [v.name for v in net.schema
            if v.kind in ("demographic", "psychological", "outcome")
            and v.name != gen.outcome]
    rp = risk_profiles(net, gen.outcome, "Yes", pool, 5, 0.26)
    assert rp.profiles
    assert rp.frequency[0][0] == gen.planted_profiling
    share = rp.frequency[0][1] / len(rp.profiles)
    assert share > 0.8


# --- summaries ----------------------------------------------------------------------

def test_summarize_empty_dataset_reports_absent_percent():
    ds = load_dataset("Gender\n", default_schema())
    rows = [r for r in summarize(ds) if r.variable == "Gender"]
    assert all(r.count == 0 and r.percent is None for r in rows)


def test_summarize_single_record():
    ds = load_dataset("Gender,Age\nFemale,13\n", default_schema())
    rows = {(r.variable, r.state): r for r in summarize(ds)}
    assert rows[("Gender", "Female")].count == 1
    assert rows[("Gender", "Female")].percent == 100.0
    assert rows[("Gender", "Male")].percent == 0.0


def test_summarize_synthetic_matches_published_gender():
    ds = simulate_dataset(100_000, 42)
    rows = {(r.variable, r.state): r for r in summarize(ds)}
    assert rows[("Gender", "Male")].percent == pytest.approx(62.9, abs=1.0)


def test_simulate_dataset_fully_observed():
    ds = simulate_dataset(100, 3)
    assert ds.n == 100
    assert ds.provenance == "synthetic"
    for v in default_schema().network_variables:
        assert (ds.columns[v.name] >= 0).all()


def test_default_dag_rejects_foreign_schema():
    # placeholder structure only fits schemas that declare its variables
    schema = Schema((default_schema().variables[0],))
    with pytest.raises(Exception):
        default_dag(schema)
