"""The problem-file loader against its oracle, ``spec_from_dict(json.loads(text))``.

``load_spec`` reads the file through a window of ``harness._CHUNK`` characters and converts
each matrix row as soon as it has read it.  The oracle decodes the whole file first and
converts afterwards.  On every file, valid or not, the two must agree: the same matrices bit
for bit, or a refusal with the same message.  A parse error is formatted as ``load_spec``
formats it, so its line and column come from json itself, and an undecodable byte is
reported at its position in the file.  The walk runs again with windows of 1, 2, 7 and 64
characters, which end inside keys, strings, numbers, literals and whitespace.
"""

import json
import os
import re
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formrep import ProblemSpec, SpecFormatError, gen_random, load_spec, save_spec
from formrep import harness, spec_from_dict, spec_to_dict
from formrep.cli import main

LOADER_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

#: Text layouts a problem file may take: ``save_spec``'s, and compact JSON.
LAYOUTS = {"save_spec": {"indent": 2, "sort_keys": True}, "compact": {"separators": (",", ":")}}

#: Values put in place of one entry: numbers convert, the others (bools too) do not.
ENTRIES = ["abc", "", 2.5, -3, 10**400, True, False, None, {"x": "1"}]

#: Values put in place of the ``"matrices"`` object, or given to a duplicate key.
OTHER_VALUES = [[1], "A", 7, None, True, [["1"]], {"A": [["x"]]}, {}]

JUNK = 'x,:]}[{"0 \t\r\n\\'


def oracle(path):
    """The loaded spec, or the refusal's message, as decoding the whole file first gives it."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.loads(handle.read())
    except UnicodeDecodeError as exc:
        return str(exc)
    except json.JSONDecodeError as exc:
        return f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    try:
        return spec_from_dict(raw)
    except SpecFormatError as exc:
        return str(exc)


def loaded(path):
    try:
        return load_spec(path)
    except (SpecFormatError, UnicodeDecodeError) as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, ProblemSpec)
    assert sorted(got.matrices) == sorted(want.matrices)
    for name, mat in want.matrices.items():
        assert got.matrices[name].dtype == mat.dtype == np.float64
        assert got.matrices[name].shape == mat.shape
        assert got.matrices[name].tobytes() == mat.tobytes()
    assert replace(got, matrices={}) == replace(want, matrices={})


def mutate(raw, mutation, draw):
    """``raw``, a problem as ``spec_to_dict`` gives it, with one mutation applied."""
    matrices = raw["matrices"]
    name = draw(st.sampled_from(sorted(matrices)))
    rows = matrices[name]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if mutation == "ragged":
        rows[i].pop(j)
    elif mutation == "entry":
        rows[i][j] = draw(st.sampled_from(ENTRIES))
    elif mutation == "nested_entry":
        rows[i][j] = [rows[i][j]]
    elif mutation == "nested_row":
        rows[i] = [rows[i]]
    elif mutation == "row_not_a_list":
        rows[i] = draw(st.sampled_from(ENTRIES))
    elif mutation == "matrices_not_an_object":
        raw["matrices"] = draw(st.sampled_from(OTHER_VALUES))
    elif mutation == "rows_outside_the_matrices":
        # Rows under another key are no matrix: the message shows them as written.
        raw["tolerances"] = {"tol_scale": rows}
    return raw


def mutate_text(text, mutation, draw):
    if mutation == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if mutation == "junk_byte":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    if mutation == "byte_order_mark":
        return "\ufeff" + text
    if mutation == "extra_data":
        return text + draw(st.sampled_from(["x", "}", "{}", "1", " ]", "\n\n7", "  "]))
    value = json.dumps(draw(st.sampled_from(OTHER_VALUES)))
    if mutation == "duplicate_matrix":
        # A name given twice in the matrices object: the later value wins.
        key = draw(st.sampled_from(["A", "H", "J", "A_plus", "A_minus", "T", "X"]))
        opening = re.search(r'"matrices":\s*\{', text).end()
        return f'{text[:opening]}"{key}": {value},{text[opening:]}'
    if mutation == "duplicate_matrices_first":
        return text.replace("{", '{"matrices": ' + value + ",", 1)
    # duplicate_matrices_last
    closing = text.rindex("}")
    return f'{text[:closing]}, "matrices": {value}{text[closing:]}'


DICT_MUTATIONS = [
    "ragged", "entry", "nested_entry", "nested_row", "row_not_a_list",
    "matrices_not_an_object", "rows_outside_the_matrices",
]
TEXT_MUTATIONS = [
    "truncate", "junk_byte", "byte_order_mark", "extra_data",
    "duplicate_matrix", "duplicate_matrices_first", "duplicate_matrices_last",
]


ORACLE_CASES = given(
    shape=st.one_of(
        st.tuples(st.just("general"), st.integers(2, 9)),
        st.tuples(st.just("offdiag"), st.tuples(st.integers(1, 6), st.integers(1, 6))),
    ),
    seed=st.integers(0, 2**31 - 1),
    layout=st.sampled_from(sorted(LAYOUTS)),
    mutation=st.sampled_from([None] + DICT_MUTATIONS + TEXT_MUTATIONS),
    data=st.data(),
)


def check_against_the_oracle(path, shape, seed, layout, mutation, data):
    spec = gen_random(*shape, seed)
    raw = spec_to_dict(spec)
    if mutation in DICT_MUTATIONS:
        raw = mutate(raw, mutation, data.draw)
    text = json.dumps(raw, **LAYOUTS[layout]) + "\n"
    if mutation in TEXT_MUTATIONS:
        text = mutate_text(text, mutation, data.draw)
    path.write_text(text, encoding="utf-8")
    if mutation is None and layout == "save_spec":
        save_spec(spec, str(path))
        assert path.read_text(encoding="utf-8") == text
    want = oracle(str(path))
    assert_same_outcome(loaded(str(path)), want)
    if mutation is None:
        assert_same_outcome(want, spec)


@LOADER_SETTINGS
@ORACLE_CASES
def test_load_matches_the_whole_file_oracle(tmp_path_factory, shape, seed, layout, mutation, data):
    path = tmp_path_factory.getbasetemp() / "spec.json"
    check_against_the_oracle(path, shape, seed, layout, mutation, data)


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@LOADER_SETTINGS
@ORACLE_CASES
def test_load_in_small_windows_matches_the_oracle(
    tmp_path_factory, chunk, shape, seed, layout, mutation, data
):
    path = tmp_path_factory.getbasetemp() / f"spec-{chunk}.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_CHUNK", chunk)
        check_against_the_oracle(path, shape, seed, layout, mutation, data)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@pytest.mark.parametrize("number", ["2.5", "1e+300", "1.5e-7", "25E+2", "7"])
def test_a_number_cut_by_the_window_is_read_whole(tmp_path, monkeypatch, chunk, number):
    """A number cut as ``2.``, ``1e`` or ``1e+`` scans as a shorter number that ends before the
    window does, so the walk must read it again with more text.  The whitespace before the
    seed is consumed and refilled, so each padding starts it at another place in a window."""
    raw = spec_to_dict(gen_random("general", 2, 0))
    path = tmp_path / "seed.json"
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    for pad in range(chunk + 1):
        path.write_text(json.dumps(raw).replace('"seed": 0', '"seed":' + " " * pad + number))
        want = oracle(str(path))
        assert want.seed == 7 if number == "7" else want.startswith("seed must be")
        assert_same_outcome(loaded(str(path)), want)


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "malformed"])
def test_a_pipe_loads_and_is_refused_as_a_file_is(tmp_path, valid):
    """A pipe cannot be read twice, so the loader reads it whole before the walk."""
    plain, fifo = tmp_path / "spec.json", tmp_path / "spec.fifo"
    text = json.dumps(spec_to_dict(gen_random("offdiag", (3, 2), 1)), separators=(",", ":"))
    if not valid:
        text = text.replace(",", ",,", 1)
    plain.write_text(text, encoding="utf-8")
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    got = loaded(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    want = oracle(str(plain))
    assert_same_outcome(got, want.replace(str(plain), str(fifo)) if isinstance(want, str) else want)


# ----------------------------------------------------------------------
# Refusals of a large file on the command line
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    """An n = 384 general problem in ``save_spec``'s layout (14.3 MB)."""
    path = tmp_path_factory.mktemp("large") / "general-384.json"
    save_spec(gen_random("general", 384, 0), str(path))
    return path


@pytest.fixture(scope="module")
def large_text(large_file):
    return large_file.read_text(encoding="utf-8")


def entry_span(text, name, i, j):
    """Where entry ``(i, j)`` of matrix ``name``, quotes included, lies in ``save_spec``'s
    layout, in which each row opens on a line of its own and each entry has a line."""
    at = text.index(f'"{name}": [')
    for _ in range(i + 1):
        at = text.index("\n      [", at + 1)
    for _ in range(j + 1):
        at = text.index('\n        "', at + 1)
    return at + 9, text.index('"', at + 10) + 1


def replaced(text, name, i, j, entry):
    start, stop = entry_span(text, name, i, j)
    return text[:start] + entry + text[stop:]


def ragged_last_row(text):
    start, stop = entry_span(text, "H", 383, 383)
    assert text[start - 10 : start] == ",\n" + " " * 8
    return text[: start - 10] + text[stop:]


#: Changes to the large file, and how the message each must be refused with begins.
LARGE_REFUSALS = {
    "cut_mid_row": (
        lambda text: text[: entry_span(text, "H", 0, 191)[1]], "parse error in {} at line "
    ),
    "non_numeric_in_row_300": (
        lambda text: replaced(text, "A", 300, 17, '"abc"'),
        "matrix A has a non-numeric entry: could not convert string to float: 'abc'",
    ),
    "ragged_last_row": (ragged_last_row, "matrix H has ragged or empty rows"),
    "false_in_row_100": (
        lambda text: replaced(text, "H", 100, 5, "false"),
        "matrix H has a non-numeric entry: true or false",
    ),
    "trailing_junk": (lambda text: text + "}\n", "parse error in {} at line "),
    "integer_beyond_float_range": (
        lambda text: replaced(text, "J", 200, 3, "1" + "0" * 400),
        "matrix J has a non-numeric entry: int too large to convert to float",
    ),
    # Written as the byte 0xff, well after the first window: the position is the file's.
    "invalid_utf8_after_the_first_window": (
        lambda text: text[:3_000_000] + "\udcff" + text[3_000_000:],
        "'utf-8' codec can't decode byte 0xff in position 3000000: invalid start byte",
    ),
}


@pytest.mark.parametrize("case", sorted(LARGE_REFUSALS))
def test_large_file_refusal_exit_two_one_line(large_text, tmp_path, capsys, case):
    change, message = LARGE_REFUSALS[case]
    path = tmp_path / "refused.json"
    path.write_text(change(large_text), encoding="utf-8", errors="surrogateescape")
    want = oracle(str(path))
    assert isinstance(want, str) and want.startswith(message.format(path))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_one_long_row_is_refused_in_linear_time(tmp_path, monkeypatch):
    """Matrix A as one row of 384^2 entries (4.6 MB of text).  Each rescan of the row at least
    doubles the window, so from 64 characters it takes 17 rescans, not 72,000."""
    spec = gen_random("general", 384, 0)
    path = tmp_path / "one-row.json"
    one_row = spec.matrices["A"].reshape(1, -1)
    save_spec(replace(spec, matrices={**spec.matrices, "A": one_row}), path)
    want = oracle(str(path))
    assert want == "matrix A is 1 x 147456, above the dimension cap 2048"
    monkeypatch.setattr(harness, "_CHUNK", 64)
    start = time.perf_counter()
    assert loaded(str(path)) == want
    assert time.perf_counter() - start < 20.0


def test_loading_holds_one_window_not_the_text(large_file):
    """The traced peak of one load of the 14.3 MB file: its three 384 x 384 float64 matrices
    (3.4 MiB), one window and one row's strings.  Measured at 8.0 MiB (8.1 MiB while every
    matrix's rows were stacked after the walk); decoding the whole text first peaked at 27.4 MiB."""
    load_spec(str(large_file))
    tracemalloc.start()
    try:
        load_spec(str(large_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_loading_stacks_each_matrix_as_it_closes(large_file, monkeypatch):
    """With a 16 KiB window the matrices set one load's traced peak: each is stacked as soon
    as it closes, so the rows of one matrix at most are alive beside the stacked ones.
    Measured at 1.36 times the matrices' bytes; stacking every matrix's rows after the walk
    peaked at 2.37 times."""
    monkeypatch.setattr(harness, "_CHUNK", 1 << 14)
    matrix_bytes = sum(mat.nbytes for mat in load_spec(str(large_file)).matrices.values())
    tracemalloc.start()
    try:
        load_spec(str(large_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * matrix_bytes
