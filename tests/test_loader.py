"""The problem-file loader against its oracle, ``spec_from_dict(json.loads(text))``.

``load_spec`` converts each matrix row as soon as it has read it.  The oracle decodes the
whole file first and converts afterwards.  On every file, valid or not, the two must agree:
the same matrices bit for bit, or a ``SpecFormatError`` with the same message.  A parse error
is formatted as ``load_spec`` formats it, so its line and column come from json itself.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formrep import ProblemSpec, SpecFormatError, gen_random, load_spec, save_spec
from formrep import spec_from_dict, spec_to_dict
from formrep.cli import main

LOADER_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

#: Text layouts a problem file may take: ``save_spec``'s, and compact JSON.
LAYOUTS = {"save_spec": {"indent": 2, "sort_keys": True}, "compact": {"separators": (",", ":")}}

#: Values put in place of one entry: numbers and bools convert, the others do not.
ENTRIES = ["abc", "", 2.5, -3, 10**400, True, False, None, {"x": "1"}]

#: Values put in place of the ``"matrices"`` object, or given to a duplicate key.
OTHER_VALUES = [[1], "A", 7, None, True, [["1"]], {"A": [["x"]]}, {}]

JUNK = 'x,:]}[{"0 \t\r\n\\'


def oracle(path):
    """The loaded spec, or the refusal's message, as decoding the whole file first gives it."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    try:
        return spec_from_dict(raw)
    except SpecFormatError as exc:
        return str(exc)


def loaded(path):
    try:
        return load_spec(path)
    except SpecFormatError as exc:
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


@LOADER_SETTINGS
@given(
    shape=st.one_of(
        st.tuples(st.just("general"), st.integers(2, 9)),
        st.tuples(st.just("offdiag"), st.tuples(st.integers(1, 6), st.integers(1, 6))),
    ),
    seed=st.integers(0, 2**31 - 1),
    layout=st.sampled_from(sorted(LAYOUTS)),
    mutation=st.sampled_from([None] + DICT_MUTATIONS + TEXT_MUTATIONS),
    data=st.data(),
)
def test_load_matches_the_whole_file_oracle(tmp_path_factory, shape, seed, layout, mutation, data):
    spec = gen_random(*shape, seed)
    path = tmp_path_factory.getbasetemp() / "spec.json"
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


# ----------------------------------------------------------------------
# Refusals of a large file on the command line
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def large_text(tmp_path_factory):
    """An n = 384 general problem in ``save_spec``'s layout."""
    path = tmp_path_factory.mktemp("large") / "general-384.json"
    save_spec(gen_random("general", 384, 0), str(path))
    return path.read_text(encoding="utf-8")


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
    "trailing_junk": (lambda text: text + "}\n", "parse error in {} at line "),
    "integer_beyond_float_range": (
        lambda text: replaced(text, "J", 200, 3, "1" + "0" * 400),
        "matrix J has a non-numeric entry: int too large to convert to float",
    ),
}


@pytest.mark.parametrize("case", sorted(LARGE_REFUSALS))
def test_large_file_refusal_exit_two_one_line(large_text, tmp_path, capsys, case):
    change, message = LARGE_REFUSALS[case]
    path = tmp_path / "refused.json"
    path.write_text(change(large_text), encoding="utf-8")
    want = oracle(str(path))
    assert isinstance(want, str) and want.startswith(message.format(path))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
