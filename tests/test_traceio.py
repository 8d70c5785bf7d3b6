"""json_text() and write_json() write the bytes of json.dumps(indent=2).

json_text() hands each run of scalar members of a dict or list to
CPython's C encoder; these properties hold it to json.dumps(indent=2,
allow_nan=False) over nested containers, every kind of key and scalar
json takes, and the errors it raises.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamosc import traceio
from beamosc.errors import ValidationError
from beamosc.traceio import RowTable, json_text, write_json


class Subdict(dict):
    """A dict subclass: json.dumps() writes it as a dict."""


texts = st.one_of(st.text(max_size=6),
                  st.sampled_from(['"', "\\", "\n\t\r", "\x00", "\x7f", "é", "☃", "\U0001f600"]))
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1e16, 1e-7, 0.1]),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), finite, finite.map(np.float64), texts)
keys = st.one_of(texts, st.integers(-2**70, 2**70), finite, st.booleans(), st.none())


def containers(children):
    members = st.lists(children, max_size=4)
    mapping = st.dictionaries(keys, children, max_size=4)
    return st.one_of(members, members.map(tuple), mapping, mapping.map(Subdict))


documents = st.recursive(scalars, containers, max_leaves=24)


def reference(obj, **kw) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, **kw)


@settings(max_examples=200)
@given(documents)
@example({})
@example([[], {}, ()])
@example({"a": {"b": [1, {"c": [2.5, "x"]}], "d": None}, 1: [], 1.5: {}, None: [[]]})
@example(Subdict({"\x00": -0.0, True: [5e-324, 1e308], False: np.float64(0.1)}))
def test_json_text_is_json_dumps_indent_2(doc):
    assert json_text(doc) == reference(doc)


def nest(draw, doc, bad):
    """doc with `bad` placed at a drawn depth and position among drawn
    siblings, and the path json_text()'s refusal names it by."""
    value, steps = bad, []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            siblings = draw(st.lists(scalars, max_size=3))
            at = draw(st.integers(0, len(siblings)))
            value = siblings[:at] + [value] + siblings[at:]
            steps.append(f"[{at}]")
        else:
            key = draw(st.text(alphabet="abc", min_size=1, max_size=3))
            siblings = [(k, v) for k, v in draw(st.dictionaries(texts, scalars, max_size=3)).items()
                        if k != key]
            at = draw(st.integers(0, len(siblings)))
            value = dict(siblings[:at] + [(key, value)] + siblings[at:])
            steps.append(f".{key}")
    path = "".join(reversed(steps))
    if draw(st.booleans()):
        return {"doc": doc, "bad": value}, "bad" + path
    return value, path.lstrip(".")


@settings(max_examples=100)
@given(data=st.data(), doc=st.recursive(st.one_of(st.none(), finite, texts), containers,
                                        max_leaves=8),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_float_is_refused_by_its_path(data, doc, bad):
    obj, path = nest(data.draw, doc, bad)
    with pytest.raises(ValidationError) as raised:
        json_text(obj)
    assert str(raised.value) == f"refusing to write non-finite JSON: {path or 'the value'} is {bad!r}"


@settings(max_examples=60)
@given(data=st.data(), doc=documents)
def test_an_unserializable_value_raises_json_s_type_error(data, doc):
    obj, _ = nest(data.draw, doc, object())
    with pytest.raises(TypeError) as want:
        reference(obj)
    with pytest.raises(TypeError) as got:
        json_text(obj)
    assert str(got.value) == str(want.value) == "Object of type object is not JSON serializable"


@settings(max_examples=60)
@given(data=st.data(), doc=documents, column=st.lists(finite, min_size=1, max_size=5))
def test_write_json_with_a_row_table_inside_is_json_dumps(tmp_path_factory, data, doc, column):
    table = RowTable(({"x": column, "group": {"n": list(range(len(column)))}},))
    obj, _ = nest(data.draw, doc, table)
    rows = list(table)
    want = reference(obj, default=lambda value: rows if value is table else None)
    assume('"\\u0000"' not in want)  # the table's mark in the text is refused
    path = tmp_path_factory.mktemp("doc") / "d.json"
    write_json(obj, path)
    assert path.read_text() == want + "\n"


def test_a_default_hook_converts_in_document_order():
    seen = []

    def default(value):
        seen.append(value)
        return str(value)

    doc = {"a": [1, {2}, {"b": {3}}], "c": {4}}
    assert json_text(doc, default=default) == reference(doc, default=default)
    assert seen == [{2}, {3}, {4}, {2}, {3}, {4}]


def test_without_the_c_encoder_the_bytes_are_the_same(monkeypatch):
    doc = Subdict({"a": [1.5, None, {"b": (True, "é\x00")}], 2: {}, 0.5: -0.0})
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(traceio, "_run_encoder", traceio._run_encoder.__wrapped__)
    assert json_text(doc) == reference(doc)
    with pytest.raises(ValidationError, match=r"^refusing to write non-finite JSON: a\[1\] is nan$"):
        json_text({"a": [0.0, math.nan]})
