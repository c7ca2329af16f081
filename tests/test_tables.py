"""Dimension tables: canonical serialization round-trips bit-exactly."""

import json

from khh.tables import DimensionTable, render


def _sample():
    table = DimensionTable("sample", ("n", "w"), metadata={"algebra": "cusp"})
    table.set((0, 1), 1)
    table.set((2, 5), 3)
    table.set((1, 0), 0)
    return table


def test_json_round_trip_bit_exact():
    table = _sample()
    text = table.canonical_json()
    obj = json.loads(text)
    back = DimensionTable(obj["label"], tuple(obj["axes"]), metadata=obj["metadata"])
    for key, value in obj["cells"].items():
        back.set(key.split(","), value)
    assert back.canonical_json() == text
    assert back.cells == table.cells and back.axes == table.axes


def test_canonical_json_is_sorted_and_tight():
    text = _sample().canonical_json()
    assert text.endswith("\n")
    assert ": " not in text and ", " not in text
    obj = json.loads(text)
    assert list(obj["cells"]) == sorted(obj["cells"])


def test_text_and_csv_renderings():
    table = _sample()
    text = render(table, "text")
    assert "# sample" in text and "# algebra = cusp" in text
    csv = render(table, "csv")
    assert csv.splitlines()[0] == "n,w,dim"
    assert "2,5,3" in csv.splitlines()
