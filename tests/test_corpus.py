"""Corpus integrity: frozen values, dual-path agreement, dimension sanity."""

import json
import subprocess
import sys

import pytest

from khh import cli
from khh.corpus import load_corpus, smoothness_suite, verify_entry
from khh.errors import OracleDisagreementError


FAST_ENTRIES = ["q", "cusp", "t2t5", "dualnum", "axes", "curve37a", "curve32a"]


def test_every_entry_has_tagged_values(corpus_entries):
    for entry in corpus_entries.values():
        values = entry.expected.get("values", {})
        assert values, entry.name
        for group, payload in values.items():
            assert payload.get("source"), (entry.name, group)
            assert "cells" in payload or "value" in payload, (entry.name, group)


def test_minimum_corpus_members(corpus_entries):
    required = {"q", "free1", "free2", "cusp", "t2t5", "cone", "dualnum",
                "curve37a", "fatplane"}
    assert required <= set(corpus_entries)


@pytest.mark.parametrize("name", FAST_ENTRIES)
def test_fast_entries_match_frozen_values(corpus_entries, name):
    observed, diffs = verify_entry(corpus_entries[name])
    assert diffs == [], diffs


def test_literature_disagreement_is_fatal(corpus_entries, tmp_path, capsys):
    entry = corpus_entries["cusp"]
    tampered = json.loads((entry.path / "expected.json").read_text())
    tampered["values"]["pinned"]["cells"]["tk:0,1"] = 7
    bad_dir = tmp_path / "cusp"
    bad_dir.mkdir()
    for f in entry.path.iterdir():
        (bad_dir / f.name).write_text(f.read_text())
    (bad_dir / "expected.json").write_text(json.dumps(tampered))
    # the frozen literature value is reported against the oracle's, never
    # replaced by it, and the report fails
    [bad] = load_corpus(tmp_path)
    observed, diffs = verify_entry(bad)
    assert observed["tk"]["0,1"] == 1
    assert diffs == [{"group": "pinned", "cell": "tk:0,1", "frozen": 7, "observed": 1}]
    assert cli.main(["report", "--corpus", str(tmp_path), "--jobs", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [{"entry": "cusp", "diffs": diffs}]


def test_deep_nilpotent_is_reported_non_reduced(tmp_path, capsys):
    # e is nilpotent, though e^29 != 0
    entry = tmp_path / "deep30"
    entry.mkdir()
    (entry / "algebra.alg").write_text("algebra deep30\nvars e:1\nrel e^30\n")
    (entry / "expected.json").write_text(json.dumps({"meta": {"n_max": 1, "w_max": 2}, "values": {}}))
    assert cli.main(["report", "--corpus", str(tmp_path), "--format", "json", "--jobs", "1"]) == 0
    jacobian = json.loads(capsys.readouterr().out)["entries"]["deep30"]["jacobian"]
    assert jacobian == {"status": "SINGULAR", "non_reduced": True, "zero_divisors": True}


def test_krull_dims_are_exact(corpus_entries):
    for entry in corpus_entries.values():
        if entry.algebra is None:
            continue
        assert entry.algebra.krull_dim() == entry.meta["krull_dim"], entry.name


def test_krull_dim_disagreement_is_fatal(corpus_entries, tmp_path):
    entry = corpus_entries["cusp"]
    tampered = json.loads((entry.path / "expected.json").read_text())
    tampered["meta"]["krull_dim"] = 2
    bad_dir = tmp_path / "cusp"
    bad_dir.mkdir()
    for f in entry.path.iterdir():
        (bad_dir / f.name).write_text(f.read_text())
    (bad_dir / "expected.json").write_text(json.dumps(tampered))

    with pytest.raises(OracleDisagreementError):
        smoothness_suite(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "khh.cli", "smoothness", "--corpus", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 5, proc.stderr


def test_fatplane_presentation_matches_monomial_count(corpus_entries):
    algebra = corpus_entries["fatplane"].algebra
    for w in range(17):
        expected = len(
            [
                (i, j)
                for i in range(w + 1)
                for j in range(w + 1)
                if i + 2 * j == w and (i + j >= 2 or i + j == 0)
            ]
        )
        assert algebra.dim(w) == expected, w


def test_smoothness_suite_passes():
    report = smoothness_suite()
    assert report.passed, report.violations
    rows = {r.name: r for r in report.rows}
    assert rows["cusp"].witness == (0, 1)
    assert rows["dualnum"].witness == (1, 1)
    assert rows["fatplane"].witness == (0, 1)
    assert rows["t2t5"].witness == (0, 1)
    for name in ("q", "free1", "free2", "free2b", "free3"):
        assert rows[name].jacobian == "SMOOTH" and rows[name].witness is None
    # members whose squares fall outside the one-point model carry a note
    assert not rows["axes"].has_square and rows["axes"].note
    assert not rows["cone"].has_square
