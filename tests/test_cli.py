"""CLI: verbs, formats, exit codes, determinism, slice cache."""

import json
import subprocess
import sys

import pytest

from khh import cache, cli
from khh.fiber import ResolutionSquare
from khh.corpus import default_corpus_dir
from conftest import read_corpus_text


def run_cli(*argv, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "khh.cli", *argv],
        capture_output=True, text=True, env=full_env,
    )
    return proc


def corpus_file(name, filename):
    return str(default_corpus_dir() / name / filename)


def test_hh_json_row():
    proc = run_cli(
        "hh", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n", "1", "--max-weight", "8", "--format", "json",
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["cells"]["5"] == 2 and obj["cells"]["6"] == 1
    assert obj["metadata"]["convention"] == "standard"


def test_hh_free_algebra_all_zero():
    proc = run_cli(
        "hh", "--algebra", corpus_file("free1", "algebra.alg"),
        "--n", "2", "--max-weight", "8", "--format", "json",
    )
    obj = json.loads(proc.stdout)
    assert all(v == 0 for v in obj["cells"].values())


def test_hodge_free2_concentrates():
    proc = run_cli(
        "hodge", "--algebra", corpus_file("free2", "algebra.alg"),
        "--n", "2", "--max-weight", "4", "--format", "json",
    )
    obj = json.loads(proc.stdout)
    for key, value in obj["cells"].items():
        w, i = (int(p) for p in key.split(","))
        if i == 1:
            assert value == 0
        elif value:
            assert i == 2


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra f\nvars x:1\nrel x + %\n")
    proc = run_cli("hh", "--algebra", str(bad), "--n", "1", "--max-weight", "2")
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_exit_code_precondition(tmp_path):
    proc = run_cli("hh", "--algebra", str(tmp_path / "missing.alg"),
                   "--n", "1", "--max-weight", "2")
    assert proc.returncode == 3


@pytest.mark.parametrize("verb", ["report", "smoothness"])
def test_missing_or_non_directory_corpus_exits_3(tmp_path, capsys, verb):
    a_file = tmp_path / "corpus.txt"
    a_file.write_text("")
    for corpus in (tmp_path / "missing", a_file):
        assert cli.main([verb, "--corpus", str(corpus)]) == 3
        assert "is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("hh", "--algebra", corpus_file("cusp", "algebra.alg"), "--n", "1", "--max-weight", "-3"),
    ("pic", "--square", corpus_file("cusp", "square.sq"), "--poly-vars", "-1"),
    ("pic", "--square", corpus_file("cusp", "square.sq"), "--max-weight", "-1"),
    ("pic", "--square", corpus_file("cusp", "square.sq"), "--degree-cutoff", "-2"),
    ("cuspbundle", "--curve", corpus_file("curve32a", "curve.crv"), "--m", "-1"),
], ids=["hh-max-weight", "pic-poly-vars", "pic-max-weight", "pic-degree-cutoff",
        "cuspbundle-m"])
def test_exit_code_cutoff_inconsistency(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 3


def test_exit_code_torsion():
    proc = run_cli(
        "cuspbundle", "--curve", corpus_file("curve32a", "curve.crv"),
        "--n-max", "2", "--m", "1", "--j-cutoff", "2",
    )
    assert proc.returncode == 4


def test_exit_code_sanity_on_corrupt_convention():
    proc = run_cli(
        "kunneth", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n-max", "1", "--max-weight", "4", "--t-cutoff", "1",
        "--convention", "corrupt-b-drop-wrap", "--jobs", "1", "--format", "json",
    )
    assert proc.returncode == 5
    assert "failing cells" in proc.stderr


def test_kunneth_pass_small():
    proc = run_cli(
        "kunneth", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n-max", "1", "--max-weight", "5", "--t-cutoff", "1",
        "--jobs", "1", "--format", "json",
    )
    assert proc.returncode == 0


def test_cycles_reports_finding():
    proc = run_cli("cycles", "--i-max", "2", "--format", "json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["z_class_nonzero"] is True
    assert obj["convention_found"] == "NO_CONVENTION_FOUND"
    assert obj["fallback_classes"]["2"]["dim"] >= 1


def test_tk_with_crosschecks():
    proc = run_cli(
        "tk", "--square", corpus_file("cusp", "square.sq"),
        "--n-max", "2", "--max-weight", "8",
        "--formula-check", "--nk0", "--format", "json",
    )
    assert proc.returncode == 0
    tables = json.loads(proc.stdout)
    tk_cells = tables[0]["cells"]
    assert tk_cells["0,1"] == 1 and tk_cells["1,1"] == 1
    assert tk_cells["2,5"] == 1 and tk_cells["2,7"] == 1


def test_tk_degree_cutoff_needs_nk0(capsys):
    # the cutoff bounds only the NK_0 crosscheck, so alone it is refused, not ignored
    argv = ["tk", "--square", corpus_file("cusp", "square.sq"), "--max-weight", "6",
            "--format", "json"]
    assert cli.main([*argv, "--degree-cutoff", "2"]) == 3
    assert "--nk0" in capsys.readouterr().err
    outputs = {}
    for extra in ([], ["--degree-cutoff", "6"], ["--degree-cutoff", "2"]):
        assert cli.main([*argv, "--nk0", *extra]) == 0
        outputs[tuple(extra)] = json.loads(capsys.readouterr().out)
    assert outputs[()] == outputs[("--degree-cutoff", "6")]
    assert list(outputs[()][-1]["cells"]) == ["1", "2", "3", "4", "5", "6"]
    assert list(outputs[("--degree-cutoff", "2")][-1]["cells"]) == ["1", "2"]


def test_pic_and_cdh_omega():
    proc = run_cli(
        "pic", "--square", corpus_file("t2t5", "square.sq"),
        "--poly-vars", "1", "--degree-cutoff", "4", "--format", "json",
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["cells"]["1"] == 2
    proc = run_cli(
        "cdh-omega", "--square", corpus_file("cusp", "square.sq"),
        "--p", "1", "--q", "0", "--max-weight", "4", "--format", "json",
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("argv", [
    ("tk", "--square", corpus_file("cusp", "square.sq"), "--max-weight", "1"),
    ("tk", "--square", corpus_file("cusp", "square.sq"), "--max-weight", "2"),
    ("tk", "--square", corpus_file("cusp", "square.sq"), "--max-weight", "3"),
    ("tk", "--square", corpus_file("t2t5", "square.sq"), "--max-weight", "8"),
    ("pic", "--square", corpus_file("t2t5", "square.sq"), "--max-weight", "8"),
    ("pic", "--square", corpus_file("cusp", "square.sq"), "--max-weight", "0"),
], ids=["tk-cusp-1", "tk-cusp-2", "tk-cusp-3", "tk-t2t5-8", "pic-t2t5-8", "pic-cusp-0"])
def test_squares_at_small_bounds(argv):
    # a square is certified at least up to the default probe, so a small
    # bound neither rejects it nor truncates the conductor sums
    proc = run_cli(*argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    ref = run_cli(*argv[:-1], "14", "--format", "json")
    cells, ref_cells = json.loads(proc.stdout)["cells"], json.loads(ref.stdout)["cells"]
    assert cells == {key: ref_cells[key] for key in cells}
    if argv[0] == "pic" and "cusp" in argv[2]:
        assert json.loads(proc.stdout)["metadata"]["unipotent_rank"] == 1


T4T5 = """
algebra t4t5
vars x:4 y:5
rel y^4 - x^5

algebra line
vars t:1

normalize line x->t^4 y->t^5
conductor x^3 x^2*y x*y^2 y^3
"""


def test_square_with_a_conductor_above_the_probe_window(tmp_path, capsys):
    # k[t^4, t^5] has conductor t^12 k[t]: its quotients reach weight 11, so
    # the colength window is certified above the bound asked, never rejected
    path = tmp_path / "t4t5.sq"
    path.write_text(T4T5)
    cells = {}
    for w in (14, 20):
        assert cli.main(["tk", "--square", str(path), "--max-weight", str(w), "--format", "json"]) == 0
        cells[w] = json.loads(capsys.readouterr().out)["cells"]
    assert cells[14] == {key: cells[20][key] for key in cells[14]}
    assert cli.main(["pic", "--square", str(path), "--max-weight", "8"]) == 0
    # axes with conductor x: (A/x) = k[y] has infinite colength
    axes = tmp_path / "axes.sq"
    axes.write_text(read_corpus_text("axes", "square.sq").replace("conductor x y", "conductor x"))
    assert cli.main(["tk", "--square", str(axes), "--max-weight", "14"]) == 3
    assert "not finite" in capsys.readouterr().err


def test_curve_command():
    proc = run_cli("curve", "--curve", corpus_file("curve37a", "curve.crv"),
                   "--format", "json")
    obj = json.loads(proc.stdout)
    assert obj["discriminant"] == "37"
    torsion = {row["point"]: row["torsion"] for row in obj["points"]}
    assert torsion["(0, 0)"] is False and torsion["O"] is True


def test_cuspbundle_command():
    proc = run_cli(
        "cuspbundle", "--curve", corpus_file("curve37a", "curve.crv"),
        "--n-min", "-1", "--n-max", "4", "--m", "1", "--j-cutoff", "3",
        "--format", "json",
    )
    assert proc.returncode == 0
    tables = json.loads(proc.stdout)
    assert tables[0]["metadata"]["verdict"] == "all-zero"
    assert tables[1]["metadata"]["k0_plus"] == 6
    assert "discrepancy" in tables[1]["metadata"]["findings"]


def test_cuspbundle_rejects_a_reversed_n_range():
    curve = corpus_file("curve37a", "curve.crv")
    proc = run_cli("cuspbundle", "--curve", curve, "--n-min", "3", "--n-max", "1",
                   "--format", "json")
    assert proc.returncode == 3 and proc.stdout == ""
    proc = run_cli("cuspbundle", "--curve", curve, "--n-min", "1", "--n-max", "1",
                   "--format", "json")
    assert proc.returncode == 0


def test_smoothness_command():
    proc = run_cli("smoothness", "--format", "json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["passed"] is True
    rows = {row["name"]: row for row in obj["rows"]}
    assert rows["cusp"]["witness"] == [0, 1]
    assert rows["free1"]["witness"] is None


def test_byte_identical_reruns():
    args = (
        "hh", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n", "2", "--max-weight", "9", "--format", "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout


def test_cache_dir_round_trip(tmp_path):
    cache = tmp_path / "cache"
    args = (
        "hh", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n", "2", "--max-weight", "8", "--format", "json",
    )
    cold = run_cli(*args, env={"KHH_CACHE_DIR": str(cache)})
    assert cold.returncode == 0
    assert list(cache.glob("*.json"))
    warm = run_cli(*args, env={"KHH_CACHE_DIR": str(cache)})
    assert warm.stdout == cold.stdout


def test_cache_ignores_malformed_values(tmp_path):
    cache = tmp_path / "cache"
    args = (
        "hh", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n", "1", "--max-weight", "5", "--format", "json",
    )
    cold = run_cli(*args, env={"KHH_CACHE_DIR": str(cache)})
    assert cold.returncode == 0
    assert json.loads(cold.stdout)["cells"]["5"] == 2
    files = list(cache.glob("*.json"))
    assert files
    for bad in ('{"value": -7}', '{"value": true}'):
        for path in files:
            path.write_text(bad)
        warm = run_cli(*args, env={"KHH_CACHE_DIR": str(cache)})
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout, bad


def test_square_verbs_reject_other_conventions():
    proc = run_cli(
        "tk", "--square", corpus_file("cusp", "square.sq"),
        "--n-max", "2", "--max-weight", "8",
        "--convention", "corrupt-b-drop-wrap", "--format", "json",
    )
    assert proc.returncode == 3
    assert "standard convention" in proc.stderr
    for argv in (
        ("pic", "--square", corpus_file("t2t5", "square.sq")),
        ("cdh-omega", "--square", corpus_file("cusp", "square.sq"),
         "--p", "1", "--q", "0", "--max-weight", "4"),
    ):
        assert run_cli(*argv, "--convention", "b-transpose").returncode == 3
    # a convention accepted elsewhere that changes nothing here exits 3 too
    hh = ("hh", "--algebra", corpus_file("cusp", "algebra.alg"), "--n", "1",
          "--max-weight", "4")
    cuspbundle = ("cuspbundle", "--curve", corpus_file("curve37a", "curve.crv"),
                  "--n-max", "2", "--m", "1", "--j-cutoff", "2")
    for argv, conv in (
        (hh, "twist-minus"),
        (("kunneth", *hh[1:3], "--n-max", "1", "--max-weight", "4",
          "--t-cutoff", "1"), "twist-minus"),
        (cuspbundle, "corrupt-b-drop-wrap"),
        (cuspbundle, "b-transpose"),
    ):
        proc = run_cli(*argv, "--convention", conv)
        assert proc.returncode == 3, (argv, conv, proc.stderr)
        assert conv in proc.stderr
    assert run_cli(*cuspbundle, "--convention", "twist-minus").returncode == 0


def test_invalid_job_counts_exit_3():
    kunneth = (
        "kunneth", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n-max", "1", "--max-weight", "4", "--t-cutoff", "1", "--format", "json",
    )
    for argv in (kunneth + ("--jobs", "-3"), kunneth + ("--jobs", "0"), ("report", "--jobs", "-7")):
        proc = run_cli(*argv)
        assert proc.returncode == 3, argv
        assert proc.stdout == ""
        assert "jobs" in proc.stderr.lower()


def test_valid_job_counts_still_run(tmp_path):
    kunneth = (
        "kunneth", "--algebra", corpus_file("cusp", "algebra.alg"),
        "--n-max", "1", "--max-weight", "4", "--t-cutoff", "1", "--format", "json",
    )
    assert run_cli(*kunneth, "--jobs", "2").returncode == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "q").symlink_to(default_corpus_dir() / "q")
    assert run_cli("report", "--corpus", str(corpus), "--jobs", "2").returncode == 0


def _linked_corpus(tmp_path, *names):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in names:
        (corpus / name).symlink_to(default_corpus_dir() / name)
    return corpus


def test_report_bytes_identical_across_job_counts(tmp_path):
    corpus = _linked_corpus(tmp_path, "q", "dualnum", "cusp")
    runs = [
        run_cli("report", "--corpus", str(corpus), "--format", "json", "--jobs", jobs)
        for jobs in ("1", "2")
    ]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert sorted(json.loads(runs[0].stdout)["entries"]) == ["cusp", "dualnum", "q"]
    assert runs[0].stdout == runs[1].stdout


def test_report_worker_parse_error_keeps_exit_code(tmp_path):
    corpus = _linked_corpus(tmp_path, "q", "dualnum")
    (corpus / "bad").mkdir()
    (corpus / "bad" / "algebra.alg").write_text("algebra f\nvars x:1\nrel x + %\n")
    for jobs in ("1", "2"):
        proc = run_cli("report", "--corpus", str(corpus), "--format", "json", "--jobs", jobs)
        assert proc.returncode == 2, (jobs, proc.stderr)
        assert proc.stdout == ""
        assert "line 3" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["report", "--format", "csv"],
    ["report", "--format", "text"],
    ["cycles", "--format", "csv"],
    ["curve", "--curve", corpus_file("curve37a", "curve.crv"), "--format", "csv"],
    ["smoothness", "--format", "csv"],
])
def test_a_format_the_verb_does_not_write_exits_3(argv, capsys):
    # these verbs used to print JSON or text whatever --format asked for
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"not {argv[-1]}" in out.err


def test_report_defaults_to_json(tmp_path):
    corpus = _linked_corpus(tmp_path, "q")
    plain = run_cli("report", "--corpus", str(corpus), "--jobs", "1")
    json_run = run_cli("report", "--corpus", str(corpus), "--format", "json", "--jobs", "1")
    assert plain.returncode == json_run.returncode == 0
    assert plain.stdout == json_run.stdout
    assert json.loads(plain.stdout)["entries"]["q"]


CUSP_SQUARE = "algebra cusp\nvars x:2 y:3\nrel y^2 - x^3\n\nalgebra line\nvars t:1\n\n"


@pytest.mark.parametrize("verb, text, where", [
    ("hh", "algebra a\nvars x:1 y:2\nrel 1/0*x^2 - y\n", "line 3, col 5"),
    ("tk", CUSP_SQUARE + "normalize line x->1/0*t^2 y->t^3\nconductor x y\n", "line 8, col 19"),
    ("tk", CUSP_SQUARE + "normalize line x->t^2 y->t^3\nconductor x 1/0*y\n", "line 9, col 13"),
    # a column is the file line's, at the offending token itself
    ("hh", "algebra f\nvars x:1\nrel x + %\n", "line 3, col 9"),
    ("hh", "algebra a\nvars x:1 y:2\nrel x^2 - q\n", "line 3, col 11"),
    # an operator left dangling is an error at its own column
    ("hh", "algebra a\nvars x:1 y:2\nrel x ++\n", "line 3, col 8"),
    ("hh", "algebra a\nvars x:1 y:2\nrel x -\n", "line 3, col 7"),
    ("hh", "algebra a\nvars x:1 y:2\nrel x *\n", "line 3, col 7"),
    ("hh", "algebra a\nvars x:1 y:2\nrel x**y\n", "line 3, col 7"),
    ("curve", "curve 0 0 1/0 -1 0\n", "line 1"),
    ("curve", "curve 0 0 1 -1 0\npoint 1/0 0\n", "line 2"),
])
def test_zero_denominator_is_a_parse_error(tmp_path, capsys, verb, text, where):
    path = tmp_path / "input"
    path.write_text(text)
    argv = {
        "hh": ["hh", "--algebra", str(path), "--n", "0", "--max-weight", "2"],
        "tk": ["tk", "--square", str(path), "--n-max", "1", "--max-weight", "2"],
        "curve": ["curve", "--curve", str(path)],
    }[verb]
    assert cli.main(argv) == 2
    assert f"({where})" in capsys.readouterr().err


def test_repeated_names_are_parse_errors(tmp_path, capsys):
    alg = tmp_path / "twice.alg"
    alg.write_text("algebra a\nvars x:2 x:3\nrel x^2\n")
    assert cli.main(["hh", "--algebra", str(alg), "--n", "0", "--max-weight", "6"]) == 2
    assert "repeated generator 'x' (line 2)" in capsys.readouterr().err
    square = tmp_path / "twice.sq"
    square.write_text(
        CUSP_SQUARE + "algebra line\nvars t:1\n\nnormalize line x->t^2 y->t^3\nconductor x y\n"
    )
    assert cli.main(["tk", "--square", str(square), "--max-weight", "2"]) == 2
    assert "repeated algebra name 'line' (line 8)" in capsys.readouterr().err
    # the parsers reject the repeat, the constructor does not: A[t] over a
    # generator named t still builds
    line = ResolutionSquare.parse(CUSP_SQUARE + "normalize line x->t^2 y->t^3\nconductor x y\n")
    assert line.branches[0][0].with_polynomial_generator("t").gens == ("t", "t")


def test_unusable_cache_dir_exits_3(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    env = {"KHH_CACHE_DIR": str(blocker)}
    hh = run_cli("hh", "--algebra", corpus_file("cusp", "algebra.alg"),
                 "--n", "1", "--max-weight", "3", env=env)
    kunneth = run_cli("kunneth", "--algebra", corpus_file("cusp", "algebra.alg"),
                      "--n-max", "1", "--max-weight", "4", "--t-cutoff", "1", "--jobs", "2",
                      env=env)
    for proc in (hh, kunneth):
        assert proc.returncode == 3, proc.stderr
        assert "KHH_CACHE_DIR" in proc.stderr and "Traceback" not in proc.stderr
    # a temp file that cannot be made stores nothing, as a failed rename does
    cache_root = tmp_path / "cache"
    monkeypatch.setenv("KHH_CACHE_DIR", str(cache_root))

    def no_temp_file(*args, **kwargs):
        raise OSError("no temp file")

    monkeypatch.setattr(cache.tempfile, "mkstemp", no_temp_file)
    path = cache.cell_path(("q", (), (), ()), "standard", "hh", 0, (0,))
    cache.put(path, 7)
    assert list(cache_root.iterdir()) == [] and cache.get(path) is None
