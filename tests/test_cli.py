import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from chowops import cli
from chowops import groups as gp
from chowops.cli import format_poly, format_rows, main, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_adem_examples(capsys):
    code, out, _ = run(capsys, "adem", "--prime", "3", "--expr", "P^1 P^1")
    assert code == 0 and out.strip() == "2 P^2"
    code, out, _ = run(capsys, "adem", "--prime", "2", "--expr", "P^3 P^1")
    assert code == 0 and out.strip() == "P^3 P^1"
    code, out, err = run(capsys, "adem", "--prime", "2", "--expr", "P^1 + P^2")
    assert code == 2 and "error" in err


def test_adem_sq_alias(capsys):
    code, out, _ = run(capsys, "adem", "--prime", "2", "--expr", "Sq^4")
    assert code == 0 and out.strip() == "P^2"
    code, _, err = run(capsys, "adem", "--prime", "2", "--expr", "Sq^3")
    assert code == 2 and "odd" in err


def test_act_examples(capsys):
    code, out, _ = run(capsys, "act", "--prime", "2", "--rank", "1",
                       "--op", "P^1", "--poly", "y1^3")
    assert code == 0 and out.strip() == "y1^4"
    for p in (2, 3, 5):
        code, out, _ = run(capsys, "act", "--prime", str(p), "--rank", "1",
                           "--op", "P^1", "--poly", "y1")
        assert out.strip() == f"y1^{p}"
    code, out, _ = run(capsys, "act", "--prime", "2", "--rank", "1",
                       "--op", "P^5", "--poly", "y1^2")
    assert out.strip() == "0"


@pytest.mark.parametrize("op", ["P^10000000000", "P^10000000000 P^1"])
def test_act_above_the_degree_is_zero(capsys, op):
    # P^a vanishes in degree < a: nothing is expanded up to a
    code, out, err = run(capsys, "act", "--prime", "2", "--rank", "1",
                         "--op", op, "--poly", "y1")
    assert (code, out.strip(), err) == (0, "0", "")


def test_act_rejects_inhomogeneous(capsys):
    code, _, err = run(capsys, "act", "--prime", "2", "--rank", "1",
                       "--op", "P^1", "--poly", "y1 + y1^2")
    assert code == 2 and "inhomogeneous" in err


def test_poly_roundtrip():
    f = parse_poly("2 y1^3 y2 + y2^2 + 3", 2)
    assert f == {(3, 1): 2, (0, 2): 1, (0, 0): 3}
    assert format_poly({(1, 2): 1, (0, 0): 2}, 2) == "y1 y2^2 + 2"


def test_act_unit_feeds_back(capsys):
    # the unit prints as "1", so "1" must parse
    code, out, _ = run(capsys, "act", "--prime", "3", "--rank", "1",
                       "--op", "1", "--poly", "4")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "act", "--prime", "3", "--rank", "1",
                       "--op", "1", "--poly", out.strip())
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("poly", ["", " ", "y1 +", "+ y1", "y1 + + y1",
                                  "2 *", "y1 *", "y1^", "y2", "y1 %"])
def test_act_rejects_incomplete_polynomial(capsys, poly):
    code, out, err = run(capsys, "act", "--prime", "3", "--rank", "1",
                         "--op", "1", "--poly", poly)
    assert code == 2 and not out and "error: --poly:" in err


@st.composite
def polys(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from([2, 3, 5]))
    monos = st.tuples(*[st.integers(0, 4)] * k)
    return k, draw(st.dictionaries(monos, st.integers(1, p - 1),
                                   min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(polys())
@example((2, {(0, 0): 1, (1, 2): 1}))
def test_poly_parse_inverts_format(kf):
    k, f = kf
    assert parse_poly(format_poly(f, k), k) == f


def test_tv_structural_table(capsys, data_dir):
    path = str(data_dir / "groups" / "z3.json")
    code, out, _ = run(capsys, "tv", "--group", path, "--rank", "1",
                       "--cutoff", "4", "--prime", "3")
    assert code == 0
    rows = [ln for ln in out.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("rank")]
    assert all(int(ln.split("\t")[2]) == 3 for ln in rows)


@pytest.mark.parametrize("group, order", [("s3", 6), ("a4", 12), ("d4", 8),
                                          ("q8", 8)])
def test_tv_nonabelian_group_names_the_missing_ring(capsys, data_dir, group,
                                                    order):
    # the trivial class's centralizer is the whole nonabelian group, and
    # the catalog has no ring for it
    path = str(data_dir / "groups" / f"{group}.json")
    assert run(capsys, "tv", "--group", path) == (
        2, "", f"error: tv --group needs an abelian group; {group.upper()} "
        f"(order {order}) is not, and the catalog has rings of abelian "
        "groups only\n")


def test_tv_module_table(capsys, data_dir):
    path = str(data_dir / "modules" / "point2_p3.json")
    code, out, _ = run(capsys, "tv", "--module", path, "--rank", "2",
                       "--cutoff", "4", "--prime", "3", "--format", "json")
    doc = json.loads(out)
    dims = {r[1]: r[2] for r in doc["rows"]}
    assert dims == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0}


def test_tv_needs_exactly_one_source(capsys, data_dir):
    path = str(data_dir / "groups" / "z3.json")
    code, _, err = run(capsys, "tv", "--group", path, "--module", path)
    assert code == 2


def test_reps_s3(capsys, data_dir):
    path = str(data_dir / "groups" / "s3.json")
    code, out, _ = run(capsys, "reps", "--group", path, "--prime", "2",
                       "--rank", "1")
    assert code == 0 and "# classes\t2" in out


def test_nil(capsys, data_dir):
    path = str(data_dir / "modules" / "point2_p2.json")
    code, out, _ = run(capsys, "nil", "--module", path, "--cutoff", "8")
    assert code == 0 and "2\texact" in out


def test_quillen_check(capsys, data_dir):
    path = str(data_dir / "groups" / "klein.json")
    code, out, _ = run(capsys, "quillen-check", "--group", path,
                       "--prime", "2", "--cutoff", "6")
    assert code == 0
    assert "# kernel_trivial\tTrue" in out
    assert "# image_full\tTrue" in out


def test_quillen_check_nonabelian_names_the_missing_ring(capsys, data_dir):
    path = str(data_dir / "groups" / "s3.json")
    assert run(capsys, "quillen-check", "--group", path) == (
        2, "", "error: S3: localization needs catalog rings and the "
        "restriction maps between centralizer rings, and catalog rings "
        "exist for abelian groups only\n")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 11, 3037000493]), st.integers(0, 5),
       st.integers(0, 6), st.data())
@example(2, 3, 0, None)    # zero-length rows
@example(11, 0, 4, None)   # no rows
@example(11, 3, 4, "zeros")
@example(3037000493, 2, 3, "tops")
def test_format_rows_joins_each_row(p, n, m, data):
    # the one-buffer formatter is str.join over each row, at every width
    # of residue, including rows of p - 1 and rows of zeros
    if data is None or data == "zeros":
        mat = np.zeros((n, m), dtype=np.int64)
    elif data == "tops":
        mat = np.full((n, m), p - 1, dtype=np.int64)
    else:
        mat = np.array(data.draw(st.lists(st.integers(0, p - 1),
                                          min_size=n * m, max_size=n * m)),
                       dtype=np.int64).reshape(n, m)
    assert format_rows(mat) == [" ".join(map(str, row)) for row in mat.tolist()]


def test_localize(capsys, data_dir):
    path = str(data_dir / "groups" / "z4.json")
    code, out, _ = run(capsys, "localize", "--group", path, "--prime", "2",
                       "--level", "2", "--cutoff", "4")
    assert code == 0
    data_rows = [ln.split("\t") for ln in out.splitlines()
                 if ln and not ln.startswith(("#", "degree"))]
    assert all(row[4] == "True" and row[5] == "True" for row in data_rows)


def test_d0(capsys, data_dir):
    path = str(data_dir / "groups" / "klein.json")
    code, out, _ = run(capsys, "d0", "--group", path, "--cutoff", "5",
                       "--prime", "2")
    assert code == 0
    assert out.splitlines()[0] == "d0 = 0 (verified-through-cutoff)"
    assert "bounds: d0 <= 1, d1 <= 2" in out


@pytest.mark.parametrize("value", ["-1", "0"])
def test_d0_faithful_degree_must_be_positive(capsys, data_dir, value):
    # 0 is refused, not replaced by the file's faithful_degree
    path = str(data_dir / "groups" / "klein.json")
    code, out, err = run(capsys, "d0", "--group", path, "--cutoff", "4",
                         "--faithful-degree", value)
    assert code == 2 and out == ""
    assert "--faithful-degree" in err


def test_strict_escalates_unresolved(capsys, data_dir):
    # the free module's lowering orbits leave any finite window, so the
    # verdict is at-least; --strict turns that into exit code 3
    path = str(data_dir / "modules" / "free1_p2.json")
    code, out, _ = run(capsys, "nil", "--module", path, "--cutoff", "4",
                       "--strict")
    assert code == 3 and "at-least" in out
    code, _, _ = run(capsys, "nil", "--module", path, "--cutoff", "4")
    assert code == 0


def test_nonabelian_localize_fails_cleanly(capsys, data_dir):
    path = str(data_dir / "groups" / "s3.json")
    code, _, err = run(capsys, "localize", "--group", path, "--prime", "2")
    assert code == 2 and "abelian" in err



@pytest.mark.parametrize("command", ["quillen-check"])
def test_unenumerable_lattice_is_refused_at_once(capsys, tmp_path, command):
    # (Z/2)^9 is inside the order cap, but its lattice has 8,283,458
    # objects and 5.19e9 inclusions: `quillen-check`, which enumerates the
    # objects, refuses it from the Gaussian binomials
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"abelian": [2] * 9, "name": "(Z/2)^9"}))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--group", str(path), "--prime",
                         "2", "--cutoff", "2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: (Z/2)^9: its elementary abelian 2-subgroups number "
        "8,283,458, with 5,188,919,427 inclusions, above the cap of "
        f"{gp.MAX_INCLUSIONS:,} inclusions\n")


def test_unenumerable_lattice_is_answered_from_the_top(capsys, tmp_path):
    # `localize` and `d0` read (Z/2)^9 off T alone: the counts are
    # Gaussian binomial sums, computed here from the products that define
    # them, and every degree's equalizer is the whole ring
    def subspaces(r, k):
        num = den = 1
        for i in range(k):
            num, den = num * (2 ** (r - i) - 1), den * (2 ** (i + 1) - 1)
        return num // den

    objects = sum(subspaces(9, k) for k in range(10))
    inclusions = sum(subspaces(9, k) * subspaces(9 - k, l - k)
                     for k in range(10) for l in range(k, 10))
    assert (objects, inclusions) == (8_283_458, 5_188_919_427)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"abelian": [2] * 9, "name": "(Z/2)^9"}))
    start = time.perf_counter()
    code, out, err = run(capsys, "localize", "--group", str(path), "--level",
                         "1", "--cutoff", "2", "--format", "json")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["meta"]["classes"], doc["meta"]["morphisms"]) \
        == (objects, inclusions)
    rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
    assert [(row["source_dim"], row["equalizer_dim"]) for row in rows] \
        == [(math.comb(d + 8, 8),) * 2 for d in range(3)]
    code, out, err = run(capsys, "d0", "--group", str(path), "--cutoff", "2")
    assert (code, out, err) == (0, "d0 = 0 (verified-through-cutoff)\n", "")


def test_missing_file(capsys):
    code, _, err = run(capsys, "reps", "--group", "nope.json")
    assert code == 2 and "no such file" in err


def test_malformed_group_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"abelian": [2.7]}))
    code, _, err = run(capsys, "reps", "--group", str(path))
    assert code == 2 and "abelian[0]" in err


def test_malformed_module_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"prime": 2, "generators": [{"name": "g", "degree": 2.9}]}))
    code, _, err = run(capsys, "tv", "--module", str(path), "--cutoff", "3")
    assert code == 2 and "generators[0].degree" in err


# a file whose top-level value is not an object, or whose fields have the
# wrong JSON type, exits 2 with one error line naming the field
@pytest.mark.parametrize("blob, field", [
    ("5", "expected a JSON object, got 5"),
    ("null", "expected a JSON object, got None"),
    ("[[1]]", "expected a JSON object, got [[1]]"),
    ('"abc"', "expected a JSON object, got 'abc'"),
    ('{"abelian": [2], "name": 5}', "name: expected a string, got 5"),
    ('{"abelian": [2], "name": null}', "name: expected a string, got None"),
])
def test_group_file_of_the_wrong_shape(capsys, tmp_path, blob, field):
    path = tmp_path / "g.json"
    path.write_text(blob)
    assert run(capsys, "localize", "--group", str(path)) == (
        2, "", f"error: {path}: {field}\n")


@pytest.mark.parametrize("blob, field", [
    ("5", "expected a JSON object, got 5"),
    ("null", "expected a JSON object, got None"),
    ('[{"prime": 2}]', "expected a JSON object, got [{'prime': 2}]"),
    ('"abc"', "expected a JSON object, got 'abc'"),
    ('{"prime": 2, "name": 5}', "name: expected a string, got 5"),
    ('{"prime": 2, "generators": 5}', "generators: expected a list, got 5"),
    ('{"prime": 2, "relations": {}}', "relations: expected a list, got {}"),
    ('{"prime": 2, "generators": [{"name": "g", "degree": 0}], '
     '"relations": [5]}', "relations[0]: expected a list, got 5"),
    ('{"prime": 2, "generators": [{"name": ["g"], "degree": 0}]}',
     "generators[0].name: expected a string, got ['g']"),
    ('{"prime": 2, "generators": [{"name": "g", "degree": 0}], '
     '"relations": [[{"op": 5, "gen": "g"}]]}',
     "relations[0][0].op: expected a string, got 5"),
])
def test_module_file_of_the_wrong_shape(capsys, tmp_path, blob, field):
    path = tmp_path / "m.json"
    path.write_text(blob)
    assert run(capsys, "nil", "--module", str(path)) == (
        2, "", f"error: {path}: {field}\n")


def test_closed_stdout_exits_without_a_traceback(tmp_path):
    # the reader closes the pipe after one line, as `| head -1` does: the
    # run stops with its documented exit code and writes nothing to stderr
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"abelian": [2, 2, 2]}))
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "chowops.cli", "quillen-check", "--prime",
         "2", "--cutoff", "14", "--group", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    with proc.stderr:
        assert proc.stderr.read() == b""


# each subcommand takes --strict and --format only where they change the
# exit code or the output
@pytest.mark.parametrize("argv", [
    ["adem", "--expr", "P^1", "--strict"],
    ["adem", "--expr", "P^1", "--format", "json"],
    ["act", "--rank", "1", "--op", "P^1", "--poly", "y1", "--strict"],
    ["act", "--rank", "1", "--op", "P^1", "--poly", "y1", "--format", "json"],
    ["tv", "--group", "z3.json", "--strict"],
    ["reps", "--group", "s3.json", "--strict"],
    ["quillen-check", "--group", "z2.json", "--strict"],
    ["localize", "--group", "z2.json", "--strict"],
    ["d0", "--group", "klein.json", "--format", "json"],
    ["d0", "--group", "klein.json", "--strict"],
])
def test_flags_without_effect_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser(data_dir):
    # README's `flag | subcommands` table names, for each shared flag,
    # exactly the subcommands that register it
    readme = (data_dir.parent / "README.md").read_text()
    table = readme.split("| flag | subcommands |\n| --- | --- |\n")[1]
    rows = table.split("\n\n")[0].splitlines()
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices
    registered = {name: {s for a in sp._actions for s in a.option_strings}
                  for name, sp in sub.items()}
    flags = []
    for row in rows:
        flag_cell, subs_cell = row.strip("|").split(" | ")
        flag = re.search(r"`(--[a-z-]+)", flag_cell)[1]
        named = set(re.findall(r"`([a-z0-9-]+)`", subs_cell))
        if subs_cell.strip().startswith("all but"):
            named = set(sub) - named
        flags.append(flag)
        assert named == {name for name, opts in registered.items()
                         if flag in opts}, flag
    assert flags == ["--prime", "--cutoff", "--format", "--strict"]


@pytest.mark.parametrize("argv, flag", [
    (["act", "--rank", "-1", "--op", "P^1", "--poly", "1"], "--rank"),
    (["tv", "--group", "{data}/groups/z3.json", "--rank", "4"], "--rank"),
    (["tv", "--module", "{data}/modules/point2_p2.json", "--rank", "-1"],
     "--rank"),
    (["reps", "--group", "{data}/groups/s3.json", "--rank", "4"], "--rank"),
    (["reps", "--group", "{data}/groups/s3.json", "--rank", "-1"], "--rank"),
    (["localize", "--group", "{data}/groups/z2.json", "--level", "0"],
     "--level"),
])
def test_flag_value_errors_name_the_flag(capsys, data_dir, argv, flag):
    code, out, err = run(capsys, *(a.format(data=data_dir) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("exc, message", [
    (MemoryError, "out of memory"),
    (RecursionError, "maximum recursion depth exceeded"),
])
def test_resource_exhaustion_exits_4(capsys, monkeypatch, exc, message):
    # one error line and exit 4, not a traceback
    def exhausted(args):
        raise exc()

    monkeypatch.setattr(cli, "cmd_adem", exhausted)
    assert run(capsys, "adem", "--expr", "P^1") == (
        4, "", f"error: {message}\n")


def test_bad_prime(capsys):
    code, _, err = run(capsys, "adem", "--prime", "4", "--expr", "P^1")
    assert code == 2


def test_json_mirrors_tsv(capsys, data_dir):
    path = str(data_dir / "groups" / "z2.json")
    _, tsv, _ = run(capsys, "localize", "--group", path, "--prime", "2",
                    "--cutoff", "3")
    _, js, _ = run(capsys, "localize", "--group", path, "--prime", "2",
                   "--cutoff", "3", "--format", "json")
    doc = json.loads(js)
    tsv_rows = [ln.split("\t") for ln in tsv.splitlines()
                if ln and not ln.startswith(("#", "degree"))]
    assert len(tsv_rows) == len(doc["rows"])
    for trow, jrow in zip(tsv_rows, doc["rows"]):
        assert [str(x) for x in jrow] == trow


def test_determinism_byte_identical(capsys, data_dir):
    args = ("quillen-check", "--group",
            str(data_dir / "groups" / "z3sq.json"), "--prime", "3",
            "--cutoff", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# the benchmark's four runs, at its sizes: numpy imports numpy.ma lazily,
# at about 10 ms, and none of them needs it
@pytest.mark.parametrize("argv,group", [
    (["localize", "--prime", "3", "--level", "3", "--cutoff", "10"],
     {"abelian": [3, 3, 3]}),
    (["d0", "--prime", "2", "--cutoff", "12", "--faithful-degree", "3"],
     {"abelian": [2, 2, 2]}),
    (["quillen-check", "--prime", "2", "--cutoff", "14"],
     {"abelian": [2, 2, 2]}),
    (["reps", "--prime", "2", "--rank", "3"],
     {"degree": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]}),
])
def test_runs_leave_numpy_ma_unimported(tmp_path, argv, group):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group))
    code = ("import sys\n"
            "from chowops.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n")
    src = Path(cli.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code, *argv, "--group", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=True)
    assert out.stderr.splitlines()[-1] == "0 False"
