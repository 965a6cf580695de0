import json

import pytest

from chowops.cli import main, parse_poly, format_poly


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


def test_act_rejects_inhomogeneous(capsys):
    code, _, err = run(capsys, "act", "--prime", "2", "--rank", "1",
                       "--op", "P^1", "--poly", "y1 + y1^2")
    assert code == 2 and "inhomogeneous" in err


def test_poly_roundtrip():
    f = parse_poly("2 y1^3 y2 + y2^2 + 3", 2)
    assert f == {(3, 1): 2, (0, 2): 1, (0, 0): 3}
    assert format_poly({(1, 2): 1, (0, 0): 2}, 2) == "y1 y2^2 + 2"


def test_tv_structural_table(capsys, data_dir):
    path = str(data_dir / "groups" / "z3.json")
    code, out, _ = run(capsys, "tv", "--group", path, "--rank", "1",
                       "--cutoff", "4", "--prime", "3")
    assert code == 0
    rows = [ln for ln in out.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("rank")]
    assert all(int(ln.split("\t")[2]) == 3 for ln in rows)


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
                       "--prime", "2", "--cutoff", "6", "--strict")
    assert code == 0
    assert "# kernel_trivial\tTrue" in out
    assert "# image_full\tTrue" in out


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


# each subcommand takes --strict and --format only where they change the
# exit code or the output
@pytest.mark.parametrize("argv", [
    ["adem", "--expr", "P^1", "--strict"],
    ["adem", "--expr", "P^1", "--format", "json"],
    ["act", "--rank", "1", "--op", "P^1", "--poly", "y1", "--strict"],
    ["act", "--rank", "1", "--op", "P^1", "--poly", "y1", "--format", "json"],
    ["tv", "--group", "z3.json", "--strict"],
    ["reps", "--group", "s3.json", "--strict"],
    ["localize", "--group", "z2.json", "--strict"],
    ["d0", "--group", "klein.json", "--format", "json"],
])
def test_flags_without_effect_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
