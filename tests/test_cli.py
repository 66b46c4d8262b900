import json
from pathlib import Path

import pytest

from lkbrep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rep_generator(capsys):
    code, out, _ = run(capsys, "rep", "--n", "2", "--k", "1")
    assert code == 0
    assert "-x^2y" in out


def test_rep_empty_word_is_identity(capsys):
    code, out, _ = run(capsys, "rep", "--n", "3", "--word", "")
    assert code == 0
    assert out.count("1") == 3


def test_rep_braid_relation_byte_identical(capsys):
    code, one, _ = run(capsys, "rep", "--n", "3", "--word", "1 2 1", "--format", "json")
    assert code == 0
    code, two, _ = run(capsys, "rep", "--n", "3", "--word", "2 1 2", "--format", "json")
    assert code == 0
    lhs = json.loads(one)
    rhs = json.loads(two)
    assert lhs["entries"] == rhs["entries"]


def test_json_deterministic(capsys):
    code, one, _ = run(capsys, "homology", "--n", "3", "--format", "json")
    code, two, _ = run(capsys, "homology", "--n", "3", "--format", "json")
    assert one == two


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--bogus"])
    assert exc.value.code == 2


def test_bad_n_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--n", "1"])
    assert exc.value.code == 2


def test_arrangement_single_line(tmp_path, capsys):
    f = tmp_path / "one.json"
    f.write_text(json.dumps({"lines": [{"a": "1", "b": "0", "c": "0"}]}))
    code, out, _ = run(capsys, "arrangement", "--input", str(f))
    assert code == 0
    assert "chambers 2, edges(Sal) 2, H1 rank 1" in out


def test_arrangement_two_crossing(tmp_path, capsys):
    f = tmp_path / "cross.json"
    f.write_text(json.dumps({"lines": [{"a": "1", "b": "0", "c": "0"},
                                       {"a": "0", "b": "1", "c": "0"}]}))
    code, out, _ = run(capsys, "arrangement", "--input", str(f))
    assert code == 0
    assert "H1 rank 2" in out


def test_arrangement_a2(tmp_path, capsys):
    lines = [{"a": "1", "b": "0", "c": "1"}, {"a": "1", "b": "0", "c": "2"},
             {"a": "0", "b": "1", "c": "1"}, {"a": "0", "b": "1", "c": "2"},
             {"a": "1", "b": "-1", "c": "0"}]
    f = tmp_path / "a2.json"
    f.write_text(json.dumps({"lines": lines}))
    code, out, _ = run(capsys, "arrangement", "--input", str(f))
    assert code == 0
    assert "H1 rank 5" in out


def test_arrangement_with_close_lines_never_raises(tmp_path, capsys):
    # three lines crossing in 3 distinct points, close together: 7 chambers
    lines = [{"a": "1", "b": "-11", "c": "-12"}, {"a": "26", "b": "-32", "c": "37"},
             {"a": "31", "b": "-36", "c": "47"}]
    f = tmp_path / "close.json"
    f.write_text(json.dumps({"lines": lines}))
    code, out, err = run(capsys, "arrangement", "--input", str(f), "--format", "json")
    assert code == 0, err
    out = json.loads(out)
    assert out["facets"]["chambers"] == 7
    assert out["h1"]["rank"] == 3


def test_arrangement_fixed_eight_lines(capsys):
    f = Path(__file__).resolve().parent.parent / "data" / "arrangements" / "family-08.json"
    code, out, err = run(capsys, "arrangement", "--input", str(f), "--format", "json")
    assert code == 0, err
    out = json.loads(out)
    assert out["lines"] == 8
    assert out["h1"]["rank"] == 8 and out["h1"]["torsion"] == []


@pytest.mark.parametrize("m", [24, 32])
def test_arrangement_fixed_wide_lines(capsys, m):
    f = Path(__file__).resolve().parent.parent / "data" / "arrangements" / f"wide-{m:02d}.json"
    code, out, err = run(capsys, "arrangement", "--input", str(f), "--format", "json")
    assert code == 0, err
    out = json.loads(out)
    assert out["lines"] == m
    assert out["h1"]["rank"] == m and out["h1"]["torsion"] == []


def test_arrangement_deeply_nested_json_exits_2(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    code, out, err = run(capsys, "arrangement", "--input", str(f))
    assert code == 2
    assert out == ""
    assert err == f"{f}: JSON nested too deeply to read\n"


def test_arrangement_long_integer_literal_exits_2(tmp_path, capsys):
    f = tmp_path / "long.json"
    f.write_text('{"lines": [{"a": ' + "1" * 5000 + ', "b": 0, "c": 0}]}')
    code, out, err = run(capsys, "arrangement", "--input", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{f}: Exceeds the limit")
    assert "Traceback" not in err


def test_arrangement_malformed_json(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"lines": [ {"a": "1", }')
    code, _, err = run(capsys, "arrangement", "--input", str(f))
    assert code == 2
    assert "line" in err and "column" in err


def test_arrangement_bad_schema(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"lines": [{"a": "1", "b": "0"}]}))
    code, _, err = run(capsys, "arrangement", "--input", str(f))
    assert code == 2
    assert "lines[0]" in err


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2")
    assert code == 0
    for row in out.splitlines():
        if "proper-submodule" in row or "eigen-structure" in row or "fork-classes" in row:
            assert "n/a" in row
        elif row.strip().startswith(("differential", "kernel", "eta", "h1",
                                     "integral", "matrix", "chain", "homology",
                                     "quotient")):
            assert "pass" in row


def test_verify_max_n_4_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    assert "FAIL" not in out and "n/a" not in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["first_failure"] is None
    assert {r["check"] for r in obj["rows"]} >= {"kernel-rank-and-span", "integral-basis"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["rep", "--n", "2", "--k", "1", "--format", "json", "--out", str(target)])
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["entries"][0][0] == {"terms": [[2, 1, "-1"]]}


def test_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "rep", "--n", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write {target}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3"],
    ["rep", "--seed", "1"],
    ["homology", "--max-n", "3"],
    ["arrangement", "--input", "x.json", "--max-n", "3"],
    ["verify", "--max-n", "1"],
])
def test_options_belong_to_the_commands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_complex_and_fork_and_action_commands(capsys):
    code, out, _ = run(capsys, "complex", "--n", "2")
    assert code == 0 and "2-cells 7" in out
    code, out, _ = run(capsys, "complex", "--n", "3", "--quotient")
    assert code == 0 and "vertices 10" in out
    code, out, _ = run(capsys, "fork", "--n", "3", "--p", "1", "--q", "3")
    assert code == 0 and "fork (1,3)" in out
    code, out, _ = run(capsys, "action", "--n", "2", "--k", "1")
    assert code == 0 and "chain map verified" in out
