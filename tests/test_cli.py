"""CLI behaviour: subcommands, formats, determinism, exit codes."""

import json

import pytest

from latticejets import cli, jets
from latticejets.cli import main
from latticejets.errors import InvariantError

TYPE_II_POLYGON = '{"dim": 2, "vertices": [[0, 0], [0, 1], [5, 0]]}'
TYPE_II_POINTS = ('{"dim": 2, "points": [[0, 0], [1, 0], [2, 0], [3, 0], '
                  '[4, 0], [5, 0], [0, 1]]}')
DELTA_PRIME = ('{"dim": 3, "vertices": [[0, 0, 0], [572, 286, 143], '
               '[390, 195, -585], [495, -330, -165]]}')


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_points_command(capsys):
    code, out, _ = run(capsys, ["points", TYPE_II_POINTS, "--m", "2",
                                "--direction", "0,1"])
    assert code == 0
    report = json.loads(out)
    assert report["tool"]["name"] == "latticejets"
    assert report["input"]["points"][0] == [0, 0]
    result = report["result"]
    assert result["min_vanishing_degree"] == 2
    assert result["base_point"]["feasibility_route"] is True
    assert result["base_point"]["agree"] is True
    assert result["base_point"]["witness"] == "x2^2 - x2"
    assert result["base_locus"]["empty"] is False


def test_readme_points_run_builds_the_monomial_rows_twice(capsys, monkeypatch):
    # once for the memoised jet echelon, once for the feasibility route
    calls = []
    build = jets._monomial_rows
    monkeypatch.setattr(jets, "_monomial_rows", lambda s, m: calls.append(m) or build(s, m))
    code, _, _ = run(capsys, ["points", TYPE_II_POINTS, "--m", "2", "--direction", "0,1"])
    assert code == 0
    assert calls == [2, 1]


def test_points_oracle_mode(capsys):
    code, out, _ = run(capsys, ["points", TYPE_II_POINTS, "--m", "2", "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["rank"]["agree"] is True
    assert report["oracle"]["right_kernel_span"]["agree"] is True
    assert report["oracle"]["base_locus_gcd_degree"]["agree"] is True


def test_polytope_command(capsys):
    code, out, _ = run(capsys, ["polytope", DELTA_PRIME, "--direction", "1,0,0"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lattice_width"]["width"] == 572
    assert result["lattice_width"]["certified"] is True
    assert result["pseudonef_bound"] == 572
    assert result["width_in_direction"]["width"] == 572
    code, out, _ = run(capsys, ["polytope", DELTA_PRIME, "--width-budget", "10"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lattice_width"]["width"] == 572
    assert result["lattice_width"]["certified"] is False


def test_polytope_oracle_small(capsys):
    code, out, _ = run(capsys, ["polytope",
                                '{"dim": 2, "vertices": [[0,0],[0,1],[2,1],[3,0]]}',
                                "--oracle", "--count-points"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["lattice_width"]["width"] == 1
    assert report["result"]["lattice_point_count"] == 7
    assert report["oracle"]["width_scan"]["agree"] is True


def test_polytope_oracle_judges_the_budgeted_run(capsys):
    code, out, _ = run(capsys, ["polytope", DELTA_PRIME, "--width-budget", "10",
                                "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["lattice_width"]["certified"] is False
    scan = report["oracle"]["width_scan"]
    assert scan["main_certified"] is False
    assert scan["main_width"] == report["result"]["lattice_width"]["width"] == 572
    assert scan["scan_width"] == 572 and scan["agree"] is True


def test_classify_command(capsys):
    code, out, _ = run(capsys, ["classify", TYPE_II_POLYGON])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["type"] == "II"
    assert result["a"] == 5
    assert result["teo_dim2"]["lw_is_1"] is True
    assert result["special_for_3E"] is True


def test_screen_command(capsys):
    code, out, _ = run(capsys, ["screen", "7,11,13,15"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["m"] == 572
    assert result["verdict"] == "nef_not_semiample"
    assert result["binomials"][0]["binomial"] == "x1*x4 - x2^2"


def test_screen_strict_failure_exit(capsys):
    code, out, _ = run(capsys, ["screen", "1,1,1,1", "--strict"])
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "inconclusive"


def test_screen_non_strict_inconclusive_is_ok(capsys):
    code, _, _ = run(capsys, ["screen", "1,1,1,1"])
    assert code == 0


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["screen", "7,11,13,15"])
    _, second, _ = run(capsys, ["screen", "7,11,13,15"])
    assert first == second


def test_text_format(capsys):
    code, out, _ = run(capsys, ["screen", "7,11,13,15", "--format", "text"])
    assert code == 0
    assert "verdict: nef_not_semiample" in out
    assert "m: 572" in out


def test_bad_json_exit_2(capsys):
    code, _, err = run(capsys, ["points", "{not json"])
    assert code == 2
    assert "input error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["classify", "no_such_file.json"])
    assert code == 2


def test_bad_weights_exit_2(capsys):
    code, _, err = run(capsys, ["screen", "2,4,6,8"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["polytope", '{"dim": 2, "vertices": [[0, 0], [2.7, 0], [0, 1.9]]}'],
    ["polytope", '{"dim": 2, "vertices": [[0, 0], ["3", 0], [0, 1]]}'],
    ["polytope", '{"dim": 2, "vertices": [["a", 0], [3, 0], [0, 1]]}'],
    ["polytope", '{"dim": "x", "vertices": [[0, 0], [3, 0], [0, 1]]}'],
    ["points", '{"dim": 2, "points": [[0.5, 0], [1, 0]]}'],
    ["points", '{"dim": 2, "points": [[1e400, 0], [1, 0]]}'],
    ["screen", "[7.5, 11, 13, 15]"],
    ["screen", "[7, 11, 13, null]"],
    ["screen", " "],
    ["polytope", '{"dim": 2, "vertices": [[0, 0], [true, 0], [0, 1]]}'],
    ["screen", "[7, 11, 13, true]"],
    ["points", '{"dim": true, "points": [[0], [1], [2]]}', "--m", "1"],
    ["table", "--fixture", "/nonexistent.csv"],
    ["points", '{"dim": 0, "points": [[]]}'],
    ["polytope", '{"dim": 0, "vertices": [[]]}', "--count-points"],
    ["polytope", '{"dim": 0, "vertices": [[]]}'],
])
def test_non_integer_input_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, ["polytope", DELTA_PRIME, "--count-points",
                                "--enum-budget", "1000"])
    assert code == 3
    assert "budget" in err


def test_degree_budget_zero_is_honoured(capsys):
    # a zero budget is a budget, not "use the default"
    code, out, err = run(capsys, ["screen", "7,11,13,15", "--degree-budget", "0"])
    assert (code, out) == (3, "")
    assert "budget" in err
    code, out, _ = run(capsys, ["scan", "--max-weight", "8", "--degree-budget", "0"])
    result = json.loads(out)["result"]
    assert code == 0
    assert result["scanned"] > 0 and result["errors"] == result["scanned"]


def test_invariant_error_exit_4(capsys, monkeypatch):
    def broken(args):
        raise InvariantError("normalization mismatch")

    monkeypatch.setattr(cli, "_cmd_classify", broken)
    code, out, err = run(capsys, ["classify", TYPE_II_POLYGON])
    assert code == cli.EXIT_INVARIANT == 4
    assert out == ""
    assert "normalization mismatch" in err


def test_version_embedded(capsys):
    from latticejets import __version__

    _, out, _ = run(capsys, ["classify", TYPE_II_POLYGON])
    assert json.loads(out)["tool"]["version"] == __version__


def test_scan_command(capsys):
    code, out, _ = run(capsys, ["scan", "--max-weight", "7"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["scanned"] >= 1
    assert isinstance(result["hits"], list)
