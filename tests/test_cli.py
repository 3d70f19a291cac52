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
    ["scan", "--max-weight", "15", "--limit", "0"],
    ["scan", "--max-weight", "15", "--limit", "-1"],
    ["polytope", '{"dim": 2, "vertices": [[0, 0], [0, 1], [2, 1], [3, 0]]}', "--oracle",
     "--oracle-bound", "0"],
    ["polytope", '{"dim": 2, "vertices": [[0, 0], [0, 1], [2, 1], [3, 0]]}', "--oracle",
     "--oracle-bound", "-1"],
])
def test_non_integer_input_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("min_weight", ["0", "-2"])
def test_scan_rejects_a_min_weight_below_one(capsys, min_weight):
    code, out, err = run(capsys, ["scan", "--max-weight", "15", "--min-weight", min_weight])
    assert (code, out) == (2, "")
    assert "input error" in err and "min_weight must be >= 1" in err


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


@pytest.mark.parametrize("argv", [
    ["screen", "7,11,13,15", "--degree-budget", "-5"],
    ["scan", "--max-weight", "8", "--degree-budget", "-1"],
    ["polytope", '{"dim": 2, "vertices": [[0, 0], [0, 1], [2, 1], [3, 0]]}',
     "--width-budget", "-1"],
    ["polytope", '{"dim": 2, "vertices": [[0, 0], [0, 1], [2, 1], [3, 0]]}',
     "--count-points", "--enum-budget", "-1"],
], ids=["screen-degree", "scan-degree", "polytope-width", "polytope-enum"])
def test_negative_budgets_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "input error: budget -" in err and "is negative" in err


@pytest.mark.parametrize("argv, message", [
    (["polytope", '{"dim": 2, "vertices": [[0, 0], [0, 1], [2, 1], [3, 0]]}',
      "--enum-budget", "-1"], "input error: budget -1 is negative\n"),
    (["polytope", '{"dim": 2, "vertices": [[0, 0], [0, 1], [2, 1], [3, 0]]}',
      "--oracle-bound", "0"], "input error: oracle bound must be >= 1, got 0\n"),
], ids=["enum-budget-without-count-points", "oracle-bound-without-oracle"])
def test_unread_polytope_values_are_still_checked(capsys, argv, message):
    # the same exit and text as when --count-points or --oracle reads the value
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", message)
    flag = "--count-points" if "--enum-budget" in argv else "--oracle"
    assert run(capsys, argv + [flag]) == (2, "", message)


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


@pytest.mark.parametrize("argv", [
    ["scan", "--max-weight", "12", "--strict"],
    ["classify", TYPE_II_POLYGON, "--oracle"],
    ["screen", "7,11,13,15", "--oracle-bound", "3"],
    ["points", TYPE_II_POINTS, "--strict"],
    ["table", "--oracle"],
])
def test_unread_flags_are_usage_errors(capsys, argv):
    # each flag is declared only on the subcommands that read it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


README_POINTS = '{"dim":2,"points":[[0,0],[1,0],[2,0],[3,0],[4,0],[5,0],[0,1]]}'
README_POLYTOPE = '{"dim":3,"vertices":[[0,0,0],[572,286,143],[390,195,-585],[495,-330,-165]]}'
POINTS_3D = ('{"dim":3,"points":[[0,0,0],[1,0,0],[0,1,0],[0,0,1],[1,1,0],[2,0,1],[1,1,1],'
             '[3,1,2],[0,2,1],[1,0,2],[2,2,2],[0,3,0]]}')
POINTS_TWO_FORMS = '{"dim":2,"points":[[0,2],[0,4],[1,2],[1,4],[3,5],[4,5],[5,4],[5,5]]}'
WIDTH_ONE_TYPE_I = '{"dim":2,"vertices":[[0,0],[1,1],[3,1],[3,0]]}'
WIDTH_TWO_TYPE_III = '{"dim":2,"vertices":[[2,2],[0,1],[-2,-2],[0,-1]]}'


# (exit code, sha256 of stdout) of every README and CI invocation; the reports
# embed the tool version, so a version bump changes every digest
@pytest.mark.parametrize("argv, code, digest", [
    (["points", README_POINTS, "--m", "2", "--direction", "0,1"], 0,
     "b7e1d360a25485823dadcb003db2d461ba6292ab97b1674ab77dfa43e55ed5f6"),
    (["polytope", README_POLYTOPE, "--direction", "1,0,0"], 0,
     "941b7f44fb1268a8251827c643b72d1026947fb1c15b2954bfea20a09001c292"),
    (["classify", '{"dim":2,"vertices":[[0,0],[0,1],[5,0]]}'], 0,
     "017687d7be0e3b3d53626e5076711ecf45a1a53f02589e2b8dd1b073e33125d4"),
    (["screen", "7,11,13,15"], 0,
     "6a64d12c49f8c4115bc87f837dec081e4fbec9ff3506d78eafd83de1a2c7aca8"),
    (["table", "--strict"], 0,
     "314cefa06d8a3a4ca5d43cd28ca8b046662aadcb8f8dae319382ef3060c77699"),
    (["scan", "--max-weight", "12", "--limit", "5"], 0,
     "3546a4349ea65803e9c2500b23b99509da82987f92c8fa31b63549b7d77a5d11"),
    (["polytope", '{"dim":2,"vertices":[[0,0],[0,1],[2,1],[3,0]]}', "--oracle"], 0,
     "cf25a676d8a78d323c14607f9840aad227c9f62a5ccd5d4f46fc11307dece422"),
    (["polytope", README_POLYTOPE, "--oracle"], 0,
     "953e39c47d2aa0cbbaa2d54c7f5e1db4e5df3a0f3e68c71084163e0cb148b922"),
    (["polytope", README_POLYTOPE, "--width-budget", "16"], 0,
     "53f41d181b1b147d12cab8da3c67ba2c02d2685c8dd47a5e3f742a3588126dc5"),
    (["polytope", README_POLYTOPE, "--width-budget", "15"], 0,
     "f3f45a2f3c6f6ad4b4ef8142186c33eb8c7e9d9c4910b307556b5303f77c2d39"),
    (["classify", '{"dim":2,"vertices":[[3,0],[1,1],[-1,0],[-2,-1]]}'], 0,
     "afd13e73832b50274052e84e4686b5ccb68064bd98cfff0a788a74a47c4f9b77"),
    (["points", README_POINTS, "--m", "2", "--direction", "0,1", "--oracle"], 0,
     "95a42a1b2aff30494e8f4478c526fcd8d1abc2c272af2cd875ee2df6d4356de9"),
    (["points", POINTS_3D, "--m", "3", "--oracle"], 0,
     "d2ba742a78c44f6e5706bac1b36c22d6dc15214066e2966fea08a7e60d626dd0"),
    (["points", POINTS_TWO_FORMS, "--m", "3", "--oracle"], 0,
     "a0fcba5caade40495893e492dab9936ddef2029883c6b97cc9d28bd1e02f15c9"),
    (["screen", "7,11,13,15", "--strict"], 0,
     "6a64d12c49f8c4115bc87f837dec081e4fbec9ff3506d78eafd83de1a2c7aca8"),
    (["screen", "7,11,13,15", "--degree-budget", "0"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["scan", "--max-weight", "15", "--limit", "1"], 0,
     "ad59c65dc4a02d6c4f7aa512ddff017d163bdac30705ee757ff9ce88f84f1273"),
    (["scan", "--max-weight", "15", "--limit", "0"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["classify", WIDTH_ONE_TYPE_I], 0,
     "6be37e9009309d5a316f9a74228ec9b2f2a7221d5a85befe4db371455054d90d"),
    (["classify", WIDTH_TWO_TYPE_III], 0,
     "291093d18b3c29bc19e730d1167312c349cd37f6e6a0363e9ae06ca8e586d639"),
    (["screen", "4,5,6,7", "--strict"], 1,
     "17f7dd358d07ff2055273e65a4e1cb2647a7a0684ccb761553bac4a656959d2f"),
    (["screen", "7,15,19,23", "--strict"], 0,
     "f3ff8e6d482468e7c804cd99aae3bef2d9f2e08d83627f80da457044fb1bed36"),
    (["scan", "--max-weight", "22"], 0,
     "b6dd0b5113d158b85643eb1da27cc135443c5fc48d908c3f7a12888e622a6870"),
    (["screen", "5,6,9,13"], 0,
     "da23d976feebbeb12fa273dcf71f534080a14f811f3206f94256bd4eee498ee7"),
    (["screen", "6,7,9,11"], 0,
     "63b97d988e898372c7da45556f824bcbf09801fd7d84b0be46840b16600fc1c2"),
    (["polytope", '{"dim":2,"vertices":[[1,-2],[-3,3]]}'], 0,
     "7b285eece4f59310bffd0f1e135817697006c91a5deb44b41fa8bc4349104271"),
    (["points", '{"dim":2,"points":[[0,0],[1,0],[2,0]]}', "--m", "1", "--oracle"], 0,
     "0c42ae068fba06692d0d5006ace70d95725a951169e5e957ae975bb3bd15962a"),
])
def test_readme_and_ci_invocations_keep_their_stdout(capsys, argv, code, digest):
    import hashlib

    got, out, _ = run(capsys, argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_two_form_base_locus_with_a_denominator(capsys):
    # the gcd loop, the t-power and the root [-1 : 2] in one report
    code, out, _ = run(capsys, ["points", POINTS_TWO_FORMS, "--m", "3", "--oracle"])
    report = json.loads(out)
    result = report["result"]
    assert code == 0 and result["fundamental_form"]["dim"] == 2
    assert result["base_locus"] == {
        "gcd_degree": 2,
        "rational_points": [{"point": [-1, 2], "multiplicity": 1},
                            {"point": [0, 1], "multiplicity": 1}],
        "irrational_factor_degrees": [], "empty": False}
    assert report["oracle"]["base_locus_gcd_degree"]["agree"] is True


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
def test_planar_points_at_order_one_report_no_base_locus(capsys, oracle):
    # the base locus of the forms needs m >= 2, so an order-1 run leaves it out
    code, out, err = run(capsys, ["points", '{"dim":2,"points":[[0,0],[1,0],[2,0]]}',
                                  "--m", "1", *oracle])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["result"]["order"] == 1 and "base_locus" not in report["result"]
    assert "base_locus_gcd_degree" not in report.get("oracle", {})


def _json_shape(value):
    """The keys and JSON value types of ``value``: a dict maps each key to the
    shape of its value, a list becomes the list of its items' distinct shapes,
    and a scalar becomes its type (None for null)."""
    if isinstance(value, dict):
        return {key: _json_shape(item) for key, item in value.items()}
    if isinstance(value, list):
        shapes = []
        for shape in map(_json_shape, value):
            if shape not in shapes:
                shapes.append(shape)
        return shapes
    return None if value is None else type(value)


INTS = [int]
POLYTOPE = {"dim": int, "vertices": [INTS], "affine_dim": int,
            "lattice_width": {"width": int, "direction": INTS, "certified": bool},
            "pseudonef_bound": int}
BINOMIAL = {"u": INTS, "degree": int, "binomial": str}


def _screen_shape(alternatives, witness):
    return {
        "weights": INTS, "well_formed": bool, "lcm": int, "binomials": [BINOMIAL],
        "alternatives": alternatives, "v_tilde": INTS, "vertex_values": INTS, "m": int,
        "projected_polytope": {"dim": int, "vertices": [INTS]}, "direction": INTS,
        "corollary": {"direction": INTS, "lw": int, "p_min": INTS, "p_max": INTS,
                      "slice_points": [INTS], "cond1_extreme_vertices_unique": bool,
                      "cond2_slice_span_codim_ge_2": bool, "cond2_vacuous": bool,
                      "cond3_line_misses_span": bool, "witness": witness, "verified": bool},
        "nef": {"degrees": INTS, "d": int, "lw": int, "bound": str, "saturation_ok": bool,
                "nef": bool},
        "verdict": str,
    }


# the result of every subcommand, pinned to its keys and JSON value types, so a
# record (a NamedTuple) that reaches the JSON as a list fails here
@pytest.mark.parametrize("argv, shape", [
    (["points", TYPE_II_POINTS, "--m", "2", "--direction", "0,1"], {
        "dim": int, "n_points": int, "differences_generate": bool, "order": int,
        "jet_ranks": INTS, "h0": {"1": int, "2": int, "3": int},
        "expected_h0": {"1": int, "2": int, "3": int},
        "special": {"1": bool, "2": bool, "3": bool}, "min_vanishing_degree": int,
        "fundamental_form": {"m": int, "dim": int, "basis": [str]},
        "base_point": {"direction": INTS, "feasibility_route": bool,
                       "evaluation_route": bool, "agree": bool, "witness": str},
        "base_locus": {"gcd_degree": int,
                       "rational_points": [{"point": INTS, "multiplicity": int}],
                       "irrational_factor_degrees": [], "empty": bool}}),
    (["polytope", DELTA_PRIME, "--direction", "1,0,0"],
     {**POLYTOPE, "width_in_direction": {"direction": INTS, "width": int}}),
    (["polytope", '{"dim": 2, "vertices": [[0,0],[0,1],[2,1],[3,0]]}', "--oracle",
      "--count-points"], {**POLYTOPE, "lattice_point_count": int}),
    (["classify", TYPE_II_POLYGON], {
        "type": str, "a": int, "b": None, "transform": {"U": [INTS], "t": INTS},
        "in_table_range": bool,
        "teo_dim2": {"lw_is_1": bool, "base_point": bool, "base_curve_implied": bool,
                     "equivalent": bool},
        "special_for_3E": bool}),
    (["screen", "7,11,13,15"], _screen_shape([], {
        "degree": int, "level_form": str, "paraboloid": str, "hyperplane_levels": INTS,
        "f": str, "g": str})),
    (["screen", "1,1,1,1"], _screen_shape([BINOMIAL], None)),
    (["table", "--strict"], {
        "rows": [{"weights": INTS, "expected_m": int, "computed_m": int, "verdict": str,
                  "pass": bool}],
        "total": int, "passed": int, "failed": []}),
    (["scan", "--max-weight", "15", "--limit", "1"], {
        "scanned": int, "errors": int, "hits": [{"weights": INTS, "m": int}]}),
], ids=["points", "polytope", "polytope-count", "classify", "screen", "screen-inconclusive",
        "table", "scan"])
def test_results_keep_their_keys_and_json_types(capsys, argv, shape):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert _json_shape(json.loads(out)["result"]) == shape
