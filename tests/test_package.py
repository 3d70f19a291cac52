"""The package surface and its import graph, each checked in a fresh interpreter.

``import latticejets`` loads no layer, and each README invocation loads only
the layers it runs. Of the other modules only numpy, which is no dependency,
and ``dataclasses`` and ``inspect`` are checked: no module defines its records
through ``dataclasses``, so a one-shot run loads no ``inspect``. Which stdlib
modules start-up loads differs by host, so a run's modules are those it adds
to ``sys.modules``, not those already loaded before the package.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# imports the cli and runs cli.main on its arguments, then prints the exit code
# and every module that the import and the run added to sys.modules
CLI_CHILD = textwrap.dedent("""
    import contextlib, io, sys
    before = set(sys.modules)
    from latticejets import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    print(code, *sorted(set(sys.modules) - before))
""")
# the stdlib modules that a dataclass definition would pull in
NOT_AT_START_UP = {"dataclasses", "inspect"}

README_POINTS = '{"dim":2,"points":[[0,0],[1,0],[2,0],[3,0],[4,0],[5,0],[0,1]]}'
README_POLYTOPE = '{"dim":3,"vertices":[[0,0,0],[572,286,143],[390,195,-585],[495,-330,-165]]}'


def python(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_layer():
    out = python('import sys, latticejets; '
                 'print(*[n for n in sys.modules if n.startswith("latticejets.")])')
    assert out.split() == []


@pytest.mark.parametrize("argv, absent", [
    (["polytope", README_POLYTOPE, "--direction", "1,0,0"],
     {"wps", "screen", "poly", "jets", "base_locus", "surface2", "oracles"}),
    (["classify", '{"dim":2,"vertices":[[0,0],[0,1],[5,0]]}'],
     {"wps", "screen", "oracles"}),
    (["points", README_POINTS, "--m", "2", "--direction", "0,1"],
     {"wps", "screen", "surface2", "oracles"}),
    (["screen", "7,11,13,15"],
     {"jets", "base_locus", "surface2", "oracles"}),
], ids=["polytope", "classify", "points", "screen"])
def test_readme_invocation_loads_only_its_layers(argv, absent):
    code, *loaded = python(CLI_CHILD, *argv).split()
    assert code == "0"
    assert "latticejets.cli" in loaded
    assert {f"latticejets.{name}" for name in absent}.isdisjoint(loaded)
    assert NOT_AT_START_UP.isdisjoint(loaded)


def test_cli_import_loads_no_dataclasses_or_inspect():
    out = python("import sys; before = set(sys.modules); import latticejets.cli; "
                 "print(*sorted(set(sys.modules) - before))")
    assert "latticejets.cli" in out.split()
    assert NOT_AT_START_UP.isdisjoint(out.split())


def test_oracle_run_loads_no_numpy():
    polygon = '{"dim":2,"vertices":[[0,0],[0,1],[2,1],[3,0]]}'
    code, *loaded = python(CLI_CHILD, "polytope", polygon, "--oracle").split()
    assert code == "0"
    assert "latticejets.oracles" in loaded
    assert "numpy" not in loaded


def test_package_surface():
    python(textwrap.dedent("""
        import sys
        import latticejets

        assert latticejets.jets is sys.modules["latticejets.jets"]
        assert not hasattr(latticejets, "nonexistent")  # AttributeError, nothing else

        from latticejets import WeightVector, reproduce_table
        from latticejets import polytope, wps

        assert WeightVector is wps.WeightVector
        assert reproduce_table is wps.reproduce_table
        for name in ("Direction", "LatticePolytope", "PointConfig"):
            assert getattr(latticejets, name) is getattr(polytope, name), name
        assert latticejets.screen is sys.modules["latticejets.screen"]
    """))


def test_benchmark_probes_resolve():
    # perfbench/layertrace.py looks each probe up with getattr at run time, so a
    # renamed or deleted function would only fail there; read its table and resolve it
    import ast
    import importlib

    source = (SRC.parent / "perfbench" / "layertrace.py").read_text()
    table = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    probes = ast.literal_eval(table)
    assert len(probes) >= 28
    for layer, _, attr in probes:
        target = importlib.import_module(f"latticejets.{layer}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (layer, attr)
