"""``src/graphdyn`` keeps only what the commands run.

A walk through the commands records, with ``sys.setprofile``, every function
of ``src/graphdyn`` that they call: the ``verify`` suite, passing and
failing, the three ``demo`` commands, the word commands, and ``check``,
``extend`` and ``dilate`` on the command-line test specs of every family
kind, extension and pipeline, one failing precondition included.  A module-level function or a method that the
walk never calls must be on ``UNREACHED`` with the reason it stays.  A
function that only tests call belongs in ``tests/oracles.py`` if tests
compare against it, and nowhere otherwise; one that only a demo script calls
belongs in that script.

The demo scripts and the acceptance suite are not part of the walk: a demo
script is not a command, and under the profiler criterion 2 overruns its time
budget.  The functions that only acceptance criteria, a demo script or the
benchmark's spans read are on the list with their readers.
"""

import ast
import contextlib
import importlib.util
import io
import json
import pathlib
import runpy
import sys

import pytest

from graphdyn import cli

# the command-line test specs; the imported fixtures are fixtures here too
from test_cli import (_explicit_spec, _generator_table_spec,  # noqa: F401
                      cptp_spec, divisible_spec, indivisible_spec,
                      line_graph_spec, network_spec, write_json)

SRC = pathlib.Path(cli.__file__).parent

# "module.qualname" -> why it stays although the walk never calls it
UNREACHED = {
    "dilate.Channel.random": "acceptance criteria 9 and 10; demos/kraus_reflections.py "
                             "and demos/cptp_unitary_representation.py",
    "dilate.FormalVector.distance": "one_param_factorization, acceptance criterion 10",
    "dilate.FormalVector.map": "VedDilation.apply, ShiftDilation.shift",
    "dilate.FormalVector.of": "bench/spans.py's METHODS wraps it; acceptance "
                              "criterion 10, one_param_factorization",
    "dilate.ShiftDilation.compression_matrix": "bench/spans.py's METHODS wraps it; "
                                               "acceptance criterion 8, "
                                               "one_param_factorization",
    "dilate.ShiftDilation.embed": "one_param_factorization",
    "dilate.ShiftDilation.shift": "one_param_factorization",
    "dilate.VedDilation.apply": "bench/spans.py's METHODS wraps it; acceptance "
                                "criterion 10",
    "dilate.VedDilation.unitary_of": "bench/spans.py's METHODS wraps it; "
                                     "VedDilation.apply",
    "dilate.VedDilation.verify_element": "bench/spans.py's METHODS wraps it; "
                                         "acceptance criterion 10",
    "dilate.one_param_factorization": "acceptance criterion 11",
    "dynamics.LinearOrderGraph.has_node": "one_param_factorization, acceptance criterion 11",
    "dynamics.commuting_evolution": "acceptance criteria 6, 7, 8 and 11",
    "linops.exp_derivative": "acceptance criterion 4",
    "rewrite.GroupElement.__repr__": "the exit-3 line of a failing dilate precondition "
                                     "names the group element by it",
    "rewrite.reduce_once_all": "demos/edge_group_rewriting.py prints its one-step "
                               "reducts; bench/run.py counts its calls",
    "sampling.random_dissipative": "acceptance criteria 3, 6, 7, 8 and 11",
    "sampling.random_hermitian": "random_dissipative",
}


def library_functions(paths):
    """``{(file, first line): "module.qualname"}`` for every module-level
    function and every method of a module-level class in ``paths``.  The
    first line is that of the first decorator, as in ``co_firstlineno``."""
    out = {}
    for path in paths:
        tree = ast.parse(path.read_text())
        scopes = [(node, path.stem) for node in tree.body]
        scopes += [(item, f"{path.stem}.{node.name}") for node in tree.body
                   if isinstance(node, ast.ClassDef) for item in node.body]
        for node, prefix in scopes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = f"{prefix}.{node.name}"
    return out


def never_called(functions, run):
    """The names in ``functions`` whose code ``run()`` never calls, and what
    ``run()`` returned."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    return {name for key, name in functions.items() if key not in reached}, result


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


# extensions and pipelines run on each spec, and the word each extension reads
RUNS = {
    "divisible": (["normal", "cover1", "cover2"], ["A", "B", "C"], [[1.0, 0.5], [0.75, 0.25]]),
    "indivisible": (["cover2"], ["A", "C"], [[1.0, 0.5]]),
    "explicit": (["normal", "cover1"], ["A", "B"], [[0, 1], [1, 2]]),
    "generators": (["cover2"], ["C"], [[0, 1], [1, 2]]),
    "network": (["normal"], ["A"], [["u", "v"], ["v", "w"]]),
    "cptp": ([], ["A-cptp"], []),
}


def walk(tmp_path, specs):
    """Run every command of the walk; the exit code of each."""
    cli.build_parser.cache_clear()  # built once per process: here, in the walk
    codes = {}
    line = specs["line_graph"]
    codes["normalize"] = run_cli("normalize", "--input", line, "--trace",
                                 "--word", '[["a", "b"], ["b", "c"], ["c", "c"]]')
    codes["group mul"] = run_cli("group", "mul", "--input", line,
                                 "--words", '[[["a", "b"]], [["b", "c"]]]')
    codes["group inv"] = run_cli("group", "inv", "--input", line, "--word", '[["a", "c"]]')
    codes["verify"] = run_cli("verify", "--seed", "0", "--samples", "25", "--tol", "1e-10")
    # at tol 0 the first Kraus channel fails, and its report is rebuilt alone
    codes["verify tol 0"] = run_cli("verify", "--seed", "0", "--samples", "2", "--tol", "0")
    for name in ("indivisible-2.4", "network-2.5", "lindblad"):
        codes[f"demo {name}"] = run_cli("demo", name, "--output", str(tmp_path))
    for kind, (extensions, pipelines, word) in RUNS.items():
        codes[f"check {kind}"] = run_cli("check", "--input", specs[kind])
        for which in extensions:
            codes[f"extend {kind} {which}"] = run_cli(
                "extend", "--input", specs[kind], "--word", json.dumps(word),
                "--which", which)
        for pipeline in pipelines:
            codes[f"dilate {kind} {pipeline}"] = run_cli(
                "dilate", "--input", specs[kind], "--pipeline", pipeline)
    # a precondition that fails: the family is not divisible
    codes["dilate indivisible B"] = run_cli("dilate", "--input", specs["indivisible"],
                                            "--pipeline", "B")
    return codes


@pytest.fixture
def specs(tmp_path, line_graph_spec, divisible_spec, indivisible_spec, network_spec,
          cptp_spec):
    half = [[0.5, 0.0], [0.0, 0.5]]
    quarter = [[0.25, 0.0], [0.0, 0.25]]
    return {
        "line_graph": line_graph_spec, "divisible": divisible_spec,
        "indivisible": indivisible_spec, "network": network_spec, "cptp": cptp_spec,
        "explicit": write_json(tmp_path / "explicit.json", _explicit_spec(
            {(0, 1): half, (1, 2): half, (0, 2): quarter})),
        "generators": write_json(tmp_path / "generators.json",
                                 _generator_table_spec([(0, 1), (1, 2), (0, 2)])),
    }


def load(path):
    """Import the module at ``path`` under its file stem."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_library_function_serves_the_system(tmp_path, specs):
    functions = library_functions(sorted(SRC.glob("*.py")))
    assert set(UNREACHED) <= set(functions.values())
    missed, codes = never_called(functions, lambda: walk(tmp_path, specs))
    assert codes.pop("dilate indivisible B") == cli.EXIT_PRECONDITION
    assert codes.pop("verify tol 0") == cli.EXIT_VERIFICATION
    assert set(codes.values()) == {cli.EXIT_OK}, codes
    assert missed == set(UNREACHED)


def test_a_function_no_run_calls_is_listed(tmp_path):
    # decorated functions, methods and nested calls map to their names
    path = tmp_path / "extra.py"
    path.write_text(
        "import functools\n\n\n"
        "@functools.lru_cache()\n"
        "def cached(x):\n    return Box().used(x)\n\n\n"
        "class Box:\n"
        "    def used(self, x):\n        return x\n\n"
        "    def unused(self):\n        return 0\n\n\n"
        "def only_tests():\n    return 1\n")
    module = load(path)
    functions = library_functions([path])
    assert sorted(functions.values()) == [
        "extra.Box.unused", "extra.Box.used", "extra.cached", "extra.only_tests"]
    missed, result = never_called(functions, lambda: module.cached(3))
    assert result == 3
    assert missed == {"extra.Box.unused", "extra.only_tests"}


def run_script(path):
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")


def test_a_function_only_a_demo_script_calls_fails_the_walk(tmp_path, monkeypatch, specs):
    # a scratch module among the library's, whose one function a demo script calls
    lib = tmp_path / "scratch_lib.py"
    lib.write_text("def demo_only():\n    return 1\n")
    monkeypatch.setitem(sys.modules, "scratch_lib", load(lib))
    script = tmp_path / "scratch_demo.py"
    script.write_text("import scratch_lib\n\nscratch_lib.demo_only()\n")
    functions = library_functions(sorted(SRC.glob("*.py")) + [lib])
    assert "scratch_lib.demo_only" not in never_called(functions, lambda: run_script(script))[0]
    missed, _ = never_called(functions, lambda: walk(tmp_path, specs))
    assert missed - set(UNREACHED) == {"scratch_lib.demo_only"}
    # so is rewrite.reduce_once_all, which a demo script of the repo calls
    demo = pathlib.Path(__file__).parents[1] / "demos" / "edge_group_rewriting.py"
    assert "rewrite.reduce_once_all" in missed - never_called(
        functions, lambda: run_script(demo))[0]
