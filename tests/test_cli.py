import contextlib
import io
import json
import math
import pathlib
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdyn import cli, dynamics, linops, rewrite
from graphdyn.linops import SIGMA_X, SIGMA_Z
from oracles import folded_product


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def line_graph_spec(tmp_path):
    return write_json(tmp_path / "graph.json", {
        "graph": {"nodes": ["a", "b", "c"],
                  "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
    })


@pytest.fixture
def indivisible_spec(tmp_path):
    return write_json(tmp_path / "indivisible.json", {
        "graph": {"order": list(np.linspace(1.0, 0.0, 9))},
        "dim": 4,
        "family": {"kind": "indivisible-example",
                   "h1": linops.matrix_to_literal(SIGMA_X),
                   "h2": linops.matrix_to_literal(SIGMA_Z),
                   "t_max": 1.0, "grid_points": 9, "alpha": 1.0},
    })


@pytest.fixture
def divisible_spec(tmp_path):
    return write_json(tmp_path / "divisible.json", {
        "graph": {"order": list(np.linspace(1.0, 0.0, 9))},
        "dim": 2,
        "family": {"kind": "exponential",
                   "rate": linops.matrix_to_literal(1j * SIGMA_Z),
                   "ell": {"kind": "proportional", "scale": 2.0}},
    })


@pytest.fixture
def network_spec(tmp_path):
    w = linops.matrix_to_literal(0.3 * np.eye(2))
    edges = [["u", "v"], ["v", "w"], ["u", "z"], ["z", "w"]]
    return write_json(tmp_path / "network.json", {
        "graph": {"nodes": ["u", "v", "z", "w"], "edges": edges},
        "dim": 2,
        "family": {"kind": "network",
                   "weights": [{"edge": e, "matrix": w} for e in edges]},
    })


@pytest.fixture
def cptp_spec(tmp_path):
    from graphdyn.dilate import Channel
    from graphdyn.sampling import rng_from_seed
    from oracles import kraus_spec
    rng = rng_from_seed(0)
    chans = [kraus_spec(Channel.random(rng, 2).kraus) for _ in range(3)]
    return write_json(tmp_path / "cptp.json", {
        "graph": {"order": [0, 1, 2]},
        "dim": 2,
        "family": {"kind": "cptp",
                   "channels": [{"edge": [0, 1], "channel": chans[0]},
                                {"edge": [1, 2], "channel": chans[1]},
                                {"edge": [0, 2], "channel": chans[2]}]},
    })


class TestNormalize:
    def test_loop_letter(self, capsys, line_graph_spec):
        code, out, _ = run(capsys, "normalize", "--input", line_graph_spec,
                           "--word", '[["a", "a"]]')
        assert code == 0
        body = json.loads(out)
        assert body["normal_form"] == []
        assert body["is_identity"]

    def test_collapsing_word_with_trace(self, capsys, line_graph_spec):
        word = [["a", "b"], ["b", "b"], ["b", "c"], ["c", "a"]]
        code, out, _ = run(capsys, "normalize", "--input", line_graph_spec,
                           "--word", json.dumps(word), "--trace")
        assert code == 0
        body = json.loads(out)
        assert body["normal_form"] == []
        assert len(body["trace"]) == 4  # one step per deleted letter

    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
    def test_one_stack_pass(self, capsys, monkeypatch, line_graph_spec, trace):
        # the normal form and the trace come from the same checked pass
        real, calls = rewrite._stack_reduce, []
        monkeypatch.setattr(rewrite, "_stack_reduce",
                            lambda *args: calls.append(args) or real(*args))
        code, out, _ = run(capsys, "normalize", "--input", line_graph_spec, *trace,
                           "--word", '[["a", "b"], ["b", "b"], ["b", "c"]]')
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["normal_form"] == [["a", "c"]]

    def test_irreducible_word(self, capsys, line_graph_spec):
        word = [["a", "b"], ["c", "a"]]
        code, out, _ = run(capsys, "normalize", "--input", line_graph_spec,
                           "--word", json.dumps(word), "--trace")
        body = json.loads(out)
        assert body["normal_form"] == word
        assert body["trace"] == []

    def test_traced_report_with_mixed_node_keys(self, tmp_path):
        # 1, 1.0 and True (and 0.0, -0.0) are equal node keys that json
        # writes differently; the words keep the texts of the input's keys
        graph = {"nodes": [0.0, 1, 2, "a"], "edges": [[0.0, 1], [1, 2], [2, "a"]]}
        spec = write_json(tmp_path / "mixed.json", {"graph": graph})
        lit = [[0.0, 1], [1, -0.0], [1, 2], [2, "a"], [True, 2.0], [2, "a"],
               ["a", 1.0]]
        out = tmp_path / "report.json"
        assert cli.main(["normalize", "--input", spec, "--word", json.dumps(lit),
                         "--trace", "--output", str(out)]) == 0
        ctx = rewrite.context_from_spec(graph)
        w = rewrite.word_from_literal(lit)
        nf = rewrite.normalize(ctx, w)
        body = {
            "schema": cli.SCHEMA,
            "command": "normalize",
            "input_word": rewrite.word_to_literal(w),
            "normal_form": rewrite.word_to_literal(nf.letters),
            "is_identity": nf.is_identity(),
            "trace": rewrite.reduction_trace(ctx, w)[1],
        }
        assert len(body["trace"]) == len(w) - len(nf.letters) == 6
        assert out.read_text() == json.dumps(body, indent=2, sort_keys=True) + "\n"

    def test_malformed_spec_exits_2(self, capsys, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"graph": {"edges": []}})
        code, _, err = run(capsys, "normalize", "--input", bad,
                           "--word", "[]")
        assert code == 2
        assert "error" in err


class TestWordLiterals:
    @pytest.mark.parametrize("argv, index", [
        (("normalize", "--word", '["ab"]'), 0),
        (("normalize", "--word", '[["a", "b"], ["b", "c", "a"]]', "--trace"), 1),
        (("group", "inv", "--word", '[[["a"], "b"]]'), 0),
        (("group", "mul", "--words", '[[["a", "b"]], [["a", "b", "c"]]]'), 0),
        # the index within the letter's own word, not within the concatenation
        (("group", "mul", "--words", '[[["a", "b"], ["b", "c"]], [["c", "b"], ["b", "a"], ["a"]]]'),
         2),
        (("group", "mul", "--words", '[[["a", "b"]], [], [["b", "c"], ["c", "a"], [["b"], "c"]]]'),
         2),
    ], ids=["string-letter", "three-entry-trace", "array-key", "mul-three-entry",
            "mul-second-word", "mul-third-word"])
    def test_malformed_letter_exits_2(self, capsys, line_graph_spec, argv, index):
        argv = argv[:2] + ("--input", line_graph_spec) + argv[2:] \
            if argv[0] == "group" else argv[:1] + ("--input", line_graph_spec) + argv[1:]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: malformed word literal: ")
        assert f"letter {index} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", [["a", "b", "c"], ["a"], "ab"],
                             ids=["three-entry", "one-entry", "string"])
    @pytest.mark.parametrize("argv", [
        ("normalize", "--word", '[["a", "b"]]'), ("group", "inv", "--word", '[["a", "b"]]'),
        ("group", "mul", "--words", '[[["a", "b"]]]')], ids=["normalize", "inv", "mul"])
    def test_malformed_graph_edge_exits_2(self, capsys, tmp_path, argv, bad):
        # read as its first two keys, ["a", "b", "c"] was the edge (a, b)
        spec = write_json(tmp_path / "graph.json",
                          {"graph": {"nodes": ["a", "b", "c"], "edges": [["b", "c"], bad]}})
        split = 2 if argv[0] == "group" else 1
        code, out, err = run(capsys, *argv[:split], "--input", spec, *argv[split:])
        assert (code, out) == (2, "")
        assert err == (f"input error: malformed edge literal: graph.edges entry 1 is "
                       f"{bad!r}, not [tail, head] with two scalar node keys\n")


# two closure components, {a, b, c} and {0, 1}; every closed letter, loops included
_TWO_COMPONENTS = {"nodes": ["a", "b", "c", 0, 1], "edges": [["a", "b"], ["b", "c"], [0, 1]]}
_CLOSED_LETTERS = [[u, v] for part in (["a", "b", "c"], [0, 1]) for u in part for v in part]


@st.composite
def word_lists(draw):
    """Lists of words over the closed letters of ``_TWO_COMPONENTS``; a word
    may be followed by its inverse, which cancels it, and words and the list
    may be empty."""
    words = []
    for w in draw(st.lists(st.lists(st.sampled_from(_CLOSED_LETTERS), max_size=6),
                           max_size=8)):
        words.append(w)
        if draw(st.booleans()):
            words.append([[h, t] for t, h in reversed(w)])
    return words


def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def two_component_spec(tmp_path_factory):
    return write_json(tmp_path_factory.mktemp("group") / "graph.json",
                      {"graph": _TWO_COMPONENTS})


class TestGroup:
    def test_mul(self, capsys, line_graph_spec):
        words = [[["a", "b"]], [["b", "c"]]]
        code, out, _ = run(capsys, "group", "mul", "--input", line_graph_spec,
                           "--words", json.dumps(words))
        assert code == 0
        assert json.loads(out)["normal_form"] == [["a", "c"]]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(word_lists())
    @example([])
    @example([[], [["a", "a"], [0, 0]], [["a", "b"], ["b", "c"]], [["c", "b"], ["b", "a"]], []])
    def test_mul_is_the_fold_of_gmul(self, two_component_spec, words):
        ctx = rewrite.context_from_spec(_TWO_COMPONENTS)
        product = folded_product(ctx, [rewrite.word_from_literal(w) for w in words])
        code, out, err = run_quiet("group", "mul", "--input", two_component_spec,
                                   "--words", json.dumps(words))
        assert (code, err) == (0, "")
        body = json.loads(out)
        assert body["normal_form"] == rewrite.word_to_literal(product.letters)
        assert body["is_identity"] is product.is_identity()

    @pytest.mark.parametrize("words, bad", [
        ([[["a", "b"]], [["b", "c"], ["c", 0]]], "Letter(tail='c', head=0)"),
        ([[["a", "b"]], [], [["b", 1]], [[1, "b"]]], "Letter(tail='b', head=1)"),
        ([[[0, 1]], [[1, 0], ["a", "x"]], [[0, "c"]]], "Letter(tail='a', head='x')"),
    ], ids=["second-word", "cancelled-by-the-next-word", "first-of-two"])
    def test_a_letter_outside_the_relation_in_a_later_word_exits_2(
            self, capsys, two_component_spec, words, bad):
        # the first such letter in reading order is named, even where the
        # next word would cancel it
        assert run(capsys, "group", "mul", "--input", two_component_spec,
                   "--words", json.dumps(words)) == (
            2, "", f"input error: letter {bad} is not in the closed edge relation\n")

    def test_mul_is_linear_in_the_letters(self, tmp_path):
        """64,000 one-letter words on an 8-node path, no two adjacent ones
        fusing, so the product keeps all 64,000 letters.  One stack pass over
        the concatenated words took 0.35 s wall-clock on a shared 2-vCPU
        AVX-512 Xeon (Python 3.11); the fold of ``gmul`` over the words'
        normal forms, which copies the growing product once per word, took
        10.0 s there."""
        nodes = [f"v{i}" for i in range(8)]
        words = [[[nodes[i % 8], nodes[(i + 3) % 8]]] for i in range(64_000)]
        spec = write_json(tmp_path / "words.json", {
            "graph": {"nodes": nodes, "edges": [[u, v] for u, v in zip(nodes, nodes[1:])]},
            "words": words})
        start = time.perf_counter()
        code, out, _ = run_quiet("group", "mul", "--input", spec)
        elapsed = time.perf_counter() - start
        assert code == 0 and json.loads(out)["normal_form"] == [w[0] for w in words]
        assert elapsed < 1.5, f"group mul of 64,000 words took {elapsed:.2f}s"

    def test_inv(self, capsys, line_graph_spec):
        code, out, _ = run(capsys, "group", "inv", "--input", line_graph_spec,
                           "--word", '[["a", "b"], ["c", "a"]]')
        assert code == 0
        assert json.loads(out)["normal_form"] == [["a", "c"], ["b", "a"]]


class TestCheck:
    def test_divisible_demo_all_pass(self, capsys, divisible_spec):
        code, out, _ = run(capsys, "check", "--input", divisible_spec,
                           "--samples", "200")
        assert code == 0
        body = json.loads(out)
        assert body["passed"]
        by_name = {c["name"]: c for c in body["checks"]}
        assert by_name["divisibility-axiom"]["max_defect"] <= 1e-10

    def test_indivisible_demo_reports_defect(self, capsys, indivisible_spec):
        code, out, _ = run(capsys, "check", "--input", indivisible_spec,
                           "--samples", "200")
        assert code == 0
        body = json.loads(out)
        by_name = {c["name"]: c for c in body["checks"]}
        div = by_name["divisibility-axiom"]
        assert not div["passed"]
        assert div["max_defect"] > 1e-3

    def test_network_demo(self, capsys, network_spec):
        code, out, _ = run(capsys, "check", "--input", network_spec)
        assert code == 0
        body = json.loads(out)
        by_name = {c["name"]: c for c in body["checks"]}
        assert by_name["network-defect-formula"]["passed"]

    def test_network_check_sweeps_once_per_avoided_node(self, capsys, monkeypatch,
                                                         network_spec):
        # one walk-sum sweep per avoided node, carrying every target, not one
        # per (avoided node, target) pair; the family sweeps once per batch
        # it reads (the identity, divisibility and defect checks), each
        # carrying only the batch's heads
        calls, sweep = [], dynamics.walk_sums
        monkeypatch.setattr(dynamics, "walk_sums", lambda net, targets, avoid=None:
                            calls.append((avoid, list(targets))) or sweep(net, targets, avoid))
        code, _, _ = run(capsys, "check", "--input", network_spec)
        assert code == 0
        assert [c for c in calls if c[0] is not None] == [(b, [0, 1, 2, 3]) for b in range(4)]
        assert len(calls) <= 4 + 3

    def test_a_network_value_sweeps_only_its_head(self, monkeypatch):
        # a single read carries one target column, not the whole network
        edges = [("a", "b"), ("b", "c")]
        net = dynamics.DagNetwork(["a", "b", "c"], edges, {e: 0.5 * np.eye(1) for e in edges}, 1)
        calls, sweep = [], dynamics.walk_sums
        monkeypatch.setattr(dynamics, "walk_sums", lambda net, targets, avoid=None:
                            calls.append((avoid, list(targets))) or sweep(net, targets, avoid))
        assert dynamics.network_family(net)(("a", "c")) == 0.25
        assert calls == [(None, [2])]

    def test_cptp_family_fails_at_tolerance_0(self, capsys, cptp_spec):
        # the random channels' CPTP defects are rounding, above 0: the report
        # names the worst edge with its finite defect and counts every edge
        from graphdyn.dynamics import LinearOrderGraph
        edges = [list(e) for e in LinearOrderGraph([0, 1, 2]).edges()]
        code, out, _ = run(capsys, "check", "--input", cptp_spec, "--tol", "0")
        assert code == 0
        (rep,) = json.loads(out)["checks"]
        assert rep["name"] == "cptp-family" and not rep["passed"]
        assert 0 < rep["max_defect"] < 1e-12
        assert rep["argmax"] in edges and rep["count"] == len(edges)

    def test_tol_does_not_reach_the_triple_and_growth_bounds(self, capsys, divisible_spec):
        from graphdyn.dynamics import GROWTH_TOL, TRIPLE_TOL_FLOOR
        code, out, _ = run(capsys, "check", "--input", divisible_spec, "--tol", "0")
        assert code == 0
        tolerance = {c["name"]: c["tolerance"] for c in json.loads(out)["checks"]}
        assert tolerance == {"identity-axiom": 0.0, "divisibility-axiom": 1e-9,
                             "additivity-axiom": 1e-9, "dissipative": 0.0,
                             "geometric-growth": 1e-12}
        assert (TRIPLE_TOL_FLOOR, GROWTH_TOL) == (1e-9, 1e-12)
        with pytest.raises(SystemExit):
            cli.main(["check", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert (f"divisibility and additivity use at least {TRIPLE_TOL_FLOOR:.0e}, "
                f"and geometric growth always {GROWTH_TOL:.0e}") in help_text


def _explicit_spec(values):
    return {"graph": {"order": [0, 1, 2]}, "dim": 2,
            "family": {"kind": "explicit",
                       "values": [{"edge": e, "matrix": linops.matrix_to_literal(m)}
                                  for e, m in values.items()]}}


# an additive generator table with dissipative values on the grid 0 < 1 < 2
_GEN_A = np.diag([-0.1, -0.3]).astype(complex)
_GEN_B = np.array([[-0.2, 0.1], [-0.1, -0.2]], dtype=complex)


def _generator_table_spec(edges):
    values = {(0, 1): _GEN_A, (1, 2): _GEN_B, (0, 2): _GEN_A + _GEN_B}
    return {"graph": {"order": [0, 1, 2]}, "dim": 2,
            "family": {"kind": "exponential",
                       "generators": [{"edge": list(e),
                                       "matrix": linops.matrix_to_literal(values[e])}
                                      for e in edges],
                       "ell": {"kind": "proportional", "scale": 0.5}}}


def _cptp_two_edge_spec():
    from oracles import channel_to_spec, identity_channel
    ident = channel_to_spec(identity_channel(2))
    return {"graph": {"order": [0, 1, 2]}, "dim": 2,
            "family": {"kind": "cptp",
                       "channels": [{"edge": [0, 1], "channel": ident},
                                    {"edge": [1, 2], "channel": ident}]}}


def _network_table_spec():
    w = linops.matrix_to_literal(0.3 * np.eye(2))
    edges = [["u", "v"], ["v", "w"]]
    return {"graph": {"nodes": ["u", "v", "w"], "edges": edges}, "dim": 2,
            "family": {"kind": "network",
                       "weights": [{"edge": e, "matrix": w} for e in edges]}}


def _cptp_table_spec():
    from graphdyn.dilate import Channel
    from oracles import channel_to_spec
    spec = _cptp_two_edge_spec()
    spec["family"]["channels"].append(
        {"edge": [0, 2], "channel": channel_to_spec(Channel.from_kraus([SIGMA_X]))})
    return spec


# each kind of spec with an edge table: a spec that lists every edge of its
# graph once, the path to the table, and an edge that the graph lacks
_EDGE_TABLES = {
    "explicit": lambda: (_explicit_spec({e: 0.5 * np.eye(2) for e in
                                         [(0, 1), (1, 2), (0, 2)]}),
                         ("family", "values"), [2, 0]),
    "exponential": lambda: (_generator_table_spec([(0, 1), (1, 2), (0, 2)]),
                            ("family", "generators"), [5, 7]),
    "cptp": lambda: (_cptp_table_spec(), ("family", "channels"), [2, 0]),
    "network": lambda: (_network_table_spec(), ("family", "weights"), ["w", "u"]),
}


def _table(spec, path):
    for key in path:
        spec = spec[key]
    return spec


class TestSpecForms:
    def test_explicit_loops_default_to_identity(self, capsys, tmp_path):
        step = 0.5 * np.eye(2)
        spec = write_json(tmp_path / "explicit.json", _explicit_spec(
            {(0, 1): step, (1, 2): step, (0, 2): step @ step, (1, 1): 2 * np.eye(2)}))
        code, out, _ = run(capsys, "check", "--input", spec, "--samples", "10")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        # loops 0 and 2 are missing from the table and get the identity;
        # the supplied loop (1, 1) is the only identity-axiom offender
        ident = by_name["identity-axiom"]
        assert not ident["passed"]
        assert ident["argmax"] == 1
        assert ident["max_defect"] == pytest.approx(1.0)

    @pytest.mark.parametrize("make_spec, message", [
        (lambda: _explicit_spec({(0, 1): np.eye(2), (1, 2): np.eye(2)}),
         "no value supplied for edge (0, 2)"),
        (lambda: _generator_table_spec([(0, 1), (1, 2)]),
         "no generator for edge (0, 2)"),
        (_cptp_two_edge_spec, "no channel for edge (0, 2)"),
    ], ids=["explicit", "exponential", "cptp"])
    def test_missing_edge_exits_2(self, capsys, tmp_path, make_spec, message):
        # the table is completed at parse: read lazily, the missing edge
        # (0, 2) failed only a command that read it
        spec = write_json(tmp_path / "spec.json", make_spec())
        for argv in [("check",), ("check", "--samples", "0"),
                     ("extend", "--which", "normal", "--word", "[[0, 1]]"),
                     ("dilate", "--pipeline", "A")]:
            assert run(capsys, *argv, "--input", spec) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("family, field", [
        ({"kind": "explicit", "values": []}, "graph.order"),
        ({"kind": "exponential", "generators": []}, "graph.order"),
        ({"kind": "exponential", "rate": linops.matrix_to_literal(-np.eye(2))}, "graph.order"),
        ({"kind": "cptp", "channels": []}, "graph.order"),
        ({"kind": "network", "weights": []}, "graph.nodes"),
    ], ids=["explicit", "exponential-table", "exponential-rate", "cptp", "network"])
    def test_a_spec_with_no_nodes_exits_2(self, capsys, tmp_path, family, field):
        # with no nodes every check counted 0 and passed, and A-cptp on a
        # cptp spec stacked no arrays and crashed
        graph = {"order": []} if field == "graph.order" else {"nodes": [], "edges": []}
        spec = write_json(tmp_path / "spec.json", {"graph": graph, "dim": 2, "family": family})
        for argv in [("check",), *(("dilate", "--pipeline", p) for p in ("A", "B", "C", "A-cptp"))]:
            assert run(capsys, *argv, "--input", spec) == (
                2, "", f"input error: malformed node list: {field} is empty\n")

    @pytest.mark.parametrize("argv", [
        ("normalize", "--word", "[]"), ("group", "mul", "--words", "[[], []]"),
        ("group", "inv", "--word", "[]")], ids=["normalize", "mul", "inv"])
    def test_a_graph_with_no_nodes_exits_2(self, capsys, tmp_path, argv):
        spec = write_json(tmp_path / "graph.json", {"graph": {"nodes": [], "edges": []}})
        assert run(capsys, *argv, "--input", spec) == (
            2, "", "input error: malformed node list: graph.nodes is empty\n")

    @pytest.mark.parametrize("argv", [
        ("check",), ("dilate", "--pipeline", "C"), ("extend", "--word", "[[2, 0]]")],
        ids=["check", "dilate", "extend"])
    def test_a_rate_of_another_dimension_exits_2(self, capsys, tmp_path, argv):
        # the rate is checked against dim at parse, before any value is read
        spec = {"graph": {"order": [2, 1, 0]}, "dim": 3, "family": {
            "kind": "exponential", "rate": linops.matrix_to_literal(-np.eye(2))}}
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == "input error: family.rate has shape (2, 2), but dim is 3\n"

    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "B")],
                             ids=["check", "dilate-B"])
    @pytest.mark.parametrize("field, keys", [
        ("rate", [-17 * 10**307, 17 * 10**307]), ("ell", [-17 * 10**307, 17 * 10**307]),
        ("rate", [-1.7e308, 1.7e308]), ("ell", [-1.7e308, 1.7e308])],
        ids=["rate-int", "ell-int", "rate-float", "ell-float"])
    def test_node_keys_whose_span_a_float_cannot_hold_exit_2(self, capsys, tmp_path, argv,
                                                              field, keys):
        # each key is a finite number, but max - min is not: a difference t - s
        # of integer keys overflows as a float, and of float keys it gives an
        # infinite length bound, against which no growth certificate can fail
        half = linops.matrix_to_literal([[0.5]])
        family = {"kind": "exponential", "rate": linops.matrix_to_literal([[-1.0]])}
        if field == "ell":
            family = {"kind": "explicit", "values": [{"edge": keys, "matrix": half}],
                      "ell": {"kind": "proportional", "scale": 1.0}}
        spec = {"graph": {"order": keys}, "dim": 1, "family": family}
        assert run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec)) == (
            2, "", f"input error: {field} needs graph.order keys whose span is a finite "
            "float\n")

    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "B")],
                             ids=["check", "dilate-B"])
    def test_an_ell_whose_scaled_span_a_float_cannot_hold_exits_2(self, capsys, tmp_path,
                                                                   argv):
        # the span is finite but scale * span is not: an infinite length bound
        # would pass geometric growth with defect 0 for any value
        spec = {"graph": {"order": [1e10, 0]}, "dim": 1, "family": {
            "kind": "explicit", "values": [{"edge": [1e10, 0], "matrix": [[[10.0, 0.0]]]}],
            "ell": {"kind": "proportional", "scale": 1e300}}}
        assert run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec)) == (
            2, "", "input error: ell needs ell.scale times the graph.order keys' span to be "
            "a finite float\n")

    @pytest.mark.parametrize("argv", [
        ("check",), ("dilate", "--pipeline", "A"), ("dilate", "--pipeline", "C"),
        ("extend", "--which", "cover2", "--word", "[[1.0, 0.0]]")],
        ids=["check", "dilate-A", "dilate-C", "extend-cover2"])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)], ids=["3x3", "2x3"])
    def test_a_rate_that_is_not_dim_by_dim_exits_2(self, capsys, tmp_path, argv, shape):
        # checked at parse, so the message names the field, not an edge
        spec = {"graph": {"order": [1.0, 0.5, 0.0]}, "dim": 2, "family": {
            "kind": "exponential", "rate": linops.matrix_to_literal(-np.eye(*shape))}}
        assert run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec)) == (
            2, "", f"input error: family.rate has shape {shape}, but dim is 2\n")

    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "A")],
                             ids=["check", "dilate"])
    @pytest.mark.parametrize("family,edge", [
        ({"kind": "exponential", "alpha": 10,
          "generators": [{"edge": [0, 1], "matrix": [[[-1e308, 0]]]}]}, (0, 1)),
        ({"kind": "exponential", "rate": [[[-1e308, 0], [0, 0]], [[0, 0], [-1, 0]]]},
         (2.0, 0.0)),
        ({"kind": "exponential", "generators": [{"edge": [0, 1], "matrix": [[[1000, 0]]]}]},
         (0, 1)),
    ], ids=["scaled-table", "rate", "exponential"])
    def test_a_value_that_overflows_exits_2(self, capsys, tmp_path, argv, family, edge):
        # every entry is finite; the generator, or its exponential, overflows
        rate = "rate" in family
        spec = {"graph": {"order": [2.0, 1.0, 0.0] if rate else [0, 1]},
                "dim": 2 if rate else 1, "family": family}
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == f"input error: value at edge {edge!r} has non-finite entries\n"

    def test_a_network_walk_sum_that_overflows_exits_2(self, capsys, tmp_path):
        # every weight is finite, but the walk a -> b -> c weighs 1e400; the
        # sums are formed inside the family's evaluator, which names the edge
        edges = [["a", "b"], ["b", "c"]]
        spec = {"graph": {"nodes": ["a", "b", "c"], "edges": edges}, "dim": 1,
                "family": {"kind": "network", "weights": [
                    {"edge": e, "matrix": [[[1e200, 0]]]} for e in edges]}}
        code, out, err = run(capsys, "check", "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == "input error: value at edge ('a', 'c') has non-finite entries\n"

    def test_a_network_defect_that_overflows_fails_at_its_triple(self, capsys, tmp_path):
        # the walks b -> c -> d and b -> d cancel, so every family value is
        # finite; the walk a -> b -> d that avoids c weighs -1e400
        weights = {("a", "b"): 1e100, ("b", "c"): 1.0, ("c", "d"): 1e300, ("b", "d"): -1e300}
        spec = write_json(tmp_path / "s.json", {
            "graph": {"nodes": ["a", "b", "c", "d"], "edges": [list(e) for e in weights]},
            "dim": 1, "family": {"kind": "network", "weights": [
                {"edge": list(e), "matrix": [[[v, 0]]]} for e, v in weights.items()]}})
        code, out, _ = run(capsys, "check", "--input", spec)
        assert code == 0
        rep = {c["name"]: c for c in json.loads(out)["checks"]}["network-defect-formula"]
        assert (rep["passed"], rep["max_defect"], rep["argmax"]) == (False, math.inf,
                                                                      ["a", "c", "d"])

    def test_a_triple_product_that_overflows_fails_at_its_triple(self, capsys, tmp_path):
        # every value is 1e200, so phi(0,1) phi(1,2) overflows: that triple has
        # the divisibility defect inf
        spec = write_json(tmp_path / "s.json", {
            "graph": {"order": [0, 1, 2]}, "dim": 1,
            "family": {"kind": "explicit", "values": [
                {"edge": e, "matrix": [[[1e200, 0]]]} for e in ([0, 1], [1, 2], [0, 2])]}})
        code, out, _ = run(capsys, "check", "--input", spec)
        assert code == 0
        div = {c["name"]: c for c in json.loads(out)["checks"]}["divisibility-axiom"]
        assert (div["passed"], div["max_defect"], div["argmax"]) == (False, math.inf, [0, 1, 2])
        code, out, err = run(capsys, "dilate", "--pipeline", "B", "--input", spec)
        assert (code, out) == (3, "")
        assert err == ("precondition failure [divisibility]: divisibility defect inf at "
                       "(0, 1, 2) exceeds 1.0e-09; the interval product would be ill-defined\n")

    @pytest.mark.parametrize("argv", [("dilate", "--pipeline", "B"),
                                      ("extend", "--which", "cover1", "--word", "[[0, 1]]")],
                             ids=["B", "cover1"])
    def test_a_non_finite_value_is_named_where_the_scan_reads_it(self, capsys, tmp_path,
                                                                 argv):
        # exp(10 * 1000) at (0, 1) overflows; 10 * -1e308 at (30, 35) overflows
        # as a generator.  Read all at once, the generator is found first, but
        # the divisibility scan's first block of triples never reads (30, 35):
        # a pair certificate that cannot read the values leaves the scan to it
        table = {(0, 1): 1000.0, (30, 35): -1e308}
        spec = write_json(tmp_path / "s.json", {
            "graph": {"order": list(range(40))}, "dim": 1,
            "family": {"kind": "exponential", "alpha": 10, "generators": [
                {"edge": [i, j], "matrix": [[[table.get((i, j), 0.0), 0]]]}
                for i in range(40) for j in range(i + 1, 40)]}})
        assert run(capsys, *argv, "--input", spec) == (
            2, "", "input error: value at edge (0, 1) has non-finite entries\n")
        code, _, err = run(capsys, "check", "--input", spec)
        assert (code, err) == (2, "input error: value at edge (30, 35) has non-finite entries\n")

    @pytest.mark.parametrize("warnings", [(), ("-W", "error")], ids=["default", "W-error"])
    def test_a_kraus_channel_that_overflows_exits_2(self, tmp_path, warnings):
        # conj(K) (x) K overflows inside the Kraus -> Choi conversion; the
        # non-finite Choi matrix is the input error, with no warning line
        import os
        import subprocess
        import sys
        spec = write_json(tmp_path / "s.json", {
            "graph": {"order": [0, 1]}, "dim": 1, "family": {"kind": "cptp", "channels": [
                {"edge": [0, 1], "channel": {"dim": 1, "repr": "kraus",
                                             "data": [[[[1e200, 0]]]]}}]}})
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, *warnings, "-m", "graphdyn.cli", "check",
                               "--input", spec], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "input error: matrix has non-finite entries\n")

    @pytest.mark.parametrize("warnings", [(), ("-W", "error")], ids=["default", "W-error"])
    @pytest.mark.parametrize("order", [("huge",), ("not-cp", "huge"), ("huge", "not-cp")],
                             ids=["alone", "not-cp-before", "not-cp-after"])
    def test_a_choi_matrix_whose_defects_overflow_exits_2(self, tmp_path, warnings, order):
        # C - C* overflows at (0, 1): the Hermiticity defect is inf, so the
        # matrix is not PSD, and the first channel that fails names the error
        import os
        import subprocess
        import sys
        huge = np.zeros((4, 4))
        huge[0, 1], huge[1, 0] = 1e308, -1e308
        entries = {"huge": huge, "not-cp": np.eye(4)[[0, 2, 1, 3]]}  # the swap: X -> X^T
        channels = [{"dim": 2, "repr": "choi", "data": linops.matrix_to_literal(entries[k])}
                    for k in order]
        spec = write_json(tmp_path / "s.json", {
            "graph": {"order": [0, 1, 2]}, "dim": 2, "family": {"kind": "cptp", "channels": [
                {"edge": e, "channel": c} for e, c in zip([[0, 1], [1, 2]], channels)]}})
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, *warnings, "-m", "graphdyn.cli", "check",
                               "--input", spec], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "input error: Choi matrix is not positive semidefinite\n")

    def test_a_generator_sum_that_overflows_fails_at_its_triple(self, capsys, tmp_path):
        # imaginary generators keep every exponential finite, but
        # A(0,2) - A(0,1) - A(1,2) = -3e308 i overflows
        table = {(0, 1): 1e308, (1, 2): 1e308, (0, 2): -1e308}
        spec = write_json(tmp_path / "s.json", {
            "graph": {"order": [0, 1, 2]}, "dim": 1,
            "family": {"kind": "exponential", "generators": [
                {"edge": list(e), "matrix": [[[0, v]]]} for e, v in table.items()]}})
        code, out, _ = run(capsys, "check", "--input", spec)
        assert code == 0
        add = {c["name"]: c for c in json.loads(out)["checks"]}["additivity-axiom"]
        assert (add["passed"], add["max_defect"], add["argmax"]) == (False, math.inf, [0, 1, 2])

    @pytest.mark.parametrize("bad, message", [
        ("abc", "is 'abc', not an array of scalar node keys"),
        ({"a": 1, "b": 2}, "is {'a': 1, 'b': 2}, not an array of scalar node keys"),
        (None, "lists the node {} twice"),
    ], ids=["string", "object", "repeated"])
    @pytest.mark.parametrize("field", ["order", "network", "group"])
    def test_a_node_list_of_distinct_scalar_keys(self, capsys, tmp_path, field, bad, message):
        # a string was read as its characters, an object as its keys, and a
        # network or group node list dropped a repeated node
        if field == "order":
            spec, argv, key = _explicit_spec({}), ("check",), "order"
        elif field == "network":
            spec, argv, key = _network_table_spec(), ("check",), "nodes"
        else:
            spec, argv = {"graph": {"nodes": ["a", "b", "c"], "edges": [["a", "b"]]}}, \
                ("normalize", "--word", "[]")
            key = "nodes"
        nodes = spec["graph"][key]
        if bad is None:  # the middle node again
            bad, message = nodes + [nodes[1]], message.format(repr(nodes[1]))
        spec["graph"][key] = bad
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == f"input error: malformed node list: graph.{key} {message}\n"

    @pytest.mark.parametrize("kind", sorted(_EDGE_TABLES))
    def test_an_edge_listed_twice_exits_2(self, capsys, tmp_path, kind):
        # the second entry carries another value: read as a table, it would
        # overwrite the first unseen
        spec, table, _ = _EDGE_TABLES[kind]()
        entries = _table(spec, table)
        entries.append(dict(entries[-1], edge=entries[0]["edge"]))
        code, out, err = run(capsys, "check", "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == f"input error: edge {tuple(entries[0]['edge'])!r} is listed twice\n"

    @pytest.mark.parametrize("kind", sorted(_EDGE_TABLES))
    def test_an_edge_outside_the_graph_exits_2(self, capsys, tmp_path, kind):
        spec, table, outside = _EDGE_TABLES[kind]()
        entries = _table(spec, table)
        entries.append(dict(entries[0], edge=outside))
        code, out, err = run(capsys, "check", "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == f"input error: edge {tuple(outside)!r} is not an edge of the graph\n"

    @pytest.mark.parametrize("argv", [("check", "--samples", "0"),
                                      ("dilate", "--pipeline", "A")],
                             ids=["check", "dilate-A"])
    @pytest.mark.parametrize("kind", ["explicit", "exponential"])
    def test_a_table_matrix_of_another_shape_exits_2(self, capsys, tmp_path, kind, argv):
        # no check reads the edge (0, 2) without samples: read lazily, the
        # 3 x 3 value passed check and failed dilate
        spec, table, _ = _EDGE_TABLES[kind]()
        _table(spec, table)[2]["matrix"] = linops.matrix_to_literal(0.25 * np.eye(3))
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == (f"input error: family.{table[-1]} entry 2 has shape (3, 3), "
                       "but dim is 2\n")

    @pytest.mark.parametrize("argv", [("check",), ("extend", "--word", '[["u", "v"]]')],
                             ids=["check", "extend"])
    def test_a_network_edge_listed_twice_exits_2(self, capsys, tmp_path, argv):
        # listed twice, the edge would count each walk through it twice
        spec, _, _ = _EDGE_TABLES["network"]()
        spec["graph"]["edges"].append(["u", "v"])
        path = write_json(tmp_path / "s.json", spec)
        code, out, err = run(capsys, *argv, "--input", path)
        assert (code, out) == (2, "")
        assert err == "input error: edge ('u', 'v') is listed twice\n"

    @pytest.mark.parametrize("bad", [["u", "v", "w"], ["u"], "uv"],
                             ids=["three-entry", "one-entry", "string"])
    @pytest.mark.parametrize("argv", [("check",), ("extend", "--word", '[["u", "w"]]')],
                             ids=["check", "extend"])
    def test_a_malformed_network_edge_exits_2(self, capsys, tmp_path, argv, bad):
        # read as its first two keys, ["u", "v", "w"] was the edge (u, v)
        spec, _, _ = _EDGE_TABLES["network"]()
        spec["graph"]["edges"][0] = bad
        path = write_json(tmp_path / "s.json", spec)
        code, out, err = run(capsys, *argv, "--input", path)
        assert (code, out) == (2, "")
        assert err == (f"input error: malformed edge literal: graph.edges entry 0 is "
                       f"{bad!r}, not [tail, head] with two scalar node keys\n")

    @pytest.mark.parametrize("bad", [["u", "v", "w"], ["u"], "uv"],
                             ids=["three-entry", "one-entry", "string"])
    @pytest.mark.parametrize("kind", sorted(_EDGE_TABLES))
    def test_a_malformed_table_edge_exits_2(self, capsys, tmp_path, kind, bad):
        # read as a tuple, the string "uv" was the network edge (u, v)
        spec, table, _ = _EDGE_TABLES[kind]()
        entries = _table(spec, table)
        entries[1] = dict(entries[1], edge=bad)
        code, out, err = run(capsys, "check", "--input", write_json(tmp_path / "s.json", spec))
        assert (code, out) == (2, "")
        assert err == (f"input error: malformed edge literal: the edge of family.{table[-1]} "
                       f"entry 1 is {bad!r}, not [tail, head] with two scalar node keys\n")

    def test_exponential_generator_table(self, capsys, tmp_path):
        spec = write_json(tmp_path / "generators.json",
                          _generator_table_spec([(0, 1), (1, 2), (0, 2)]))
        code, out, _ = run(capsys, "check", "--input", spec, "--samples", "10")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("additivity-axiom", "dissipative", "geometric-growth"):
            assert by_name[name]["passed"], name
        # A and B do not commute, so the exponential family is indivisible
        assert not by_name["divisibility-axiom"]["passed"]
        code, out, _ = run(capsys, "dilate", "--input", spec, "--pipeline", "C")
        assert code == 0
        assert json.loads(out)["passed"]


    @pytest.mark.parametrize("field", [{}, {"dissipative": True}, {"dissipative": False}],
                             ids=["no-field", "true", "false"])
    def test_pipeline_c_checks_dissipativity(self, capsys, tmp_path, field):
        # A(0,1) = diag(0.3, -0.2) has a positive Hermitian part; pipeline C
        # rejects it as non-dissipative whatever the spec says about it
        spec = _generator_table_spec([(0, 1), (1, 2), (0, 2)])
        gen = np.diag([0.3, -0.2]).astype(complex)
        table = {(0, 1): gen, (1, 2): _GEN_B, (0, 2): gen + _GEN_B}
        spec["family"]["generators"] = [
            {"edge": list(e), "matrix": linops.matrix_to_literal(m)}
            for e, m in table.items()]
        spec["family"].update(field)
        path = write_json(tmp_path / "spec.json", spec)
        code, out, _ = run(capsys, "check", "--input", path, "--samples", "10")
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert not by_name["dissipative"]["passed"]
        assert by_name["additivity-axiom"]["passed"]
        assert by_name["geometric-growth"]["passed"]
        code, _, err = run(capsys, "dilate", "--input", path, "--pipeline", "C")
        assert code == 3
        assert err.startswith("precondition failure [dissipativity]: generator at (0, 1)")


    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "B"),
                                      ("dilate", "--pipeline", "C")],
                             ids=["check", "dilate-B", "dilate-C"])
    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -0.5, "2.0", True],
                             ids=["nan", "inf", "negative", "string", "bool"])
    def test_bad_ell_scale_exits_2(self, capsys, tmp_path, divisible_spec, argv, scale):
        spec = json.loads(pathlib.Path(divisible_spec).read_text())
        spec["family"]["ell"]["scale"] = scale
        path = write_json(tmp_path / "bad.json", spec)
        code, out, err = run(capsys, *argv, "--input", path)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ell.scale must be a finite number >= 0")

    @pytest.mark.parametrize("field, message", [
        ({"graph": {"order": [5.0, 3.0, 1.0]}}, "graph.order does not match"),
        ({"dim": 7}, "dim 7 does not match d^2 = 4"),
        ({"dim": 4.0}, "dim must be a positive integer, got 4.0"),
    ], ids=["order", "dim", "dim-float"])
    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "C")],
                             ids=["check", "dilate-C"])
    def test_indivisible_example_must_match_its_grid(self, capsys, tmp_path,
                                                     indivisible_spec, field, message,
                                                     argv):
        spec = json.loads(pathlib.Path(indivisible_spec).read_text())
        spec.update(field)
        path = write_json(tmp_path / "bad.json", spec)
        code, out, err = run(capsys, *argv, "--input", path)
        assert (code, out) == (2, "")
        assert message in err


def _indivisible_family(**fields):
    family = {"kind": "indivisible-example", "h1": linops.matrix_to_literal(SIGMA_X),
              "h2": linops.matrix_to_literal(SIGMA_Z)}
    return {"family": dict(family, **fields)}


def _network_with(edit):
    spec = _network_table_spec()
    edit(spec["graph"]["edges"], spec["family"]["weights"])
    return spec


def _cptp_with_choi(data):
    spec = _cptp_table_spec()
    spec["family"]["channels"][1]["channel"] = {"dim": 2, "repr": "choi", "data": data}
    return spec


# a loop value of 0.9 fails the identity axiom; 2 and 4 grow faster than ell = 0
_LOOP_09 = {(0, 0): 0.9 * np.eye(2), (0, 1): np.eye(2), (1, 2): np.eye(2), (0, 2): np.eye(2)}
_GROWING = _explicit_spec({(0, 1): 2 * np.eye(2), (1, 2): 2 * np.eye(2),
                           (0, 2): 4 * np.eye(2)})
_GROWING["family"]["ell"] = {"kind": "proportional", "scale": 0}
_3X3 = linops.matrix_to_literal(np.eye(3))
_IDENTITIES = _explicit_spec({e: np.eye(2) for e in [(0, 1), (1, 2), (0, 2)]})

# (argv without --input, spec or None, exit code, the whole of stderr)
_EXITS = {
    "check-without-input": (("check",), None, 2,
                            "input error: --input is required for this command"),
    "extend-without-word": (("extend",), _IDENTITIES, 2,
                            "input error: no word given (flag or spec field)"),
    "cover2-of-explicit": (("extend", "--which", "cover2", "--word", "[[0, 1]]"),
                           _IDENTITIES, 2,
                           "input error: cover2 extension needs a generator family"),
    "C-of-explicit": (("dilate", "--pipeline", "C"), _IDENTITIES, 2,
                      "input error: pipeline C needs a generator family"),
    "B-loop-0.9": (("dilate", "--pipeline", "B"), _explicit_spec(_LOOP_09), 3,
                   "precondition failure [identity]: identity axiom fails: 1.000e-01"),
    "cover1-loop-0.9": (("extend", "--which", "cover1", "--word", "[[0, 1]]"),
                        _explicit_spec(_LOOP_09), 3,
                        "precondition failure [identity]: identity axiom fails: 1.000e-01"),
    "B-ell-scale-0": (("dilate", "--pipeline", "B"), _GROWING, 3,
                      "precondition failure [geometric-growth]: growth bound fails by "
                      "3.000e+00 at (0, 2)"),
    "grid-points-1": (("check",), _indivisible_family(grid_points=1), 2,
                      "input error: need at least two grid points"),
    "h1-2x2-h2-3x3": (("check",), _indivisible_family(h2=_3X3), 2,
                      "input error: shape mismatch: (2, 2) vs (3, 3)"),
    "network-edge-without-weight": (
        ("check",), _network_with(lambda edges, weights: weights.pop()), 2,
        "input error: edge ('v', 'w') has no weight"),
    "network-weight-3x3": (
        ("check",), _network_with(lambda edges, weights: weights[1].update(matrix=_3X3)),
        2, "input error: weight at ('v', 'w') has wrong shape"),
    "network-edge-to-unknown-node": (
        ("check",), _network_with(lambda edges, weights: (
            edges.append(["w", "x"]), weights.append(dict(weights[0], edge=["w", "x"])))),
        2, "input error: edge ('w', 'x') uses unknown nodes"),
    "choi-3x3-at-dim-2": (("check",), _cptp_with_choi(_3X3), 2,
                          "input error: Choi matrix has shape (3, 3)"),
}


@pytest.mark.parametrize("case", sorted(_EXITS))
def test_reachable_exit(capsys, tmp_path, case):
    argv, spec, code, message = _EXITS[case]
    if spec is not None:
        argv += ("--input", write_json(tmp_path / "s.json", spec))
    assert run(capsys, *argv) == (code, "", message + "\n")


# exits 2 that a reading of the parsers finds and no other tier-1 command
# runs; each stays an input error: (argv without --input, spec, stderr)
_READ_EXITS = {
    "commuting-h1-h2": (("check",), _indivisible_family(h2=linops.matrix_to_literal(SIGMA_X)),
                        "input error: [h1, h2] is central; the family would be divisible"),
    "grid-points-that-coincide": (("check",), _indivisible_family(t_max=5e-324, grid_points=3),
                                  "input error: linear order nodes must be distinct"),
    "network-cycle": (("check",), _network_with(lambda edges, weights: (
        edges.append(["w", "u"]), weights.append(dict(weights[0], edge=["w", "u"])))),
        "input error: the weighted graph has a directed cycle"),
    "cover1-of-network": (("extend", "--which", "cover1", "--word", '[["u", "v"]]'),
                          _network_with(lambda edges, weights: None),
                          "input error: covers need a linearly ordered graph"),
}


@pytest.mark.parametrize("case", sorted(_READ_EXITS))
def test_an_exit_found_by_reading_stays_an_input_error(capsys, tmp_path, case):
    argv, spec, message = _READ_EXITS[case]
    argv += ("--input", write_json(tmp_path / "s.json", spec))
    assert run(capsys, *argv) == (2, "", message + "\n")


_BAD_INTEGERS = [("x", "string"), (True, "bool"), (None, "null"), (2.0, "float"),
                 (0, "zero"), (-1, "negative")]
_BAD_NUMBERS = [("x", "string"), (False, "bool"), (None, "null"),
                (float("nan"), "nan"), (float("inf"), "inf"), (10**400, "huge")]
_NUMERIC_FIELDS = (
    [("divisible_spec", ("dim",), v, "dim must be a positive integer", i)
     for v, i in _BAD_INTEGERS]
    + [("divisible_spec", ("family", "alpha"), v, "alpha must be a finite number", i)
       for v, i in _BAD_NUMBERS]
    + [("indivisible_spec", ("family", "grid_points"), v,
        "grid_points must be a positive integer", i) for v, i in _BAD_INTEGERS]
    + [("indivisible_spec", ("family", key), v, f"{key} must be a finite number", i)
       for key in ("t_max", "alpha") for v, i in _BAD_NUMBERS]
    + [("indivisible_spec", ("family", "t_max"), v, "t_max must be a finite number > 0", i)
       for v, i in [(0.0, "zero"), (-1.0, "negative")]])


class TestNumericSpecFields:
    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "B"),
                                      ("dilate", "--pipeline", "C")],
                             ids=["check", "dilate-B", "dilate-C"])
    @pytest.mark.parametrize(
        "fixture, path, value, message", [case[:4] for case in _NUMERIC_FIELDS],
        ids=[f"{case[0].split('_')[0]}-{case[1][-1]}-{case[4]}" for case in _NUMERIC_FIELDS])
    def test_bad_field_exits_2(self, capsys, tmp_path, request, argv, fixture, path,
                               value, message):
        spec = json.loads(pathlib.Path(request.getfixturevalue(fixture)).read_text())
        target = spec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))  # NaN and Infinity, as json writes them
        code, out, err = run(capsys, *argv, "--input", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("input error: " + message + ", got ")
        assert "Traceback" not in err

    def test_huge_integer_ell_scale_exits_2(self, capsys, tmp_path, divisible_spec):
        spec = json.loads(pathlib.Path(divisible_spec).read_text())
        spec["family"]["ell"]["scale"] = 10**400  # no float holds it
        code, out, err = run(capsys, "check", "--input", write_json(tmp_path / "b.json", spec))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ell.scale must be a finite number >= 0")

    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "A-cptp")],
                             ids=["check", "dilate-A-cptp"])
    @pytest.mark.parametrize("where", ["system", "channel"])
    def test_bad_cptp_dim_exits_2(self, capsys, tmp_path, cptp_spec, argv, where):
        spec = json.loads(pathlib.Path(cptp_spec).read_text())
        target = spec if where == "system" else spec["family"]["channels"][1]["channel"]
        target["dim"] = "2"
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "b.json", spec))
        assert (code, out) == (2, "")
        assert "dim must be a positive integer, got '2'" in err

    @pytest.mark.parametrize("dim, data, message", [
        (3, None, "channel dim is 3, but Kraus operator 0 has shape (2, 2)"),
        (2, [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]],
         "channel dim is 2, but Kraus operator 1 has shape (1, 1)"),
        (2, [], "a kraus channel needs at least one operator"),
        # a channel that validates on its own, on another space than the
        # system's
        (3, [linops.matrix_to_literal(np.eye(3))],
         "channel at edge (1, 2) has dim 3, but the system dim is 2"),
    ], ids=["dim-3-of-2x2", "2x2-and-1x1", "no-operators", "dim-3-in-dim-2-system"])
    def test_kraus_shapes_must_match_dim(self, capsys, tmp_path, cptp_spec, dim, data,
                                         message):
        spec = json.loads(pathlib.Path(cptp_spec).read_text())
        channel = spec["family"]["channels"][1]["channel"]
        channel["dim"] = dim
        if data is not None:
            channel["data"] = data
        code, out, err = run(capsys, "check", "--input", write_json(tmp_path / "b.json", spec))
        assert (code, out) == (2, "")
        assert err == f"input error: {message}\n"

    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "A-cptp")],
                             ids=["check", "dilate-A-cptp"])
    @pytest.mark.parametrize("first, second, message", [
        ("not-cp", "malformed-literal", "Choi matrix is not positive semidefinite"),
        ("dim-3", "not-tp", "trace-preservation defect 7.500e-01"),
        ("not-tp", "not-cp", "trace-preservation defect 7.500e-01"),
    ], ids=["not-cp-before-a-malformed-literal", "dim-3-in-dim-2-before-not-tp",
            "not-tp-before-not-cp"])
    def test_the_first_failing_channel_entry_wins(self, capsys, tmp_path, cptp_spec, argv,
                                                  first, second, message):
        # channels are validated as one stack, after every entry is read; the
        # error is still the one of the first entry that fails, a failed
        # validation before a later parse error, and a dim that is not the
        # system's only after every entry is validated
        from oracles import kraus_spec
        transpose = np.eye(4)[[0, 2, 1, 3]]  # X -> X^T: its Choi matrix is the swap
        entries = {
            "not-cp": {"dim": 2, "repr": "choi", "data": linops.matrix_to_literal(transpose)},
            "not-tp": kraus_spec([0.5 * np.eye(2)]),
            "dim-3": kraus_spec([np.eye(3)]),
            "malformed-literal": kraus_spec([np.eye(2)]),
        }
        entries["malformed-literal"]["data"][0][1][1] = [1, "x"]
        spec = json.loads(pathlib.Path(cptp_spec).read_text())
        channels = spec["family"]["channels"]
        channels[0]["channel"], channels[1]["channel"] = entries[first], entries[second]
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "b.json", spec))
        assert (code, out) == (2, "")
        assert err == f"input error: {message}\n"

    def test_integral_numbers_are_accepted(self, capsys, tmp_path, indivisible_spec):
        spec = json.loads(pathlib.Path(indivisible_spec).read_text())
        spec["family"].update(t_max=1, alpha=1)
        code, out, _ = run(capsys, "check", "--input", write_json(tmp_path / "i.json", spec))
        reference = run(capsys, "check", "--input", indivisible_spec)
        assert (code, out) == reference[:2]

    @pytest.mark.parametrize("argv", [("check",), ("dilate", "--pipeline", "C")],
                             ids=["check", "dilate-C"])
    @pytest.mark.parametrize("alpha", [-1.0, -0.5])
    def test_negative_alpha_is_accepted(self, capsys, tmp_path, indivisible_spec, argv,
                                        alpha):
        # the generators are alpha times skew-Hermitian superoperators, so
        # their growth bound scales with |alpha|
        spec = json.loads(pathlib.Path(indivisible_spec).read_text())
        spec["graph"]["order"] = [1.0, 0.75, 0.5, 0.25, 0.0]
        spec["family"].update(grid_points=5, alpha=alpha)
        code, out, err = run(capsys, *argv, "--input", write_json(tmp_path / "i.json", spec))
        assert (code, err) == (0, "")
        if argv == ("check",):
            passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
            assert passed["geometric-growth"] and passed["dissipative"]


class TestExtend:
    def test_cover_dump(self, capsys, divisible_spec):
        word = [[1.0, 0.5], [0.75, 0.25]]
        code, out, _ = run(capsys, "extend", "--input", divisible_spec,
                           "--word", json.dumps(word), "--which", "cover1")
        assert code == 0
        body = json.loads(out)
        assert body["cover"] == [
            {"left": 1.0, "right": 0.75, "coeff": 1},
            {"left": 0.75, "right": 0.5, "coeff": 2},
            {"left": 0.5, "right": 0.25, "coeff": 1},
        ]
        value = linops.matrix_from_literal(body["value"])
        assert value.shape == (2, 2)

    def test_which_normal(self, capsys, network_spec):
        code, out, _ = run(capsys, "extend", "--input", network_spec,
                           "--word", '[["u", "v"], ["v", "w"]]',
                           "--which", "normal")
        assert code == 0
        body = json.loads(out)
        assert body["normal_form"] == [["u", "w"]]


class TestDilate:
    def test_pipeline_c_on_indivisible(self, capsys, indivisible_spec):
        code, out, _ = run(capsys, "dilate", "--input", indivisible_spec,
                           "--pipeline", "C")
        assert code == 0
        assert json.loads(out)["passed"]

    @pytest.mark.parametrize("pipeline, message", [
        ("A", "precondition failure [contraction]: family value at "
              "GroupElement(letters=(Letter(tail=0, head=1),)) has norm 2.000000"),
        ("B", "precondition failure [divisibility]: divisibility defect 6.000e+00 at "
              "(0, 1, 2) exceeds 1.0e-09; the interval product would be ill-defined"),
    ])
    def test_a_unital_map_that_is_not_positive_is_not_dilated(self, capsys, tmp_path,
                                                               pipeline, message):
        # x -> 3 tr(x)/2 1 - 2x is unital, but it sends |0><0| to
        # diag(-0.5, 1.5): no pipeline may certify it, as a superoperator
        vec_1 = np.eye(2).reshape(-1, order="F")
        phi = 1.5 * np.outer(vec_1, vec_1) - 2 * np.eye(4)
        assert np.allclose(linops.superop_apply(phi, np.eye(2)), np.eye(2))
        assert np.linalg.eigvalsh(linops.superop_apply(phi, np.diag([1.0, 0.0]))).min() < 0
        spec = write_json(tmp_path / "s.json", {
            "graph": {"order": [0, 1, 2]}, "dim": 4,
            "family": {"kind": "explicit", "values": [
                {"edge": e, "matrix": linops.matrix_to_literal(phi)}
                for e in ([0, 1], [1, 2], [0, 2])]}})
        assert run(capsys, "dilate", "--input", spec, "--pipeline", pipeline) == (
            3, "", message + "\n")

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_check_and_pipeline_c_agree_on_scaled_growth(self, capsys, tmp_path,
                                                         alpha):
        run(capsys, "demo", "indivisible-2.4", "--output", str(tmp_path))
        demo = json.loads((tmp_path / "indivisible-2_4.json").read_text())
        demo["system"]["family"]["alpha"] = alpha
        spec = write_json(tmp_path / "scaled.json", demo)
        code, out, _ = run(capsys, "check", "--input", spec)
        assert code == 0
        growth = {c["name"]: c for c in json.loads(out)["checks"]}["geometric-growth"]
        assert growth["passed"]
        code, out, err = run(capsys, "dilate", "--input", spec, "--pipeline", "C")
        assert code == 0, err
        assert json.loads(out)["passed"]

    @pytest.mark.parametrize("missing, code, message", [
        (None, 3, "precondition failure [contraction]: family value at "
                  "GroupElement(letters=(Letter(tail=0, head=3),)) has norm 1.200000"),
        ([2, 3], 2, "input error: no value supplied for edge (2, 3)"),
    ], ids=["all-edges", "later-edge-missing"])
    def test_pipeline_a_names_first_non_contraction(self, capsys, tmp_path, missing, code,
                                                    message):
        # the third non-loop edge (0, 3) has norm 1.2 and the fifth, (1, 3),
        # norm 1.5; every other is 0.5 * 1.  The first in edge order is named;
        # a table that misses an edge is rejected at parse, before any of them
        nonloop = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        bad = {2: [[0.0, 1.2], [0.3, 0.0]], 4: [[1.5, 0.0], [0.0, 0.0]]}
        values = [{"edge": e, "matrix": linops.matrix_to_literal(
                      bad.get(k, 0.5 * np.eye(2)))}
                  for k, e in enumerate(nonloop) if e != missing]
        spec = write_json(tmp_path / "explicit.json", {
            "graph": {"order": [0, 1, 2, 3]}, "dim": 2,
            "family": {"kind": "explicit", "values": values}})
        assert run(capsys, "dilate", "--input", spec, "--pipeline", "A") == \
            (code, "", message + "\n")

    @pytest.mark.parametrize("pipeline", ["B", "C"])
    def test_one_node_order_has_nothing_to_probe(self, capsys, tmp_path, pipeline):
        spec = write_json(tmp_path / "one.json", {
            "graph": {"order": [1.0]}, "dim": 2,
            "family": {"kind": "exponential",
                       "rate": linops.matrix_to_literal(1j * SIGMA_Z),
                       "ell": {"kind": "proportional", "scale": 2.0}}})
        code, out, err = run(capsys, "dilate", "--input", spec, "--pipeline", pipeline)
        assert code == 0 and "Traceback" not in err
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["continuity-modulus"]["passed"]
        assert checks["continuity-modulus"]["count"] == 0

    def test_pipeline_b_rejects_indivisible(self, capsys, indivisible_spec):
        code, _, err = run(capsys, "dilate", "--input", indivisible_spec,
                           "--pipeline", "B")
        assert code == 3
        assert "divisibility" in err

    def test_pipeline_b_on_divisible(self, capsys, divisible_spec):
        code, out, _ = run(capsys, "dilate", "--input", divisible_spec,
                           "--pipeline", "B")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_pipeline_a_on_network(self, capsys, network_spec):
        code, out, _ = run(capsys, "dilate", "--input", network_spec,
                           "--pipeline", "A")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_pipeline_a_cptp(self, capsys, cptp_spec):
        code, out, _ = run(capsys, "dilate", "--input", cptp_spec,
                           "--pipeline", "A-cptp")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_one_validated_channel_per_dilated_element(self, capsys, monkeypatch,
                                                       cptp_spec):
        # the 3 parsed channels, then one channel for each non-identity edge
        # element, (0, 1), (1, 2) and (0, 2): the one whose Kraus list the
        # reflection dilation reads.  Validation runs on stacks, so the Choi
        # matrices are counted where their defects are computed
        from graphdyn import dilate
        defects, counted = dilate.cptp_defects, []

        def counting(choi, d):
            counted.append(len(choi) if choi.ndim == 3 else 1)
            return defects(choi, d)

        monkeypatch.setattr(dilate, "cptp_defects", counting)
        code, _, _ = run(capsys, "dilate", "--input", cptp_spec, "--pipeline", "A-cptp")
        assert code == 0
        assert sum(counted) == 3 + 3

    def test_pipeline_a_cptp_checks_the_identity_axiom(self, capsys, tmp_path, cptp_spec):
        # a loop carrying sigma_x breaks the identity axiom: A-cptp refuses the
        # family as pipeline A does, before any dilation is built
        from graphdyn.dilate import Channel
        from oracles import channel_to_spec
        spec = json.loads(pathlib.Path(cptp_spec).read_text())
        spec["family"]["channels"].append(
            {"edge": [0, 0], "channel": channel_to_spec(Channel.from_kraus([SIGMA_X]))})
        path = write_json(tmp_path / "loop.json", spec)
        results = [run(capsys, "dilate", "--input", path, "--pipeline", pipeline)
                   for pipeline in ("A-cptp", "A")]
        code, out, err = results[0]
        assert (code, out) == (3, "")
        assert err.startswith("precondition failure [identity]: identity axiom fails")
        assert results[1] == results[0]


class TestDemo:
    def test_indivisible_demo_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "demo", "indivisible-2.4",
                           "--output", str(tmp_path))
        assert code == 0
        body = json.loads((tmp_path / "indivisible-2_4.json").read_text())
        assert body["expected"]["generator_coefficients_at_(1,0.5)"] \
            == [0.375, 0.125]
        sweep = (tmp_path / "indivisible-2_4_sweep.csv").read_text()
        assert sweep.startswith("alpha,")

    def test_network_demo_files(self, capsys, tmp_path):
        # each row's defect and the expected entry, bitwise those of the
        # one-target sweep into each node
        from oracles import avoiding_walk_sum
        code, _, _ = run(capsys, "demo", "network-2.5", "--output",
                         str(tmp_path))
        assert code == 0
        body = json.loads((tmp_path / "network-2_5.json").read_text())
        net = dynamics.build_system(body["system"])["network"]
        header, *rows = (tmp_path / "network-2_5_sweep.csv").read_text().splitlines()
        assert header == "from,through,to,defect_norm"
        want = [(u, v, w, linops.spectral_norm(avoiding_walk_sum(net, u, v, w)))
                for u in net.nodes for v in net.nodes for w in net.nodes]
        assert [(u, v, w, float(x)) for u, v, w, x in (r.split(",") for r in rows)] == want
        assert body["expected"]["defect(u,v,w)_entry"] == \
            avoiding_walk_sum(net, "u", "v", "w")[0, 0].real

    def test_lindblad_demo(self, capsys, tmp_path):
        code, _, _ = run(capsys, "demo", "lindblad", "--output", str(tmp_path))
        assert code == 0
        body = json.loads((tmp_path / "lindblad.json").read_text())
        assert body["expected"]["schwarz_conditions_pass"]

    @pytest.mark.parametrize("name", ["indivisible-2.4", "network-2.5", "lindblad"])
    def test_demo_file_is_json_dump_text(self, capsys, tmp_path, name):
        assert cli.main(["demo", name, "--output", str(tmp_path)]) == 0
        text = (tmp_path / (name.replace(".", "_") + ".json")).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", ["indivisible-2.4", "network-2.5"])
    def test_seed_of_a_seedless_demo_exits_2(self, capsys, tmp_path, name):
        code, _, err = run(capsys, "demo", name, "--output", str(tmp_path), "--seed", "0")
        assert code == 2 and "only the lindblad demo takes a seed" in err
        assert list(tmp_path.iterdir()) == []

    def test_lindblad_seed_defaults_to_0(self, capsys, tmp_path):
        for seed in ([], ["--seed", "0"], ["--seed", "5"]):
            out = tmp_path / (seed[-1] if seed else "default")
            assert run(capsys, "demo", "lindblad", "--output", str(out), *seed)[0] == 0
        # the seed shows in the JSON only through rounding noise, which some
        # BLAS kernels print as 0.0 for both seeds; the sweep table shows it
        text = {p.name: ((p / "lindblad.json").read_text(),
                         (p / "lindblad_sweep.csv").read_text()) for p in tmp_path.iterdir()}
        assert text["default"] == text["0"] != text["5"]

    def test_unknown_name_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["demo", "bogus", "--output", str(tmp_path)])
        assert exc.value.code == 2  # argparse rejects the choice


class TestNumericFlags:
    # --seed and --samples are non-negative integers, --tol a finite number >= 0
    @pytest.mark.parametrize("argv, flag", [
        (("check", "--input", "SPEC", "--seed", "-1"), "--seed"),
        (("dilate", "--input", "SPEC", "--pipeline", "A", "--seed", "-1"), "--seed"),
        (("demo", "lindblad", "--output", "OUT", "--seed", "-1"), "--seed"),
        (("verify", "--seed", "-1"), "--seed"),
        (("check", "--input", "SPEC", "--samples", "-1"), "--samples"),
        (("verify", "--samples", "-1"), "--samples"),
        (("check", "--input", "SPEC", "--tol", "nan"), "--tol"),
    ], ids=["check-seed", "dilate-seed", "demo-seed", "verify-seed", "check-samples",
            "verify-samples", "check-tol"])
    def test_bad_value_exits_2(self, capsys, tmp_path, indivisible_spec, argv, flag):
        argv = [{"SPEC": indivisible_spec, "OUT": str(tmp_path)}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "indivisible.json"]

    @pytest.mark.parametrize("argv, name, count", [
        (("check", "--samples", "0"), "divisibility-axiom", 0),
        (("check", "--tol", "0"), "identity-axiom", 9),
    ])
    def test_zero_is_accepted(self, capsys, indivisible_spec, argv, name, count):
        code, out, _ = run(capsys, *argv, "--input", indivisible_spec)
        assert code == 0
        check = {c["name"]: c for c in json.loads(out)["checks"]}[name]
        assert check["count"] == count
        if argv[1] == "--tol":
            assert check["tolerance"] == 0.0

    def test_verify_accepts_zero_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "0")
        assert code == 0
        counts = {c["name"]: c["count"] for c in json.loads(out)["checks"]}
        assert counts["group-laws"] == counts["kraus-dilations"] == 0


class TestVerifyAndDeterminism:
    def test_verify_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = cli.main(["verify", "--samples", "3", "--seed", "1",
                         "--output", str(out_path)])
        assert code == 0
        body = json.loads(out_path.read_text())
        assert body["passed"]

    def test_reports_are_deterministic(self, capsys, tmp_path, indivisible_spec):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            code = cli.main(["check", "--input", indivisible_spec,
                             "--seed", "7", "--output", str(p)])
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_dilate_report_deterministic(self, capsys, tmp_path, network_spec):
        p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
        for p in (p1, p2):
            code = cli.main(["dilate", "--input", network_spec,
                             "--pipeline", "A", "--seed", "3",
                             "--output", str(p)])
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestParserPerProcess:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path,
                                                        line_graph_spec):
        import os
        import subprocess
        import sys
        word = '[["a", "b"], ["b", "c"], ["c", "c"]]'
        calls = [
            ("normalize", "--input", line_graph_spec, "--word", word, "--trace"),
            ("normalize", "--input", line_graph_spec, "--word", word),
            ("verify", "--samples", "2", "--seed", "3"),
            ("group", "inv", "--input", line_graph_spec, "--word", word),
            ("verify", "--samples", "1"),
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        # no flag of one call carries over into the next
        assert json.loads(in_process[0][1])["trace"]
        assert json.loads(in_process[1][1])["trace"] == []
        assert json.loads(in_process[2][1])["seed"] == 3
        assert json.loads(in_process[4][1])["seed"] == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv, (code, out, err) in zip(calls, in_process):
            fresh = subprocess.run([sys.executable, "-m", "graphdyn.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_a_command_rebound_after_the_build_is_the_one_run(self, capsys,
                                                              line_graph_spec,
                                                              monkeypatch):
        cli.build_parser()
        seen = []
        original = cli.cmd_group_inv

        def wrapper(args):
            seen.append(args.word)
            return original(args)

        monkeypatch.setattr(cli, "cmd_group_inv", wrapper)
        code, _, _ = run(capsys, "group", "inv", "--input", line_graph_spec,
                         "--word", '[["a", "b"]]')
        assert (code, seen) == (0, ['[["a", "b"]]'])


_COLD_START = """
import contextlib, io, json, sys
from graphdyn import cli
WATCHED = ("numpy", "scipy", "scipy.linalg", "graphdyn.dilate", "graphdyn.dynamics",
           "graphdyn.extend", "graphdyn.linops", "dataclasses", "inspect")
seen = [[0, [m for m in WATCHED if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([code, [m for m in WATCHED if m in sys.modules]])
print(json.dumps(seen))
"""


class TestColdStart:
    def test_commands_that_never_exponentiate_leave_scipy_unloaded(
            self, line_graph_spec, cptp_spec, divisible_spec):
        import os
        import subprocess
        import sys
        word = '[["a", "b"], ["b", "c"], ["c", "c"]]'
        words = [
            ["normalize", "--input", line_graph_spec, "--word", word, "--trace"],
            ["group", "mul", "--input", line_graph_spec, "--words", f"[{word}, {word}]"],
            ["group", "inv", "--input", line_graph_spec, "--word", word],
            ["dilate", "--input", cptp_spec, "--pipeline", "A-cptp"],
        ]
        check = [["check", "--input", divisible_spec]]  # control: check exponentiates
        src = os.path.dirname(os.path.dirname(cli.__file__))

        def modules_after_each(calls):
            """Exit code and watched modules loaded after the import, then
            after each call, in one fresh interpreter."""
            fresh = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(calls)],
                                   capture_output=True, text=True, check=True,
                                   env=dict(os.environ, PYTHONPATH=src))
            return json.loads(fresh.stdout)

        layers = ["graphdyn.dilate", "graphdyn.dynamics", "graphdyn.extend",
                  "graphdyn.linops"]
        # after the import and each word command nothing is loaded, not even
        # dataclasses and the inspect it imports; A-cptp loads numpy (which
        # imports inspect) and the layers but not scipy
        assert modules_after_each(words) == [[0, []]] * 4 + [
            [0, ["numpy", *layers, "dataclasses", "inspect"]]]
        # check needs neither dilate nor extend
        assert modules_after_each(check) == [
            [0, []], [0, ["numpy", "scipy", "scipy.linalg", "graphdyn.dynamics",
                          "graphdyn.linops", "dataclasses", "inspect"]]]
