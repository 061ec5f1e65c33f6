"""Every check name that ``src/graphdyn`` emits can fail, or says why not.

The names are collected with ``ast``: the literal name argument of each call
to ``CheckReport``, ``defect_report``, ``bad_keys_report`` or a function that
forwards its own ``name`` parameter to one of them, and each literal
``.name =`` assignment.  ``FAILING`` holds, for each name, a minimal input on
which the check fails; ``CANNOT_FAIL`` lists the names no input fails today,
with the reason.  A new name on neither list fails the test.
"""

import ast
import pathlib

import numpy as np
import pytest

from graphdyn import cli, dilate, dynamics, extend, linops, rewrite
from graphdyn.dynamics import GeneratorFamily, LinearOrderGraph, OperatorFamily
from graphdyn.sampling import rng_from_seed
from oracles import cptp_system, edgewise, identity_channel
from test_rewrite import RestrictedAlphabet

SRC = pathlib.Path(cli.__file__).parent
REPORTERS = {"CheckReport", "defect_report", "bad_keys_report"}
# non-literal names, each with why it adds no name of its own
DERIVED = {"'pipeline-C-' + rep.name": "verify prefixes the names of pipeline C's reports"}

CANNOT_FAIL = {
    "confluence-3-clique": "verify checks a fixed complete graph, whose closed "
                           "alphabet is confluent; 'confluence' fails on a restricted one",
    "confluence-4-linear-order": "as confluence-3-clique, on a fixed 4-node graph",
    "group-laws": "the stack normal form defines the product, so the laws hold "
                  "in every context",
    "kraus-dilations": "written only when every reflection dilation passes; a "
                       "failing one is reported as reflection-dilation",
    "compression-identity": "compression_matrix(x) is value(x), which is the "
                            "family value at an edge element",
    "group-identity-axiom": "compares embed_edge with the fusion rule itself",
    "group-divisibility-axiom": "compares embed_edge and gmul with the fusion rule itself",
    "factorization-group-level": "e(t, s) = g(t) g(s)^-1 holds in the edge group "
                                 "by the fusion rule",
    "factorization-operator-level": "shifts tags by two equal group elements, so "
                                    "the vectors are equal",
}


def _name_arg(call):
    if call.args:
        return call.args[0]
    return next((k.value for k in call.keywords if k.arg == "name"), None)


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _forwards_name(fn, reporters):
    """Whether ``fn`` passes its first parameter ``name`` on to a reporter."""
    params = fn.args.args
    if not params or params[0].arg != "name":
        return False
    return any(isinstance(n, ast.Call) and _callee(n) in reporters
               and isinstance(_name_arg(n), ast.Name) and _name_arg(n).id == "name"
               for n in ast.walk(fn))


def emitted_names():
    """The literal check names of ``src/graphdyn``, and the source text of
    every name expression that is neither a literal nor a forwarded
    ``name`` parameter."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    functions = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.FunctionDef)]
    reporters = set(REPORTERS)
    while True:
        more = {fn.name for fn in functions if _forwards_name(fn, reporters)} - reporters
        if not more:
            break
        reporters |= more
    names, other = set(), set()
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Call) and _callee(node) in reporters:
            arg = _name_arg(node)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "name" for t in node.targets):
            arg = node.value
        else:
            continue
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.add(arg.value)
        elif not (isinstance(arg, ast.Name) and arg.id == "name"):
            other.add(ast.unparse(arg))
    return names, other


# -- a failing input per name --------------------------------------------------

def _scalars(graph, value, loop=1.0):
    """A 1 x 1 family: ``value`` on every edge, ``loop`` on loops."""
    return lambda e: np.array([[loop if e[0] == e[1] else value]], dtype=complex)


def _identity_axiom():
    graph = LinearOrderGraph([0, 1])
    return dynamics.check_identity_axiom(
        edgewise(OperatorFamily, graph, 1, _scalars(graph, 1.0, 2.0)))


def _divisibility_axiom():
    # phi(0, 2) = 0.5, but phi(0, 1) phi(1, 2) = 0.25
    graph = LinearOrderGraph([0, 1, 2])
    return dynamics.check_divisibility(
        edgewise(OperatorFamily, graph, 1, _scalars(graph, 0.5)))


def _additivity_axiom():
    # A(0, 2) = 1, but A(0, 1) + A(1, 2) = 2
    graph = LinearOrderGraph([0, 1, 2])
    return dynamics.check_additivity(
        edgewise(GeneratorFamily, graph, 1, _scalars(graph, 1.0, 0.0)))


def _dissipative():
    graph = LinearOrderGraph([0, 1])
    return edgewise(GeneratorFamily, graph, 1, _scalars(graph, 1.0, 0.0)).check_dissipative()


def _geometric_growth():
    graph = dynamics.descending_grid(1.0, 3)
    fam = edgewise(OperatorFamily, graph, 1, _scalars(graph, 0.5))
    return dynamics.check_geometric_growth(fam, dynamics.proportional_length(0.0))


def _schwarz_generator():
    # L = -id sends 1 to -1, not to 0
    samples = [np.eye(2, dtype=complex)]
    return dynamics.check_schwarz_generator(-np.eye(4, dtype=complex), samples)


def _continuity_modulus():
    # a zero length function bounds every translate difference by 0
    gens = dynamics.commuting_evolution(-np.eye(2), 1.0, 3)
    ext = extend.FirstCoverExtension(gens.exponential(1.0))
    one = rewrite.identity()
    return extend.continuity_modulus_check(
        ext, dynamics.proportional_length(0.0), (1.0, 0.5), (1.0, 0.0),
        [(one, one)], [np.ones(2)])


def _network_defect_formula():
    # the family of another network: the weights doubled on one edge
    nodes, edges = ["u", "v", "w"], [("u", "v"), ("v", "w")]
    net = dynamics.DagNetwork(nodes, edges, {e: 0.3 * np.eye(2) for e in edges}, 2)
    other = dynamics.DagNetwork(nodes, edges, {("u", "v"): 0.6 * np.eye(2),
                                               ("v", "w"): 0.3 * np.eye(2)}, 2)
    return dynamics.check_network_defect(net, dynamics.network_family(other), 1e-10)


def _cptp_family():
    # an amplitude-damping channel; at tolerance 0 its rounding defects fail
    ch = dilate.Channel.from_kraus([np.array([[1, 0], [0, 0.6]]),
                                    np.array([[0, 0.8], [0, 0]])])
    return dilate.check_cptp_family(cptp_system(LinearOrderGraph([0, 1]), {(0, 1): ch}), 0.0)


def _reflection_dilation():
    # the dilation of the identity channel, checked against a unitary one
    ch = dilate.Channel.from_kraus([linops.SIGMA_X])
    return dilate.kraus_ii_dilation(identity_channel(2)).verify(ch)


def _dilation_reconstruction():
    # pipeline A-cptp at tolerance 0: the reduced unitary action and the
    # channel are two computations, equal only to rounding
    rng = rng_from_seed(0)
    graph = LinearOrderGraph([0, 1])
    ch = dilate.Channel.random(rng, 2)
    system = cptp_system(graph, {(0, 1): ch})
    reports = dilate.dilate_cptp(system).verify(rng=rng, tol=0.0)
    return next(r for r in reports if r.name == "dilation-reconstruction")


def _one_parameter_semigroup_law():
    # the memoryful interpolation: no one-parameter family factors it
    gens = dynamics.example_indivisible(linops.SIGMA_X, linops.SIGMA_Z, 1.0, 5)
    c0 = max(linops.spectral_norm(1j * linops.commutator_superop(h))
             for h in (linops.SIGMA_X, linops.SIGMA_Z))
    system = {"graph": gens.graph, "family": gens.exponential(), "generators": gens,
              "ell": dynamics.proportional_length(c0)}
    reports = dilate.one_param_factorization(dilate.dilate_exponential(system), 0.0,
                                             rng=rng_from_seed(1))
    return next(r for r in reports if r.name == "one-parameter-semigroup-law")


FAILING = {
    "confluence": lambda: rewrite.check_confluence_bruteforce(RestrictedAlphabet(), 3),
    "rule-axioms": lambda: rewrite.check_rule_axioms(RestrictedAlphabet()),
    "identity-axiom": _identity_axiom,
    "divisibility-axiom": _divisibility_axiom,
    "additivity-axiom": _additivity_axiom,
    "dissipative": _dissipative,
    "geometric-growth": _geometric_growth,
    "schwarz-generator": _schwarz_generator,
    "continuity-modulus": _continuity_modulus,
    "network-defect-formula": _network_defect_formula,
    "cptp-family": _cptp_family,
    "reflection-dilation": _reflection_dilation,
    "dilation-reconstruction": _dilation_reconstruction,
    "one-parameter-semigroup-law": _one_parameter_semigroup_law,
}


def test_every_emitted_name_is_registered():
    names, other = emitted_names()
    assert not FAILING.keys() & CANNOT_FAIL.keys()
    assert names == FAILING.keys() | CANNOT_FAIL.keys()
    assert other == DERIVED.keys()


@pytest.mark.parametrize("name", sorted(FAILING))
def test_check_fails_on_its_input(name):
    rep = FAILING[name]()
    assert rep.name == name
    assert not rep.passed
