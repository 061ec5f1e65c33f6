import gc
import itertools
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import dynamics, linops, rewrite
from graphdyn.dynamics import (DagNetwork, GeneratorFamily,
                               LinearOrderGraph, OperatorFamily,
                               check_additivity, check_divisibility,
                               check_geometric_growth, check_identity_axiom,
                               check_network_defect, check_schwarz_generator,
                               descending_grid, dissipation_map, divisibility_defect,
                               example_indivisible, lindblad_generator,
                               network_family, proportional_length, walk_sums)
from graphdyn.errors import InputError
from graphdyn.linops import (SIGMA_X, SIGMA_Y, SIGMA_Z, commutator_superop,
                             kraus_superop, spectral_norm, superop_apply)
from graphdyn.reports import defect_report
from graphdyn.sampling import (random_dissipative, random_hermitian,
                               random_kraus_ops, random_matrix, rng_from_seed)
from oracles import additivity_defect, avoiding_walk_sum, edgewise


@pytest.fixture
def grid():
    return descending_grid(1.0, 9)


@pytest.fixture
def interp():
    return example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)


def superop_commutator(h):
    return 1j * commutator_superop(h)


class TestGraphs:
    def test_descending_grid_edges(self, grid):
        assert grid.has_edge(1.0, 0.5) and not grid.has_edge(0.5, 1.0)
        assert grid.has_edge(0.25, 0.25)

    def test_meet_join(self, grid):
        assert grid.meet(1.0, 0.5) == 1.0  # earlier in the stored order
        assert grid.join(1.0, 0.5) == 0.5

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InputError):
            LinearOrderGraph([0, 1, 1])

    @pytest.mark.parametrize("graph", [
        LinearOrderGraph([1.0, 0.5, 0.25, 0.0]), LinearOrderGraph(["b", 2, None]),
        LinearOrderGraph([7]), dynamics.CompleteGraph(["u", "v", "z", "w"]),
        dynamics.CompleteGraph([3, "x", 3, 0.5])],
        ids=["grid", "mixed-keys", "one-node", "complete", "complete-repeats"])
    def test_context_closure_is_that_of_every_edge(self, graph):
        every_edge = rewrite.EdgeContext(graph.nodes, list(graph.edges()))
        assert graph.context().closure_pairs() == every_edge.closure_pairs()

    def test_context_is_built_once(self, grid):
        with mock.patch.object(rewrite, "complete_context",
                               wraps=rewrite.complete_context) as build:
            ctx = grid.context()
            assert grid.context() is ctx
        assert build.call_count == 1

    def test_has_edge_is_the_three_call_definition(self):
        nan = float("nan")
        graph = LinearOrderGraph([1.0, 0.5, nan, "b", 0.0, None])
        # the node NaN itself, another NaN, keys equal to a node, unknown keys
        keys = list(graph.nodes) + [float("nan"), 1, True, "a", 2, (1.0,)]
        for u in keys:
            for v in keys:
                old = graph.has_node(u) and graph.has_node(v) and graph.leq(u, v)
                assert graph.has_edge(u, v) is old, (u, v)
        assert graph.has_edge(nan, 0.0) and not graph.has_edge(float("nan"), 0.0)

    def test_family_rejects_non_edges(self, grid):
        fam = edgewise(OperatorFamily, grid, 2, lambda e: np.eye(2))
        with pytest.raises(ValueError):
            fam((0.5, 1.0))


class TestIdentityAxiom:
    def test_constant_identity(self, grid):
        fam = edgewise(OperatorFamily, grid, 2, lambda e: np.eye(2))
        assert check_identity_axiom(fam).passed

    def test_exponential_of_additive(self, interp):
        # additivity forces vanishing diagonal generators
        fam = interp.exponential(1.0)
        assert check_identity_axiom(fam).passed

    def test_doubled_identity_fails(self, grid):
        fam = edgewise(OperatorFamily, grid, 2, lambda e: 2 * np.eye(2))
        rep = check_identity_axiom(fam)
        assert not rep.passed
        assert rep.max_defect == pytest.approx(1.0)


class TestDivisibility:
    def test_commuting_family_divisible(self):
        rng = rng_from_seed(0)
        a = random_dissipative(rng, 3)
        gens = dynamics.commuting_evolution(a, 1.0, 9)
        fam = gens.exponential(1.0)
        for (u, v, w) in [(1.0, 0.5, 0.0), (0.75, 0.5, 0.25), (1.0, 0.875, 0.75)]:
            assert divisibility_defect(fam, u, v, w) < 1e-10

    def test_interpolation_family_indivisible(self, interp):
        fam = interp.exponential(1.0)
        assert divisibility_defect(fam, 1.0, 0.5, 0.0) > 1e-3

    def test_degenerate_triple(self, interp):
        fam = interp.exponential(1.0)
        assert divisibility_defect(fam, 0.5, 0.5, 0.5) < 1e-15

    def test_missing_edge(self, interp):
        fam = interp.exponential(1.0)
        with pytest.raises(ValueError) as exc:
            divisibility_defect(fam, 0.0, 0.5, 1.0)
        assert exc.type is ValueError  # no input reaches it: not an InputError


class TestAdditivity:
    def test_integrated_family(self):
        # A(t, s) = integral of a matrix curve; additivity up to quadrature
        x = np.array([[0, 1], [0, 0]], dtype=complex)
        curve = lambda tau: np.cos(tau) * x + np.sin(tau) * 1j * SIGMA_Z

        def a_of(edge):
            t, s = edge
            return scipy.integrate.quad_vec(curve, s, t, epsabs=1e-10, epsrel=0)[0]

        gens = edgewise(GeneratorFamily, descending_grid(1.0, 5), 2, a_of)
        assert additivity_defect(gens, 1.0, 0.5, 0.0) < 1e-9

    def test_trivial_triple(self, interp):
        assert additivity_defect(interp, 0.5, 0.5, 0.5) == 0.0

    def test_quadratic_profile_fails(self):
        x = np.array([[0, 1], [0, 0]], dtype=complex)
        gens = edgewise(GeneratorFamily, descending_grid(1.0, 5), 2,
                        lambda e: (e[0] - e[1]) ** 2 * x)
        # (t-r)^2 != (t-s)^2 + (s-r)^2 whenever both gaps are positive
        assert additivity_defect(gens, 1.0, 0.5, 0.0) > 0.1


class TestGeometricGrowth:
    def test_evolution_bound(self):
        rng = rng_from_seed(1)
        a = random_dissipative(rng, 3)
        gens = dynamics.commuting_evolution(a, 1.0, 9)
        fam = gens.exponential(1.0)
        ell = proportional_length(spectral_norm(a))
        assert check_geometric_growth(fam, ell).passed

    def test_identity_with_zero_length(self, grid):
        fam = edgewise(OperatorFamily, grid, 2, lambda e: np.eye(2))
        assert check_geometric_growth(fam, lambda e: 0.0).passed

    def test_expanding_family_fails(self):
        graph = LinearOrderGraph([0.0, 1.0, 2.0, 4.0])
        fam = edgewise(OperatorFamily, graph, 2,
                       lambda e: np.exp(e[1] - e[0]) * np.eye(2))
        ell = proportional_length(1.0)
        rep = check_geometric_growth(fam, ell)
        assert not rep.passed  # e^x - 1 > x for large gaps

    def test_generator_growth(self, interp):
        c0 = max(spectral_norm(superop_commutator(h)) for h in (SIGMA_X, SIGMA_Z))
        assert check_geometric_growth(interp, proportional_length(c0)).passed

    def test_growth_of_divisible_family_forces_identity_axiom(self):
        # the bound at a loop edge reads |phi(u,u) - 1| <= l(u,u) = 0
        rng = rng_from_seed(30)
        a = random_dissipative(rng, 3)
        gens = dynamics.commuting_evolution(a, 1.0, 7)
        fam = gens.exponential(1.0)
        ell = proportional_length(spectral_norm(a))
        assert check_geometric_growth(fam, ell).passed
        assert check_identity_axiom(fam, tol=1e-12).passed

    def test_nan_bound_fails(self, interp):
        # NaN compares false with everything, so a bound of NaN once passed
        rep = check_geometric_growth(interp, proportional_length(float("nan")))
        assert not rep.passed
        assert np.isnan(rep.max_defect) and rep.argmax == interp.graph.nodes[:1] * 2
        assert len(rep.offenders) == 10


# -- batched checkers against the scalar loops they replace ----------------------

def enumerated_triples(graph):
    nodes = graph.nodes
    return [(u, v, w)
            for i, u in enumerate(nodes)
            for j, v in enumerate(nodes[i:], i)
            for w in nodes[j:]]


def drawn_triples(graph, seed, count):
    """The enumerated list, or ``count`` of it drawn by index from ``seed``."""
    triples = enumerated_triples(graph)
    if count is not None and count < len(triples):
        idx = rng_from_seed(seed).choice(len(triples), size=count, replace=False)
        triples = [triples[i] for i in idx]
    return triples


def loop_worst(keyed_defects):
    worst, arg = 0.0, None
    for key, d in keyed_defects:
        if d > worst:
            worst, arg = d, key
    return worst, arg


def loop_offenders(keyed_defects, tol):
    return [(key, d) for key, d in keyed_defects if d > tol][:10]


def random_generators(kind, points, seed):
    rng = rng_from_seed(seed)
    if kind == "indivisible":
        return example_indivisible(random_hermitian(rng, 2), random_hermitian(rng, 2),
                                   1.0, points)
    return dynamics.commuting_evolution(random_dissipative(rng, 3), 1.0, points)


families = dict(kind=st.sampled_from(["indivisible", "exponential"]),
                points=st.integers(2, 12), seed=st.integers(0, 2**16),
                count=st.one_of(st.none(), st.integers(1, 60)),
                block=st.sampled_from([1, 7, 512]))


class TestBatchedCheckers:
    @settings(max_examples=40, deadline=None)
    @given(**families)
    def test_divisibility_matches_scalar_loop(self, kind, points, seed, count, block):
        fam = random_generators(kind, points, seed).exponential(1.0 + seed % 3)
        rng = None if count is None else rng_from_seed(seed)
        with mock.patch.object(dynamics, "_BLOCK", block):
            rep = check_divisibility(fam, rng=rng, count=count)
        triples = drawn_triples(fam.graph, seed, count)
        want = loop_worst((t, divisibility_defect(fam, *t)) for t in triples)
        assert (rep.max_defect, rep.argmax, rep.count) == (*want, len(triples))

    @settings(max_examples=40, deadline=None)
    @given(**families)
    def test_additivity_matches_scalar_loop(self, kind, points, seed, count, block):
        gens = random_generators(kind, points, seed)
        rng = None if count is None else rng_from_seed(seed)
        with mock.patch.object(dynamics, "_BLOCK", block):
            rep = check_additivity(gens, rng=rng, count=count)
        triples = drawn_triples(gens.graph, seed, count)
        want = loop_worst((t, additivity_defect(gens, *t)) for t in triples)
        assert (rep.max_defect, rep.argmax, rep.count) == (*want, len(triples))

    @settings(max_examples=40, deadline=None)
    @given(points=st.integers(2, 7), block=families["block"], data=st.data())
    def test_triple_check_raises_for_first_bad_edge(self, points, block, data):
        # a block reads (u,v) of every triple, then (v,w), then (u,w); the
        # first edge in that order whose value is non-finite names the error
        graph = LinearOrderGraph(list(range(points)))
        edges = sorted(graph.edges())
        bad = data.draw(st.sets(st.sampled_from(edges), min_size=1))
        fam = edgewise(OperatorFamily, graph, 2,
                       lambda e: np.full((2, 2), np.nan) if e in bad else np.eye(2))
        first = None
        triples = enumerated_triples(graph)
        for start in range(0, len(triples), block):
            rows = triples[start:start + block]
            order = ([(u, v) for u, v, _ in rows] + [(v, w) for _, v, w in rows]
                     + [(u, w) for u, _, w in rows])
            first = next((e for e in order if e in bad), None)
            if first is not None:
                break
        with mock.patch.object(dynamics, "_BLOCK", block), \
                pytest.raises(InputError, match=re.escape(f"at edge {first!r} has")):
            check_divisibility(fam)

    @settings(max_examples=30, deadline=None)
    @given(kind=families["kind"], points=families["points"], seed=families["seed"],
           block=families["block"], scale=st.floats(0.0, 3.0))
    def test_edge_checkers_match_scalar_loops(self, kind, points, seed, block, scale):
        with mock.patch.object(dynamics, "_BLOCK", block):
            self.edge_checkers_match_scalar_loops(kind, points, seed, scale)

    def edge_checkers_match_scalar_loops(self, kind, points, seed, scale):
        gens = random_generators(kind, points, seed)
        fam = gens.exponential(1.0)
        edges = list(fam.graph.edges())
        eye = np.eye(fam.dim)
        ell = proportional_length(scale)
        tol = 1e-12
        for f, lhs in ((fam, lambda e: spectral_norm(fam(e) - eye)),
                       (gens, lambda e: spectral_norm(gens(e)))):
            rep = check_geometric_growth(f, ell)
            keyed = [(e, lhs(e) - ell(e)) for e in edges]
            assert (rep.max_defect, rep.argmax, rep.count, rep.offenders) == \
                (*loop_worst(keyed), len(edges), loop_offenders(keyed, tol))
        # plus a drift whose Hermitian part has eigenvalues of both signs
        noise = random_matrix(rng_from_seed(seed), gens.dim)
        rough = edgewise(GeneratorFamily, gens.graph, gens.dim,
                         lambda e: gens(e) + (e[0] - e[1]) * noise)
        for g in (gens, rough):
            rep = g.check_dissipative()
            assert (rep.max_defect, rep.argmax) == loop_worst(
                (e, float(np.linalg.eigvalsh(linops.hermitian_part(g(e))).max()))
                for e in edges)
        # loops pushed off the identity by a node-dependent amount
        index = fam.graph.index
        bumped = edgewise(OperatorFamily, fam.graph, fam.dim,
                          lambda e: fam(e) * (1.0 + scale * index(e[0])))
        rep = check_identity_axiom(bumped)
        keyed = [(u, spectral_norm(bumped((u, u)) - eye)) for u in fam.graph.nodes]
        assert (rep.max_defect, rep.argmax, rep.count, rep.offenders) == \
            (*loop_worst(keyed), points, loop_offenders(keyed, 1e-10))

    def test_all_zero_defects_have_no_argmax(self, grid):
        fam = edgewise(OperatorFamily, grid, 2, lambda e: np.eye(2))
        for rep in (check_divisibility(fam), check_identity_axiom(fam),
                    check_geometric_growth(fam, lambda e: 0.0)):
            assert rep.passed and rep.max_defect == 0.0 and rep.argmax is None

        def worst(defects, keys):
            rep = defect_report("defects", defects, keys, 0.0)
            return rep.max_defect, rep.argmax

        assert worst(np.zeros(4), "abcd") == (0.0, None)
        assert worst(np.array([0.0, 2.0, 1.0, 2.0]), "abcd") == (2.0, "b")
        assert worst(np.empty(0), "") == (0.0, None)

    def test_perturbed_edge_is_the_argmax(self):
        # strict contractions: the bump at (t0, t2) shows at full size only in
        # the triple that has (t0, t2) as its whole edge
        rng = rng_from_seed(40)
        rate = 1j * random_hermitian(rng, 3) - np.eye(3)
        fam = dynamics.commuting_evolution(rate, 1.0, 9).exponential(1.0)
        t = fam.graph.nodes
        bump = 1e-3 * np.eye(3)
        bumped = edgewise(OperatorFamily, fam.graph, 3,
                          lambda e: fam(e) + bump if e == (t[0], t[2]) else fam(e))
        assert check_divisibility(fam).passed
        rep = check_divisibility(bumped)
        assert not rep.passed
        assert rep.argmax == (t[0], t[1], t[2])
        assert rep.max_defect == divisibility_defect(bumped, t[0], t[1], t[2])


class TestBatchedFamilies:
    """A stack fills every missing edge with one batch evaluation; the values
    must be bitwise the per-edge ones however blocks and the cache split."""

    @settings(max_examples=40, deadline=None)
    @given(kind=families["kind"], points=st.integers(2, 9), seed=families["seed"],
           block=families["block"], data=st.data())
    def test_stack_matches_per_edge_calls(self, kind, points, seed, block, data):
        gens = random_generators(kind, points, seed)
        alpha = 1.0 + seed % 3
        fam = gens.exponential(alpha)
        oracle = random_generators(kind, points, seed).exponential(alpha)
        edges = list(fam.graph.edges())
        drawn = data.draw(st.lists(st.sampled_from(edges), max_size=60))
        for e in data.draw(st.lists(st.sampled_from(edges), max_size=6)):
            fam(e)  # partly cached before the blocks run
        with mock.patch.object(dynamics, "_BLOCK", block):
            dynamics._blockwise(drawn, lambda es: spectral_norm(fam.stack(es)))
        want = np.stack([oracle(e) for e in drawn]) if drawn else \
            np.empty((0, fam.dim, fam.dim))
        assert np.array_equal(fam.stack(drawn), want)
        for e in set(drawn):
            # a batch of one is the single-matrix exponential of the raw generator
            assert np.array_equal(oracle(e), scipy.linalg.expm(alpha * gens(e)))

    def test_first_bad_edge_in_order_raises(self):
        spec = {"graph": {"order": [0, 1, 2]}, "dim": 2,
                "family": {"kind": "exponential", "generators": [
                    {"edge": e, "matrix": linops.matrix_to_literal(-np.eye(2))}
                    for e in ([0, 1], [1, 2], [0, 2])]}}
        for edges, message in [([(0, 1), (0, 2), (2, 0)], "(2, 0) is not an edge"),
                               ([(0, 1), (2, 1), (0, 2), (2, 0)], "(2, 1) is not an edge")]:
            fam = dynamics.build_system(spec)["family"]
            with pytest.raises(ValueError) as loop:
                for e in edges:
                    fam(e)
            fam = dynamics.build_system(spec)["family"]
            with pytest.raises(ValueError) as batch:
                fam.stack(edges)
            assert message in str(batch.value) and str(batch.value) == str(loop.value)
            assert batch.type is loop.type is ValueError  # no input reaches it

    def test_freed_without_the_cycle_collector(self):
        # a reference cycle through a family would keep its cached values
        # alive until the collector runs, which raises peak memory
        gc.disable()
        try:
            for make in (lambda: random_generators("exponential", 5, 0),
                         lambda: random_generators("indivisible", 5, 0).exponential(2.0)):
                fam = make()
                fam.stack(list(fam.graph.edges()))
                ref = weakref.ref(fam)
                del fam
                assert ref() is None
        finally:
            gc.enable()

    def test_a_cached_value_cannot_be_written(self):
        fam = random_generators("exponential", 4, 0).exponential(1.0)
        edges = list(fam.graph.edges())
        val = fam(edges[1])
        before = val.copy()
        with pytest.raises(ValueError, match="read-only"):
            val[0, 0] = 7.0
        stack = fam.stack(edges)  # grows the value array past the cached row
        stack[:] = 0  # a stack is the caller's own copy
        assert np.array_equal(fam(edges[1]), before)
        assert np.array_equal(fam.stack([edges[1]])[0], before)

    def test_cached_edges_given_as_lists_are_not_evaluated(self):
        # a stack of cached edges given as lists once sent the evaluator an
        # empty batch, on which a network's evaluator raised IndexError
        net = DagNetwork(["a", "b"], [("a", "b")], {("a", "b"): [[2.0]]}, 1)
        fam = network_family(net)
        value = fam(("a", "b"))
        assert np.array_equal(fam.stack([["a", "b"]]), [value])


class TestExactSvdBudget:
    """Exhaustive divisibility and additivity checks of a divisible family
    send only the matrices that decide their reports to the SVD."""

    def test_exhaustive_checks_stay_within_budget(self):
        rng = rng_from_seed(44)
        gens = dynamics.commuting_evolution(random_dissipative(rng, 4), 1.0, 33)
        fam = gens.exponential(1.0)
        seen = []
        real = linops._singular_values
        with mock.patch.object(linops, "_singular_values",
                               side_effect=lambda a: seen.append(len(a)) or real(a)):
            reps = [check_divisibility(fam), check_additivity(gens)]
        # 2 x 6545 triples; unscreened, every one of them is an SVD
        assert all(r.passed and r.count == 6545 for r in reps)
        assert sum(seen) <= 100, seen
        t = fam.graph.nodes
        bumped = edgewise(OperatorFamily, fam.graph, 4, lambda e: fam(e) + 1e-3 * np.eye(4)
                          if e == (t[3], t[20]) else fam(e))
        rep = check_divisibility(bumped)
        triples = [(t[i], t[j], t[k]) for i in range(33) for j in range(i, 33)
                   for k in range(j, 33)]
        worst = max(triples, key=lambda x: divisibility_defect(bumped, *x))  # the first
        assert not rep.passed and rep.argmax == worst and worst[::2] == (t[3], t[20])
        assert rep.max_defect == divisibility_defect(bumped, *worst)


    def test_blocks_below_the_held_defect_reach_no_svd(self):
        # the worst triple (1, 1/2, 0) is in the first of 13 blocks; each later
        # block is screened below its defect, so only matrices whose bound
        # reaches 0.2385 go to the SVD (216 of them when blocks were screened
        # alone)
        fam = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 33).exponential(1.0)
        seen = []
        real = linops._singular_values
        with mock.patch.object(linops, "_singular_values",
                               side_effect=lambda a: seen.append(len(a)) or real(a)):
            rep = check_divisibility(fam)
        assert (rep.passed, rep.argmax, rep.count) == (False, (1.0, 0.5, 0.0), 6545)
        assert rep.max_defect == divisibility_defect(fam, 1.0, 0.5, 0.0)
        assert sum(seen) <= 40, seen


def product_family(seed, points, dim, scale, loop=0.0, bump=0.0, at=(0, 1)):
    """Divisible by construction, up to rounding: phi(t_i, t_k) is the
    ordered product S_i ... S_{k-1} of random steps of spectral norm
    ``scale``.  Each loop is 1 plus a random matrix of norm ``loop``, and the
    edge of node indices ``at`` gets a random matrix of norm ``bump`` added."""
    rng = rng_from_seed(seed)
    graph = descending_grid(1.0, points)

    def unit():
        a = random_matrix(rng, dim)
        return a / spectral_norm(a)

    steps = [scale * unit() for _ in range(points - 1)]
    loops = [np.eye(dim) + loop * unit() for _ in range(points)]
    kick = bump * unit()

    def phi(edge):
        i, k = graph.index(edge[0]), graph.index(edge[1])
        out = loops[i] if i == k else np.linalg.multi_dot([np.eye(dim), *steps[i:k]])
        return out + kick if (i, k) == at else out

    return edgewise(OperatorFamily, graph, dim, phi)


class TestPairCertificate:
    """``_divisible_by_pairs`` certifies the divisibility scan in O(m^2): it
    may decline to, but it never passes a family that the scan fails."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), points=st.integers(2, 7), dim=st.integers(1, 3),
           scale=st.floats(0.5, 1.4), loop=st.sampled_from([0.0, 1e-13, 1e-11, 1e-10, 5e-10]),
           bump=st.one_of(st.just(0.0), st.floats(0.1, 10.0)), data=st.data())
    def test_never_passes_what_the_scan_fails(self, seed, points, dim, scale, loop, bump,
                                              data):
        tol = 1e-9
        i = data.draw(st.integers(0, points - 1))
        at = (i, data.draw(st.integers(i, points - 1)))
        fam = product_family(seed, points, dim, scale, loop, bump * tol, at)
        certified = dynamics._divisible_by_pairs(fam, tol)
        assert not certified or check_divisibility(fam, tol).passed

    @pytest.mark.parametrize("scale", [0.9, 1.0, 1.2])
    def test_certifies_divisible_families(self, scale):
        # steps of norm 1.2 give tau = 1.2^8 and phi up to that norm
        fam = product_family(3, 9, 3, scale, loop=1e-12)
        assert dynamics._divisible_by_pairs(fam, 1e-9)
        assert check_divisibility(fam, 1e-9).passed

    def test_declines_near_the_tolerance(self):
        # one edge off by 0.3 tol: the scan passes, but the bound is not sharp
        fam = product_family(3, 9, 3, 1.0, bump=3e-10, at=(2, 6))
        assert not dynamics._divisible_by_pairs(fam, 1e-9)
        assert check_divisibility(fam, 1e-9).passed

    def test_an_indivisible_family_fails_at_its_residuals(self, interp):
        fam = interp.exponential(1.0)
        with mock.patch.object(dynamics, "spectral_norm") as norm:
            assert not dynamics._divisible_by_pairs(fam, 1e-9)
        norm.assert_not_called()  # no step norm, after the residual pass

    def test_declines_one_node_and_non_finite_values(self):
        one = edgewise(OperatorFamily, LinearOrderGraph([0.0]), 2, lambda e: np.eye(2))
        assert not dynamics._divisible_by_pairs(one, 1e-9)
        graph = LinearOrderGraph([0, 1, 2])
        bad = edgewise(OperatorFamily, graph, 1,
                       lambda e: [[np.inf if e == (1, 2) else 1.0]])
        assert not dynamics._divisible_by_pairs(bad, 1e-9)
        # products that overflow give inf residuals, without a warning
        huge = edgewise(OperatorFamily, graph, 1,
                        lambda e: [[1.0 if e[0] == e[1] else 1e200]])
        assert not dynamics._divisible_by_pairs(huge, 1e-9)

    def test_pipeline_b_runs_no_scan_on_a_divisible_family(self):
        from graphdyn import dilate, extend
        rng = rng_from_seed(47)
        gens = dynamics.commuting_evolution(random_dissipative(rng, 2, 0.5), 1.0, 33)
        system = {"graph": gens.graph, "family": gens.exponential(), "ell": None}
        svds = []
        real = linops._singular_values
        with mock.patch.object(extend, "check_divisibility") as scan, \
                mock.patch.object(dilate, "spectral_norm") as norm:
            dilsys = dilate.dilate_divisible(system)
            with mock.patch.object(linops, "_singular_values",
                                   side_effect=lambda a: svds.append(len(a)) or real(a)):
                dilsys.dilation.values([dilsys.edge_element(e) for e in gens.graph.edges()])
        scan.assert_not_called()
        norm.assert_not_called()  # ShiftDilation._check certified all 561 values
        assert svds == []


class TestExpmBudget:
    """An exponential family on a uniform grid has one generator per step
    count, and each stacked ``expm`` sends scipy each distinct one once."""

    def test_exhaustive_divisibility_stays_within_budget(self):
        rng = rng_from_seed(45)
        fam = dynamics.commuting_evolution(random_dissipative(rng, 4), 1.0, 33).exponential()
        seen = []
        real = scipy.linalg.expm
        with mock.patch.object(scipy.linalg, "expm",
                               side_effect=lambda a: seen.append(len(a)) or real(a)):
            rep = check_divisibility(fam)
        assert rep.passed and rep.count == 6545
        # 561 edges in blocks of triples; unshared, every edge is an expm.
        # The steps of the grid 1, 31/32, ..., 0 are exact, so an edge's
        # generator is one of 33 (t - s) R, and each stack sends at most those
        assert all(n <= 33 for n in seen) and sum(seen) <= 2 * 33, seen

    def test_each_generator_is_exponentiated_once_per_family(self):
        rng = rng_from_seed(46)
        gens = dynamics.commuting_evolution(random_dissipative(rng, 3), 1.0, 9)
        fam = gens.exponential(0.5)
        edges = list(fam.graph.edges())  # 45 edges, 9 step counts on the grid 1, 7/8, ..., 0
        seen = []
        real = scipy.linalg.expm
        with mock.patch.object(scipy.linalg, "expm",
                               side_effect=lambda a: seen.append(len(a)) or real(a)):
            blocks = [fam.stack(block) for block in (edges[:5], edges[5:20], edges[20:])]
            fam.stack(edges)
        assert sum(seen) == 9, seen
        want = linops.expm(0.5 * gens.stack(edges))
        assert np.concatenate(blocks).tobytes() == want.tobytes()


class TestTripleSampling:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_unrank_is_a_bijection_onto_the_enumeration(self, m):
        graph = LinearOrderGraph(range(m))
        total = m * (m + 1) * (m + 2) // 6
        got = [tuple(r) for r in dynamics._unrank_triples(m, np.arange(total)).tolist()]
        assert got == enumerated_triples(graph)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**16), count=st.integers(1, 400))
    def test_sample_keeps_the_rng_stream(self, m, seed, count):
        graph = LinearOrderGraph([f"n{i}" for i in range(m)])
        idx = dynamics._ordered_triples(graph, rng_from_seed(seed), count)
        triples = dynamics._node_triples(graph.nodes, idx)
        assert triples == drawn_triples(graph, seed, count)

    def test_large_grid_draw(self):
        m, count = 400, 1000
        graph = LinearOrderGraph(range(m))
        idx = dynamics._ordered_triples(graph, rng_from_seed(3), count)
        total = m * (m + 1) * (m + 2) // 6
        ranks = rng_from_seed(3).choice(total, size=count, replace=False)
        assert idx.shape == (count, 3)
        for (i, j, k), rank in zip(idx.tolist(), ranks.tolist()):
            assert 0 <= i <= j <= k < m
            lex = (sum((m - a) * (m - a + 1) // 2 for a in range(i))
                   + sum(m - b for b in range(i, j)) + k - j)
            assert lex == rank


class TestCompleteGraphTriples:
    """A complete graph's triple population is all n^3 ordered triples, so
    a verdict does not depend on how its nodes are listed."""

    def diamond(self, nodes):
        w = 0.3 * np.eye(2, dtype=complex)
        edges = [("u", "v"), ("v", "w"), ("u", "z"), ("z", "w")]
        return network_family(DagNetwork(nodes, edges, {e: w for e in edges}, 2))

    @pytest.mark.parametrize("nodes", [["w", "z", "v", "u"], ["z", "u", "w", "v"]])
    def test_a_permuted_node_list_gives_the_same_verdict(self, nodes):
        # listed u, v, z, w, the i <= j <= k triples failed by 0.3; listed
        # w, z, v, u they all passed.  Every backward triple such as
        # (z, w, z) has the defect |phi(z, z)| = 1: no walk leads back
        want = check_divisibility(self.diamond(["u", "v", "z", "w"]))
        rep = check_divisibility(self.diamond(nodes))
        assert (rep.passed, rep.max_defect, rep.count) == \
            (want.passed, want.max_defect, want.count) == (False, 1.0, 64)
        fam = self.diamond(nodes)
        assert rep.argmax == max(itertools.product(fam.graph.nodes, repeat=3),
                                 key=lambda t: divisibility_defect(fam, *t))

    def test_a_sample_is_drawn_by_rank_from_all_triples(self):
        graph = dynamics.CompleteGraph("abcde")
        idx = dynamics._ordered_triples(graph, rng_from_seed(5), 40)
        ranks = rng_from_seed(5).choice(125, size=40, replace=False)
        assert idx.tolist() == [[r // 25, r // 5 % 5, r % 5] for r in ranks.tolist()]


def scan_peak(run):
    """The peak of the memory ``run()`` allocates, as tracemalloc sees it
    (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemory:
    """An exhaustive triple scan holds O(block + m^2), not its m^3
    population: doubling m multiplies its peak by about 4, not 8."""

    def test_divisibility_scan_grows_as_m_squared(self):
        peaks = []
        for points in (40, 80):
            fam = dynamics.commuting_evolution([[-1.0]], 1.0, points).exponential()
            fam.stack(list(fam.graph.edges()))  # the values are not the scan's
            peaks.append(scan_peak(lambda: check_divisibility(fam)))
        assert peaks[1] <= 5 * peaks[0], peaks

    def test_a_sampled_scan_allocates_nothing_of_size_m_squared(self):
        # an m^2 code table at 800 points would be 5 MB
        peaks = []
        for points in (200, 800):
            fam = dynamics.commuting_evolution([[-1.0]], 1.0, points).exponential()
            peaks.append(scan_peak(lambda: check_divisibility(fam, rng=rng_from_seed(0),
                                                              count=25)))
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_network_defect_grows_as_n_squared(self):
        peaks = []
        for n in (16, 32):
            edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
            net = DagNetwork(range(n), edges, {e: [[0.5]] for e in edges}, 1)
            fam = network_family(net)
            fam.stack(list(fam.graph.edges()))
            peaks.append(scan_peak(lambda: check_network_defect(net, fam, 1e-12)))
        assert peaks[1] <= 5 * peaks[0], peaks


def _table_family(kind, key, field, value):
    """The family that ``build_system`` parses from a ``kind`` table that
    gives ``value`` at every non-loop edge of the order 0 < 1 < 2."""
    return dynamics.build_system({
        "graph": {"order": [0, 1, 2]}, "dim": 2, "family": {"kind": kind, key: [
            {"edge": e, field: value} for e in ([0, 1], [1, 2], [0, 2])]}})["family"]


class TestClosedFormFamilies:
    """The interpolation, rate and table families evaluate a batch of edges
    at once."""

    @pytest.mark.parametrize("build", [
        lambda: dynamics.commuting_evolution(-np.eye(2), 1.0, 3),
        lambda: example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 3),
        lambda: _table_family("explicit", "values", "matrix",
                              linops.matrix_to_literal(0.5 * np.eye(2))),
        lambda: _table_family("cptp", "channels", "channel",
                              {"dim": 2, "repr": "kraus", "data": [
                                  linops.matrix_to_literal(SIGMA_X)]})],
        ids=["rate", "interpolation", "explicit-table", "cptp-table"])
    def test_first_bad_edge_in_order_raises(self, build):
        fam = build()
        a, b, c = fam.graph.nodes
        for edges, bad in [([(a, b), (c, a), ("x", c)], (c, a)),
                           ([(a, a), ("x", c), (c, a)], ("x", c)),
                           ([(b, "x"), (a, b)], (b, "x"))]:
            with pytest.raises(ValueError) as batch:
                build().stack(edges)
            assert str(batch.value) == f"{bad!r} is not an edge of the graph"
            with pytest.raises(ValueError) as loop:
                for e in edges:
                    fam(e)
            assert str(batch.value) == str(loop.value)
            assert batch.type is loop.type is ValueError  # no input reaches it

    def test_integer_keys_stay_exact(self):
        # t - s is the keys' own difference: the floats of the keys would
        # give 2**53 - 1 here
        spec = {"graph": {"order": [2**53 + 1, 1, 0]}, "dim": 1,
                "family": {"kind": "exponential", "rate": [[[-1.0, 0.0]]]}}
        gens = dynamics.build_system(spec)["generators"]
        assert gens.stack([(2**53 + 1, 1)])[0, 0, 0] == -2.0**53

    def test_a_value_of_the_wrong_shape_raises(self):
        # no spec reaches this check: a rate of the wrong shape is an input
        # error at parse, so a wrong shape here is a bug
        gens = dynamics.GeneratorFamily(LinearOrderGraph([2, 1, 0]), 3,
                                        lambda edges: np.zeros((len(edges), 2, 2)))
        with pytest.raises(ValueError, match=re.escape(
                "evaluator returned shape (2, 2), expected (3, 3) at edge (1, 0)")) as exc:
            gens.stack([(1, 0), (2, 0)])
        assert exc.type is ValueError


class TestIntegrateGenerators:
    def test_interpolation_closed_form(self):
        # quadrature oracle for the closed-form two-Hamiltonian family
        t_max = 1.0
        p1 = superop_commutator(SIGMA_X)
        p2 = superop_commutator(SIGMA_Z)
        curve = lambda tau: (tau / t_max**2) * p1 + ((t_max - tau) / t_max**2) * p2
        t, s = 0.9, 0.3
        quad = scipy.integrate.quad_vec(curve, s, t, epsabs=1e-10, epsrel=0)[0]
        c1, c2 = dynamics.interpolated_commutator_coefficients(t, s, t_max)
        assert spectral_norm(quad - (c1 * p1 + c2 * p2)) < 1e-10


class TestInterpolationFamily:
    def test_coefficients_exact(self):
        assert dynamics.interpolated_commutator_coefficients(1.0, 0.5, 1.0) \
            == (0.375, 0.125)

    def test_half_interval_commutator(self, interp):
        lhs = linops.commutator(interp((1.0, 0.5)), interp((0.5, 0.0)))
        hat = linops.commutator(SIGMA_X, SIGMA_Z)
        rhs = -0.125 * commutator_superop(hat)
        assert spectral_norm(lhs - rhs) < 1e-12

    def test_commuting_inputs_rejected(self):
        with pytest.raises(InputError):
            example_indivisible(SIGMA_X, SIGMA_X, 1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            example_indivisible(np.array([[0, 1], [0, 0]]), SIGMA_Z, 1.0)

    def test_generators_dissipative(self, interp):
        assert interp.check_dissipative().passed

    def test_closed_form_matches_quadrature(self, interp):
        p1 = superop_commutator(SIGMA_X)
        p2 = superop_commutator(SIGMA_Z)
        curve = lambda tau: tau * p1 + (1.0 - tau) * p2
        quad = scipy.integrate.quad_vec(curve, 0.25, 0.875, epsabs=1e-10, epsrel=0)[0]
        assert spectral_norm(quad - interp((0.875, 0.25))) < 1e-10


class TestLindblad:
    def test_hamiltonian_part_only(self):
        gen = lindblad_generator(SIGMA_Z, np.zeros((4, 4)))
        t = 0.6
        lhs = linops.expm(t * gen)
        rhs = kraus_superop([linops.expm(1j * t * SIGMA_Z)])
        assert spectral_norm(lhs - rhs) < 1e-12

    def test_unital(self):
        rng = rng_from_seed(6)
        psi = kraus_superop(random_kraus_ops(rng, 2, 3))
        gen = lindblad_generator(SIGMA_X, psi)
        assert spectral_norm(superop_apply(gen, np.eye(2))) < 1e-12

    def test_dissipation_map_psd(self):
        rng = rng_from_seed(7)
        for trial in range(4):
            d = 2 + trial % 2
            psi = kraus_superop(random_kraus_ops(rng, d, d + 1))
            h = np.diag(rng.standard_normal(d)).astype(complex)
            gen = lindblad_generator(h, psi)
            for _ in range(25):
                a = random_matrix(rng, d)
                m = dissipation_map(gen, a, a)
                assert spectral_norm(m - linops.dagger(m)) <= 1e-9
                assert np.linalg.eigvalsh(linops.hermitian_part(m)).min() >= -1e-9

    def test_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError) as exc:
            lindblad_generator(np.array([[0, 1], [0, 0]]), np.zeros((4, 4)))
        assert exc.type is ValueError  # no input reaches it: not an InputError

    def test_jump_map_of_another_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch") as exc:
            lindblad_generator(SIGMA_Z, np.zeros((9, 9)))
        assert exc.type is ValueError  # no input reaches it: not an InputError


class TestSchwarzChecker:
    def test_lindblad_passes(self):
        rng = rng_from_seed(8)
        psi = kraus_superop(random_kraus_ops(rng, 2, 3))
        gen = lindblad_generator(SIGMA_Y, psi)
        samples = [random_matrix(rng, 2) for _ in range(20)]
        assert check_schwarz_generator(gen, samples).passed

    def test_dissipation_defect_reads_sign_and_hermiticity(self):
        # D_L(a, a) of -L is -D_L(a, a), negative semidefinite; of the map
        # X -> i X it is i a* a, not Hermitian
        rng = rng_from_seed(18)
        gen = lindblad_generator(SIGMA_Z, kraus_superop(random_kraus_ops(rng, 2, 2)))
        samples = [random_matrix(rng, 2) for _ in range(5)]
        for bad in (-gen, 1j * np.eye(4)):
            rep = check_schwarz_generator(bad, samples)
            assert not rep.passed and rep.details["dissipation_psd_defect"] > 1e-3

    def test_zero_passes(self):
        rng = rng_from_seed(9)
        samples = [random_matrix(rng, 2) for _ in range(5)]
        assert check_schwarz_generator(np.zeros((4, 4)), samples).passed

    def test_nested_lists_give_the_array_report(self):
        rng = rng_from_seed(11)
        gen = lindblad_generator(SIGMA_X, kraus_superop(random_kraus_ops(rng, 2, 2)))
        samples = [random_matrix(rng, 2) for _ in range(5)]
        want = check_schwarz_generator(gen, samples)
        got = check_schwarz_generator(gen.tolist(), samples)
        assert got.as_dict() == want.as_dict()

    def test_non_finite_generator_is_a_dimension_error(self):
        gen = np.zeros((4, 4), dtype=complex)
        gen[1, 2] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            check_schwarz_generator(gen, [np.eye(2)])

    def test_transposition_generator_checked_honestly(self):
        # generator built from the transposition map (positive but not a
        # completely positive jump part): the checker just evaluates the
        # conditions, whatever they turn out to be
        d = 2
        # transposition is the swap matrix under column stacking
        swap = sum(np.kron(e_ij, e_ij.T)
                   for e_ij in (np.eye(d)[:, [i]] @ np.eye(d)[[j], :]
                                for i in range(d) for j in range(d)))
        x = random_matrix(rng_from_seed(42), d)
        assert np.array_equal(superop_apply(swap, x), x.T)
        gen = swap - np.eye(d * d)
        rng = rng_from_seed(10)
        samples = [random_matrix(rng, 2) for _ in range(20)]
        rep = check_schwarz_generator(gen, samples)
        assert rep.details["unital_defect"] < 1e-12
        # report reflects the actual condition evaluation
        assert isinstance(rep.passed, bool)


def enumerate_walks(net, u, v):
    """All directed walks from u to v, as node sequences: the brute-force
    oracle for the path sums of small networks."""
    out = []

    def go(prefix):
        if prefix[-1] == v:
            out.append(tuple(prefix))
        for nxt in net.successors(prefix[-1]):
            go(prefix + [nxt])

    go([u])
    return out


def avoiding(net, u, v, w):
    """The library's sum over the walks from u to w that avoid v: the sweep
    of :func:`walk_sums` into w."""
    return walk_sums(net, [net.index[w]], avoid=net.index[v])[net.index[u], 0]


class TestNetworks:
    def diamond(self, scale):
        w = scale * np.eye(2, dtype=complex)
        edges = [("u", "v"), ("v", "w"), ("u", "z"), ("z", "w")]
        return DagNetwork(["u", "v", "z", "w"], edges,
                          {e: w for e in edges}, 2)

    def test_loop_value(self):
        fam = network_family(self.diamond(2.0))
        assert np.array_equal(fam(("u", "u")), np.eye(2))

    def test_diamond_path_sum(self):
        net = self.diamond(2.0)
        fam = network_family(net)
        assert np.allclose(fam(("u", "w")), 8 * np.eye(2))
        defect = avoiding(net, "u", "v", "w")
        assert np.allclose(defect, 4 * np.eye(2))

    def test_defect_equals_axiom_gap(self):
        net = self.diamond(0.7)
        fam = network_family(net)
        for u in net.nodes:
            for v in net.nodes:
                for w in net.nodes:
                    lhs = avoiding(net, u, v, w)
                    rhs = fam((u, w)) - fam((u, v)) @ fam((v, w))
                    assert np.array_equal(lhs, rhs)
                    assert np.array_equal(lhs, avoiding_walk_sum(net, u, v, w))

    def test_against_walk_enumeration_oracle(self):
        rng = rng_from_seed(11)
        nodes = list(range(5))
        edges = [(i, j) for i in nodes for j in nodes if i < j
                 and rng.random() < 0.6]
        weights = {e: random_matrix(rng, 2, 0.5) for e in edges}
        net = DagNetwork(nodes, edges, weights, 2)
        fam = network_family(net)
        for u in nodes:
            for v in nodes:
                total = np.eye(2, dtype=complex) * 0
                for walk in enumerate_walks(net, u, v):
                    prod = np.eye(2, dtype=complex)
                    for a, b in zip(walk, walk[1:]):
                        prod = prod @ net.weight(a, b)
                    total = total + prod
                assert spectral_norm(fam((u, v)) - total) < 1e-12

    def test_defect_against_avoiding_walk_oracle(self):
        rng = rng_from_seed(12)
        nodes = list(range(5))
        edges = [(i, j) for i in nodes for j in nodes if i < j
                 and rng.random() < 0.6]
        weights = {e: random_matrix(rng, 2, 0.5) for e in edges}
        net = DagNetwork(nodes, edges, weights, 2)
        for u in nodes:
            for v in nodes:
                for w in nodes:
                    total = np.zeros((2, 2), dtype=complex)
                    if u != v and w != v:
                        for walk in enumerate_walks(net, u, w):
                            if v in walk:
                                continue
                            prod = np.eye(2, dtype=complex)
                            for a, b in zip(walk, walk[1:]):
                                prod = prod @ net.weight(a, b)
                            total = total + prod
                    assert spectral_norm(avoiding(net, u, v, w)
                                         - total) < 1e-12

    def test_no_path(self):
        net = DagNetwork(["a", "b", "c"], [("a", "b")],
                         {("a", "b"): np.eye(2)}, 2)
        fam = network_family(net)
        assert np.array_equal(fam(("b", "c")), np.zeros((2, 2)))
        # avoiding-sum is empty, so the defect is minus the pair product
        defect = avoiding(net, "a", "b", "c")
        rhs = fam(("a", "c")) - fam(("a", "b")) @ fam(("b", "c"))
        assert np.array_equal(defect, rhs)

    def test_chain_deeper_than_recursion_limit(self):
        # unit-modulus weights keep the 2,999-factor product from underflowing
        n = 3000
        thetas = rng_from_seed(13).uniform(-np.pi, np.pi, size=(n - 1, 2))
        edges = [(i, i + 1) for i in range(n - 1)]
        weights = {e: np.diag(np.exp(1j * t)) for e, t in zip(edges, thetas)}
        net = DagNetwork(range(n), edges, weights, 2)
        product = np.diag(np.exp(1j * thetas.sum(axis=0)))
        assert spectral_norm(network_family(net)((0, n - 1)) - product) < 1e-10
        # node 0 is not on any walk from 1, so avoiding it removes nothing
        tail = np.diag(np.exp(1j * thetas[1:].sum(axis=0)))
        assert spectral_norm(avoiding(net, 1, 0, n - 1) - tail) < 1e-10

    def test_a_null_node_key_carries_its_walks(self):
        # compared by key with the default "avoid nothing", None was skipped
        edges = [("a", None), (None, "c")]
        net = DagNetwork(["a", None, "c"], edges, {e: 0.5 * np.eye(1) for e in edges}, 1)
        fam = network_family(net)
        assert fam(("a", None)) == 0.5 and fam(("a", "c")) == 0.25
        assert avoiding(net, "a", None, "c") == 0
        assert check_network_defect(net, fam, 1e-12).passed

    def test_cycle_rejected(self):
        with pytest.raises(InputError, match="^the weighted graph has a directed cycle$"):
            DagNetwork(["a", "b"], [("a", "b"), ("b", "a")],
                       {("a", "b"): np.eye(2), ("b", "a"): np.eye(2)}, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="directed cycle"):
            DagNetwork(["a", "b"], [("a", "b"), ("b", "b")],
                       {("a", "b"): np.eye(2), ("b", "b"): np.eye(2)}, 2)


class TestSystemSpecs:
    def test_exponential_rate_spec(self):
        spec = {
            "graph": {"order": [1.0, 0.5, 0.0]},
            "dim": 2,
            "family": {"kind": "exponential",
                       "rate": linops.matrix_to_literal(1j * SIGMA_Z)},
        }
        system = dynamics.build_system(spec)
        assert check_identity_axiom(system["family"]).passed

    def test_indivisible_spec(self):
        spec = {
            "graph": {"order": list(np.linspace(1.0, 0.0, 9))},
            "dim": 4,
            "family": {"kind": "indivisible-example",
                       "h1": linops.matrix_to_literal(SIGMA_X),
                       "h2": linops.matrix_to_literal(SIGMA_Z),
                       "t_max": 1.0, "grid_points": 9},
        }
        system = dynamics.build_system(spec)
        assert divisibility_defect(system["family"], 1.0, 0.5, 0.0) > 1e-3

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            dynamics.build_system({"graph": {}, "dim": 2,
                                   "family": {"kind": "nope"}})
