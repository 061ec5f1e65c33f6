from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import dynamics, linops, rewrite
from graphdyn.dynamics import (GeneratorFamily, LinearOrderGraph,
                               OperatorFamily, descending_grid,
                               example_indivisible, proportional_length)
from graphdyn.errors import PreconditionError, StructureError
from graphdyn.extend import (FirstCoverExtension, NormalFormExtension,
                             SecondCoverExtension, continuity_modulus_check,
                             cover_of_word, positive_intervals)
from graphdyn.linops import SIGMA_X, SIGMA_Z, commutator_superop, spectral_norm
from graphdyn.rewrite import embed_edge, gmul, identity, word
from graphdyn.sampling import random_dissipative, rng_from_seed
from oracles import dense_cover_segments, edgewise


@pytest.fixture
def line():
    # ascending six-point order with plain integer keys
    return LinearOrderGraph([0, 1, 2, 3, 4, 5])


def pointwise_cover_oracle(graph, letters):
    """Sum of indicator differences, evaluated node by node."""
    out = []
    for x in graph.nodes:
        val = 0
        for (t, h) in letters:
            # indicator of [h) minus indicator of [t)
            val += (1 if graph.index(x) < graph.index(h) else 0) \
                - (1 if graph.index(x) < graph.index(t) else 0)
        out.append(val)
    return out


def cover_values(cov):
    return [cov.value_at(i) for i in range(len(cov.graph.nodes))]


class TestCoverOfWord:
    def test_loop_is_zero(self, line):
        cov = cover_of_word(line, word([(2, 2)]))
        assert cov.segments == ()

    def test_single_edge(self, line):
        cov = cover_of_word(line, word([(1, 4)]))
        assert cov.segments == ((1, 4, 1),)

    def test_overlapping_letters(self, line):
        # letters (t1, t3) and (t2, t4) with t1 < t2 < t3 < t4
        w = word([(0, 3), (2, 5)])
        cov = cover_of_word(line, w)
        assert cov.segments == ((0, 2, 1), (2, 3, 2), (3, 5, 1))
        assert cover_values(cov) == pointwise_cover_oracle(line, w)

    def test_matches_pointwise_oracle(self, line):
        rng = rng_from_seed(0)
        nodes = line.nodes
        for _ in range(200):
            n = int(rng.integers(0, 6))
            w = word((nodes[rng.integers(0, 6)], nodes[rng.integers(0, 6)])
                     for _ in range(n))
            cov = cover_of_word(line, w)
            assert cover_values(cov) == pointwise_cover_oracle(line, w)

    def test_reduction_invariance(self, line):
        rng = rng_from_seed(1)
        ctx = line.context()
        nodes = line.nodes
        for _ in range(100):
            n = int(rng.integers(1, 6))
            w = word((nodes[rng.integers(0, 6)], nodes[rng.integers(0, 6)])
                     for _ in range(n))
            cov = cover_of_word(line, w)
            for reduct in rewrite.reduce_once_all(ctx, w):
                assert cover_of_word(line, reduct) == cov

    def test_additivity_and_cyclicity(self, line):
        rng = rng_from_seed(2)
        nodes = line.nodes
        for _ in range(100):
            w1 = word((nodes[rng.integers(0, 6)], nodes[rng.integers(0, 6)])
                      for _ in range(int(rng.integers(0, 4))))
            w2 = word((nodes[rng.integers(0, 6)], nodes[rng.integers(0, 6)])
                      for _ in range(int(rng.integers(0, 4))))
            lhs = cover_of_word(line, w1 + w2)
            c1, c2 = cover_of_word(line, w1), cover_of_word(line, w2)
            assert [lhs.value_at(i) for i in range(len(nodes))] == \
                [c1.value_at(i) + c2.value_at(i) for i in range(len(nodes))]
            assert lhs == cover_of_word(line, w2 + w1)

    def test_needs_linear_order(self):
        ctx = rewrite.complete_context(["a", "b"])
        with pytest.raises(StructureError):
            cover_of_word(ctx, word([("a", "b")]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), points=st.sampled_from([9, 65]))
    def test_segments_are_the_dense_pass(self, data, points):
        # the sparse endpoint sweep against a pass over every node
        graph = descending_grid(1.0, points)
        index = st.integers(0, points - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=40))
        w = word((graph.nodes[i], graph.nodes[j]) for i, j in pairs)
        assert cover_of_word(graph, w).segments == dense_cover_segments(graph, w)


class TestRefine:
    """positive_intervals: the positive part of a cover, cut at the segment
    ends and at the extra nodes."""

    def assert_refines(self, line, w, extra):
        cov = cover_of_word(line, w)
        values = pointwise_cover_oracle(line, w)
        breakpoints = {line.index(u) for u in extra}
        breakpoints.update(i for i, v in enumerate(values)
                           if v != (values[i - 1] if i else 0))
        covered = []
        for (left, right) in positive_intervals(cov, extra):
            lo, hi = line.index(left), line.index(right)
            assert lo < hi and {lo, hi} <= breakpoints
            assert not breakpoints & set(range(lo + 1, hi))
            # inside one constant segment of the cover
            assert values[lo] > 0 and set(values[lo:hi]) == {values[lo]}
            covered.extend(range(lo, hi))
        # the union is the positive support, each node once
        assert covered == [i for i, v in enumerate(values) if v > 0]

    def test_zero_cover_with_extras(self, line):
        cov = cover_of_word(line, ())
        assert positive_intervals(cov, [1, 4]) == []
        self.assert_refines(line, (), [1, 4])

    def test_interior_point_splits(self, line):
        cov = cover_of_word(line, word([(1, 4)]))
        assert positive_intervals(cov) == [(1, 4)]
        assert positive_intervals(cov, [2]) == [(1, 2), (2, 4)]
        self.assert_refines(line, word([(1, 4)]), [2])

    def test_overlap_scenario(self, line):
        w = word([(0, 3), (2, 5)])
        cov = cover_of_word(line, w)
        assert positive_intervals(cov, [1, 4]) == [(0, 1), (1, 2), (2, 3),
                                                   (3, 4), (4, 5)]
        self.assert_refines(line, w, [1, 4])

    def test_random_refinements_reproduce(self, line):
        rng = rng_from_seed(3)
        nodes = line.nodes
        for _ in range(100):
            n = int(rng.integers(0, 5))
            w = word((nodes[rng.integers(0, 6)], nodes[rng.integers(0, 6)])
                     for _ in range(n))
            extra = [nodes[i] for i in rng.integers(0, 6, size=3)]
            self.assert_refines(line, w, extra)


def divisible_family(seed=4, dim=3, points=9):
    rng = rng_from_seed(seed)
    rate = random_dissipative(rng, dim)
    gens = dynamics.commuting_evolution(rate, 1.0, points)
    return gens, gens.exponential(1.0)


class TestNormalFormExtension:
    def test_identity_element(self, line):
        fam = edgewise(OperatorFamily, line, 2, lambda e: np.eye(2))
        assert np.array_equal(NormalFormExtension(fam)(identity()), np.eye(2))

    def test_single_edge(self):
        gens, fam = divisible_family()
        ctx = fam.graph.context()
        e = (1.0, 0.5)
        assert np.array_equal(
            NormalFormExtension(fam)(embed_edge(ctx, e)), fam(e))

    def test_reversed_edge_contributes_identity(self):
        gens, fam = divisible_family()
        ctx = fam.graph.context()
        g = gmul(embed_edge(ctx, (1.0, 0.5)), embed_edge(ctx, (0.0, 0.25)))
        # (0.0, 0.25) is a reversed pair on the descending grid: no edge
        assert not fam.graph.has_edge(0.0, 0.25)
        want = fam((1.0, 0.5)) @ np.eye(fam.dim)
        assert np.array_equal(NormalFormExtension(fam)(g), want)

    def test_letterwise_product_oracle(self):
        gens, fam = divisible_family()
        graph = fam.graph
        ctx = graph.context()
        rng = rng_from_seed(5)
        ext = NormalFormExtension(fam)
        for _ in range(20):
            g = rewrite.random_element(ctx, rng, 4)
            want = np.eye(fam.dim, dtype=complex)
            for (t, h) in g.letters:
                want = want @ (fam((t, h)) if graph.has_edge(t, h)
                               else np.eye(fam.dim))
            assert np.array_equal(ext(g), want)

    def test_identity_axiom_enforced(self, line):
        fam = edgewise(OperatorFamily, line, 2, lambda e: 2 * np.eye(2))
        with pytest.raises(PreconditionError) as exc:
            NormalFormExtension(fam)
        assert exc.value.axiom == "identity"


class TestFirstCoverExtension:
    def test_single_edge(self):
        gens, fam = divisible_family()
        ctx = fam.graph.context()
        e = (0.75, 0.25)
        assert spectral_norm(FirstCoverExtension(fam)(embed_edge(ctx, e), verify=True)
                             - fam(e)) < 1e-12

    def test_identity_element(self):
        gens, fam = divisible_family()
        assert np.array_equal(FirstCoverExtension(fam)(identity(), verify=True),
                              np.eye(fam.dim))

    def test_overlap_collapses_by_divisibility(self):
        gens, fam = divisible_family()
        ctx = fam.graph.context()
        # (t1, t3)(t2, t4) on the descending grid with t1 > t2 > t3 > t4
        g = gmul(embed_edge(ctx, (1.0, 0.5)), embed_edge(ctx, (0.75, 0.25)))
        out = FirstCoverExtension(fam)(g, verify=True)
        assert spectral_norm(out - fam((1.0, 0.25))) < 1e-12
        # oracle: the raw three-interval product
        direct = fam((1.0, 0.75)) @ fam((0.75, 0.5)) @ fam((0.5, 0.25))
        assert spectral_norm(out - direct) < 1e-12

    def test_refinement_independence(self):
        gens, fam = divisible_family()
        graph = fam.graph
        ctx = graph.context()
        rng = rng_from_seed(6)
        ext = FirstCoverExtension(fam)
        for _ in range(30):
            g = rewrite.random_element(ctx, rng, 4)
            base = ext(g)
            extra = [graph.nodes[i]
                     for i in rng.integers(0, len(graph.nodes), size=3)]
            other = ext(g, extra=extra)
            assert spectral_norm(base - other) < 1e-12

    def test_cyclic_invariance(self):
        gens, fam = divisible_family()
        ctx = fam.graph.context()
        rng = rng_from_seed(7)
        ext = FirstCoverExtension(fam)
        for _ in range(30):
            g = rewrite.random_element(ctx, rng, 3)
            h = rewrite.random_element(ctx, rng, 3)
            lhs = ext(gmul(g, h))
            rhs = ext(gmul(h, g))
            assert spectral_norm(lhs - rhs) < 1e-12

    def test_indivisible_input_rejected(self):
        gens = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)
        fam = gens.exponential(1.0)
        with pytest.raises(PreconditionError) as exc:
            FirstCoverExtension(fam)
        assert exc.value.axiom == "divisibility"

    def test_agrees_with_normal_form_on_letters(self):
        gens, fam = divisible_family()
        ctx = fam.graph.context()
        cover, normal = FirstCoverExtension(fam), NormalFormExtension(fam)
        for e in [(1.0, 0.5), (0.75, 0.75), (0.375, 0.125)]:
            g = embed_edge(ctx, e)
            assert spectral_norm(cover(g, verify=True) - normal(g)) < 1e-12

    def test_noncommuting_divisible_family(self, noncommuting_divisible):
        # exposes any ordering mistake in the interval product: the family
        # values do not commute, so only the ascending-interval order
        # collapses refinements correctly
        fam, ell = noncommuting_divisible
        graph = fam.graph
        ctx = graph.context()
        assert dynamics.check_divisibility(fam, tol=1e-12).passed
        assert dynamics.check_geometric_growth(fam, ell).passed
        nodes = graph.nodes
        ext = FirstCoverExtension(fam)
        g = embed_edge(ctx, (nodes[0], nodes[4]))
        out = ext(g, extra=[nodes[1], nodes[3]], verify=True)
        assert spectral_norm(out - fam((nodes[0], nodes[4]))) < 1e-12
        rng = rng_from_seed(101)
        for _ in range(40):
            x = rewrite.random_element(ctx, rng, 4)
            extra = [nodes[i] for i in rng.integers(0, len(nodes), size=3)]
            assert spectral_norm(ext(x) - ext(x, extra=extra)) < 1e-12
            h = rewrite.random_element(ctx, rng, 3)
            assert spectral_norm(ext(gmul(x, h)) - ext(gmul(h, x))) < 1e-12


class TestSecondCoverExtension:
    @pytest.fixture
    def interp(self):
        return example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)

    @pytest.fixture
    def ext(self, interp):
        return SecondCoverExtension(interp)

    def test_single_edge(self, interp, ext):
        ctx = interp.graph.context()
        e = (0.875, 0.375)
        g = embed_edge(ctx, e)
        a, phi = ext.generator_of(g), ext(g)
        assert np.array_equal(a, interp(e))
        assert spectral_norm(phi - linops.expm(interp(e))) < 1e-13

    def test_identity_element(self, interp, ext):
        a, phi = ext.generator_of(identity()), ext(identity())
        assert np.array_equal(a, np.zeros_like(a))
        assert np.array_equal(phi, np.eye(interp.dim))

    def test_overlap_sums_by_additivity(self, interp, ext):
        ctx = interp.graph.context()
        g = gmul(embed_edge(ctx, (1.0, 0.5)), embed_edge(ctx, (0.75, 0.25)))
        a = ext.generator_of(g)
        assert spectral_norm(a - interp((1.0, 0.25))) < 1e-12

    def test_contraction_invariant(self, interp, ext):
        ctx = interp.graph.context()
        rng = rng_from_seed(8)
        for _ in range(30):
            g = rewrite.random_element(ctx, rng, 4)
            assert spectral_norm(ext(g)) <= 1 + 1e-10

    def test_refinement_independence(self, interp, ext):
        ctx = interp.graph.context()
        rng = rng_from_seed(9)
        for _ in range(30):
            g = rewrite.random_element(ctx, rng, 4)
            extra = [interp.graph.nodes[i]
                     for i in rng.integers(0, 9, size=3)]
            assert spectral_norm(ext.generator_of(g)
                                 - ext.generator_of(g, extra)) < 1e-12

    def test_cyclic_invariance(self, interp, ext):
        ctx = interp.graph.context()
        rng = rng_from_seed(10)
        for _ in range(20):
            g = rewrite.random_element(ctx, rng, 3)
            h = rewrite.random_element(ctx, rng, 3)
            lhs = ext(gmul(g, h))
            rhs = ext(gmul(h, g))
            assert spectral_norm(lhs - rhs) < 1e-12

    def test_agrees_with_normal_form_on_letters(self, interp, ext):
        normal = NormalFormExtension(interp.exponential(1.0))
        ctx = interp.graph.context()
        for e in [(1.0, 0.875), (0.5, 0.5)]:
            g = embed_edge(ctx, e)
            assert spectral_norm(ext(g) - normal(g)) < 1e-12

    def test_edge_elements_read_the_exponential_familys_memo(self, interp, ext):
        # at an edge element the generator sum is the edge's generator, which
        # the exponential family has already sent to scipy
        edges = [(u, v) for u, v in interp.graph.edges() if u != v]
        want = interp.exponential().stack(edges)
        ctx = interp.graph.context()
        elements = [embed_edge(ctx, e) for e in edges]
        with mock.patch.object(scipy.linalg, "expm", side_effect=AssertionError) as sent:
            got = ext.stack(elements)
        assert sent.call_count == 0
        assert got.tobytes() == want.tobytes()

    def test_non_additive_rejected(self):
        x = np.array([[0, 1], [0, 0]], dtype=complex)
        gens = edgewise(GeneratorFamily, descending_grid(1.0, 5), 2,
                        lambda e: (e[0] - e[1]) ** 2 * x)
        with pytest.raises(PreconditionError) as exc:
            SecondCoverExtension(gens)
        assert exc.value.axiom == "additivity"


class TestContinuityModulus:
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_nan_bound_fails(self, which):
        gens, fam = divisible_family()
        ext = FirstCoverExtension(fam) if which == "first" else SecondCoverExtension(gens)
        ell = proportional_length(float("nan"))
        e = (1.0, 0.5)
        rep = continuity_modulus_check(ext, ell, e, (0.875, 0.625),
                                       [(identity(), identity())], [np.ones(fam.dim)])
        assert not rep.passed
        assert np.isnan(rep.max_defect) and np.isnan(rep.details["signed_excess"])
        assert rep.argmax == ((), ()) and len(rep.offenders) == 1

    def test_nan_after_finite_excess_fails(self):
        # a NaN probe vector after a finite one: NaN must win the reduction,
        # wherever it comes in the probe order
        gens, fam = divisible_family()
        ext = FirstCoverExtension(fam)
        with np.errstate(invalid="ignore"):  # normalizing the NaN vector
            rep = continuity_modulus_check(
                ext, proportional_length(4.0), (1.0, 0.5), (0.875, 0.625),
                [(identity(), identity())], [np.ones(fam.dim), np.full(fam.dim, np.nan)])
        assert not rep.passed and rep.count == 2
        assert np.isnan(rep.max_defect) and np.isnan(rep.details["signed_excess"])

    def test_equal_edges_zero(self):
        gens, fam = divisible_family()
        ext = FirstCoverExtension(fam)
        ell = proportional_length(4.0)
        e = (1.0, 0.5)
        rep = continuity_modulus_check(ext, ell, e, e, [(identity(), identity())],
                                       [np.ones(fam.dim)])
        assert rep.passed and rep.details["bound"] == 0.0

    def test_first_extension_bound(self):
        rng = rng_from_seed(11)
        gens, fam = divisible_family(seed=12)
        rate_norm = spectral_norm(gens((1.0, 0.0)))
        ell = proportional_length(rate_norm * 1.01)
        ext = FirstCoverExtension(fam)
        ctx = fam.graph.context()
        pairs = [(rewrite.random_element(ctx, rng, 3),
                  rewrite.random_element(ctx, rng, 3)) for _ in range(10)]
        xis = [rng.standard_normal(fam.dim) + 1j * rng.standard_normal(fam.dim)
               for _ in range(4)]
        rep = continuity_modulus_check(ext, ell, (0.75, 0.5), (0.875, 0.375),
                                       pairs, xis)
        assert rep.passed

    def test_second_extension_bound(self):
        rng = rng_from_seed(13)
        interp = example_indivisible(SIGMA_X, SIGMA_Z, 1.0, 9)
        c0 = max(spectral_norm(1j * commutator_superop(h))
                 for h in (SIGMA_X, SIGMA_Z))
        ell = proportional_length(c0)
        ext = SecondCoverExtension(interp)
        ctx = interp.graph.context()
        pairs = [(rewrite.random_element(ctx, rng, 3),
                  rewrite.random_element(ctx, rng, 3)) for _ in range(10)]
        xis = [rng.standard_normal(interp.dim) + 1j * rng.standard_normal(interp.dim)
               for _ in range(4)]
        rep = continuity_modulus_check(ext, ell, (0.625, 0.375), (0.75, 0.25),
                                       pairs, xis)
        assert rep.passed
