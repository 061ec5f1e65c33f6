import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import rewrite
from graphdyn.errors import ContextError
from graphdyn.rewrite import (EdgeContext, check_confluence_bruteforce,
                              check_rule_axioms, complete_context, embed_edge,
                              ginv, gmul, identity, is_irreducible, normalize,
                              reduce_once_all, reduction_closure, word)
from graphdyn.sampling import rng_from_seed


@pytest.fixture
def abc():
    return complete_context(["a", "b", "c"])


@pytest.fixture
def line4():
    return complete_context([0, 1, 2, 3])


class RestrictedAlphabet:
    """An alphabet without the letters that rejoin overlapping fusions."""

    def __init__(self, pairs=(("a", "b"), ("b", "c"), ("c", "d"),
                              ("a", "c"), ("b", "d"))):
        self.pairs = list(pairs)

    def closure_pairs(self):
        return self.pairs


def bfs_normal_forms(ctx, w):
    """Oracle: endpoints of the exhaustive breadth-first reduction closure."""
    _, endpoints = reduction_closure(ctx, w)
    return endpoints


class TestReduceOnce:
    def test_loop_deletes(self, abc):
        out = reduce_once_all(abc, word([("a", "a")]))
        assert out == {()}

    def test_pair_fuses(self, abc):
        out = reduce_once_all(abc, word([("a", "b"), ("b", "c")]))
        assert out == {word([("a", "c")])}

    def test_all_positions(self, abc):
        w = word([("a", "a"), ("a", "b"), ("b", "c")])
        # oracle: enumerate every rule at every position by hand
        expected = {
            word([("a", "b"), ("b", "c")]),   # delete the loop / fuse (a,a)(a,b)
            word([("a", "a"), ("a", "c")]),   # fuse (a,b)(b,c)
        }
        assert reduce_once_all(abc, w) == expected

    def test_every_step_shortens_by_one(self, abc):
        rng = rng_from_seed(0)
        pairs = abc.closure_pairs()
        for _ in range(200):
            n = int(rng.integers(1, 6))
            w = word(pairs[i] for i in rng.integers(0, len(pairs), size=n))
            for r in reduce_once_all(abc, w):
                assert len(r) == len(w) - 1

    def test_invalid_letter(self, abc):
        with pytest.raises(ContextError):
            reduce_once_all(abc, word([("a", "z")]))


class TestNormalize:
    def test_loop_to_identity(self, abc):
        assert normalize(abc, word([("a", "a")])).is_identity()

    def test_single_letter_fixed(self, abc):
        g = normalize(abc, word([("a", "b")]))
        assert g.letters == word([("a", "b")])

    def test_collapsing_word(self, abc):
        w = word([("a", "b"), ("b", "b"), ("b", "c"), ("c", "a")])
        assert normalize(abc, w).is_identity()
        assert bfs_normal_forms(abc, w) == {()}

    def test_agrees_with_bfs_oracle(self, abc):
        rng = rng_from_seed(1)
        pairs = abc.closure_pairs()
        for _ in range(150):
            n = int(rng.integers(0, 6))
            w = word(pairs[i] for i in rng.integers(0, len(pairs), size=n))
            assert bfs_normal_forms(abc, w) == {normalize(abc, w).letters}

    def test_idempotent(self, abc):
        rng = rng_from_seed(2)
        for _ in range(100):
            g = rewrite.random_element(abc, rng)
            assert normalize(abc, g.letters) == g

    def test_congruence(self, abc):
        rng = rng_from_seed(3)
        pairs = abc.closure_pairs()
        for _ in range(100):
            n1, n2 = rng.integers(0, 5, size=2)
            w1 = word(pairs[i] for i in rng.integers(0, len(pairs), size=n1))
            w2 = word(pairs[i] for i in rng.integers(0, len(pairs), size=n2))
            lhs = normalize(abc, w1 + w2)
            rhs = gmul(normalize(abc, w1), normalize(abc, w2))
            assert lhs == rhs


class TestIrreducible:
    def test_empty(self):
        assert is_irreducible(())

    def test_group_element_validates_normal_form(self):
        with pytest.raises(ValueError):
            rewrite.GroupElement(word([("a", "a")]))
        with pytest.raises(ValueError):
            rewrite.GroupElement(word([("a", "b"), ("b", "c")]))

    def test_coalescent_pair(self):
        assert not is_irreducible(word([("a", "b"), ("b", "c")]))

    def test_non_coalescent(self, abc):
        w = word([("a", "b"), ("c", "a")])
        assert is_irreducible(w)
        assert reduce_once_all(abc, w) == set()

    def test_loop(self):
        assert not is_irreducible(word([("a", "a")]))


class TestGroupOps:
    def test_unit_law(self, abc):
        rng = rng_from_seed(4)
        for _ in range(50):
            g = rewrite.random_element(abc, rng)
            assert gmul(g, identity()) == g
            assert gmul(identity(), g) == g

    def test_inverse_single_letter(self, abc):
        g = embed_edge(abc, ("a", "b"))
        h = embed_edge(abc, ("b", "a"))
        assert gmul(g, h).is_identity()
        assert bfs_normal_forms(abc, g.letters + h.letters) == {()}

    def test_composition_of_edges(self, abc):
        g = embed_edge(abc, ("a", "b"))
        h = embed_edge(abc, ("b", "c"))
        assert gmul(g, h) == embed_edge(abc, ("a", "c"))

    def test_group_axioms_random(self, abc):
        rng = rng_from_seed(5)
        for _ in range(300):
            g, h, k = (rewrite.random_element(abc, rng) for _ in range(3))
            assert gmul(gmul(g, h), k) == gmul(g, gmul(h, k))
            assert gmul(g, ginv(g)).is_identity()
            assert gmul(ginv(g), g).is_identity()

    def test_antihomomorphism(self, abc):
        rng = rng_from_seed(6)
        for _ in range(100):
            g, h = (rewrite.random_element(abc, rng) for _ in range(2))
            assert ginv(gmul(g, h)) == gmul(ginv(h), ginv(g))


class TestEmbedEdge:
    def test_loop_maps_to_identity(self, abc):
        assert embed_edge(abc, ("a", "a")).is_identity()

    def test_single_letter(self, abc):
        assert embed_edge(abc, ("a", "b")).letters == word([("a", "b")])

    def test_injective_off_diagonal(self, abc):
        pairs = [(u, v) for (u, v) in abc.closure_pairs() if u != v]
        images = {embed_edge(abc, e) for e in pairs}
        assert len(images) == len(pairs)

    def test_unrelated_pair_rejected(self):
        ctx = EdgeContext(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert ctx.related("a", "b") and ctx.related("c", "d")
        assert not ctx.related("a", "c")
        with pytest.raises(ContextError):
            embed_edge(ctx, ("a", "c"))

    def test_linear_order_composition(self, line4):
        for u in range(4):
            for v in range(u, 4):
                for w in range(v, 4):
                    lhs = gmul(embed_edge(line4, (u, v)), embed_edge(line4, (v, w)))
                    assert lhs == embed_edge(line4, (u, w))


class TestRuleAxioms:
    def test_three_node_linear_order(self):
        rep = check_rule_axioms(complete_context([0, 1, 2]))
        assert rep.passed and rep.count > 0

    def test_single_node(self):
        rep = check_rule_axioms(complete_context(["x"]))
        assert rep.passed

    def test_random_five_node_graph(self):
        rng = rng_from_seed(7)
        nodes = list(range(5))
        edges = [(int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                 for _ in range(6)]
        rep = check_rule_axioms(EdgeContext(nodes, edges))
        assert rep.passed

    def test_three_clique_counts(self, abc):
        rep = check_rule_axioms(abc)
        assert rep.passed and rep.count == 99
        assert rep.details == {"identity_instances": 18,
                               "associativity_instances": 81}

    def test_detects_broken_confluence(self):
        # (a,b)(b,c)(c,d) ends in (a,c)(c,d) and in (a,b)(b,d)
        rep = check_rule_axioms(RestrictedAlphabet())
        assert not rep.passed
        assert rep.max_defect == 1.0
        assert ("associativity", ("a", "b", "c", "d")) in rep.offenders

    def test_agrees_with_bruteforce_on_every_3_node_alphabet(self, abc):
        # overlaps have at most three letters, so confluence up to length 3
        # decides the same question; 31 of the 512 sub-alphabets fail
        pairs = abc.closure_pairs()
        failed = 0
        for mask in range(1 << len(pairs)):
            alphabet = RestrictedAlphabet(
                p for i, p in enumerate(pairs) if mask >> i & 1)
            passed = check_rule_axioms(alphabet).passed
            assert passed == check_confluence_bruteforce(alphabet, 3).passed
            failed += not passed
        assert failed == 31

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.sampled_from(complete_context([0, 1, 2, 3]).closure_pairs())))
    def test_agrees_with_bruteforce_on_4_node_alphabets(self, pairs):
        alphabet = RestrictedAlphabet(sorted(pairs))
        assert check_rule_axioms(alphabet).passed == \
            check_confluence_bruteforce(alphabet, 3).passed


class TestConfluence:
    def test_three_node_clique_small(self, abc):
        rep = check_confluence_bruteforce(abc, 4)
        assert rep.passed
        assert rep.count == sum(9**n for n in range(1, 5))

    def test_empty_word_trivial(self, abc):
        rep = check_confluence_bruteforce(abc, 0)
        assert rep.passed

    def test_four_node_linear_order(self, line4):
        rep = check_confluence_bruteforce(line4, 4)
        assert rep.passed

    def test_matches_bfs_oracle(self, line4):
        rng = rng_from_seed(8)
        pairs = line4.closure_pairs()
        for _ in range(100):
            n = int(rng.integers(0, 7))
            w = word(pairs[i] for i in rng.integers(0, len(pairs), size=n))
            assert bfs_normal_forms(line4, w) == {normalize(line4, w).letters}

    def test_disconnected_graph(self):
        ctx = EdgeContext(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        rep = check_confluence_bruteforce(ctx, 4)
        assert rep.passed
        assert rep.details["alphabet"] == 8  # two 2-node components

    def test_detects_broken_confluence(self):
        # Restricting the alphabet drops the rules that would rejoin
        # overlapping fusions: (a,b)(b,c)(c,d) reduces to the two distinct
        # irreducible words (a,c)(c,d) and (a,b)(b,d).  The certifier must
        # report this, proving it can actually fail.
        rep = check_confluence_bruteforce(RestrictedAlphabet(), 3)
        assert not rep.passed
        assert rep.max_defect > 0

    def test_exhaustive_bfs_agreement_small(self, line4):
        # every word of length <= 3 over the full 16-letter alphabet,
        # certified independently by the breadth-first closure oracle
        import itertools
        pairs = line4.closure_pairs()
        for n in range(4):
            for combo in itertools.product(pairs, repeat=n):
                w = word(combo)
                assert bfs_normal_forms(line4, w) \
                    == {normalize(line4, w).letters}


class TestWireFormats:
    def test_word_round_trip(self):
        lit = [["a", "b"], ["b", "c"]]
        w = rewrite.word_from_literal(lit)
        assert rewrite.word_to_literal(w) == lit

    def test_context_from_spec(self):
        ctx = rewrite.context_from_spec(
            {"nodes": ["a", "b"], "edges": [["a", "b"]]})
        assert ctx.related("a", "b")

    def test_malformed_spec(self):
        from graphdyn.errors import InputError
        with pytest.raises(InputError):
            rewrite.context_from_spec({"edges": []})
