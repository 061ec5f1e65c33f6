from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import rewrite
from graphdyn.errors import ContextError
from graphdyn.rewrite import (EdgeContext, Letter, check_confluence_bruteforce,
                              check_rule_axioms, complete_context, embed_edge,
                              ginv, gmul, identity, is_irreducible, normalize,
                              reduce_once_all, word)
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
    """Oracle: the irreducible ends of every maximal reduction of ``w``."""
    ctx.check_word(w)
    return rewrite._irreducible_ends(w, None)


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

    def test_built_without_the_irreducibility_rescan(self, abc):
        # a one-letter word that is not a loop is irreducible by construction
        with mock.patch.object(rewrite, "is_irreducible", side_effect=AssertionError):
            g, e = embed_edge(abc, ("a", "b")), embed_edge(abc, ("a", "a"))
        assert g == rewrite.GroupElement(word([("a", "b")])) and e == identity()

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

    def test_nan_node_key(self):
        # NaN is unequal to itself; the closure is built by identity
        nan = float("nan")
        ctx = rewrite.context_from_spec({"nodes": ["a", nan, "b"], "edges": [["a", nan]]})
        assert ctx.related("a", nan) and ctx.related(nan, nan)
        assert not ctx.related(nan, "b")
        assert len(ctx.closure_pairs()) == 5


# -- linear-time paths against their plain oracles ----------------------------------

def replay(w, steps):
    """Oracle: apply each step to ``w`` as one rule application, asserting
    that the rule applies there; returns the last word."""
    cur = list(w)
    for step in steps:
        assert set(step) == {"at", "rule"}
        i, rule = step["at"], step["rule"]
        assert type(i) is int and 0 <= i < len(cur)
        if rule == "loop":
            assert cur[i].tail == cur[i].head
            del cur[i]
        else:
            assert rule == "fuse"
            assert i + 1 < len(cur) and cur[i].head == cur[i + 1].tail
            cur[i:i + 2] = [Letter(cur[i].tail, cur[i + 1].head)]
    return tuple(cur)


def loop(i):
    return {"at": i, "rule": "loop"}


def fuse(i):
    return {"at": i, "rule": "fuse"}


class Key:
    """A node key that prints as its name, so reprs can be made to nest."""

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Key) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


# keys of every JSON scalar type plus tuples; 1/10/100, 2.5/2.55 and
# 'a'/'ab' have reprs that are prefixes of one another, and 1/1.0/True
# compare equal while printing differently
NODE_KEYS = st.one_of(
    st.sampled_from([0, 1, 10, 100, -1]),
    st.sampled_from([1.0, 2.5, 2.55, -0.0, 0.0]),
    st.sampled_from(["a", "ab", "b", "", "a b"]),
    st.sampled_from([(1,), (1, 2), ("a",), (10,)]),
    st.sampled_from([True, None]),
)


@st.composite
def keyed_words(draw, keys=NODE_KEYS, max_len=9):
    pool = draw(st.lists(keys, min_size=1, max_size=4))
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return complete_context(pool), word(draw(st.lists(pairs, max_size=max_len)))


class TestReductionTrace:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(keyed_words())
    def test_steps_replay_to_the_normal_form(self, case):
        ctx, w = case
        steps = rewrite.reduction_trace(ctx, w)
        nf = normalize(ctx, w).letters
        end = replay(w, steps)
        assert end == nf and repr(end) == repr(nf)
        assert len(steps) == len(w) - len(nf)

    def test_ends_at_the_normal_form(self, line4):
        rng = rng_from_seed(4)
        pairs = line4.closure_pairs()
        for _ in range(100):
            w = word(pairs[i] for i in rng.integers(0, len(pairs), size=20))
            steps = rewrite.reduction_trace(line4, w)
            nf = normalize(line4, w).letters
            assert replay(w, steps) == nf
            assert len(steps) == len(w) - len(nf)

    def test_irreducible_word_has_empty_trace(self, abc):
        assert rewrite.reduction_trace(abc, word([("a", "b"), ("c", "a")])) == []

    def test_one_letter_reducts(self, abc):
        assert rewrite.reduction_trace(abc, word([("b", "b"), ("a", "c")])) == [loop(0)]
        # the fused letter is a loop, which the next step deletes
        w = word([("a", "b"), ("b", "a")])
        assert rewrite.reduction_trace(abc, w) == [fuse(0), loop(0)]
        assert replay(w, [fuse(0)]) == word([("a", "a")])

    def test_loop_deletion_equals_adjacent_fusion(self, abc):
        # deleting (b,b) and fusing it with a neighbour give one word; the
        # pass deletes it when it is read
        w = word([("a", "b"), ("b", "b"), ("b", "c"), ("a", "b")])
        assert rewrite.reduction_trace(abc, w) == [loop(1), fuse(0)]

    def test_equal_keys_that_print_differently(self):
        # 1 == 1.0 == True: a letter of equal keys is a loop, and letters
        # whose keys meet fuse, whatever the keys' texts
        ctx = complete_context([0, 1, 2])
        for pairs, steps in (([(0, 1), (1.0, 1.0)], [loop(1)]),
                             ([(1.0, 1.0), (1, 2)], [loop(0)]),
                             ([(0, 1.0), (1, 1), (1.0, 2)], [loop(1), fuse(0)]),
                             ([(0, True), (1, 2), (2.0, 0.0)], [fuse(0), fuse(0), loop(0)])):
            w = word(pairs)
            assert rewrite.reduction_trace(ctx, w) == steps
            assert repr(replay(w, steps)) == repr(normalize(ctx, w).letters)

    def test_steps_do_not_depend_on_how_keys_print(self, abc):
        # keys whose reprs nest ("b" is a prefix of "b)!") give the steps
        # of the same word over plain keys
        a, b, c = Key("a"), Key("b"), Key("b)!")
        ctx = complete_context([a, b, c])
        rename = {a: "a", b: "b", c: "c"}
        for pairs in ([(a, c), (c, b), (b, b)],
                      [(a, a), (a, b), (c, a), (a, c)],
                      [(b, a), (a, c), (c, b), (c, c), (c, b)],
                      [(c, c), (c, a), (a, b), (b, b), (a, c), (c, b)]):
            plain = word((rename[t], rename[h]) for t, h in pairs)
            assert rewrite.reduction_trace(ctx, word(pairs)) == \
                rewrite.reduction_trace(abc, plain)

    def test_long_loop_runs(self, abc):
        w = word([("a", "a")] * 40 + [("a", "b")] + [("b", "b")] * 40)
        assert rewrite.reduction_trace(abc, w) == [loop(0)] * 40 + [loop(1)] * 40

    def test_checks_the_context(self, abc):
        with pytest.raises(ContextError):
            rewrite.reduction_trace(abc, word([("a", "b"), ("b", "z")]))


@st.composite
def element_pairs(draw):
    """Two normal forms over the 4-node clique; ``h`` often starts with the
    inverse of a suffix of ``g``, so the seam cancels deeply."""
    ctx = complete_context([0, 1, 2, 3])
    pairs = st.sampled_from(ctx.closure_pairs())
    g = normalize(ctx, word(draw(st.lists(pairs, max_size=12))))
    cut = draw(st.integers(0, len(g.letters)))
    suffix = rewrite.GroupElement(g.letters[cut:])
    rest = normalize(ctx, word(draw(st.lists(pairs, max_size=6))))
    h = draw(st.sampled_from([rest, gmul(ginv(suffix), rest)]))
    return g, h


class TestSeamProduct:
    @settings(max_examples=300, deadline=None)
    @given(element_pairs())
    def test_matches_full_stack_pass(self, gh):
        g, h = gh
        assert gmul(g, h) == rewrite.GroupElement(
            rewrite._stack_reduce(g.letters + h.letters))

    def test_full_cancellation(self, line4):
        rng = rng_from_seed(6)
        for _ in range(50):
            g = rewrite.random_element(line4, rng, 8)
            assert gmul(g, ginv(g)).is_identity()
            assert gmul(ginv(g), g).is_identity()

    def test_public_constructor_rejects_reducible_words(self):
        for letters in ([("a", "a")], [("a", "b"), ("b", "c")],
                        [("c", "a"), ("a", "b"), ("b", "b")]):
            with pytest.raises(ValueError, match="not a normal form"):
                rewrite.GroupElement(word(letters))

    def test_seam_check_raises_on_unvalidated_factor(self):
        # g's last letter fuses with h's first, and the fused letter then
        # meets the loop g was built with: the product is not a normal form
        g = rewrite._trusted(word([(2, 2), (0, 1)]))
        h = rewrite.GroupElement(word([(1, 3)]))
        with pytest.raises(ValueError, match="seam"):
            gmul(g, h)
        # a loop left at the seam after full cancellation
        g = rewrite._trusted(word([(0, 1), (3, 3), (1, 2)]))
        with pytest.raises(ValueError, match="seam"):
            gmul(g, rewrite.GroupElement(word([(2, 1)])))


class TestTrustedConstructor:
    @settings(max_examples=100, deadline=None)
    @given(element_pairs(), st.integers(0, 2**32 - 1))
    def test_every_output_is_irreducible(self, gh, seed):
        built = []
        real = rewrite._trusted

        def checked(letters):
            built.append(letters)
            return real(letters)

        ctx = complete_context([0, 1, 2, 3])
        g, h = gh
        with mock.patch.object(rewrite, "_trusted", checked):
            gmul(g, h)
            gmul(h, g)
            ginv(g)
            normalize(ctx, g.letters + h.letters)
            rewrite.random_element(ctx, rng_from_seed(seed), 8)
        assert len(built) == 5
        assert all(isinstance(w, tuple) and is_irreducible(w) for w in built)


def push_table_oracle(isloop, fuse, max_len):
    """The push table as the per-word loop computed it: push every letter
    onto every normal form shorter than ``max_len``, cascading fusions."""
    def push(w, c):
        w = list(w)
        while True:
            if isloop[c]:
                return tuple(w)
            if w and fuse[w[-1], c] >= 0:
                c = fuse[w.pop(), c]
                continue
            return tuple(w + [c])

    table, rowed, level = {}, set(), {()}
    for _ in range(max_len):
        rowed |= level
        for w in level:
            for c in range(len(isloop)):
                table[w, c] = push(w, c)
        level = set(table.values()) - rowed
    return table, rowed, {()} | set(table.values())


class TestPushTable:
    @staticmethod
    def assert_matches_oracle(pairs, max_len):
        isloop, fuse = rewrite._rule_tables(word(pairs))
        push, length, parent, last = rewrite._push_table(isloop, fuse, max_len)
        words = [()]
        for i in range(1, len(length)):
            words.append(words[parent[i]] + (int(last[i]),))
        assert [len(w) for w in words] == length.tolist()
        table, rowed, forms = push_table_oracle(isloop, fuse, max_len)
        assert set(words) == forms and len(words) == len(forms)
        rows = {words[i]: push[i] for i in range(len(push))}
        assert set(rows) == rowed
        for (w, c), out in table.items():
            assert words[rows[w][c]] == out

    def test_full_alphabets(self):
        for ctx, max_len in ((complete_context(["a", "b", "c"]), 4),
                             (complete_context([0, 1, 2, 3]), 3),
                             (EdgeContext("abcd", [("a", "b"), ("c", "d")]), 4)):
            self.assert_matches_oracle(ctx.closure_pairs(), max_len)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.sampled_from(complete_context([0, 1, 2, 3]).closure_pairs()),
                   min_size=1),
           st.integers(1, 4))
    def test_restricted_alphabets(self, pairs, max_len):
        self.assert_matches_oracle(sorted(pairs), max_len)

    def test_broken_confluence_reports_unchanged(self):
        # the reports of the restricted alphabet as the per-word push loop
        # produced them
        rep = check_confluence_bruteforce(RestrictedAlphabet(), 3).as_dict()
        assert rep["count"] == 155 and rep["max_defect"] == 1.0
        assert rep["offenders"] == [[["a", "b"], ["b", "c"], ["c", "d"]]]
        assert rep["details"]["normal_forms_seen"] == 135
        rep = check_confluence_bruteforce(RestrictedAlphabet(), 4).as_dict()
        assert rep["count"] == 780 and rep["max_defect"] == 11.0
        assert rep["offenders"] == [
            [["a", "b"], ["b", "c"], ["c", "d"]],
            [["a", "b"], ["a", "b"], ["b", "c"], ["c", "d"]],
            [["a", "b"], ["b", "c"], ["c", "d"], ["a", "b"]],
            [["a", "b"], ["b", "c"], ["c", "d"], ["b", "c"]],
        ]
        assert rep["details"]["normal_forms_seen"] == 624
        rep = check_confluence_bruteforce(complete_context([0, 1, 2, 3]), 4)
        assert rep.passed and rep.count == 69904
        assert rep.details["normal_forms_seen"] == 9841

    def test_offenders_per_block_of_codes(self):
        # 143 letters without (0, 11): level 3 has 2,924,207 words, more than
        # one block of 2^21 codes, and each block gives its first three
        # offenders.  Every offender starts with some (0, m); the first,
        # (0, 1) at index 102, straddles the first block boundary, and the
        # letter order leaves one offender in the first block.
        full = [(u, v) for u in range(12) for v in range(12) if (u, v) != (0, 11)]
        filler = [(1, 2)] + [p for p in full if p[0] > 1][:101]
        pairs = filler + [(0, 1)] + [p for p in full if p not in filler and p != (0, 1)]
        rep = check_confluence_bruteforce(RestrictedAlphabet(pairs), 3)
        assert rep.max_defect == 90.0
        assert rep.details["normal_forms_seen"] == 1907314
        assert rep.as_dict()["offenders"] == [
            [[0, 1], [1, 2], [2, 11]],
            [[0, 1], [1, 3], [3, 11]], [[0, 1], [1, 4], [4, 11]], [[0, 1], [1, 5], [5, 11]]]

    def test_normal_forms_must_fix_irreducible_words(self, line4):
        # a push table that sends every word to the empty word agrees with
        # every reduct, so only the irreducible-word check can catch it
        def degenerate(isloop, fuse, max_len):
            push, length, parent, last = real(isloop, fuse, max_len)
            return np.zeros_like(push), length, parent, last

        real = rewrite._push_table
        with mock.patch.object(rewrite, "_push_table", degenerate):
            rep = check_confluence_bruteforce(line4, 2)
        assert not rep.passed
        # the 12 letters that are not loops, and the 12 * 9 irreducible pairs
        assert rep.max_defect == 12 + 12 * 9


class TestWordLiterals:
    @pytest.mark.parametrize("lit, index", [
        (["ab"], 0),
        ([["a", "b"], "bc"], 1),
        ([[0, 1, 2]], 0),
        ([[0]], 0),
        ([["a", ["b"]]], 0),
        ([["a", {"b": 1}]], 0),
        ([("a", "b")], 0),
    ])
    def test_rejects_malformed_letters(self, lit, index):
        from graphdyn.errors import InputError
        with pytest.raises(InputError, match=f"letter {index} "):
            rewrite.word_from_literal(lit)

    @pytest.mark.parametrize("lit", ["ab", {"a": "b"}, 3, None])
    def test_rejects_non_arrays(self, lit):
        from graphdyn.errors import InputError
        with pytest.raises(InputError, match="not an array of letters"):
            rewrite.word_from_literal(lit)

    def test_accepts_scalar_keys(self):
        lit = [["a", 1], [2.5, None], [True, "x"]]
        assert rewrite.word_to_literal(rewrite.word_from_literal(lit)) == lit
