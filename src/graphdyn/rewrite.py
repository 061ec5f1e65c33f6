"""String rewriting over graph-edge alphabets and the resulting edge group.

Letters are ordered node pairs drawn from the equivalence closure of a
graph's edge set.  Two rule families act on words: a loop letter ``(u, u)``
deletes, and an adjacent pair ``(u, v)(v, w)`` fuses to ``(u, w)``.  Every
rule shortens the word by exactly one letter, and the system is confluent,
so each word has a unique irreducible normal form.  The quotient under the
induced congruence is a group; elements are represented by their normal
forms.

Node keys compare exactly (no tolerances): callers with float-valued time
stamps must quantize them before building a context.
"""

from typing import Hashable, NamedTuple

from .errors import InputError, reading
from .reports import CheckReport, bad_keys_report


class Letter(NamedTuple):
    tail: Hashable
    head: Hashable


def word(pairs):
    """Build a word from an iterable of (tail, head) pairs."""
    return tuple(map(Letter._make, pairs))


class EdgeContext:
    """A node set and the equivalence closure of an edge relation on it.

    Membership in the closure is decided by union-find components, fully
    built at construction; instances are immutable afterwards.  The edges
    themselves are not kept: contexts with the same components act alike.
    """

    def __init__(self, nodes, edges):
        self.nodes = tuple(dict.fromkeys(nodes))
        parent = {u: u for u in self.nodes}

        def find(u):
            # by identity: a key unequal to itself (NaN) is its own root
            while parent[u] is not u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for (t, h) in edges:
            if t not in parent or h not in parent:
                raise InputError(f"edge ({t!r}, {h!r}) uses unknown nodes")
            parent[find(t)] = find(h)
        self._root = {u: find(u) for u in self.nodes}
        self._closure = None

    def has_node(self, u):
        return u in self._root

    def related(self, u, v):
        """Membership in the equivalence closure of the edge set."""
        if u == v:
            return self.has_node(u)
        return self.has_node(u) and self.has_node(v) and self._root[u] is self._root[v]

    def check_letter(self, letter):
        if not self.related(letter.tail, letter.head):
            raise InputError(
                f"letter {letter!r} is not in the closed edge relation"
            )

    def check_word(self, w):
        for letter in w:
            self.check_letter(letter)

    def closure_pairs(self):
        """All ordered pairs in the equivalence closure (finite node sets only)."""
        if self._closure is None:
            # both keys are nodes, so related() is a comparison of their roots
            root = self._root
            self._closure = [(u, v) for u in self.nodes for v in self.nodes
                             if root[u] is root[v]]
        return self._closure


def complete_context(nodes):
    """Context whose closure relates every pair (single component)."""
    nodes = tuple(dict.fromkeys(nodes))
    return EdgeContext(nodes, [(nodes[0], u) for u in nodes[1:]])


class GroupElement:
    """An edge-group element, stored by its irreducible normal form.

    Immutable: ``letters`` has no setter.  Two elements are equal when their
    letters are, and hash and repr are those of a frozen dataclass with the
    one field ``letters``; a plain class, because importing ``dataclasses``
    loads ``inspect`` into every word command."""

    __slots__ = ("_letters",)

    def __init__(self, letters):
        if not is_irreducible(letters):
            raise ValueError(f"word {letters!r} is not a normal form")
        self._letters = letters

    @property
    def letters(self):
        return self._letters

    def __repr__(self):
        return f"{type(self).__qualname__}(letters={self._letters!r})"

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._letters == other._letters

    def __hash__(self):
        return hash((self._letters,))

    def is_identity(self):
        return not self.letters


def _trusted(letters):
    """A group element from a word that is irreducible by construction,
    without the ``is_irreducible`` rescan of the public constructor."""
    g = object.__new__(GroupElement)
    g._letters = letters
    return g


def identity():
    return GroupElement(())


def is_irreducible(w):
    """No loop letters and no adjacent coalescent pair."""
    for i, letter in enumerate(w):
        if letter.tail == letter.head:
            return False
        if i + 1 < len(w) and letter.head == w[i + 1].tail:
            return False
    return True


def reduce_once_all(ctx, w):
    """All words reachable from ``w`` by a single rule application."""
    ctx.check_word(w)
    return _reducts(w)


def _reducts(w, alphabet=None):
    """One-step reducts of ``w``; given an alphabet, a fusion applies only
    when the fused letter is in it."""
    out = set()
    for i, letter in enumerate(w):
        if letter.tail == letter.head:
            out.add(w[:i] + w[i + 1:])
        if i + 1 < len(w) and letter.head == w[i + 1].tail:
            fused = Letter(letter.tail, w[i + 1].head)
            if alphabet is None or fused in alphabet:
                out.add(w[:i] + (fused,) + w[i + 2:])
    return out


def _stack_reduce(letters, steps=None):
    """Left-to-right stack pass: push, fuse coalescent tops, drop loops.

    Given a list ``steps``, each rule application is appended to it as
    ``{"at": i, "rule": "loop"|"fuse"}`` on the word as it stands: the
    stack, then the letter being read (at ``len(out)``), then the rest.
    """
    out = []
    for t, h in letters:
        while True:
            if t == h:
                if steps is not None:
                    steps.append({"at": len(out), "rule": "loop"})
                break  # loop letter: drop
            if out and out[-1][1] == t:
                if steps is not None:
                    steps.append({"at": len(out) - 1, "rule": "fuse"})
                t = out.pop()[0]  # fuse with the stack top, then re-check
                continue
            out.append((t, h))
            break
    return word(out)


def normalize(ctx, w):
    """The unique irreducible word equivalent to ``w``.

    A single stack pass suffices; the result is strategy-independent by
    confluence, which :func:`check_confluence_bruteforce` certifies
    independently on small instances.
    """
    ctx.check_word(w)
    return _trusted(_stack_reduce(w))


def reduction_trace(ctx, w):
    """The normal form of ``w`` and the rule applications of the one stack
    pass that finds it, in order, as ``{"at": i, "rule": r}``.  Each acts on
    the word left by the steps before it: ``"loop"`` deletes the loop letter
    at ``i``, ``"fuse"`` replaces letters ``i`` and ``i + 1`` by their
    fusion.  Every step removes one letter, and the last word is the normal
    form that :func:`normalize` returns.
    """
    ctx.check_word(w)
    steps = []
    return _trusted(_stack_reduce(w, steps)), steps


def gmul(g, h):
    """Group product (context-free: rule applicability only needs node equality).

    Both factors are irreducible, so the stack pass of ``_stack_reduce``
    over ``g + h`` changes nothing before the seam: each letter of ``h``
    fuses with the end of ``g`` or not, and while the result is a loop it
    cancels and the next letter meets a shorter ``g``.  The first letter
    that survives is followed by the rest of ``h`` unchanged (a fused
    letter cannot fuse again, since ``g`` is irreducible).  The cost is
    linear in the cancelled letters plus one tuple concatenation.  The
    product is checked to be irreducible at the seam, the only place where
    it can fail to be.
    """
    a, b = g.letters, h.letters
    i = len(a)
    for j, (t, hd) in enumerate(b):
        if i and a[i - 1].head == t:
            i -= 1
            t = a[i].tail
        if not t == hd:
            out = a[:i] + (Letter(t, hd),) + b[j + 1:]
            break
    else:
        out = a[:i]
    seam = out[max(i - 1, 0):i + 2]
    if not is_irreducible(seam):
        raise ValueError(f"product is not a normal form at the seam {seam!r}")
    return _trusted(out)


def ginv(g):
    """Group inverse: reverse the word and swap each letter's endpoints."""
    return _trusted(tuple(Letter(h, t) for t, h in reversed(g.letters)))


def embed_edge(ctx, edge):
    """The group element of a single edge letter (loops map to the identity).
    A one-letter word that is not a loop is irreducible."""
    u, v = edge
    if not ctx.related(u, v):
        raise ValueError(f"edge ({u!r}, {v!r}) is not in the closed edge relation")
    return _trusted(() if u == v else (Letter(u, v),))


def random_element(ctx, rng, max_len=5):
    """Normal form of a uniformly random word of length <= max_len.  An empty
    word draws no letters: a bounded draw of size 0 reads no bits, so the
    stream is the one that a draw of every length leaves."""
    pairs = ctx.closure_pairs()
    n = int(rng.integers(0, max_len + 1))
    if not n:
        return _trusted(())
    return _trusted(_stack_reduce([pairs[i] for i in rng.integers(0, len(pairs), size=n)]))


# -- exhaustive small-scale verification --------------------------------------

def _irreducible_ends(w, alphabet):
    """Irreducible ends of every maximal reduction of ``w``, where a fusion
    applies only when the fused letter is in ``alphabet``."""
    seen, stack, ends = {w}, [w], set()
    while stack:
        cur = stack.pop()
        reducts = _reducts(cur, alphabet)
        if not reducts:
            ends.add(cur)
        for r in reducts:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return ends


def check_rule_axioms(ctx):
    """Critical-pair check of the rewriting system over ``ctx.closure_pairs()``.

    Every rule shortens the word, so rewriting terminates, and by Newman's
    lemma it is confluent iff every overlap of two rules is joinable.  The
    overlaps are the loop/fusion words (u,u)(u,w) and (u,v)(v,v)
    ("identity") and the fusion/fusion words (u,v)(v,w)(w,z)
    ("associativity") over alphabet letters; each must have a single
    irreducible end.  A fusion applies only when the fused letter is in the
    alphabet, so a restricted alphabet can fail.
    """
    letters = [(u, v) for (u, v) in ctx.closure_pairs()]
    alphabet = set(letters)
    heads = {}
    for (u, v) in letters:
        heads.setdefault(u, []).append(v)
    overlaps = []  # (kind, node path); the word is the path's consecutive pairs
    for (u, v) in letters:
        if u == v:
            overlaps += [("identity", (u, u, w)) for w in heads[u]]
        if (v, v) in alphabet:
            overlaps.append(("identity", (u, v, v)))
        overlaps += [("associativity", (u, v, w, z))
                     for w in heads.get(v, ()) for z in heads.get(w, ())]
    offenders = [o for o in overlaps
                 if len(_irreducible_ends(word(zip(o[1], o[1][1:])), alphabet)) != 1]
    n_identity = sum(kind == "identity" for kind, _ in overlaps)
    return bad_keys_report("rule-axioms", offenders, len(overlaps), details={
        "identity_instances": n_identity,
        "associativity_instances": len(overlaps) - n_identity,
    })


def check_confluence_bruteforce(ctx, max_len):
    """Certify unique normal forms for every word up to length ``max_len``.

    Level-by-level dynamic programming: for each word w, every one-step
    reduct r must satisfy nf(r) == nf(w), where nf is the stack normal form.
    Since reducts are strictly shorter, induction over word length shows this
    local condition makes every maximal reduction sequence end at nf(w);
    irreducible words are additionally checked to be their own normal forms.
    The normal forms come from the push table of :func:`_push_table`, and
    each level is swept as reshaped views of its word codes, one numpy
    comparison per loop letter and per fusable pair at each position, so
    that alphabets of size ~16 remain tractable up to length 6.
    """
    import numpy as np
    letters = [Letter(u, v) for (u, v) in ctx.closure_pairs()]
    k = len(letters)
    if k == 0 or max_len == 0:
        return CheckReport(name="confluence", passed=True, count=0,
                           details={"alphabet": k, "max_len": max_len})

    isloop, fuse = _rule_tables(letters)
    push_tab, irr_len = _push_table(isloop, fuse, max_len)[:2]

    loops = np.flatnonzero(isloop)
    fusions = [(a, b, fuse[a, b]) for a, b in zip(*np.nonzero(fuse[:k] >= 0))]
    violations = 0
    first_offenders = []
    total_words = 0
    nf_prev = np.zeros(1, dtype=np.int64)  # level 0: the empty word
    for n in range(1, max_len + 1):
        size = k**n
        total_words += size
        # a word's code is its digits in base k, first letter most
        # significant: the code of w c is code(w) * k + c
        nf_cur = push_tab[nf_prev].reshape(size)
        reducible = np.zeros(size, dtype=bool)
        bad = np.zeros(size, dtype=bool)
        for i in range(n):
            # words as (letters before i, letter i, letters after i); deleting
            # letter i leaves the level n - 1 word (before, after)
            view = (k**i, k, k ** (n - 1 - i))
            nf_i, red_i, bad_i = (arr.reshape(view) for arr in (nf_cur, reducible, bad))
            nf_del = nf_prev.reshape(view[0], view[2])
            for c in loops:
                red_i[:, c] = True
                bad_i[:, c] |= nf_i[:, c] != nf_del
            if i + 1 < n:
                # letters i, i + 1 fused into f: the level n - 1 word (before, f, after)
                view = (k**i, k, k, k ** (n - 2 - i))
                nf_i, red_i, bad_i = (arr.reshape(view) for arr in (nf_cur, reducible, bad))
                nf_fused = nf_prev.reshape(view[0], k, view[3])
                for a, b, f in fusions:
                    red_i[:, a, b] = True
                    bad_i[:, a, b] |= nf_i[:, a, b] != nf_fused[:, f]
        # irreducible words must be their own normal forms
        irreducible = np.flatnonzero(~reducible)
        bad[irreducible] |= irr_len[nf_cur[irreducible]] != n
        codes = np.flatnonzero(bad)
        violations += len(codes)
        # offenders: the first three of each block of 2^21 codes
        for lo in np.flatnonzero(np.diff(codes >> 21, prepend=-1)):
            for code in codes[lo:lo + 3]:
                if code >> 21 == codes[lo] >> 21:
                    first_offenders.append([tuple(letters[c])
                                            for c in np.unravel_index(code, (k,) * n)])
        nf_prev = nf_cur
    return CheckReport(
        name="confluence",
        passed=violations == 0,
        max_defect=float(violations),
        tolerance=0.0,
        count=total_words,
        offenders=first_offenders[:10],
        details={"alphabet": k, "max_len": max_len,
                 "normal_forms_seen": len(irr_len)},
    )


def _rule_tables(letters):
    """The rules over an alphabet: whether each letter is a loop, and the
    index of the letter that each pair fuses into, -1 if none.  Row
    ``len(letters)`` stands for the empty word's missing last letter, so
    nothing fuses with it."""
    import numpy as np
    k = len(letters)
    isloop = np.array([lt.tail == lt.head for lt in letters], dtype=bool)
    code_of = {lt: i for i, lt in enumerate(letters)}
    fuse = np.full((k + 1, k), -1, dtype=np.int64)
    for a, la in enumerate(letters):
        for b, lb in enumerate(letters):
            if la.head == lb.tail:
                # closed relations always contain the fused letter; a
                # restricted alphabet simply lacks the rule (and typically
                # loses confluence, which the confluence check then reports)
                fuse[a, b] = code_of.get(Letter(la.tail, lb.head), -1)
    return isloop, fuse


def _push_table(isloop, fuse, max_len):
    """The stack normal forms of every word of length <= ``max_len`` as a
    trie, and the table of their pushes by each letter.

    A form is an id with a parent (the form without its last letter) and a
    last letter; ids run by length, the empty word is id 0.  ``push[w, c]``
    is the normal form of ``w`` followed by letter ``c``: ``w`` itself if
    ``c`` is a loop, the push of ``w``'s parent by the fused letter if
    ``w``'s last letter fuses with ``c``, and a new child of ``w``
    otherwise.  Rows are built level by level for the forms shorter than
    ``max_len``.  Returns (push, length, parent, last).
    """
    import numpy as np
    k = len(isloop)
    parent = np.zeros(1, dtype=np.int64)
    last = np.full(1, k, dtype=np.int64)
    length = np.zeros(1, dtype=np.int64)
    push = np.empty((0, k), dtype=np.int64)
    for n in range(1, max_len + 1):
        ids = np.arange(len(push), len(length))  # the forms of length n - 1
        rows = np.repeat(ids[:, None], k, axis=1)
        fused = fuse[last[ids]]
        fusing = (fused >= 0) & ~isloop
        rows[fusing] = push[np.broadcast_to(parent[ids, None], fused.shape)[fusing],
                            fused[fusing]]
        r, c = np.nonzero(~isloop & ~fusing)
        rows[r, c] = len(length) + np.arange(len(r))
        parent = np.concatenate([parent, ids[r]])
        last = np.concatenate([last, c])
        length = np.concatenate([length, np.full(len(r), n, dtype=np.int64)])
        push = np.concatenate([push, rows])
    return push, length, parent, last


# -- JSON wire formats ---------------------------------------------------------

_SCALAR_KEYS = (str, int, float, type(None))  # JSON scalars (bool is an int)


def _is_pair(lit):
    """An array of exactly two scalar node keys."""
    return isinstance(lit, list) and len(lit) == 2 \
        and isinstance(lit[0], _SCALAR_KEYS) and isinstance(lit[1], _SCALAR_KEYS)


def edge_from_literal(lit, where):
    """Parse an edge literal, an array ``[tail, head]`` of exactly two scalar
    node keys, into a tuple; anything else is an input error naming the
    entry ``where``."""
    if not _is_pair(lit):
        raise InputError(f"malformed edge literal: {where} is {lit!r}, "
                         "not [tail, head] with two scalar node keys")
    return tuple(lit)


def edges_from_literal(lit, where):
    """Parse an edge list, an array of edge literals, into a list of tuples;
    anything else is an input error naming the field ``where``, and a bad
    entry names its index."""
    if not isinstance(lit, list):
        raise InputError(f"malformed edge list: {where} is {lit!r}, "
                         "not an array of edge literals")
    return [edge_from_literal(e, f"{where} entry {i}") for i, e in enumerate(lit)]


def nodes_from_literal(lit, where):
    """Parse a node list, a non-empty array of distinct scalar node keys, into
    a tuple; anything else, or a key listed twice, is an input error naming
    the field ``where``.  A graph with no nodes would certify nothing."""
    if not (isinstance(lit, list) and all(isinstance(key, _SCALAR_KEYS) for key in lit)):
        raise InputError(f"malformed node list: {where} is {lit!r}, "
                         "not an array of scalar node keys")
    if not lit:
        raise InputError(f"malformed node list: {where} is empty")
    seen = set()
    for key in lit:
        if key in seen:
            raise InputError(f"malformed node list: {where} lists the node {key!r} twice")
        seen.add(key)
    return tuple(lit)


def word_from_literal(lit):
    """Parse a word literal: an array of letters, each an array
    ``[tail, head]`` of exactly two scalar node keys."""
    if not isinstance(lit, list):
        raise InputError(f"malformed word literal: {lit!r} is not an array of letters")
    for i, letter in enumerate(lit):
        if not _is_pair(letter):
            raise InputError(f"malformed word literal: letter {i} is {letter!r}, "
                             "not [tail, head] with two scalar node keys")
    return word(lit)


def words_from_literal(lit, where):
    """Parse an array of word literals into a list of words; anything else is
    an input error naming the field ``where``."""
    if not isinstance(lit, list):
        raise InputError(f"malformed word list: {where} is {lit!r}, "
                         "not an array of word literals")
    return [word_from_literal(w) for w in lit]


def word_to_literal(w):
    return [[letter.tail, letter.head] for letter in w]


@reading("graph spec")
def context_from_spec(spec):
    """Parse a graph spec: {"nodes": [...], "edges": [[t, h], ...]}."""
    return EdgeContext(nodes_from_literal(spec["nodes"], "graph.nodes"),
                       edges_from_literal(spec.get("edges", []), "graph.edges"))
