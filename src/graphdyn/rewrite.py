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

from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np

from .errors import ContextError, InputError
from .reports import CheckReport


class Letter(NamedTuple):
    tail: Hashable
    head: Hashable


Word = tuple  # tuple of Letter


def word(pairs):
    """Build a word from an iterable of (tail, head) pairs."""
    return tuple(Letter(t, h) for t, h in pairs)


class EdgeContext:
    """A node set with its edge relation and the relation's equivalence closure.

    Membership in the closure is decided by union-find components, fully
    built at construction; instances are immutable afterwards.
    """

    def __init__(self, nodes, edges):
        self.nodes = tuple(dict.fromkeys(nodes))
        node_set = set(self.nodes)
        self.edges = set()
        parent = {u: u for u in self.nodes}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for (t, h) in edges:
            if t not in node_set or h not in node_set:
                raise ContextError(f"edge ({t!r}, {h!r}) uses unknown nodes")
            self.edges.add((t, h))
            parent[find(t)] = find(h)
        self._root = {u: find(u) for u in self.nodes}
        self._closure = None

    def has_node(self, u):
        return u in self._root

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def related(self, u, v):
        """Membership in the equivalence closure of the edge set."""
        if u == v:
            return self.has_node(u)
        return self.has_node(u) and self.has_node(v) and self._root[u] == self._root[v]

    def check_letter(self, letter):
        if not self.related(letter.tail, letter.head):
            raise ContextError(
                f"letter {letter!r} is not in the closed edge relation"
            )

    def check_word(self, w):
        for letter in w:
            self.check_letter(letter)

    def closure_pairs(self):
        """All ordered pairs in the equivalence closure (finite node sets only)."""
        if self._closure is None:
            self._closure = [
                (u, v) for u in self.nodes for v in self.nodes
                if self.related(u, v)
            ]
        return self._closure


def complete_context(nodes):
    """Context whose closure relates every pair (single component)."""
    nodes = tuple(dict.fromkeys(nodes))
    if len(nodes) <= 1:
        return EdgeContext(nodes, [])
    anchor = nodes[0]
    return EdgeContext(nodes, [(anchor, u) for u in nodes[1:]])


@dataclass(frozen=True)
class GroupElement:
    """An edge-group element, stored by its irreducible normal form."""

    letters: Word

    def __post_init__(self):
        if not is_irreducible(self.letters):
            raise ValueError(f"word {self.letters!r} is not a normal form")

    def __len__(self):
        return len(self.letters)

    def is_identity(self):
        return not self.letters


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


def _stack_reduce(letters):
    """Left-to-right stack pass: push, fuse coalescent tops, drop loops."""
    out = []
    for t, h in letters:
        while True:
            if t == h:
                break  # loop letter: drop
            if out and out[-1][1] == t:
                t = out.pop()[0]  # fuse with the stack top, then re-check
                continue
            out.append((t, h))
            break
    return tuple(Letter(t, h) for t, h in out)


def normalize(ctx, w):
    """The unique irreducible word equivalent to ``w``.

    A single stack pass suffices; the result is strategy-independent by
    confluence, which :func:`check_confluence_bruteforce` certifies
    independently on small instances.
    """
    ctx.check_word(w)
    return GroupElement(_stack_reduce(w))


def gmul(g, h):
    """Group product (context-free: rule applicability only needs node equality)."""
    return GroupElement(_stack_reduce(g.letters + h.letters))


def ginv(g):
    """Group inverse: reverse the word and swap each letter's endpoints."""
    return GroupElement(tuple(Letter(h, t) for t, h in reversed(g.letters)))


def embed_edge(ctx, edge):
    """The group element of a single edge letter (loops map to the identity)."""
    u, v = edge
    if not ctx.related(u, v):
        raise ContextError(f"edge ({u!r}, {v!r}) is not in the closed edge relation")
    return GroupElement(() if u == v else (Letter(u, v),))


def random_element(ctx, rng, max_len=5):
    """Normal form of a uniformly random word of length <= max_len."""
    pairs = ctx.closure_pairs()
    n = int(rng.integers(0, max_len + 1))
    idx = rng.integers(0, len(pairs), size=n)
    return GroupElement(_stack_reduce([pairs[i] for i in idx]))


# -- exhaustive small-scale verification --------------------------------------

def reduction_closure(ctx, w):
    """Breadth-first closure of all reduction sequences from ``w``.

    Returns (set of reachable words, set of irreducible endpoints).  Only
    intended for short words; grows quickly with word length.
    """
    ctx.check_word(w)
    seen = {w}
    frontier = [w]
    endpoints = set()
    while frontier:
        nxt = []
        for cur in frontier:
            reducts = reduce_once_all(ctx, cur)
            if not reducts:
                endpoints.add(cur)
            for r in reducts:
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen, endpoints


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
    return CheckReport(
        name="rule-axioms",
        passed=not offenders,
        max_defect=float(len(offenders)),
        tolerance=0.0,
        count=len(overlaps),
        offenders=offenders[:10],
        details={
            "identity_instances": n_identity,
            "associativity_instances": len(overlaps) - n_identity,
        },
    )


def check_confluence_bruteforce(ctx, max_len):
    """Certify unique normal forms for every word up to length ``max_len``.

    Level-by-level dynamic programming: for each word w, every one-step
    reduct r must satisfy nf(r) == nf(w), where nf is the stack normal form.
    Since reducts are strictly shorter, induction over word length shows this
    local condition makes every maximal reduction sequence end at nf(w);
    irreducible words are additionally checked to be their own normal forms.
    The levels are swept with vectorized integer word codes so that alphabets
    of size ~16 remain tractable up to length 6.
    """
    letters = [Letter(u, v) for (u, v) in ctx.closure_pairs()]
    k = len(letters)
    if k == 0 or max_len == 0:
        return CheckReport(name="confluence", passed=True, count=0,
                           details={"alphabet": k, "max_len": max_len})

    isloop = np.array([lt.tail == lt.head for lt in letters], dtype=bool)
    code_of = {lt: i for i, lt in enumerate(letters)}
    fuse = np.full((k, k), -1, dtype=np.int64)
    for a, la in enumerate(letters):
        for b, lb in enumerate(letters):
            if la.head == lb.tail:
                # closed relations always contain the fused letter; a
                # restricted alphabet simply lacks the rule (and typically
                # loses confluence, which this checker then reports)
                fuse[a, b] = code_of.get(Letter(la.tail, lb.head), -1)

    # normal forms interned as tuples of letter codes
    irr_ids = {(): 0}
    irr_words = [()]

    def push(word_codes, c):
        # append letter c to an irreducible word, cascading fusions
        w = list(word_codes)
        cur = c
        while True:
            if isloop[cur]:
                return tuple(w)
            if w:
                f = fuse[w[-1], cur]
                if f >= 0:
                    cur = f
                    w.pop()
                    continue
            w.append(cur)
            return tuple(w)

    push_memo = {}

    def push_id(irr_id, c):
        key = (irr_id, c)
        out = push_memo.get(key)
        if out is None:
            nf = push(irr_words[irr_id], c)
            out = irr_ids.get(nf)
            if out is None:
                out = len(irr_words)
                irr_ids[nf] = out
                irr_words.append(nf)
            push_memo[key] = out
        return out

    violations = 0
    first_offenders = []
    total_words = 0
    chunk = 1 << 21

    def decode(code, n):
        digits = []
        for _ in range(n):
            digits.append(int(code % k))
            code //= k
        return tuple(reversed(digits))

    nf_prev = np.array([0], dtype=np.int64)  # level 0: the empty word
    for n in range(1, max_len + 1):
        size = k**n
        total_words += size
        # push table for every normal-form id occurring at the previous level
        max_id = int(nf_prev.max())
        push_tab = np.empty((max_id + 1, k), dtype=np.int64)
        for pid in np.unique(nf_prev):
            for c in range(k):
                push_tab[pid, c] = push_id(int(pid), c)
        nf_cur = np.empty(size, dtype=np.int64)
        irr_len = np.array([len(w) for w in irr_words], dtype=np.int64)
        for lo in range(0, size, chunk):
            codes = np.arange(lo, min(lo + chunk, size), dtype=np.int64)
            nf_c = push_tab[nf_prev[codes // k], codes % k]
            nf_cur[lo:lo + len(codes)] = nf_c
            reducible = np.zeros(len(codes), dtype=bool)
            bad = np.zeros(len(codes), dtype=bool)
            for i in range(n):
                p_hi, p_lo = k ** (n - i), k ** (n - 1 - i)
                digit = (codes // p_lo) % k
                mask = isloop[digit]
                if mask.any():
                    reducible |= mask
                    red = (codes // p_hi) * p_lo + codes % p_lo
                    bad |= mask & (nf_prev[red] != nf_c)
                if i + 1 < n:
                    q = k ** (n - 2 - i)
                    d2 = (codes // q) % k
                    f = fuse[digit, d2]
                    mask = f >= 0
                    if mask.any():
                        reducible |= mask
                        red = ((codes // p_hi) * k + f) * q + codes % q
                        bad |= mask & (nf_prev[red] != nf_c)
            # irreducible words must be their own normal forms
            bad |= (~reducible) & (irr_len[nf_c] != n)
            nbad = int(bad.sum())
            if nbad:
                violations += nbad
                for code in codes[bad][:3]:
                    first_offenders.append(
                        [tuple(letters[c]) for c in decode(int(code), n)]
                    )
        nf_prev = nf_cur
    return CheckReport(
        name="confluence",
        passed=violations == 0,
        max_defect=float(violations),
        tolerance=0.0,
        count=total_words,
        offenders=first_offenders[:10],
        details={"alphabet": k, "max_len": max_len,
                 "normal_forms_seen": len(irr_words)},
    )


# -- JSON wire formats ---------------------------------------------------------

def word_from_literal(lit):
    """Parse a word literal: array of [tail, head] pairs."""
    try:
        return word((p[0], p[1]) for p in lit)
    except (TypeError, IndexError) as exc:
        raise InputError(f"malformed word literal: {exc}") from exc


def word_to_literal(w):
    return [[letter.tail, letter.head] for letter in w]


def context_from_spec(spec):
    """Parse a graph spec: {"nodes": [...], "edges": [[t, h], ...]}."""
    try:
        nodes = list(spec["nodes"])
        edges = [(e[0], e[1]) for e in spec.get("edges", [])]
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"malformed graph spec: {exc}") from exc
    return EdgeContext(nodes, edges)
