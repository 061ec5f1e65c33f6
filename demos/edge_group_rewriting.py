#!/usr/bin/env python3
"""Edge groups by string rewriting.

Words over edge letters reduce by two rules: a loop letter (u, u) deletes,
and an adjacent pair (u, v)(v, w) fuses into (u, w).  Every word has a unique
irreducible normal form, which makes the quotient a group.  This script walks
through reductions by hand, replays a reduction trace to its normal form, and
then certifies confluence exhaustively.
"""

import numpy as np

from graphdyn import rewrite
from graphdyn.rewrite import (check_confluence_bruteforce, check_rule_axioms,
                              complete_context, embed_edge, ginv, gmul,
                              normalize, reduce_once_all, word)

ctx = complete_context(["a", "b", "c"])

print("== single-step reductions ==")
w = word([("a", "a"), ("a", "b"), ("b", "c")])
print(f"word:     {[tuple(l) for l in w]}")
for r in sorted(reduce_once_all(ctx, w), key=repr):
    print(f"one step: {[tuple(l) for l in r]}")

print("\n== normal forms ==")
for pairs in ([("a", "a")],
              [("a", "b")],
              [("a", "b"), ("b", "b"), ("b", "c"), ("c", "a")]):
    nf = normalize(ctx, word(pairs))
    print(f"{pairs} -> {[tuple(l) for l in nf.letters] or '1'}")

print("\n== a reduction trace, replayed ==")
# each step names one rule application on the word left by the steps before
w = word([("a", "b"), ("b", "b"), ("b", "c"), ("c", "a"), ("a", "b")])
cur = list(w)
print(f"start:     {[tuple(l) for l in cur]}")
for step in rewrite.reduction_trace(ctx, w):
    i = step["at"]
    if step["rule"] == "loop":
        assert cur[i].tail == cur[i].head
        del cur[i]
    else:
        assert cur[i].head == cur[i + 1].tail
        cur[i:i + 2] = [rewrite.Letter(cur[i].tail, cur[i + 1].head)]
    print(f"{step['rule']} at {i}: {[tuple(l) for l in cur]}")
assert tuple(cur) == normalize(ctx, w).letters
print("the replay ends at the normal form")

print("\n== group arithmetic ==")
g = embed_edge(ctx, ("a", "b"))
h = embed_edge(ctx, ("b", "c"))
print("edges compose:", [tuple(l) for l in gmul(g, h).letters])
print("inverses cancel:", gmul(g, ginv(g)).is_identity())

rng = np.random.default_rng(0)
ok = all(
    gmul(gmul(x, y), z) == gmul(x, gmul(y, z))
    for x, y, z in (tuple(rewrite.random_element(ctx, rng) for _ in range(3))
                    for _ in range(2000))
)
print("associativity on 2000 random triples:", ok)

print("\n== exhaustive certification ==")
print("rule compatibility:", check_rule_axioms(ctx).passed)
rep = check_confluence_bruteforce(ctx, 5)
print(f"confluence over all {rep.count:,} words of length <= 5: {rep.passed}")
print(f"distinct normal forms encountered: {rep.details['normal_forms_seen']}")
