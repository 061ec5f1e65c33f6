"""Seeded inputs for the benchmark workloads.

``build(workload, seed, work_dir)`` writes every spec file a workload needs
under ``work_dir/specs`` and returns its commands.  The spec bytes and argv
lists are a pure function of ``(workload, seed)``; only numpy is used to make
them, so they do not change when the program under test changes.  Paths in
argv are relative to ``work_dir``, which is the working directory of every
command.

A workload is a fixed *round* of commands.  The seed changes the matrices,
channels, graphs and words, never the shape of a round (grid sizes, node
counts, word lengths, command mix), so the cost of a round and the verdict of
every slot do not depend on the seed.
"""

import json
import os
from typing import NamedTuple

import numpy as np

WORKLOADS = ("grid-sweep", "channel-family", "word-algebra")

# Whole rounds are measured, at least this many: the tail percentile is fixed
# from MIN_ROUNDS * round length, so it always has ten samples beyond it and
# sits 10 / MIN_ROUNDS = 2.5 slots below the top of a round.
MIN_ROUNDS = 4


class Command(NamedTuple):
    slot: str             # stable name of the command within a round
    argv: tuple           # argv for graphdyn.cli.main
    output: str           # report file (or directory, for demos) relative to work_dir
    expect: dict = None   # exact report fields, computed independently of the program


def normal_form(letters):
    """Reference normal form: drop loop letters, fuse (u, v)(v, w) -> (u, w).

    Every rule shortens the word and the system is confluent, so one
    left-to-right stack pass reaches the unique normal form."""
    out = []
    for tail, head in letters:
        while tail != head:
            if out and out[-1][1] == tail:
                tail = out.pop()[0]
                continue
            out.append([tail, head])
            break
    return out


def _expect_nf(letters):
    nf = normal_form(letters)
    return {"normal_form": nf, "is_identity": not nf}


# -- numpy-only samplers ----------------------------------------------------------

def _lit(m):
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


def _ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _hermitian(rng, d):
    a = _ginibre(rng, d)
    return 0.5 * (a + a.conj().T)


def _dissipative(rng, d, scale):
    """iH - BB*: the Hermitian part is negative semidefinite."""
    h = scale * _hermitian(rng, d)
    b = scale * _ginibre(rng, d)
    return 1j * h - b @ b.conj().T


def _kraus(rng, d, k):
    """k Kraus operators whitened so that sum K_i* K_i = 1."""
    raw = [_ginibre(rng, d) for _ in range(k)]
    s = sum(a.conj().T @ a for a in raw)
    w, v = np.linalg.eigh(s)
    inv_half = v @ np.diag(w ** -0.5) @ v.conj().T
    return [a @ inv_half for a in raw]


def _grid(points):
    """The descending time grid the package builds for t_max = 1."""
    return [float(x) for x in np.linspace(1.0, 0.0, points)]


def _pick(rng, seq, n):
    return [seq[int(i)] for i in rng.integers(0, len(seq), size=n)]


# -- spec writers -------------------------------------------------------------------

class _Writer:
    def __init__(self, work_dir):
        self.work_dir = work_dir
        os.makedirs(os.path.join(work_dir, "specs"), exist_ok=True)
        os.makedirs(os.path.join(work_dir, "out"), exist_ok=True)

    def spec(self, name, payload):
        rel = os.path.join("specs", name + ".json")
        with open(os.path.join(self.work_dir, rel), "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        return rel


def _cmd(slot, *argv, expect=None):
    output = os.path.join("out", slot + ".json")
    return Command(slot, tuple(argv) + ("--output", output), output, expect)


def _indivisible_spec(rng, points):
    return {"graph": {"order": _grid(points)}, "dim": 4,
            "family": {"kind": "indivisible-example",
                       "h1": _lit(_hermitian(rng, 2)), "h2": _lit(_hermitian(rng, 2)),
                       "t_max": 1.0, "grid_points": points, "alpha": 1.0}}


def _exponential_spec(rng, points, d=2):
    rate = _dissipative(rng, d, 0.5)
    # the length bound 1.01 |R| |t - s| dominates |expm((t-s)R) - 1| for a
    # dissipative R, so pipelines B and C pass their growth preconditions
    scale = 1.01 * float(np.linalg.norm(rate, 2))
    return {"graph": {"order": _grid(points)}, "dim": d,
            "family": {"kind": "exponential", "rate": _lit(rate), "alpha": 1.0,
                       "ell": {"kind": "proportional", "scale": scale}}}


def _cptp_spec(rng, nodes, d, offset=0):
    """Random Kraus channels on every edge.  Kraus ranks are part of a round's
    shape, not of the seed: edge k of a family has rank 1 + 5 (k + offset) mod
    d^2, which visits every rank from 1 to d^2 (5 is prime to 4 and 9)."""
    channels = []
    edges = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]
    for k, (i, j) in enumerate(edges):
        rank = 1 + (5 * (k + offset)) % (d * d)
        channels.append({"edge": [i, j], "channel": {
            "dim": d, "repr": "kraus",
            "data": [_lit(op) for op in _kraus(rng, d, rank)]}})
    return {"graph": {"order": list(range(nodes))}, "dim": d,
            "family": {"kind": "cptp", "channels": channels}}


def _graph_spec(rng, nodes):
    """A random spanning tree plus two extra edges (one closure component)."""
    names = [f"v{i}" for i in range(nodes)]
    edges = [[names[int(rng.integers(0, i))], names[i]] for i in range(1, nodes)]
    for _ in range(2):
        a, b = rng.choice(nodes, size=2, replace=False)
        edges.append([names[int(a)], names[int(b)]])
    return names, {"nodes": names, "edges": edges}


def _random_word(rng, names, length):
    return [[u, v] for u, v in zip(_pick(rng, names, length), _pick(rng, names, length))]


def _walk(rng, names, letters, start_not=None):
    """A walk (u0,u1)(u1,u2)... of ``letters`` letters that fuses step by step
    into (u0, u_end): u0 differs from every later node, so no partial fusion
    is a loop."""
    u0 = _pick(rng, [n for n in names if n != start_not], 1)[0]
    path = [u0]
    for _ in range(letters):
        path += _pick(rng, [n for n in names if n not in (u0, path[-1])], 1)
    return [[a, b] for a, b in zip(path, path[1:])]


def _block_word(rng, names, length):
    """``length`` letters in blocks of five: a two-letter walk, which fuses in
    one step, then three letters that fuse with nothing.

    Normalizing takes exactly ``length / 5`` steps, so the reduction work
    depends on ``length`` only, not on the labels the seed picks."""
    word, head = [], None
    for _ in range(length // 5):
        word += _walk(rng, names, 2, start_not=head)
        head = word[-1][1]
        for _ in range(3):
            tail = _pick(rng, [n for n in names if n != head], 1)[0]
            head = _pick(rng, [n for n in names if n != tail], 1)[0]
            word.append([tail, head])
    return word


def _product_words(rng, names, count):
    """``count`` short walks (1-3 letters) whose product has a fixed length:
    every fourth word is the inverse of the one before and cancels it, and
    no other seam fuses."""
    words, heads = [], [None]  # heads[-1]: head of the product's last letter
    for i in range(count):
        if i % 4 == 3:
            words.append([[h, t] for t, h in reversed(words[-1])])
            heads.pop()
        else:
            words.append(_walk(rng, names, i % 3 + 1, start_not=heads[-1]))
            heads.append(words[-1][-1][1])
    return words


# -- workloads ------------------------------------------------------------------------
#
# Rounds are shaped so that the two latency order statistics fall inside a
# group of similar commands, not on the edge between two groups: a round has
# an odd number of slots with a block of similar commands in the middle, and
# similar commands 2-3 slots below the top, where the tail falls (MIN_ROUNDS).

def _grid_sweep(rng, w):
    """Axiom checks and pipelines A/B/C on indivisible and exponential families
    over 17-, 33- and 65-point grids."""
    keep = {
        17: None,  # every command
        33: ("ind-check", "exp-check", "ind-dilate-C", "exp-dilate-C", "ind-dilate-B",
             "exp-dilate-B", "ind-dilate-A", "ind-extend-cover2", "exp-extend-cover1"),
        # the 47,905-triple preconditions of B/C/cover at 65 points take ~3 s
        # each; one per round left too few repeats for steady figures, so 65
        # points are covered by the sampled check and pipeline A (all edges)
        65: ("ind-check", "exp-check", "exp-dilate-A"),
    }
    rounds = []
    for points, slots in keep.items():
        grid = _grid(points)
        ind = w.spec(f"ind{points}", _indivisible_spec(rng, points))
        exp = w.spec(f"exp{points}", _exponential_spec(rng, points))
        word_i = _random_word(rng, grid, 4)
        word_e = _random_word(rng, grid, 4)
        full = [
            _cmd(f"g{points}-ind-check", "check", "--input", ind, "--samples", "200"),
            _cmd(f"g{points}-exp-check", "check", "--input", exp, "--samples", "200"),
            _cmd(f"g{points}-ind-dilate-C", "dilate", "--input", ind, "--pipeline", "C"),
            _cmd(f"g{points}-exp-dilate-C", "dilate", "--input", exp, "--pipeline", "C"),
            # exits 3: the divisibility precondition of pipeline B fails
            _cmd(f"g{points}-ind-dilate-B", "dilate", "--input", ind, "--pipeline", "B"),
            _cmd(f"g{points}-exp-dilate-B", "dilate", "--input", exp, "--pipeline", "B"),
            _cmd(f"g{points}-ind-dilate-A", "dilate", "--input", ind, "--pipeline", "A"),
            _cmd(f"g{points}-exp-dilate-A", "dilate", "--input", exp, "--pipeline", "A"),
            _cmd(f"g{points}-ind-extend-cover2", "extend", "--input", ind,
                 "--which", "cover2", "--word", json.dumps(word_i),
                 expect={"normal_form": normal_form(word_i)}),
            _cmd(f"g{points}-exp-extend-cover1", "extend", "--input", exp,
                 "--which", "cover1", "--word", json.dumps(word_e),
                 expect={"normal_form": normal_form(word_e)}),
        ]
        rounds += [c for c in full if slots is None or c.slot.split("-", 1)[1] in slots]
    cptp = w.spec("cptp3-d2", _cptp_spec(rng, 3, 2))
    rounds.append(_cmd("cptp3-d2-dilate-A-cptp", "dilate", "--input", cptp,
                       "--pipeline", "A-cptp"))
    return "g17-ind-check", rounds


def _channel_family(rng, w):
    """Pipeline A-cptp and family checks on cptp families of random Kraus
    channels over linear orders of 3-5 nodes."""
    rounds = []

    def family(name, nodes, d, offset, dilate=True, check=False):
        spec = w.spec(f"cptp-{name}", _cptp_spec(rng, nodes, d, offset))
        if dilate:
            rounds.append(_cmd(f"{name}-dilate-A-cptp", "dilate", "--input", spec,
                               "--pipeline", "A-cptp"))
        if check:
            rounds.append(_cmd(f"{name}-check", "check", "--input", spec))
        return spec

    n4 = family("n4-d2", 4, 2, 0)
    for i in range(2, 6):
        family(f"n4-d2-{i}", 4, 2, i)
    family("n5-d2", 5, 2, 0)
    family("n5-d2-2", 5, 2, 2)
    # d=3 dilations take ~1 s at 3 nodes and ~2 s at 4.  Two at 3 nodes keep
    # a round near 2.5 s, so a run repeats each slot about ten times; the
    # tail (2.5 slots below the top) falls in the block of 5-node dilations
    family("n3-d3", 3, 3, 0, check=True)
    family("n3-d3-2", 3, 3, 3)
    family("n4-d3", 4, 3, 0, dilate=False, check=True)
    word = _random_word(rng, list(range(4)), 4)
    rounds.append(_cmd("n4-d2-extend-normal", "extend", "--input", n4,
                       "--which", "normal", "--word", json.dumps(word),
                       expect={"normal_form": normal_form(word)}))
    demo_seed = str(int(rng.integers(0, 2**31)))
    rounds.append(Command("lindblad-demo", ("demo", "lindblad", "--seed", demo_seed,
                                            "--output", "out/lindblad-demo"),
                          "out/lindblad-demo"))
    return "n4-d2-dilate-A-cptp", rounds


def _word_algebra(rng, w):
    """Edge-group arithmetic on random graphs of 6-10 nodes: long products,
    traced normal forms, inverses, and the built-in verification suite."""
    graphs = {n: _graph_spec(rng, n) for n in (6, 7, 8, 9, 10)}
    rounds = []

    def words_cmd(nodes, count):
        names, graph = graphs[nodes]
        words = _product_words(rng, names, count)
        spec = w.spec(f"n{nodes}-words{count}", {"graph": graph, "words": words})
        rounds.append(_cmd(f"n{nodes}-mul{count}", "group", "mul", "--input", spec,
                           expect=_expect_nf([lt for wd in words for lt in wd])))

    def word_cmd(nodes, length, kind):
        names, graph = graphs[nodes]
        word = _block_word(rng, names, length)
        spec = w.spec(f"n{nodes}-{kind}{length}", {"graph": graph, "word": word})
        if kind == "inv":
            inverse = [[h, t] for t, h in reversed(normal_form(word))]
            rounds.append(_cmd(f"n{nodes}-inv{length}", "group", "inv", "--input", spec,
                               expect={"normal_form": inverse}))
        else:
            flags = ("--trace",) if kind == "trace" else ()
            rounds.append(_cmd(f"n{nodes}-{kind}{length}", "normalize", "--input", spec,
                               *flags, expect=_expect_nf(word)))

    for nodes in graphs:
        word_cmd(nodes, 300, "trace")
    words_cmd(8, 1000)
    rounds.append(_cmd("verify", "verify"))
    word_cmd(8, 150, "trace")
    for nodes in graphs:
        words_cmd(nodes, 400)
    for nodes in (6, 8, 10):
        word_cmd(nodes, 50, "trace")
        word_cmd(nodes, 300, "normalize")
    for nodes in (6, 7, 9):
        word_cmd(nodes, 300, "inv")
    cptp = w.spec("cptp3-d2", _cptp_spec(rng, 3, 2))
    rounds.append(_cmd("cptp3-d2-dilate-A-cptp", "dilate", "--input", cptp,
                       "--pipeline", "A-cptp"))
    return "n6-mul400", rounds


_BUILDERS = {"grid-sweep": _grid_sweep, "channel-family": _channel_family,
             "word-algebra": _word_algebra}


def seed_sequence(workload, seed):
    """The entropy of the workload's random stream (valid for any integer seed)."""
    seed = int(seed)
    return [abs(seed), int(seed < 0), WORKLOADS.index(workload)]


def build(workload, seed, work_dir):
    """Write the workload's specs under ``work_dir``; return (setup, round).

    ``setup`` is the round's command whose fresh-interpreter run ``setup_s``
    times: a small command that still reaches the workload's layers.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed_sequence(workload, seed))
    setup_slot, rounds = _BUILDERS[workload](rng, _Writer(work_dir))
    return next(c for c in rounds if c.slot == setup_slot), rounds
