"""Values on linear orders, walk sums on networks and the channel path are
evaluated as arrays, bit for bit the per-edge, per-element, per-target and
per-channel computations.

The closed-form generator families (the interpolation example and the
``(t - s) * rate`` kind) build a whole edge batch in one numpy expression,
both product extensions fold the products of a batch of elements together,
one walk-sum sweep carries every target of a network, and a channel family
is validated, decomposed and dilated as one stack.  Each check compares
bytes, so a signed zero or a last-bit difference fails.  The folds, the
sweep and the channel stacks run one LAPACK or gemm call per matrix,
whichever OpenBLAS kernel is loaded; the last test runs the checks again on
the Haswell kernel, the one OpenBLAS picks on an AVX2-only CPU.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdyn import dilate, dynamics, linops, rewrite
from graphdyn.dynamics import DagNetwork, LinearOrderGraph, OperatorFamily
from graphdyn.errors import InputError
from graphdyn.extend import FirstCoverExtension, NormalFormExtension
from graphdyn.sampling import (random_dissipative, random_hermitian, random_kraus_ops,
                               random_matrix, rng_from_seed)
import oracles

seeds = st.integers(0, 2**16)


def drawn_edges(data, graph):
    """A list of edges of ``graph`` with repeats, in a drawn order."""
    return data.draw(st.lists(st.sampled_from(list(graph.edges())), max_size=40))


def assert_bitwise(got, values):
    want = np.stack(values) if values else np.empty((0,) + got.shape[1:], dtype=complex)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStackedValuesAreBitwise:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, d=st.sampled_from([2, 3]), points=st.integers(2, 12),
           t_max=st.sampled_from([1.0, 0.7, 2.5]), alpha=st.sampled_from([1.0, -0.5, 3.0]),
           data=st.data())
    def test_interpolation_stack_is_the_per_edge_formula(self, seed, d, points, t_max,
                                                          alpha, data):
        rng = rng_from_seed(seed)
        h1, h2 = random_hermitian(rng, d), random_hermitian(rng, d)
        gens = dynamics.build_system({"family": {
            "kind": "indivisible-example", "h1": linops.matrix_to_literal(h1),
            "h2": linops.matrix_to_literal(h2), "t_max": t_max, "grid_points": points,
            "alpha": alpha}})["generators"]
        edges = drawn_edges(data, gens.graph)
        assert_bitwise(gens.stack(edges), [
            alpha * oracles.interpolation_generator(h1, h2, t_max, e) for e in edges])

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, d=st.integers(1, 4), alpha=st.sampled_from([1.0, -0.5, 3.0]),
           keys=st.lists(st.one_of(st.integers(-2**60, 2**60),
                                   st.floats(-1e6, 1e6, allow_nan=False)),
                         min_size=1, max_size=8, unique=True),
           data=st.data())
    def test_rate_stack_is_the_per_edge_formula(self, seed, d, alpha, keys, data):
        # integer keys, large ones and floats mixed
        rng = rng_from_seed(seed)
        rate = random_dissipative(rng, d)
        spec = {"graph": {"order": keys}, "dim": d, "family": {
            "kind": "exponential", "rate": linops.matrix_to_literal(rate), "alpha": alpha}}
        gens = dynamics.build_system(spec)["generators"]
        edges = drawn_edges(data, gens.graph)
        assert_bitwise(gens.stack(edges), [
            alpha * oracles.rate_generator(rate, e) for e in edges])
        evolution = dynamics.commuting_evolution(rate, 1.0, len(keys) + 1)
        edges = drawn_edges(data, evolution.graph)
        assert_bitwise(evolution.stack(edges), [
            oracles.rate_generator(rate, e) for e in edges])

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2, 3, 4, 6, 9]), points=st.integers(2, 9),
           max_len=st.integers(0, 8))
    def test_normal_form_fold_is_the_per_element_loop(self, seed, d, points, max_len):
        rng = rng_from_seed(seed)
        graph = LinearOrderGraph(range(points))
        values = {e: linops.eye(d) if e[0] == e[1] else random_matrix(rng, d, 0.7)
                  for e in graph.edges()}
        fam = oracles.edgewise(OperatorFamily, graph, d, values.__getitem__)
        ext = NormalFormExtension(fam)
        ctx = graph.context()
        gs = [rewrite.random_element(ctx, rng, max_len) for _ in range(12)]
        gs.append(rewrite.identity())
        assert_bitwise(ext.stack(gs), [oracles.normal_form_value(fam, g) for g in gs])
        for g in gs[:3]:
            assert_bitwise(ext(g)[None], [oracles.normal_form_value(fam, g)])

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2, 3, 5]), points=st.integers(2, 9),
           max_len=st.integers(0, 8), data=st.data())
    def test_interval_fold_is_the_per_element_loop(self, seed, d, points, max_len, data):
        rng = rng_from_seed(seed)
        fam = dynamics.commuting_evolution(random_dissipative(rng, d, 0.5), 1.0,
                                           points).exponential()
        ext = FirstCoverExtension(fam)
        ctx = fam.graph.context()
        gs = [rewrite.random_element(ctx, rng, max_len) for _ in range(12)]
        gs.append(rewrite.identity())
        assert_bitwise(ext.stack(gs), [oracles.interval_value(fam, g) for g in gs])
        extra = data.draw(st.lists(st.sampled_from(fam.graph.nodes), max_size=points))
        for g in gs[:3]:
            assert_bitwise(ext.evaluate(g, extra)[None], [oracles.interval_value(fam, g, extra)])


class TestWalkSumsAreBitwise:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(1, 8), d=st.integers(1, 3),
           p=st.sampled_from([0.3, 0.6, 1.0]))
    def test_walk_sums_are_the_per_target_sweeps(self, seed, n, d, p):
        # a random DAG whose node keys are not in topological order and whose
        # edges, and so each node's successors, come in a random order
        rng = rng_from_seed(seed)
        rank = rng.permutation(n).tolist()
        edges = [(u, v) for u in range(n) for v in range(n)
                 if rank[u] < rank[v] and rng.random() < p]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        net = DagNetwork(range(n), edges, {e: random_matrix(rng, d, 0.7) for e in edges}, d)
        zero = np.zeros((d, d), dtype=complex)
        some = rng.permutation(n)[:rng.integers(0, n + 1)].tolist()  # in any order
        for avoid in [None, *range(n)]:
            into = {w: oracles.path_sums_into(net, w, avoid) for w in net.nodes}
            for targets in (range(n), some):
                # a walk that starts or ends at the avoided node touches it
                assert_bitwise(dynamics.walk_sums(net, targets, avoid).reshape(-1, d, d),
                               [zero if avoid in (u, w) else into[w][u]
                                for u in net.nodes for w in targets])


class TestBatchedChannelKernels:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=seeds, d=st.sampled_from([2, 3]), data=st.data())
    def test_channel_stacks_are_the_per_channel_path(self, seed, d, data):
        # Kraus ranks below d^2 leave Choi eigenvalues at rounding level, so
        # the kept operators are compacted to the front of the d^2 slots; a
        # scale of 1.5 breaks trace preservation and one of -1 positivity
        rng = rng_from_seed(seed)
        ranks = data.draw(st.lists(st.integers(1, d * d), min_size=1, max_size=6),
                          label="ranks")
        scales = data.draw(st.lists(st.sampled_from([1.0, 1.0, 1.5, -1.0]),
                                    min_size=len(ranks), max_size=len(ranks)), label="scales")
        chois = [scale * linops.superop_to_choi(linops.kraus_superop(
            random_kraus_ops(rng, d, rank)), d) for rank, scale in zip(ranks, scales)]
        assert_bitwise(dilate.cptp_defects(np.stack(chois), d),
                       [dilate.cptp_defects(c, d) for c in chois])
        errors = []
        for c in chois:
            try:
                oracles.validate_choi(c, d)
            except InputError as exc:
                errors.append(str(exc))
        if errors:
            with pytest.raises(InputError) as exc:
                dilate.validate_chois(chois)
            assert str(exc.value) == errors[0]
        good = [c for c, scale in zip(chois, scales) if scale == 1.0]
        if not good:
            return
        dilate.validate_chois(good)

        # the Kraus stack, zero-padded to d^2 slots, and its unitaries
        lists = [oracles.kraus_list(c, d) for c in good]
        ks, counts = dilate.kraus_stacks(np.stack(good), d)
        assert counts.tolist() == [len(k) for k in lists]
        assert_bitwise(ks, [np.concatenate([k, np.zeros((d * d - len(k), d, d), complex)])
                            for k in lists])
        assert_bitwise(dilate.reflection_unitaries(ks),
                       [oracles.reflection_unitary(k, d * d) for k in lists])

        # pipeline A-cptp's pass over elements, with repeats and the identity
        # (-1), at a stack of matrices and at one matrix
        superops = linops.choi_to_superop(np.stack(good), d)
        order = data.draw(st.lists(st.integers(-1, len(good) - 1), min_size=1, max_size=8),
                          label="elements")
        xs = [rewrite.identity() if i < 0 else i for i in order]
        values = np.stack([linops.eye(d * d) if i < 0 else superops[i] for i in order])
        env = d * (d * d + 1)
        us = [linops.eye(d * env) if i < 0 else oracles.element_unitary(superops[i], d)
              for i in order]
        samples = np.concatenate([linops.matrix_units(d), [random_matrix(rng, d)]])
        for s in (samples, samples[-1]):
            dil = dilate.VedDilation(None, d)
            assert_bitwise(dil._element_defects(xs, s, values), [
                oracles.reduced_action(u, env, s) - linops.superop_apply(v, s)
                for u, v in zip(us, values)])
            assert_bitwise(np.stack([dil._unitaries[x] for x in xs]), us)

        # the kernels at stack size one
        ch = dilate.Channel(d, good[0])
        assert_bitwise(ch.kraus[None], lists[:1])
        kd = dilate.kraus_ii_dilation(ch)
        assert_bitwise(kd.unitary[None], [oracles.reflection_unitary(lists[0], len(lists[0]))])
        assert_bitwise(kd.reconstructed(samples)[None],
                       [oracles.reduced_action(kd.unitary, kd.env_dim, samples)])


def _has_avx2():
    try:
        with open("/proc/cpuinfo") as fh:
            return any("avx2" in line.split() for line in fh if line.startswith("flags"))
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx2(), reason="the Haswell kernel needs AVX2")
def test_bitwise_on_the_haswell_kernel():
    # OpenBLAS reads its kernel choice at load time, so the checks run in a
    # child process started with the variable set
    here = pathlib.Path(__file__)
    src = pathlib.Path(dynamics.__file__).parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::TestStackedValuesAreBitwise", f"{here}::TestWalkSumsAreBitwise",
         f"{here}::TestBatchedChannelKernels"],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert "6 passed" in proc.stdout
