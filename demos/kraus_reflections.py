#!/usr/bin/env python3
"""From a channel to a reflection.

Any CPTP map decomposes through Kraus operators extracted from its (PSD,
partial-trace-normalized) Choi matrix.  Stacking the Kraus operators gives an
isometric coupling into system + system (x) C^k, and the block operator
[[0, D*], [D, 1 - D D*]] is a self-adjoint unitary - a reflection - whose
conjugation, compressed by the partial trace against a pure environment
state, reproduces the channel.
"""

import numpy as np

from graphdyn.dilate import Channel, kraus_ii_dilation
from graphdyn.linops import dagger, eye, matrix_units, spectral_norm, trace_norm


def isometric_partition(ch):
    """Canonical isometry v and the isometric partition {v_i} over the
    channel's Kraus list: v maps xi to the stack of K_i xi tagged by i, and
    v_i embeds xi into slot i.  The identities v*v = 1, v_j* v_i = delta 1,
    sum v_i v_i* = 1 and K_i* = v* v_i are all verified before returning.
    """
    w = ch.kraus.transpose(1, 0, 2)  # w[a, i, c] = K_i[a, c]
    d, k = w.shape[:2]
    v = w.reshape(d * k, d)
    parts = [np.kron(eye(d), eye(k)[:, [i]]) for i in range(k)]
    checks = [spectral_norm(dagger(v) @ v - eye(d))]
    for i, vi in enumerate(parts):
        checks.append(spectral_norm(dagger(v) @ vi - dagger(w[:, i])))
        for j, vj in enumerate(parts):
            target = eye(d) if i == j else np.zeros((d, d))
            checks.append(spectral_norm(dagger(vj) @ vi - target))
    checks.append(spectral_norm(sum(vi @ dagger(vi) for vi in parts) - eye(d * k)))
    worst = max(checks)
    if worst > 1e-12:
        raise ValueError(f"isometric partition identities fail by {worst:.3e}")
    return v, parts


def depolarizing(d):
    """The channel s -> tr(s) 1/d."""
    return Channel.from_kraus(d**-0.5 * matrix_units(d))


def main():
    rng = np.random.default_rng(7)

    print("== a random qutrit channel ==")
    ch = Channel.random(rng, 3)
    print("Choi eigenvalues:", np.round(np.linalg.eigvalsh(ch.choi), 4))
    print("Kraus rank:", len(ch.kraus))
    norm_defect = spectral_norm(sum(dagger(k) @ k for k in ch.kraus) - np.eye(3))
    print(f"normalization defect sum K*K - 1: {norm_defect:.2e}")

    print("\n== isometric partition ==")
    v, parts = isometric_partition(ch)
    print("coupling isometry shape:", v.shape)
    print("slot isometries:", len(parts), "(identities verified on construction)")

    print("\n== reflection dilation ==")
    kd = kraus_ii_dilation(ch)
    print(f"environment dimension: {kd.env_dim} = d (k + 1)")
    u = kd.unitary
    n = u.shape[0]
    print(f"|u u* - 1|  = {spectral_norm(u @ dagger(u) - np.eye(n)):.2e}")
    print(f"|u - u*|    = {spectral_norm(u - dagger(u)):.2e}")
    print(f"|u^2 - 1|   = {spectral_norm(u @ u - np.eye(n)):.2e}")

    units = matrix_units(3)
    worst = trace_norm(kd.reconstructed(units) - ch.apply(units)).max()
    print(f"reconstruction defect over all matrix units: {worst:.2e}")

    print("\n== the flat channel, for comparison ==")
    dep = depolarizing(2)
    print("depolarizing qubit Choi spectrum:",
          np.round(np.linalg.eigvalsh(dep.choi), 6), "- rank 4, flat")


if __name__ == "__main__":
    main()
