#!/usr/bin/env python3
"""Modularity maximization as network dynamics.

The greedy first phase of the Louvain method is exactly a serial run on the
zero-diagonal modularity matrix, and spectral bisection is power iteration on
the full one.  This script runs both on the bundled karate club plus a tiny
two-component graph where the optimum is known exactly.
"""

import numpy as np

import dhn
from dhn.graphs import disjoint_pairs_graph, karate_club

print("=" * 70)
print("1. The modularity matrix of a single edge")
print("=" * 70)
edge = dhn.WeightedGraph([[0.0, 1.0], [1.0, 0.0]])
mm = dhn.modularity_matrix(edge)
print("Q:\n", mm.q.toarray())
print("row sums (always zero):", mm.q @ np.ones(edge.n))
print("merging beats splitting:",
      dhn.modularity_score(edge, dhn.Clustering([0, 0], 1)), ">",
      dhn.modularity_score(edge, dhn.Clustering([0, 1], 2)))

print()
print("=" * 70)
print("2. Greedy search = serial network run from singletons")
print("=" * 70)
pairs = disjoint_pairs_graph(2)
c, report = dhn.run_lms(pairs)
print("two disjoint edges, LMS result:", c.canonical().assignment,
      "modularity", dhn.modularity_score(pairs, c), "(optimum is 0.5)")

karate = karate_club()
c, report = dhn.run_lms(karate)
print(f"karate club, LMS from singletons: modularity "
      f"{dhn.modularity_score(karate, c):.4f} with {c.canonical().d} communities "
      f"after {report.iterations} sweeps")

print("\nSingle-node moves through louvain_update agree with network steps:")
net = dhn.build_lms_network(pairs, 2)
state = dhn.clustering_to_matrix(dhn.Clustering([0, 1, 0, 1], 2))
clustering = dhn.Clustering([0, 1, 0, 1], 2)
for u in range(4):
    via_move = dhn.louvain_update(pairs, clustering, u)
    via_step = dhn.clustering_from_matrix(dhn.serial_step(net, state, u))
    print(f"  node {u}: louvain {via_move.assignment}  network {via_step.assignment}")

print()
print("=" * 70)
print("3. The parallel variant ends in short cycles")
print("=" * 70)
for seed in range(5):
    c, report = dhn.run_plms(karate, 4, seed=seed)
    print(f"  seed {seed}: outcome {report.outcome.value:13s} "
          f"modularity {dhn.modularity_score(karate, c):+.4f}")

print()
print("=" * 70)
print("4. Spectral bisection by power iteration")
print("=" * 70)
c = dhn.newman_bisect(pairs, seed=0)
print("two disjoint edges, sign split:", c.assignment,
      "modularity", dhn.modularity_score(pairs, c))

q = dhn.modularity_matrix(karate).q
eigs = np.linalg.eigvalsh(q.toarray())
c = dhn.newman_bisect(karate, seed=0)
print(f"karate club: spectrum edge values are {eigs[0]:+.4f} and {eigs[-1]:+.4f};")
print(f"the negative end dominates in magnitude, so the unshifted iteration")
print(f"follows it and the sign split scores {dhn.modularity_score(karate, c):+.4f}.")
print("The frame-valued methods in demo 04 avoid exactly this failure mode.")
