"""
Vaccinating from a reconstructed network
========================================

Suppose only 5% of a population can be immunized before an outbreak, and
the true contact network is unknown — all we have is a stack of
reconstructions built from anonymous interviews.  Do reconstructed hubs
make good targets?  Compare four ways of spending the same budget by
simulated epidemics.
"""

import warnings

import numpy as np

from netrecon import (LfrParams, ReconstructionStalled, SirParams,
                      StrategySpec, assign_attributes, elicit_friends,
                      evaluate_strategy, generate_lfr_like,
                      immunization_order, project,
                      reconstruct, sample_paths, uniform_distribution)

# A population with pronounced hubs — the regime where targeting matters.
params = LfrParams(n=1460, k_avg=10, k_max=100, mu=0.2, tau1=2.5, tau2=1,
                   c_min=10, c_max=50, seed=41)
net, _ = generate_lfr_like(params)
dist = uniform_distribution(net.n)
attrs = assign_attributes(net.n, dist, seed=42)
print(f"population: {net.n} people, {net.m} ties, "
      f"max degree {int(net.degrees.max())}")

# Build a small ensemble of reconstructions from repeated field studies.
# Interviews walk to high-degree neighbors and each respondent names up
# to 25 friends, so frequent appearance tracks true connectivity.
ENSEMBLE = 10
ensemble, projections = [], []
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for i in range(ENSEMBLE):
        paths = sample_paths(net, round(0.08 * net.n), "hpm", seed=50 + i)
        forest = elicit_friends(net, attrs, paths, max_friends=25, width=1, seed=80 + i)
        try:
            res = reconstruct(forest.without_truth(), dist, forest.n_t,
                              seed=110 + i)
        except ReconstructionStalled as stall:
            res = stall.partial
        ensemble.append(res.graph)
        projections.append(project(res.provenance, forest))
print(f"built {ENSEMBLE} reconstructions "
      f"(~{np.mean([g.n for g in ensemble]):.0f} vertices each)\n")

# Immunize 5% of the population, then average 100 outbreak simulations.
budget = round(0.05 * net.n)
sir = SirParams()
runs = 100
print(f"budget {budget} vaccinations, {runs} simulated outbreaks each\n")

strategies = (
    ("true hubs (full knowledge)", "underlying-top"),
    ("reconstructed hubs", "reconstructed-top"),
    ("frequently-seen people", "reconstructed-frequency-random"),
    ("uniformly random people", "random-whole"),
)
print(f"{'strategy':<28} mean outbreak size")
for label, kind in strategies:
    order = immunization_order(net, StrategySpec(kind), seed=200,
                               ensemble=ensemble, projections=projections)
    out = evaluate_strategy(net, order[:budget], sir, runs, seed=200)
    print(f"{label:<28} {out.mean:8.1f} ± {out.std:.1f}")

print("\nReconstructed hubs recover most of the benefit of knowing the")
print("real network, and clearly beat both cruder uses of the samples.")
