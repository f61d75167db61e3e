"""
Anatomy of an anonymous sample
==============================

Generate a small benchmark network, interview a handful of its members,
and inspect exactly what the interviewer keeps: vertex-disjoint paths of
respondents, each naming a few friends by a coarse category interval —
never by identity.
"""

import numpy as np

from netrecon import (FRIEND, RESPONDENT, LfrParams, assign_attributes,
                      discretized_normal, elicit_friends, generate_lfr_like,
                      sample_paths, true_network)

# 1. The hidden population: 400 people in tight communities.
params = LfrParams(n=400, k_avg=8, k_max=25, mu=0.2, tau1=2.5, tau2=1,
                   c_min=10, c_max=40, seed=7)
net, communities = generate_lfr_like(params)
print(f"underlying network: {net.n} people, {net.m} ties, "
      f"{int(communities.max()) + 1} communities")

# 2. Everyone carries one of 50 categories (ages, say), bell-shaped.
dist = discretized_normal(50)
attrs = assign_attributes(net.n, dist, seed=8)

# 3. Field work: 32 respondents recruited along random-neighbor paths.
#    Paths never revisit a person, so every respondent is interviewed once.
paths = sample_paths(net, 32, "rpm", seed=9)
n_paths = len(paths)
print(f"recruited {sum(len(p) for p in paths)} respondents "
      f"on {n_paths} vertex-disjoint path{'s' if n_paths != 1 else ''}")

# 4. Each respondent reports their own exact category and names up to
#    f = 3 friends, describing each one only by a width-2 interval.
forest = elicit_friends(net, attrs, paths, max_friends=3, width=2, seed=10)
print(f"forest: {forest.size} occurrences = {forest.n_r} respondents "
      f"+ {forest.n_f} friend reports")

# 5. Walk the start of the first recruitment tree: this is everything
#    the interviewer gets to keep.
first = np.flatnonzero(forest.tree == forest.tree[0])
shown = first[:16]
print("\nfirst tree, as the interviewer sees it:")
for occ in shown:
    occ = int(occ)
    lo, hi = int(forest.lo[occ]), int(forest.hi[occ])
    p = int(forest.parent[occ])
    if forest.kind[occ] == RESPONDENT:
        role = "respondent (seed)" if p < 0 else f"respondent, recruited by #{p}"
    else:
        role = f"friend named by #{p}"
    span = f"category {lo}" if lo == hi else f"categories {lo}-{hi}"
    print(f"  #{occ:<3d} {role:<29} -> {span}")
if first.size > shown.size:
    print(f"  ... and {first.size - shown.size} more occurrences in this tree")

# 6. The interviewer never sees this part: who the occurrences really
#    are.  The same person can be named by several respondents, which is
#    precisely the redundancy reconstruction will exploit.
people = np.unique(forest.truth)
print(f"\nhidden truth: the {forest.size} occurrences cover "
      f"{people.size} distinct people")
repeats = forest.size - people.size
print(f"{repeats} occurrences are repeat appearances")

# 7. The sampled-truth network: the subgraph the forest actually touched.
tnet, _ = true_network(forest)
print(f"the forest touched {tnet.n} people and {tnet.m} real ties")
