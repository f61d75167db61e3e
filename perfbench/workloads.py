"""The benchmark's workloads: netrecon sweep configs built from a seed.

Every workload uses the paper-scale HEAVY network (n = 1460, k_avg = 10,
k_max = 100, tau1 = 2.5, tau2 = 1, mu = 0.2, communities of 10-50,
normal category distribution, f = 5, n_r_frac = 0.08) unless it says
otherwise.  README.md explains why each one was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

HEAVY = """\
network = lfr
n = {n}
k_avg = 10
k_max = 100
tau1 = 2.5
tau2 = 1
mu = 0.2
c_min = 10
c_max = 50
distribution = normal
f = 5
n_r_frac = 0.08
"""

STRATEGIES = ("underlying-top:degree,reconstructed-top:degree,"
              "reconstructed-top:k_out,reconstructed-frequency-random,"
              "random-whole")


@dataclass(frozen=True)
class Workload:
    name: str
    body: str        # config lines on top of the HEAVY network
    stage: str       # run_pipeline stage
    n: int = 1460

    def config_text(self, seed: int, out: str) -> str:
        return (HEAVY.format(n=self.n) + self.body
                + f"seed = {int(seed)}\nout = {out}\n")


WORKLOADS = {w.name: w for w in (
    # The paper's precision / community / rank sweep.  make_assortative
    # dominates; generate runs once per task for one distinct network.
    Workload("sweep-heavy", stage="metrics", body="""\
g = 50
c = 1
method = rpm,hpm
assortative = false,true
repetitions = 1
"""),
    # One large forest: the candidate-pair index and the coalescing loop
    # dominate, make_assortative never runs.
    Workload("coalesce-large", stage="metrics", n=5000, body="""\
g = 20
c = 3
method = rpm
assortative = false
repetitions = 1
"""),
    # The sample-size experiment: at n_t_frac 0.02 every ensemble member
    # stalls and burns its attempt budget; SIR runs dominate the rest.
    Workload("epidemic-ntsweep", stage="epidemic", body=f"""\
g = 50
c = 1
method = hpm
n_t_rule = fraction-of-n
n_t_frac = 0.02,0.08
epidemic = true
ensemble = 10
budgets = 0.01
sir_runs = 100
strategies = {STRATEGIES}
"""),
)}
