#!/usr/bin/env python3
"""When is the two-stage solver worth it?

The two-stage solver runs plain greedy pursuit first and falls back to
the tree search only when the greedy answer misses the residue target.
Its second stage is the plain tree search, so a fallback instance gets
exactly the answer of the full search.  On easy sparsity levels almost
every instance stops at stage one, so the mean cost drops toward greedy
cost.
"""

import time

from treepursuit.astar import AompConfig, aomp_recover, hybrid_recover
from treepursuit.siggen import derive_seed, gen_problem

N, M, TRIALS, BASE_SEED = 256, 100, 30, 20260815


def main():
    cfg = AompConfig(kmax=70)
    print("N=%d M=%d trials=%d" % (N, M, TRIALS))
    print("%4s %10s %10s %8s %10s" % ("K", "plain ms", "staged ms", "same", "stage one"))
    for k in (10, 15, 20, 25, 30):
        t_plain = t_staged = 0.0
        same = stage_one = 0
        for t in range(TRIALS):
            ens, inst = gen_problem(M, N, k, "gaussian", derive_seed(BASE_SEED, "trial", t))
            t0 = time.perf_counter()
            plain = aomp_recover(ens.phi, inst.y, cfg)
            t_plain += time.perf_counter() - t0
            t0 = time.perf_counter()
            staged = hybrid_recover(ens.phi, inst.y, cfg, k)
            t_staged += time.perf_counter() - t0
            same += sorted(plain.support) == sorted(staged.support)
            stage_one += staged.hybrid_stage == "omp"
        print(
            "%4d %10.2f %10.2f %7.0f%% %9.0f%%"
            % (
                k,
                1e3 * t_plain / TRIALS,
                1e3 * t_staged / TRIALS,
                100.0 * same / TRIALS,
                100.0 * stage_one / TRIALS,
            )
        )


if __name__ == "__main__":
    main()
