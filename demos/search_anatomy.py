#!/usr/bin/env python3
"""Step through one best-first search by hand and narrate the tree.

Uses the low-level expansion API instead of aomp_recover so every
iteration shows which path was chosen, how the residue fell and how many
paths stayed alive under the replacement rules.
"""

from treepursuit.astar import AompConfig, expand, init_search, select_best_incomplete
from treepursuit.linalg import check_problem
from treepursuit.siggen import gen_problem

M, N, K, SEED = 24, 64, 8, 11


def main():
    ens, inst = gen_problem(M, N, K, "gaussian", SEED)
    cfg = AompConfig(initial_paths=3, branch=2, max_paths=30, kmax=16, audit=True)
    problem = check_problem(ens.phi, inst.y)
    trie, done = init_search(problem, cfg)
    ynorm = problem.ynorm
    print("true support:", sorted(inst.support))
    print("seeded %d single-atom paths, ||y|| = %.4f" % (trie.live_count, ynorm))

    it = 0
    while done is None:
        it += 1
        best = select_best_incomplete(trie)
        if best is None:
            print("every live path closed, no solution at the residue target")
            return
        residue = best.norms[-1] / ynorm
        report = expand(trie, best, cfg)
        print(
            "iter %2d: extend %-28s residue %.2e  live %2d  "
            "accepted %d  equivalent-hits %d"
            % (
                it,
                str(sorted(best.support)),
                residue,
                trie.live_count,
                report.accepted,
                report.equivalent_hits,
            )
        )
        done = report.terminated

    print("\nfinished after %d expansions: %s" % (it, str(sorted(done.support))))
    print("recovered exactly:", sorted(done.support) == sorted(inst.support))


if __name__ == "__main__":
    main()
