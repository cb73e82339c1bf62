"""A fixed reference load that measures how fast the host runs right now.

    python3 bench/reference.py        # prints one reference time in seconds

The host the benchmark runs on is shared: the same command's wall time
drifts by up to 2x over minutes while nothing in the command changes, and
its CPU time drifts with it.  Each command therefore also times this load,
in its own interpreter right after the command returns, and ``run.py``
scales the run's mean times by ``NOMINAL_S`` over the run's mean reference
time.  The load uses nothing from the package under test, so a change to
the program moves the command's time but not the reference.

It mixes the kinds of work the workloads spend their time on: numpy calls
on scalars and small arrays (the allocation function and the engine's
steps), pure-Python graph search over adjacency lists and dicts (the
weighted prefix oracle), and scipy's Hopcroft-Karp matching (the
unit-weight prefix oracle).  numpy and scipy are imported on first use, so
the measuring process can read ``NOMINAL_S`` without loading them.
"""

from __future__ import annotations

import random
import time
from collections import deque

# A typical reference time on the 2-vCPU Intel Xeon virtual machine the
# benchmark was tuned on; scaled times read in seconds at that speed.
NOMINAL_S = 0.25

_SMALL_CALLS = 6000
_BFS_ROUNDS = 36
_GRAPH_N = 2000
_MATCHINGS = 12


def _small_numpy(rounds: int) -> float:
    import numpy as np

    acc = 0.0
    z = np.linspace(0.0, 1.0, 16)
    for i in range(rounds):
        x = np.asarray((i % 97) / 97.0, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError(x)
        y = np.power(np.maximum(1.2 - np.clip(x, 0.0, 1.0), 0.0), 0.6)
        acc += float(y) + float(np.max(z * y))
    return acc


def _graph(rng: random.Random) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(_GRAPH_N)]
    for u in range(_GRAPH_N):
        for _ in range(4):
            v = rng.randrange(_GRAPH_N)
            adj[u].append(v)
            adj[v].append(u)
    return adj


def _bfs(adj: list[list[int]], rounds: int) -> int:
    total = 0
    for source in range(rounds):
        level = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        total += sum(level.values())
    return total


def _matchings(rng: random.Random, rounds: int) -> int:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = 3000
    rows = np.repeat(np.arange(n), 8)
    cols = np.array([rng.randrange(n) for _ in range(8 * n)])
    graph = csr_matrix((np.ones(8 * n), (rows, cols)), shape=(n, n))
    matched = 0
    for _ in range(rounds):
        matched += int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
    return matched


def reference_s() -> float:
    """Wall time of one fixed reference load, in seconds."""
    import scipy.sparse.csgraph  # noqa: F401  (imported before the clock starts)

    rng = random.Random(0)
    start = time.perf_counter()
    _small_numpy(_SMALL_CALLS)
    _bfs(_graph(rng), _BFS_ROUNDS)
    _matchings(rng, _MATCHINGS)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(f"{reference_s():.4f}")
