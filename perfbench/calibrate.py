"""Host-speed probe: times a fixed mix of interpreter work in its own process.

    python3 perfbench/calibrate.py      # prints the seconds the mix took

The mix resembles the package's hot paths without using its code: building,
sorting and looking up small tuples and strings (like canonical labelling and
enumeration), and float arithmetic on nested lists (like the pure-Python
eigensolver).  run.py runs it between iterations; the shared host runs the
same work up to 1.5x slower for stretches of tens of seconds, and this
probe's time follows those swings.  Being a separate process, it leaves the
workload's peak RSS alone.
"""

from __future__ import annotations

import random
import time


def mix() -> None:
    rng = random.Random(1)
    objs = [(rng.random(), i, str(i)) for i in range(100000)]
    by_name = {o[2]: o for o in objs}
    objs.sort()
    total = 0
    for _ in range(100000):
        total += by_name[str(rng.randrange(100000))][1]
    n = 16
    a = [[((i * 7 + j * 3) % 11) / 11.0 for j in range(n)] for i in range(n)]
    v = [1.0] * n
    for _ in range(500):
        w = [sum(row[j] * v[j] for j in range(n)) for row in a]
        top = max(abs(x) for x in w)
        v = [x / top for x in w]


def main() -> None:
    start = time.perf_counter()
    mix()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
