"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

The benchmark runs this as a child process after every timed command.  It
does two kinds of work, one after the other, because the host's speed
changes differently for each:

- interpreter-bound work: like an ``mbrep`` command, it starts an
  interpreter, imports numpy and then mixes dictionary work with small
  complex matrix products;
- BLAS-bound work: a full SVD of a fixed tall matrix, which the BLAS may
  spread over every core, as ``mbrep decompose`` does.

It prints the wall seconds of the BLAS part; the rest of the child's wall
time is the interpreter-bound part.  The work never changes, so its time
tracks only the speed of the host, and a command's time divided by the
calibration times around it stays steady when the host speeds up or slows
down between or within runs.
"""

import time

import numpy as np

ROUNDS = 60000
SVD_SHAPE = (1500, 250)


def main() -> None:
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(8)]
    table = {}
    acc = np.zeros((2, 2), complex)
    for i in range(ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc = mats[i % 8] @ acc * 0.5 + mats[(i + 3) % 8]
    tall = rng.normal(size=SVD_SHAPE)
    start = time.perf_counter()
    _, s, _ = np.linalg.svd(tall)
    wall = time.perf_counter() - start
    if not (np.isfinite(acc).all() and np.isfinite(s).all()) or sum(table.values()) != ROUNDS:
        raise SystemExit("calibration arithmetic went wrong")
    print(repr(wall))


if __name__ == "__main__":
    main()
