"""Fixed reference load: the benchmark's gauge of the host's current speed.

run.py runs this program in a fresh process before and after every timed
child.  It does not import lybandit, so no change to the package moves its
wall time; only the host does.  Its mix follows the workloads: interpreter
start, the numpy import, small (1024, 10) array operations and a short pure
Python loop per step.
"""

import numpy as np

rng = np.random.default_rng(1)
values = rng.random((1024, 10))
rows = np.arange(1024)
total = 0.0
for _ in range(1500):
    shifted = values * 1.0001 + 0.5
    total += float(shifted[rows, np.argmax(shifted, axis=1)].sum())
    acc = 0
    for k in range(40):
        acc += k * k % 7
print(total)
