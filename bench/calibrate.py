"""Fixed reference work for speed correction; never imports psalience.

The benchmark times this script in a fresh interpreter between pipelines.
Its mix mirrors the pipeline: interpreter start-up and the numpy import,
a pure-Python record loop, many small axis reductions, large allocations
and a matrix product.
"""

import numpy as np

rows = [(f"v{i % 3}", f"v{i % 5}", str(i)) for i in range(40_000)]
groups: dict[str, int] = {}
for a, b, c in rows:
    groups[a + b] = groups.get(a + b, 0) + len(c)

cube = np.linspace(1.0, 2.0, 4096).reshape((2,) * 12)
for axes in range(1, 800):
    picked = tuple(i for i in range(12) if axes >> i & 1)
    g = cube.mean(axis=picked).ravel()
    np.linalg.norm(g - g.mean())

block = np.empty((4096, 512))
for column in range(0, 512, 64):
    block[:, column:column + 64] = np.kron(np.ones(64), cube.ravel()[:, None])[:, :64]

y = np.linspace(0.0, 1.0, 250_000).reshape(500, 500)
for _ in range(3):
    y = y @ y / 500.0
