"""A fixed reference job that measures how fast the machine is right now.

``run.py`` starts this script as a child after every operation and
divides the operation's wall and CPU time by this child's.  The job is
the same on every run and does not import fairpace, so a change to the
program cannot move it; only the machine can.  It mixes the kinds of
work one ``fairpace run`` does: an interpreter start and ``import
numpy``, a per-item Python loop like ``dynamics``, ``np.unique`` on
rows like the duplicate merge in ``eg``, and many small numpy steps
like the solver's fixed-point iterations.
"""

import numpy as np

rng = np.random.default_rng(20240601)
values = rng.random((8_000, 10))

utilities = [0.0] * 10
for row in values.tolist():
    best = max(range(10), key=lambda i: row[i] / (1.0 + utilities[i]))
    utilities[best] += row[best]

coarse = np.round(values * 3)
for _ in range(6):
    np.unique(coarse, axis=0, return_inverse=True)

small = values[:256]
beta = np.ones(10)
for _ in range(1_500):
    bids = small * beta
    prices = bids.max(axis=1)
    share = (bids >= prices[:, None]) / np.maximum((bids >= prices[:, None]).sum(axis=1), 1)[:, None]
    beta = np.clip(0.1 / np.maximum((small * share).sum(axis=0), 1e-12), 1e-3, 1e3)

if not np.isfinite(beta).all() or sum(utilities) <= 0:
    raise SystemExit(1)
