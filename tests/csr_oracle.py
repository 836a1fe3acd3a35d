"""The checks `CsrMatrix` and `LabeledDataset` ran when they were built, before
their checks were rewritten to allocate at most one bool per entry, kept as
the reference the new checks must agree with on every layout: the same
ValueError, with the same message, exactly when these raise one.

They build an int64 "previous index" array and three boolean masks the size
of the entries, so they only suit small data.
"""

import numpy as np


def check_csr(m) -> None:
    """What `CsrMatrix.__post_init__` checked, on anything with its fields."""
    if m.indptr[0] != 0 or np.any(np.diff(m.indptr) < 0):
        raise ValueError("indptr must start at 0 and never decrease")
    if not len(m.indices) == len(m.data) == m.indptr[-1]:
        raise ValueError("indices and data must hold indptr[-1] entries")
    # Each index must exceed its predecessor in the row, with -1 standing
    # in before a row's first entry, and stay below the dimension.
    previous = np.concatenate(([-1], m.indices))[:-1]
    previous[m.indptr[:-1][np.diff(m.indptr) > 0]] = -1
    if not np.all((previous < m.indices) & (m.indices < m.dimension)):
        raise ValueError("indices must lie in [0, dimension) and strictly increase within a row")


def check_labeled(d) -> None:
    """What `LabeledDataset.__post_init__` checked, on anything with its fields."""
    check_csr(d)
    if len(d.labels) != len(d.indptr) - 1:
        raise ValueError("rows and labels must have equal length")
    if not np.all((0 <= d.labels) & (d.labels < d.num_classes)):
        raise ValueError(f"labels must lie in [0, {d.num_classes})")
    if not np.all((0 < d.data) & (d.data < np.inf)):
        raise ValueError("entry counts must be positive and finite")
