"""Balanced sampling of training examples (Section 4.3).

A heavily unbalanced example set lets a trivial explanation look precise
(if 99% of pairs performed as observed, the empty explanation already has
precision 0.99).  The paper keeps each example with a probability inversely
proportional to its class frequency — ``sample_size / (2 * count(c))``,
capped at 1 — so that the sample contains roughly the same number of
OBSERVED and EXPECTED pairs with an *expected* total of ``sample_size``.

**Deliberate deviation from the paper:** this implementation replaces the
per-item keep-probability pass with deterministic *exact-size* stratified
sampling.  Each class's target is half of ``sample_size`` (never
redistributed, matching the capped probability's expectation
``min(count(c), sample_size / 2)``), and a seeded partial shuffle
(``random.Random.sample``) draws exactly that many items per class.  The
paper's 50/50 balance target is preserved while the sample size stops being
a random variable, and the kept subset depends only on the item order,
labels and seed — never on interleaving between classes.
"""

from __future__ import annotations

import random
from itertools import compress
from operator import not_
from typing import Sequence


def stratified_keep_indices(
    observed: Sequence[int],
    sample_size: int,
    rng: random.Random | None = None,
) -> list[int] | None:
    """Indices of an exact-size class-balanced sample, in original order.

    ``observed`` holds one flag per item, ``1`` for an item labeled
    OBSERVED and ``0`` for EXPECTED (a ``bytes``-like, as
    :func:`~repro.core.examples.observed_flags` makes); the classes are
    split with ``compress`` over it at C level.  Per class the target is
    half of ``sample_size`` (OBSERVED receives the remainder of an odd
    size); classes smaller than their target are kept whole without
    redistributing the slack, so the result can be smaller than
    ``sample_size`` when one class is scarce — exactly the expectation of
    the paper's capped keep probability.

    :returns: sorted kept indices, or ``None`` when everything is kept
        (``len(observed) <= sample_size``).
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    rng = rng if rng is not None else random.Random(0)
    if len(observed) <= sample_size:
        return None
    half = sample_size // 2
    rows = range(len(observed))
    kept: list[int] = []
    for flags, target in ((observed, sample_size - half), (map(not_, observed), half)):
        indices = list(compress(rows, flags))
        if len(indices) <= target:
            kept.extend(indices)
        else:
            kept.extend(rng.sample(indices, target))
    kept.sort()
    return kept
