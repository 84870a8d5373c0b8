"""Hand-built instances shared across test modules."""

import math

import numpy as np

from knapsub import (
    CoverageObjective,
    Element,
    Instance,
    ModularObjective,
    SubmodularOracle,
    normalize,
)

# Three items: two complementary halves and one slightly denser spoiler that
# blocks them.  The optimum {1, 2} is worth 1.0; density order grabs item 3.
TIGHT_VALUES = {1: 0.5, 2: 0.5, 3: 0.6}
TIGHT_RAW_COSTS = [(1, 0.5), (2, 0.5), (3, 0.55)]
TIGHT_CAPACITY = 1.0


def tight_instance():
    instance = normalize(TIGHT_RAW_COSTS, TIGHT_CAPACITY)
    objective = ModularObjective(TIGHT_VALUES)
    return instance, objective


def tight_oracle():
    instance, objective = tight_instance()
    return instance, SubmodularOracle(instance, objective.value)


class NanProbe(CoverageObjective):
    """|S|/6 on six isolated vertices, except ``bad`` (NaN or an infinity)
    on every set of two or more items that holds id 2.  Singletons stay
    finite, so only a query on a grown set meets the bad value."""

    def __init__(self, bad):
        super().__init__([[] for _ in range(6)])
        self.bad = bad

    def _answer(self, cover: int, value: float) -> float:
        # an isolated vertex covers only itself: the cover is the set
        return self.bad if cover >> 2 & 1 and cover.bit_count() >= 2 else value

    def value(self, ids):
        return self._answer(self.extend(None, ids), super().value(ids))

    def value_with(self, state, eid):
        return self._answer(self.extend(state, (eid,)),
                            super().value_with(state, eid))

    def values_with(self, state, ids):
        return np.array([self._answer(self.extend(state, (eid,)), v) for eid, v
                         in zip(ids.tolist(), super().values_with(state, ids))])


def nan_probe(bad, path):
    """The probe's six unit items with K=3, and its objective as the solver
    sees it: the protocol object (``"protocol"``) or a plain callable."""
    objective = NanProbe(bad)
    instance = Instance([Element(i, 1.0) for i in range(6)], 3.0)
    fn = objective if path == "protocol" else (lambda ids: objective.value(ids))
    return instance, SubmodularOracle(instance, fn)


NONFINITE = (math.nan, math.inf, -math.inf)
