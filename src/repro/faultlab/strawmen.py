"""Strawman trackers the fault lab benchmarks against.

These exist to quantify what the paper's Eq. 6/7 machinery (and the
degradation policy on top of it) actually buys: each strawman is FTTT
with one defense knocked out, run over the *same* batch streams.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracker import FTTTracker

__all__ = ["ZeroFillFTTT"]


class ZeroFillFTTT(FTTTracker):
    """FTTT with naive zeroing instead of Eq. 7 masking.

    Every ``*`` pair value (non-reporting or suppressed sensors) is
    forced to a plain 0 before matching — what a port unaware of the
    masking semantics would do.  A 0 asserts "these two sensors heard
    the target equally", which actively pulls the match toward faces
    on the pair's bisector; the paper's ``*`` instead removes the pair
    from the distance entirely.
    """

    def build_vectors(self, rss_stack: np.ndarray) -> np.ndarray:
        v = super().build_vectors(rss_stack)
        return np.where(np.isnan(v), 0.0, v)
