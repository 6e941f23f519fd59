"""Direct MLE baseline (paper's "[24]" comparator).

Sequence-based localization: the field is divided by perpendicular
bisectors only (every comparison assumed reliable), each face carries the
ideal detection sequence of its region, and each localization round is
matched *independently* — no use of uncertainty, no temporal coupling.
This is precisely the strategy §3.2 shows breaking down: near bisectors
the observed sequence flips, and the matched face jumps around.

It is therefore the exhaustive :class:`~repro.core.tracker.FTTTracker` on
the certain map, fed pairwise sign vectors instead of Algorithm 1's
sampling vectors: the same per-round step and batched trace matching.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.sequences import sign_vectors_from_rss
from repro.core.tracker import FTTTracker
from repro.geometry.faces import FaceMap

__all__ = ["DirectMLETracker"]


class DirectMLETracker(FTTTracker):
    """Independent per-round sequence matching over the certain face map.

    Parameters
    ----------
    face_map : a *certain* face map
        (:func:`repro.geometry.faces.build_certain_face_map`).

    Each grouping sampling collapses to one detection sequence by averaging
    the group: the strongest fair reading of the data FTTT sees.
    """

    def __init__(self, face_map: FaceMap) -> None:
        super().__init__(face_map, matcher="exhaustive")

    def build_vectors(self, rss_stack: np.ndarray) -> np.ndarray:
        """``(T, k, n)`` round stack -> ``(T, P)`` pairwise sign vectors."""
        return sign_vectors_from_rss(rss_stack, self._pairs)
