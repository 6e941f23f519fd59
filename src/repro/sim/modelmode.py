"""Model-coupled observation semantics (the paper's simulator model).

The paper's analysis (§5) generates pair flips *from the geometry*: a pair
whose uncertain area contains the target flips, and a k-sample grouping
captures that flip with probability ``1 - (1/2)^(k-1)``; outside the area
the ordering is read correctly.  Its evaluation figures are consistent
with this coupling — in particular the Fig. 12(a) sensitivity to the
sensing resolution epsilon, which a faithful physical-noise channel at
Table 1's sigma = 6 dB washes out (noise, not the comparator, dominates;
see EXPERIMENTS.md).

This module reproduces those semantics: observations are sampling vectors
drawn directly from the Eq. 3/4 uncertain-area model, with no separate
RSS noise process.  The physical RSS channel remains the default for all
other experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.sampling_times import miss_probability
from repro.core.matching import ExhaustiveMatcher
from repro.core.tracker import TrackEstimate, TrackResult
from repro.geometry.apollonius import classify_points_pairwise
from repro.geometry.faces import FaceMap
from repro.rng import ensure_rng

__all__ = ["ModelSampler", "run_model_tracking"]


@dataclass
class ModelSampler:
    """Draws sampling vectors from the paper's flip model.

    Parameters
    ----------
    nodes : (n, 2) sensor positions.
    c : uncertainty constant defining the pair bands (paper Eq. 3).
    k : grouping-sampling size; the flip-miss probability is (1/2)^(k-1),
        so ``k = 1`` reads every uncertain pair as a fair coin: the one-shot
        detection sequence the certain-sequence baselines observe.
    sensing_range : optional hearing radius (Eq. 6 semantics for silent pairs).
    """

    nodes: np.ndarray
    c: float
    k: int = 5
    sensing_range: "float | None" = None

    def __post_init__(self) -> None:
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        if self.c < 1.0:
            raise ValueError(f"uncertainty constant must be >= 1, got {self.c}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if len(self.nodes) < 2:
            raise ValueError(f"need at least two nodes, got {len(self.nodes)}")

    @property
    def miss_prob(self) -> float:
        return miss_probability(self.k)

    def true_signature(self, position: np.ndarray) -> np.ndarray:
        """Exact (non-rasterized) signature of the target position.

        Vectorized over leading dimensions: ``(..., 2)`` positions give
        ``(..., P)`` signatures from one classifier call.
        """
        position = np.asarray(position, dtype=float)
        sig = classify_points_pairwise(
            position.reshape(-1, 2), self.nodes, self.c, sensing_range=self.sensing_range
        )
        return sig.reshape(position.shape[:-1] + sig.shape[-1:]).astype(float)

    def sample_group_vector(self, position: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """FTTT grouping-sampling vector under the model.

        Certain pairs read correctly; uncertain pairs are captured as
        flipped (0) with probability ``1 - f`` and otherwise appear ordinal
        in a uniformly random direction (§5.1's miss event).  Vectorized
        like :meth:`true_signature`; vectors draw from *rng* in order.
        """
        out = self.true_signature(position)
        for vec in out.reshape(-1, out.shape[-1]):
            uncertain = vec == 0.0
            n_unc = int(uncertain.sum())
            if n_unc:
                missed = rng.random(n_unc) < self.miss_prob
                directions = rng.choice([-1.0, 1.0], size=n_unc)
                vec[uncertain] = np.where(missed, directions, 0.0)
        return out


def run_model_tracking(
    face_map: FaceMap,
    sampler: ModelSampler,
    positions: np.ndarray,
    times: np.ndarray,
    rng: "np.random.Generator | int | None" = None,
) -> TrackResult:
    """Track a position sequence under model-mode observations, matching
    each round's grouping vector exhaustively.

    Parameters
    ----------
    face_map : map whose signatures the vectors are matched against.
    sampler : the model-mode observation source.
    positions : (T, 2) true target positions per round.
    times : (T,) round times.
    """
    rng = ensure_rng(rng)
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    times = np.asarray(times, dtype=float)
    if len(positions) != len(times):
        raise ValueError("positions and times must have equal length")

    # one classifier call draws every vector (each round's draws in order),
    # then one batched match: row-identical to matching round by round
    vectors = sampler.sample_group_vector(positions, rng)
    matches = ExhaustiveMatcher(face_map).match_many(vectors)
    result = TrackResult()
    for t, p, match in zip(times, positions, matches):
        result.append(
            TrackEstimate(
                t=float(t),
                position=match.position,
                face_ids=match.face_ids,
                sq_distance=match.sq_distance,
                n_reporting=len(sampler.nodes),
                visited_faces=match.visited,
            ),
            p,
        )
    return result
