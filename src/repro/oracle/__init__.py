"""Slow-but-obviously-correct reference tier (the *oracle* layer).

Every module here re-derives a piece of the paper's math directly from the
equations, with scalar loops and none of the production optimizations:

* :mod:`repro.oracle.geometry` — face signatures sampled from Apollonius
  *circle membership* (Eq. 3-4, Definition 2), cross-checking the
  distance-ratio classification of :mod:`repro.geometry.apollonius` and
  the face grouping of :mod:`repro.geometry.faces`;
* :mod:`repro.oracle.matching` — per-pair loop sampling vectors
  (Algorithm 1, Definitions 4/10, the Eq. 6 fill), scalar Eq. 7 masked
  distances, and naive per-face exhaustive maximum-likelihood matching
  (Definition 7), and the scalar Algorithm 2 climb with its fallback
  gate, cross-checking :mod:`repro.core.vectors`,
  :mod:`repro.core.matching`, :mod:`repro.core.heuristic` and the batched
  :meth:`~repro.geometry.faces.FaceMap.distances_to_many` GEMM path;
* :mod:`repro.oracle.tracking` — a round-by-round scalar tracker
  (including a literal mirror of the degradation policy), cross-checking
  :class:`repro.core.tracker.FTTTracker`;
* :mod:`repro.oracle.analysis` — Monte-Carlo estimators for the §5.1
  sampling-times bound and the Appendix-II inter-face error
  ``E_N = N*f``, cross-checking :mod:`repro.analysis.sampling_times` and
  :mod:`repro.analysis.error_bounds`;
* :mod:`repro.oracle.fuzz` — the seeded differential fuzzing harness that
  runs randomized scenarios through both tiers and shrink-reports the
  first divergence as a replayable JSON artifact.

The contract: oracle code may be arbitrarily slow, but each function must
be an independent transcription of the paper (or of the documented
production semantics), so that agreement between the two tiers is
evidence of correctness rather than of shared bugs.
"""

from repro.oracle.analysis import (
    check_sampling_times_bound,
    mc_flip_capture,
    mc_interface_error,
)
from repro.oracle.geometry import (
    dense_signatures,
    oracle_face_adjacency,
    oracle_pair_value,
    pair_value_is_ambiguous,
    verify_face_map,
)
from repro.oracle.matching import (
    oracle_climb,
    oracle_masked_sq_distance,
    oracle_match,
    oracle_sampling_vector,
)
from repro.oracle.tracking import OracleEstimate, oracle_track

__all__ = [
    "oracle_pair_value",
    "pair_value_is_ambiguous",
    "dense_signatures",
    "verify_face_map",
    "oracle_face_adjacency",
    "oracle_sampling_vector",
    "oracle_masked_sq_distance",
    "oracle_match",
    "oracle_climb",
    "OracleEstimate",
    "oracle_track",
    "mc_flip_capture",
    "mc_interface_error",
    "check_sampling_times_bound",
]
