"""FTTT tracker facade.

Binds together the face map, the sampling-vector construction, and a
matcher into the strategy of Fig. 4: per localization round, build the
(basic or extended) sampling vector from the grouping sampling and match
it into a face; the face centroid (mean of tied faces) is the estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

from repro.core.heuristic import HeuristicMatcher
from repro.core.matching import ExhaustiveMatcher, MatchResult
from repro.core.vectors import (
    extended_sampling_vector,
    extended_sampling_vectors,
    sampling_vectors,
)
from repro.geometry.faces import FaceMap
from repro.geometry.primitives import enumerate_pairs
from repro.obs import metrics as obs
from repro.obs.tracing import trace_event
from repro.rf.channel import SampleBatch

__all__ = ["DegradationPolicy", "FTTTracker", "TrackEstimate", "TrackResult", "Tracker"]

Mode = Literal["basic", "extended"]
MatcherKind = Literal["heuristic", "exhaustive"]


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful-degradation knobs for tracking under value faults.

    The Eq. 6/7 machinery only defends against *omission*: a Byzantine or
    stuck sensor keeps reporting, so its pair values poison the sampling
    vector instead of vanishing into ``*``.  This policy adds three
    tracker-side defenses, each individually cheap and off by default
    (construct :class:`FTTTracker` with ``degradation=None`` — the
    shipped paper behaviour — to disable all of them):

    * **flip-rate suppression** — a per-pair exponentially-weighted
      *residual* rate is maintained across rounds: after each match, a
      pair scores ``|value - signature| / 2`` against the matched face's
      signature (0 = the pair agreed with the face the round settled on,
      1 = it voted the exact opposite).  Healthy pairs agree almost
      always, whatever their distance to the target; a stuck, drifted or
      Byzantine endpoint disagrees chronically.  Pairs whose residual
      EWMA stays above ``flip_threshold`` after warmup are demoted to
      ``*`` *before* the next round's matching, so Eq. 7 masks them
      exactly like pairs of silent sensors — and un-demote on their own
      once the EWMA decays back below the threshold;
    * **reporting quorum** — when fewer than ``min_reporting`` sensors
      delivered data, or more than ``max_masked_fraction`` of the pair
      values are ``*``, the round's vector carries too little signal to
      trust: the tracker holds the previous face instead of matching;
    * **extended tie-break** — when a weak round must still be matched
      (there is no previous face to hold yet), ties between
      equally-similar faces are re-scored by their agreement with the
      quantitative (Definition 10) vector of the same grouping sampling,
      which orders faces the qualitative vector cannot distinguish.
      (Applying the tie-break on *healthy* rounds measurably hurts —
      collapsing a tie loses the centroid averaging — so it is scoped
      to quorum-weak rounds only.)
    """

    flip_threshold: float = 0.3
    halflife_rounds: float = 10.0
    warmup_rounds: int = 10
    min_reporting: int = 3
    max_masked_fraction: float = 0.9
    tie_break: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.flip_threshold <= 1.0):
            raise ValueError(f"flip_threshold must be in (0, 1], got {self.flip_threshold}")
        if self.halflife_rounds <= 0:
            raise ValueError(f"halflife must be positive, got {self.halflife_rounds}")
        if self.warmup_rounds < 1:
            raise ValueError(f"warmup must be >= 1 round, got {self.warmup_rounds}")
        if self.min_reporting < 0:
            raise ValueError(f"min_reporting must be >= 0, got {self.min_reporting}")
        if not (0.0 < self.max_masked_fraction <= 1.0):
            raise ValueError(
                f"max_masked_fraction must be in (0, 1], got {self.max_masked_fraction}"
            )

    @property
    def ewma_alpha(self) -> float:
        """Per-round EWMA weight equivalent to the configured halflife."""
        return 1.0 - 0.5 ** (1.0 / self.halflife_rounds)


@dataclass(frozen=True)
class TrackEstimate:
    """One localization outcome."""

    t: float
    position: np.ndarray  # estimated (x, y)
    face_ids: np.ndarray  # best-matching face(s)
    sq_distance: float  # vector distance at the match
    n_reporting: int  # sensors that delivered data this round
    visited_faces: int  # matcher work (for complexity accounting)


@dataclass
class TrackResult:
    """A full tracking run: estimates plus aligned ground truth."""

    estimates: list[TrackEstimate] = field(default_factory=list)
    true_positions: list[np.ndarray] = field(default_factory=list)

    def append(self, estimate: TrackEstimate, true_position: np.ndarray) -> None:
        self.estimates.append(estimate)
        self.true_positions.append(np.asarray(true_position, dtype=float).reshape(2))

    @property
    def times(self) -> np.ndarray:
        return np.array([e.t for e in self.estimates])

    @property
    def positions(self) -> np.ndarray:
        if not self.estimates:
            return np.empty((0, 2))
        return np.stack([e.position for e in self.estimates])

    @property
    def truth(self) -> np.ndarray:
        if not self.true_positions:
            return np.empty((0, 2))
        return np.stack(self.true_positions)

    @property
    def errors(self) -> np.ndarray:
        """Per-round geographic tracking error in metres."""
        est, tru = self.positions, self.truth
        return np.hypot(est[:, 0] - tru[:, 0], est[:, 1] - tru[:, 1])

    @property
    def mean_error(self) -> float:
        e = self.errors
        return float(e.mean()) if len(e) else float("nan")

    @property
    def std_error(self) -> float:
        e = self.errors
        return float(e.std()) if len(e) else float("nan")

    def __len__(self) -> int:
        return len(self.estimates)


class Tracker:
    """The per-round contract every tracker shares.

    A tracker turns one grouping sampling, a raw ``(k, n)`` RSS matrix
    (NaN = missing), into a :class:`TrackEstimate` with :meth:`localize`;
    a subclass implements that and sets ``n_sensors``, the RSS width it
    accepts.  The rest is common: :meth:`localize_batch` stamps a round
    with its first sample time, :meth:`track` localizes the rounds in
    order *continuing from the tracker's state*, and :meth:`reset` starts
    a fresh trace.  A subclass overrides :meth:`track` only where a whole
    trace is cheaper than its rounds, building the trace's vectors with
    :meth:`_trace_vectors`.
    """

    n_sensors: int

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        """Localize from a raw ``(k, n)`` RSS matrix (NaN = missing)."""
        raise NotImplementedError

    def localize_batch(self, batch: SampleBatch) -> TrackEstimate:
        """Localize a :class:`~repro.rf.channel.SampleBatch`, stamped with
        its first sample time."""
        return self.localize(batch.rss, t=float(batch.times[0]))

    def track(self, batches: Iterable[SampleBatch]) -> TrackResult:
        """Localize each grouping sampling in order, continuing from the
        tracker's state (call :meth:`reset` first for a fresh trace)."""
        result = TrackResult()
        for batch in batches:
            result.append(self.localize_batch(batch), batch.mean_position)
        return result

    def reset(self) -> None:
        """Start a fresh trace (stateless trackers have nothing to clear)."""

    def _as_rss(self, rss: np.ndarray) -> np.ndarray:
        """One round's raw ``(k, n)`` RSS matrix, checked against ``n_sensors``."""
        rss = np.atleast_2d(np.asarray(rss, dtype=float))
        if rss.shape[1] != self.n_sensors:
            raise ValueError(
                f"rss has {rss.shape[1]} sensors but the tracker expects {self.n_sensors}"
            )
        return rss

    @staticmethod
    def _n_reporting(rss: np.ndarray) -> int:
        """Sensors that delivered at least one sample in a ``(k, n)`` round."""
        return int((~np.isnan(rss).all(axis=0)).sum())

    def _trace_vectors(
        self, batches: "list[SampleBatch]"
    ) -> "tuple[list[np.ndarray], np.ndarray]":
        """Each round's checked RSS matrix and the trace's ``(T, P)`` vectors
        from the subclass's ``build_vectors``: one call over the stacked
        trace when the rounds' shapes agree, else one ``T = 1`` call per
        round."""
        rounds = [self._as_rss(b.rss) for b in batches]
        if all(r.shape == rounds[0].shape for r in rounds):
            return rounds, self.build_vectors(np.stack(rounds))
        return rounds, np.stack([self.build_vectors(r[None])[0] for r in rounds])


class FTTTracker(Tracker):
    """The Fault-Tolerant Target-Tracking strategy.

    Parameters
    ----------
    face_map : divided monitor area with signature vectors.
    mode : ``"basic"`` uses Definition 4 pair values; ``"extended"`` uses
        the quantitative values of Definition 10 (§6), which break
        similarity ties and smooth the trajectory.
    matcher : ``"heuristic"`` = Algorithm 2 neighbor-link hill climbing
        (the paper's tracking algorithm); ``"exhaustive"`` = full scan.
    comparator_eps : RSS comparator deadband in dB (ties count as flips).
    degradation : optional :class:`DegradationPolicy` enabling flip-rate
        pair suppression, the reporting quorum, and the extended
        tie-break.  ``None`` (default) reproduces the paper exactly.
    """

    def __init__(
        self,
        face_map: FaceMap,
        *,
        mode: Mode = "basic",
        matcher: MatcherKind = "heuristic",
        comparator_eps: float = 0.0,
        soft_signatures: "bool | None" = None,
        degradation: "DegradationPolicy | None" = None,
    ) -> None:
        if mode not in ("basic", "extended"):
            raise ValueError(f"unknown mode {mode!r}")
        if matcher not in ("heuristic", "exhaustive"):
            raise ValueError(f"unknown matcher {matcher!r}")
        self.face_map = face_map
        self.n_sensors = face_map.n_nodes
        self.mode: Mode = mode
        self.comparator_eps = comparator_eps
        self._pairs = enumerate_pairs(face_map.n_nodes)
        # extended mode matches against the quantitative (soft) signatures
        # of §6 whenever they are attached to the face map
        if soft_signatures is None:
            soft_signatures = mode == "extended" and face_map.soft_signatures is not None
        if soft_signatures and face_map.soft_signatures is None:
            raise ValueError(
                "soft_signatures requested but none attached; call "
                "repro.core.extended.attach_soft_signatures(face_map, ...)"
            )
        self.soft_signatures = bool(soft_signatures)
        if matcher == "heuristic":
            self.matcher: "HeuristicMatcher | ExhaustiveMatcher" = HeuristicMatcher(
                face_map, soft=self.soft_signatures
            )
        else:
            self.matcher = ExhaustiveMatcher(face_map, soft=self.soft_signatures)
        self.degradation = degradation
        self._flip_ewma: "np.ndarray | None" = None
        self._flip_obs: "np.ndarray | None" = None
        self._prev_estimate: "TrackEstimate | None" = None

    # -- vector construction ------------------------------------------------

    def build_vector(self, rss: np.ndarray) -> np.ndarray:
        """Sampling vector for one grouping-sampling matrix: the ``T = 1``
        case of :meth:`build_vectors`."""
        return self.build_vectors(np.atleast_2d(np.asarray(rss, dtype=float))[None])[0]

    def build_vectors(self, rss_stack: np.ndarray) -> np.ndarray:
        """Batched Algorithm 1: ``(T, k, n)`` round stack -> ``(T, P)`` vectors.

        Every vector the tracker matches comes from here, so a subclass
        that changes the vectors overrides this method only.
        """
        if self.mode == "extended":
            return extended_sampling_vectors(
                rss_stack, self._pairs, comparator_eps=self.comparator_eps
            )
        return sampling_vectors(rss_stack, self._pairs, comparator_eps=self.comparator_eps)

    # -- localization ---------------------------------------------------------

    def localize(self, rss: np.ndarray, t: float = 0.0) -> TrackEstimate:
        """Localize from a raw ``(k, n)`` RSS matrix (NaN = missing)."""
        rss = self._as_rss(rss)
        return self._step(rss, self.build_vectors(rss[None])[0], t)

    def _step(self, rss: np.ndarray, vector: np.ndarray, t: float) -> TrackEstimate:
        """One round of the stateful strategy on its Algorithm 1 *vector*:
        suppression, quorum/hold, match, weak-round tie-break, residual
        update and the recorded estimate."""
        n_reporting = self._n_reporting(rss)
        raw_vector = vector
        weak = False
        if self.degradation is not None:
            vector = self._suppress_flippy_pairs(vector, t)
            weak = self._quorum_is_weak(vector, n_reporting)
            if weak:
                held = self._hold_previous(vector, n_reporting, t)
                if held is not None:
                    self._prev_estimate = self._estimate(held, t, n_reporting, vector)
                    return self._prev_estimate
        match: MatchResult = self.matcher.match(vector)
        if (
            self.degradation is not None
            and self.degradation.tie_break
            and weak
            and len(match.face_ids) > 1
        ):
            match = self._tie_break(match, rss, t)
        if self.degradation is not None:
            self._update_pair_residuals(raw_vector, match)
        self._prev_estimate = self._estimate(match, t, n_reporting, vector)
        return self._prev_estimate

    def _estimate(
        self, match: MatchResult, t: float, n_reporting: int, vector: np.ndarray
    ) -> TrackEstimate:
        """The round's estimate, recorded (when obs is on) as metrics and a
        trace event with the Eq. 7 ``*`` count of the matched *vector*."""
        est = TrackEstimate(
            t=t,
            position=match.position,
            face_ids=match.face_ids,
            sq_distance=match.sq_distance,
            n_reporting=n_reporting,
            visited_faces=match.visited,
        )
        if obs.enabled():
            masked_pairs = int(np.isnan(vector).sum())
            obs.counter("tracker.rounds").inc()
            obs.histogram("tracker.masked_pairs").observe(masked_pairs)
            obs.histogram("tracker.ties").observe(len(est.face_ids))
            trace_event(
                "round",
                t=est.t,
                mode=self.mode,
                face=int(est.face_ids[0]),
                n_ties=len(est.face_ids),
                sq_distance=est.sq_distance,
                masked_pairs=masked_pairs,
                n_reporting=est.n_reporting,
                visited_faces=est.visited_faces,
            )
        return est

    # -- graceful degradation -------------------------------------------------

    def _suppress_flippy_pairs(self, vector: np.ndarray, t: float) -> np.ndarray:
        """Demote chronically inconsistent pairs to ``*`` (Eq. 7 masks them).

        Pairs whose residual EWMA (see :meth:`_update_pair_residuals`)
        sits at or above the policy threshold after warmup chronically
        vote against the faces the tracker settles on — a stuck,
        drifted or Byzantine endpoint — and are masked before matching.
        The demotion is re-evaluated every round, so a pair recovers as
        soon as its EWMA decays back under the threshold.
        """
        pol = self.degradation
        if self._flip_ewma is None or len(self._flip_ewma) != len(vector):
            self._flip_ewma = np.zeros(len(vector))
            self._flip_obs = np.zeros(len(vector), dtype=np.int64)
        demote = (
            ~np.isnan(vector)
            & (self._flip_obs >= pol.warmup_rounds)
            & (self._flip_ewma >= pol.flip_threshold)
        )
        n_demoted = int(demote.sum())
        if n_demoted:
            vector = vector.copy()
            vector[demote] = np.nan
            if obs.enabled():
                obs.counter("tracker.degradation.suppression_rounds").inc()
                obs.histogram("tracker.degradation.suppressed_pairs").observe(n_demoted)
                trace_event(
                    "degradation", decision="suppress", t=t, suppressed_pairs=n_demoted
                )
        return vector

    def _update_pair_residuals(self, raw_vector: np.ndarray, match: MatchResult) -> None:
        """Score every observed pair against the face the round settled on.

        The residual ``|value - signature| / 2`` is 0 when the pair's
        ordering agrees with the matched face and 1 when it votes the
        exact opposite; its per-pair EWMA is the suppression signal read
        by :meth:`_suppress_flippy_pairs` at the *next* round.  Updating
        from the raw (pre-suppression) vector keeps demoted pairs under
        observation, so a healed sensor is readmitted once its residuals
        decay.  Empirically the two populations separate cleanly: healthy
        pairs sit below ~0.2 whatever their distance to the target, while
        stuck/drifted endpoints plateau near 0.5.
        """
        pol = self.degradation
        sigs = self.face_map.signature_matrix()[match.face_ids].astype(np.float64)
        sig = sigs.mean(axis=0) if len(match.face_ids) > 1 else sigs[0]
        valid = ~np.isnan(raw_vector)
        residual = np.abs(raw_vector[valid] - sig[valid]) / 2.0
        alpha = pol.ewma_alpha
        self._flip_ewma[valid] += alpha * (residual - self._flip_ewma[valid])
        self._flip_obs[valid] += 1

    def _quorum_is_weak(self, vector: np.ndarray, n_reporting: int) -> bool:
        """True when the round's vector carries too little signal to trust."""
        pol = self.degradation
        masked_fraction = float(np.isnan(vector).mean())
        return n_reporting < pol.min_reporting or masked_fraction > pol.max_masked_fraction

    def _hold_previous(
        self, vector: np.ndarray, n_reporting: int, t: float
    ) -> "MatchResult | None":
        """Hold the previous face through a quorum-weak round (None = no history)."""
        if self._prev_estimate is None:
            return None
        prev = self._prev_estimate
        if obs.enabled():
            obs.counter("tracker.degradation.quorum_fallbacks").inc()
            trace_event(
                "degradation",
                decision="quorum_fallback",
                t=t,
                n_reporting=n_reporting,
                masked_fraction=float(np.isnan(vector).mean()),
                held_face=int(prev.face_ids[0]),
            )
        return MatchResult(
            face_ids=prev.face_ids.copy(),
            sq_distance=float("inf"),  # similarity 0: the hold has no evidence
            position=prev.position.copy(),
            visited=0,
        )

    def _tie_break(self, match: MatchResult, rss: np.ndarray, t: float) -> MatchResult:
        """Re-score tied faces by agreement with the Definition 10 vector.

        Agreement is the inner product of each tied face's signature with
        the quantitative vector (``*`` pairs contribute 0) — sign
        agreement weighted by how decisive the quantitative value is,
        which avoids the bias a plain distance would give to all-zero
        signatures.
        """
        ext = extended_sampling_vector(rss, self._pairs, comparator_eps=self.comparator_eps)
        sigs = self.face_map.signature_matrix()[match.face_ids].astype(np.float64)
        prod = sigs * ext[None, :]
        prod = np.where(np.isnan(prod), 0.0, prod)
        agreement = prod.sum(axis=1)
        best = agreement.max()
        keep = agreement >= best - 1e-12
        if keep.all():
            return match  # the quantitative vector cannot separate them either
        face_ids = match.face_ids[keep]
        position = self.face_map.centroids[face_ids].mean(axis=0)
        if isinstance(self.matcher, HeuristicMatcher):
            self.matcher.last_face = int(face_ids[0])
        if obs.enabled():
            obs.counter("tracker.degradation.tie_breaks").inc()
            trace_event(
                "degradation",
                decision="tie_break",
                t=t,
                ties_before=len(match.face_ids),
                ties_after=len(face_ids),
            )
        return MatchResult(
            face_ids=face_ids,
            sq_distance=match.sq_distance,
            position=position,
            visited=match.visited,
        )

    # -- tracking -------------------------------------------------------------

    def track(self, batches: Iterable[SampleBatch]) -> TrackResult:
        """Track through a sequence of grouping samplings.

        Algorithm 1 is stateless, so every round's vector comes from one
        :meth:`build_vectors` call over the whole trace (one ``T = 1`` call
        per round when the rounds' sample counts differ).  Each round then
        runs the same step as :meth:`localize`: the heuristic matcher
        starts from the previous face (Algorithm 2's consecutive-tracking
        speedup) and the degradation policy carries its state forward.
        With neither kind of state (the exhaustive matcher, no
        degradation) that step's matching is one batched GEMM over the
        trace instead, bit-identical to the per-round step.
        """
        batches = list(batches)
        result = TrackResult()
        if not batches:
            return result
        rounds, vectors = self._trace_vectors(batches)
        if isinstance(self.matcher, ExhaustiveMatcher) and self.degradation is None:
            matches = self.matcher.match_many(vectors)
            for batch, rss, vector, match in zip(batches, rounds, vectors, matches):
                est = self._estimate(match, float(batch.times[0]), self._n_reporting(rss), vector)
                result.append(est, batch.mean_position)
            return result
        record = obs.enabled()
        for batch, rss, vector in zip(batches, rounds, vectors):
            t0 = time.perf_counter() if record else 0.0
            est = self._step(rss, vector, float(batch.times[0]))
            if record:
                obs.histogram("tracker.round_seconds").observe(time.perf_counter() - t0)
            result.append(est, batch.mean_position)
        return result

    def reset(self) -> None:
        """Clear matcher and degradation state (start a fresh trace)."""
        self.matcher.reset()
        self._flip_ewma = None
        self._flip_obs = None
        self._prev_estimate = None
