"""Seeded differential fuzzing: optimized kernels vs the oracle tier.

Each scenario is fully described by a :class:`FuzzSpec` — a flat, JSON
round-trippable record of every knob (deployment size, propagation
constants, fault schedule, degradation policy).  ``generate_spec`` draws
specs from ``SeedSequence([master_seed, index])``, so scenario *i* of a
campaign is the same bytes no matter how many workers ran it or in which
order — the property the workers-equality test pins with a digest.

``run_spec`` builds the world, runs the production kernels and the oracle
side by side, and reports every divergence across seven check families:

* ``face_signatures`` — built face map vs Apollonius circle membership;
* ``sampling_vector`` — vectorized Algorithm 1 vs per-pair loops (bitwise);
* ``masked_distances`` — float32 Eq. 7 distances vs scalar float64
  (bitwise in basic mode, structural in extended mode);
* ``match_winner`` — production tie set vs the naive full scan;
* ``batched_*`` — every batched kernel vs its own per-row path (bitwise),
  including ``FTTTracker.track`` vs the per-round ``localize`` loop for
  both matchers, with or without degradation;
* ``heuristic`` — Algorithm 2's climb from the previous target's face:
  bit-identical to the scalar oracle climb (basic mode), a local optimum
  over its 2-hop ring, and with fallback on either within the gate or the
  full scan's tie set; its agreement with the exhaustive winner is
  recorded in the stats, not checked;
* ``tracker_anchor`` / ``tracker_heuristic`` — the production round loop,
  exhaustive and Algorithm 2, vs the oracle tracker.

Node layouts are uniform, or one of three where a climb is most likely to
stall: collinear, clustered, and perimeter-only.

On divergence the harness greedily *shrinks* the spec (drop faults, turn
degradation off, halve rounds, coarsen the grid...) while the same check
keeps failing, then writes a replayable JSON artifact; ``fttt
replay-divergence <artifact>`` (or :func:`replay_divergence`) re-runs it.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing as mp
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.heuristic import HeuristicMatcher
from repro.core.tracker import DegradationPolicy, FTTTracker
from repro.core.vectors import (
    extended_sampling_vector,
    extended_sampling_vectors,
    sampling_vector,
    sampling_vectors,
)
from repro.geometry.apollonius import uncertainty_constant
from repro.geometry.faces import build_certain_face_map, build_face_map
from repro.geometry.grid import Grid
from repro.oracle.geometry import oracle_face_adjacency, verify_face_map
from repro.oracle.matching import (
    oracle_climb,
    oracle_masked_sq_distance,
    oracle_match,
    oracle_sampling_vector,
    oracle_tie_tolerance,
)
from repro.oracle.tracking import oracle_track
from repro.rf.channel import SampleBatch

__all__ = [
    "FuzzSpec",
    "generate_spec",
    "run_spec",
    "run_fuzz",
    "shrink_spec",
    "replay_divergence",
]

_EPS32 = float(np.finfo(np.float32).eps)
_MAX_C = 2.5  # clamp Eq. 3 so pathological noise draws keep a usable division
LAYOUTS = ("uniform", "collinear", "clustered", "perimeter")


@dataclass(frozen=True)
class FuzzSpec:
    """Complete, replayable description of one differential scenario."""

    seed: int
    n_nodes: int
    field_size: float
    cell_size: float
    beta: float  # path-loss exponent
    sigma: float  # shadowing noise sigma (dB)
    resolution_eps: float  # hardware resolution epsilon of Eq. 3 (dB)
    certain: bool  # use the bisector-only baseline division
    split_components: bool
    sensing_range: "float | None"
    k: int  # samples per grouping
    n_rounds: int
    mode: str  # "basic" | "extended"
    comparator_eps: float
    dropout_p: float  # whole-sensor omission probability per round
    sample_loss_p: float  # per-sample omission probability
    value_fault: "str | None"  # None | "stuck" | "byzantine"
    fault_intensity: float  # fraction of sensors faulted
    fault_start: int  # first faulted round (inclusive)
    fault_stop: int  # last faulted round (exclusive)
    degradation: bool
    deg_flip_threshold: float = 0.3
    deg_halflife: float = 4.0
    deg_warmup: int = 1
    deg_min_reporting: int = 3
    deg_max_masked: float = 0.9
    deg_tie_break: bool = True
    layout: str = "uniform"  # one of LAYOUTS

    @property
    def c(self) -> float:
        """Uncertainty constant of Eq. 3 implied by the channel knobs."""
        if self.certain:
            return 1.0
        return min(
            uncertainty_constant(self.resolution_eps, self.beta, self.sigma), _MAX_C
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzSpec":
        return cls(**data)

    def policy(self) -> "DegradationPolicy | None":
        if not self.degradation:
            return None
        return DegradationPolicy(
            flip_threshold=self.deg_flip_threshold,
            halflife_rounds=self.deg_halflife,
            warmup_rounds=self.deg_warmup,
            min_reporting=self.deg_min_reporting,
            max_masked_fraction=self.deg_max_masked,
            tie_break=self.deg_tie_break,
        )


def generate_spec(index: int, master_seed: int = 0) -> FuzzSpec:
    """Spec *index* of the campaign seeded by *master_seed*.

    Every draw comes from ``SeedSequence([master_seed, index])``, so the
    mapping is pure — independent of worker count, schedule, or any other
    scenario.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, index]))
    n_rounds = int(rng.integers(2, 7))
    certain = bool(rng.random() < 0.15)
    fault_start = int(rng.integers(0, n_rounds))
    return FuzzSpec(
        seed=int(rng.integers(0, 2**31 - 1)),
        n_nodes=int(rng.integers(3, 7)),
        field_size=40.0,
        cell_size=float(rng.choice([3.0, 4.0, 5.0])),
        beta=float(rng.uniform(2.0, 4.0)),
        sigma=float(rng.uniform(0.5, 4.0)),
        resolution_eps=float(rng.uniform(0.0, 3.0)),
        certain=certain,
        split_components=bool(rng.random() < 0.5),
        # the certain builder divides by plain bisectors; hearing gating
        # only exists on the uncertain path
        sensing_range=(
            None if certain or rng.random() < 0.7 else float(rng.uniform(25.0, 45.0))
        ),
        k=int(rng.integers(2, 7)),
        n_rounds=n_rounds,
        mode="extended" if rng.random() < 0.35 else "basic",
        comparator_eps=0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 1.5)),
        dropout_p=0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.4)),
        sample_loss_p=0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 0.25)),
        value_fault=[None, "stuck", "byzantine"][int(rng.choice(3, p=[0.5, 0.25, 0.25]))],
        fault_intensity=float(rng.uniform(0.1, 0.5)),
        fault_start=fault_start,
        fault_stop=int(rng.integers(fault_start + 1, n_rounds + 1)),
        degradation=bool(rng.random() < 0.4),
        deg_flip_threshold=float(rng.choice([0.2, 0.3, 0.5])),
        deg_halflife=4.0,
        deg_warmup=int(rng.choice([1, 2])),
        deg_min_reporting=int(rng.choice([0, 2, 3])),
        deg_max_masked=float(rng.choice([0.5, 0.75, 0.9])),
        deg_tie_break=bool(rng.random() < 0.7),
        # drawn last, so every other field keeps its value from before
        # layouts existed
        layout=LAYOUTS[int(rng.choice(4, p=[0.55, 0.15, 0.15, 0.15]))],
    )


# -- world construction -------------------------------------------------------


def _draw_nodes(spec: FuzzSpec, rng: np.random.Generator) -> np.ndarray:
    """Random deployment with a minimum separation of one cell diagonal.

    Degenerate (coincident) nodes make the Apollonius construction
    meaningless; rejection sampling keeps the deployments sane without
    biasing the seed stream (a bounded number of draws per node).  The
    layout picks where candidates come from: anywhere, on one line
    through the field, inside one small disk, or on the field's border.
    """
    margin = 2.0
    lo, hi = margin, spec.field_size - margin
    min_sep = spec.cell_size * math.sqrt(2.0)
    if spec.layout == "collinear":
        angle = rng.uniform(0.0, math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        centre = np.full(2, spec.field_size / 2.0)
        # the longest chord of the inset square along this direction
        half = (hi - lo) / 2.0 / max(abs(direction[0]), abs(direction[1]))

        def draw() -> np.ndarray:
            return centre + rng.uniform(-half, half) * direction

    elif spec.layout == "clustered":
        # the smallest disk that still fits the nodes at min_sep, roughly
        radius = min_sep * max(1.0, math.sqrt(spec.n_nodes) / 2.0)
        centre = rng.uniform(lo + radius, hi - radius, 2)

        def draw() -> np.ndarray:
            r = radius * math.sqrt(rng.random())
            a = rng.uniform(0.0, 2.0 * math.pi)
            return centre + r * np.array([math.cos(a), math.sin(a)])

    elif spec.layout == "perimeter":
        side = hi - lo

        def draw() -> np.ndarray:
            edge, along = divmod(rng.uniform(0.0, 4.0 * side), side)
            return {
                0: np.array([lo + along, lo]),
                1: np.array([hi, lo + along]),
                2: np.array([hi - along, hi]),
                3: np.array([lo, hi - along]),
            }[int(edge)]

    elif spec.layout == "uniform":

        def draw() -> np.ndarray:
            return rng.uniform(lo, hi, 2)

    else:
        raise ValueError(f"unknown layout {spec.layout!r}; known: {', '.join(LAYOUTS)}")
    nodes: list[np.ndarray] = []
    for _ in range(spec.n_nodes):
        candidate = draw()
        for _ in range(200):
            if all(np.hypot(*(candidate - p)) >= min_sep for p in nodes):
                break
            candidate = draw()
        nodes.append(candidate)
    return np.stack(nodes)


def _build_world(spec: FuzzSpec) -> dict:
    """Deterministic world for *spec*: face map + per-round RSS matrices.

    The RSS is generated directly (log-distance path loss + Gaussian
    shadowing + injected faults) rather than through the simulation
    stack, so the fuzz harness exercises the kernels without inheriting
    the sim layer's own assumptions — or its face-map cache.
    """
    ss = np.random.SeedSequence([spec.seed, 0xFA57])
    nodes_rng, channel_rng, fault_rng = map(np.random.default_rng, ss.spawn(3))
    nodes = _draw_nodes(spec, nodes_rng)
    grid = Grid.square(spec.field_size, spec.cell_size)
    if spec.certain:
        face_map = build_certain_face_map(
            nodes, grid, split_components=spec.split_components
        )
    else:
        face_map = build_face_map(
            nodes,
            grid,
            spec.c,
            sensing_range=spec.sensing_range,
            split_components=spec.split_components,
        )
    n_bad = max(1, round(spec.fault_intensity * spec.n_nodes)) if spec.value_fault else 0
    bad = fault_rng.permutation(spec.n_nodes)[:n_bad]
    stuck_values = fault_rng.uniform(-80.0, -30.0, n_bad)
    fault_rounds = range(
        min(spec.fault_start, spec.n_rounds), min(spec.fault_stop, spec.n_rounds)
    )
    targets = channel_rng.uniform(0.0, spec.field_size, (spec.n_rounds, 2))
    rss_rounds: list[np.ndarray] = []
    for r in range(spec.n_rounds):
        dist = np.hypot(*(targets[r] - nodes).T)
        rss = (
            -40.0
            - 10.0 * spec.beta * np.log10(np.maximum(dist, 0.1))
            + spec.sigma * channel_rng.standard_normal((spec.k, spec.n_nodes))
        )
        if spec.sensing_range is not None:
            rss[:, dist > spec.sensing_range] = np.nan
        if spec.sample_loss_p > 0.0:
            rss[channel_rng.random(rss.shape) < spec.sample_loss_p] = np.nan
        if spec.dropout_p > 0.0:
            rss[:, channel_rng.random(spec.n_nodes) < spec.dropout_p] = np.nan
        if r in fault_rounds:
            if spec.value_fault == "stuck":
                # a stuck sensor keeps transmitting its frozen reading
                rss[:, bad] = stuck_values[None, :]
            elif spec.value_fault == "byzantine":
                rss[:, bad] = fault_rng.uniform(-90.0, -20.0, (spec.k, n_bad))

        rss_rounds.append(rss)
    return {
        "face_map": face_map,
        "nodes": nodes,
        "targets": targets,
        "rss_rounds": rss_rounds,
        "times": [float(r) for r in range(spec.n_rounds)],
    }


# -- the differential checks --------------------------------------------------


def _jsonable(value):
    """Recursively convert numpy containers/scalars for ``json.dumps``."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _extended_slack(best: float) -> float:
    """Float32-vs-float64 tolerance for extended-mode distances.

    Extended pair values are rationals ``m/k`` that float32 rounds, so the
    production distances drift from the float64 oracle by a few ulps per
    term; anything beyond this slack is a real divergence.
    """
    return 64.0 * _EPS32 * (abs(best) + 1.0)


def _check_geometry(spec: FuzzSpec, world: dict, divergences: list) -> int:
    report = verify_face_map(world["face_map"], sensing_range=spec.sensing_range)
    if report["mismatches"] or report["centroid_errors"]:
        divergences.append(
            {
                "check": "face_signatures",
                "mismatches": _jsonable(report["mismatches"][:10]),
                "centroid_errors": _jsonable(report["centroid_errors"][:10]),
                "n_ambiguous": report["n_ambiguous"],
            }
        )
    return report["n_checked"]


def _production_vector(spec: FuzzSpec, rss: np.ndarray) -> np.ndarray:
    if spec.mode == "extended":
        return extended_sampling_vector(rss, comparator_eps=spec.comparator_eps)
    return sampling_vector(rss, comparator_eps=spec.comparator_eps)


def _check_rounds(
    spec: FuzzSpec, world: dict, divergences: list
) -> tuple[int, list, list]:
    """Per-round vector / distance / match differentials.

    Returns the production vectors and, per round, the oracle distance of
    every face (None where the round's vector already diverged).
    """
    face_map = world["face_map"]
    signatures = face_map.signatures.astype(float)
    n_checks = 0
    vectors: list[np.ndarray] = []
    oracle_ds: "list[list[float] | None]" = []
    for r, rss in enumerate(world["rss_rounds"]):
        prod_v = _production_vector(spec, rss)
        vectors.append(prod_v)
        oracle_ds.append(None)
        oracle_v = oracle_sampling_vector(
            rss, mode=spec.mode, comparator_eps=spec.comparator_eps
        )
        n_checks += 1
        if not np.array_equal(prod_v, oracle_v, equal_nan=True):
            divergences.append(
                {
                    "check": "sampling_vector",
                    "round": r,
                    "production": _jsonable(prod_v),
                    "oracle": _jsonable(oracle_v),
                }
            )
            continue  # downstream comparisons would only echo this divergence
        prod_d = face_map.distances_to(prod_v)
        oracle_d = [
            oracle_masked_sq_distance(oracle_v, signatures[f])
            for f in range(face_map.n_faces)
        ]
        oracle_ds[r] = oracle_d
        n_checks += 1
        if spec.mode == "basic":
            distance_bad = any(
                float(prod_d[f]) != oracle_d[f] for f in range(face_map.n_faces)
            )
        else:
            distance_bad = any(
                abs(float(prod_d[f]) - oracle_d[f]) > _extended_slack(oracle_d[f])
                for f in range(face_map.n_faces)
            )
        if distance_bad:
            divergences.append(
                {
                    "check": "masked_distances",
                    "round": r,
                    "production": _jsonable(prod_d),
                    "oracle": _jsonable(oracle_d),
                }
            )
            continue
        prod_ties, prod_best = face_map.match(prod_v)
        oracle_ties, oracle_best = oracle_match(signatures, oracle_v)
        n_checks += 1
        if spec.mode == "basic":
            match_bad = (
                list(map(int, prod_ties)) != oracle_ties
                or float(prod_best) != oracle_best
            )
        else:
            # float32 rounding may legitimately reshuffle near-ties; require
            # the best distances to agree within slack and the production
            # winner to be oracle-near-optimal
            slack = _extended_slack(oracle_best)
            tol = oracle_tie_tolerance(oracle_best, face_map.n_pairs)
            match_bad = (
                abs(float(prod_best) - oracle_best) > slack
                or oracle_d[int(prod_ties[0])] > oracle_best + tol + slack
            )
        if match_bad:
            divergences.append(
                {
                    "check": "match_winner",
                    "round": r,
                    "production_ties": _jsonable(prod_ties),
                    "production_best": float(prod_best),
                    "oracle_ties": oracle_ties,
                    "oracle_best": oracle_best,
                }
            )
    return n_checks, vectors, oracle_ds


def _check_heuristic(
    spec: FuzzSpec, world: dict, vectors: list, oracle_ds: list, divergences: list
) -> tuple[int, int, int]:
    """Algorithm 2 from the previous target's face, round by round.

    The face adjacency the climb walks must first equal the oracle's,
    list order included.  Each round then climbs from the face holding
    the previous round's target (round 0 from the last round's), the
    situation a tracker is in when the target jumped.  Without the
    fallback the climb must equal the oracle climb (basic mode) and end
    at a local optimum of its 2-hop ring; with it, it must equal the
    oracle climb (basic mode) and end within the gate or on the full
    scan's tie set.  Agreement with the exhaustive winner is only
    counted.  Returns ``(n_checks, n_rounds, n_agree)``.
    """
    face_map = world["face_map"]
    signatures = face_map.signatures.astype(float)
    neighbors = oracle_face_adjacency(face_map)
    basic = spec.mode == "basic"
    gate = 0.1 * face_map.n_pairs  # the documented default for qualitative signatures
    climb = HeuristicMatcher(face_map, fallback=False)
    gated = HeuristicMatcher(face_map)
    targets = world["targets"]
    n_checks = n_rounds = n_agree = 0

    def diverge(prop: str, r: int, **detail) -> None:
        divergences.append({"check": "heuristic", "property": prop, "round": r, **detail})

    n_checks += 1
    for f in range(face_map.n_faces):
        if face_map.neighbors(f).tolist() != neighbors[f]:
            diverge("adjacency", -1, face=f, production=_jsonable(face_map.neighbors(f)),
                    oracle=neighbors[f])
            return n_checks, n_rounds, n_agree
    for r, (v, oracle_d) in enumerate(zip(vectors, oracle_ds)):
        if oracle_d is None:
            continue  # the round's vector diverged; _check_rounds reported it
        start = face_map.face_of_point(targets[r - 1])
        got = climb.match(v, start_face=start)
        face, d2 = got.face_id, float(got.sq_distance)
        slack = 0.0 if basic else _extended_slack(oracle_d[face])
        n_checks += 1
        if basic:
            want_ids, want_d2 = oracle_climb(signatures, neighbors, v, start, fallback=False)
            if [face] != want_ids or d2 != want_d2:
                diverge("oracle_climb", r, start=start, production=[face, d2],
                        oracle=[want_ids, want_d2])
                continue
        ring = set(neighbors[face])
        for nb in neighbors[face]:
            ring.update(neighbors[nb])
        ring.discard(face)
        better = [g for g in sorted(ring) if oracle_d[g] < oracle_d[face] - 1e-12 - slack]
        if abs(d2 - oracle_d[face]) > slack or better:
            diverge("local_optimum", r, start=start, face=face, sq_distance=d2,
                    oracle_sq_distance=oracle_d[face], better=better[:10])
            continue

        result = gated.match(v, start_face=start)
        prod_ties, prod_d2 = [int(f) for f in result.face_ids], float(result.sq_distance)
        n_checks += 1
        if basic:
            want_ids, want_d2 = oracle_climb(signatures, neighbors, v, start, gate=gate)
            if prod_ties != want_ids or prod_d2 != want_d2:
                diverge("oracle_climb", r, start=start, production=[prod_ties, prod_d2],
                        oracle=[want_ids, want_d2])
                continue
        oracle_ties, oracle_best = oracle_match(signatures, v)
        tol = oracle_tie_tolerance(oracle_best, face_map.n_pairs)
        slack = 0.0 if basic else _extended_slack(oracle_best)
        if basic:
            full_scan = prod_ties == oracle_ties and prod_d2 == oracle_best
        else:
            full_scan = oracle_d[prod_ties[0]] <= oracle_best + tol + slack
        if not (prod_d2 <= gate or full_scan):
            diverge("gate", r, start=start, production_ties=prod_ties,
                    production_best=prod_d2, gate=gate,
                    oracle_ties=oracle_ties, oracle_best=oracle_best)
            continue
        n_rounds += 1
        n_agree += oracle_d[prod_ties[0]] <= oracle_best + tol + slack
    return n_checks, n_rounds, n_agree


def _check_batched(
    spec: FuzzSpec, world: dict, vectors: list, divergences: list
) -> int:
    """Batched kernels vs their per-row paths — always a bitwise contract."""
    face_map = world["face_map"]
    stack = np.stack(world["rss_rounds"])
    if spec.mode == "extended":
        batched_v = extended_sampling_vectors(stack, comparator_eps=spec.comparator_eps)
    else:
        batched_v = sampling_vectors(stack, comparator_eps=spec.comparator_eps)
    per_round_v = np.stack(vectors)
    n_checks = 1
    if not np.array_equal(batched_v, per_round_v, equal_nan=True):
        divergences.append(
            {
                "check": "batched_vectors",
                "batched": _jsonable(batched_v),
                "per_round": _jsonable(per_round_v),
            }
        )
        return n_checks
    batched_d = face_map.distances_to_many(per_round_v)
    per_row_d = np.stack([face_map.distances_to(v) for v in vectors])
    n_checks += 1
    if not np.array_equal(batched_d, per_row_d):
        divergences.append(
            {
                "check": "batched_distances",
                "batched": _jsonable(batched_d),
                "per_row": _jsonable(per_row_d),
            }
        )
        return n_checks
    batched_ties, batched_best = face_map.match_many(per_round_v)
    n_checks += 1
    for r, v in enumerate(vectors):
        ties, best = face_map.match(v)
        if not np.array_equal(batched_ties[r], ties) or float(batched_best[r]) != float(
            best
        ):
            divergences.append(
                {
                    "check": "batched_match",
                    "round": r,
                    "batched_ties": _jsonable(batched_ties[r]),
                    "per_round_ties": _jsonable(ties),
                    "batched_best": float(batched_best[r]),
                    "per_round_best": float(best),
                }
            )
            break
    return n_checks


def _batches(world: dict, spec: FuzzSpec) -> list[SampleBatch]:
    return [
        SampleBatch(
            rss=rss,
            times=t + 0.01 * np.arange(spec.k),
            positions=np.broadcast_to(world["targets"][r], (spec.k, 2)).copy(),
        )
        for r, (rss, t) in enumerate(zip(world["rss_rounds"], world["times"]))
    ]


def _estimate_key(est) -> tuple:
    """Comparable summary of a production/oracle estimate."""
    return (
        tuple(int(f) for f in est.face_ids),
        (float(est.position[0]), float(est.position[1])),
        float(est.sq_distance),
        int(est.n_reporting),
    )


def _check_tracker(spec: FuzzSpec, world: dict, divergences: list) -> int:
    face_map = world["face_map"]
    policy = spec.policy()
    n_checks = 0
    for matcher, check in (("exhaustive", "tracker_anchor"), ("heuristic", "tracker_heuristic")):
        tracker = FTTTracker(
            face_map,
            mode=spec.mode,
            matcher=matcher,
            comparator_eps=spec.comparator_eps,
            degradation=policy,
        )
        found = [
            tracker.localize(rss, t=t)
            for rss, t in zip(world["rss_rounds"], world["times"])
        ]
        if spec.mode == "basic":
            # every quantity in the round loop is float32-exact in basic
            # mode, so the oracle tracker must reproduce the anchors bit
            # for bit
            oracle_est = oracle_track(
                face_map,
                world["rss_rounds"],
                world["times"],
                mode=spec.mode,
                matcher=matcher,
                comparator_eps=spec.comparator_eps,
                degradation=policy,
            )
            n_checks += 1
            _first_mismatch(found, oracle_est, divergences, check, "production", "oracle")
        # track() builds the whole trace's vectors in one call (and matches
        # in one GEMM when nothing is stateful); it must reproduce the
        # per-round localize loop in both modes
        tracker.reset()
        batched = tracker.track(_batches(world, spec)).estimates
        n_checks += 1
        _first_mismatch(batched, found, divergences, "batched_tracker", "batched", "per_round")
    return n_checks


def _first_mismatch(
    got: list, want: list, divergences: list, check: str, got_key: str, want_key: str
) -> None:
    """Record the first round whose estimates differ, if any."""
    for r, (a, b) in enumerate(zip(got, want)):
        if _estimate_key(a) != _estimate_key(b):
            divergences.append(
                {
                    "check": check,
                    "round": r,
                    got_key: _jsonable(_estimate_key(a)),
                    want_key: _jsonable(_estimate_key(b)),
                }
            )
            return


def run_spec(spec: FuzzSpec) -> dict:
    """Run one differential scenario; report every divergence found."""
    world = _build_world(spec)
    divergences: list[dict] = []
    n_checks = _check_geometry(spec, world, divergences)
    round_checks, vectors, oracle_ds = _check_rounds(spec, world, divergences)
    n_checks += round_checks
    heuristic_checks, climbs, agree = _check_heuristic(
        spec, world, vectors, oracle_ds, divergences
    )
    n_checks += heuristic_checks
    if spec.n_rounds > 1:
        n_checks += _check_batched(spec, world, vectors, divergences)
    n_checks += _check_tracker(spec, world, divergences)
    return {
        "spec": spec.to_dict(),
        "divergences": divergences,
        "stats": {
            "n_faces": int(world["face_map"].n_faces),
            "n_pairs": int(world["face_map"].n_pairs),
            "n_rounds": spec.n_rounds,
            "n_checks": n_checks,
            "heuristic_rounds": climbs,
            "heuristic_agree": int(agree),
        },
    }


# -- campaign driver ----------------------------------------------------------


def _run_index(task: "tuple[int, int]") -> dict:
    master_seed, index = task
    report = run_spec(generate_spec(index, master_seed))
    report["index"] = index
    return report


def shrink_spec(spec: FuzzSpec, check: str, *, max_evals: int = 48) -> FuzzSpec:
    """Greedily minimize *spec* while the named check keeps diverging.

    Each pass tries a fixed ladder of simplifications (drop the fault
    model, disable degradation, fall back to basic mode, halve the
    workload, coarsen the grid) and keeps any candidate that still
    reproduces a divergence of the same check family.
    """
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _shrink_candidates(spec):
            if evals >= max_evals:
                break
            evals += 1
            report = run_spec(candidate)
            if any(d["check"] == check for d in report["divergences"]):
                spec = candidate
                improved = True
                break
    return spec


def _shrink_candidates(spec: FuzzSpec) -> list[FuzzSpec]:
    out: list[FuzzSpec] = []
    if spec.value_fault is not None:
        out.append(replace(spec, value_fault=None))
    if spec.dropout_p > 0.0:
        out.append(replace(spec, dropout_p=0.0))
    if spec.sample_loss_p > 0.0:
        out.append(replace(spec, sample_loss_p=0.0))
    if spec.degradation:
        out.append(replace(spec, degradation=False))
    if spec.mode == "extended":
        out.append(replace(spec, mode="basic"))
    if spec.comparator_eps > 0.0:
        out.append(replace(spec, comparator_eps=0.0))
    if spec.sensing_range is not None:
        out.append(replace(spec, sensing_range=None))
    if spec.n_rounds > 1:
        out.append(replace(spec, n_rounds=max(1, spec.n_rounds // 2)))
    if spec.k > 1:
        out.append(replace(spec, k=max(1, spec.k // 2)))
    if spec.n_nodes > 3:
        out.append(replace(spec, n_nodes=spec.n_nodes - 1))
    if spec.cell_size < 5.0:
        out.append(replace(spec, cell_size=5.0))
    if spec.split_components:
        out.append(replace(spec, split_components=False))
    if spec.layout != "uniform":
        out.append(replace(spec, layout="uniform"))
    return out


def run_fuzz(
    n_scenarios: int,
    *,
    seed: int = 0,
    n_workers: "int | None" = None,
    artifact_dir: "str | os.PathLike" = "results/fuzz",
    shrink: bool = True,
    max_shrink_evals: int = 48,
) -> dict:
    """Run a differential campaign of *n_scenarios* seeded scenarios.

    Results are bit-identical for any worker count: scenario *i* is a pure
    function of ``(seed, i)`` and reports are merged in index order (the
    ``digest`` field hashes the full ordered report list to prove it).

    On the first divergent scenario (lowest index) the spec is shrunk and
    a replayable artifact JSON is written under *artifact_dir*.
    *n_workers* defaults to ``REPRO_WORKERS`` when that is set, else 1.
    """
    if n_scenarios < 1:
        raise ValueError(f"n_scenarios must be >= 1, got {n_scenarios}")
    if n_workers is None:
        from repro.sim.parallel import recommended_workers

        n_workers = recommended_workers(n_scenarios) if os.environ.get("REPRO_WORKERS") else 1
    n_workers = max(1, min(n_workers, n_scenarios))
    tasks = [(seed, i) for i in range(n_scenarios)]
    if n_workers == 1:
        reports = [_run_index(t) for t in tasks]
    else:
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        with ctx.Pool(processes=n_workers) as pool:
            reports = pool.map(_run_index, tasks)
    digest = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()
    ).hexdigest()
    divergent = [r for r in reports if r["divergences"]]
    climbs = sum(r["stats"]["heuristic_rounds"] for r in reports)
    summary = {
        "n_scenarios": n_scenarios,
        "seed": seed,
        "n_workers": n_workers,
        "n_checks": sum(r["stats"]["n_checks"] for r in reports),
        "n_divergent": len(divergent),
        # share of Algorithm 2 rounds (fallback on) that land on an
        # exhaustive winner: a statistic, not a check
        "heuristic_agreement": (
            sum(r["stats"]["heuristic_agree"] for r in reports) / climbs if climbs else None
        ),
        "digest": digest,
        "first_divergence": None,
    }
    if divergent:
        first = divergent[0]
        spec = FuzzSpec.from_dict(first["spec"])
        check = first["divergences"][0]["check"]
        if shrink:
            spec = shrink_spec(spec, check, max_evals=max_shrink_evals)
        shrunk_report = run_spec(spec)
        same_check = [d for d in shrunk_report["divergences"] if d["check"] == check]
        artifact = {
            "check": check,
            "spec": spec.to_dict(),
            "original_spec": first["spec"],
            "index": first["index"],
            "master_seed": seed,
            "divergence": same_check[0] if same_check else first["divergences"][0],
            "n_divergences": len(first["divergences"]),
        }
        out_dir = Path(artifact_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"divergence_seed{seed}_idx{first['index']}.json"
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True))
        summary["first_divergence"] = {
            "index": first["index"],
            "check": check,
            "artifact": str(path),
            "spec": spec.to_dict(),
        }
    return summary


def replay_divergence(path: "str | os.PathLike") -> dict:
    """Re-run the scenario recorded in a divergence artifact.

    Returns the fresh report plus whether the recorded check family
    diverged again — the one-command repro loop for kernel debugging.
    """
    artifact = json.loads(Path(path).read_text())
    spec = FuzzSpec.from_dict(artifact["spec"])
    report = run_spec(spec)
    recorded = artifact.get("check")
    return {
        "recorded_check": recorded,
        "reproduced": any(d["check"] == recorded for d in report["divergences"]),
        "report": report,
    }
