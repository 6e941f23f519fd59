#!/usr/bin/env python
"""Face-map explorer: see the geometry FTTT tracks with.

Renders the uncertain-area structure of a deployment as ASCII (darker =
more node pairs are ambiguous there), shows how the division reacts to
the uncertainty constant, and walks one localization by hand — sampling
vector, matched face, similarity — so the vector-matching mechanics are
visible end to end.

Run:  python examples/face_map_explorer.py
"""

import numpy as np

from repro.core.vectors import sampling_vector
from repro.geometry.apollonius import effective_uncertainty_constant, uncertainty_constant
from repro.geometry.faces import build_face_map
from repro.geometry.grid import Grid
from repro.network.deployment import grid_deployment
from repro.rf.channel import RssChannel
from repro.rf.noise import GaussianNoise
from repro.rf.pathloss import LogDistancePathLoss
from repro.viz import render_face_map, sparkline


def main() -> None:
    nodes = grid_deployment(9, 100.0)
    grid = Grid.square(100.0, 2.0)

    print("uncertainty constants at Table-1 settings (eps=1, beta=4, sigma=6):")
    c_paper = uncertainty_constant(1.0, 4.0, 6.0)
    c_cal = effective_uncertainty_constant(1.0, 4.0, 6.0, k=5)
    print(f"  Eq. 3 expectation form: C = {c_paper:.3f}")
    print(f"  sampling-calibrated (k=5): C = {c_cal:.3f}\n")

    for c in (1.1, c_cal):
        fm = build_face_map(nodes, grid, c, sensing_range=40.0)
        print(
            f"C = {c:.2f}: {fm.n_faces} faces, {fm.n_certain_faces} fully certain, "
            f"uncertain-pair density map:"
        )
        print(render_face_map(fm, width=56))
        print()

    print("one localization, by hand (on the calibrated-C map above):")
    target = np.array([62.0, 37.0])
    channel = RssChannel(
        nodes=nodes,
        pathloss=LogDistancePathLoss(exponent=4.0, p0_dbm=-40.0),
        noise=GaussianNoise(6.0),
        sensing_range_m=40.0,
    )
    rng = np.random.default_rng(7)
    batch = channel.observe_static(target, k=5, rng=rng)
    v = sampling_vector(batch.rss, comparator_eps=1.0)
    n_flipped = int((v == 0).sum())
    n_star = int(np.isnan(v).sum())
    print(f"  target at {target.tolist()}; {batch.responding.sum()}/9 sensors heard it")
    print(
        f"  sampling vector: {len(v)} pairs — {n_flipped} flipped (0), "
        f"{n_star} silent (*), rest ordinal"
    )
    ties, d2 = fm.match(v)
    est = fm.centroids[ties].mean(axis=0)
    sim = "inf" if d2 == 0 else f"{1/np.sqrt(d2):.3f}"
    print(
        f"  matched face(s) {ties.tolist()} at similarity {sim}; "
        f"estimate ({est[0]:.1f}, {est[1]:.1f}), error "
        f"{np.hypot(*(est - target)):.2f} m"
    )
    d2_all = fm.distances_to(v)
    order = np.argsort(d2_all)[:30]
    print(f"  distance landscape (30 best faces): {sparkline(d2_all[order])}")


if __name__ == "__main__":
    main()
