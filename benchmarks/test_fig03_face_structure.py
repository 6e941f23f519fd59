"""FIG3 — face structure vs uncertainty (paper Fig. 3).

The paper's qualitative figure: perpendicular bisectors divide a 4-sensor
grid into 8 certain faces (a); uncertain boundaries shrink them into tiny
certain cores (b); and past a critical pair separation / uncertainty
level, no all-certain face survives (c).  This bench regenerates the
counts behind those three panels.
"""

import numpy as np

from repro.geometry.apollonius import uncertainty_constant
from repro.geometry.faces import build_certain_face_map, build_face_map
from repro.geometry.grid import Grid

from conftest import emit


def square_nodes(half_spacing: float, field: float = 100.0) -> np.ndarray:
    c = field / 2
    return np.array(
        [
            [c - half_spacing, c - half_spacing],
            [c + half_spacing, c - half_spacing],
            [c - half_spacing, c + half_spacing],
            [c + half_spacing, c + half_spacing],
        ]
    )


def test_fig03_certain_faces_vanish(benchmark, results_dir):
    grid = Grid.square(100.0, 1.0)
    nodes = square_nodes(20.0)

    # panel (a): the certain world — bisector division of the 4-node grid
    certain = build_certain_face_map(nodes, grid)

    # panels (b)/(c): sweep the uncertainty constant
    c_values = [1.05, 1.1, 1.2, 1.4, 1.8, 2.5, 3.5]
    rows = []
    certain_face_counts = []
    for c in c_values:
        fm = build_face_map(nodes, grid, c)
        certain_face_counts.append(fm.n_certain_faces)
        rows.append(
            f"C={c:4.2f}  faces={fm.n_faces:4d}  all-certain faces={fm.n_certain_faces:3d}  "
            f"uncertain-area fraction={(fm.signatures[fm.cell_face] == 0).mean():.3f}"
        )

    # and the paper's Table-1 operating point for reference
    c_paper = uncertainty_constant(1.0, 4.0, 6.0)

    emit(
        "FIG 3 — division of the area by bisectors vs uncertain boundaries",
        [
            f"(a) bisector-only division: {certain.n_faces} faces "
            f"(paper: 8 interior faces + boundary regions)",
            "(b,c) uncertain-boundary division, growing C:",
            *rows,
            f"paper Eq. 3 at Table-1 settings (eps=1, beta=4, sigma=6): C = {c_paper:.3f}",
        ],
    )
    (results_dir / "fig03.csv").write_text(
        "c,faces,certain_faces\n"
        + "\n".join(
            f"{c},{build_face_map(nodes, Grid.square(100.0, 2.0), c).n_faces},{n}"
            for c, n in zip(c_values, certain_face_counts)
        )
    )

    # shape assertions: Fig. 3's message
    assert certain.n_faces >= 8  # panel (a)
    assert certain_face_counts[0] > 0  # small C keeps certain cores
    assert certain_face_counts[-1] == 0  # panel (c): they vanish
    assert all(a >= b for a, b in zip(certain_face_counts, certain_face_counts[1:]))

    # timed kernel: one full face-map construction at the paper's C
    benchmark(build_face_map, nodes, grid, c_paper)
