#!/usr/bin/env python
"""The paper's outdoor experiment (Fig. 13), fully simulated.

Nine IRIS motes with MTS300 acoustic boards form a "+" on a 40 m
playground; a walker carrying a 4 kHz piezo tone follows a "⌐"-shaped
trace at changeable 1-5 m/s speed; readings radio through an MIB520
gateway that loses ~5% of frames.  Both basic and extended FTTT track
the walker — the extended variant is visibly smoother, exactly the
paper's observation.

Run:  python examples/outdoor_playground.py
"""

from repro.analysis.metrics import format_table, summarize_errors
from repro.testbed.outdoor import build_outdoor_system


def ascii_trace(system, result, width: int = 56) -> str:
    """Render true trace (.) and estimates (o/X where they overlap) in ASCII."""
    scale = width / system.field_size
    height = int(system.field_size * scale / 2)
    canvas = [[" "] * width for _ in range(height)]

    def put(p, ch):
        x = min(int(p[0] * scale), width - 1)
        y = min(int(p[1] * scale / 2), height - 1)
        row = height - 1 - y
        canvas[row][x] = "X" if canvas[row][x] not in (" ", ch) else ch

    for p in result.truth:
        put(p, ".")
    for p in result.positions:
        put(p, "o")
    for m in system.motes:
        put(m.position, "#")
    return "\n".join("".join(row) for row in canvas)


def main() -> None:
    system = build_outdoor_system(field_size=40.0, seed=11)
    print(
        f"playground {system.field_size:.0f} m, {len(system.motes)} motes, "
        f"tone at {system.channel.frequency_hz:.0f} Hz, "
        f"absorption {system.channel.absorption_db_per_m:.3f} dB/m, "
        f"trace length {system.path.length_m:.0f} m"
    )

    rows = {}
    for mode in ("basic", "extended"):
        result = system.run(mode=mode, rng=12)
        rows[mode] = summarize_errors(result)
        if mode == "extended":
            print("\ntrace ('.' truth, 'o' estimates, '#' motes, 'X' overlap):\n")
            print(ascii_trace(system, result))

    print()
    print(format_table(rows, title="outdoor tracking error (metres)"))
    print(f"gateway frame loss observed: {system.gateway.loss_rate:.1%}")

    smoother = rows["extended"].std < rows["basic"].std
    print(
        "\nextended FTTT trajectory is "
        + ("smoother (lower error deviation) — " if smoother else "not smoother — ")
        + "the paper's Fig. 13(c) vs (d) comparison."
    )


if __name__ == "__main__":
    main()
