"""Network energy model.

The one table of per-operation energy costs: per-round sampling and
report costs (sensor side), relay forwarding (routing side, charged by
``network.routing``), and duty-cycle savings — projecting network
lifetime under a tracking workload.  This is the quantitative backing for
§5.2's deployment-density caution and for the duty-cycling extension's
headline number.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyModel", "project_lifetime"]


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy costs (joules) — mote-class defaults."""

    sample_j: float = 1e-4  # one ADC sample + processing
    report_tx_j: float = 5e-4  # transmit one report
    relay_tx_j: float = 5e-4  # forward someone else's report
    idle_listen_j: float = 1e-4  # per round awake but idle
    sleep_j: float = 1e-6  # per round asleep
    battery_j: float = 100.0

    def __post_init__(self) -> None:
        for name in ("sample_j", "report_tx_j", "relay_tx_j", "idle_listen_j", "sleep_j"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.battery_j <= 0:
            raise ValueError("battery must be positive")


def project_lifetime(
    n_sensors: int,
    k: int,
    *,
    model: "EnergyModel | None" = None,
    duty_cycle: float = 1.0,
    max_relay_load: int = 0,
) -> dict:
    """Closed-form lifetime projection for a homogeneous workload.

    ``duty_cycle`` is the fraction of sensor-rounds spent awake (1.0 = no
    sleeping); ``max_relay_load`` is the bottleneck node's forwarded
    reports per round (from the routing topology).
    """
    if not (0.0 < duty_cycle <= 1.0):
        raise ValueError(f"duty cycle must be in (0, 1], got {duty_cycle}")
    if max_relay_load < 0:
        raise ValueError("relay load must be non-negative")
    model = model or EnergyModel()
    awake_cost = k * model.sample_j + model.idle_listen_j + model.report_tx_j
    mean_cost = duty_cycle * awake_cost + (1.0 - duty_cycle) * model.sleep_j
    bottleneck_cost = awake_cost + max_relay_load * model.relay_tx_j
    return {
        "mean_rounds": float(model.battery_j / mean_cost),
        "bottleneck_rounds": float(model.battery_j / bottleneck_cost),
        "duty_cycle_gain": float(awake_cost / mean_cost),
    }
