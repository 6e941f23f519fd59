"""Outdoor-testbed simulator (paper §7.3, Fig. 13).

The paper's outdoor system — nine Crossbow IRIS motes with MTS300 boards
in a "+" deployment, a walker carrying a 4 kHz piezo tone, an MIB520
gateway — is simulated end-to-end: acoustic tone propagation, mote ADC
quantization and calibration offsets, and gateway packet loss.  The
tracking stack is byte-for-byte the same FTTT code the RF simulations use.
"""

from repro.testbed.motes import IrisMote, MoteReading
from repro.testbed.gateway import Mib520Gateway
from repro.testbed.outdoor import OutdoorSystem, build_outdoor_system

__all__ = [
    "IrisMote",
    "MoteReading",
    "Mib520Gateway",
    "OutdoorSystem",
    "build_outdoor_system",
]
