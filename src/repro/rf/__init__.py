"""RF substrate: signal propagation and sampling channels.

Implements the log-distance path-loss model with Gaussian shadowing that
the paper's uncertainty analysis starts from (Eq. 1), plus the acoustic
tone channel used by the outdoor-testbed simulator.
"""

from repro.rf.pathloss import LogDistancePathLoss
from repro.rf.noise import GaussianNoise, NoNoise, StudentTNoise, MixtureNoise
from repro.rf.channel import RssChannel, SampleBatch
from repro.rf.acoustic import AcousticToneChannel
from repro.rf.shadowing import TemporallyCorrelatedNoise, CommonModeNoise

__all__ = [
    "LogDistancePathLoss",
    "GaussianNoise",
    "NoNoise",
    "StudentTNoise",
    "MixtureNoise",
    "RssChannel",
    "SampleBatch",
    "AcousticToneChannel",
    "TemporallyCorrelatedNoise",
    "CommonModeNoise",
]
