"""Multimedia stream models: the Fig.1 abstraction of the paper.

Source (encoder) → Tx-buffer → Channel (lossy/lossless automaton) →
Rx-buffer → Sink (decoder/display), plus the MPEG-2 decoder process
network of Fig.1(b) and lip-sync analysis (§2.1).
"""

from repro.streams.channel import (
    BernoulliModel,
    Channel,
    ChannelStats,
    ErrorModel,
    GilbertElliottModel,
    LosslessModel,
    PacketFate,
)
from repro.streams.mpeg2 import (
    Mpeg2DecoderReport,
    Mpeg2Workload,
    build_mpeg2_application,
    simulate_mpeg2_decoder,
    single_cpu_platform,
)
from repro.streams.packets import FrameType, Packet
from repro.streams.pipeline import StreamPipeline, StreamReport
from repro.streams.playout import required_startup_delay, size_playout
from repro.streams.rate_adaptation import (
    RateArqPoint,
    explore_rate_arq,
    pareto_points,
)
from repro.streams.sink import Sink
from repro.streams.source import (
    CBRSource,
    GopPattern,
    MpegSource,
    StreamSource,
    VBRSource,
)
from repro.streams.sync import (
    SkewReport,
    SyncMonitor,
    SyncTolerance,
    resync_schedule,
)

__all__ = [
    "Packet",
    "FrameType",
    "StreamSource",
    "CBRSource",
    "VBRSource",
    "MpegSource",
    "GopPattern",
    "ErrorModel",
    "LosslessModel",
    "BernoulliModel",
    "GilbertElliottModel",
    "PacketFate",
    "Channel",
    "ChannelStats",
    "Sink",
    "StreamPipeline",
    "StreamReport",
    "Mpeg2Workload",
    "build_mpeg2_application",
    "single_cpu_platform",
    "simulate_mpeg2_decoder",
    "Mpeg2DecoderReport",
    "SyncTolerance",
    "SyncMonitor",
    "SkewReport",
    "resync_schedule",
    "RateArqPoint",
    "explore_rate_arq",
    "pareto_points",
    "required_startup_delay",
    "size_playout",
]
