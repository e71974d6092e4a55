"""Channel-sequence spatial constraints for motion planning in dynamic scenes."""

from .events import EventReport, compute_event_time
from .funnel import PathPolyline, funnel
from .geometry import InCircleSide, NodeKind, NodeState, incircle, orient2d
from .mesh import (DegenerateInputError, Mesh, NodeTable, build_dual, build_mesh,
                   generate_virtual_nodes, locate)
from .scenario import (ObjectTrack, Scenario, ScenarioFormatError,
                       SyntheticParams, generate_synthetic)
from .search import Channel, astar, timed_astar
from .sequencer import (ChannelSegment, ChannelSequence, SequenceFailure,
                        SequencerConfig, generate_sequence)
from .simulate import (Metrics, MethodId, SimConfig, aggregate, plan,
                       run_scenario)
from .transmission import TransmissionConfig, transmit

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ChannelSegment",
    "ChannelSequence",
    "DegenerateInputError",
    "EventReport",
    "InCircleSide",
    "Mesh",
    "Metrics",
    "MethodId",
    "NodeKind",
    "NodeState",
    "NodeTable",
    "ObjectTrack",
    "PathPolyline",
    "Scenario",
    "ScenarioFormatError",
    "SequenceFailure",
    "SequencerConfig",
    "SimConfig",
    "SyntheticParams",
    "TransmissionConfig",
    "aggregate",
    "astar",
    "build_dual",
    "build_mesh",
    "compute_event_time",
    "funnel",
    "generate_sequence",
    "generate_synthetic",
    "generate_virtual_nodes",
    "incircle",
    "locate",
    "orient2d",
    "plan",
    "run_scenario",
    "timed_astar",
    "transmit",
]
