"""Trace-driven simulation: the protocol engine, Eq. 1, and result types."""

from .simulator import Simulator
from .latency import remote_read_stall, traffic_blocks
from .checkpoint import SweepJournal
from .parallel import (
    RecoveryLog,
    SweepPolicy,
    default_jobs,
    resolve_policy,
    run_parallel_sweep,
)
from .results import SimulationResult
from .runner import resolve_sweep_configs, simulate, sweep

__all__ = [
    "Simulator",
    "remote_read_stall",
    "traffic_blocks",
    "SimulationResult",
    "simulate",
    "sweep",
    "resolve_sweep_configs",
    "run_parallel_sweep",
    "default_jobs",
    "SweepJournal",
    "SweepPolicy",
    "RecoveryLog",
    "resolve_policy",
]
