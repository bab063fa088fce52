"""Adaptive tiered-storage management (the automation-loop follow-up).

``repro.tier`` closes the loop the ROADMAP calls "workload-driven
automatic up/down-tiering": access signals feed a
:class:`~repro.tier.heat.HeatTracker`, a periodic
:class:`~repro.tier.engine.TieringEngine` snapshots heat plus tier
reports into a frozen :class:`~repro.tier.policy.ObservedState`, and a
pure :class:`~repro.tier.policy.TieringPolicy` decides which files gain
or lose memory replicas through the public ``set_replication`` path.
The paper's §6 multi-level cache is the ``LruPolicy`` / ``LfuPolicy``
pair on the same engine.

>>> from repro import OctopusFileSystem
>>> from repro.cluster import small_cluster_spec
>>> from repro.tier import DecayHeatPolicy, TieringEngine
>>> fs = OctopusFileSystem(small_cluster_spec())
>>> engine = TieringEngine(fs, DecayHeatPolicy(), interval=5.0).attach()
>>> # ... run a workload; engine.start() for periodic rounds, or
>>> # engine.run_round() to step the policy by hand ...

See ``docs/TIERING.md`` for the policy model and evaluation results.
"""

from repro.tier.engine import Decision, TieringEngine, TieringStats
from repro.tier.heat import HeatTracker
from repro.tier.policy import (
    DEMOTE,
    PROMOTE,
    DecayHeatPolicy,
    FileObservation,
    LfuPolicy,
    LruPolicy,
    ObservedState,
    StaticVectorPolicy,
    TierObservation,
    TieringAction,
    TieringPolicy,
)

__all__ = [
    "DecayHeatPolicy",
    "Decision",
    "DEMOTE",
    "FileObservation",
    "HeatTracker",
    "LfuPolicy",
    "LruPolicy",
    "ObservedState",
    "PROMOTE",
    "StaticVectorPolicy",
    "TierObservation",
    "TieringAction",
    "TieringEngine",
    "TieringPolicy",
    "TieringStats",
]
