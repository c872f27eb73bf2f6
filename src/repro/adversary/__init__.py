"""Adversarial network control: partitions, targeted DoS, isolation.

Byzantine *node* behaviour (equivocation, double votes, silence, junk
votes) is not here: it is fault data, the attacker kinds of
:mod:`repro.chaos.scenario`, compiled by
:class:`repro.chaos.faults.FaultInjector` on either substrate.
"""

from repro.adversary.network_control import (
    FilterChain,
    Partitioner,
    TargetedDoS,
    isolate,
)

__all__ = [
    "FilterChain",
    "Partitioner",
    "TargetedDoS",
    "isolate",
]
