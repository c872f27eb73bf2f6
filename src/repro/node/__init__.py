"""The Algorand user agent: proposal, round loop, recovery, catch-up."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.node.agent import Node
    from repro.node.catchup import (
        ChainAnnouncement, ChainSync, catch_up_from, replay_chain,
        verify_final_safety,
    )
    from repro.node.recovery import (
        ForkProposal, RecoveryDaemon, RecoverySession, attach_recovery_daemons,
        run_recovery,
    )
    from repro.node.metrics import NodeMetrics, RoundRecord
    from repro.node.proposal import (
        PriorityMessage, ProposalTracker, block_priority,
        make_priority_message, priority_of_subuser,
    )
    from repro.node.registry import BlockRegistry

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.node.agent": ("Node",),
    "repro.node.catchup": (
        "ChainAnnouncement", "ChainSync", "catch_up_from", "replay_chain",
        "verify_final_safety",
    ),
    "repro.node.recovery": (
        "ForkProposal", "RecoveryDaemon", "RecoverySession",
        "attach_recovery_daemons", "run_recovery",
    ),
    "repro.node.metrics": ("NodeMetrics", "RoundRecord"),
    "repro.node.proposal": (
        "PriorityMessage", "ProposalTracker", "block_priority",
        "make_priority_message", "priority_of_subuser",
    ),
    "repro.node.registry": ("BlockRegistry",),
})

__all__ = [
    "Node",
    "NodeMetrics",
    "RoundRecord",
    "PriorityMessage",
    "ProposalTracker",
    "block_priority",
    "priority_of_subuser",
    "make_priority_message",
    "BlockRegistry",
    "ChainAnnouncement",
    "ChainSync",
    "replay_chain",
    "catch_up_from",
    "verify_final_safety",
    "ForkProposal",
    "RecoverySession",
    "RecoveryDaemon",
    "attach_recovery_daemons",
    "run_recovery",
]
