"""The Viracocha framework core (layers 1 and 2) and the session facade."""

from .costs import CostModel, DEFAULT_COSTS
from .messages import (
    CommandRequest,
    HEADER_BYTES,
    ProgressUpdate,
    ResultPacket,
    WorkAssignment,
    WorkerDone,
)
from .channels import Mailbox, SimMPIChannel, SimTCPChannel
from .commands import (
    Command,
    CommandContext,
    CommandRegistry,
    Compute,
    Emit,
    Load,
    Prefetch,
    lpt_order,
    plan_block_assignments,
    plan_block_tasks,
    split_round_robin,
)
from .worker import Worker, WorkerShare
from .scheduler import RunRecord, Scheduler
from .session import CommandResult, ViracochaSession

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "CommandRequest",
    "HEADER_BYTES",
    "ProgressUpdate",
    "ResultPacket",
    "WorkAssignment",
    "WorkerDone",
    "Mailbox",
    "SimMPIChannel",
    "SimTCPChannel",
    "Command",
    "CommandContext",
    "CommandRegistry",
    "Compute",
    "Emit",
    "Load",
    "Prefetch",
    "lpt_order",
    "plan_block_assignments",
    "plan_block_tasks",
    "split_round_robin",
    "Worker",
    "WorkerShare",
    "RunRecord",
    "Scheduler",
    "CommandResult",
    "ViracochaSession",
]
