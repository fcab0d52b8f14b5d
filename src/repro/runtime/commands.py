"""Device→host command and host→device response encodings.

These are the entries travelling through the circular queues: commands on
the command queue (device library → block manager), acknowledgements on the
ack queue, and notifications on the notification queue (block manager →
device library).  Real entries are fixed-size vector-write payloads; the
classes carry the same fields plus, for simulation convenience, direct
references to the numpy views involved.

The hot entry types (:class:`PutCommand`, :class:`GetCommand`,
:class:`NotifyCommand`, :class:`Ack`, :class:`Notification`) are
handwritten ``__slots__`` flyweights rather than dataclasses: a diffusion
run constructs several thousand of them, and the dataclass-generated
``__init__`` (and, for the previously frozen ``Notification``, its
``object.__setattr__`` guard) costs roughly twice a plain initializer.
They keep dataclass-style value equality and ``repr`` — tests and the
cross-backend differential harness compare notification lists by value.
Cold control-plane entries stay dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "WinCreateCommand", "WinFreeCommand", "PutCommand", "GetCommand",
    "NotifyCommand", "BarrierCommand", "FinishCommand", "LogCommand",
    "Ack", "Notification",
]


@dataclass(slots=True)
class WinCreateCommand:
    """Collective window creation: the rank registers a local memory range."""

    origin_rank: int
    local_win_id: int
    comm_name: str
    buffer: np.ndarray          # the rank's registered memory range


@dataclass(slots=True)
class WinFreeCommand:
    origin_rank: int
    global_win_id: int


class PutCommand:
    """Notified put to a *distributed-memory* rank (Fig. 5 control flow).

    ``src`` references origin device memory; the block manager reads it when
    the MPI send is issued, exactly as the real block manager isends straight
    out of device memory.
    """

    __slots__ = ("origin_rank", "global_win_id", "target_rank",
                 "target_offset", "count", "src", "tag", "flush_id",
                 "notify")

    def __init__(self, origin_rank: int, global_win_id: int,
                 target_rank: int, target_offset: int, count: int,
                 src: np.ndarray, tag: int, flush_id: int,
                 notify: bool = True):
        self.origin_rank = origin_rank
        self.global_win_id = global_win_id
        self.target_rank = target_rank
        self.target_offset = target_offset
        self.count = count
        self.src = src
        self.tag = tag
        self.flush_id = flush_id
        self.notify = notify

    def __repr__(self) -> str:
        return (f"PutCommand(origin_rank={self.origin_rank!r}, "
                f"global_win_id={self.global_win_id!r}, "
                f"target_rank={self.target_rank!r}, "
                f"target_offset={self.target_offset!r}, "
                f"count={self.count!r}, src={self.src!r}, "
                f"tag={self.tag!r}, flush_id={self.flush_id!r}, "
                f"notify={self.notify!r})")


class GetCommand:
    """Notified get from a remote window into origin device memory."""

    __slots__ = ("origin_rank", "global_win_id", "target_rank",
                 "target_offset", "count", "dst", "tag", "flush_id",
                 "notify")

    def __init__(self, origin_rank: int, global_win_id: int,
                 target_rank: int, target_offset: int, count: int,
                 dst: np.ndarray, tag: int, flush_id: int,
                 notify: bool = True):
        self.origin_rank = origin_rank
        self.global_win_id = global_win_id
        self.target_rank = target_rank
        self.target_offset = target_offset
        self.count = count
        self.dst = dst
        self.tag = tag
        self.flush_id = flush_id
        self.notify = notify

    def __repr__(self) -> str:
        return (f"GetCommand(origin_rank={self.origin_rank!r}, "
                f"global_win_id={self.global_win_id!r}, "
                f"target_rank={self.target_rank!r}, "
                f"target_offset={self.target_offset!r}, "
                f"count={self.count!r}, dst={self.dst!r}, "
                f"tag={self.tag!r}, flush_id={self.flush_id!r}, "
                f"notify={self.notify!r})")


class NotifyCommand:
    """Shared-memory RMA already performed on-device; deliver the target
    notification (and the flush update) through the host."""

    __slots__ = ("origin_rank", "global_win_id", "target_rank", "tag",
                 "flush_id", "notify")

    def __init__(self, origin_rank: int, global_win_id: int,
                 target_rank: int, tag: int, flush_id: int,
                 notify: bool = True):
        self.origin_rank = origin_rank
        self.global_win_id = global_win_id
        self.target_rank = target_rank
        self.tag = tag
        self.flush_id = flush_id
        self.notify = notify

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not NotifyCommand:
            return NotImplemented
        return (self.origin_rank == other.origin_rank
                and self.global_win_id == other.global_win_id
                and self.target_rank == other.target_rank
                and self.tag == other.tag
                and self.flush_id == other.flush_id
                and self.notify == other.notify)

    def __repr__(self) -> str:
        return (f"NotifyCommand(origin_rank={self.origin_rank!r}, "
                f"global_win_id={self.global_win_id!r}, "
                f"target_rank={self.target_rank!r}, tag={self.tag!r}, "
                f"flush_id={self.flush_id!r}, notify={self.notify!r})")


@dataclass(slots=True)
class BarrierCommand:
    origin_rank: int
    comm_name: str


#: Pseudo window id used by collective-completion notifications.
COLLECTIVE_WIN = -2


@dataclass(slots=True)
class NonblockingBarrierCommand:
    """§V extension: a barrier that completes in the background and posts a
    notification (win id ``COLLECTIVE_WIN``) instead of an ack."""

    origin_rank: int
    comm_name: str
    tag: int


@dataclass(slots=True)
class FinishCommand:
    origin_rank: int


@dataclass(slots=True)
class LogCommand:
    origin_rank: int
    message: str


class Ack:
    """Host→device acknowledgement for a completed command."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: Any = None):
        self.kind = kind               # "win_create" | "win_free" | ...
        self.value = value

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not Ack:
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __repr__(self) -> str:
        return f"Ack(kind={self.kind!r}, value={self.value!r})"


class Notification:
    """One notification-queue entry: (window, source rank, tag).

    Value-compared and hashable like the frozen dataclass it replaces
    (matcher-parity and differential tests compare notification lists);
    the frozen write guard is dropped for construction speed — treat
    instances as immutable.
    """

    __slots__ = ("win_id", "source", "tag")

    def __init__(self, win_id: int, source: int, tag: int):
        self.win_id = win_id
        self.source = source
        self.tag = tag

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not Notification:
            return NotImplemented
        return (self.win_id == other.win_id and self.source == other.source
                and self.tag == other.tag)

    def __hash__(self) -> int:
        return hash((self.win_id, self.source, self.tag))

    def __repr__(self) -> str:
        return (f"Notification(win_id={self.win_id!r}, "
                f"source={self.source!r}, tag={self.tag!r})")
