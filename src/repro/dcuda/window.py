"""Device-side window handles and the global address space.

A window maps ``(rank, window, offset)`` tuples to distributed memory
(§II-C).  Each participating rank registers a local 1-D numpy buffer;
windows of shared-memory ranks may overlap (the mini-applications exploit
this: neighbouring same-device ranks register views into one device array,
so their "halo exchange" is the no-copy case the paper optimizes out).
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

import numpy as np

__all__ = ["Window", "same_memory"]


def same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    """True when *a* and *b* alias the exact same memory range.

    This is the paper's zero-copy test: a shared-memory put whose source
    and target addresses coincide performs no data movement.

    Args:
        a: First array.
        b: Second array.

    Returns:
        ``True`` iff both arrays share base pointer, element size, total
        size, and strides.
    """
    if a.size != b.size or a.itemsize != b.itemsize:
        return False
    # ctypes.data is the same base pointer __array_interface__["data"][0]
    # exposes, without materialising the interface dict on every call.
    return (a.ctypes.data == b.ctypes.data and a.strides == b.strides)


class Window:
    """A rank's handle to a created window (§II-C).

    Returned by :meth:`~repro.dcuda.device_api.DRank.win_create`; pass it
    to the RMA calls (``put_notify``, ``get``, …) and release it with
    ``win_free``.

    Attributes:
        local_id: Device-local window id (per-rank namespace).
        global_id: Globally valid id assigned by the runtime (§III-B).
        comm_name: Communicator the window was created over.
        owner_rank: World rank holding this handle.
        buffer: The registered local 1-D numpy buffer.
        participants: World ranks participating in the window.
    """

    __slots__ = ("local_id", "global_id", "comm_name", "owner_rank",
                 "buffer", "participants", "_participant_set",
                 "_last_flush_id")

    def __init__(self, local_id: int, global_id: Tuple[str, int],
                 comm_name: str, owner_rank: int, buffer: np.ndarray,
                 participants: Tuple[int, ...],
                 member_set: FrozenSet[int]):
        self.local_id = local_id
        self.global_id = global_id
        self.comm_name = comm_name
        self.owner_rank = owner_rank
        self.buffer = buffer
        self.participants = participants
        # Membership test for every put and get: O(1) at any rank count.
        # The communicator's set, shared by every window over it.
        self._participant_set = member_set
        #: Highest flush id issued through this window (for win_flush).
        self._last_flush_id = 0

    @property
    def size(self) -> int:
        """Registered extent in elements."""
        return int(self.buffer.size)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the registered buffer."""
        return self.buffer.dtype

    def check_target(self, target_rank: int, offset: int, count: int) -> None:
        """Validate an RMA target triple against this window.

        Args:
            target_rank: World rank addressed by the operation.
            offset: Element offset into the target's window region.
            count: Number of elements transferred.

        Raises:
            ValueError: *target_rank* is not a participant, or *offset* /
                *count* is negative.
        """
        if target_rank not in self._participant_set:
            raise ValueError(
                f"rank {target_rank} is not a participant of window "
                f"{self.global_id} (participants {self.participants})")
        if offset < 0 or count < 0:
            raise ValueError(
                f"negative window offset/count: {offset}/{count}")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"<Window {self.global_id} rank={self.owner_rank} "
                f"size={self.size}>")
