"""Message matching: posted-receive and unexpected-message queues.

Implements MPI's matching semantics: a receive matches the earliest
arrived message with a compatible (source, tag) — wildcards allowed on
the receive side only — and messages between a given pair are
non-overtaking because arrivals are processed in virtual-time order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..sim.sync import SimCondition
from .status import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import TransitMessage

__all__ = ["PostedRecv", "Inbox"]


class PostedRecv:
    """One posted (pending) receive.

    ``source`` is a *world* rank (or ``ANY_SOURCE``); ``context_id``
    scopes matching to one communicator, never wildcarded (MPI rule).
    """

    __slots__ = ("source", "tag", "capacity", "cond", "message", "context_id")

    def __init__(self, source: int, tag: int, capacity: int, cond: SimCondition,
                 context_id: int = 0):
        self.source = source
        self.tag = tag
        self.capacity = capacity
        self.cond = cond
        self.message: "TransitMessage | None" = None
        self.context_id = context_id

    def accepts(self, message: "TransitMessage") -> bool:
        return (
            self.context_id == getattr(message, "context_id", 0)
            and (self.source in (ANY_SOURCE, message.source))
            and (self.tag in (ANY_TAG, message.tag))
        )

    @property
    def matched(self) -> bool:
        return self.message is not None


class Inbox:
    """Per-process matching engine.

    ``on_message`` runs in kernel context when a message (eager payload
    or rendezvous RTS) arrives; ``post`` runs in the receiving task.
    Exactly one of the two sides finds the other.  ``on_match`` (if
    given) fires once per successful envelope match, from either side —
    the hook behind the ``match.*`` metrics.
    """

    def __init__(self, on_match=None, on_depth=None) -> None:
        self.unexpected: deque["TransitMessage"] = deque()
        self.posted: deque[PostedRecv] = deque()
        self.on_match = on_match
        #: Fires ``(unexpected_depth, posted_depth)`` after every queue
        #: mutation — the hook behind the Chrome counter events.
        self.on_depth = on_depth

    def _depth_changed(self) -> None:
        if self.on_depth is not None:
            self.on_depth(len(self.unexpected), len(self.posted))

    # ------------------------------------------------------------------
    def on_message(self, message: "TransitMessage") -> None:
        """Arrival path: match the earliest compatible posted receive,
        else queue as unexpected."""
        for i, rec in enumerate(self.posted):
            if rec.accepts(message):
                del self.posted[i]
                rec.message = message
                self._depth_changed()
                self._progress(message)
                op = getattr(message, "operation", None)
                rec.cond.notify_all(cause=op.delivery_cause if op is not None else None)
                return
        self.unexpected.append(message)
        self._depth_changed()

    def post(self, rec: PostedRecv) -> None:
        """Receive path: match the earliest compatible unexpected
        message, else enqueue the receive.  On a hit, ``rec.message``
        is set before returning."""
        for i, message in enumerate(self.unexpected):
            if rec.accepts(message):
                del self.unexpected[i]
                rec.message = message
                self._depth_changed()
                self._progress(message)
                return
        self.posted.append(rec)
        self._depth_changed()

    def _progress(self, message: "TransitMessage") -> None:
        """The progress engine's part of a match: a rendezvous RTS gets
        its clear-to-send immediately, whether or not the receiving task
        is blocked in a wait."""
        if self.on_match is not None:
            self.on_match(message)
        if not message.eager:
            message.operation.grant_cts()

    # ------------------------------------------------------------------
    @property
    def pending_unexpected(self) -> int:
        return len(self.unexpected)

    @property
    def pending_posted(self) -> int:
        return len(self.posted)
