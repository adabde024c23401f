"""Matching-engine unit tests (queues exercised directly), plus a
property test for the FIFO-per-pair invariant."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.matching import Inbox, PostedRecv
from repro.mpi.status import ANY_SOURCE, ANY_TAG


class FakeMessage:
    """A stand-in TransitMessage: eager, no protocol side effects."""

    def __init__(self, source, tag, uid=0):
        self.source = source
        self.tag = tag
        self.eager = True
        self.uid = uid


class FakeCond:
    def __init__(self):
        self.notified = 0

    def notify_all(self, delay=0.0, cause=None):
        self.notified += 1


def posted(source, tag):
    return PostedRecv(source, tag, capacity=1 << 20, cond=FakeCond())


class TestBasicMatching:
    def test_post_then_arrival(self):
        inbox = Inbox()
        rec = posted(0, 5)
        inbox.post(rec)
        assert inbox.pending_posted == 1
        msg = FakeMessage(0, 5)
        inbox.on_message(msg)
        assert rec.message is msg
        assert rec.cond.notified == 1
        assert inbox.pending_posted == 0

    def test_arrival_then_post(self):
        inbox = Inbox()
        msg = FakeMessage(0, 5)
        inbox.on_message(msg)
        assert inbox.pending_unexpected == 1
        rec = posted(0, 5)
        inbox.post(rec)
        assert rec.message is msg
        assert inbox.pending_unexpected == 0

    def test_mismatched_tag_queues(self):
        inbox = Inbox()
        inbox.post(posted(0, 5))
        inbox.on_message(FakeMessage(0, 6))
        assert inbox.pending_posted == 1
        assert inbox.pending_unexpected == 1

    def test_wildcard_source(self):
        inbox = Inbox()
        rec = posted(ANY_SOURCE, 5)
        inbox.post(rec)
        inbox.on_message(FakeMessage(3, 5))
        assert rec.message.source == 3

    def test_wildcard_tag(self):
        inbox = Inbox()
        rec = posted(2, ANY_TAG)
        inbox.post(rec)
        inbox.on_message(FakeMessage(2, 99))
        assert rec.message.tag == 99

    def test_unexpected_matched_in_arrival_order(self):
        inbox = Inbox()
        inbox.on_message(FakeMessage(0, 5, uid=1))
        inbox.on_message(FakeMessage(0, 5, uid=2))
        rec = posted(0, 5)
        inbox.post(rec)
        assert rec.message.uid == 1

    def test_posted_matched_in_post_order(self):
        inbox = Inbox()
        rec1, rec2 = posted(0, ANY_TAG), posted(0, ANY_TAG)
        inbox.post(rec1)
        inbox.post(rec2)
        inbox.on_message(FakeMessage(0, 1, uid=1))
        inbox.on_message(FakeMessage(0, 2, uid=2))
        assert rec1.message.uid == 1
        assert rec2.message.uid == 2

    def test_specific_recv_skips_nonmatching_unexpected(self):
        inbox = Inbox()
        inbox.on_message(FakeMessage(1, 7, uid=1))
        inbox.on_message(FakeMessage(0, 7, uid=2))
        rec = posted(0, 7)
        inbox.post(rec)
        assert rec.message.uid == 2
        assert inbox.pending_unexpected == 1


@given(
    # Sequence of events: ("msg", src, tag) arrivals and ("recv", src, tag)
    # posts, with small rank/tag alphabets to force collisions.
    events=st.lists(
        st.tuples(
            st.sampled_from(["msg", "recv"]),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_property_fifo_per_source_tag(events):
    """Messages from one (source, tag) pair are matched in send order,
    whatever the post/arrival interleaving (MPI non-overtaking rule)."""
    inbox = Inbox()
    uid = 0
    recs = []
    for kind, src, tag in events:
        if kind == "msg":
            uid += 1
            inbox.on_message(FakeMessage(src, tag, uid=uid))
        else:
            rec = posted(src, tag)
            recs.append(rec)
            inbox.post(rec)
    matched = [r.message for r in recs if r.message is not None]
    by_pair: dict[tuple[int, int], list[int]] = {}
    for m in matched:
        by_pair.setdefault((m.source, m.tag), []).append(m.uid)
    for uids in by_pair.values():
        assert uids == sorted(uids)
