"""Property test for producer window admission.

``admit_to_window`` retires completed sends from the head of a
producer's pending list before applying the window rule.  The memory
gain of keeping only in-flight sends rests on one identity: on the
pristine and compiled send paths that trim never changes which request
a send blocks on.  The untrimmed rule — pop the oldest when the window
is full, block on it if unfinished — is kept here as the reference.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpistream.stream import admit_to_window
from repro.simmpi.request import Request


def reference_admit(pending, window):
    """The untrimmed rule: pop the oldest when full, block if unset."""
    if len(pending) >= window:
        oldest = pending.popleft()
        if not oldest.is_set:
            return oldest
    return None


@settings(max_examples=300, deadline=None)
@given(window=st.integers(1, 8), nsends=st.integers(0, 48), data=st.data())
def test_admission_blocks_exactly_where_the_untrimmed_rule_blocks(
        window, nsends, data):
    ref, trimmed = deque(), []
    sent = []
    for i in range(nsends):
        # any subset of the in-flight sends completes before this
        # admission, so later sends may finish before earlier ones
        inflight = [r for r in sent if not r.is_set]
        if inflight:
            for req in data.draw(st.lists(st.sampled_from(inflight),
                                          unique=True)):
                req.is_set = True
        expect = reference_admit(ref, window)
        got = admit_to_window(trimmed, window)
        assert got is expect, f"send {i}: blocks on {got}, not {expect}"
        if got is None:
            # nothing popped: the head the trim left is still in flight
            assert not trimmed or not trimmed[0].is_set
        else:
            got.is_set = True  # the producer resumes once it completes
        # the trimmed list is a suffix of the untrimmed one
        assert list(trimmed) == list(ref)[len(ref) - len(trimmed):]
        req = Request("send", ("send->", i))
        sent.append(req)
        ref.append(req)
        trimmed.append(req)
        assert len(trimmed) <= len(ref) <= window

