"""Property test for the compact arrival-time store.

``StreamProfile.arrival_times`` packs doubles into an ``array('d')``
subclass.  Result digests hash ``repr(StreamProfile)``, so the store must
render exactly as the list it replaced, and the statistics read from it
must not move.  The reference here is the same dataclass holding a
plain list.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpistream.profiles import ArrivalTimes, StreamProfile

_times = st.lists(st.floats(allow_nan=True, allow_infinity=True),
                  max_size=40)


def _outcome(stat):
    """A statistic's value, or the error it raises (gaps of extreme
    floats overflow when squared, on either store)."""
    try:
        value = stat()
    except ArithmeticError as exc:
        return type(exc)
    return "nan" if math.isnan(value) else value


def _pair(times):
    compact = StreamProfile()
    for t in times:
        compact.record_recv(8, t)
    reference = StreamProfile(elements_received=len(times),
                              bytes_received=8 * len(times))
    reference.arrival_times = list(times)
    return compact, reference


@settings(max_examples=300, deadline=None)
@given(times=_times)
@example(times=[])
@example(times=[-0.0, 0.0, 5e-324, 1e308, math.inf])
@example(times=[1e308, -1e308, -math.inf, 2.2250738585072014e-308])
def test_compact_store_keeps_the_repr_and_statistics(times):
    compact, reference = _pair(times)
    assert type(compact.arrival_times) is ArrivalTimes
    assert repr(compact) == repr(reference)
    assert repr(compact.arrival_times) == repr(list(times))
    assert _outcome(lambda: compact.mean_interarrival) == \
        _outcome(lambda: reference.mean_interarrival)
    assert _outcome(compact.arrival_cv) == _outcome(reference.arrival_cv)


def test_empty_store_renders_as_an_empty_list():
    assert repr(StreamProfile().arrival_times) == "[]"
    assert "arrival_times=[]" in repr(StreamProfile())
