import pytest

from tracing import Tracer, aggregate, points_under


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [2, 5] and b [6, 8]; b holds c [6.5, 7]
    tr = Tracer(clock=FakeClock([0, 2, 5, 6, 6.5, 7, 8, 10]))
    c = tr.span("c", lambda: None)
    b = tr.span("b", lambda: c())
    a = tr.span("a", lambda: None)

    def body():
        a()
        b()

    tr.span("outer", body)()
    agg = aggregate(tr.spans)
    assert agg["outer"]["total_s"] == 10
    assert agg["outer"]["self_s"] == pytest.approx(10 - 3 - 2)
    assert agg["b"]["self_s"] == pytest.approx(2 - 0.5)
    assert agg["c"]["self_s"] == pytest.approx(0.5)
    assert agg["a"]["self_s"] == pytest.approx(3)


def test_repeated_spans_accumulate():
    tr = Tracer(clock=FakeClock([0, 1, 1, 3]))
    f = tr.span("f", lambda: None)
    f()
    f()
    assert aggregate(tr.spans)["f"] == {"calls": 2, "total_s": 3, "self_s": 3,
                                        "points": 0}


def test_points_go_to_innermost_enumerating_span():
    tr = Tracer()

    def charge(n):
        tr.innermost(("sum",))[4] += n

    inner = tr.span("sum", lambda: charge(5))
    tr.span("cross", lambda: [inner(), inner()])()
    tr.span("sum", lambda: charge(7))()
    assert points_under(tr.spans, "sum", "cross") == 10
    assert aggregate(tr.spans)["sum"]["points"] == 17


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tr.span("boom", boom)()
    assert tr.stack == [] and tr.spans[0][3] is not None
