"""Tests for the discrete-event simulation clock."""

import math

import pytest

from repro.dispatch import EventClock
from repro.serve import RealTimeClock


class TestOrdering:
    def test_events_fire_in_time_order(self):
        clock = EventClock()
        fired = []
        clock.schedule(3.0, lambda: fired.append("c"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(2.0, lambda: fired.append("b"))
        while clock.pop():
            pass
        assert fired == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_simultaneous_events_fire_in_schedule_order(self):
        clock = EventClock()
        fired = []
        for tag in "abcde":
            clock.schedule(5.0, lambda tag=tag: fired.append(tag))
        while clock.pop():
            pass
        assert fired == list("abcde")

    def test_pop_advances_time_to_the_event(self):
        clock = EventClock()
        clock.schedule(7.5, lambda: None)
        assert clock.now == 0.0
        assert clock.pop()
        assert clock.now == 7.5

    def test_pop_on_empty_clock_returns_false_and_keeps_time(self):
        clock = EventClock()
        clock.schedule(1.0, lambda: None)
        clock.pop()
        assert not clock.pop()
        assert clock.now == 1.0


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        clock = EventClock()
        fired = []
        doomed = clock.schedule(1.0, lambda: fired.append("doomed"))
        clock.schedule(2.0, lambda: fired.append("kept"))
        doomed.cancel()
        while clock.pop():
            pass
        assert fired == ["kept"]

    def test_len_counts_only_live_events(self):
        clock = EventClock()
        keep = clock.schedule(1.0, lambda: None)
        drop = clock.schedule(2.0, lambda: None)
        assert len(clock) == 2
        drop.cancel()
        assert len(clock) == 1
        assert keep.time == 1.0

    def test_peek_time_skips_cancelled(self):
        clock = EventClock()
        first = clock.schedule(1.0, lambda: None)
        clock.schedule(2.0, lambda: None)
        first.cancel()
        assert clock.peek_time() == 2.0

    def test_peek_time_on_idle_clock(self):
        assert EventClock().peek_time() is None


class TestRunUntil:
    def test_fires_events_up_to_and_including_the_horizon(self):
        clock = EventClock()
        fired = []
        for t in (1.0, 2.0, 3.0):
            clock.schedule(t, lambda t=t: fired.append(t))
        assert clock.run_until(2.0) == 2
        assert fired == [1.0, 2.0]
        assert clock.now == 2.0

    def test_lands_exactly_on_the_horizon_even_with_no_events(self):
        clock = EventClock()
        clock.run_until(42.0)
        assert clock.now == 42.0

    def test_cannot_run_backwards(self):
        clock = EventClock()
        clock.run_until(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.run_until(5.0)

    def test_events_scheduled_while_running_still_fire(self):
        # An arrival that schedules a follow-up (refill) within the
        # horizon must see that follow-up fire in the same run.
        clock = EventClock()
        fired = []

        def chain():
            fired.append("first")
            clock.schedule(1.0, lambda: fired.append("second"))

        clock.schedule(1.0, chain)
        clock.run_until(3.0)
        assert fired == ["first", "second"]


class TestValidation:
    @pytest.mark.parametrize("make", [EventClock, RealTimeClock])
    def test_zero_delay_is_armed(self, make):
        # The wall clock moves between two reads of ``now``; a zero
        # delay is still not "in the past".
        clock = make()
        for _ in range(100):
            clock.schedule(0.0, lambda: None)
        assert len(clock) == 100

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventClock().schedule(-1.0, lambda: None)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EventClock().schedule(math.nan, lambda: None)

    def test_infinite_time_rejected(self):
        # A lost answer has no arrival; callers skip scheduling it
        # rather than parking an event at infinity.
        with pytest.raises(ValueError, match="infinity"):
            EventClock().schedule(math.inf, lambda: None)

    def test_schedule_at_before_now_rejected(self):
        clock = EventClock()
        clock.run_until(5.0)
        with pytest.raises(ValueError, match="already at"):
            clock.schedule_at(4.0, lambda: None)
