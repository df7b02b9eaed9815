"""Failure detector: streaks, circuit breaker, flap damping, probes."""

from types import SimpleNamespace

import pytest

from repro.cluster import FailureDetector, SelfHealer
from repro.cluster.health import STATE_DOWN, STATE_HEALTHY, STATE_SUSPECT


class ManualClock:
    """A clock tests advance explicitly (FakeClock ticks per call)."""

    def __init__(self, start: float = 0.0):
        self.t = float(start)

    def perf(self) -> float:
        return self.t

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds

    def advance(self, seconds: float) -> None:
        self.t += seconds


def make_detector(**kwargs) -> tuple[FailureDetector, ManualClock]:
    clock = ManualClock()
    detector = FailureDetector(
        members=("m0", "m1"),
        failure_threshold=3,
        recovery_threshold=2,
        breaker_cooldown_s=1.0,
        max_cooldown_s=8.0,
        flap_window_s=60.0,
        clock=clock,
        **kwargs,
    )
    return detector, clock


def probing_loop(detector, probes) -> SelfHealer:
    """The self-heal loop over a store whose members answer ``probes``."""
    members = {name: SimpleNamespace(ping=probe) for name, probe in probes.items()}
    store = SimpleNamespace(_plane="files", detector=detector, members=members)
    return SelfHealer([store])


class TestStateMachine:
    def test_members_start_healthy(self):
        detector, _ = make_detector()
        assert detector.state("m0") == STATE_HEALTHY
        assert detector.is_healthy("m0")
        assert detector.down_members() == []

    def test_trips_after_failure_threshold(self):
        detector, _ = make_detector()
        detector.record_failure("m0")
        detector.record_failure("m0")
        assert detector.state("m0") != STATE_DOWN
        detector.record_failure("m0")
        assert detector.state("m0") == STATE_DOWN
        assert detector.down_members() == ["m0"]
        assert detector.state("m1") == STATE_HEALTHY

    def test_flapping_member_still_trips(self):
        """Interleaved successes must not reset the failure streak —
        only a full recovery (recovery_threshold consecutive successes
        from SUSPECT) does, so an alternating member eventually trips."""
        detector, _ = make_detector()
        for _ in range(2):
            detector.record_failure("m0")
            detector.record_success("m0")
        detector.record_failure("m0")  # third failure overall: trips
        assert detector.state("m0") == STATE_DOWN

    def test_recovery_needs_consecutive_successes(self):
        detector, clock = make_detector()
        for _ in range(3):
            detector.record_failure("m0")
        clock.advance(2.0)
        assert detector.allow("m0")  # half-open trial
        detector.record_success("m0")
        assert detector.state("m0") == STATE_SUSPECT
        detector.record_success("m0")
        assert detector.state("m0") == STATE_HEALTHY
        assert detector.is_healthy("m0")

    def test_suspect_failure_retrips_immediately(self):
        detector, clock = make_detector()
        for _ in range(3):
            detector.record_failure("m0")
        clock.advance(2.0)
        assert detector.allow("m0")
        detector.record_success("m0")  # SUSPECT
        detector.record_failure("m0")  # relapse: straight back DOWN
        assert detector.state("m0") == STATE_DOWN


class TestBreaker:
    def test_open_breaker_fast_fails(self):
        detector, _ = make_detector()
        for _ in range(3):
            detector.record_failure("m0")
        assert not detector.allow("m0")
        assert not detector.allow("m0")
        assert detector.allow("m1")

    def test_half_open_admits_exactly_one_trial(self):
        detector, clock = make_detector()
        for _ in range(3):
            detector.record_failure("m0")
        clock.advance(1.5)  # past the 1.0s cooldown
        assert detector.allow("m0")      # the single half-open trial
        assert not detector.allow("m0")  # concurrent callers keep failing fast
        detector.record_failure("m0")    # trial failed: re-open
        assert not detector.allow("m0")

    def test_flap_damping_doubles_cooldown(self):
        detector, clock = make_detector()
        for _ in range(3):
            detector.record_failure("m0")
        first_cooldown = detector.snapshot()["m0"]["cooldown_s"]
        clock.advance(first_cooldown + 0.1)
        assert detector.allow("m0")
        detector.record_failure("m0")  # re-trip inside the flap window
        second_cooldown = detector.snapshot()["m0"]["cooldown_s"]
        assert second_cooldown == pytest.approx(2 * first_cooldown)

    def test_cooldown_capped_at_max(self):
        detector, clock = make_detector()
        for _ in range(3):
            detector.record_failure("m0")
        for _ in range(8):  # keep failing every half-open trial
            clock.advance(detector.snapshot()["m0"]["cooldown_s"] + 0.1)
            if detector.allow("m0"):
                detector.record_failure("m0")
        assert detector.snapshot()["m0"]["cooldown_s"] <= 8.0

    def test_snapshot_shape(self):
        detector, _ = make_detector()
        detector.record_failure("m0")
        snap = detector.snapshot()
        assert set(snap) == {"m0", "m1"}
        entry = snap["m0"]
        assert entry["state"] == STATE_SUSPECT  # first failure: suspect
        assert entry["failure_streak"] == 1
        assert {"success_streak", "breaker_trips",
                "breaker_open_for_s", "cooldown_s"} <= set(entry)

    def test_unknown_member_is_created_healthy(self):
        detector, _ = make_detector()
        assert detector.allow("m9")
        assert "m9" in detector.members()


class TestHealthMonitor:
    def test_probe_failures_feed_the_detector(self):
        detector, _ = make_detector()
        calls = {"m0": 0, "m1": 0}

        def bad_probe():
            calls["m0"] += 1
            raise OSError("dead")

        def good_probe():
            calls["m1"] += 1
            return True

        monitor = probing_loop(detector, {"m0": bad_probe, "m1": good_probe})
        for _ in range(3):
            monitor.probe_once()
        assert detector.state("m0") == STATE_DOWN
        assert detector.state("m1") == STATE_HEALTHY
        assert monitor.stats["probe_failures"] >= 3
        assert calls["m1"] == 3

    def test_probes_skip_open_breakers(self):
        detector, _ = make_detector()
        probes = {"m0": lambda: (_ for _ in ()).throw(OSError("down"))}
        monitor = probing_loop(detector, probes)
        for _ in range(6):
            monitor.probe_once()
        # once the breaker opened, probe rounds skip instead of hammering
        assert monitor.stats["skipped_open"] >= 1

    def test_probe_recovers_member(self):
        detector, clock = make_detector()
        healthy = {"up": False}

        def probe():
            if not healthy["up"]:
                raise OSError("down")
            return True

        monitor = probing_loop(detector, {"m0": probe})
        for _ in range(3):
            monitor.probe_once()
        assert detector.state("m0") == STATE_DOWN
        healthy["up"] = True
        for _ in range(6):
            clock.advance(detector.snapshot()["m0"]["cooldown_s"] + 0.1)
            monitor.probe_once()
        assert detector.state("m0") == STATE_HEALTHY
