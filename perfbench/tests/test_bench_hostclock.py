"""The host clock runs at reference speed, stands still while it probes and
restores the SIGALRM handler it replaced."""

import signal
import time

import hostclock
from hostclock import HostClock


def test_clock_scales_wall_time_by_probe_speed(monkeypatch):
    # every probe reads twice the reference time: a host at half speed
    monkeypatch.setattr(hostclock, "probe", lambda: 2.0 * hostclock.REFERENCE_PROBE_S)
    clock = HostClock(period_s=0.01)
    clock.start()
    try:
        wall0, ref0 = time.perf_counter(), clock.now()
        time.sleep(0.3)
        wall, ref = time.perf_counter() - wall0, clock.now() - ref0
    finally:
        clock.stop()
    assert clock.probes >= 10
    assert clock.speed() == 0.5
    assert abs(ref - 0.5 * wall) <= 0.01 * wall


def test_probe_time_is_left_out(monkeypatch):
    def slow_probe():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.004:
            pass
        return hostclock.REFERENCE_PROBE_S

    monkeypatch.setattr(hostclock, "probe", slow_probe)
    clock = HostClock(period_s=0.01)
    clock.start()
    try:
        wall0, ref0 = time.perf_counter(), clock.now()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall, ref = time.perf_counter() - wall0, clock.now() - ref0
    finally:
        clock.stop()
    # at unit speed the clock reads the wall time less the 4 ms probes
    timed = clock.probes - hostclock.WINDOW
    assert timed >= 10
    assert abs(ref - (wall - 0.004 * timed)) <= 0.25 * 0.004 * timed


def test_stop_restores_the_previous_handler():
    def previous(*_):
        pass

    old = signal.signal(signal.SIGALRM, previous)
    try:
        clock = HostClock()
        clock.start()
        assert signal.getsignal(signal.SIGALRM) == clock._probe
        clock.stop()
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
