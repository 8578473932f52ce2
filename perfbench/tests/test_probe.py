"""The host-speed probe and the correction it gives."""

import signal
import time

import pytest

from perfbench.probe import INTERVAL_S, REF_S, SpeedProbe, corrected


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_samples_a_busy_window_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        busy(20 * INTERVAL_S)
    assert len(probe.samples) >= 5
    assert all(s > 0 for s in probe.samples)
    assert probe.median_s() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_window_without_a_sample_is_an_error():
    with SpeedProbe() as probe:
        pass
    with pytest.raises(RuntimeError, match="no sample"):
        probe.median_s()


def test_correction_scales_to_the_reference_speed():
    assert corrected(3.0, REF_S) == pytest.approx(3.0)
    # the host ran the probe at half speed: the window counts half
    assert corrected(3.0, 2 * REF_S) == pytest.approx(1.5)
