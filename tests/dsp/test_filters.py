"""Tests for the Butterworth front-end and the octave filterbank."""

import numpy as np
import pytest

from repro.dsp import (
    BandpassFilter,
    band_split,
    headtalk_bandpass,
    highpass,
    lowpass,
    octave_band_edges,
)


def tone(freq: float, fs: int = 48_000, seconds: float = 0.2) -> np.ndarray:
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t)


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


class TestBandpass:
    def test_passband_preserved(self):
        bp = BandpassFilter(100, 16_000, 48_000, order=5)
        out = bp.apply(tone(1000))
        assert rms(out) == pytest.approx(rms(tone(1000)), rel=0.05)

    def test_stopband_attenuated(self):
        bp = BandpassFilter(100, 16_000, 48_000, order=5)
        assert rms(bp.apply(tone(20))) < 0.05 * rms(tone(20))
        assert rms(bp.apply(tone(22_000))) < 0.05 * rms(tone(22_000))

    def test_multichannel_last_axis(self):
        bp = BandpassFilter(100, 16_000, 48_000)
        stacked = np.stack([tone(1000), tone(20)])
        out = bp.apply(stacked)
        assert out.shape == stacked.shape
        assert rms(out[0]) > 10 * rms(out[1])

    def test_design_is_cached_and_stays_writable(self):
        from scipy import signal as sps

        first = BandpassFilter(100, 16_000, 48_000)._sos()
        assert BandpassFilter(100, 16_000, 48_000)._sos() is first
        # sosfilt hands the sections to a memoryview that needs a writable buffer.
        assert first.flags.writeable
        expected = sps.butter(5, [100, 16_000], btype="bandpass", fs=48_000, output="sos")
        assert np.array_equal(first, expected)
        assert BandpassFilter(200, 16_000, 48_000)._sos() is not first

    def test_short_signal_falls_back_to_causal(self):
        bp = BandpassFilter(100, 16_000, 48_000)
        out = bp.apply(np.ones(8))
        assert out.shape == (8,)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandpassFilter(0, 100, 48_000)
        with pytest.raises(ValueError):
            BandpassFilter(100, 30_000, 48_000)
        with pytest.raises(ValueError):
            BandpassFilter(100, 1000, 48_000, order=0)

    def test_headtalk_bandpass_matches_paper(self):
        bp = headtalk_bandpass(48_000)
        assert bp.low_hz == 100.0
        assert bp.high_hz == 16_000.0
        assert bp.order == 5

    def test_headtalk_bandpass_low_rate(self):
        bp = headtalk_bandpass(16_000)
        assert bp.high_hz < 8_000


class TestHighLowPass:
    def test_lowpass_kills_highs(self):
        assert rms(lowpass(tone(8000), 1000, 48_000)) < 0.02

    def test_highpass_kills_lows(self):
        assert rms(highpass(tone(100), 2000, 48_000)) < 0.02

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            lowpass(tone(100), 0, 48_000)
        with pytest.raises(ValueError):
            highpass(tone(100), 25_000, 48_000)


class TestOctaveBands:
    def test_bands_double(self):
        edges = octave_band_edges(48_000, low_hz=125, n_bands=6)
        for lo, hi in edges:
            assert hi == pytest.approx(2 * lo, rel=0.02) or hi >= 0.9 * 24_000 * 0.98

    def test_bands_stop_below_nyquist(self):
        edges = octave_band_edges(16_000, low_hz=125, n_bands=12)
        assert edges[-1][1] <= 8000

    def test_validation(self):
        with pytest.raises(ValueError):
            octave_band_edges(48_000, n_bands=0)

    def test_band_split_energy_partition(self):
        """Band components approximately reconstruct the original."""
        fs = 48_000
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        edges = octave_band_edges(fs, 125, 7)
        parts = band_split(x, fs, edges)
        assert len(parts) == len(edges)
        recon = np.sum(parts, axis=0)
        # Mid-band content should survive the split+sum round trip.
        mid = lowpass(highpass(x, 300, fs), 6000, fs)
        mid_recon = lowpass(highpass(recon, 300, fs), 6000, fs)
        correlation = np.corrcoef(mid, mid_recon)[0, 1]
        assert correlation > 0.9

    def test_band_split_isolates_tones(self):
        fs = 48_000
        edges = octave_band_edges(fs, 125, 7)
        x = tone(1400, fs)  # falls in the 1-2 kHz band
        parts = band_split(x, fs, edges)
        energies = [rms(p) for p in parts]
        best = int(np.argmax(energies))
        lo, hi = edges[best]
        assert lo <= 1400 <= hi

    def test_single_band_passthrough(self):
        x = tone(1000)
        parts = band_split(x, 48_000, [(100.0, 16_000.0)])
        assert np.allclose(parts[0], x)
