"""Incremental frame extraction and GCC evidence accumulation.

The offline decision path sees a whole utterance at once; the serving
path (:mod:`repro.serving`) sees PCM a chunk at a time and must grow the
same frame-granular evidence incrementally:

- :class:`FrameFeed` aligns an arbitrary chunking of the stream onto the
  exact frame boundaries :func:`repro.dsp.gcc.extract_frames` would cut
  from the concatenated signal — a carry buffer holds the partial tail,
  so the emitted frames are invariant to how the stream was chunked;
- :class:`GccAccumulator` feeds each newly completed group of frames
  through one batched rfft/irfft per push and keeps two running sums:
  the per-pair correlation windows, from which callers read cheap
  per-frame evidence (the accumulated SRP curve, its peak lag, per-pair
  TDoA lags), and the raw per-pair cross-spectra, which whitened once
  give an utterance-level GCC over any frequency band
  (:meth:`GccAccumulator.band_gcc`).

Neither class makes decisions; :class:`repro.core.streaming
.StreamingDecider` layers thresholds and early-exit policy on top.
"""

from __future__ import annotations

import numpy as np

from .gcc import (
    _fft_length,
    _phat_window,
    _validate_pairs,
    extract_frames,
    framewise_cross_spectra,
)
from .precision import fft_api, resolve_dtype


class FrameFeed:
    """Align a chunked multi-channel stream onto fixed frame boundaries.

    Frame ``t`` always covers samples ``t * hop_length`` to
    ``t * hop_length + frame_length`` of the *concatenated* stream,
    whatever chunk sizes arrive: complete frames are emitted as soon as
    their last sample lands, the partial tail is carried to the next
    push.  With ``hop_length < frame_length`` the carry keeps the
    overlap; with ``hop_length > frame_length`` it tracks the gap to
    skip.
    """

    def __init__(self, n_mics: int, frame_length: int, hop_length: int, dtype=None):
        if n_mics < 1:
            raise ValueError("n_mics must be >= 1")
        if frame_length < 1 or hop_length < 1:
            raise ValueError("frame_length and hop_length must be >= 1")
        self.n_mics = int(n_mics)
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        self.dtype = resolve_dtype(dtype)
        self.samples_seen = 0
        self.frames_emitted = 0
        self._pending: np.ndarray | None = None
        self._skip = 0

    @property
    def buffered(self) -> int:
        """Samples currently carried, waiting to complete a frame."""
        return 0 if self._pending is None else self._pending.shape[1]

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Absorb one chunk; return the newly completed frames.

        Returns a ``(k, n_mics, frame_length)`` array (``k`` may be 0).
        """
        x = np.asarray(chunk, dtype=self.dtype)
        if x.ndim != 2 or x.shape[0] != self.n_mics:
            raise ValueError(f"chunk must be ({self.n_mics}, n_samples), got {x.shape}")
        self.samples_seen += x.shape[1]
        if self._skip:
            drop = min(self._skip, x.shape[1])
            self._skip -= drop
            x = x[:, drop:]
        pending = x if self._pending is None else np.concatenate([self._pending, x], axis=1)
        if pending.shape[1] < self.frame_length:
            self._pending = pending if pending.shape[1] else None
            return np.zeros((0, self.n_mics, self.frame_length), dtype=self.dtype)
        n_frames = 1 + (pending.shape[1] - self.frame_length) // self.hop_length
        covered = (n_frames - 1) * self.hop_length + self.frame_length
        frames = extract_frames(
            pending[:, :covered],
            self.frame_length,
            self.hop_length,
            pad=False,
            dtype=self.dtype,
        )
        consumed = n_frames * self.hop_length
        if consumed < pending.shape[1]:
            self._pending = pending[:, consumed:].copy()
        else:
            self._pending = None
            self._skip = consumed - pending.shape[1]
        self.frames_emitted += n_frames
        return frames


class GccAccumulator:
    """Running per-pair GCC-PHAT evidence over a streamed capture.

    Each push batches the newly completed frames through one
    rfft/irfft (the two halves of
    :func:`repro.dsp.gcc.pairwise_gcc_framewise`) and adds their
    correlation windows to ``gcc_sum``.  After ``n`` frames,
    ``gcc_sum / n`` matches the mean over
    ``pairwise_gcc_frames(stream, ..., pad=False)`` of the concatenated
    signal to within a unit in the last place (same transforms,
    different batch grouping).

    The same push also adds the frames' raw cross-spectra, before
    whitening, to ``cross_sum`` (``len(pairs) x (n_fft // 2 + 1)``
    complex values, ~200 KB for six pairs of 2048-sample frames):
    the statistic behind :meth:`band_gcc`.
    """

    def __init__(
        self,
        n_mics: int,
        pairs: list[tuple[int, int]],
        max_lag: int,
        frame_length: int,
        hop_length: int,
        dtype=None,
    ):
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        _validate_pairs(pairs, n_mics)
        self.pairs = list(pairs)
        self.max_lag = int(max_lag)
        self.dtype = resolve_dtype(dtype)
        self.feed = FrameFeed(n_mics, frame_length, hop_length, dtype=self.dtype)
        self.gcc_sum = np.zeros((len(self.pairs), 2 * self.max_lag + 1), dtype=self.dtype)
        self.n_fft = _fft_length(2 * self.feed.frame_length, self.max_lag)
        self.cross_sum = np.zeros(
            (len(self.pairs), self.n_fft // 2 + 1), dtype=np.result_type(self.dtype, np.complex64)
        )
        self.n_frames = 0

    @property
    def samples_seen(self) -> int:
        """Total samples pushed (including any carried tail)."""
        return self.feed.samples_seen

    def push(self, chunk: np.ndarray) -> int:
        """Absorb one chunk; return how many new frames were accumulated."""
        frames = self.feed.push(chunk)
        if frames.shape[0]:
            cross, _ = framewise_cross_spectra(frames, self.pairs, self.max_lag, dtype=self.dtype)
            self.cross_sum += cross.sum(axis=0)
            windows = _phat_window(cross, self.n_fft, self.max_lag, fft_api(self.dtype))
            self.gcc_sum += windows.sum(axis=0)
            self.n_frames += frames.shape[0]
        return int(frames.shape[0])

    def band_gcc(self, sample_rate: int, band: tuple[float, float]) -> np.ndarray:
        """Per-pair GCC-PHAT window of the frames so far, within ``band``.

        Cross-spectrum bins outside ``[band[0], band[1]]`` Hz are zeroed
        and the summed cross-spectrum is whitened once: an estimate of
        the whole-prefix correlation of the band-passed capture at the
        cost of one small irfft, instead of a band-pass and a
        prefix-length FFT.  Raises ``ValueError`` before the first frame.
        """
        if self.n_frames == 0:
            raise ValueError("no frames accumulated yet")
        freqs = np.fft.rfftfreq(self.n_fft, d=1.0 / sample_rate)
        inside = (freqs >= band[0]) & (freqs <= band[1])
        masked = np.where(inside, self.cross_sum, 0.0)
        return _phat_window(masked, self.n_fft, self.max_lag, fft_api(self.dtype))

    def mean_gcc(self) -> np.ndarray:
        """Per-pair mean correlation window over the frames so far."""
        if self.n_frames == 0:
            return self.gcc_sum.copy()
        return self.gcc_sum / self.n_frames

    def srp(self) -> np.ndarray:
        """Accumulated SRP curve: the per-pair sums added over pairs."""
        return self.gcc_sum.sum(axis=0)

    def srp_argmax_lag(self) -> int:
        """Lag (in samples, signed) of the accumulated SRP maximum."""
        return int(np.argmax(self.srp())) - self.max_lag

    def tdoa_lags(self) -> np.ndarray:
        """Per-pair peak lags (in samples, signed) of the accumulated GCC."""
        return np.argmax(self.gcc_sum, axis=1) - self.max_lag
