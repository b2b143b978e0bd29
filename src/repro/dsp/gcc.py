"""Generalized Cross-Correlation with Phase Transform (GCC-PHAT).

GCC-PHAT (Knapp & Carter, 1976) whitens the cross-power spectrum of a
microphone pair so the inverse transform concentrates into sharp peaks at
the candidate time differences of arrival (Eq. 5 of the paper).  The
orientation feature extractor consumes a short window of correlation lags
centered at zero (e.g. 27 lags for device D2) per microphone pair,
together with the per-pair TDoA estimate.

Sign convention (shared by every function here and by
:mod:`repro.dsp.srp`): a lag is the arrival-time difference
``t_a - t_b`` in samples.  A *positive* lag therefore means the wavefront
reached ``signal_b`` first and ``signal_a`` lags behind it
(``a(t) ~= b(t - lag)``).  ``tests/dsp/test_gcc.py`` pins this with
synthetic integer shifts and against array geometry.

Every public function accepts ``dtype=`` (or defers to the process
dtype, see :mod:`repro.dsp.precision`): float64 is the byte-identical
default, float32 runs the transforms in single precision for the raw
hot path.  Granularities, coarse to fine:

- :func:`gcc_phat` — one pair of one capture;
- :func:`pairwise_gcc` — all pairs of one capture, one FFT per channel;
- :func:`pairwise_gcc_frames` — all *frames* x pairs of one capture in
  one batched rfft/irfft (the API the streaming gateway consumes).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

import numpy as np

from ..obs.metrics import counter_inc
from .precision import fft_api, resolve_dtype

_PHAT_REGULARIZATION = 1e-12

_TRUNCATION_WARNED = False


def _note_truncation(dropped: int) -> None:
    """Record trailing samples a ``pad=False`` framing silently dropped.

    Streaming callers keep their own carry buffers and never hit this;
    a batch caller that does is losing real audio from the decision, so
    it warns once per process (and counts every occurrence in the
    ``dsp.frames.truncated`` metric, labelled by nothing — the sample
    count is the increment).
    """
    global _TRUNCATION_WARNED
    counter_inc("dsp.frames.truncated", dropped)
    if _TRUNCATION_WARNED:
        return
    _TRUNCATION_WARNED = True
    warnings.warn(
        f"extract_frames(pad=False) dropped {dropped} trailing samples that do not fill "
        "a complete frame; pass pad=True to keep them (warned once per process)",
        RuntimeWarning,
        stacklevel=3,
    )


def _fft_length(n_linear: int, max_lag: int) -> int:
    """Power-of-two FFT size fitting linear correlation AND the lag window.

    The circular correlation of an ``n_fft``-point FFT only exposes lags
    ``-(n_fft // 2 - 1) .. n_fft // 2``; sizing by signal length alone
    silently truncated wide windows requested for short signals.  The
    returned size guarantees ``n_fft // 2 - 1 >= max_lag`` so the full
    ``2 * max_lag + 1`` window always exists.
    """
    n = max(int(n_linear), 2 * max_lag + 2)
    return 1 << (n - 1).bit_length()


def _lag_window(corr: np.ndarray, max_lag: int) -> np.ndarray:
    """Reorder circular correlation into lags ``-max_lag .. +max_lag``.

    ``irfft`` puts positive lags first and negative lags at the tail;
    works on any leading batch shape, operating over the last axis.
    """
    if max_lag == 0:
        return corr[..., :1]
    return np.concatenate([corr[..., -max_lag:], corr[..., : max_lag + 1]], axis=-1)


def _phat_window(cross: np.ndarray, n_fft: int, max_lag: int, fft) -> np.ndarray:
    """PHAT-whiten a raw cross-spectrum *in place* -> lag window.

    Works over any batch shape.  Zeroed bins stay zero, so masking bins
    beforehand band-limits the correlation.
    """
    cross /= np.abs(cross) + _PHAT_REGULARIZATION
    corr = fft.irfft(cross, n_fft, axis=-1)
    return _lag_window(corr, max_lag)


def gcc_phat(
    signal_a: np.ndarray,
    signal_b: np.ndarray,
    max_lag: int,
    regularization: float = _PHAT_REGULARIZATION,
    dtype=None,
) -> np.ndarray:
    """Windowed GCC-PHAT between two signals.

    Returns the PHAT-weighted cross-correlation at integer lags
    ``-max_lag .. +max_lag`` — always exactly ``2 * max_lag + 1`` values,
    however short the signals (the FFT is sized to fit the window).
    Positive lags mean the wavefront reached ``signal_b`` first, i.e.
    ``signal_a`` lags ``signal_b`` (``a(t) ~= b(t - lag)``); the peak lag
    estimates the arrival-time difference ``t_a - t_b``.
    """
    dtype = resolve_dtype(dtype)
    a = np.asarray(signal_a, dtype=dtype).ravel()
    b = np.asarray(signal_b, dtype=dtype).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("signals must be non-empty")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    n_fft = _fft_length(a.size + b.size, max_lag)
    fft = fft_api(dtype)
    spec_a = fft.rfft(a, n_fft)
    spec_b = fft.rfft(b, n_fft)
    cross = spec_a * np.conj(spec_b)
    cross /= np.abs(cross) + regularization
    corr = fft.irfft(cross, n_fft)
    return _lag_window(corr, max_lag)


def lag_axis(max_lag: int, sample_rate: int) -> np.ndarray:
    """Lag values in seconds matching :func:`gcc_phat` output order."""
    lags = np.arange(-max_lag, max_lag + 1)
    return lags / float(sample_rate)


def estimate_tdoa(
    signal_a: np.ndarray,
    signal_b: np.ndarray,
    max_lag: int,
    sample_rate: int,
) -> float:
    """TDoA estimate in seconds: the lag of the GCC-PHAT maximum.

    The estimate is ``t_a - t_b``: positive values mean the wavefront
    reached ``signal_b`` first (``signal_a`` lags), matching
    :func:`gcc_phat` and ``MicArray.tdoa``/``steering_pair_lags``.
    """
    corr = gcc_phat(signal_a, signal_b, max_lag)
    best = int(np.argmax(corr))
    return (best - max_lag) / float(sample_rate)


def _validate_channels(channels: np.ndarray, dtype=None) -> np.ndarray:
    x = np.asarray(channels, dtype=resolve_dtype(dtype))
    if x.ndim != 2:
        raise ValueError(f"channels must be (n_mics, n_samples), got {x.shape}")
    if x.shape[1] == 0:
        raise ValueError("channels must be non-empty")
    return x


def _validate_pairs(pairs: Sequence[tuple[int, int]], n_mics: int) -> None:
    if not pairs:
        raise ValueError("pairs must be non-empty")
    for i, j in pairs:
        if not (0 <= i < n_mics and 0 <= j < n_mics):
            raise ValueError(f"pair ({i}, {j}) out of range for {n_mics} mics")


def pairwise_gcc(
    channels: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """GCC-PHAT windows for several microphone pairs.

    Parameters
    ----------
    channels:
        ``(n_mics, n_samples)`` multi-channel capture.
    pairs:
        Microphone index pairs; row ``(i, j)`` uses channel ``i`` as
        ``signal_a`` and channel ``j`` as ``signal_b`` (see module
        docstring for the lag sign convention).
    max_lag:
        Half-window of lags, in samples.

    Returns
    -------
    ``(len(pairs), 2 * max_lag + 1)`` array of correlation windows — the
    window length always honours the request (the FFT is sized to fit).
    """
    dtype = resolve_dtype(dtype)
    x = _validate_channels(channels, dtype)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    _validate_pairs(pairs, x.shape[0])
    # One FFT per channel, reused across all pairs.
    n_fft = _fft_length(2 * x.shape[1], max_lag)
    fft = fft_api(dtype)
    spectra = fft.rfft(x, n_fft, axis=1)
    rows = np.empty((len(pairs), 2 * max_lag + 1), dtype=dtype)
    for row, (i, j) in enumerate(pairs):
        cross = spectra[i] * np.conj(spectra[j])
        cross /= np.abs(cross) + _PHAT_REGULARIZATION
        corr = fft.irfft(cross, n_fft)
        rows[row] = _lag_window(corr, max_lag)
    return rows


def extract_frames(
    channels: np.ndarray,
    frame_length: int,
    hop_length: int,
    pad: bool = True,
    dtype=None,
) -> np.ndarray:
    """Slice a multi-channel capture into overlapping analysis frames.

    The frame-granular view the streaming gateway consumes: every
    channel is sliced with the *same* frame boundaries, so frame ``t``
    of all microphones covers one synchronized time slice.

    Parameters
    ----------
    channels:
        ``(n_mics, n_samples)`` capture.
    frame_length, hop_length:
        Frame size and hop, in samples.
    pad:
        Zero-pad the tail so no samples are dropped (default); with
        ``pad=False`` only complete frames are returned (and a capture
        shorter than one frame yields zero frames).

    Returns
    -------
    ``(n_frames, n_mics, frame_length)`` array.
    """
    dtype = resolve_dtype(dtype)
    x = _validate_channels(channels, dtype)
    if frame_length < 1 or hop_length < 1:
        raise ValueError("frame_length and hop_length must be >= 1")
    n_samples = x.shape[1]
    if pad:
        n_frames = max(1, int(np.ceil(max(n_samples - frame_length, 0) / hop_length)) + 1)
        needed = (n_frames - 1) * hop_length + frame_length
        if needed > n_samples:
            x = np.concatenate(
                [x, np.zeros((x.shape[0], needed - n_samples), dtype=dtype)], axis=1
            )
    else:
        if n_samples < frame_length:
            _note_truncation(n_samples)
            return np.zeros((0, x.shape[0], frame_length), dtype=dtype)
        n_frames = 1 + (n_samples - frame_length) // hop_length
        dropped = n_samples - ((n_frames - 1) * hop_length + frame_length)
        if dropped > 0:
            _note_truncation(dropped)
    idx = np.arange(frame_length)[None, :] + hop_length * np.arange(n_frames)[:, None]
    # (n_mics, n_frames, frame_length) -> (n_frames, n_mics, frame_length)
    return np.ascontiguousarray(x[:, idx].transpose(1, 0, 2))


def pairwise_gcc_frames(
    channels: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    frame_length: int,
    hop_length: int,
    pad: bool = True,
    dtype=None,
) -> np.ndarray:
    """Per-frame GCC-PHAT windows for all microphone pairs of a capture.

    Every frame x channel spectrum is computed in one batched ``rfft``
    and every frame x pair whitened cross-spectrum inverted in one
    batched ``irfft``.
    Results match calling :func:`pairwise_gcc` on each frame of
    :func:`extract_frames` separately to within a unit in the last
    place: the transforms are re-grouped, not changed, but numpy's
    elementwise kernels may round the whitening differently across
    batch shapes.

    This is the hot call of the incremental (streaming) decision path:
    orientation evidence per short frame, early-exit capable, instead of
    one whole-utterance correlation.

    Returns
    -------
    ``(n_frames, len(pairs), 2 * max_lag + 1)`` array.
    """
    dtype = resolve_dtype(dtype)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    frames = extract_frames(channels, frame_length, hop_length, pad=pad, dtype=dtype)
    return pairwise_gcc_framewise(frames, pairs, max_lag, dtype=dtype)


def pairwise_gcc_framewise(
    frames: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """:func:`pairwise_gcc_frames` over already-extracted frames.

    The incremental entry point: streaming callers
    (:class:`repro.dsp.streaming.GccAccumulator`) slice their own frames
    from a live carry buffer and batch-correlate each newly completed
    group here, so a session accumulates evidence chunk by chunk through
    the same transforms the offline path uses.

    Parameters
    ----------
    frames:
        ``(n_frames, n_mics, frame_length)`` array, e.g. from
        :func:`extract_frames`.

    Returns
    -------
    ``(n_frames, len(pairs), 2 * max_lag + 1)`` array.
    """
    dtype = resolve_dtype(dtype)
    cross, n_fft = framewise_cross_spectra(frames, pairs, max_lag, dtype=dtype)
    if cross.shape[0] == 0:
        return np.zeros((0, len(pairs), 2 * max_lag + 1), dtype=dtype)
    return _phat_window(cross, n_fft, max_lag, fft_api(dtype))


def framewise_cross_spectra(
    frames: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> tuple[np.ndarray, int]:
    """Raw per-frame, per-pair cross-spectra of already-extracted frames.

    The first half of :func:`pairwise_gcc_framewise`: every frame x
    channel spectrum in one batched ``rfft``, then ``X_i * conj(X_j)``
    per pair, before PHAT whitening.  Cross-spectra are additive over
    frames, so a streaming caller can keep their running sum and whiten
    it once for an utterance-level correlation.

    Returns
    -------
    ``(cross, n_fft)``: a ``(n_frames, len(pairs), n_fft // 2 + 1)``
    complex array and the transform length it was taken at.
    """
    dtype = resolve_dtype(dtype)
    x = np.asarray(frames, dtype=dtype)
    if x.ndim != 3:
        raise ValueError(f"frames must be (n_frames, n_mics, frame_length), got {x.shape}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    _validate_pairs(pairs, x.shape[1])
    n_fft = _fft_length(2 * x.shape[2], max_lag)
    spectra = fft_api(dtype).rfft(x, n_fft, axis=-1)  # (n_frames, n_mics, nf)
    i_idx = np.array([i for i, _ in pairs])
    j_idx = np.array([j for _, j in pairs])
    return spectra[:, i_idx] * np.conj(spectra[:, j_idx]), n_fft
