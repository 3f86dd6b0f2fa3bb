"""Deterministic synthetic generator for multi-channel sensor streams.

Stands in for the unavailable field recordings: each of the 7 signal
classes gets a parametric spectral envelope (sums of Gaussian bumps),
an impulsive-burst rate, a slow envelope drift, and a mean level in ADC
digital levels.  All outputs are pure functions of their arguments,
including the seed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import SAMPLE_RATE_HZ, NYQUIST_HZ, ADC_FULL_SCALE, CLASS_COUNT
from .config import at_least
from .errors import ConfigurationError
from .framing import FrameShaperConfig, IntensityStream, frame_count

# PSD floor relative to a 0 dB envelope bump.
FLOOR_DB = -40.0


@dataclass(frozen=True)
class ClassProfile:
    class_id: int
    spectral_envelope: tuple = ()      # (center_hz, width_hz, gain_db) bumps
    impulsiveness: float = 0.0         # transient bursts per second
    nonstationarity: float = 0.0       # relative envelope drift per minute
    amplitude_db: float = 30.0         # mean level, dB re 1 DL

    def __post_init__(self):
        if not 0 <= self.class_id < CLASS_COUNT:
            raise ConfigurationError(f"class_id must be 0..{CLASS_COUNT - 1}")
        for center, width, gain in self.spectral_envelope:
            if not (0.0 < center < NYQUIST_HZ):
                raise ConfigurationError(
                    f"envelope band at {center} Hz is outside (0, {NYQUIST_HZ:.0f})")
            if width <= 0.0 or not np.isfinite(gain):
                raise ConfigurationError("envelope bumps need width > 0 and finite gain")
        if self.impulsiveness < 0.0:
            raise ConfigurationError("impulsiveness must be >= 0")
        if not 0.0 <= self.nonstationarity <= 1.0:
            raise ConfigurationError("nonstationarity must lie in [0, 1]")


@dataclass(frozen=True)
class EventSpec:
    class_id: int
    start_s: float
    end_s: float
    chan_lo: int
    chan_hi: int                       # inclusive


@dataclass(frozen=True)
class ScenarioSpec:
    duration_s: float
    channel_count: int
    background: ClassProfile
    events: tuple[EventSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0 or self.channel_count < 1:
            raise ConfigurationError("scenario needs duration > 0 and >= 1 channel")
        for ev in self.events:
            if not (0.0 <= ev.start_s < ev.end_s <= self.duration_s):
                raise ConfigurationError(f"event span [{ev.start_s}, {ev.end_s}] outside scenario")
            if not (0 <= ev.chan_lo <= ev.chan_hi < self.channel_count):
                raise ConfigurationError("event channel span empty or out of range")
        for i, a in enumerate(self.events):
            for b in self.events[i + 1:]:
                chans = a.chan_lo <= b.chan_hi and b.chan_lo <= a.chan_hi
                times = a.start_s < b.end_s and b.start_s < a.end_s
                if chans and times:
                    raise ConfigurationError(
                        "overlapping events on a shared channel break single-label ground truth")


@dataclass(frozen=True)
class GroundTruthEvent:
    class_id: int
    frame_begin: int
    frame_end: int
    chan_lo: int
    chan_hi: int

    @property
    def center_channel(self) -> int:
        return (self.chan_lo + self.chan_hi) // 2


def default_profiles() -> dict[int, ClassProfile]:
    """Reference envelopes for the 7 signal classes.

    Shapes are qualitative: class 0 is broadband low-frequency background,
    1 and 4 sit closest to it, 3 and 5 are the most distinct (narrow
    machinery lines, high-frequency content).
    """
    return {
        0: ClassProfile(0, ((30, 40, 6), (120, 80, 3)), 0.2, 0.15, 30.0),
        1: ClassProfile(1, ((45, 45, 7), (150, 90, 4)), 0.1, 0.4, 32.0),
        2: ClassProfile(2, ((80, 30, 8), (200, 60, 5)), 3.0, 0.2, 34.0),
        3: ClassProfile(3, ((25, 10, 12), (50, 12, 10), (100, 15, 8)), 1.0, 0.2, 40.0),
        4: ClassProfile(4, ((65, 30, 8), (210, 50, 5)), 0.8, 0.3, 31.0),
        5: ClassProfile(5, ((300, 40, 10), (450, 60, 8)), 5.0, 0.2, 36.0),
        6: ClassProfile(6, ((250, 120, 8), (500, 150, 6)), 0.5, 0.3, 35.0),
    }


def _psd_envelope(freqs: np.ndarray, profile: ClassProfile) -> np.ndarray:
    p = np.full_like(freqs, 10.0 ** (FLOOR_DB / 10.0))
    for center, width, gain in profile.spectral_envelope:
        p += 10.0 ** (gain / 10.0) * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    return p


def _burst(rng: np.random.Generator, fs: int) -> np.ndarray:
    tau = rng.uniform(0.004, 0.012)
    n = max(8, int(5 * tau * fs))
    t = np.arange(n) / fs
    return np.exp(-t / tau) * rng.standard_normal(n)


def _channel_noise(rng: np.random.Generator, n: int, profile: ClassProfile) -> np.ndarray:
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE_HZ)
    spec *= np.sqrt(_psd_envelope(freqs, profile))
    x = np.fft.irfft(spec, n)
    x /= np.sqrt(np.mean(x ** 2))
    return x


def generate_stream(profile: ClassProfile, duration_s: float, channels: int,
                    seed: int) -> IntensityStream:
    """Synthesize a stream: shaped Gaussian noise, bursts, slow drift, quantized."""
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if channels < 1:
        raise ConfigurationError("need at least one channel")
    n = round(duration_s * SAMPLE_RATE_HZ)
    rms = 10.0 ** (profile.amplitude_db / 20.0)
    out = np.empty((channels, n))
    for l in range(channels):
        rng = np.random.default_rng([seed, profile.class_id, l])
        x = _channel_noise(rng, n, profile) * rms
        if profile.impulsiveness > 0:
            count = rng.poisson(profile.impulsiveness * duration_s)
            for _ in range(count):
                b = _burst(rng, SAMPLE_RATE_HZ) * 6.0 * rms
                k = rng.integers(0, max(1, n - b.size))
                x[k:k + b.size] += b[:n - k]
        if profile.nonstationarity > 0:
            phase = rng.uniform(0, 2 * np.pi)
            t = np.arange(n) / SAMPLE_RATE_HZ
            x *= 1.0 + profile.nonstationarity * np.sin(2 * np.pi * t / 60.0 + phase)
        out[l] = x
    np.clip(np.rint(out), -ADC_FULL_SCALE - 1, ADC_FULL_SCALE, out=out)
    return IntensityStream(out)


def ground_truth(spec: ScenarioSpec, cfg: FrameShaperConfig) -> list[GroundTruthEvent]:
    """Frame-index spans of the injected events: frames fully inside the span."""
    truth = []
    for ev in spec.events:
        s0 = round(ev.start_s * SAMPLE_RATE_HZ)
        s1 = round(ev.end_s * SAMPLE_RATE_HZ) - 1
        n_b = -(-s0 // cfg.step)                       # ceil
        n_e = (s1 - cfg.frame_size + 1) // cfg.step
        n_e = min(n_e, frame_count(round(spec.duration_s * SAMPLE_RATE_HZ), cfg) - 1)
        if n_e >= n_b:
            truth.append(GroundTruthEvent(ev.class_id, n_b, n_e, ev.chan_lo, ev.chan_hi))
    return truth


def render_scenario(spec: ScenarioSpec, cfg: FrameShaperConfig | None = None):
    """Background everywhere, events of the default profiles mixed
    additively inside their spans.

    Returns the stream and the frame-indexed ground truth (computed with
    ``cfg``, defaulting to the standard shaper configuration).
    """
    cfg = cfg or FrameShaperConfig()
    profiles = default_profiles()
    stream = generate_stream(spec.background, spec.duration_s, spec.channel_count,
                             seed=spec.seed)
    for idx, ev in enumerate(spec.events):
        dur = ev.end_s - ev.start_s
        n_ch = ev.chan_hi - ev.chan_lo + 1
        event_stream = generate_stream(profiles[ev.class_id], dur, n_ch,
                                       seed=spec.seed * 1000003 + idx + 1)
        s0 = round(ev.start_s * SAMPLE_RATE_HZ)
        seg = event_stream.samples
        stream.samples[ev.chan_lo:ev.chan_hi + 1, s0:s0 + seg.shape[1]] += seg
    np.clip(stream.samples, -ADC_FULL_SCALE - 1, ADC_FULL_SCALE, out=stream.samples)
    return stream, ground_truth(spec, cfg)


@dataclass(frozen=True)
class ManifestEntry:
    class_id: int
    split: str            # "train" | "test"
    scenario_id: str
    frame_index: int
    channel: int


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    scenarios: dict[str, ScenarioSpec]
    framing: FrameShaperConfig
    seed: int

    def class_counts(self) -> dict[int, int]:
        return dict(Counter(e.class_id for e in self.entries))


def _class_scenario(class_id: int, frames_needed: int, channels: int,
                    cfg: FrameShaperConfig, seed: int) -> tuple[ScenarioSpec, list]:
    """One scenario providing at least ``frames_needed`` labeled frames of a class.

    Class 0 scenarios are pure background; other classes ride one event on
    a class-0 background, and only fully-covered frames get labels.
    """
    background = default_profiles()[0]
    per_chan = -(-frames_needed // channels)
    lead_s = 2.0
    span_samples = cfg.frame_size + (per_chan + 1) * cfg.step
    span_s = span_samples / SAMPLE_RATE_HZ
    if class_id == 0:
        duration = lead_s + span_s
        spec = ScenarioSpec(duration, channels, background, (), seed)
        s0 = round(lead_s * SAMPLE_RATE_HZ)
        n_b = -(-s0 // cfg.step)
        n_e = frame_count(round(duration * SAMPLE_RATE_HZ), cfg) - 1
        cells = [(n, l) for n in range(n_b, n_e + 1) for l in range(channels)]
    else:
        duration = lead_s + span_s + 1.0
        ev = EventSpec(class_id, lead_s, lead_s + span_s, 0, channels - 1)
        spec = ScenarioSpec(duration, channels, background, (ev,), seed)
        truth = ground_truth(spec, cfg)[0]
        cells = [(n, l) for n in range(truth.frame_begin, truth.frame_end + 1)
                 for l in range(channels)]
    if len(cells) < frames_needed:
        raise ConfigurationError("scenario too short for the requested frame count")
    return spec, cells[:frames_needed]


@dataclass(frozen=True)
class DatasetConfig:
    """The ``dataset`` section: how many labeled frames ``generate_dataset``
    draws, and how they split."""
    frames_per_class: int = 100
    scenarios_per_class: int = 8
    channels: int = 4
    split_ratio: int = 7          # train:test scenarios

    def __post_init__(self):
        at_least(self, frames_per_class=1, scenarios_per_class=1, channels=1,
                 split_ratio=0)


def generate_dataset(cfg: DatasetConfig, seed: int,
                     framing: FrameShaperConfig) -> DatasetManifest:
    """Labeled-frame manifest of every class from the default profiles, with
    uniform class shares and a scenario-disjoint split.

    ``cfg.split_ratio`` is train:test; test scenarios per class are
    ``max(1, round(cfg.scenarios_per_class / (cfg.split_ratio + 1)))``.
    """
    rng = np.random.default_rng([seed, 0xDA7A])

    entries: list[ManifestEntry] = []
    scenarios: dict[str, ScenarioSpec] = {}
    n_sc = cfg.scenarios_per_class
    for class_id in range(CLASS_COUNT):
        base = cfg.frames_per_class // n_sc
        counts = [base + (1 if i < cfg.frames_per_class % n_sc else 0)
                  for i in range(n_sc)]
        n_test = max(1, round(n_sc / (cfg.split_ratio + 1)))
        order = rng.permutation(n_sc)
        test_set = set(order[:n_test].tolist())
        for i, quota in enumerate(counts):
            if quota == 0:
                continue
            sid = f"c{class_id}_s{i:03d}"
            spec, cells = _class_scenario(class_id, quota, cfg.channels, framing,
                                          seed=seed * 10007 + class_id * 101 + i)
            scenarios[sid] = spec
            split = "test" if i in test_set else "train"
            entries.extend(ManifestEntry(class_id, split, sid, n, l) for n, l in cells)
    return DatasetManifest(entries, scenarios, framing, seed)


def save_dataset(manifest: DatasetManifest, out_dir) -> Path:
    """Render every scenario and persist the dataset tree.

    Layout: ``meta.json`` (rates, framing, per-scenario shapes),
    ``manifest.jsonl`` (one labeled frame per line), and
    ``scenarios/<id>.i16`` little-endian int16 channel-major payloads.
    """
    out = Path(out_dir)
    (out / "scenarios").mkdir(parents=True, exist_ok=True)
    meta: dict = {
        "sample_rate_hz": SAMPLE_RATE_HZ,
        "frame_size": manifest.framing.frame_size,
        "overlap_factor": manifest.framing.overlap_factor,
        "seed": manifest.seed,
        "scenarios": {},
    }
    for sid, spec in sorted(manifest.scenarios.items()):
        stream, _ = render_scenario(spec, manifest.framing)
        payload = stream.samples.astype("<i2").tobytes()
        (out / "scenarios" / f"{sid}.i16").write_bytes(payload)
        meta["scenarios"][sid] = {
            "class_id": max([ev.class_id for ev in spec.events], default=0),
            "channels": spec.channel_count,
            "n_samples": stream.sample_count,
            "seed": spec.seed,
        }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    with open(out / "manifest.jsonl", "w") as fh:
        for e in manifest.entries:
            fh.write(json.dumps({"class_id": e.class_id, "split": e.split,
                                 "scenario": e.scenario_id, "frame": e.frame_index,
                                 "channel": e.channel}) + "\n")
    return out


def load_stream(path, channels: int) -> IntensityStream:
    """Read a channel-major little-endian int16 stream of ``channels`` rows."""
    if channels < 1:
        raise ConfigurationError(f"channel count must be >= 1, got {channels}")
    raw = Path(path).read_bytes()
    if len(raw) % (2 * channels):
        raise ConfigurationError(
            f"{path}: {len(raw)} bytes is not a whole number of int16 samples "
            f"for each of {channels} channels")
    samples = np.frombuffer(raw, dtype="<i2")
    return IntensityStream(samples.reshape(channels, -1).astype(np.float64))
