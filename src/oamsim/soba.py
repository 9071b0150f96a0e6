"""The spin-orbit Bell-state analyzer and dense coding.

The analyzer (an even/odd sorter feeding two polarizing splitters, two
spiral plates and two recombining splitters) routes each of the four
single-photon (parity x polarization) Bell states to its own detector:

    psi+ -> D1, psi- -> D2, phi- -> D3, phi+ -> D4.

Running it locally on both photons of a hyperentangled pair identifies all
four polarization Bell states, which is what makes the superdense-coding
round trip deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .bell import _shots, sample_counts
from .elements import (
    Circuit,
    beam_splitter,
    half_wave_plate,
    joint_readout,
    polarizing_bs,
    readout,
    spiral_phase_plate,
    _sorter_elements,
)
from .hilbert import H, V, ModeKey, PhotonState, TwoPhotonState, SpectrumModel
from .sources import (
    BELL_PHI_PLUS,
    SourceSpec,
    _bell_label,
    canonical_pair_spectrum,
    normalize_spin_orbit_label,
    spdc,
)

__all__ = [
    "POLARIZATION_LABELS",
    "MESSAGE_BITS",
    "BITS_MESSAGE",
    "DETECTOR_LABELS",
    "build_soba",
    "soba_route",
    "joint_soba",
    "encode_polarization_bell",
    "hbsa_decode",
    "DenseCodingResult",
    "dense_coding_roundtrip",
]

POLARIZATION_LABELS = ("Psi+", "Psi-", "Phi+", "Phi-")
MESSAGE_BITS = {"Psi+": "00", "Psi-": "01", "Phi+": "10", "Phi-": "11"}
BITS_MESSAGE = {bits: label for label, bits in MESSAGE_BITS.items()}
DETECTOR_LABELS = {"D1": "psi+", "D2": "psi-", "D3": "phi-", "D4": "phi+"}


def normalize_polarization_label(label: str) -> str:
    return _bell_label(label, POLARIZATION_LABELS, "polarization Bell")


@functools.cache
def build_soba() -> Circuit:
    """Spin-orbit Bell-state analyzer with detectors D1..D4."""
    elems = _sorter_elements("in", "even_arm", "odd_arm", "sb_")
    elems.append(half_wave_plate("even_arm", math.pi / 4.0))
    # Even arm: H transmits toward the phi interferometer, V reflects (with
    # a spiral plate) toward the psi interferometer.
    elems.append(polarizing_bs("even_arm", "sb_aux_a", "port5", "port3"))
    elems.append(spiral_phase_plate("port3", +1))
    # Odd arm: H transmits (then shifts to even) for phi, V reflects for psi.
    elems.append(polarizing_bs("odd_arm", "sb_aux_b", "port6", "port4"))
    elems.append(spiral_phase_plate("port6", -1))
    elems.append(beam_splitter("port3", "port4", "D1", "D2"))
    elems.append(beam_splitter("port5", "port6", "D4", "D3"))
    return Circuit("soba", tuple(elems), "in", ("D1", "D2", "D3", "D4"))


_CANONICAL_MS = (0, 1)


def soba_route(state: PhotonState) -> dict[str, float]:
    """Detector probabilities for a single photon entering the analyzer."""
    if not isinstance(state, PhotonState):
        raise TypeError(f"expected a PhotonState, got {type(state).__name__}")
    for key in state.amplitudes:
        if key.path != "in" or key.m not in _CANONICAL_MS:
            raise ValueError(
                "analyzer input must live on path 'in' with m in {0, 1}")
    return readout(build_soba(), state)


def joint_soba(state: TwoPhotonState) -> dict[tuple[str, str], float]:
    """Coincidence probabilities of local analyzers on both photons."""
    circuit = build_soba()
    return joint_readout(circuit, circuit, state)


def encode_polarization_bell(s: TwoPhotonState, label: str) -> TwoPhotonState:
    """Encode two bits by a polarization unitary on photon 1.

    Starting from the (HH+VV)/sqrt2 polarization factor: identity keeps
    Phi+, Z gives Phi-, X gives Psi+, and X followed by Z gives Psi-.  The
    OAM factor is untouched.
    """
    if not isinstance(s, TwoPhotonState):
        raise TypeError(f"expected a TwoPhotonState, got {type(s).__name__}")
    label = normalize_polarization_label(label)
    flip = label in ("Psi+", "Psi-")
    sign = label in ("Phi-", "Psi-")
    amps: dict = {}
    for (k1, k2), amp in s.amplitudes.items():
        pol = k1.pol
        if flip:
            pol = V if pol == H else H
        if sign and pol == V:
            amp = -amp
        key = (ModeKey(k1.path, pol, k1.m), k2)
        amps[key] = amps.get(key, 0.0 + 0.0j) + amp
    return TwoPhotonState(amps, s.truncation)


def hbsa_decode(r1: str, r2: str) -> str:
    """Polarization Bell label from the two local spin-orbit outcomes.

    Same-letter outcome pairs decode to the Psi family, mixed pairs to Phi;
    the product of the outcome signs fixes the +/-.  All 16 pairs decode,
    four per message.
    """
    r1 = normalize_spin_orbit_label(r1)
    r2 = normalize_spin_orbit_label(r2)
    same_letter = r1[:3] == r2[:3]
    family = "Psi" if same_letter else "Phi"
    plus = (r1[-1] == "+") == (r2[-1] == "+")
    return family + ("+" if plus else "-")


# Message bits each (photon 1, photon 2) detector pair decodes to.
_PAIR_MESSAGE = {(d1, d2): MESSAGE_BITS[hbsa_decode(r1, r2)]
                 for d1, r1 in DETECTOR_LABELS.items() for d2, r2 in DETECTOR_LABELS.items()}


def _decode(weights: dict) -> dict[str, float]:
    """Message bits -> summed weight of the detector pairs that decode to them."""
    out = {bits: 0.0 for bits in BITS_MESSAGE}
    for pair, w in weights.items():
        out[_PAIR_MESSAGE[pair]] += w
    return out


# Exact channels, one per (Bell label, source spec by repr), of the most
# recently used round trips.  Keeping them pays only where one process calls
# again with the same (message, K, spectrum).  The qubit-batch workload does:
# it uses the default source (K = 8, canonical spectrum) and its 4 messages,
# so 4 calls miss and every later one hits (1,997 hits of 2,001 calls over
# its set-up and 2,000 operations at seed 3).  A CLI `densecode` makes one
# call per process and always misses.  No caller uses a second source, so the
# cache holds that source's 4 entries; a caller cycling over more sources
# recomputes every channel.  Measured on 2 cores (Python 3.11) at K = 8: a
# miss took 164 us with the default spectrum (603 us with the uniform one),
# a hit 12 us; an entry holds 3.5 kB.
CHANNEL_CACHE_SIZE = 4


@functools.lru_cache(maxsize=CHANNEL_CACHE_SIZE)
def _channel_entry(key: tuple) -> list:
    return []


def _channel(label: str, spec: SourceSpec) -> tuple[tuple, tuple]:
    """The analytic round trip of `label` over the hyperentangled pair of
    `spec`: (detector pair, probability) and (message bits, probability)
    items, kept for the CHANNEL_CACHE_SIZE most recent label and spec
    pairs.  The spec is keyed by its repr, as an element's parameters are
    in the action cache, so spectra that are == but differ in their bits
    (0.0 and -0.0) never share an entry; the items are tuples, so no caller
    can change them."""
    entry = _channel_entry((label, repr(spec)))
    if not entry:
        pair_probs = joint_soba(encode_polarization_bell(spdc(spec), label))
        entry.append((tuple(pair_probs.items()), tuple(_decode(pair_probs).items())))
    return entry[0]


@dataclass(frozen=True)
class DenseCodingResult:
    """A sampled result, and only a sampled one, carries its detector-pair
    `counts`."""

    sent: str
    label: str
    message_probs: dict[str, float]
    pair_probs: dict[tuple[str, str], float] = field(repr=False)
    accuracy: float
    counts: dict[tuple[str, str], int] | None = field(default=None, repr=False)


def dense_coding_roundtrip(message: str, shots: int = 0, seed: int | None = None,
                           truncation: int = 8,
                           spectrum: SpectrumModel | None = None) -> DenseCodingResult:
    """Hyperentangled pair -> polarization encoding -> local analyzers -> decode.

    Analytic mode returns the exact decode distribution; sampled mode draws
    detector pairs from one seeded multinomial.  The exact channels of the
    most recent (message, K, spectrum) are kept (see `_channel`), which pays
    only when a process repeats one; each call gets its own dicts and its
    own draw.
    """
    if message not in BITS_MESSAGE:
        raise ValueError(f"message must be two bits 00..11, got {message!r}")
    label = BITS_MESSAGE[message]
    shots = _shots(shots)
    spectrum = spectrum if spectrum is not None else canonical_pair_spectrum()
    pairs, messages = _channel(label, SourceSpec(1, spectrum, BELL_PHI_PLUS, truncation))
    pair_probs = dict(pairs)
    if shots == 0:
        message_probs = dict(messages)
        return DenseCodingResult(message, label, message_probs, pair_probs,
                                 accuracy=message_probs[message])
    keys = sorted(pair_probs)
    draws = sample_counts([pair_probs[k] for k in keys], shots, seed, 3)
    counts = {k: int(n) for k, n in zip(keys, draws) if n}
    correct = sum(n for k, n in counts.items() if _PAIR_MESSAGE[k] == message)
    return DenseCodingResult(message, label,
                             _decode({k: n / shots for k, n in counts.items()}),
                             pair_probs, accuracy=correct / shots, counts=counts)
