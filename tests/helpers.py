"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import builtins
import math

import numpy as np

from oamsim.bell import (
    ALICE_KEY_ANGLES,
    BOB_KEY_ANGLES,
    EKERT_ROUNDS_LIMIT,
    EkertResult,
    _bit_string,
    _chsh_b_sigma,
    _clean_probs,
    _e_value,
    _joint_grid,
    task_rng,
)
from oamsim.elements import (
    WRAP_GUARD,
    Circuit,
    apply_circuit,
    beam_splitter,
    dove_prism,
    half_wave_plate,
    mirror,
    phase_delay,
    polarizing_bs,
    spiral_phase_plate,
)
from oamsim.hilbert import H, V, PhotonState, TwoPhotonState, _whole, mode
from oamsim.soba import BITS_MESSAGE, DETECTOR_LABELS, DenseCodingResult, MESSAGE_BITS, \
    build_soba, encode_polarization_bell, hbsa_decode
from oamsim.sources import canonical_pair_spectrum, hyper_source


# Around the prune threshold: zeros, below PRUNE_EPS / 2, between
# PRUNE_EPS / 2 and PRUNE_EPS, above it, a NaN, which a state keeps, a value
# whose magnitude lies at PRUNE_EPS (Python's abs(complex) keeps it, numpy
# 2.4's np.abs of complex128 reads it one ulp lower and would drop it), and
# two with a signed zero part, which a state clears.
AT_PRUNE_EPS = complex(float.fromhex("0x1.63b791e9a6a7ap-51"),
                       float.fromhex("0x1.c59f13600bff7p-51"))
EDGE_VALUES = (0.0, -0.0, 1e-16, 0.7e-15j, -1.2e-15, complex(math.nan, 0.0), 0.6,
               AT_PRUNE_EPS, complex(0.6, -0.0), complex(-0.0, 0.6))


def random_oam_state(rng: np.random.Generator, truncation: int,
                     modes=None, pol: str = H, path: str = "in") -> PhotonState:
    """Random normalized superposition over the given OAM modes."""
    if modes is None:
        modes = range(-truncation, truncation + 1)
    amps = {mode(m, pol, path): complex(rng.normal(), rng.normal()) for m in modes}
    return PhotonState(amps, truncation).normalized()


def random_full_state(rng: np.random.Generator, truncation: int,
                      paths=("in",), margin: int = 0) -> PhotonState:
    """Random state over every (path, pol, m) combination with |m| <= K - margin."""
    band = truncation - margin
    amps = {}
    for p in paths:
        for pol in (H, V):
            for m in range(-band, band + 1):
                amps[mode(m, pol, p)] = complex(rng.normal(), rng.normal())
    return PhotonState(amps, truncation).normalized()


def random_two_photon(rng: np.random.Generator, truncation: int,
                      n_terms: int = 6, margin: int = 0) -> TwoPhotonState:
    band = truncation - margin
    amps = {}
    for _ in range(n_terms):
        m1 = int(rng.integers(-band, band + 1))
        m2 = int(rng.integers(-band, band + 1))
        p1 = H if rng.random() < 0.5 else V
        p2 = H if rng.random() < 0.5 else V
        key = (mode(m1, p1), mode(m2, p2))
        amps[key] = amps.get(key, 0j) + complex(rng.normal(), rng.normal())
    return TwoPhotonState(amps, truncation).normalized()


_PATH_POOL = ("p0", "p1", "p2", "p3", "p4", "p5")


def random_circuit(rng: np.random.Generator, n_elements: int) -> Circuit:
    """Random element stack over a fixed path pool; exactly unitary by design."""
    kinds = ("bs", "pbs", "dove", "spp", "hwp", "phase", "mirror")
    elems = []
    for _ in range(n_elements):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("bs", "pbs"):
            a, b, c, d = rng.choice(len(_PATH_POOL), size=4, replace=False)
            ports = (_PATH_POOL[a], _PATH_POOL[b], _PATH_POOL[c], _PATH_POOL[d])
            if kind == "bs":
                elems.append(beam_splitter(*ports, t=float(rng.random())))
            else:
                elems.append(polarizing_bs(*ports))
        elif kind == "mirror":
            a, b = rng.choice(len(_PATH_POOL), size=2, replace=False)
            elems.append(mirror(_PATH_POOL[a], _PATH_POOL[b]))
        else:
            path = _PATH_POOL[rng.integers(len(_PATH_POOL))]
            if kind == "dove":
                elems.append(dove_prism(path, float(rng.uniform(0, 2 * np.pi))))
            elif kind == "spp":
                elems.append(spiral_phase_plate(path, int(rng.choice([-2, -1, 1, 2]))))
            elif kind == "hwp":
                elems.append(half_wave_plate(path, float(rng.uniform(0, np.pi))))
            else:
                elems.append(phase_delay(path, float(rng.uniform(0, 2 * np.pi))))
    return Circuit("random", tuple(elems), _PATH_POOL[0], ())


def pool_paths() -> tuple[str, ...]:
    return _PATH_POOL


_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """builtin sum as CPython 3.12 and later computes it: a float sum is
    compensated (Neumaier).  Only a start that is an int or a float over
    items that are all exact floats is compensated, and an int start is
    added to the first item plainly, as CPython does; anything else goes to
    the builtin sum of the running interpreter."""
    items = list(iterable)
    if not (type(start) in (int, float) and items
            and all(type(x) is float for x in items)):
        return _builtin_sum(items, start)
    if type(start) is int:
        start, items = start + items[0], items[1:]
    total, c = start, 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def reference_ekert_run(s: TwoPhotonState, rounds: int, seed: int,
                        variant: str = "tunable_bs") -> EkertResult:
    """bell.ekert_run as it was with two int64 index arrays, an int64
    outcome array and pair masks built to sample and again to sift: the
    stream and result that the one-setting-index run must reproduce."""
    rounds, seed = _whole(rounds, "rounds"), _whole(seed, "seed")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds > EKERT_ROUNDS_LIMIT:
        raise ValueError(f"rounds {rounds} exceeds limit {EKERT_ROUNDS_LIMIT}")
    base = task_rng(seed, 0)
    a_idx = base.integers(0, 3, size=rounds)
    b_idx = base.integers(0, 3, size=rounds)

    outcome = np.full(rounds, -1, dtype=np.int64)
    combo_counts: dict[tuple[int, int], np.ndarray] = {}
    for ai in range(3):
        for bi in range(3):
            here = np.flatnonzero((a_idx == ai) & (b_idx == bi))
            if here.size == 0:
                continue
            probs = _clean_probs(next(_joint_grid(
                s, ((ALICE_KEY_ANGLES[ai], BOB_KEY_ANGLES[bi]),), variant)))
            draws = task_rng(seed, 1, ai, bi).choice(4, size=here.size, p=probs)
            outcome[here] = draws
            combo_counts[(ai, bi)] = np.bincount(draws, minlength=4)

    matched = np.zeros(rounds, dtype=bool)
    for ai, bi in ((1, 0), (2, 1)):
        matched |= (a_idx == ai) & (b_idx == bi)
    alice_bits = (outcome[matched] // 2).astype(int)
    bob_bits = (outcome[matched] % 2).astype(int)
    key_a, key_b = _bit_string(alice_bits), _bit_string(bob_bits)
    qber = float(np.mean(alice_bits != bob_bits)) if matched.any() else None

    combos = ((0, 0), (0, 2), (2, 0), (2, 2))
    chsh_counts = [combo_counts[c] for c in combos if c in combo_counts]
    estimate = sigma = None
    if len(chsh_counts) == len(combos):
        estimate, sigma = _chsh_b_sigma([_e_value(*c) for c in chsh_counts],
                                        [c.sum() for c in chsh_counts])
    return EkertResult(
        rounds=rounds,
        seed=seed,
        key_a=key_a,
        key_b=key_b,
        qber=qber,
        chsh_estimate=estimate,
        chsh_sigma=sigma,
        matched_rounds=int(matched.sum()),
        chsh_rounds=int(sum(c.sum() for c in chsh_counts)),
    )


def reference_readout(circuit: Circuit, state: PhotonState,
                      wrap_guard=WRAP_GUARD) -> dict[str, float]:
    """elements.readout as it was before the shared-prefix evaluator: the
    whole circuit applied by apply_circuit, then one left-to-right pass per
    detector path."""
    out = apply_circuit(circuit, state, wrap_guard=wrap_guard)
    probs = dict.fromkeys(circuit.detector_paths, 0.0)
    for key, amp in out.amplitudes.items():
        if key.path in probs:
            probs[key.path] += abs(amp) ** 2
    return probs


def reference_joint_readout(circuit1: Circuit, circuit2: Circuit, pair: TwoPhotonState,
                            wrap_guard=WRAP_GUARD) -> dict[tuple[str, str], float]:
    """elements.joint_readout as it was before the shared-prefix evaluator:
    circuit1 on photon 1 and circuit2 on photon 2 by apply_circuit, then
    one left-to-right pass per pair of detector paths."""
    out = apply_circuit(circuit1, pair, slot=1, wrap_guard=wrap_guard)
    out = apply_circuit(circuit2, out, slot=2, wrap_guard=wrap_guard)
    probs = {(a, b): 0.0 for a in circuit1.detector_paths for b in circuit2.detector_paths}
    for (k1, k2), amp in out.amplitudes.items():
        key = (k1.path, k2.path)
        if key in probs:
            probs[key] += abs(amp) ** 2
    return probs


def reference_dense_coding_roundtrip(message: str, shots: int = 0, seed: int | None = None,
                                     truncation: int = 8, spectrum=None) -> DenseCodingResult:
    """soba.dense_coding_roundtrip as it was before the channel cache: the
    pair built, encoded and analyzed on every call, and every detector pair
    decoded through hbsa_decode."""
    def message_of(pair):
        return MESSAGE_BITS[hbsa_decode(DETECTOR_LABELS[pair[0]], DETECTOR_LABELS[pair[1]])]

    def decode(weights):
        out = {bits: 0.0 for bits in BITS_MESSAGE}
        for pair, w in weights.items():
            out[message_of(pair)] += w
        return out

    label = BITS_MESSAGE[message]
    spectrum = spectrum if spectrum is not None else canonical_pair_spectrum()
    encoded = encode_polarization_bell(hyper_source(spectrum, truncation), label)
    pair_probs = reference_joint_readout(build_soba(), build_soba(), encoded)
    if shots <= 0:
        message_probs = decode(pair_probs)
        return DenseCodingResult(message, label, message_probs, pair_probs,
                                 accuracy=message_probs[message])
    keys = sorted(pair_probs)
    draws = task_rng(seed, 3).multinomial(shots, _clean_probs([pair_probs[k] for k in keys]))
    counts = {k: int(n) for k, n in zip(keys, draws) if n}
    correct = sum(n for k, n in counts.items() if message_of(k) == message)
    return DenseCodingResult(message, label, decode({k: n / shots for k, n in counts.items()}),
                             pair_probs, accuracy=correct / shots, counts=counts)
