"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import builtins
import math

import numpy as np

from oamsim.elements import (
    Circuit,
    beam_splitter,
    dove_prism,
    half_wave_plate,
    mirror,
    phase_delay,
    polarizing_bs,
    spiral_phase_plate,
)
from oamsim.hilbert import H, V, PhotonState, TwoPhotonState, mode


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
                      paths=("in",)) -> PhotonState:
    """Random state over every (path, pol, m) combination."""
    amps = {}
    for p in paths:
        for pol in (H, V):
            for m in range(-truncation, truncation + 1):
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
