"""Stokes measurements and density-matrix reconstruction for the parity qubit.

Three interferometric setups (`SETUPS`) measure the even/odd analogue of
the polarization Stokes parameters:

  * the sorter gives s0 = I1 + I2 and s1 = I1 - I2;
  * the diagonal-basis analyzer gives s2 = I2 - I1;
  * adding a quarter-cycle delay gives s3 = I2 - I1.

Reconstruction is linear: rho = (s0*I + s1*Z + s2*X + s3*Y) / 2 in the
{even, odd} basis with even -> (1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import build_s2_setup, build_s3_setup, build_sorter, readouts
from .hilbert import PhotonState

__all__ = [
    "StokesVector",
    "QubitDensity",
    "SETUPS",
    "intensities",
    "stokes_from_intensities",
    "stokes",
    "reconstruct",
    "fidelity",
]

_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

CLIP_EIGENVALUE = -1e-6


@dataclass(frozen=True)
class StokesVector:
    s0: float
    s1: float
    s2: float
    s3: float


@dataclass(frozen=True, eq=False)
class QubitDensity:
    """2x2 density matrix in the {even, odd} basis.

    `clipped` marks a reconstruction whose raw eigenvalues were unphysical
    (below the clip threshold) and were projected back to the physical cone.
    """

    matrix: np.ndarray
    clipped: bool = False

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


# The three setups, in measurement order; each has two detector paths.
SETUPS = {"sorter": build_sorter, "s2_setup": build_s2_setup, "s3_setup": build_s3_setup}


def intensities(state: PhotonState) -> dict[str, dict[str, float]]:
    """Setup name -> {detector path: intensity}; the state must be normalized.
    The sorter's elements, which all three setups start with, run once."""
    state.require_normalized()
    return dict(zip(SETUPS, readouts([build() for build in SETUPS.values()], state)))


def stokes_from_intensities(table: dict[str, dict[str, float]]) -> StokesVector:
    """s0 = I1 + I2 and s1 = I1 - I2 at the sorter (I1 the even port);
    s2 and s3 = I2 - I1 at the two analyzers."""
    (e, o), (d1, d2), (c1, c2) = (table[name].values() for name in SETUPS)
    return StokesVector(e + o, e - o, d2 - d1, c2 - c1)


def stokes(state: PhotonState) -> StokesVector:
    """All four Stokes parameters from the three interferometer runs."""
    return stokes_from_intensities(intensities(state))


def reconstruct(sv: StokesVector) -> QubitDensity:
    """Linear reconstruction of the parity-qubit density matrix.

    A Stokes vector whose reconstruction has an eigenvalue below the clip
    threshold is flagged and projected onto the nearest physical state
    (negative eigenvalues zeroed, trace rescaled).  The smaller eigenvalue
    is (s0 - |(s1, s2, s3)|) / 2 in closed form; only a clip diagonalizes.
    """
    rho = 0.5 * (sv.s0 * np.eye(2, dtype=complex)
                 + sv.s1 * _SZ + sv.s2 * _SX + sv.s3 * _SY)
    if (sv.s0 - math.hypot(sv.s1, sv.s2, sv.s3)) / 2.0 >= CLIP_EIGENVALUE:
        return QubitDensity(rho, clipped=False)
    w, vecs = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total > 0:
        w = w / total * np.real(np.trace(rho))
    clipped = vecs @ np.diag(w.astype(complex)) @ vecs.conj().T
    return QubitDensity(clipped, clipped=True)


def fidelity(density: QubitDensity, qubit) -> float:
    """<psi|rho|psi> for a pure parity qubit (even, odd) amplitude pair."""
    a, b = qubit
    v = np.array([a, b], dtype=complex)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero qubit vector")
    v = v / n
    return float(np.real(v.conj() @ density.matrix @ v))
