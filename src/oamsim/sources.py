"""Initial states: down-conversion pairs, hyperentangled pairs, spin-orbit states.

Down-conversion of a pump of OAM order p produces photon pairs whose OAM
indices satisfy m1 + m2 = p exactly.  A Gaussian pump (order 0) yields
|m>|-m> correlations; a first-order vortex pump yields |m>|1-m>, which in
the even/odd coarse-graining is the maximally entangled state
(|even>|odd> + |odd>|even>)/sqrt(2).

Sources populate only OAM indices well inside the truncation band
(|m| <= max(1, K - 2)), so the order +/-1 spiral plates used by every
analyzer never push weight across the band edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import oc_p_gate
from .hilbert import (
    EVEN,
    H,
    ODD,
    V,
    ModeKey,
    PhotonState,
    SpectrumModel,
    TruncationError,
    TwoPhotonState,
    _band,
    _total,
    _whole,
    mode,
    parity,
)

__all__ = [
    "PRODUCT_HH",
    "BELL_PHI_PLUS",
    "SourceSpec",
    "source_band",
    "dropped_weight",
    "spdc",
    "hyper_source",
    "hybrid_two_photon",
    "prepare_single_photon_bell",
    "postselect_partner",
    "vortex_symmetric",
    "canonical_pair_spectrum",
    "SPIN_ORBIT_STATES",
]

PRODUCT_HH = "product_hh"
BELL_PHI_PLUS = "bell_phi_plus"

# Canonical parity representatives used whenever a protocol needs a concrete
# qubit embedding: even -> m=0, odd -> m=1.
EVEN_M = 0
ODD_M = 1
_SQ2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SourceSpec:
    """Pump order, spectral model and polarization mode of a pair source."""

    pump_order: int
    spectrum: SpectrumModel
    polarization_mode: str = PRODUCT_HH
    truncation: int = 8

    def __post_init__(self):
        object.__setattr__(self, "pump_order", _whole(self.pump_order, "pump order"))
        object.__setattr__(self, "truncation", _band(self.truncation))
        if not isinstance(self.spectrum, SpectrumModel):
            raise TypeError(f"spectrum must be a SpectrumModel, got {self.spectrum!r}")
        if self.pump_order not in (0, 1):
            raise ValueError("pump_order must be 0 (Gaussian) or 1 (vortex)")
        if self.polarization_mode not in (PRODUCT_HH, BELL_PHI_PLUS):
            raise ValueError(f"unknown polarization mode {self.polarization_mode!r}")


def source_band(truncation: int) -> int:
    """Largest |m| a source populates; leaves spiral-plate headroom."""
    return max(1, truncation - 2)


def canonical_pair_spectrum() -> SpectrumModel:
    """Explicit spectrum selecting only the canonical (m=0, m=1) pair."""
    return SpectrumModel.explicit({EVEN_M: _SQ2, ODD_M: _SQ2})


def _pair_weights(spectrum: SpectrumModel, band: int):
    """The vortex source's grid: pair indices k, the weight at 2k + 1/2 of
    each, and their total.  Pair k groups OAM modes (2k, 2k+1) on photon 1,
    which by OAM conservation puts photon 2 on (1-2k, -2k); all four must
    fit the band."""
    ks = [k for k in range(-band, band + 1) if 2 * abs(k) + 1 <= band]
    weights = [spectrum.weight(2 * k + 0.5) for k in ks]
    return ks, weights, _total(weights)


def dropped_weight(spec: SourceSpec) -> float:
    """Fraction of the untruncated spectral weight the source leaves out, on
    the grid it samples: each m for a Gaussian pump, each pair (2k, 2k+1) at
    2k + 1/2 for a vortex pump.  Uniform and explicit spectra drop nothing:
    the one is defined on the band, the other is rejected outside it."""
    spectrum, band = spec.spectrum, source_band(spec.truncation)
    if spectrum.kind != "gaussian":
        return 0.0
    # Both grids keep one run of indices.  Past 12 sigma beyond the band a
    # weight is below exp(-144) of the tail's.
    reach = band + math.ceil(12.0 * spectrum.sigma) + 8
    if spec.pump_order == 1:  # x = 2k + 1/2 covers the reach at half the k
        kept, _, inside = _pair_weights(spectrum, band)
        at, reach = lambda k: 2 * k + 0.5, (reach + 1) // 2
    else:
        kept, at = range(-band, band + 1), float
        inside = _total(spectrum.weight(float(m)) for m in kept)
    outside = _total(spectrum.weight(at(i)) for i in range(-reach, reach + 1)
                     if not kept[0] <= i <= kept[-1])
    if inside + outside <= 0.0:  # every weight underflowed
        raise ValueError("vortex spectrum has zero weight on the band")
    return outside / (inside + outside)


def _vortex_oam_terms(spectrum: SpectrumModel, band: int):
    """OAM amplitude terms (m1, m2, c) for a first-order vortex pump."""
    if spectrum.kind == "explicit":
        terms = []
        for m, c in spectrum.realize(band).items():
            if abs(1 - m) > band:
                raise TruncationError(
                    f"partner mode m={1 - m} outside source band |m| <= {band}")
            terms.append((m, 1 - m, c))
        return terms
    # Smooth spectra are symmetrized per pair: both members of (2k, 2k+1)
    # share one real weight, so even and odd carry exactly half the total
    # each and every analyzer pair interferes with equal magnitudes.
    ks, weights, total = _pair_weights(spectrum, band)
    if total <= 0.0:
        raise ValueError("vortex spectrum has zero weight on the band")
    terms = []
    for k, weight in zip(ks, weights):
        a = math.sqrt(weight / (2.0 * total))
        terms.append((2 * k, 1 - 2 * k, a))        # photon 1 even
        terms.append((2 * k + 1, -2 * k, a))       # photon 1 odd
    return terms


def _polarization_factor(mode_name: str):
    if mode_name == PRODUCT_HH:
        return [((H, H), 1.0)]
    return [((H, H), _SQ2), ((V, V), _SQ2)]


def spdc(spec: SourceSpec) -> TwoPhotonState:
    """Photon pair from down-conversion; every term satisfies m1 + m2 = pump order."""
    band = source_band(spec.truncation)
    if spec.pump_order == 1:
        oam_terms = _vortex_oam_terms(spec.spectrum, band)
    else:
        oam_terms = [(m, -m, c) for m, c in spec.spectrum.realize(band).items()]
    pol_terms = _polarization_factor(spec.polarization_mode)
    amps = {}
    for m1, m2, c in oam_terms:
        for (p1, p2), w in pol_terms:
            key = (mode(m1, p1), mode(m2, p2))
            amps[key] = amps.get(key, 0.0 + 0.0j) + c * w
    return TwoPhotonState(amps, spec.truncation).normalized()


def hyper_source(spectrum: SpectrumModel, truncation: int = 8) -> TwoPhotonState:
    """Pair entangled in polarization ((HH+VV)/sqrt2) and in even/odd OAM."""
    return spdc(SourceSpec(1, spectrum, BELL_PHI_PLUS, truncation))


def vortex_symmetric(spectrum: SpectrumModel, truncation: int = 8) -> bool:
    """True when the realized vortex spectrum has equal real pair members.

    Smooth spectra are symmetrized by construction; explicit spectra are
    checked term by term.  Only symmetric spectra obey the cos^2 joint
    correlation law.
    """
    if spectrum.kind != "explicit":
        return True
    coeffs = spectrum.realize(source_band(truncation))
    for even_m in {m - m % 2 for m in coeffs}:
        a = coeffs.get(even_m, 0.0 + 0.0j)
        b = coeffs.get(even_m + 1, 0.0 + 0.0j)
        if abs(a.imag) > 1e-12 or abs(b.imag) > 1e-12:
            return False
        if abs(a.real - b.real) > 1e-12 or a.real < 0 or b.real < 0:
            return False
    return True


def hybrid_two_photon(s: TwoPhotonState) -> TwoPhotonState:
    """Swap photon 1's polarization into correlation with photon 2's parity.

    Input must be a product-polarized vortex-pump pair (all HH, m1+m2 = 1).
    The OAM-controlled polarization NOT gate on photon 1 leaves its OAM
    all-even and its polarization tracking photon 2's even/odd class.
    """
    if not isinstance(s, TwoPhotonState):
        raise TypeError(f"expected a TwoPhotonState, got {type(s).__name__}")
    for (k1, k2), _ in s.items():
        if k1.pol != H or k2.pol != H:
            raise ValueError("expected an all-H product-polarized input pair")
        if k1.m + k2.m != 1:
            raise ValueError("expected a first-order vortex-pump pair (m1 + m2 = 1)")
    return oc_p_gate(s, slot=1)


# The four maximally nonseparable (parity x polarization) states of one
# photon, at the canonical representatives even->m=0, odd->m=1.
SPIN_ORBIT_STATES: dict[str, tuple[tuple[int, str, complex], ...]] = {
    "psi+": ((EVEN_M, H, _SQ2), (ODD_M, V, _SQ2)),
    "psi-": ((EVEN_M, H, _SQ2), (ODD_M, V, -_SQ2)),
    "phi+": ((ODD_M, H, _SQ2), (EVEN_M, V, _SQ2)),
    "phi-": ((ODD_M, H, _SQ2), (EVEN_M, V, -_SQ2)),
}

_GREEK = str.maketrans({"ψ": "psi", "Ψ": "Psi", "φ": "phi", "Φ": "Phi", "−": "-"})


def _bell_label(label, labels, what: str) -> str:
    """`label` with its Greek letters and minus sign spelled in ASCII, if
    that is one of `labels`; anything else, a non-string included, raises
    ValueError naming `what`."""
    name = label.translate(_GREEK) if isinstance(label, str) else None
    if name not in labels:
        raise ValueError(f"unknown {what} label {label!r}")
    return name


def normalize_spin_orbit_label(label: str) -> str:
    return _bell_label(label, SPIN_ORBIT_STATES, "spin-orbit state")


def prepare_single_photon_bell(label: str, truncation: int = 8) -> PhotonState:
    """One of the four spin-orbit Bell states at the canonical m values, on path 'in'."""
    label = normalize_spin_orbit_label(label)
    amps = {mode(m, pol): c for m, pol, c in SPIN_ORBIT_STATES[label]}
    return PhotonState(amps, truncation).normalized()


def postselect_partner(s: TwoPhotonState, measured_slot: int = 2,
                       pol: str | None = None,
                       parity_class: str | None = None):
    """Condition on one photon's (polarization, parity) outcome.

    Returns (probability, renormalized PhotonState of the other photon).
    Models heralded preparation from conservation-constrained pair states,
    where each surviving partner mode is tied to a single measured mode; an
    ambiguous (mixed) herald raises instead of silently merging amplitudes.
    """
    if not isinstance(s, TwoPhotonState):
        raise TypeError(f"expected a TwoPhotonState, got {type(s).__name__}")
    if measured_slot not in (1, 2):
        raise ValueError("measured_slot must be 1 or 2")
    if parity_class not in (None, EVEN, ODD):
        raise ValueError(f"unknown parity class {parity_class!r}")
    meas = 0 if measured_slot == 1 else 1
    keep = 1 - meas
    amps: dict[ModeKey, complex] = {}
    origin: dict[ModeKey, ModeKey] = {}
    prob = 0.0
    for key, amp in s.items():
        mk = key[meas]
        if pol is not None and mk.pol != pol:
            continue
        if parity_class is not None and parity(mk.m) != parity_class:
            continue
        prob += abs(amp) ** 2
        pk = key[keep]
        if pk in origin and origin[pk] != mk:
            raise ValueError(
                "herald does not leave the partner photon in a pure state")
        origin[pk] = mk
        amps[pk] = amps.get(pk, 0.0 + 0.0j) + amp
    if prob <= 0.0:
        return 0.0, None
    return prob, PhotonState(amps, s.truncation).normalized()
