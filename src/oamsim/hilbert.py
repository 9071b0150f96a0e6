"""Mode space and sparse states for photons carrying OAM, polarization and path.

A basis mode is the triple (path label, polarization H/V, OAM index m) with
the OAM index truncated to a band |m| <= K.  Pure states of one or two
photons are sparse complex amplitude maps over these modes; everything else
in the package (optical elements, sources, analyzers) acts on them.

States and spectra are immutable values: every operation builds a new state,
so instances are safe to share read-only across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "H",
    "V",
    "EVEN",
    "ODD",
    "NORM_CHECK_TOL",
    "PRUNE_EPS",
    "DENSE_BYTES_LIMIT",
    "DENSE_DIM_LIMIT",
    "TruncationError",
    "NormalizationError",
    "parity",
    "ModeKey",
    "mode",
    "is_integral",
    "oam_index",
    "AMPLITUDE_LIMIT",
    "add_amplitude",
    "parse_coeff_rows",
    "PhotonState",
    "TwoPhotonState",
    "inner_product",
    "parity_marginals",
    "GAUSSIAN_SIGMA_LIMIT",
    "SpectrumModel",
    "ModeBasis",
    "state_to_records",
]

H = "H"
V = "V"
POLARIZATIONS = (H, V)

EVEN = "even"
ODD = "odd"

NORM_CHECK_TOL = 1e-9   # how well-normalized an input must be for measurements
PRUNE_EPS = 1e-15       # amplitudes below this magnitude are dropped
DENSE_BYTES_LIMIT = 256 * 2 ** 20  # one n x n complex128 matrix of the oracle
DENSE_DIM_LIMIT = math.isqrt(DENSE_BYTES_LIMIT // np.dtype(complex).itemsize)
# Largest input amplitude magnitude: squares summed over fewer than 1e8 modes
# stay finite.
AMPLITUDE_LIMIT = 1e150
# out_of_band_weight sums about 12 * sigma tail terms at about 0.3 us each
# (2-core host, Python 3.11), so the limit costs about 33 ms.
GAUSSIAN_SIGMA_LIMIT = 1e4


class TruncationError(ValueError):
    """OAM index outside the configured band, or mismatched bands."""


class NormalizationError(ValueError):
    """State norm too far from one for the requested operation."""


def parity(m: int) -> str:
    """Even/odd class of an OAM index; sign-independent, so parity(-3) is odd."""
    return EVEN if m % 2 == 0 else ODD


class ModeKey(NamedTuple):
    """One basis mode.  Tuple order (path, pol, m) is the canonical sort order."""

    path: str
    pol: str
    m: int


def is_integral(value) -> bool:
    """An int, an integral float or a string; bools are not integers here."""
    return ((isinstance(value, (int, str)) and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer()))


def oam_index(value) -> int:
    """OAM index from JSON input; fractions, bools and non-numbers are rejected."""
    if not is_integral(value):
        raise ValueError(f"OAM index must be an integer, got {value!r}")
    return int(value)


def add_amplitude(amps: dict, key, re, im=0.0) -> None:
    """Add re + i*im from JSON input into amps[key].

    Non-finite values, and a running sum above AMPLITUDE_LIMIT in magnitude,
    are rejected.
    """
    c = amps.get(key, 0j) + complex(float(re), float(im))
    if not math.hypot(c.real, c.imag) <= AMPLITUDE_LIMIT:
        raise ValueError(f"amplitude at {key} must be finite with magnitude "
                         f"<= {AMPLITUDE_LIMIT:g}, got {c!r}")
    amps[key] = c


def parse_coeff_rows(rows) -> dict[int, complex]:
    """[m, re] or [m, re, im] rows -> {m: amplitude}, summing repeated m."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"coefficient rows must be a list, got {rows!r}")
    coeffs: dict[int, complex] = {}
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) not in (2, 3):
            raise ValueError(f"coefficient row must be [m, re] or [m, re, im], got {row!r}")
        add_amplitude(coeffs, oam_index(row[0]), *row[1:])
    return coeffs


def mode(m: int, pol: str = H, path: str = "in") -> ModeKey:
    """Convenience constructor; validates the polarization label."""
    if pol not in POLARIZATIONS:
        raise ValueError(f"unknown polarization {pol!r}")
    return ModeKey(str(path), pol, int(m))


def _clean_amplitudes(items) -> dict:
    """Drop zero and below-PRUNE_EPS amplitudes and clear signed zeros."""
    amps = {}
    for key, value in items:
        z = complex(value)
        if abs(z) < PRUNE_EPS:  # zeros included; a NaN is kept, not hidden
            continue
        amps[key] = 0j + z  # keys of a mapping are unique; 0j + z clears -0.0
    return amps


def _check_single(key: ModeKey, truncation: int) -> None:
    if abs(key.m) > truncation:
        raise TruncationError(f"mode m={key.m} outside band |m| <= {truncation}")


def _check_joint(key, truncation: int) -> None:
    k1, k2 = key
    _check_single(k1, truncation)
    _check_single(k2, truncation)


class _SparseState:
    """Sparse amplitude map over mode keys, shared by both state kinds.

    Subclasses set `_check`, the band check for one key.
    """

    __slots__ = ("amplitudes", "truncation")

    def __init__(self, amplitudes: Mapping, truncation: int):
        k = int(truncation)
        if k < 1:
            raise TruncationError("truncation band must satisfy K >= 1")
        for key in amplitudes:
            self._check(key, k)
        self.amplitudes = _clean_amplitudes(amplitudes.items())
        self.truncation = k

    def items(self) -> Iterator[tuple]:
        """Amplitudes in canonical key order (deterministic iteration)."""
        for key in sorted(self.amplitudes):
            yield key, self.amplitudes[key]

    def get(self, key) -> complex:
        return self.amplitudes.get(key, 0.0 + 0.0j)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for _, a in self.items()))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self):
        n = self.norm()
        if n < 1e-300:
            raise NormalizationError("cannot normalize a zero state")
        return type(self)({k: a / n for k, a in self.amplitudes.items()},
                          self.truncation)

    def require_normalized(self) -> None:
        """Measurement precondition: norm**2 within NORM_CHECK_TOL of 1."""
        dev = abs(self.norm_sq() - 1.0)
        if dev > NORM_CHECK_TOL:
            raise NormalizationError(f"state norm**2 deviates from 1 by {dev:.3e}")

    def paths(self) -> tuple[str, ...]:
        return tuple(sorted({k.path for k in self.modes()}))

    def __len__(self) -> int:
        return len(self.amplitudes)


class PhotonState(_SparseState):
    """Sparse single-photon state: ModeKey -> complex amplitude."""

    __slots__ = ()
    _check = staticmethod(_check_single)

    @classmethod
    def from_oam(cls, coeffs: Mapping[int, complex], truncation: int,
                 pol: str = H, path: str = "in") -> "PhotonState":
        """Build a state from OAM coefficients on a single path/polarization."""
        return cls({mode(m, pol, path): c for m, c in coeffs.items()}, truncation)

    def modes(self) -> Iterator[ModeKey]:
        """Every occupied mode."""
        return iter(self.amplitudes)

    def __repr__(self) -> str:
        return f"PhotonState({len(self.amplitudes)} modes, K={self.truncation})"


class TwoPhotonState(_SparseState):
    """Sparse two-photon state over joint keys (ModeKey, ModeKey).

    Photon slots 1 and 2 are positional and never permuted implicitly.
    """

    __slots__ = ()
    _check = staticmethod(_check_joint)

    def slot_paths(self, slot: int) -> tuple[str, ...]:
        i = 0 if slot == 1 else 1
        return tuple(sorted({key[i].path for key in self.amplitudes}))

    def modes(self) -> Iterator[ModeKey]:
        """The mode of each photon of every occupied joint key."""
        return (k for pair in self.amplitudes for k in pair)

    def __repr__(self) -> str:
        return f"TwoPhotonState({len(self.amplitudes)} joint modes, K={self.truncation})"


def inner_product(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Both arguments must be the same kind of state with the same truncation
    band.
    """
    if type(a) is not type(b):
        raise TypeError("inner_product requires two states of the same kind")
    if a.truncation != b.truncation:
        raise TruncationError(
            f"mismatched truncation bands {a.truncation} != {b.truncation}")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0.0 + 0.0j
    if small is a:
        for key, amp in a.amplitudes.items():
            total += amp.conjugate() * b.amplitudes.get(key, 0.0)
    else:
        for key, amp in b.amplitudes.items():
            total += a.amplitudes.get(key, 0.0).conjugate() * amp
    return total


def parity_marginals(state: TwoPhotonState) -> dict[tuple[str, str], float]:
    """Joint even/odd detection table, summed over all paths and polarizations.

    Raises NormalizationError when the input norm deviates from 1 by more
    than NORM_CHECK_TOL.  The four entries always sum to the state norm.
    """
    state.require_normalized()
    table = {(EVEN, EVEN): 0.0, (EVEN, ODD): 0.0,
             (ODD, EVEN): 0.0, (ODD, ODD): 0.0}
    for (k1, k2), amp in state.amplitudes.items():
        table[(parity(k1.m), parity(k2.m))] += abs(amp) ** 2
    return table


# ---------------------------------------------------------------------------
# Spectra


@dataclass(frozen=True)
class SpectrumModel:
    """Family of OAM coefficients feeding the down-conversion sources.

    kind "uniform": equal weights over the band.
    kind "gaussian": |c_m|^2 proportional to exp(-m^2 / sigma^2).
    kind "explicit": literal (m, c_m) coefficients, possibly complex.
    """

    kind: str
    sigma: float | None = None
    coeffs: tuple[tuple[int, complex], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "explicit"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == "gaussian":
            sigma = self.sigma
            if sigma is None or not (0 < sigma <= GAUSSIAN_SIGMA_LIMIT and sigma * sigma > 0):
                raise ValueError("gaussian spectrum requires sigma > 0 with sigma**2 > 0 "
                                 f"and sigma <= {GAUSSIAN_SIGMA_LIMIT:g}")
        if self.kind == "explicit":
            if not self.coeffs:
                raise ValueError("explicit spectrum requires coefficients")

    @staticmethod
    def uniform() -> "SpectrumModel":
        return SpectrumModel("uniform")

    @staticmethod
    def gaussian(sigma: float) -> "SpectrumModel":
        return SpectrumModel("gaussian", sigma=float(sigma))

    @staticmethod
    def explicit(coeffs: Mapping[int, complex]) -> "SpectrumModel":
        items = tuple(sorted((int(m), complex(c)) for m, c in coeffs.items()))
        return SpectrumModel("explicit", coeffs=items)

    def weight(self, x: float) -> float:
        """Relative |c|^2 profile at (possibly fractional) index x."""
        if self.kind == "uniform":
            return 1.0
        if self.kind == "gaussian":
            return math.exp(-(x * x) / (self.sigma * self.sigma))
        raise ValueError("explicit spectra carry literal coefficients, not a profile")

    def realize(self, band: int) -> dict[int, complex]:
        """Normalized coefficients c_m on |m| <= band (sum |c_m|^2 = 1)."""
        if band < 0:
            raise TruncationError("band must be non-negative")
        if self.kind == "explicit":
            out: dict[int, complex] = {}
            for m, c in self.coeffs:
                if abs(m) > band:
                    raise TruncationError(
                        f"explicit coefficient at m={m} outside source band |m| <= {band}")
                if c != 0:
                    out[m] = out.get(m, 0.0 + 0.0j) + c
        else:
            out = {m: complex(math.sqrt(self.weight(float(m))))
                   for m in range(-band, band + 1)}
        total = math.sqrt(sum(abs(c) ** 2 for c in out.values()))
        if total < 1e-300:
            raise ValueError("spectrum has zero total weight on the band")
        return {m: c / total for m, c in sorted(out.items())}

    def out_of_band_weight(self, band: int) -> float:
        """Fraction of the untruncated |c|^2 weight that falls outside the band."""
        if self.kind == "uniform":
            return 0.0  # defined on the band itself
        if self.kind == "explicit":
            return 0.0  # realize() rejects out-of-band support instead
        inside = sum(self.weight(float(m)) for m in range(-band, band + 1))
        outside = 0.0
        m = band + 1
        horizon = band + 1 + int(math.ceil(12.0 * self.sigma)) + 8
        while m <= horizon:
            w = self.weight(float(m))
            outside += 2.0 * w
            m += 1
        total = inside + outside
        return outside / total if total > 0 else 0.0

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.sigma is not None:
            d["sigma"] = float(self.sigma)
        if self.coeffs is not None:
            d["coeffs"] = [[m, c.real, c.imag] for m, c in self.coeffs]
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "SpectrumModel":
        if not isinstance(d, Mapping):
            raise ValueError(f"spectrum must be a JSON object, got {d!r}")
        kind = d.get("kind")
        if kind == "uniform":
            return SpectrumModel.uniform()
        if kind == "gaussian":
            return SpectrumModel.gaussian(float(d["sigma"]))
        if kind == "explicit":
            return SpectrumModel.explicit(parse_coeff_rows(d["coeffs"]))
        raise ValueError(f"unknown spectrum kind {kind!r}")


# ---------------------------------------------------------------------------
# Dense basis (verification oracle backbone)


def _kept(x: np.ndarray) -> np.ndarray:
    """Entries a state could keep: none below PRUNE_EPS / 2 in magnitude, so
    roundoff never reaches the state constructor, which makes the exact
    PRUNE_EPS decision; a NaN is kept, as the constructor keeps it."""
    return ~(np.abs(x) < PRUNE_EPS / 2)


class ModeBasis:
    """Dense index over every (path, pol, m) mode for a fixed path set and band.

    Used by the dense oracle: sparse circuit evolution must agree with
    stepping a dense vector through each element's rows.  Keys sort by
    (path, pol, m), so each path's 2 * (2K + 1) modes are one contiguous
    index range, starting at (path, H, -K).
    """

    def __init__(self, paths: Iterable[str], truncation: int):
        self.paths = tuple(sorted(set(paths)))
        self.truncation = int(truncation)
        if not self.paths:
            raise ValueError("a basis needs at least one path")
        dim = len(self.paths) * len(POLARIZATIONS) * (2 * self.truncation + 1)
        if dim > DENSE_DIM_LIMIT:
            raise ValueError(
                f"dense dimension {dim} exceeds limit {DENSE_DIM_LIMIT}")
        keys = [ModeKey(p, pol, m)
                for p in self.paths
                for pol in POLARIZATIONS
                for m in range(-self.truncation, self.truncation + 1)]
        keys.sort()
        self._keys = keys
        self._index = {key: i for i, key in enumerate(keys)}

    @property
    def size(self) -> int:
        return len(self._keys)

    def index(self, key: ModeKey) -> int:
        return self._index[key]

    def key_at(self, i: int) -> ModeKey:
        return self._keys[i]

    def to_vector(self, state: PhotonState) -> np.ndarray:
        vec = np.zeros(self.size, dtype=complex)
        for key, amp in state.amplitudes.items():
            vec[self._index[key]] = amp
        return vec

    def from_vector(self, vec: np.ndarray) -> PhotonState:
        amps = {self._keys[i]: vec[i] for i in np.flatnonzero(_kept(vec))}
        return PhotonState(amps, self.truncation)

    def to_matrix(self, state: TwoPhotonState) -> np.ndarray:
        mat = np.zeros((self.size, self.size), dtype=complex)
        for (k1, k2), amp in state.amplitudes.items():
            mat[self._index[k1], self._index[k2]] = amp
        return mat

    def from_matrix(self, mat: np.ndarray) -> TwoPhotonState:
        keys = self._keys
        rows, cols = np.nonzero(_kept(mat))
        amps = {(keys[r], keys[c]): mat[r, c] for r, c in zip(rows, cols)}
        return TwoPhotonState(amps, self.truncation)


# ---------------------------------------------------------------------------
# State records (the `state` report)


def _key_record(key: ModeKey) -> dict:
    return {"path": key.path, "pol": key.pol, "m": key.m}


def state_to_records(state) -> list[dict]:
    """State as a list of amplitude records in canonical ModeKey order."""
    records = []
    if isinstance(state, PhotonState):
        for key, amp in state.items():
            rec = _key_record(key)
            rec["re"] = amp.real
            rec["im"] = amp.imag
            records.append(rec)
    elif isinstance(state, TwoPhotonState):
        for (k1, k2), amp in state.items():
            records.append({"photon1": _key_record(k1), "photon2": _key_record(k2),
                            "re": amp.real, "im": amp.imag})
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return records
