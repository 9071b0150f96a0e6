"""Mode space and sparse states for photons carrying OAM, polarization and path.

A basis mode is the triple (path label, polarization H/V, OAM index m) with
the OAM index truncated to a band |m| <= K.  Pure states of one or two
photons are sparse complex amplitude maps over these modes; everything else
in the package (optical elements, sources, analyzers) acts on them.

States and spectra are immutable values: every operation builds a new state,
so instances are safe to share read-only across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
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
# sources.dropped_weight sums about 2 * (K + 12 * sigma) terms for a Gaussian
# pump and half as many for a vortex pump, at about 0.35 us each (2-core host,
# Python 3.11), so the limit costs 75-100 ms and about 30 ms.
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
        add_amplitude(coeffs, _whole(row[0], "OAM index"), *row[1:])
    return coeffs


def _whole(value, what: str) -> int:
    """`value` as an int if it is whole: an int, a numpy integer, an integral
    float or text int() reads.  A bool (numpy's too: it is no registered
    number), a fraction, a NaN, an infinity or any other value raises
    ValueError naming `what`.  Every whole-number input of the package reads
    through here."""
    try:
        if isinstance(value, (str, bytes)) or (
                isinstance(value, numbers.Number) and not isinstance(value, bool)
                and int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _total(values) -> float:
    """Left-to-right float sum.  Builtin sum compensates float sums from
    Python 3.12 on, so a printed float summed with it would change in its
    last bits with the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def mode(m: int, pol: str = H, path: str = "in") -> ModeKey:
    """Convenience constructor; validates the polarization label and m."""
    if pol not in POLARIZATIONS:
        raise ValueError(f"unknown polarization {pol!r}")
    return ModeKey(str(path), pol, _whole(m, "OAM index"))


def _clean_amplitudes(items) -> dict:
    """Drop zero and below-PRUNE_EPS amplitudes and clear signed zeros."""
    amps = {}
    for key, value in items:
        z = complex(value)
        if abs(z) < PRUNE_EPS:  # zeros included; a NaN is kept, not hidden
            continue
        amps[key] = 0j + z  # keys of a mapping are unique; 0j + z clears -0.0
    return amps


def _band(truncation) -> int:
    """The truncation band K as an int; K < 1 raises TruncationError."""
    k = _whole(truncation, "truncation band")
    if k < 1:
        raise TruncationError("truncation band must satisfy K >= 1")
    return k


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
        k = _band(truncation)
        for key in amplitudes:
            self._check(key, k)
        self.amplitudes = _clean_amplitudes(amplitudes.items())
        self.truncation = k

    @classmethod
    def _from_clean(cls, amplitudes: dict, truncation: int):
        """A state holding `amplitudes` as given, with no check and no copy.

        Precondition: `truncation` >= 1, every key in its band, and every
        amplitude a complex the constructor would keep as it is: none below
        PRUNE_EPS in magnitude and no signed zero that 0j + z clears.  Its
        callers take their keys from a state or a basis already in band and
        clean as the constructor does: `normalized`, the sparse engine
        (`elements._evolve`), and ModeBasis.from_vector and from_matrix,
        which make the constructor's decisions on the whole array at once.
        """
        state = object.__new__(cls)
        state.amplitudes = amplitudes
        state.truncation = truncation
        return state

    def items(self) -> Iterator[tuple]:
        """Amplitudes in canonical key order (deterministic iteration)."""
        for key in sorted(self.amplitudes):
            yield key, self.amplitudes[key]

    def get(self, key) -> complex:
        return self.amplitudes.get(key, 0.0 + 0.0j)

    def norm_sq(self) -> float:
        return _total(abs(a) ** 2 for _, a in self.items())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self):
        n = self.norm()
        if n < 1e-300:
            raise NormalizationError("cannot normalize a zero state")
        amps = _clean_amplitudes((k, a / n) for k, a in self.amplitudes.items())
        return type(self)._from_clean(amps, self.truncation)

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
    def from_oam(cls, coeffs: Mapping[int, complex], truncation: int) -> "PhotonState":
        """Build a state from OAM coefficients, H-polarized on path 'in'."""
        return cls({mode(m): c for m, c in coeffs.items()}, truncation)

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
        if slot not in (1, 2):
            raise ValueError("slot must be 1 or 2 for a two-photon state")
        return tuple(sorted({key[slot - 1].path for key in self.amplitudes}))

    def modes(self) -> Iterator[ModeKey]:
        """The mode of each photon of every occupied joint key."""
        return (k for pair in self.amplitudes for k in pair)

    def paths(self) -> tuple[str, ...]:
        amps = self.amplitudes
        return tuple(sorted({k1.path for k1, _ in amps} | {k2.path for _, k2 in amps}))

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
    total = 0.0 + 0.0j
    for key, amp in a.amplitudes.items():
        total += amp.conjugate() * b.amplitudes.get(key, 0.0)
    return total


def parity_marginals(state: TwoPhotonState) -> dict[tuple[str, str], float]:
    """Joint even/odd detection table, summed over all paths and polarizations.

    Raises NormalizationError when the input norm deviates from 1 by more
    than NORM_CHECK_TOL.  The four entries always sum to the state norm.
    """
    if not isinstance(state, TwoPhotonState):
        raise TypeError(f"expected a TwoPhotonState, got {type(state).__name__}")
    state.require_normalized()
    table = dict.fromkeys(itertools.product((EVEN, ODD), repeat=2), 0.0)
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
        items = tuple(sorted((_whole(m, "OAM index"), complex(c)) for m, c in coeffs.items()))
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
        total = math.sqrt(_total(abs(c) ** 2 for c in out.values()))
        if total < 1e-300:
            raise ValueError("spectrum has zero total weight on the band")
        return {m: c / total for m, c in sorted(out.items())}

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


def _clean_dense(z: np.ndarray) -> tuple[tuple[np.ndarray, ...], list]:
    """Indices of the entries the state constructor keeps, and those entries
    as it stores them: the constructor's decisions on the whole array, drop
    where |z| < PRUNE_EPS (a NaN is kept) and add 0j to clear signed zeros.
    The magnitude is np.hypot, which Python's abs(complex) calls; np.abs of
    complex128 can differ from it in the last bit, which can flip the
    decision for a value at PRUNE_EPS.
    """
    where = np.nonzero(~(np.hypot(z.real, z.imag) < PRUNE_EPS))
    return where, (0j + z[where]).tolist()


class ModeBasis:
    """Dense index over every (path, pol, m) mode for a fixed path set and band.

    Used by the dense oracle: sparse circuit evolution must agree with
    stepping a dense vector through each element's rows.  Keys sort by
    (path, pol, m), so the 2K + 1 modes of a (path, pol) band are one
    contiguous index range, starting at (2 * position of the path in `paths`
    + [pol == V]) * (2K + 1).  The key list and the key index are built on
    first use and kept with the instance; `circuit_unitary` reads neither,
    only `size` and the band starts.  The oracle takes its bases from
    `_shared_basis`, so a basis it has used keeps its key list and index
    while it stays among the BASIS_CACHE_SIZE most recently used.

    K < 1 raises TruncationError before anything is allocated, and a mode
    off the basis raises ValueError.  `from_vector` and `from_matrix` take
    their keys from the basis, so in band, and `_clean_dense` cleans the
    values, so their states skip the constructor.
    """

    def __init__(self, paths: Iterable[str], truncation: int):
        self.truncation = _band(truncation)
        self.paths = tuple(sorted(set(paths)))
        if not self.paths:
            raise ValueError("a basis needs at least one path")
        dim = len(self.paths) * len(POLARIZATIONS) * (2 * self.truncation + 1)
        if dim > DENSE_DIM_LIMIT:
            raise ValueError(
                f"dense dimension {dim} exceeds limit {DENSE_DIM_LIMIT}")
        self._size = dim

    @functools.cached_property
    def _keys(self) -> list[ModeKey]:
        # paths, POLARIZATIONS and the m range are each sorted, so the product is too
        ms = range(-self.truncation, self.truncation + 1)
        return list(map(ModeKey._make, itertools.product(self.paths, POLARIZATIONS, ms)))

    @functools.cached_property
    def _index(self) -> dict[ModeKey, int]:
        return dict(zip(self._keys, range(self._size)))

    @property
    def size(self) -> int:
        return self._size

    def index(self, key: ModeKey) -> int:
        return int(self._indices((key,), 1)[0])

    def key_at(self, i: int) -> ModeKey:
        return self._keys[i]

    def _indices(self, keys, n: int) -> np.ndarray:
        """Basis index of each of `n` keys; a key off the basis raises ValueError."""
        try:
            return np.fromiter(map(self._index.__getitem__, keys), np.intp, n)
        except KeyError as exc:
            raise ValueError(f"mode {exc.args[0]!r} is not in the basis over paths "
                             f"{self.paths} at K={self.truncation}") from None

    def to_vector(self, state: PhotonState) -> np.ndarray:
        amps = state.amplitudes
        vec = np.zeros(self.size, dtype=complex)
        vec[self._indices(amps, len(amps))] = np.fromiter(amps.values(), complex, len(amps))
        return vec

    def from_vector(self, vec: np.ndarray) -> PhotonState:
        (idx,), values = _clean_dense(vec)
        keys = self._keys
        amps = dict(zip([keys[i] for i in idx.tolist()], values))
        return PhotonState._from_clean(amps, self.truncation)

    def pair_entries(self, state: TwoPhotonState) -> tuple[np.ndarray, ...]:
        """A pair's terms as three arrays: photon-1 index, photon-2 index and
        amplitude."""
        amps = state.amplitudes
        n = len(amps)
        return (self._indices((k1 for k1, _ in amps), n),
                self._indices((k2 for _, k2 in amps), n),
                np.fromiter(amps.values(), complex, n))

    def to_matrix(self, state: TwoPhotonState) -> np.ndarray:
        mat = np.zeros((self.size, self.size), dtype=complex)
        i1, i2, amps = self.pair_entries(state)
        mat[i1, i2] = amps
        return mat

    def from_matrix(self, mat: np.ndarray, rows=None, cols=None) -> TwoPhotonState:
        """Pair state from its amplitude matrix (photon 1 on the rows), or
        from a block of it whose row r and column c are the basis modes
        rows[r] and cols[c]."""
        (r, c), values = _clean_dense(mat)
        if rows is not None:
            r = rows[r]
        if cols is not None:
            c = cols[c]
        keys = self._keys
        pairs = zip([keys[i] for i in r.tolist()], [keys[i] for i in c.tolist()])
        return TwoPhotonState._from_clean(dict(zip(pairs, values)), self.truncation)


# Dense bases, one per (sorted distinct paths, K), of the most recently used
# path sets.  Measured on 2 cores (Python 3.11) over 400 oracle benchmark
# operations, 4600 lookups (dense_apply asks for the circuit's own basis and
# for the state's): 4 bases answered 2864, 8 answered 4206, 16 answered 4341
# and 32 answered 4464 (the K = 8 analyzer basis then stays between its
# uses).  Most bases `circuit_unitary` asks for never build their
# key list, so 32 held no more measured memory than 16 (2.87 MB traced
# either way, with 16 row sets).
BASIS_CACHE_SIZE = 32


def _shared_basis(paths: Iterable[str], truncation: int) -> ModeBasis:
    """The one basis over `paths` at band K that the oracle shares: equal
    path sets give the same instance whatever their order or repeats.  A
    basis over DENSE_DIM_LIMIT raises before anything is allocated, and a
    basis that raises is not kept.  `truncation` is a band already read by
    `_band`."""
    return _basis(tuple(sorted(set(paths))), truncation)


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis(paths: tuple[str, ...], truncation: int) -> ModeBasis:
    return ModeBasis(paths, truncation)


# ---------------------------------------------------------------------------
# State records (the `state` report)


def _key_record(key: ModeKey) -> dict:
    return {"path": key.path, "pol": key.pol, "m": key.m}


def state_to_records(state) -> list[dict]:
    """State as a list of amplitude records in canonical ModeKey order."""
    records = []
    if isinstance(state, PhotonState):
        for key, amp in state.items():
            records.append({**_key_record(key), "re": amp.real, "im": amp.imag})
    elif isinstance(state, TwoPhotonState):
        for (k1, k2), amp in state.items():
            records.append({"photon1": _key_record(k1), "photon2": _key_record(k2),
                            "re": amp.real, "im": amp.imag})
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    return records
