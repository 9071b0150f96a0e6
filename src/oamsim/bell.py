"""Even/odd projections, two-photon coincidences, CHSH and key exchange.

Alice's analyzer projects onto cos(theta)|even> + sin(theta)|odd> per OAM
pair.  Bob's analyzer is referenced with the even/odd roles interchanged
(his angle is measured from the odd axis), which matches the source's
even/odd anticorrelation: at equal settings every coincidence lands in the
paired ports, and for symmetric real spectra the normalized coincidence
obeys C(theta, chi) = cos^2(theta - chi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elements import build_projection, joint_readouts, readout
from .hilbert import DENSE_BYTES_LIMIT, V, PhotonState, TwoPhotonState, _total, _whole

__all__ = [
    "TSIRELSON",
    "TsirelsonError",
    "ALICE_KEY_ANGLES",
    "BOB_KEY_ANGLES",
    "ProjectionSetting",
    "project_single",
    "CoincidenceTable",
    "coincidence",
    "projector_coincidence",
    "CHSHResult",
    "chsh",
    "EkertResult",
    "EKERT_ROUNDS_LIMIT",
    "ekert_run",
    "task_rng",
    "SHOTS_LIMIT",
    "sample_counts",
]

TSIRELSON = 2.0 * math.sqrt(2.0)


class TsirelsonError(RuntimeError):
    """An analytic CHSH value exceeded the quantum bound 2*sqrt(2)."""


# Standard entanglement-based key-exchange settings: the overlapping pair of
# angles gives key bits, the outer 2x2 block is the CHSH witness.
ALICE_KEY_ANGLES = (0.0, math.pi / 8.0, math.pi / 4.0)
BOB_KEY_ANGLES = (math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0)
# 3 * Alice's index + Bob's for the matched angles, pairs (1, 0) and (2, 1).
_KEY_SETTINGS = (3, 7)
_CHSH_COMBOS = ((0, 0), (0, 2), (2, 0), (2, 2))

VARIANTS = ("tunable_bs", "polarization")

# The per-round byte budget the round limit is derived from, under the same
# memory budget as the dense oracle; ekert_run peaks at 11.5 B/round
# (tracemalloc: 11.5 at 1e5 rounds and 11.3 at 1e6).
EKERT_BYTES_PER_ROUND = 48
EKERT_ROUNDS_LIMIT = DENSE_BYTES_LIMIT // EKERT_BYTES_PER_ROUND


def task_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic sub-stream for (seed, task indices); thread-count neutral.
    Every seeded draw of the package enters here."""
    seed = _whole(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, *map(int, key)]))


# The multinomial takes its draw count as a C long.
SHOTS_LIMIT = int(np.iinfo(np.dtype("l")).max)


def sample_counts(probs, shots: int, seed: int | None, *key: int) -> np.ndarray:
    """One multinomial draw of `shots` over the cleaned probabilities."""
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    shots = _whole(shots, "shots")
    if shots > SHOTS_LIMIT:
        raise ValueError(f"shots {shots} exceeds limit {SHOTS_LIMIT}")
    return task_rng(seed, *key).multinomial(shots, _clean_probs(probs))


@dataclass(frozen=True)
class ProjectionSetting:
    """Analyzer angle in radians plus the hardware variant realizing it."""

    theta: float
    variant: str = "tunable_bs"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown projection variant {self.variant!r}")


def _require_h_polarized(state, variant: str) -> None:
    if variant == "polarization" and any(k.pol == V for k in state.modes()):
        raise ValueError(
            "polarization-assisted projection needs H-polarized input")


def project_single(state: PhotonState, setting: ProjectionSetting):
    """Intensities (I1, I2) at the theta and theta-perp ports."""
    _require_h_polarized(state, setting.variant)
    return tuple(readout(build_projection(setting.theta, setting.variant), state).values())


def _bob_angle(chi: float) -> float:
    # Bob's odd-axis reference realized as the complementary analyzer angle.
    if not math.isfinite(chi):
        raise ValueError(f"projection angle chi must be finite, got {chi}")
    return math.pi / 2.0 - chi


def _joint_grid(s: TwoPhotonState, settings, variant: str):
    """Joint detector probabilities (d13, d14, d23, d24) from the circuits,
    yielded for each (theta, chi) of `settings` in order; each circuit
    prefix the settings share is applied once."""
    _require_h_polarized(s, variant)
    pairs = [(build_projection(theta, variant), build_projection(_bob_angle(chi), variant))
             for theta, chi in settings]
    return (tuple(probs.values()) for probs in joint_readouts(pairs, s))


def projector_coincidence(s: TwoPhotonState, theta: float, chi: float):
    """Direct projector contraction <Psi| P_theta (x) P_chi |Psi> and partners.

    Independent of the circuit machinery: amplitudes are contracted against
    the analyzer vectors bucket by bucket (one bucket per OAM pair, path and
    polarization), then squared.  Returns (d13, d14, d23, d24).
    """
    ct, st = math.cos(theta), math.sin(theta)
    cc, sc = math.cos(chi), math.sin(chi)
    buckets: dict[tuple, np.ndarray] = {}
    for (k1, k2), amp in s.amplitudes.items():
        j, even1 = divmod(k1.m, 2)
        l, even2 = divmod(k2.m, 2)
        # Alice weights (theta from the even axis), Bob weights (chi from odd)
        a1 = ct if even1 == 0 else st
        a2 = st if even1 == 0 else -ct
        b1 = sc if even2 == 0 else cc
        b2 = cc if even2 == 0 else -sc
        tag = (j, l, k1.pol, k2.pol, k1.path, k2.path)
        acc = buckets.setdefault(tag, np.zeros(4, dtype=complex))
        acc += amp * np.array([a1 * b1, a1 * b2, a2 * b1, a2 * b2])
    totals = np.zeros(4)
    for acc in buckets.values():
        totals += np.abs(acc) ** 2
    return tuple(float(x) for x in totals)


def _clean_probs(probs) -> np.ndarray:
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    p[p < 1e-15] = 0.0
    total = p.sum()
    if total <= 0.0:
        raise ValueError("all coincidence probabilities vanish")
    return p / total


def _e_value(c13, c14, c23, c24) -> float:
    """E = (c13 + c24 - c14 - c23) / total from the four coincidence
    probabilities or counts."""
    total = c13 + c14 + c23 + c24
    if total < 1e-12:
        raise ValueError("all coincidence probabilities vanish")
    return (c13 + c24 - c14 - c23) / total


def _chsh_b_sigma(e, n):
    """B = |E1 - E2 + E3 + E4| from the four settings' E values, and its
    standard error when setting i has n[i] sampled coincidences (n None:
    analytic, no error)."""
    b = abs(e[0] - e[1] + e[2] + e[3])
    if n is None:
        return b, None
    return b, math.sqrt(_total((1.0 - ei * ei) / ni for ei, ni in zip(e, n)))


def _port_fraction(part: float, port_total: float, port: str) -> float:
    # Same floor as _e_value: below it the ratio is round-off over round-off.
    if port_total < 1e-12:
        raise ValueError(f"Alice's {port} port receives no coincidences")
    return part / port_total


@dataclass(frozen=True)
class CoincidenceTable:
    """Coincidence data for one (theta, chi) setting pair.

    d13..d24 are the exact joint detection probabilities (they sum to one);
    a sampled table, and only a sampled one, carries one multinomial draw
    over them in `counts`.
    """

    theta: float
    chi: float
    d13: float
    d14: float
    d23: float
    d24: float
    counts: tuple[int, int, int, int] | None = None

    def joint(self) -> dict[str, float]:
        return {"D13": self.d13, "D14": self.d14, "D23": self.d23, "D24": self.d24}

    def correlation(self) -> float:
        """C(theta, chi): Bob's paired-port fraction of Alice's theta-port counts."""
        return _port_fraction(self.d13, self.d13 + self.d14, "theta")

    def correlations(self) -> dict[str, float]:
        a1 = self.d13 + self.d14
        a2 = self.d23 + self.d24
        return {
            "C(theta,chi)": _port_fraction(self.d13, a1, "theta"),
            "C(theta,chi_perp)": _port_fraction(self.d14, a1, "theta"),
            "C(theta_perp,chi)": _port_fraction(self.d23, a2, "theta_perp"),
            "C(theta_perp,chi_perp)": _port_fraction(self.d24, a2, "theta_perp"),
        }

    def e_value(self) -> float:
        """Correlation parameter from the four-coincidence ratio."""
        if self.counts is not None:
            return _e_value(*self.counts)
        return _e_value(self.d13, self.d14, self.d23, self.d24)


def _shots(shots) -> int:
    """A shot count as every sampled call reads it: a whole number >= 0."""
    shots = _whole(shots, "shots")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    return shots


def _table(theta: float, chi: float, d, shots: int, seed: int | None,
           *key: int) -> CoincidenceTable:
    """Table of the exact probabilities `d` at one setting pair; shots > 0
    adds one draw on rng `key`."""
    if shots == 0:
        return CoincidenceTable(theta, chi, *d)
    counts = sample_counts(d, shots, seed, *key)
    return CoincidenceTable(theta, chi, *d, counts=tuple(int(c) for c in counts))


def coincidence(s: TwoPhotonState, theta: float, chi: float,
                variant: str = "tunable_bs", shots: int = 0,
                seed: int | None = None) -> CoincidenceTable:
    """Coincidence table at one setting pair; shots > 0 samples a multinomial."""
    shots = _shots(shots)
    return _table(theta, chi, next(_joint_grid(s, ((theta, chi),), variant)), shots, seed, 2)


@dataclass(frozen=True)
class CHSHResult:
    settings: tuple[float, float, float, float]
    e_values: dict[str, float]
    b: float
    sigma: float | None = None
    tables: tuple[CoincidenceTable, ...] = field(default=(), repr=False)


def chsh(s: TwoPhotonState, theta: float, theta2: float, chi: float, chi2: float,
         variant: str = "tunable_bs", shots: int = 0,
         seed: int | None = None) -> CHSHResult:
    """CHSH combination B = |E(t,c) - E(t,c') + E(t',c) + E(t',c')|."""
    shots = _shots(shots)
    pairs = ((theta, chi), (theta, chi2), (theta2, chi), (theta2, chi2))
    tables = [_table(t, c, d, shots, seed, 2, i)
              for i, ((t, c), d) in enumerate(zip(pairs, _joint_grid(s, pairs, variant)))]
    e = [tab.e_value() for tab in tables]
    b, sigma = _chsh_b_sigma(e, [shots] * 4 if shots > 0 else None)
    if sigma is None and b > TSIRELSON + 1e-9:
        raise TsirelsonError(f"analytic CHSH value {b} exceeds the quantum bound")
    labels = ("E(theta,chi)", "E(theta,chi2)", "E(theta2,chi)", "E(theta2,chi2)")
    return CHSHResult((theta, theta2, chi, chi2), dict(zip(labels, e)), b, sigma, tuple(tables))


@dataclass(frozen=True)
class EkertResult:
    rounds: int
    seed: int
    key_a: str
    key_b: str
    qber: float | None
    chsh_estimate: float | None
    chsh_sigma: float | None
    matched_rounds: int
    chsh_rounds: int


def _bit_string(bits: np.ndarray) -> str:
    """0/1 bits as a string of '0' and '1' characters, in one conversion."""
    return (bits.astype(np.uint8) + 48).tobytes().decode("ascii")


def ekert_run(s: TwoPhotonState, rounds: int, seed: int,
              variant: str = "tunable_bs") -> EkertResult:
    """Entanglement-based key exchange with a CHSH security estimate.

    Per round Alice draws from {0, pi/8, pi/4} and Bob from
    {pi/8, pi/4, 3pi/8}.  Matched angles yield key bits (Bob flips his bit,
    so an anticorrelated source gives identical sifted keys); the four
    outer setting pairs accumulate the CHSH estimate.  Outcomes are sampled
    from one deterministic sub-stream per setting pair, so results do not
    depend on any parallel scheduling.  A round holds one int8 setting
    index, 3 * Alice's index + Bob's, and one int8 outcome.
    """
    rounds, seed = _whole(rounds, "rounds"), _whole(seed, "seed")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if rounds > EKERT_ROUNDS_LIMIT:
        raise ValueError(f"rounds {rounds} exceeds limit {EKERT_ROUNDS_LIMIT}")
    base = task_rng(seed, 0)
    # Each index is drawn as int64, Alice's first, and cast after the draw.
    setting = 3 * base.integers(0, 3, size=rounds).astype(np.int8)
    setting += base.integers(0, 3, size=rounds)
    drawn = np.flatnonzero(np.bincount(setting, minlength=9)).tolist()

    outcome = np.empty(rounds, dtype=np.int8)  # each round is one of the nine pairs
    combo_counts: dict[tuple[int, int], np.ndarray] = {}
    settings = [(ALICE_KEY_ANGLES[i // 3], BOB_KEY_ANGLES[i % 3]) for i in drawn]
    for i, d in zip(drawn, _joint_grid(s, settings, variant)):
        ai, bi = divmod(i, 3)
        here = np.flatnonzero(setting == i)
        draws = task_rng(seed, 1, ai, bi).choice(4, size=here.size, p=_clean_probs(d))
        outcome[here] = draws
        combo_counts[(ai, bi)] = np.bincount(draws, minlength=4)

    sifted = outcome[np.isin(setting, _KEY_SETTINGS)]
    alice_bits, bob_bits = sifted // 2, sifted % 2  # port flip folded in
    qber = float(np.mean(alice_bits != bob_bits)) if sifted.size else None

    chsh_counts = [combo_counts[c] for c in _CHSH_COMBOS if c in combo_counts]
    estimate = sigma = None
    if len(chsh_counts) == len(_CHSH_COMBOS):
        estimate, sigma = _chsh_b_sigma([_e_value(*c) for c in chsh_counts],
                                        [c.sum() for c in chsh_counts])
    return EkertResult(
        rounds=rounds, seed=seed, key_a=_bit_string(alice_bits), key_b=_bit_string(bob_bits),
        qber=qber, chsh_estimate=estimate, chsh_sigma=sigma, matched_rounds=sifted.size,
        chsh_rounds=int(sum(c.sum() for c in chsh_counts)))
