"""Optical elements as exact unitaries on mode space, plus circuit composition.

Conventions (fixed package-wide):
  * beam splitter with transmission amplitude t: transmitted amplitude is
    real t, reflected amplitude is i*sqrt(1 - t^2); t = 1/sqrt(2) is 50:50;
  * polarizing beam splitter transmits H unchanged and reflects V with an
    extra factor i;
  * a dove prism rotated by alpha/2 imprints exp(i*m*alpha) on OAM mode m;
  * a spiral phase plate of order q shifts m -> m + q, wrapping cyclically
    at the truncation band edge (a guard raises if the wrapped weight is
    not negligible);
  * mirrors relabel a path and are otherwise the identity (common
    reflection phases are dropped globally);
  * the spin-orbit gates "oc_p" (OAM-parity controlled polarization NOT)
    and "pc_o" (polarization controlled parity NOT) permute the modes on
    each of their paths, with the same cyclic m shift and guard.

Elements and circuits are immutable; application is a pure function.  What
an element does to each basis mode is computed once per (element, K) and
kept in a bounded LRU (see ACTION_CACHE_SIZE); the built-in setups are built
once per process.

The dense oracle reads neither `_key_action` nor that cache: `_element_rows`
states each element's action a second time, a whole (path, pol) band of the
dense basis at a time, and the tests pin the two statements equal.  No
element mixes more than two modes into one, so each element is a row step:
x[tgt] = f * x[src] on its one-source rows and x[tgt] = f1 * x[s1] +
f2 * x[s2] on its two-source rows; rows it leaves as they are are skipped.
`circuit_unitary` steps the rows of the identity; `dense_apply` steps the
state vector, or the rows (photon 1) and then the columns (photon 2) of the
pair matrix, and forms no unitary.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hilbert import (
    H,
    V,
    ModeBasis,
    ModeKey,
    PhotonState,
    TwoPhotonState,
    _clean_amplitudes,
)

__all__ = [
    "WRAP_GUARD",
    "WrapGuardError",
    "Element",
    "beam_splitter",
    "polarizing_bs",
    "dove_prism",
    "spiral_phase_plate",
    "half_wave_plate",
    "phase_delay",
    "mirror",
    "Circuit",
    "apply_element",
    "apply_circuit",
    "detect",
    "coincidence_detect",
    "readout",
    "joint_readout",
    "build_sorter",
    "build_s2_setup",
    "build_s3_setup",
    "build_projection",
    "element_matrix",
    "circuit_unitary",
    "dense_apply",
    "circuit_to_dict",
]

WRAP_GUARD = 1e-9


class WrapGuardError(RuntimeError):
    """An OAM shift moved non-negligible weight across the band edge."""


@dataclass(frozen=True, eq=True)
class Element:
    """One element on named paths.  `params` is a read-only mapping, so one
    element can be shared by every caller of a memoized setup; the hash
    leaves it out, which keeps equal elements hashing equal."""

    kind: str
    in_paths: tuple[str, ...]
    out_paths: tuple[str, ...]
    params: Mapping = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return type(self), (self.kind, self.in_paths, self.out_paths, dict(self.params))

    def paths(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.in_paths + self.out_paths))


def _require_disjoint(in_paths, out_paths) -> None:
    if set(in_paths) & set(out_paths):
        raise ValueError("input and output paths must be distinct")
    if len(set(in_paths)) != len(in_paths) or len(set(out_paths)) != len(out_paths):
        raise ValueError("port paths must be pairwise distinct")


def _assert_local_unitary(a, b, c, d) -> None:
    """Every entry of U^H U - I for U = [[a, b], [c, d]] lies within 1e-12.

    Each test reads `not gap <= tol`, so a NaN entry fails it.
    """
    diag_a = abs(abs(a) ** 2 + abs(c) ** 2 - 1.0)
    diag_b = abs(abs(b) ** 2 + abs(d) ** 2 - 1.0)
    off = abs(a.conjugate() * b + c.conjugate() * d)
    if not (diag_a <= 1e-12 and diag_b <= 1e-12 and off <= 1e-12):
        raise ValueError("element parameters do not give a unitary action")


def beam_splitter(in_a: str, in_b: str, out_a: str, out_b: str,
                  t: float = 1.0 / math.sqrt(2.0)) -> Element:
    """Two-port splitter; out_a takes t from in_a and i*r from in_b."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission amplitude must lie in [0, 1], got {t}")
    _require_disjoint((in_a, in_b), (out_a, out_b))
    r = math.sqrt(max(0.0, 1.0 - t * t))
    _assert_local_unitary(t, 1j * r, 1j * r, t)
    return Element("bs", (in_a, in_b), (out_a, out_b), {"t": t})


def polarizing_bs(in_a: str, in_b: str, out_a: str, out_b: str) -> Element:
    _require_disjoint((in_a, in_b), (out_a, out_b))
    return Element("pbs", (in_a, in_b), (out_a, out_b))


def dove_prism(path: str, alpha: float) -> Element:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("dove prism rotation must be finite")
    return Element("dove", (path,), (path,), {"alpha": alpha})


def spiral_phase_plate(path: str, q: int) -> Element:
    return Element("spp", (path,), (path,), {"q": int(q)})


def half_wave_plate(path: str, theta: float) -> Element:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("half-wave plate angle must be finite")
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    _assert_local_unitary(c, s, s, -c)
    return Element("hwp", (path,), (path,), {"theta": theta})


def phase_delay(path: str, phi: float) -> Element:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError("phase delay must be finite")
    return Element("phase", (path,), (path,), {"phi": phi})


def mirror(in_path: str, out_path: str) -> Element:
    if in_path == out_path:
        raise ValueError("mirror must relabel the path")
    return Element("mirror", (in_path,), (out_path,))


def _wrap_m(m: int, truncation: int) -> tuple[int, bool]:
    span = 2 * truncation + 1
    wrapped = ((m + truncation) % span) - truncation
    return wrapped, wrapped != m


_KINDS = frozenset(("bs", "pbs", "dove", "spp", "hwp", "phase", "mirror", "oc_p", "pc_o"))


def _key_action(elem: Element, key: ModeKey, truncation: int):
    """Targets of one basis mode: list of (new_key, factor, crossed_band_edge).

    Elements with distinct in/out ports also map their (normally empty)
    output paths back onto the input paths, so every element is a genuine
    unitary on the whole basis, not just an isometry on fed ports.
    """
    kind = elem.kind
    if kind not in _KINDS:
        raise ValueError(f"unknown element kind {kind!r}")
    path, pol, m = key
    if path in elem.in_paths:
        port = elem.in_paths.index(path)
    elif path in elem.out_paths:
        return [(ModeKey(elem.in_paths[elem.out_paths.index(path)], pol, m), 1.0, False)]
    else:
        return [(key, 1.0, False)]  # modes on unrelated paths pass through
    if kind == "bs":
        t = elem.params["t"]
        r = math.sqrt(max(0.0, 1.0 - t * t))
        out_a, out_b = elem.out_paths
        fa, fb = (t, 1j * r) if port == 0 else (1j * r, t)
        return [(ModeKey(out_a, pol, m), fa, False), (ModeKey(out_b, pol, m), fb, False)]
    if kind == "pbs":
        if pol == H:
            return [(ModeKey(elem.out_paths[port], H, m), 1.0, False)]
        return [(ModeKey(elem.out_paths[1 - port], V, m), 1j, False)]
    if kind == "mirror":
        return [(ModeKey(elem.out_paths[0], pol, m), 1.0, False)]
    if kind == "dove":
        return [(key, cmath.exp(1j * m * elem.params["alpha"]), False)]
    if kind == "phase":
        return [(key, cmath.exp(1j * elem.params["phi"]), False)]
    if kind == "hwp":
        two = 2.0 * elem.params["theta"]
        c, s = math.cos(two), math.sin(two)
        fh, fv = (c, s) if pol == H else (s, -c)
        return [(ModeKey(path, H, m), fh, False), (ModeKey(path, V, m), fv, False)]
    if kind == "spp":
        m2, wrapped = _wrap_m(m + elem.params["q"], truncation)
        return [(ModeKey(path, pol, m2), 1.0, wrapped)]
    if kind == "oc_p":
        # Parity-controlled joint NOT, completed to a permutation at the OAM
        # level: even/H fixed; odd/H -> even/V; even/V -> odd/V; odd/V -> odd/H.
        even = m % 2 == 0
        if pol == H and even:
            return [(key, 1.0, False)]
        if pol == V and not even:
            return [(ModeKey(path, H, m), 1.0, False)]
    elif pol == H:  # pc_o, polarization-controlled parity NOT: V shifts m by +1
        return [(key, 1.0, False)]
    m2, wrapped = _wrap_m(m + 1, truncation)
    return [(ModeKey(path, V, m2), 1.0, wrapped)]


# Action tables, one per (element, K), of the most recently used elements:
# mode -> _key_action(elem, mode, K), filled the first time each mode is
# seen.  The memoized setups hold 19 distinct elements; one qubit-batch
# operation adds 2 recurring and 4 one-off projection elements.  Measured on
# 2 cores (Python 3.11): 3000 qubit-batch operations took 11.2-11.8 s with 16
# tables against 9.1-10.1 s with 32; 64 tables raised the oracle workload's
# peak RSS by 2.2 MB and 512 tables qubit-batch's by 3.3 MB.
ACTION_CACHE_SIZE = 32


@functools.lru_cache(maxsize=ACTION_CACHE_SIZE)
def _table(ident: tuple) -> dict:
    return {}


def _action_table(elem: Element, truncation: int) -> dict:
    # Parameters enter by their repr, so values that are == but differ in
    # their bits (0.0 and -0.0) never share a table.
    return _table((elem.kind, elem.in_paths, elem.out_paths,
                   tuple((name, repr(value)) for name, value in elem.params.items()),
                   truncation))


def _apply_pass(elem: Element, amps: dict, truncation: int, idx, wrap_guard) -> dict:
    """One pass of `elem` over amplitudes; `idx` is the photon of a joint key
    (0 or 1), or None for single-photon keys."""
    table = _action_table(elem, truncation)
    out: dict = {}
    wrapped_weight = 0.0
    for key, amp in amps.items():
        mode_key = key if idx is None else key[idx]
        action = table.get(mode_key)
        if action is None:
            action = table[mode_key] = _key_action(elem, mode_key, truncation)
        for new_key, factor, wrapped in action:
            contrib = amp * factor
            if wrapped:
                wrapped_weight += abs(contrib) ** 2
            if idx is not None:
                new_key = (new_key, key[1]) if idx == 0 else (key[0], new_key)
            out[new_key] = out.get(new_key, 0.0 + 0.0j) + contrib
    if wrap_guard is not None and wrapped_weight > wrap_guard:
        raise WrapGuardError(
            f"{elem.kind} moved weight {wrapped_weight:.3e} across the band edge")
    return out


def _evolve(elements, state, slot, wrap_guard):
    """Apply `elements` in order to the raw amplitudes of `state`.

    Between elements the amplitudes are cleaned exactly as the state
    constructor cleans them (zero and PRUNE_EPS drops, signed zeros cleared);
    the constructor at the end cleans after the last one.  So the result
    equals building a state after every element, bit for bit.  The band is
    checked once, on the output: every key a pass writes is in band, since
    only `spp` and the gates change m and `_wrap_m` wraps it.
    """
    if isinstance(state, PhotonState):
        idxs = (None,)
    elif isinstance(state, TwoPhotonState):
        if slot not in (1, 2, "both"):
            raise ValueError(f"slot must be 1, 2 or 'both', got {slot!r}")
        idxs = (0, 1) if slot == "both" else (slot - 1,)
    else:
        raise TypeError(f"cannot apply element to {type(state).__name__}")
    k = state.truncation
    amps = state.amplitudes
    for n, elem in enumerate(elements):
        if n:
            amps = _clean_amplitudes(amps.items())
        for idx in idxs:
            amps = _apply_pass(elem, amps, k, idx, wrap_guard)
    return type(state)(amps, k)


def apply_element(elem: Element, state, slot="both", wrap_guard=WRAP_GUARD):
    """Apply one element; only the addressed photon slot is transformed."""
    return _evolve((elem,), state, slot, wrap_guard)


@dataclass(frozen=True)
class Circuit:
    """Ordered element placements acting on named paths."""

    name: str
    elements: tuple[Element, ...]
    input_path: str
    detector_paths: tuple[str, ...]

    def __post_init__(self):
        known = set(self.paths())
        for d in self.detector_paths:
            if d not in known:
                raise ValueError(f"detector path {d!r} not produced by any element")

    def paths(self) -> tuple[str, ...]:
        seen: dict[str, None] = {self.input_path: None}
        for elem in self.elements:
            for p in elem.paths():
                seen.setdefault(p, None)
        return tuple(seen)


def apply_circuit(circuit: Circuit, state, slot="both", wrap_guard=WRAP_GUARD):
    return _evolve(circuit.elements, state, slot, wrap_guard)


def detect(state: PhotonState, path: str) -> float:
    """Probability of a click at `path`, summed over OAM and polarization.

    A path that carries no amplitude reads 0; a dark detector is a valid
    outcome, so only non-string path labels are rejected.
    """
    if not isinstance(path, str):
        raise TypeError(f"path label must be a string, got {path!r}")
    return float(sum(abs(a) ** 2 for k, a in state.amplitudes.items() if k.path == path))


def coincidence_detect(state: TwoPhotonState, path1: str, path2: str) -> float:
    """Joint probability of photon 1 at path1 and photon 2 at path2."""
    return float(sum(abs(amp) ** 2 for key, amp in state.amplitudes.items()
                     if key[0].path == path1 and key[1].path == path2))


def readout(circuit: Circuit, state: PhotonState,
            wrap_guard=WRAP_GUARD) -> dict[str, float]:
    """Send one photon through `circuit`; click probability per detector path."""
    out = apply_circuit(circuit, state, wrap_guard=wrap_guard)
    return {path: detect(out, path) for path in circuit.detector_paths}


def joint_readout(circuit1: Circuit, circuit2: Circuit, pair: TwoPhotonState,
                  wrap_guard=WRAP_GUARD) -> dict[tuple[str, str], float]:
    """Photon 1 through `circuit1`, photon 2 through `circuit2`; coincidence
    probability per pair of detector paths.

    One pass over the output sums each entry in the order coincidence_detect
    would, so every value equals coincidence_detect(out, path1, path2).
    """
    out = apply_circuit(circuit1, pair, slot=1, wrap_guard=wrap_guard)
    out = apply_circuit(circuit2, out, slot=2, wrap_guard=wrap_guard)
    probs = {(a, b): 0.0 for a in circuit1.detector_paths for b in circuit2.detector_paths}
    for (k1, k2), amp in out.amplitudes.items():
        key = (k1.path, k2.path)
        if key in probs:
            probs[key] += abs(amp) ** 2
    return probs


# ---------------------------------------------------------------------------
# Built-in interferometers


def _sorter_elements(inp: str, even_out: str, odd_out: str, tag: str) -> list[Element]:
    # Mach-Zehnder with a pi dove prism in the reflected arm: even OAM
    # leaves through even_out (with a residual factor i), odd through odd_out.
    arm_t = f"{tag}arm_t"
    arm_r = f"{tag}arm_r"
    return [
        beam_splitter(inp, f"{tag}vac", arm_t, arm_r),
        dove_prism(arm_r, math.pi),
        beam_splitter(arm_t, arm_r, odd_out, even_out),
    ]


@functools.cache
def build_sorter() -> Circuit:
    """Even/odd OAM sorter: 'in' -> detector paths 'even_port' / 'odd_port'."""
    return Circuit(
        name="sorter",
        elements=tuple(_sorter_elements("in", "even_port", "odd_port", "s_")),
        input_path="in",
        detector_paths=("even_port", "odd_port"),
    )


def _analyzer_front(tag: str = "a_") -> list[Element]:
    # Sorter followed by an order +1 spiral plate in the even arm, so both
    # arms interfere on the odd mode of each (2k, 2k+1) pair.
    elems = _sorter_elements("in", "even_arm", "odd_arm", tag)
    elems.append(spiral_phase_plate("even_arm", +1))
    return elems


@functools.cache
def build_s2_setup() -> Circuit:
    """Diagonal-basis analyzer; s2 = P(d2) - P(d1)."""
    elems = _analyzer_front()
    elems.append(beam_splitter("odd_arm", "even_arm", "d1", "d2"))
    return Circuit("s2_setup", tuple(elems), "in", ("d1", "d2"))


@functools.cache
def build_s3_setup() -> Circuit:
    """Circular-basis analyzer: extra quarter-cycle delay; s3 = P(d2) - P(d1)."""
    elems = _analyzer_front()
    elems.append(phase_delay("even_arm", math.pi / 2.0))
    elems.append(beam_splitter("odd_arm", "even_arm", "d1", "d2"))
    return Circuit("s3_setup", tuple(elems), "in", ("d1", "d2"))


def build_projection(theta: float, variant: str = "tunable_bs") -> Circuit:
    """General linear even/odd projection at angle theta.

    The 'p_theta' detector fires with probability
    sum_k |cos(theta) c_{2k} + sin(theta) c_{2k+1}|^2 and 'p_theta_perp'
    with the orthogonal combination.  Two equivalent realizations:

      * "tunable_bs": the 50:50 recombiner is replaced by a splitter with
        transmission cos(theta);
      * "polarization": the arms are tagged with orthogonal polarizations,
        merged on a polarizing splitter, rotated by a half-wave plate at
        theta/2 and split again (requires H-polarized input).
    """
    theta = float(theta) % math.pi
    if variant == "tunable_bs":
        elems = _analyzer_front()
        # A projector beyond pi/2 is the perpendicular port of the analyzer
        # at theta - pi/2, which keeps the splitter transmission in [0, 1].
        if math.cos(theta) >= 0.0:
            t, out_a, out_b = math.cos(theta), "p_theta_perp", "p_theta"
        else:
            t, out_a, out_b = math.cos(theta - math.pi / 2.0), "p_theta", "p_theta_perp"
        elems.append(beam_splitter("odd_arm", "even_arm", out_a, out_b, t=t))
        return Circuit("projection_tunable", tuple(elems), "in",
                       ("p_theta", "p_theta_perp"))
    if variant == "polarization":
        elems = _analyzer_front()
        elems.append(half_wave_plate("even_arm", math.pi / 4.0))
        elems.append(polarizing_bs("odd_arm", "even_arm", "merged", "discard"))
        elems.append(half_wave_plate("merged", theta / 2.0))
        elems.append(polarizing_bs("merged", "aux", "p_theta_perp", "p_theta"))
        return Circuit("projection_polarization", tuple(elems), "in",
                       ("p_theta", "p_theta_perp"))
    raise ValueError(f"unknown projection variant {variant!r}")


# ---------------------------------------------------------------------------
# Dense oracle


def _element_rows(elem: Element, basis: ModeBasis) -> tuple[tuple, tuple]:
    """The rows of the element's unitary that differ from the identity, in
    two groups of index and factor arrays: one-source rows (tgt, src, f),
    row tgt[r] = f[r] at column src[r], and two-source rows
    (tgt, s1, f1, s2, f2), row tgt[r] = f1[r] at s1[r] plus f2[r] at s2[r].

    Rows are built a whole (path, pol) band at a time.  Keys sort by
    (path, pol, m), so mode m of a band sits at its start + m + K, and an m
    shift that wraps at the band edge is a cyclic shift of those offsets.
    """
    kind = elem.kind
    if kind not in _KINDS:
        raise ValueError(f"unknown element kind {kind!r}")
    k = basis.truncation
    span = 2 * k + 1
    cycle = np.arange(2 * span) % span

    def band(path, pol, shift=0):  # indices of (path, pol, m + shift), m = -K..K
        s = shift % span
        return basis.index(ModeKey(path, pol, -k)) + cycle[s:s + span]

    one, two = [], []
    ins, outs = elem.in_paths, elem.out_paths
    for inp, out in zip(ins, outs):
        if out not in ins:  # a mode on an output path is mapped back onto its input
            one += [(band(inp, pol), band(out, pol), 1.0) for pol in (H, V)]
    if kind == "bs":
        t = elem.params["t"]
        ir = 1j * math.sqrt(max(0.0, 1.0 - t * t))
        (a, b), (c, d) = ins, outs
        for pol in (H, V):
            two += [(band(c, pol), band(a, pol), t, band(b, pol), ir),
                    (band(d, pol), band(a, pol), ir, band(b, pol), t)]
    elif kind == "pbs":
        (a, b), (c, d) = ins, outs
        one += [(band(c, H), band(a, H), 1.0), (band(d, V), band(a, V), 1j),
                (band(d, H), band(b, H), 1.0), (band(c, V), band(b, V), 1j)]
    elif kind == "mirror":
        one += [(band(outs[0], pol), band(ins[0], pol), 1.0) for pol in (H, V)]
    else:  # the kinds that act on each input path in place
        for p in ins:
            h, v = band(p, H), band(p, V)
            if kind == "dove":
                alpha = elem.params["alpha"]
                f = [cmath.exp(1j * m * alpha) for m in range(-k, k + 1)]
                one += [(h, h, f), (v, v, f)]
            elif kind == "phase":
                f = cmath.exp(1j * elem.params["phi"])
                one += [(h, h, f), (v, v, f)]
            elif kind == "hwp":
                angle = 2.0 * elem.params["theta"]
                c, s = math.cos(angle), math.sin(angle)
                two += [(h, h, c, v, s), (v, h, s, v, -c)]
            elif kind == "spp":
                q = elem.params["q"]
                one += [(band(p, H, q), h, 1.0), (band(p, V, q), v, 1.0)]
            elif kind == "oc_p":  # odd/V -> odd/H; odd/H and even/V -> V at m + 1
                odd = np.arange(-k, k + 1) % 2 == 1
                one += [(h, np.where(odd, v, h), 1.0),
                        (band(p, V, 1), np.where(odd, h, v), 1.0)]
            else:  # pc_o: V at m -> V at m + 1
                one.append((band(p, V, 1), v, 1.0))
    tgt, src, f = _stack(one, 3, span)
    moved = (tgt != src) | (f != 1.0)  # identity rows leave x as it is
    return (tgt[moved], src[moved], f[moved]), _stack(two, 5, span)


def _stack(rows, width: int, span: int) -> tuple[np.ndarray, ...]:
    """The `width` columns of a group of band rows as flat arrays; a
    factor (column 2 or 4) is a scalar or one value per mode of the band."""
    cols = [np.empty((len(rows), span), dtype=complex if j in (2, 4) else np.intp)
            for j in range(width)]
    for i, row in enumerate(rows):
        for col, value in zip(cols, row):
            col[i] = value
    return tuple(col.ravel() for col in cols)


def _step(x: np.ndarray, rows) -> None:
    """One element applied in place to a vector, or to the rows of a matrix:
    x[tgt] = f * x[src] on the one-source rows and
    x[tgt] = f1 * x[s1] + f2 * x[s2] on the two-source rows.  Every right-hand
    side is read before any row is written."""
    (t1, s1, f1), (t2, a, fa, b, fb) = rows
    if x.ndim == 2:
        f1, fa, fb = f1[:, None], fa[:, None], fb[:, None]
    one = f1 * x[s1]
    two = fa * x[a] + fb * x[b]
    x[t1] = one
    x[t2] = two


def element_matrix(elem: Element, basis: ModeBasis) -> np.ndarray:
    """Materialize one element as a dense unitary on the basis: the identity
    with the element's rows written in."""
    u = np.eye(basis.size, dtype=complex)
    _step(u, _element_rows(elem, basis))
    return u


def circuit_unitary(circuit: Circuit, truncation: int) -> tuple[np.ndarray, ModeBasis]:
    """Dense unitary of a whole circuit: each element steps its own rows of
    the identity, about n multiplies per one-source row and 2 * n
    multiply-adds per two-source row; rows it leaves unchanged cost nothing."""
    basis = ModeBasis(circuit.paths(), truncation)
    u = np.eye(basis.size, dtype=complex)
    for elem in circuit.elements:
        _step(u, _element_rows(elem, basis))
    return u, basis


def dense_apply(circuit: Circuit, state, slot="both"):
    """Apply a circuit to the state's dense vector or pair matrix, element by
    element; no unitary is formed.

    Independent verification path for the sparse evolution.  A pair matrix
    holds photon 1 on its rows and photon 2 on its columns, so slot 1 steps
    the rows of the matrix and slot 2 the rows of a contiguous copy of its
    transpose, each through the whole circuit.  The per-photon dense
    dimension is capped at DENSE_DIM_LIMIT.
    """
    if not isinstance(state, (PhotonState, TwoPhotonState)):
        raise TypeError(f"cannot apply circuit to {type(state).__name__}")
    pair = isinstance(state, TwoPhotonState)
    if pair and slot not in (1, 2, "both"):
        raise ValueError(f"slot must be 1, 2 or 'both', got {slot!r}")
    basis = ModeBasis(circuit.paths() + state.paths(), state.truncation)
    steps = [_element_rows(elem, basis) for elem in circuit.elements]
    x = basis.to_matrix(state) if pair else basis.to_vector(state)
    if not pair or slot != 2:
        for rows in steps:
            _step(x, rows)
    if pair and slot != 1:
        x = np.ascontiguousarray(x.T)
        for rows in steps:
            _step(x, rows)
        x = x.T
    return basis.from_matrix(x) if pair else basis.from_vector(x)


# ---------------------------------------------------------------------------
# Circuit descriptions


def circuit_to_dict(circuit: Circuit) -> dict:
    """JSON-ready description of a circuit; output only, nothing reads it back."""
    return {
        "name": circuit.name,
        "input": circuit.input_path,
        "detectors": list(circuit.detector_paths),
        "elements": [
            {"kind": e.kind, "in": list(e.in_paths), "out": list(e.out_paths),
             "params": dict(e.params)}
            for e in circuit.elements
        ],
    }
