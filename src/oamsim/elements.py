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
    each of their paths, with the same cyclic m shift and guard;
    `oc_p_gate` and `pc_o_gate` place one on every path of a photon.

Elements and circuits are immutable; application is a pure function.  What
an element does to each basis mode is computed once per (element, K) and
kept in a bounded LRU (see ACTION_CACHE_SIZE); the built-in setups, and the
projection elements that do not depend on theta, are built once per
process.  A pass of any kind but the mixers bs and hwp writes each key once
and cleans in the same loop; a mixer sums, then is cleaned.  Every
application runs through one loop, `_evaluate`: `apply_element` and
`apply_circuit` as one run of passes, `readouts` and `joint_readouts` as a
list of runs, each pass prefix that consecutive runs share applied once.
Every entry point guards at WRAP_GUARD; only `apply_circuit` can switch it off.

The dense oracle reads neither `_key_action` nor that cache: `_band_rules`
states each element's action a second time, as rules on whole (path, pol)
bands of the dense basis, and the tests pin the two statements equal.  No
element mixes more than two modes into one, so each element is a row step:
x[tgt] = f * x[src] on its one-source rows and x[tgt] = f1 * x[s1] +
f2 * x[s2] on its two-source rows; rows it leaves as they are are skipped.
`_circuit_rows` expands the rules of a whole circuit into those rows at
once, and keeps them, as read-only arrays, in a bounded LRU of
ROWS_CACHE_SIZE circuits keyed by each element's `_ident` (kind, ports and
parameters by repr, the key of the action cache too), the basis paths and
K; the oracle's bases come from a bounded LRU of BASIS_CACHE_SIZE path sets
(`hilbert._shared_basis`).  Both `dense_apply` and `circuit_unitary` expand
a circuit on its own basis, over `circuit.paths()`, and `dense_apply` lifts
those rows by band arithmetic when the state adds paths, so a circuit is
expanded once whatever the state's paths.  Neither cache changes an output
bit.  `dense_apply` steps the state vector, or a pair's amplitude matrix
only where it has support: photon 1 on the rows of a block whose columns
are the photon-2 modes holding amplitude, then photon 2 on the rows of a
block whose columns are the photon-1 modes left with amplitude.  It forms
no unitary and no n x n pair matrix, and its output state skips the state
constructor (see `hilbert.ModeBasis`).  `circuit_unitary` builds the unitary on its support, as a
generalized permutation G times a sparse W: a one-source row costs O(1),
re-pointing a row of G; the two-source rows come only from the 2 x 2 mixers
of bs and hwp and cost O(entries of W they read); the one n x n array is
the output, written by one scatter.
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
    PRUNE_EPS,
    PhotonState,
    TwoPhotonState,
    _band,
    _clean_amplitudes,
    _shared_basis,
    _whole,
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
    "oc_p_gate",
    "pc_o_gate",
    "apply_circuit",
    "detect",
    "coincidence_detect",
    "readout",
    "joint_readout",
    "readouts",
    "joint_readouts",
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


# kind -> (paths per side, 0 if it acts in place on any number; parameter names)
_KINDS = {"bs": (2, ("t",)), "pbs": (2, ()), "mirror": (1, ()),
          "dove": (0, ("alpha",)), "spp": (0, ("q",)), "hwp": (0, ("theta",)),
          "phase": (0, ("phi",)), "oc_p": (0, ()), "pc_o": (0, ())}


@dataclass(frozen=True, eq=True)
class Element:
    """One element on named paths; kind, ports and parameters are checked
    when built.  The read-only `params` lets one element serve every caller
    of a memoized setup; the hash leaves it out, so equal elements hash equal."""

    kind: str
    in_paths: tuple[str, ...]
    out_paths: tuple[str, ...]
    params: Mapping = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "in_paths", _port_paths(self.in_paths))
        object.__setattr__(self, "out_paths", _port_paths(self.out_paths))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        _check_ports(self.kind, self.in_paths, self.out_paths)
        params, names = dict(self.params), _KINDS[self.kind][1]
        if params.keys() != set(names):
            raise ValueError(f"{self.kind} takes the parameters {names}, got {tuple(params)}")
        object.__setattr__(self, "params", MappingProxyType(
            {name: _param(name, value) for name, value in params.items()}))

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return type(self), (self.kind, self.in_paths, self.out_paths, dict(self.params))

    def paths(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.in_paths + self.out_paths))

    @functools.cached_property
    def _ident(self) -> tuple:
        """Key of the element's action in the action and rows caches: kind,
        ports and each parameter by its repr, so values that are == but
        differ in their bits (0.0 and -0.0) never share an entry."""
        return (self.kind, self.in_paths, self.out_paths,
                tuple((name, repr(value)) for name, value in self.params.items()))


def _port_paths(paths) -> tuple[str, ...]:
    """Port paths as a tuple of labels.  A bare string is rejected, since
    its letters would read as one-letter paths, and so is a non-string
    label."""
    if isinstance(paths, str):
        raise ValueError(f"ports must be a sequence of path labels, got the string {paths!r}")
    paths = tuple(paths)
    if not all(isinstance(p, str) for p in paths):
        raise ValueError(f"path labels must be strings, got {paths!r}")
    return paths


def _check_ports(kind: str, in_paths, out_paths) -> None:
    """Reject a port layout that no element of the known `kind` can have.

    bs and pbs take two input and two output paths and mirror one of each,
    all distinct; the other kinds act in place, so their output paths are
    their input paths, pairwise distinct.
    """
    arity = _KINDS[kind][0]
    if arity:
        if len(in_paths) != arity or len(out_paths) != arity:
            raise ValueError(f"{kind} takes {arity} input and {arity} output paths")
        if set(in_paths) & set(out_paths):
            raise ValueError("mirror must relabel the path" if kind == "mirror"
                             else "input and output paths must be distinct")
    elif out_paths != in_paths:
        raise ValueError(f"{kind} acts in place: its output paths must be its input paths")
    if len(set(in_paths)) != len(in_paths) or len(set(out_paths)) != len(out_paths):
        raise ValueError("port paths must be pairwise distinct")


def _param(name: str, value):
    """A parameter as stored: q an int, t a float in [0, 1], an angle a finite
    float, and theta one whose double is finite (hwp reads cos(2 theta))."""
    if name == "q":
        return _whole(value, "spiral phase plate order")
    value = float(value)
    if name == "t" and not 0.0 <= value <= 1.0:
        raise ValueError(f"transmission amplitude must lie in [0, 1], got {value}")
    if not math.isfinite(2.0 * value if name == "theta" else value):
        raise ValueError(f"angle {name} out of range, got {value}")
    return value


def beam_splitter(in_a: str, in_b: str, out_a: str, out_b: str,
                  t: float = 1.0 / math.sqrt(2.0)) -> Element:
    """Two-port splitter; out_a takes t from in_a and i*r from in_b."""
    return Element("bs", (in_a, in_b), (out_a, out_b), {"t": t})


def polarizing_bs(in_a: str, in_b: str, out_a: str, out_b: str) -> Element:
    return Element("pbs", (in_a, in_b), (out_a, out_b))


def dove_prism(path: str, alpha: float) -> Element:
    return Element("dove", (path,), (path,), {"alpha": alpha})


def spiral_phase_plate(path: str, q: int) -> Element:
    return Element("spp", (path,), (path,), {"q": q})


def half_wave_plate(path: str, theta: float) -> Element:
    return Element("hwp", (path,), (path,), {"theta": theta})


def phase_delay(path: str, phi: float) -> Element:
    return Element("phase", (path,), (path,), {"phi": phi})


def mirror(in_path: str, out_path: str) -> Element:
    return Element("mirror", (in_path,), (out_path,))


def _wrap_m(m: int, truncation: int) -> tuple[int, bool]:
    span = 2 * truncation + 1
    wrapped = ((m + truncation) % span) - truncation
    return wrapped, wrapped != m


def _key_action(elem: Element, key: ModeKey, truncation: int):
    """Targets of one basis mode: list of (new_key, factor, crossed_band_edge).

    Elements with distinct in/out ports also map their (normally empty)
    output paths back onto the input paths, so every element is a genuine
    unitary on the whole basis, not just an isometry on fed ports.
    """
    kind = elem.kind
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
# seen.  The memoized setups, with the polarization projection's three fixed
# elements, hold 19 distinct elements; one qubit-batch operation adds 2
# recurring and 4 one-off projection elements.  Measured on 2 cores (Python
# 3.11): 3000 qubit-batch operations took 3.0-3.1 s with 16 tables against
# 2.7-2.8 s with 32 (11.2-11.8 s against 9.1-10.1 s before each pass was
# evaluated once and the dense-coding channel kept); 64 tables raised the
# oracle workload's peak RSS by 2.2 MB and 512 tables qubit-batch's by 3.3 MB.
ACTION_CACHE_SIZE = 32


@functools.lru_cache(maxsize=ACTION_CACHE_SIZE)
def _table(ident: tuple) -> dict:
    return {}


def _action_table(elem: Element, truncation: int) -> dict:
    return _table((elem._ident, truncation))


def _apply_pass(elem: Element, amps: dict, truncation: int, idx, wrap_guard,
                clean: bool) -> dict:
    """One pass of `elem` over amplitudes; `idx` is the photon of a joint key
    (0 or 1), or None for single-photon keys.

    With `clean` (the element's last pass) the output is cleaned as the
    state constructor cleans it: zero and below-PRUNE_EPS amplitudes
    dropped, signed zeros cleared by 0j + z.  A mixer (bs, hwp) sums what
    lands on each key, then `_clean_amplitudes` walks the sums; any other
    kind is a phased permutation that writes each key once, so it writes
    0j + z and skips |z| < PRUNE_EPS in the same loop, after taking the
    wrapped weight.
    """
    table = _action_table(elem, truncation)
    once = clean and elem.kind not in ("bs", "hwp")
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
            if not once:
                out[new_key] = out.get(new_key, 0.0 + 0.0j) + contrib
            elif not abs(contrib) < PRUNE_EPS:  # a NaN is kept, not hidden
                out[new_key] = 0j + contrib
    if wrap_guard is not None and wrapped_weight > wrap_guard:
        raise WrapGuardError(
            f"{elem.kind} moved weight {wrapped_weight:.3e} across the band edge")
    return _clean_amplitudes(out.items()) if clean and not once else out


def _shared_depth(run: list, other: list) -> int:
    """Number of leading passes two runs share: same element `_ident`, same
    photon index, same clean flag."""
    depth = 0
    for (elem, idx, clean), (elem2, idx2, clean2) in zip(run, other):
        if idx != idx2 or clean != clean2 or elem._ident != elem2._ident:
            break
        depth += 1
    return depth


def _evaluate(runs: list, state, wrap_guard):
    """Yield the amplitudes each run of passes leaves on `state`, run by run
    in the order given; a pass is (element, photon index, clean), the
    arguments `_apply_pass` takes.  This is the one loop that applies
    elements.

    Each run starts from the longest prefix it shares with the run before
    it.  Callers list the runs that share a prefix together, so this walks
    the runs' prefix tree depth first and applies each common prefix once.
    A state is kept only at a depth where a later run branches off.  Every
    pass runs on the same input, in the same order, as when each run is
    applied on its own, so every result, and the first error raised, is the
    same bit for bit.
    """
    k = state.truncation
    starts = [0, *map(_shared_depth, runs, runs[1:])]
    kept = {0: state.amplitudes}
    for i, run in enumerate(runs):
        start, later = starts[i], starts[i + 1:]
        amps = kept[start]
        kept = {depth: kept[depth] for depth in later if depth <= start}
        for depth, (elem, idx, clean) in enumerate(run[start:], start + 1):
            amps = _apply_pass(elem, amps, k, idx, wrap_guard, clean)
            if depth in later:
                kept[depth] = amps
        yield amps


def _evolve(elements, state, slot, wrap_guard):
    """Apply `elements` in order to the raw amplitudes of `state`, as one run
    of `_evaluate`.

    Each element's last pass leaves the amplitudes cleaned exactly as the
    state constructor cleans them (see `_apply_pass`), so the result equals
    building a state after every element, bit for bit.  It skips the
    constructor's band check: every key a pass writes is in band, since
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
    run = [(elem, idx, idx == idxs[-1]) for elem in elements for idx in idxs]
    amps = next(_evaluate([run], state, wrap_guard))
    return type(state)._from_clean(amps if run else dict(amps), state.truncation)


def apply_element(elem: Element, state, slot="both"):
    """Apply one element; only the addressed photon slot is transformed."""
    return _evolve((elem,), state, slot, WRAP_GUARD)


def _gate(kind: str, state, slot: int):
    """Gate element on every path the addressed photon occupies."""
    if isinstance(state, TwoPhotonState):
        paths = state.slot_paths(slot)
    elif isinstance(state, PhotonState):
        paths = state.paths()
    else:
        raise TypeError(f"cannot apply gate to {type(state).__name__}")
    return apply_element(Element(kind, paths, paths), state, slot=slot)


def oc_p_gate(state, slot: int = 1):
    """OAM-parity controlled polarization NOT (flips parity alongside)."""
    return _gate("oc_p", state, slot)


def pc_o_gate(state, slot: int = 1):
    """Polarization-controlled parity NOT: V triggers an order +1 spiral shift."""
    return _gate("pc_o", state, slot)


@dataclass(frozen=True)
class Circuit:
    """Ordered element placements acting on named paths."""

    name: str
    elements: tuple[Element, ...]
    input_path: str
    detector_paths: tuple[str, ...]

    def __post_init__(self):
        seen: dict[str, None] = {self.input_path: None}
        for elem in self.elements:
            for p in elem.paths():
                seen.setdefault(p, None)
        object.__setattr__(self, "_paths", tuple(seen))
        for d in self.detector_paths:
            if d not in seen:
                raise ValueError(f"detector path {d!r} not produced by any element")
        if len(set(self.detector_paths)) != len(self.detector_paths):
            raise ValueError(f"detector paths must be distinct, got {self.detector_paths!r}")

    def paths(self) -> tuple[str, ...]:
        """The input path, then every element path in first-use order."""
        return self._paths


def apply_circuit(circuit: Circuit, state, slot="both", wrap_guard=WRAP_GUARD):
    return _evolve(circuit.elements, state, slot, wrap_guard)


def _path_probs(amps: dict, paths) -> dict[str, float]:
    """Click probability per path in `paths`, in one left-to-right pass."""
    probs = dict.fromkeys(paths, 0.0)
    for key, amp in amps.items():
        if key.path in probs:
            probs[key.path] += abs(amp) ** 2
    return probs


def _pair_probs(amps: dict, paths1, paths2) -> dict[tuple[str, str], float]:
    """Coincidence probability per (path1, path2), in one left-to-right pass."""
    probs = {(a, b): 0.0 for a in paths1 for b in paths2}
    for (k1, k2), amp in amps.items():
        key = (k1.path, k2.path)
        if key in probs:
            probs[key] += abs(amp) ** 2
    return probs


def detect(state: PhotonState, path: str) -> float:
    """Probability of a click at `path`, summed over OAM and polarization.

    A path that carries no amplitude reads 0; a dark detector is a valid
    outcome, so only non-string path labels are rejected.
    """
    if not isinstance(path, str):
        raise TypeError(f"path label must be a string, got {path!r}")
    return _path_probs(state.amplitudes, (path,))[path]


def coincidence_detect(state: TwoPhotonState, path1: str, path2: str) -> float:
    """Joint probability of photon 1 at path1 and photon 2 at path2; as in
    detect, only non-string path labels are rejected."""
    if not (isinstance(path1, str) and isinstance(path2, str)):
        raise TypeError(f"path labels must be strings, got {path1!r} and {path2!r}")
    return _pair_probs(state.amplitudes, (path1,), (path2,))[path1, path2]


def readouts(circuits, state: PhotonState):
    """Send one photon through each of `circuits`; an iterator that computes,
    circuit by circuit, the click probability per detector path, each equal
    to detect(out, path).  Shared prefixes run once (see `_evaluate`)."""
    if not isinstance(state, PhotonState):
        raise TypeError(f"cannot send {type(state).__name__} through a one-photon readout")
    circuits = list(circuits)
    runs = [[(elem, None, True) for elem in c.elements] for c in circuits]
    return map(_path_probs, _evaluate(runs, state, WRAP_GUARD),
               [c.detector_paths for c in circuits])


def joint_readouts(pairs, state: TwoPhotonState):
    """Send photon 1 through circuit1 and photon 2 through circuit2 of each
    pair; an iterator that computes, pair by pair, the coincidence
    probability per pair of detector paths, each equal to
    coincidence_detect(out, path1, path2).  Shared prefixes run once."""
    if not isinstance(state, TwoPhotonState):
        raise TypeError(f"cannot send {type(state).__name__} through a joint readout")
    pairs = list(pairs)
    runs = [[(elem, 0, True) for elem in c1.elements] + [(elem, 1, True) for elem in c2.elements]
            for c1, c2 in pairs]
    return map(_pair_probs, _evaluate(runs, state, WRAP_GUARD),
               [c1.detector_paths for c1, _ in pairs], [c2.detector_paths for _, c2 in pairs])


def readout(circuit: Circuit, state: PhotonState) -> dict[str, float]:
    """`readouts` of the one circuit."""
    return next(readouts((circuit,), state))


def joint_readout(circuit1: Circuit, circuit2: Circuit,
                  pair: TwoPhotonState) -> dict[tuple[str, str], float]:
    """`joint_readouts` of the one circuit pair."""
    return next(joint_readouts(((circuit1, circuit2),), pair))


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


@functools.cache
def _analyzer_front() -> tuple[Element, ...]:
    # The sorter's own elements, then an order +1 spiral plate in the even
    # arm, so both arms interfere on the odd mode of each (2k, 2k+1) pair.
    return (*build_sorter().elements, spiral_phase_plate("even_port", +1))


@functools.cache
def build_s2_setup() -> Circuit:
    """Diagonal-basis analyzer; s2 = P(d2) - P(d1)."""
    elems = (*_analyzer_front(), beam_splitter("odd_port", "even_port", "d1", "d2"))
    return Circuit("s2_setup", elems, "in", ("d1", "d2"))


@functools.cache
def build_s3_setup() -> Circuit:
    """Circular-basis analyzer: extra quarter-cycle delay; s3 = P(d2) - P(d1)."""
    elems = (*_analyzer_front(), phase_delay("even_port", math.pi / 2.0),
             beam_splitter("odd_port", "even_port", "d1", "d2"))
    return Circuit("s3_setup", elems, "in", ("d1", "d2"))


@functools.cache
def _polarization_fixed() -> tuple[Element, Element, Element]:
    # The polarization projection's elements that do not depend on theta:
    # the arm-tagging plate, the merging splitter and the final splitter.
    return (half_wave_plate("even_port", math.pi / 4.0),
            polarizing_bs("odd_port", "even_port", "merged", "discard"),
            polarizing_bs("merged", "aux", "p_theta_perp", "p_theta"))


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

    Both start with the sorter's own elements.  Only the theta element is
    built per call; the others are built once and shared by every
    projection and by the two analyzers.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"projection angle theta must be finite, got {theta}")
    theta %= math.pi
    if variant == "tunable_bs":
        # A projector beyond pi/2 is the perpendicular port of the analyzer
        # at theta - pi/2, which keeps the splitter transmission in [0, 1].
        if math.cos(theta) >= 0.0:
            t, out_a, out_b = math.cos(theta), "p_theta_perp", "p_theta"
        else:
            t, out_a, out_b = math.cos(theta - math.pi / 2.0), "p_theta", "p_theta_perp"
        elems = (*_analyzer_front(), beam_splitter("odd_port", "even_port", out_a, out_b, t=t))
        return Circuit("projection_tunable", elems, "in", ("p_theta", "p_theta_perp"))
    if variant == "polarization":
        tag, merge, split = _polarization_fixed()
        elems = (*_analyzer_front(), tag, merge, half_wave_plate("merged", theta / 2.0), split)
        return Circuit("projection_polarization", elems, "in", ("p_theta", "p_theta_perp"))
    raise ValueError(f"unknown projection variant {variant!r}")


# ---------------------------------------------------------------------------
# Dense oracle


def _band_rules(elem: Element, basis: ModeBasis) -> tuple[list, list]:
    """The element's action as rules on whole (path, pol) bands.

    Keys sort by (path, pol, m), so band b = 2 * (position of the path in
    `basis.paths`) + [pol == V] holds mode m at b * (2K + 1) + m + K.  A
    one-source rule (tb, shift, sb_even, sb_odd, f) writes row
    (tb, m + shift) as f times (sb, m) for m = -K..K, where sb is sb_even
    at even m and sb_odd at odd m, and the shift wraps cyclically at the
    band edge; f is a scalar or a list of one value per m.  A two-source
    rule (tb, sb1, sb2, f1, f2) writes row (tb, m) as f1 times (sb1, m) plus
    f2 times (sb2, m).
    """
    kind = elem.kind
    k = basis.truncation
    span = 2 * k + 1
    position = basis.paths.index

    def band(path, pol):
        return 2 * position(path) + (pol == V)

    one, two = [], []
    ins, outs = elem.in_paths, elem.out_paths
    for inp, out in zip(ins, outs):
        if out not in ins:  # a mode on an output path is mapped back onto its input
            one += [(band(inp, pol), 0, band(out, pol), band(out, pol), 1.0)
                    for pol in (H, V)]
    if kind == "bs":
        t = elem.params["t"]
        ir = 1j * math.sqrt(max(0.0, 1.0 - t * t))
        (a, b), (c, d) = ins, outs
        for pol in (H, V):
            two += [(band(c, pol), band(a, pol), band(b, pol), t, ir),
                    (band(d, pol), band(a, pol), band(b, pol), ir, t)]
    elif kind == "pbs":
        (a, b), (c, d) = ins, outs
        for tgt, src, pol, f in ((c, a, H, 1.0), (d, a, V, 1j), (d, b, H, 1.0), (c, b, V, 1j)):
            one.append((band(tgt, pol), 0, band(src, pol), band(src, pol), f))
    elif kind == "mirror":
        one += [(band(outs[0], pol), 0, band(ins[0], pol), band(ins[0], pol), 1.0)
                for pol in (H, V)]
    else:  # the kinds that act on each input path in place
        if kind == "dove":
            alpha = elem.params["alpha"]
            f = [cmath.exp(1j * m * alpha) for m in range(-k, k + 1)]
        elif kind == "phase":
            f = cmath.exp(1j * elem.params["phi"])
        elif kind == "hwp":
            angle = 2.0 * elem.params["theta"]
            c, s = math.cos(angle), math.sin(angle)
        for p in ins:
            h, v = band(p, H), band(p, V)
            if kind in ("dove", "phase"):
                one += [(h, 0, h, h, f), (v, 0, v, v, f)]
            elif kind == "hwp":
                two += [(h, h, v, c, s), (v, h, v, s, -c)]
            elif kind == "spp":
                q = elem.params["q"] % span
                one += [(h, q, h, h, 1.0), (v, q, v, v, 1.0)]
            elif kind == "oc_p":  # odd/V -> odd/H; odd/H and even/V -> V at m + 1
                one += [(h, 0, h, v, 1.0), (v, 1, v, h, 1.0)]
            else:  # pc_o: V at m -> V at m + 1
                one.append((v, 1, v, v, 1.0))
    return one, two


# Row sets, one per (element idents, basis paths, K), of the most recently
# used circuits.  One oracle benchmark operation looks up 7.25 on average:
# three random circuits, each by dense_apply and then by circuit_unitary,
# and the analyzer at K = 4 (and at K = 8 one time in four).  Measured on 2
# cores (Python 3.11) over 400 such operations, 2900 lookups: 4 row sets
# answered 1499, 8 answered 1599 and 16 answered 1698, every lookup but the
# first of each circuit and band, so 32 answer no more; each row set holds
# about 25 kB.
ROWS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=ROWS_CACHE_SIZE)
def _rows_entry(key: tuple) -> list:
    return []


def _circuit_rows(elems, basis: ModeBasis) -> tuple[tuple[tuple, tuple], ...]:
    """Each element's rows that differ from the identity, in two groups of
    index and factor arrays: one-source rows (tgt, src, f), row tgt[r] =
    f[r] at column src[r], and two-source rows (tgt, s1, f1, s2, f2), row
    tgt[r] = f1[r] at s1[r] plus f2[r] at s2[r].

    The band rules of all the elements expand together, one broadcast over
    (rule, m) per group; each element's rows are then a slice of the flat
    arrays, which are read-only: the rows are kept in a bounded LRU keyed by
    the elements' idents, the basis paths and K.  `dense_apply` and
    `circuit_unitary` both ask for the rows on the circuit's own basis, so
    they expand a circuit once; `_lift` places them in a larger basis.
    """
    entry = _rows_entry((tuple(elem._ident for elem in elems), basis.paths,
                         basis.truncation))
    if entry:
        return entry[0]
    k = basis.truncation
    span = 2 * k + 1
    off = np.arange(span)
    one, two, ends1, ends2 = [], [], [0], [0]
    for elem in elems:
        rules1, rules2 = _band_rules(elem, basis)
        one += rules1
        two += rules2
        ends1.append(len(one))
        ends2.append(span * len(two))

    bands = np.array([rule[:4] for rule in one], np.intp).reshape(-1, 4).T[..., None]
    tb, shift, even_src, odd_src = bands
    tgt = span * tb + (off + shift) % span
    src = span * np.where((off - k) % 2 == 1, odd_src, even_src) + off
    per_m = [i for i, rule in enumerate(one) if type(rule[4]) is list]
    f = np.array([0.0 if type(rule[4]) is list else rule[4] for rule in one], complex)
    f = f[:, None].repeat(span, axis=1)
    if per_m:
        f[per_m] = [one[i][4] for i in per_m]
    moved = (tgt != src) | (f != 1.0)  # identity rows leave x as it is
    ends1 = np.concatenate(([0], np.cumsum(moved.sum(axis=1))))[ends1].tolist()
    t1, s1, f1 = tgt[moved], src[moved], f[moved]

    bands = np.array([rule[:3] for rule in two], np.intp).reshape(-1, 3, 1)
    t2, a, b = (span * bands + off).transpose(1, 0, 2).reshape(3, -1)
    fa, fb = np.array([rule[3:] for rule in two], complex).reshape(-1, 2).T.repeat(span, 1)
    for flat in (t1, s1, f1, t2, a, fa, b, fb):
        flat.flags.writeable = False

    rows = tuple(((t1[i:j], s1[i:j], f1[i:j]), (t2[p:q], a[p:q], fa[p:q], b[p:q], fb[p:q]))
                 for i, j, p, q in zip(ends1, ends1[1:], ends2, ends2[1:]))
    entry.append(rows)
    return rows


def _lift(steps, own: ModeBasis, basis: ModeBasis):
    """Rows from `_circuit_rows` on `own` as the same rows of `basis`, a
    basis at the same K over more paths: index i of `own`, on band b = i //
    (2K + 1), maps to (2K + 1) * band(b) + i % (2K + 1), band(b) being that
    (path, pol) band's number in `basis`.  Factors and row order stay, so
    the result equals the rows expanded on `basis` itself, array for array.
    """
    span = 2 * own.truncation + 1
    position = basis.paths.index
    bands = np.array([2 * position(path) + v for path in own.paths for v in (0, 1)])
    lift = (span * bands[:, None] + np.arange(span)).ravel()
    return tuple(((lift[t1], lift[s1], f1), (lift[t2], lift[a], fa, lift[b], fb))
                 for (t1, s1, f1), (t2, a, fa, b, fb) in steps)


def _element_rows(elem: Element, basis: ModeBasis) -> tuple[tuple, tuple]:
    """The rows of one element (see `_circuit_rows`)."""
    return _circuit_rows((elem,), basis)[0]


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
    """Dense unitary of a whole circuit, built on its support as U = G W.

    G is a generalized permutation, row i of U being g[i] times row p[i] of
    W, and W a sparse matrix whose entries (row, col, value) are kept as a
    key row * n + col and a value; it starts as the identity.  A one-source
    row only re-points G: p[t] = p[s] and g[t] = f * g[s].  Two-source rows
    come only from local 2 x 2 mixers (bs on a path pair, hwp on H and V):
    their sources are among the element's targets, no one-source row reads
    them and they are as many as the targets, so the W rows they point to
    are free once the element is applied and take the mixtures, entries on
    one column summed; an element that breaks this raises ValueError.  The
    cost is O(1) per one-source row and O(entries read) per two-source row;
    the one n x n array is the output, written by one scatter.
    """
    basis = _shared_basis(circuit.paths(), _band(truncation))
    n = basis.size
    p, g = np.arange(n), np.ones(n, complex)
    wk, wv = np.arange(n) * (n + 1), np.ones(n, complex)
    for elem, ((t1, s1, f1), (t2, a, fa, b, fb)) in zip(
            circuit.elements, _circuit_rows(circuit.elements, basis)):
        moved = p[s1], f1 * g[s1]
        if t2.size:
            role = np.zeros(n, np.int8)  # 4: mixer source, 1: target, 2: one-source source
            role[np.concatenate((a, b))] = 4
            role[np.concatenate((t1, t2))] |= 1
            role[s1] |= 2
            src = np.flatnonzero(role & 4)
            if src.size != t2.size or np.any(role[src] != 5):
                raise ValueError(f"{elem.kind} mixes rows that stay in use")
            freed = p[src]  # target t2[r] takes W row freed[r]
            free = np.zeros(n, bool)
            free[freed] = True
            # The entries of the freed rows, sorted by key, so each row is one
            # run; every two-source row reads the runs of its two sources.
            read = free[wk // n]
            order = np.argsort(wk[read])
            hk, hv = wk[read][order], wv[read][order]
            rows = np.concatenate((p[a], p[b])) * n
            starts = np.searchsorted(hk, rows)
            lengths = np.searchsorted(hk, rows + n) - starts
            ends = np.cumsum(lengths)
            taken = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
            keys = np.repeat(np.concatenate((freed, freed)) * n, lengths) + hk[taken] % n
            vals = np.repeat(np.concatenate((fa * g[a], fb * g[b])), lengths) * hv[taken]
            # Sum what lands on one (row, col), the a side before the b side.
            order = np.argsort(keys, kind="stable")
            keys, vals = keys[order], vals[order]
            first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            wk = np.concatenate((wk[~read], keys[first]))
            wv = np.concatenate((wv[~read], np.add.reduceat(vals, first)))
            p[t2], g[t2] = freed, 1.0
        p[t1], g[t1] = moved
    owner = np.empty(n, np.intp)
    owner[p] = np.arange(n)
    rows = owner[wk // n]
    u = np.zeros((n, n), dtype=complex)
    u[rows, wk % n] = g[rows] * wv
    return u, basis


def dense_apply(circuit: Circuit, state, slot="both"):
    """Apply a circuit to the state's dense vector, or to a pair's amplitude
    matrix where it has support, element by element; no unitary is formed.

    Independent verification path for the sparse evolution.  The basis is
    the circuit's paths plus the state's; the rows are the circuit's own,
    the ones `circuit_unitary` reads, lifted into that basis when the state
    adds paths.  A pair is stepped as a block of its matrix: photon 1 on the
    n rows and, on the columns, only the photon-2 modes that hold amplitude.
    Each column steps on its own and an all-zero column stays zero, so the
    block gives exactly the matrix's values.  For photon 2 the block turns
    over: the photon-1 modes left with amplitude become its columns and
    photon 2 its rows.  The per-photon dense dimension is capped at
    DENSE_DIM_LIMIT.  The output is built as the state constructor would
    build it, bit for bit, without a second pass through it.
    """
    if not isinstance(state, (PhotonState, TwoPhotonState)):
        raise TypeError(f"cannot apply circuit to {type(state).__name__}")
    pair = isinstance(state, TwoPhotonState)
    if pair and slot not in (1, 2, "both"):
        raise ValueError(f"slot must be 1, 2 or 'both', got {slot!r}")
    own = _shared_basis(circuit.paths(), state.truncation)
    steps = _circuit_rows(circuit.elements, own)
    basis = _shared_basis(own.paths + state.paths(), own.truncation)
    if basis is not own:
        steps = _lift(steps, own, basis)

    def run(x):
        for rows in steps:
            _step(x, rows)

    if not pair:
        x = basis.to_vector(state)
        run(x)
        return basis.from_vector(x)
    i1, i2, amps = basis.pair_entries(state)
    cols, col = np.unique(i2, return_inverse=True)
    x = np.zeros((basis.size, cols.size), dtype=complex)
    x[i1, col] = amps
    if slot != 2:
        run(x)
    if slot == 1:
        return basis.from_matrix(x, cols=cols)
    rows = np.flatnonzero((x != 0).any(axis=1))  # a NaN counts as amplitude
    y = np.zeros((basis.size, rows.size), dtype=complex)
    y[cols] = x[rows].T
    run(y)
    return basis.from_matrix(y.T, rows=rows)


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
