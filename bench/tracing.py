"""Spans and work counts around the public functions of every oamsim layer.

`Tracer.install` replaces each traced function in every oamsim module
namespace that binds it: ``bell``, ``tomography``, ``soba`` and ``cli``
re-bind ``elements`` and ``jsonfmt`` names through ``from .x import ...``,
so patching the defining module alone would miss their calls.
`Tracer.uninstall` restores the originals.

Spans are kept in memory as parallel lists and written out once, at the
end.  Each span records its name, start and end (``perf_counter_ns``), its
parent span and the operation it belongs to.  Every operation has a root
span ``op``; a layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

from oamsim import hilbert

# (module, function, span name); the five circuit builders share one span name.
TRACED = (
    ("sources", "spdc", "sources.spdc"),
    ("elements", "build_sorter", "elements.build"),
    ("elements", "build_s2_setup", "elements.build"),
    ("elements", "build_s3_setup", "elements.build"),
    ("elements", "build_projection", "elements.build"),
    ("soba", "build_soba", "elements.build"),
    ("elements", "apply_circuit", "elements.apply_circuit"),
    ("elements", "detect", "elements.detect"),
    ("elements", "coincidence_detect", "elements.coincidence_detect"),
    ("elements", "dense_apply", "elements.dense_apply"),
    ("elements", "circuit_unitary", "elements.circuit_unitary"),
    ("elements", "element_matrix", "elements.element_matrix"),
    ("bell", "chsh", "bell.chsh"),
    ("bell", "project_single", "bell.project_single"),
    ("bell", "ekert_run", "bell.ekert_run"),
    ("tomography", "stokes", "tomography.stokes"),
    ("tomography", "reconstruct", "tomography.reconstruct"),
    ("soba", "soba_route", "soba.soba_route"),
    ("soba", "joint_soba", "soba.joint_soba"),
    ("soba", "dense_coding_roundtrip", "soba.dense_coding_roundtrip"),
    ("cli", "main", "cli.main"),
    ("jsonfmt", "dumps", "jsonfmt.dumps"),
)
BASIS_METHODS = ("to_vector", "from_vector", "to_matrix", "from_matrix")

# Per-layer metrics the tracer reports, in output order, with their units.
# Units other than "ms" are work counts, which repeat exactly for one seed.
LAYER_METRICS = [
    ("cli.main.calls", "count"), ("cli.main.self_ms", "ms"),
    ("jsonfmt.dumps.calls", "count"), ("jsonfmt.dumps.busy_ms", "ms"),
    ("jsonfmt.dumps.bytes_out", "B"),
    ("sources.spdc.calls", "count"), ("sources.spdc.busy_ms", "ms"),
    ("sources.spdc.terms_out", "count"),
    ("elements.build.calls", "count"), ("elements.build.busy_ms", "ms"),
    ("elements.apply_circuit.calls", "count"), ("elements.apply_circuit.busy_ms", "ms"),
    ("elements.apply_circuit.terms_in", "count"),
    ("elements.apply_circuit.terms_out", "count"),
    ("elements.apply_circuit.element_steps", "count"),
    ("elements.apply_circuit.repeat_ratio", "ratio"),
    ("elements.detect.calls", "count"), ("elements.detect.busy_ms", "ms"),
    ("elements.coincidence_detect.calls", "count"),
    ("elements.coincidence_detect.busy_ms", "ms"),
    ("elements.dense_apply.calls", "count"), ("elements.dense_apply.busy_ms", "ms"),
    ("elements.dense_apply.self_ms", "ms"),
    ("elements.circuit_unitary.calls", "count"),
    ("elements.circuit_unitary.busy_ms", "ms"),
    ("elements.circuit_unitary.self_ms", "ms"),
    ("elements.circuit_unitary.dim_max", "count"),
    ("elements.circuit_unitary.flops_computed", "flop"),
    ("elements.element_matrix.calls", "count"),
    ("elements.element_matrix.busy_ms", "ms"),
    ("hilbert.basis_convert.busy_ms", "ms"),
    ("bell.chsh.calls", "count"), ("bell.chsh.busy_ms", "ms"), ("bell.chsh.self_ms", "ms"),
    ("bell.project_single.calls", "count"), ("bell.project_single.busy_ms", "ms"),
    ("bell.ekert_run.calls", "count"), ("bell.ekert_run.busy_ms", "ms"),
    ("bell.ekert_run.self_ms", "ms"), ("bell.ekert_run.rounds", "count"),
    ("tomography.stokes.calls", "count"), ("tomography.stokes.busy_ms", "ms"),
    ("tomography.stokes.self_ms", "ms"),
    ("tomography.reconstruct.calls", "count"), ("tomography.reconstruct.busy_ms", "ms"),
    ("soba.soba_route.calls", "count"), ("soba.soba_route.busy_ms", "ms"),
    ("soba.joint_soba.calls", "count"), ("soba.joint_soba.busy_ms", "ms"),
    ("soba.dense_coding_roundtrip.calls", "count"),
    ("soba.dense_coding_roundtrip.busy_ms", "ms"),
    ("soba.dense_coding_roundtrip.self_ms", "ms"),
    ("trace.op_self_ms", "ms"),
]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _describe(circuit) -> tuple:
    return (circuit.name, circuit.input_path, circuit.detector_paths,
            tuple((e.kind, e.in_paths, e.out_paths, tuple(sorted(e.params.items())))
                  for e in circuit.elements))


def _count_spdc(tr, args, kwargs, result):
    tr.work["sources.spdc.terms_out"] += len(result)


def _count_apply(tr, args, kwargs, result):
    circuit, state = _arg(args, kwargs, 0, "circuit"), _arg(args, kwargs, 1, "state")
    slot = _arg(args, kwargs, 2, "slot", "both")
    both = slot == "both" and isinstance(state, hilbert.TwoPhotonState)
    tr.work["elements.apply_circuit.terms_in"] += len(state)
    tr.work["elements.apply_circuit.terms_out"] += len(result)
    tr.work["elements.apply_circuit.element_steps"] += len(circuit.elements) * (2 if both else 1)
    tr.pending.append((circuit, state.truncation, slot))


def _count_unitary(tr, args, kwargs, result):
    n = result[1].size
    circuit = _arg(args, kwargs, 0, "circuit")
    tr.work["elements.circuit_unitary.dim_max"] = max(
        tr.work["elements.circuit_unitary.dim_max"], n)
    # one complex n x n matmul per element: n^3 multiply-adds of 8 real flops
    tr.work["elements.circuit_unitary.flops_computed"] += 8 * n ** 3 * len(circuit.elements)


def _count_dumps(tr, args, kwargs, result):
    tr.work["jsonfmt.dumps.bytes_out"] += len(result)  # ASCII: json escapes the rest


def _count_ekert(tr, args, kwargs, result):
    tr.work["bell.ekert_run.rounds"] += result.rounds


COUNTERS = {
    "spdc": _count_spdc,
    "apply_circuit": _count_apply,
    "circuit_unitary": _count_unitary,
    "dumps": _count_dumps,
    "ekert_run": _count_ekert,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.op_id: int | None = None  # None outside an operation: checks are not traced
        self.work: dict[str, int] = defaultdict(int)
        self.pending: list[tuple] = []  # apply_circuit calls, described at op end
        self.circuit_keys: set[tuple] = set()
        self.restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._open("op")

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.op_id = None
        for circuit, truncation, slot in self.pending:
            self.circuit_keys.add((_describe(circuit), truncation, slot))
        self.pending.clear()

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "oamsim" or n.startswith("oamsim.")]
        for mod_name, attr, span in TRACED:
            orig = getattr(sys.modules[f"oamsim.{mod_name}"], attr)
            wrapper = self._wrap(orig, span, COUNTERS.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self.restore.append((mod, key, orig))
        for attr in BASIS_METHODS:
            orig = getattr(hilbert.ModeBasis, attr)
            setattr(hilbert.ModeBasis, attr, self._wrap(orig, "hilbert.basis_convert", None))
            self.restore.append((hilbert.ModeBasis, attr, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self.restore):
            setattr(owner, key, orig)
        self.restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the part of it its children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered = min(self.ends[i], self.ends[p]) - max(self.starts[i], self.starts[p])
                own[p] -= max(covered, 0)
        return own

    def self_sum_gap_ns(self, own: list[int]) -> int:
        """Largest |sum of an operation's self times - its root duration|.

        Zero exactly when every span closed inside its parent and belongs to
        its parent's operation.
        """
        total: dict[int, int] = defaultdict(int)
        root: dict[int, int] = {}
        gap = 0
        for i, name in enumerate(self.names):
            total[self.op_ids[i]] += own[i]
            if name == "op":
                root[self.op_ids[i]] = self.ends[i] - self.starts[i]
            elif self.op_ids[i] != self.op_ids[self.parents[i]] or self.ends[i] == 0:
                gap = max(gap, abs(self.ends[i] - self.starts[i]))
        for op_id, dur in root.items():
            gap = max(gap, abs(total[op_id] - dur))
        return gap

    def metrics(self, own: list[int]) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            calls[name] += 1
            busy[name] += self.ends[i] - self.starts[i]
            self_ns[name] += own[i]
        values: dict[str, float] = dict(self.work)
        n_apply = calls["elements.apply_circuit"]
        values["elements.apply_circuit.repeat_ratio"] = (
            1.0 - len(self.circuit_keys) / n_apply if n_apply else 0.0)
        values["trace.op_self_ms"] = self_ns["op"] / 1e6
        for metric, _ in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = calls[layer]
            elif stat == "busy_ms":
                values[metric] = busy[layer] / 1e6
            elif stat == "self_ms":
                values[metric] = self_ns[layer] / 1e6
        return {metric: values.get(metric, 0) for metric, _ in LAYER_METRICS}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.op_ids[i]}\t{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\n")
