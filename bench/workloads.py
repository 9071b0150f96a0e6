"""The four oamsim benchmark workloads: seeded inputs, operations and checks.

Every workload is a closed loop with one client.  The runner asks for
operation ``i`` (i = 0, 1, 2, ...), times ``Op.run`` alone and passes its
result to ``Op.check`` outside the timed interval.  An operation's inputs
depend only on the workload seed and ``i``.  The kinds of operation follow a
fixed multiset, shuffled once per seed and then repeated, so every seed
runs the same mix and only the generated inputs differ.

Operations call the package through module attributes (``bell.chsh``, not a
name bound at import time), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from oamsim import bell, cli, elements, hilbert, soba, sources, tomography

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TSIRELSON = 2.0 * math.sqrt(2.0)
GRID = np.linspace(0.0, math.pi, 19)  # angle grid of acceptance criterion 2
POOL = ("p0", "p1", "p2", "p3", "p4", "p5")  # path pool of criterion 7
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")
SOBA_DETECTOR = {"psi+": "D1", "psi-": "D2", "phi+": "D4", "phi-": "D3"}


class Crash(Exception):
    """The operation gave no answer: it raised, ended in a traceback or
    exited with the wrong code."""


class WrongOutput(Exception):
    """The operation answered, and the answer is wrong."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


class Workload:
    """A seeded operation stream over a fixed, per-seed shuffled kind cycle."""

    name = ""
    kinds: tuple[tuple[str, int], ...] = ()  # (kind, copies per cycle)
    trace_cycles = 1  # cycles run by each pass of a traced run
    rss_children = False  # peak memory is the children's, not this process's

    def __init__(self, seed: int):
        self.seed = seed
        cycle = [kind for kind, copies in self.kinds for _ in range(copies)]
        order = np.random.default_rng([seed, 0]).permutation(len(cycle))
        self.cycle = [cycle[j] for j in order]

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1, i])

    def op(self, i: int) -> Op:
        kind = self.cycle[i % len(self.cycle)]
        return self.make(kind, self.rng(i))

    def make(self, kind: str, rng: np.random.Generator) -> Op:
        raise NotImplementedError

    def warm_up_ops(self) -> list[Op]:
        """One operation of each kind, run before timing.

        Its inputs are the same for every seed, so every seed's set-up does
        the same work.
        """
        return [self.make(kind, np.random.default_rng([2, j]))
                for j, (kind, _) in enumerate(self.kinds)]

    def golden_errors(self) -> list[str]:
        """Reference outputs captured in set-up that fail their own checks."""
        return []

    def known_defects(self) -> list[tuple[str, str | None]]:
        """Probe each known program defect once: (name, None if fixed, else detail)."""
        return []

    def trace_ops(self, i: int) -> Op:
        """Operation i of a traced run; in-process workloads trace `op`."""
        return self.op(i)


# ---------------------------------------------------------------------------
# cli-cold: one CLI report per operation, each in a fresh interpreter


@dataclass
class CliCase:
    argv: list[str]
    valid: bool  # False: the contract is a JSON error with exit 2 or 3
    physics: Callable[[dict], None] | None = None
    golden: str | None = None  # stdout of an in-process run during set-up


def _angles(rng) -> list[str]:
    return [arg for flag in ("--theta", "--theta2", "--chi", "--chi2")
            for arg in (flag, f"{rng.uniform(0.0, 180.0):.3f}")]


def _bell_physics(report: dict) -> None:
    angles = [math.radians(report["config"][k])
              for k in ("theta_deg", "theta2_deg", "chi_deg", "chi2_deg")]
    closed = chsh_closed_form(*angles)
    expect(abs(report["B"] - closed) <= 1e-9, f"B {report['B']} != {closed}")


def chsh_closed_form(t, t2, c, c2) -> float:
    return abs(math.cos(2 * (t - c)) - math.cos(2 * (t - c2))
               + math.cos(2 * (t2 - c)) + math.cos(2 * (t2 - c2)))


def _ekert_physics(report: dict) -> None:
    expect(report["qber"] == 0.0, f"QBER {report['qber']}")
    expect(report["key_a"] == report["key_b"], "keys differ")


def _densecode_physics(report: dict) -> None:
    expect(report["accuracy"] == 1.0, f"accuracy {report['accuracy']}")


def _routing(expected: str) -> Callable[[dict], None]:
    return lambda report: check_route(
        report.get("probabilities") or report["distribution"], expected)


def cli_corpus(seed: int) -> list[CliCase]:
    """Two generated instances of each ROADMAP corpus command, plus invalid argv."""
    rng = np.random.default_rng([seed, 3])
    cases = []
    for _ in range(2):
        cases.append(CliCase(["bell", *_angles(rng)], True, _bell_physics))
        cases.append(CliCase(["bell", "-K", "64", *_angles(rng)], True, _bell_physics))
        cases.append(CliCase(["ekert", "--rounds", "100000", "--seed",
                              str(int(rng.integers(1 << 31)))], True, _ekert_physics))
        cases.append(CliCase(["densecode", "--message", f"{int(rng.integers(4)):02b}",
                              "--shots", "10000", "--seed",
                              str(int(rng.integers(1 << 31)))], True, _densecode_physics))
        k = int(rng.integers(-3, 3))
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = {"coeffs": [[2 * k, a.real, a.imag], [2 * k + 1, b.real, b.imag]]}
        cases.append(CliCase(["tomography", "--state", json.dumps(state)], True))
        label = BELL_LABELS[int(rng.integers(4))]
        cases.append(CliCase(["soba", "--state", label], True,
                             _routing(SOBA_DETECTOR[label])))
        m = int(rng.integers(-8, 9))
        cases.append(CliCase(["sorter", "--m", str(m)], True,
                             _routing("even_port" if m % 2 == 0 else "odd_port")))
    angles = _angles(rng)
    cases.append(CliCase(["bell", "-K", "0", *angles], False))
    cases.append(CliCase(["bell", "--shots", "1000", *angles], False))
    cases.append(CliCase(["tomography", "--state", '{"coeffs": [[0, 0.6], [1, 0.8]'],
                         False))
    return cases


# ROADMAP open item 4: a one-term explicit spectrum.  Its contract is a JSON
# error with exit 2 or 3, but it ends in a ZeroDivisionError traceback.  It is
# probed once per run (see `known_defects`) rather than timed, so that the
# timed operations are ones that can all pass.
ONE_TERM_SPECTRUM = CliCase(["bell", "--theta", "90", "--theta2", "45", "--chi", "22.5",
                             "--chi2", "67.5", "--spectrum",
                             '{"kind":"explicit","coeffs":[[0,1.0]]}'], False)


@functools.cache
def report_validator():
    import jsonschema  # only cli-cold needs it

    return jsonschema.Draft202012Validator(cli.REPORT_SCHEMA)


def check_cli(case: CliCase, code: int, stdout: str, stderr: str) -> None:
    if "Traceback" in stderr:
        raise Crash(f"{case.argv[0]}: traceback: {stderr.strip().splitlines()[-1]}")
    if case.valid and code != 0:
        raise Crash(f"{case.argv[0]}: exit {code}")
    if not case.valid and code not in (2, 3):
        raise Crash(f"{case.argv[0]}: exit {code}, want 2 or 3")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"{case.argv[0]}: stdout is not JSON: {exc}") from exc
    if case.golden is not None:
        expect(stdout == case.golden, f"{case.argv[0]}: stdout differs from golden")
    if not case.valid:
        error = report.get("error")
        expect(isinstance(error, dict) and {"code", "message"} <= error.keys(),
               f"{case.argv[0]}: no JSON error object")
        return
    errors = [e.message for e in report_validator().iter_errors(report)]
    expect(not errors, f"{case.argv[0]}: schema: {errors[:1]}")
    if case.physics is not None:
        case.physics(report)


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop(cli.CONFIG_ENV, None)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliCold(Workload):
    """Each operation runs `python -m oamsim.cli ARGV` as a child process."""

    name = "cli-cold"
    trace_cycles = 10
    rss_children = True

    def __init__(self, seed: int):
        self.cases = cli_corpus(seed)
        self.kinds = tuple((str(j), 1) for j in range(len(self.cases)))
        super().__init__(seed)
        self.env = cli_env()
        for case in self.cases:
            try:
                code, text = cli_in_process(case.argv)
            except Exception:  # noqa: BLE001 - the known defect raises here
                continue
            if case.valid == (code == 0):
                case.golden = text

    def golden_errors(self) -> list[str]:
        errors = []
        for case in self.cases:
            if case.golden is None:
                continue
            try:
                check_cli(case, 0 if case.valid else 2, case.golden, "")
            except (Crash, WrongOutput) as exc:
                errors.append(str(exc))
        return errors

    def make(self, kind: str, rng) -> Op:
        case = self.cases[int(kind)]
        cmd = [sys.executable, "-m", "oamsim.cli", *case.argv]

        def run():
            return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=60)

        return Op(case.argv[0], run,
                  lambda p: check_cli(case, p.returncode, p.stdout, p.stderr))

    def warm_up_ops(self) -> list[Op]:
        first_valid = next(k for k in self.cycle if self.cases[int(k)].valid)
        return [self.make(first_valid, None)]

    def known_defects(self) -> list[tuple[str, str | None]]:
        case = ONE_TERM_SPECTRUM
        proc = subprocess.run([sys.executable, "-m", "oamsim.cli", *case.argv],
                              capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=60)
        try:
            check_cli(case, proc.returncode, proc.stdout, proc.stderr)
            return [("cli-one-term-spectrum", None)]
        except (Crash, WrongOutput) as exc:
            return [("cli-one-term-spectrum", str(exc))]

    def trace_ops(self, i: int) -> Op:
        case = self.cases[int(self.cycle[i % len(self.cycle)])]
        return Op(case.argv[0], lambda: cli_in_process(case.argv),
                  lambda r: check_cli(case, r[0], r[1], ""))


# ---------------------------------------------------------------------------
# bell-sweep: analytic CHSH on large-K vortex pairs, plus key exchange


def vortex(truncation: int, spectrum: hilbert.SpectrumModel):
    return sources.spdc(sources.SourceSpec(1, spectrum, sources.PRODUCT_HH, truncation))


SPECTRA = ("uniform", "gaussian:2", "gaussian:8", "gaussian:40")


class BellSweep(Workload):
    name = "bell-sweep"
    kinds = tuple((f"chsh/{k}/{s}/{v}", 1) for k in (32, 128) for s in SPECTRA
                  for v in bell.VARIANTS) + (("ekert/1e5", 1), ("ekert/1e6", 1))
    trace_cycles = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pairs = {}
        for k in (32, 128):
            for s in SPECTRA:
                spectrum = (hilbert.SpectrumModel.uniform() if s == "uniform"
                            else hilbert.SpectrumModel.gaussian(float(s.split(":")[1])))
                self.pairs[(k, s)] = vortex(k, spectrum)
        self.key_pair = vortex(8, hilbert.SpectrumModel.uniform())

    def make(self, kind: str, rng) -> Op:
        if kind.startswith("ekert/"):
            rounds = int(float(kind.split("/")[1]))
            key_seed = int(rng.integers(1 << 31))
            return Op("ekert", lambda: bell.ekert_run(self.key_pair, rounds, key_seed),
                      check_ekert)
        _, k, s, variant = kind.split("/")
        pair = self.pairs[(int(k), s)]
        angles = tuple(float(a) for a in rng.choice(GRID, size=4))
        return Op(f"chsh/{k}", lambda: bell.chsh(pair, *angles, variant=variant),
                  lambda r: check_chsh(pair, r))


def check_chsh(pair, result) -> None:
    closed = chsh_closed_form(*result.settings)
    expect(abs(result.b - closed) <= 1e-9, f"B {result.b} != {closed}")
    for table in result.tables:
        e = table.e_value()
        law = math.cos(2.0 * (table.theta - table.chi))
        expect(abs(e - law) <= 1e-9, f"E({table.theta}, {table.chi}) = {e}, law {law}")
        direct = bell.projector_coincidence(pair, table.theta, table.chi)
        got = (table.d13, table.d14, table.d23, table.d24)
        expect(max(abs(a - b) for a, b in zip(got, direct)) <= 1e-10,
               f"table {got} != projector contraction {direct}")


def check_ekert(result) -> None:
    expect(result.qber == 0.0, f"QBER {result.qber}")
    expect(result.key_a == result.key_b, "keys differ")
    expect(result.chsh_sigma is not None
           and abs(result.chsh_estimate - TSIRELSON) < 5.0 * result.chsh_sigma,
           f"CHSH estimate {result.chsh_estimate} +- {result.chsh_sigma}")


# ---------------------------------------------------------------------------
# qubit-batch: many tiny K=8 single-photon protocol runs


def random_qubit(rng):
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return complex(a / n), complex(b / n)


# The tunable splitter derives r = sqrt(1 - t^2) from t = cos(theta), which
# loses precision for theta within about 5e-5 rad of 0 and just above pi/2:
# intensities then miss the 1e-12 tolerance (4.4e-11 at theta = 1e-6).  Timed
# angles keep SINGULAR_GAP away from both points; `known_defects` probes one.
SINGULAR_GAP = 1e-3


def near_singular(theta: float) -> bool:
    return theta < SINGULAR_GAP or 0.0 <= theta - math.pi / 2 < SINGULAR_GAP


class QubitBatch(Workload):
    """Each operation is one batch: every kind of MIX once, in a per-seed order.

    A batch rather than a single run keeps the latency percentiles off the
    boundaries between kinds of very different cost.
    """

    name = "qubit-batch"
    kinds = (("batch", 1),)
    MIX = (("tomography", 4), ("project/tunable_bs", 2), ("project/polarization", 2),
           ("soba", 2), ("densecode", 1))
    trace_cycles = 300

    def __init__(self, seed: int):
        super().__init__(seed)
        mix = [kind for kind, copies in self.MIX for _ in range(copies)]
        order = np.random.default_rng([seed, 0]).permutation(len(mix))
        self.mix = [mix[j] for j in order]

    def make(self, kind: str, rng) -> Op:
        ops = [self.make_one(k, rng) for k in self.mix]

        def check(outs):
            for op, out in zip(ops, outs):
                op.check(out)

        return Op(kind, lambda: [op.run() for op in ops], check)

    def make_one(self, kind: str, rng) -> Op:
        if kind == "tomography":
            k = int(rng.integers(-3, 3))
            a, b = random_qubit(rng)
            state = hilbert.PhotonState({hilbert.mode(2 * k): a,
                                         hilbert.mode(2 * k + 1): b}, 8)

            def run():
                rho = tomography.reconstruct(tomography.stokes(state))
                return tomography.fidelity(rho, (a, b))

            return Op(kind, run, lambda f: expect(f >= 1.0 - 1e-9, f"fidelity {f}"))
        if kind.startswith("project/"):
            variant = kind.split("/")[1]
            coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
            coeffs /= np.linalg.norm(coeffs)
            theta = float(rng.uniform(0.0, math.pi))
            while variant == "tunable_bs" and near_singular(theta):
                theta = float(rng.uniform(0.0, math.pi))
            return projection_op(kind, coeffs, theta, variant)
        if kind == "soba":
            label = BELL_LABELS[int(rng.integers(4))]
            state = sources.prepare_single_photon_bell(label)
            return Op(kind, lambda: soba.soba_route(state),
                      lambda dist: check_route(dist, SOBA_DETECTOR[label]))
        message = f"{int(rng.integers(4)):02b}"
        shot_seed = int(rng.integers(1 << 31))
        return Op(kind, lambda: soba.dense_coding_roundtrip(message, shots=10_000,
                                                            seed=shot_seed),
                  lambda r: expect(r.accuracy == 1.0, f"accuracy {r.accuracy}"))

    def known_defects(self) -> list[tuple[str, str | None]]:
        coeffs = np.zeros(16, dtype=complex)
        coeffs[8] = coeffs[9] = 1.0 / math.sqrt(2.0)  # (m=0 + m=1) / sqrt(2)
        op = projection_op("project/tunable_bs", coeffs, 1e-6, "tunable_bs")
        try:
            op.check(op.run())
            return [("project-tunable-near-zero", None)]
        except WrongOutput as exc:
            return [("project-tunable-near-zero", f"theta 1e-06: {exc}")]


def projection_op(kind: str, coeffs, theta: float, variant: str) -> Op:
    state = hilbert.PhotonState(
        {hilbert.mode(m): complex(c) for m, c in zip(range(-8, 8), coeffs)}, 8)
    return Op(kind, lambda: bell.project_single(state, bell.ProjectionSetting(theta, variant)),
              lambda r: check_projection(coeffs, theta, r))


def check_projection(coeffs, theta, result) -> None:
    # coeffs[j] is the amplitude of m = j - 8, so pairs (2k, 2k+1) sit at (j, j+1)
    c, s = math.cos(theta), math.sin(theta)
    want = sum(abs(c * coeffs[j] + s * coeffs[j + 1]) ** 2 for j in range(0, 16, 2))
    expect(abs(result[0] - want) <= 1e-12, f"I1 {result[0]} != {want}")
    expect(abs(result[0] + result[1] - 1.0) <= 1e-12, f"I1 + I2 = {sum(result)}")


def check_route(dist: dict, port: str) -> None:
    for d, p in dist.items():
        want = 1.0 if d == port else 0.0
        expect(abs(p - want) <= 1e-12, f"{d} gets {p}, want {want}")


# ---------------------------------------------------------------------------
# oracle: the dense verification path


def random_circuit(rng, n_elements: int) -> elements.Circuit:
    """Random element stack over the path pool, as in acceptance criterion 7."""
    elems = []
    for _ in range(n_elements):
        kind = ("bs", "pbs", "dove", "spp", "hwp", "phase", "mirror")[rng.integers(7)]
        if kind in ("bs", "pbs"):
            ports = [POOL[j] for j in rng.choice(len(POOL), size=4, replace=False)]
            elems.append(elements.beam_splitter(*ports, t=float(rng.random()))
                         if kind == "bs" else elements.polarizing_bs(*ports))
        elif kind == "mirror":
            a, b = rng.choice(len(POOL), size=2, replace=False)
            elems.append(elements.mirror(POOL[a], POOL[b]))
        else:
            path = POOL[rng.integers(len(POOL))]
            if kind == "dove":
                elems.append(elements.dove_prism(path, float(rng.uniform(0, 2 * math.pi))))
            elif kind == "spp":
                elems.append(elements.spiral_phase_plate(path, int(rng.choice([-2, -1, 1, 2]))))
            elif kind == "hwp":
                elems.append(elements.half_wave_plate(path, float(rng.uniform(0, math.pi))))
            else:
                elems.append(elements.phase_delay(path, float(rng.uniform(0, 2 * math.pi))))
    return elements.Circuit("random", tuple(elems), POOL[0], ())


def random_full_state(rng, truncation: int, paths) -> hilbert.PhotonState:
    keys = [hilbert.mode(m, pol, p) for p in paths for pol in (hilbert.H, hilbert.V)
            for m in range(-truncation, truncation + 1)]
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return hilbert.PhotonState(dict(zip(keys, map(complex, amps))), truncation)


def random_pair(rng, truncation: int) -> hilbert.TwoPhotonState:
    keys = [hilbert.mode(m, pol) for pol in (hilbert.H, hilbert.V)
            for m in range(-truncation, truncation + 1)]
    amps = rng.normal(size=(len(keys),) * 2) + 1j * rng.normal(size=(len(keys),) * 2)
    amps /= np.linalg.norm(amps)
    return hilbert.TwoPhotonState({(k1, k2): complex(amps[i, j])
                                   for i, k1 in enumerate(keys)
                                   for j, k2 in enumerate(keys)}, truncation)


def max_diff(a, b) -> float:
    keys = a.amplitudes.keys() | b.amplitudes.keys()
    return max(abs(a.get(k) - b.get(k)) for k in keys)


class Oracle(Workload):
    """Each operation is one verification batch of the dense path.

    A batch checks one random circuit of 3 to 12 elements at each K in
    (4, 8, 12) and the two-photon analyzer at K=4; one batch in four also
    checks the one-photon analyzer at K=8.  Single checks differ in cost by
    two orders of magnitude, and their percentiles would sit on the
    boundaries between kinds; batch costs form two broad clusters instead.
    """

    name = "oracle"
    kinds = (("batch", 3), ("batch+soba1", 1))
    trace_cycles = 10

    def make(self, kind: str, rng) -> Op:
        checks = [self.circuit_check(rng, k) for k in (4, 8, 12)]
        checks.append(self.soba_check(random_pair(rng, 4)))
        if kind == "batch+soba1":
            checks.append(self.soba_check(random_full_state(rng, 8, ("in",))))
        runs, verifiers = zip(*checks)

        def check(outs):
            for verify, out in zip(verifiers, outs):
                verify(out)

        return Op(kind, lambda: [run() for run in runs], check)

    @staticmethod
    def circuit_check(rng, truncation: int):
        circuit = random_circuit(rng, int(rng.integers(3, 13)))
        state = random_full_state(rng, truncation, POOL)

        def run():
            return (elements.dense_apply(circuit, state),
                    elements.circuit_unitary(circuit, truncation)[0])

        return run, lambda r: check_oracle(circuit, state, *r)

    @staticmethod
    def soba_check(state):
        return (lambda: elements.dense_apply(soba.build_soba(), state),
                lambda dense: check_oracle(soba.build_soba(), state, dense))


def check_oracle(circuit, state, dense, u=None) -> None:
    sparse = elements.apply_circuit(circuit, state, wrap_guard=None)
    diff = max_diff(sparse, dense)
    expect(diff < 1e-10, f"sparse and dense differ by {diff:.3e}")
    if u is not None:
        gap = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
        expect(gap < 1e-10, f"unitarity gap {gap:.3e}")


WORKLOADS = {w.name: w for w in (CliCold, BellSweep, QubitBatch, Oracle)}
