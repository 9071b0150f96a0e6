"""Command-line front end: experiment commands with deterministic JSON reports.

Every report is a single JSON object carrying the command name, the full
effective configuration, and the results; identical (command, config, seed)
invocations produce byte-identical output.  Angles are accepted in degrees
and converted once at this boundary.

Exit codes: 0 success, 2 validation error (including an input mode outside the
band, a `state` option its --kind does not read, a `tomography --csv` path
that cannot be written, invalid or too deeply nested JSON and an oversize
config file), 3 guard error from the core (weight pushed across the truncation
band edge, or an analytic CHSH value above the Tsirelson bound 2*sqrt(2)), 4
internal error: any other exception while building or serializing a report,
printed with the code "internal" and the message "<type>: <text>".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import bell, soba, tomography
from .elements import WrapGuardError, build_sorter, circuit_to_dict, readout
from .hilbert import (
    DENSE_BYTES_LIMIT,
    PhotonState,
    SpectrumModel,
    _whole,
    add_amplitude,
    mode,
    parse_coeff_rows,
    state_to_records,
)
from .jsonfmt import dumps, format_float
from .sources import (
    BELL_PHI_PLUS,
    PRODUCT_HH,
    SourceSpec,
    canonical_pair_spectrum,
    dropped_weight,
    normalize_spin_orbit_label,
    prepare_single_photon_bell,
    spdc,
    vortex_symmetric,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4

CONFIG_ENV = "OAMSIM_CONFIG"
# The config file is read up to Linux's per-argument limit MAX_ARG_STRLEN,
# 32 pages of 4 KiB, so it holds any value --spectrum or --state could carry.
CONFIG_BYTES_LIMIT = 32 * 4096

# Peak bytes per unit of K of the largest structure any command builds, that
# of `bell --variant polarization` (tracemalloc, one fresh process per run:
# 13.6 kB at K=1000, 17.2 kB at K=8000 and 17.6 kB at the limit, with the
# four tables evaluated as one prefix tree, which keeps a state only where a
# later table branches off), rounded up.  K is bounded by the same memory
# budget as the dense oracle.
TRUNCATION_BYTES_PER_K = 20_000
TRUNCATION_LIMIT = DENSE_BYTES_LIMIT // TRUNCATION_BYTES_PER_K

# The options each `state --kind` reads, with their defaults; any other
# state option given under that kind is a validation error.
STATE_KINDS = {"spdc": {"spectrum": None, "pump": 1, "pol": PRODUCT_HH},
               "hyper": {"spectrum": None}, "bell": {"label": "psi+"}}

COMMANDS = ("state", "sorter", "tomography", "bell", "ekert", "soba", "densecode")

# Named interferometers shipped with the CLI (JSON via --circuit NAME).
BUILTIN_CIRCUITS = {**tomography.SETUPS, "soba": soba.build_soba}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "oamsim report",
    "type": "object",
    "required": ["command", "config"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "config": {"type": "object"},
    },
    "allOf": [
        {"if": {"properties": {"command": {"const": "state"}}},
         "then": {"required": ["state"]}},
        {"if": {"properties": {"command": {"const": "sorter"}}},
         "then": {"required": ["probabilities"]}},
        {"if": {"properties": {"command": {"const": "tomography"}}},
         "then": {"required": ["s0", "s1", "s2", "s3", "rho", "clipped"]}},
        {"if": {"properties": {"command": {"const": "bell"}}},
         "then": {"required": ["B", "C", "E"]}},
        {"if": {"properties": {"command": {"const": "ekert"}}},
         "then": {"required": ["key_a", "key_b", "qber", "chsh_estimate"]}},
        {"if": {"properties": {"command": {"const": "soba"}}},
         "then": {"required": ["distribution"]}},
        {"if": {"properties": {"command": {"const": "densecode"}}},
         "then": {"required": ["sent", "decoded_distribution", "accuracy"]}},
    ],
}


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors become validation errors, so they are reported as JSON."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _read(text: str | bytes, what: str, build):
    """`build` of the JSON value in `text` (bytes read as UTF-8).  Any failure
    is a ValidationError "<what>: <reason>", a KeyError's naming the key."""
    try:
        return build(json.loads(text if isinstance(text, str) else str(text, "utf-8")))
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"{what}: {reason}") from exc


def _env_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "rb") as fh:
            raw = fh.read(CONFIG_BYTES_LIMIT + 1)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    if len(raw) > CONFIG_BYTES_LIMIT:
        raise ValidationError(f"config file {path!r} is larger than {CONFIG_BYTES_LIMIT} bytes")
    data = _read(raw, f"cannot read config file {path!r}", lambda data: data)
    if not isinstance(data, dict):
        raise ValidationError("config file must contain a JSON object")
    return data


def _parse_spectrum(text: str | None) -> SpectrumModel:
    if text is None or text == "uniform":
        return SpectrumModel.uniform()
    if text.startswith("gaussian:"):
        try:
            return SpectrumModel.gaussian(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError(f"bad gaussian spectrum {text!r}: {exc}") from exc
    if text == "canonical":
        return canonical_pair_spectrum()
    return _read(text, f"bad spectrum {text!r}", SpectrumModel.from_dict)


def _parse_state(text: str, truncation: int) -> PhotonState:
    try:
        return prepare_single_photon_bell(normalize_spin_orbit_label(text),
                                          truncation)
    except ValueError:
        pass
    return _read(text, f"bad state {text!r}", lambda data: _state(data, truncation))


def _state(data, truncation: int) -> PhotonState:
    if "coeffs" in data:
        amps = {mode(m): c for m, c in parse_coeff_rows(data["coeffs"]).items()}
    elif "terms" in data:
        amps = {}
        for term in data["terms"]:
            key = mode(term["m"], str(term.get("pol", "H")), str(term.get("path", "in")))
            # Every setup takes its photon on path "in"; weight elsewhere
            # would pass every detector by.
            if key.path != "in":
                raise ValueError(f"state terms must be on path 'in', got {key.path!r}")
            add_amplitude(amps, key, term.get("re", 0.0), term.get("im", 0.0))
    else:
        raise ValueError("state JSON needs 'coeffs' or 'terms'")
    return PhotonState(amps, truncation).normalized()


def _base_config(args, spectrum: SpectrumModel | None = None) -> dict:
    # A command without --shots or --seed records the 0 shots and no seed it ran.
    cfg = {
        "truncation": args.truncation,
        "shots": vars(args).get("shots", 0),
        "seed": vars(args).get("seed"),
        "format": "json",
        "rng": "numpy-pcg64",
    }
    if spectrum is not None:
        cfg["spectrum"] = spectrum.to_dict()
    return cfg


def _sampled_counts(args, probs: dict, key: int) -> dict:
    """One seeded draw of --shots over the detector probabilities."""
    counts = bell.sample_counts(list(probs.values()), args.shots, args.seed, key)
    return {d: int(n) for d, n in zip(probs, counts)}


# ---------------------------------------------------------------------------
# command handlers


def _cmd_state(args) -> dict:
    if args.kind == "bell":
        cfg = dict(_base_config(args), kind="bell", label=normalize_spin_orbit_label(args.label))
        state = prepare_single_photon_bell(cfg["label"], args.truncation)
        return {"command": "state", "config": cfg, "state": state_to_records(state)}
    spectrum = _parse_spectrum(args.spectrum)
    pump, pol = (1, BELL_PHI_PLUS) if args.kind == "hyper" else (args.pump, args.pol)
    spec = SourceSpec(pump, spectrum, pol, args.truncation)
    cfg = dict(_base_config(args, spectrum), kind=args.kind, pump_order=spec.pump_order,
               polarization_mode=spec.polarization_mode)
    report = {"command": "state", "config": cfg, "state": state_to_records(spdc(spec)),
              "out_of_band_weight": dropped_weight(spec)}
    if spec.pump_order == 1:
        report["symmetric"] = vortex_symmetric(spectrum, args.truncation)
    return report


def _cmd_sorter(args) -> dict:
    if (args.m is None) == (args.state is None):
        raise ValidationError("sorter needs exactly one of --m or --state")
    if args.m is not None:
        state = PhotonState({mode(args.m): 1.0}, args.truncation)
    else:
        state = _parse_state(args.state, args.truncation)
    probs = readout(build_sorter(), state)
    cfg = _base_config(args)
    cfg["m"] = args.m
    report = {"command": "sorter", "config": cfg, "probabilities": probs}
    if args.shots > 0:
        report["counts"] = _sampled_counts(args, probs, 10)
    return report


def _rho_records(matrix) -> list:
    return [[[float(matrix[r, c].real), float(matrix[r, c].imag)]
             for c in range(2)] for r in range(2)]


def _single_pair_qubit(state: PhotonState):
    """(even, odd) amplitudes of a pure parity qubit: every amplitude on one
    polarization and in one OAM pair (2k, 2k+1).  Any other state is None."""
    keys = state.amplitudes.keys()
    if len({k.pol for k in keys}) != 1 or len({k.m // 2 for k in keys}) != 1:
        return None
    amps = {k.m % 2: a for k, a in state.amplitudes.items()}
    return amps.get(0, 0j), amps.get(1, 0j)


def _cmd_tomography(args) -> dict:
    state = _parse_state(args.state, args.truncation)
    table = tomography.intensities(state)
    sv = tomography.stokes_from_intensities(table)
    density = tomography.reconstruct(sv)
    report = {
        "command": "tomography",
        "config": _base_config(args),
        "intensities": {setup: dict(zip(("I1", "I2"), ports.values()))
                        for setup, ports in table.items()},
        "s0": sv.s0, "s1": sv.s1, "s2": sv.s2, "s3": sv.s3,
        "rho": _rho_records(density.matrix),
        "clipped": density.clipped,
    }
    qubit = _single_pair_qubit(state)
    if qubit is not None:
        report["fidelity"] = tomography.fidelity(density, qubit)
    if args.csv:
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(("setup", "port", "intensity"))
                for setup, ports in table.items():
                    for port, intensity in ports.items():
                        writer.writerow((setup, port, format_float(float(intensity))))
        except OSError as exc:
            raise ValidationError(f"cannot write csv file {args.csv!r}: {exc}") from exc
        report["csv"] = args.csv
    return report


def _cmd_bell(args) -> dict:
    for name in ("theta", "theta2", "chi", "chi2"):
        if not math.isfinite(vars(args)[name]):
            raise ValidationError(f"--{name} must be finite, got {vars(args)[name]}")
    spectrum = _parse_spectrum(args.spectrum)
    state = spdc(SourceSpec(1, spectrum, PRODUCT_HH, args.truncation))
    angles = tuple(math.radians(x) for x in
                   (args.theta, args.theta2, args.chi, args.chi2))
    result = bell.chsh(state, *angles, variant=args.variant,
                       shots=args.shots, seed=args.seed)
    labels = ("theta_chi", "theta_chi2", "theta2_chi", "theta2_chi2")
    c_block = {}
    for label, table in zip(labels, result.tables):
        entry = dict(table.joint())
        entry["C"] = table.correlation()
        if table.counts is not None:
            entry["counts"] = list(table.counts)
        c_block[label] = entry
    e_block = dict(zip(labels, result.e_values.values()))
    cfg = _base_config(args, spectrum)
    cfg.update({"theta_deg": args.theta, "theta2_deg": args.theta2,
                "chi_deg": args.chi, "chi2_deg": args.chi2,
                "variant": args.variant,
                "symmetric": vortex_symmetric(spectrum, args.truncation)})
    report = {"command": "bell", "config": cfg,
              "C": c_block, "E": e_block, "B": result.b}
    if result.sigma is not None:
        report["sigma"] = result.sigma
    return report


def _cmd_ekert(args) -> dict:
    if args.seed is None:
        raise ValidationError("ekert requires --seed")
    spectrum = _parse_spectrum(args.spectrum)
    state = spdc(SourceSpec(1, spectrum, PRODUCT_HH, args.truncation))
    result = bell.ekert_run(state, args.rounds, args.seed, variant=args.variant)
    cfg = _base_config(args, spectrum)
    cfg.update({"rounds": args.rounds, "variant": args.variant})
    return {
        "command": "ekert",
        "config": cfg,
        "key_a": result.key_a,
        "key_b": result.key_b,
        "qber": result.qber,
        "chsh_estimate": result.chsh_estimate,
        "chsh_sigma": result.chsh_sigma,
        "matched_rounds": result.matched_rounds,
        "chsh_rounds": result.chsh_rounds,
    }


def _cmd_soba(args) -> dict:
    state = _parse_state(args.state, args.truncation)
    dist = soba.soba_route(state)
    cfg = _base_config(args)
    cfg["state"] = args.state
    report = {"command": "soba", "config": cfg, "distribution": dist}
    if args.shots > 0:
        report["counts"] = _sampled_counts(args, dist, 11)
    return report


def _cmd_densecode(args) -> dict:
    spectrum = _parse_spectrum(args.spectrum or "canonical")
    result = soba.dense_coding_roundtrip(args.message, shots=args.shots,
                                         seed=args.seed,
                                         truncation=args.truncation,
                                         spectrum=spectrum)
    cfg = _base_config(args, spectrum)
    cfg["message"] = args.message
    report = {
        "command": "densecode",
        "config": cfg,
        "sent": result.sent,
        "label": result.label,
        "decoded_distribution": result.message_probs,
        "accuracy": result.accuracy,
    }
    if result.counts is not None:
        report["counts"] = {f"{a},{b}": n for (a, b), n in sorted(result.counts.items())}
    return report


_HANDLERS = {
    "state": _cmd_state,
    "sorter": _cmd_sorter,
    "tomography": _cmd_tomography,
    "bell": _cmd_bell,
    "ekert": _cmd_ekert,
    "soba": _cmd_soba,
    "densecode": _cmd_densecode,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oamsim",
        description="Even/odd OAM photonic qubit experiments",
    )
    parser.add_argument("--schema", action="store_true",
                        help="print the report JSON schema and exit")
    parser.add_argument("--circuit", choices=tuple(BUILTIN_CIRCUITS),
                        default=None,
                        help="print a built-in circuit description and exit")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-K", "--truncation", type=int, default=None,
                        help="OAM truncation band |m| <= K (default 8)")
    # Only the commands that sample take --shots and --seed; ekert takes
    # --seed alone, and state and tomography are exact.
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--shots", type=int, default=None,
                         help="number of sampled shots; 0 = analytic")
    sampled.add_argument("--seed", type=int, default=None, help="PRNG seed")
    # Only the commands that build a source from a spectrum take one.
    spectral = argparse.ArgumentParser(add_help=False)
    spectral.add_argument("--spectrum", type=str, default=None,
                          help="'uniform', 'gaussian:SIGMA', 'canonical' or JSON")

    sub = parser.add_subparsers(dest="command")

    # --pump, --pol and --label are on the args only when given.
    p = sub.add_parser("state", parents=[common, spectral], help="emit a source state",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", choices=tuple(STATE_KINDS), default="spdc")
    p.add_argument("--pump", type=int, choices=(0, 1))
    p.add_argument("--pol", choices=(PRODUCT_HH, BELL_PHI_PLUS))
    p.add_argument("--label", type=str)

    p = sub.add_parser("sorter", parents=[common, sampled], help="even/odd sorter run")
    p.add_argument("--m", type=int, default=None, help="single OAM input mode")
    p.add_argument("--state", type=str, default=None, help="input state JSON")

    p = sub.add_parser("tomography", parents=[common],
                       help="Stokes measurements and reconstruction")
    p.add_argument("--state", type=str, required=True)
    p.add_argument("--csv", type=str, default=None,
                   help="also write (setup, port, intensity) rows to this file")

    p = sub.add_parser("bell", parents=[common, sampled, spectral],
                       help="CHSH coincidence run")
    p.add_argument("--theta", type=float, required=True, help="degrees")
    p.add_argument("--theta2", type=float, required=True, help="degrees")
    p.add_argument("--chi", type=float, required=True, help="degrees")
    p.add_argument("--chi2", type=float, required=True, help="degrees")
    p.add_argument("--variant", choices=bell.VARIANTS, default="tunable_bs")

    p = sub.add_parser("ekert", parents=[common, spectral],
                       help="entanglement-based key exchange")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="PRNG seed")
    p.add_argument("--variant", choices=bell.VARIANTS, default="tunable_bs")

    p = sub.add_parser("soba", parents=[common, sampled],
                       help="spin-orbit Bell-state analyzer")
    p.add_argument("--state", type=str, required=True,
                   help="psi+|psi-|phi+|phi- or custom state JSON")

    p = sub.add_parser("densecode", parents=[common, sampled, spectral],
                       help="superdense-coding round trip")
    p.add_argument("--message", type=str, required=True,
                   choices=tuple(sorted(soba.BITS_MESSAGE)))

    return parser


def _env_int(env: dict, name: str, default):
    """Integer config value, read by the package's one whole-number rule."""
    value = env.get(name, default)
    return value if value is None else _whole(value, f"config value {name!r}")


def _fill_defaults(args) -> None:
    """Config-file defaults, applied only to the options the command has."""
    env, options = _env_defaults(), vars(args)
    if args.command == "state":  # drops the options the kind does not read
        unread = [f"--{name}" for name in ("spectrum", "pump", "pol", "label")
                  if name not in STATE_KINDS[args.kind] and options.pop(name, None) is not None]
        if unread:
            raise ValidationError(f"state --kind {args.kind} does not read {', '.join(unread)}")
        options.update(STATE_KINDS[args.kind] | options)  # the kind's defaults
    for name, default in (("truncation", 8), ("shots", 0), ("seed", None)):
        if name in options and options[name] is None:
            options[name] = _env_int(env, name, default)
    if args.truncation < 1:
        raise ValidationError("truncation must satisfy K >= 1")
    if args.truncation > TRUNCATION_LIMIT:
        raise ValidationError(f"truncation {args.truncation} exceeds limit {TRUNCATION_LIMIT}")
    if "spectrum" in options and args.spectrum is None and "spectrum" in env:
        args.spectrum = env["spectrum"] if isinstance(env["spectrum"], str) \
            else json.dumps(env["spectrum"])
    shots = options.get("shots", 0)
    if shots < 0:
        raise ValidationError("shots must be >= 0")
    if options.get("seed") is not None and args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
    if shots > 0 and args.seed is None:
        raise ValidationError("shots > 0 requires --seed")


def _report(argv) -> dict:
    args = build_parser().parse_args(argv)
    if args.schema:
        return REPORT_SCHEMA
    if args.circuit:
        return circuit_to_dict(BUILTIN_CIRCUITS[args.circuit]())
    if not args.command:
        raise ValidationError("no command given (see --help)")
    _fill_defaults(args)
    return _HANDLERS[args.command](args)


def _error(code: str, message: str, status: int) -> int:
    sys.stdout.write(dumps({"error": {"code": code, "message": message}}) + "\n")
    return status


def _internal(exc: Exception) -> int:
    return _error("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


def main(argv=None) -> int:
    try:
        report = _report(argv)
    except SystemExit as exc:  # --help has printed its text
        return int(exc.code or 0)
    except (WrapGuardError, bell.TsirelsonError) as exc:
        return _error("guard", str(exc), EXIT_GUARD)
    except ValueError as exc:
        return _error("validation", str(exc), EXIT_VALIDATION)
    except Exception as exc:
        return _internal(exc)
    try:
        text = dumps(report)
    except Exception as exc:  # jsonfmt's ValueError too: the report is at fault
        return _internal(exc)
    sys.stdout.write(text + "\n")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
