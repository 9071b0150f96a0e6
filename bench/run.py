"""Run one oamsim benchmark workload, check every output and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, bell-sweep, qubit-batch, oracle (see workloads.py and
README.md).  With ``--trace 0`` the run times operations for S seconds (and
at least MIN_OPS operations) with tracing off and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of operations traced,
alternating with as many untraced ones, and reports the per-layer metrics,
the tracing overhead and the import times; a second process repeats the
traced run and its work counts must match exactly.

Lines before the last describe the host and each metric with its unit and
sample count.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

START_NS = time.perf_counter_ns()  # set-up is timed from here

import os  # noqa: E402

# One BLAS thread, set before numpy loads and inherited by child processes,
# so dense matmuls on a small shared host measure the program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 100  # passed operations; p90 needs at least ten samples beyond it
MAX_MEASURE_S = 120.0  # hard stop, so a run ends well within three minutes
SETUP_SAMPLES = 5  # this process plus four set-up-only children
END_TO_END = [("ops_per_s", "1/s"), ("op_ms_p90", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio")]
IMPORT_METRICS = [("import.python_ms", "ms"), ("import.numpy_ms", "ms"),
                  ("import.oamsim_ms", "ms"), ("import.cli_ms", "ms")]
TRACE_METRICS = [("trace.ops", "count"), ("trace.untraced_ops_per_s", "1/s"),
                 ("trace.traced_ops_per_s", "1/s"), ("trace.overhead_pct", "%")]


class Tally:
    """Outcomes and latencies of the operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_ns = 0
        self.latencies_ms: list[float] = []
        self.messages: dict[str, int] = {}

    def add(self, outcome: str, latency_ns: int, message: str) -> None:
        self.attempted += 1
        self.busy_ns += latency_ns
        if outcome == "ok":
            self.latencies_ms.append(latency_ns / 1e6)
            return
        self.failed += 1
        self.wrong += outcome == "wrong"
        key = f"{outcome}: {message}"
        self.messages[key] = self.messages.get(key, 0) + 1

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def rate(self) -> float:
        """Operations passed per second of operation time."""
        if self.ok < 2:
            sys.exit(f"error: {self.ok} of {self.attempted} operations passed; "
                     f"failures: {list(self.messages)[:3]}")
        return self.ok / (self.busy_ns / 1e9)


def attempt(op, tracer=None, op_id=0):
    """Time one operation, then check its output outside the timed interval."""
    from workloads import Crash, WrongOutput

    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter_ns()
    try:
        out = op.run()
        outcome = None
    except Exception as exc:  # noqa: BLE001 - an operation that raises has failed
        outcome = ("crash", f"{op.kind}: {type(exc).__name__}: {exc}")
    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.end_op()
    if outcome is None:
        try:
            op.check(out)
            outcome = ("ok", "")
        except Crash as exc:
            outcome = ("crash", str(exc))
        except WrongOutput as exc:
            outcome = ("wrong", str(exc))
    return outcome[0], t1 - t0, outcome[1]


def set_up(name: str, seed: int):
    """Build the workload and warm it up; returns (workload, wrong outputs)."""
    import workloads

    w = workloads.WORKLOADS[name](seed)
    warm = Tally()
    for op in w.warm_up_ops():
        warm.add(*attempt(op))
    problems = [m for m in warm.messages if m.startswith("wrong")] + w.golden_errors()
    return w, problems


def host_record(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": commit(),
            "seed": seed}


def commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"  # not a git checkout


def child(args, *flags: str) -> str:
    """Run this script again for the same workload and seed; returns its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(flags)} child failed: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def end_to_end(args) -> dict:
    w, problems = set_up(args.workload, args.seed)
    setup_samples = [(time.perf_counter_ns() - START_NS) / 1e9]
    tally = Tally()
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if (elapsed >= args.seconds and tally.ok >= MIN_OPS) or elapsed >= MAX_MEASURE_S:
            break
        tally.add(*attempt(w.op(i)))
        i += 1
    who = resource.RUSAGE_CHILDREN if w.rss_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for _ in range(SETUP_SAMPLES - 1):
        setup_samples.append(float(child(args, "--setup-only")))
    lat = tally.latencies_ms
    metrics = {
        "ops_per_s": (tally.rate(), len(lat)),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[-1], len(lat)),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "ok_ratio": (tally.ok / tally.attempted, tally.attempted),
    }
    print(f"fail_ratio {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} operations)")
    # The median is printed but not a declared metric: on a host that
    # alternates between two speeds it falls between the two latency modes,
    # and it moved by up to 30% between runs of the same code.
    print(f"op_ms_p50 {statistics.median(lat):.6g} ms (n={len(lat)})")
    print_known_defects(w)
    return report([tally], problems, metrics, dict(END_TO_END))


def traced(args, repeat: bool) -> dict:
    """Per-layer metrics from a traced pass, and its overhead against an untraced one."""
    from tracing import LAYER_METRICS, Tracer

    w, problems = set_up(args.workload, args.seed)
    cycles, length = w.trace_cycles, len(w.cycle)
    n_ops = cycles * length
    plain, tally, tracer = Tally(), Tally(), Tracer()
    # Untraced and traced chunks alternate, so both see the same host load.
    # The untraced chunks run other inputs of the same kinds (indices from
    # n_ops on), so no traced operation repeats the one just before it.
    chunk = max(1, cycles // 10) * length
    for start in range(0, n_ops, chunk):
        stop = min(start + chunk, n_ops)
        for i in range(start, stop):
            plain.add(*attempt(w.trace_ops(n_ops + i)))
        tracer.install()
        try:
            for i in range(start, stop):
                tally.add(*attempt(w.trace_ops(i), tracer, i))
        finally:
            tracer.uninstall()
    own = tracer.self_times()
    layers = tracer.metrics(own)
    counts = {m: layers[m] for m, unit in LAYER_METRICS if unit != "ms"}
    if repeat:
        return {"counts": counts}
    gap = tracer.self_sum_gap_ns(own)
    if gap:
        problems.append(f"self times miss their operation's duration by {gap} ns")
    again = json.loads(child(args, "--repeat-counts"))["counts"]
    diff = {m: (v, again.get(m)) for m, v in counts.items() if again.get(m) != v}
    if diff:
        problems.append(f"work counts differ between two traced runs: {diff}")
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")

    untraced_rate, traced_rate = plain.rate(), tally.rate()
    metrics = {m: (v, tally.attempted) for m, v in layers.items()}
    metrics.update(import_times(args.seed))
    metrics.update({
        "trace.ops": (n_ops, 1),
        "trace.untraced_ops_per_s": (untraced_rate, plain.attempted),
        "trace.traced_ops_per_s": (traced_rate, tally.attempted),
        "trace.overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0, 2),
    })
    units = dict(LAYER_METRICS + IMPORT_METRICS + TRACE_METRICS)
    print_known_defects(w)
    return report([plain, tally], problems, metrics, units)


def print_known_defects(w) -> None:
    """Probe the workload's known program defects, after all timing is done.

    A defect that still reproduces is printed, not counted as a failed
    operation: it is a fixed property of the program, not of the run.
    """
    for name, detail in w.known_defects():
        print(f"known_defect {name}: " + (f"reproduced: {detail}" if detail else "fixed"))


def import_times(seed: int) -> dict:
    """Interpreter start-up and import times of `python -X importtime -m oamsim.cli`.

    Run once for the first generated instance of each valid corpus command.
    numpy and oamsim are their cumulative import times; cli adds the
    top-level imports that run after the oamsim package, i.e. cli.py's own.
    """
    import workloads

    env = workloads.cli_env()
    startup, numpy_ms, oamsim_ms, cli_ms = [], [], [], []
    seen = set()
    for case in workloads.cli_corpus(seed):
        if not case.valid or case.argv[0] in seen:
            continue
        seen.add(case.argv[0])
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        startup.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "oamsim.cli",
                               *case.argv], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        tops, cumulative = [], {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line.split("|")
            cumulative.setdefault(name.strip(), int(cum))
            if not name[1:].startswith(" "):
                tops.append((name.strip(), int(cum)))
        names = [n for n, _ in tops]
        after = sum(c for _, c in tops[names.index("oamsim") + 1:])
        numpy_ms.append(cumulative["numpy"] / 1e3)
        oamsim_ms.append(cumulative["oamsim"] / 1e3)
        cli_ms.append((cumulative["oamsim"] + after) / 1e3)
    return {name: (statistics.median(values), len(values)) for name, values in
            zip([m for m, _ in IMPORT_METRICS], (startup, numpy_ms, oamsim_ms, cli_ms))}


def report(tallies: list[Tally], problems: list[str], metrics: dict, units: dict) -> dict:
    messages: dict[str, int] = {}
    for tally in tallies:
        for message, n in tally.messages.items():
            messages[message] = messages.get(message, 0) + n
    for message, n in sorted(messages.items(), key=lambda kv: -kv[1])[:5]:
        print(f"failed x{n}, {message}")
    if len(messages) > 5:
        print(f"... and {len(messages) - 5} other failure messages")
    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, n) in metrics.items():
        print(f"{name} {value:.6g} {units[name]} (n={n})")
    return {
        "correct": not problems and not any(t.wrong for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }


def declared_metrics(trace: bool) -> list[str] | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "bell-sweep", "qubit-batch", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeat-counts", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "oamsim" / "__init__.py").is_file():
        print(f"error: no oamsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        set_up(args.workload, args.seed)
        print((time.perf_counter_ns() - START_NS) / 1e9)
        return 0
    if args.repeat_counts:
        print(json.dumps(traced(args, repeat=True)))
        return 0

    print("host " + json.dumps(host_record(args.seed)))
    result = traced(args, repeat=False) if args.trace else end_to_end(args)
    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        print(f"error: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
