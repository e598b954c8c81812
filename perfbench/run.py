"""seqdecomp benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload encoders --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory and nothing needs installing.  One client drives
the ``seqdecomp`` CLI in a closed loop, first as subprocesses (``python3 -m
seqdecomp ...``, one at a time) and then in-process through ``cli.main``.
Every response is checked against answers computed independently of the
library (see ``gate.py``).  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  ``--smoke`` runs a few requests
per workload.  Times are CPU seconds scaled to a reference machine speed
measured alongside the work (``speed.py``).  See ``NOTES.md`` for the
design and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

# One BLAS thread per process unless the caller chose otherwise, so that the
# CPU time the metrics use is the work of one thread (waiting BLAS threads
# spin and would count), and the closed loop keeps to one CPU at a time.
# Children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread setting)

import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 150.0
MIN_SOLVE_PASSES = 3

HIGH = workloads.HIGH_PERCENTILE
END_TO_END = {
    "setup_s": "s",
    "cli_p50_s": "s",
    f"cli_p{HIGH}_s": "s",
    "cli_ops_s": "1/s",
    "solve_p50_s": "s",
    f"solve_p{HIGH}_s": "s",
    "suite_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "oplib.load_s": "s",
    "oplib.dense_bytes": "B",
    "mps.canonicalize_s": "s",
    "mps.calls_per_request": "count",
    "mps.max_bond_dim": "count",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_flops": "flop",
    "linalg.regroup_s": "s",
    "linalg.complete_calls": "count",
    "linalg.complete_s": "s",
    "linalg.complete_max_side": "count",
    "sequencer.criterion_s": "s",
    "sequencer.assemble_s": "s",
    "sequencer.verify_s": "s",
    "sequencer.verify_inputs": "count",
    "sequencer.simulate_s": "s",
    "sequencer.verify_error_max": "norm",
    "formats.write_s": "s",
    "formats.write_bytes": "B",
    "formats.read_s": "s",
    "formats.read_bytes": "B",
    "trace.overhead_s": "s",
}


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile: the mean of the
    order statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.
    It varies less from run to run than any single order statistic."""
    x = np.sort(np.fromiter(values, dtype=float))
    n, p = len(x), pct / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    pdf = np.exp((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid) - log_norm)
    cdf = np.concatenate(([0.0], np.cumsum(pdf), [pdf.sum()]))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 20001), cdf))
    return float(weights @ x)


class Child(NamedTuple):
    code: int
    wall: float  # s, spawn to exit
    cpu: float  # s, user + system time of the child
    rss_kb: int  # max resident set size


class Spawner:
    """Runs children one at a time through ``spawner.py`` (see there why)."""

    def __init__(self, env):
        argv = [sys.executable, str(HERE / "spawner.py"), str(ROOT), str(CHILD_TIMEOUT_S)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def run(self, argv, stdout_path: Path, stderr_path: Path) -> Child:
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        return Child(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def pin_to_one_cpu() -> tuple[int, int | None]:
    """Keep this process, the spawner and every child on one CPU, the one
    where the speed reference is sampled.  Returns the number of CPUs this
    process could use before, and the CPU chosen (None where the platform
    has no affinity call)."""
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1, None
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(seed: int, nproc: int, cpu_pinned: int | None) -> dict:
    """Machine and library stamp attached to every result."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    threads = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in threads},
        "nproc": nproc,
        "pinned_cpu": cpu_pinned,
        "cpu": cpu,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout's own git directory, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seqdecomp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Bench:
    """One benchmark run: a workload, its expectations and the gate tallies."""

    def __init__(self, wl: workloads.Workload, expect: dict, spawner: Spawner,
                 kernel_ref: speed.Speed, child_ref: speed.Speed):
        self.wl = wl
        self.expect = expect
        self.spawner = spawner
        self.kernel_ref = kernel_ref  # scales in-process times
        self.child_ref = child_ref  # scales child processes' times
        self.raw: list[dict] = []  # per pass: rid -> (cpu, start, end), unscaled
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict[int, bytes] = {}
        self.out_path = wl.workdir / "stdout.txt"
        self.err_path = wl.workdir / "stderr.txt"

    def _record(self, req, rc, stdout: bytes, stderr: bytes) -> None:
        self.attempted += 1
        problems, fingerprint = gate.check(req, self.expect[req.rid], rc, stdout, stderr)
        first = self.fingerprints.setdefault(req.rid, fingerprint)
        if first != fingerprint:
            problems.append("output differs from an earlier run of the same request")
        if problems:
            self.failures.append(f"request {req.rid} ({req.label()[:80]}): {'; '.join(problems)}")

    def _fresh_output(self, req) -> None:
        if req.output is not None:
            Path(req.output).unlink(missing_ok=True)

    def _scaled(self, measured: dict[int, tuple[float, float, float]],
                ref: speed.Speed) -> dict[int, float]:
        """Per-request CPU s at the reference speed, from (cpu, start, end)."""
        ref.sample()  # a sample after the last request
        self.raw.append(measured)
        return {rid: ref.scale(*m) for rid, m in measured.items()}

    def cli_pass(self) -> tuple[dict[int, float], dict[int, float], float]:
        """One subprocess per request: per-request CPU s at the reference
        speed, wall s, and peak RSS in MB."""
        measured, wall, peak = {}, {}, 0.0
        for req in self.wl.requests:
            self._fresh_output(req)
            argv = [sys.executable, "-m", "seqdecomp", *req.argv]
            self.child_ref.tick()
            start = time.perf_counter()
            child = self.spawner.run(argv, self.out_path, self.err_path)
            measured[req.rid] = (child.cpu, start, time.perf_counter())
            wall[req.rid] = child.wall
            peak = max(peak, child.rss_kb / 1024.0)
            self._record(req, child.code, self.out_path.read_bytes(), self.err_path.read_bytes())
        return self._scaled(measured, self.child_ref), wall, peak

    def solve_pass(self, main, tracer=None) -> tuple[dict[int, float], dict[int, float]]:
        """``cli.main(argv)`` per request with stdout and stderr captured:
        per-request CPU s at the reference speed, and wall s."""
        measured, wall = {}, {}
        for req in self.wl.requests:
            self._fresh_output(req)
            self.kernel_ref.tick()
            out, err = io.StringIO(), io.StringIO()
            rc = None
            if tracer is not None:
                tracer.request = req.rid
                root = tracer.begin("main", "cli")
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = main(list(req.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                err.write(traceback.format_exc())
            finally:
                end = time.perf_counter()
                measured[req.rid] = (time.process_time() - start_cpu, start, end)
                wall[req.rid] = end - start
                if tracer is not None:
                    tracer.end(root)
            self._record(req, rc, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))
        return self._scaled(measured, self.kernel_ref), wall


def per_request_median(passes: list[dict[int, float]]) -> list[float]:
    return [statistics.median(p[rid] for p in passes) for rid in passes[0]]


def timed_child(spawner: Spawner, ref: speed.Speed, argv, out: Path, err: Path,
                what: str) -> tuple[Child, tuple[float, float, float]]:
    """Run one child, failing unless it exits 0.  Returns the child and its
    (cpu, start, end) for ``ref.scale``; the caller samples ``ref`` after
    its last child."""
    ref.tick()
    start = time.perf_counter()
    child = spawner.run(argv, out, err)
    end = time.perf_counter()
    if child.code != 0:
        detail = err.read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"{what} exited {child.code}: {detail.strip()[-500:]}")
    return child, (child.cpu, start, end)


def child_task(spawner: Spawner, workdir: Path):
    """The child-process speed reference: returns a function that runs one
    ``python3 -c "import numpy"`` child and returns its slowdown."""
    argv = [sys.executable, *speed.CHILD_ARGV]

    def run() -> float:
        child = spawner.run(argv, workdir / "ref.out", workdir / "ref.err")
        if child.code != 0:
            raise RuntimeError(f"speed reference {argv} exited {child.code}")
        return child.cpu / speed.CHILD_NOMINAL_S

    return run


def import_cost_s(spawner: Spawner, ref: speed.Speed, workdir: Path) -> float:
    """Median over interleaved pairs of fresh ``import seqdecomp`` minus
    fresh ``import numpy``, each in a new interpreter (CPU s at the
    reference speed)."""
    pairs = []
    for _ in range(IMPORT_REPEATS):
        pairs.append([
            timed_child(spawner, ref, [sys.executable, "-c", f"import {module}"],
                        workdir / "import.out", workdir / "import.err",
                        f"fresh 'import {module}'")[1]
            for module in ("numpy", "seqdecomp")
        ])
    ref.sample()
    return statistics.median(ref.scale(*b) - ref.scale(*a) for a, b in pairs)


def setups(args, spawner: Spawner, ref: speed.Speed, workdir: Path) -> tuple[list, list]:
    """Run the set-up script in a fresh interpreter, several times: CPU s at
    the reference speed, and wall s, of each."""
    argv = [sys.executable, str(HERE / "prepare.py"), args.workload, str(args.seed), str(workdir)]
    if args.smoke:
        argv.append("--smoke")
    repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
    runs = [timed_child(spawner, ref, argv, workdir / "setup.out", workdir / "setup.err",
                        "set-up") for _ in range(repeats)]
    ref.sample()
    return [ref.scale(*m) for _, m in runs], [child.wall for child, _ in runs]


def run_untraced(args, bench: Bench, main, setup_s: tuple[list, list]) -> tuple[dict, dict]:
    start = time.perf_counter()
    # One subprocess pass: at 40 requests of 0.2-0.4 s each, with the speed
    # reference's children, it already takes about half of a 30 s run.
    cli_cpu, cli_wall, peak = bench.cli_pass()

    bench.solve_pass(main)  # warm-up
    solve_cpu, solve_wall = [], []
    while True:
        t0 = time.perf_counter()
        cpu, wall = bench.solve_pass(main)
        solve_cpu.append(cpu)
        solve_wall.append(wall)
        now = time.perf_counter()
        if args.smoke or (
            len(solve_cpu) >= MIN_SOLVE_PASSES and now - start + (now - t0) > args.seconds
        ):
            break
    solve_med = per_request_median(solve_cpu)
    metrics = {
        "setup_s": statistics.median(setup_s[0]),
        "cli_p50_s": percentile(cli_cpu.values(), 50),
        f"cli_p{HIGH}_s": percentile(cli_cpu.values(), HIGH),
        "cli_ops_s": len(cli_cpu) / sum(cli_cpu.values()),
        "solve_p50_s": percentile(solve_med, 50),
        f"solve_p{HIGH}_s": percentile(solve_med, HIGH),
        "suite_s": statistics.median(sum(p.values()) for p in solve_cpu),
        "peak_rss_mb": peak,
    }
    # the same figures in wall time, printed for reference only
    solve_wmed = per_request_median(solve_wall)
    info = {
        "solve_passes": len(solve_cpu),
        "wall": {
            "setup_s": statistics.median(setup_s[1]),
            "cli_p50_s": percentile(cli_wall.values(), 50),
            f"cli_p{HIGH}_s": percentile(cli_wall.values(), HIGH),
            "solve_p50_s": percentile(solve_wmed, 50),
            f"solve_p{HIGH}_s": percentile(solve_wmed, HIGH),
            "suite_s": statistics.median(sum(p.values()) for p in solve_wall),
        },
        "per_request": {
            "cli_cpu": cli_cpu, "cli_wall": cli_wall,
            "solve_cpu": solve_cpu, "solve_wall": solve_wall,
        },
    }
    return metrics, info


def run_traced(args, bench: Bench, main, package) -> tuple[dict, dict]:
    import_s = import_cost_s(bench.spawner, bench.child_ref, bench.wl.workdir)
    cli_times, _, _ = bench.cli_pass()
    bench.solve_pass(main)  # warm-up
    untraced, _ = bench.solve_pass(main)
    tracer = tracing.Tracer()
    traced, layers = [], []
    n = len(bench.wl.requests)
    with tracer.installed(package):
        for _ in range(2):
            first = len(tracer.spans)
            start = time.perf_counter()
            traced.append(bench.solve_pass(main, tracer)[0])
            # span times are raw CPU s; bring them to the reference speed
            factor = bench.kernel_ref.factor_between(start, time.perf_counter())
            layers.append(tracing.layer_metrics(tracer.spans, first, n, factor))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")  # raw CPU s

    a, b = layers
    mismatched = [k for k in tracing.STABLE_COUNTS if a[k] != b[k]]
    metrics = {}
    for key in PER_LAYER:
        if key in a:
            metrics[key] = (a[key] + b[key]) / 2 if PER_LAYER[key] == "s" else a[key]
    metrics["cli.import_s"] = import_s
    metrics["cli.startup_s"] = statistics.median(cli_times[r] - untraced[r] for r in untraced)
    suite_traced = statistics.mean(sum(t.values()) for t in traced)
    metrics["trace.overhead_s"] = suite_traced - sum(untraced.values())
    info = {
        "count_mismatches": mismatched,
        "traced_s": (a["traced_s"] + b["traced_s"]) / 2,
        "wide_dominant_share": a["wide_dominant_share"],
        "self_by_layer": {k[5:-2]: (a[k] + b[k]) / 2 for k in a if k.startswith("self.")},
        "spans_per_pass": a["trace.spans"],
    }
    return metrics, info


def predictions(workload: str, metrics: dict, info: dict) -> list[str]:
    """The workload-design claims that one traced run can check."""
    total = info["traced_s"]
    out = []
    if workload == "wide":
        share = info["wide_dominant_share"]
        out.append(("oplib+mps+linalg+criterion+verify are most of the traced time",
                    share > 0.5, f"share {share:.2f}"))
    if workload == "encoders":
        share = metrics["sequencer.criterion_s"] / total
        out.append(("sequencer.criterion_s is negligible", share < 0.02, f"share {share:.4f}"))
    if workload == "replay":
        calls = metrics["mps.calls_per_request"]
        out.append(("mps.calls_per_request is 0", calls == 0, f"value {calls}"))
    return [f"prediction [{'holds' if ok else 'FAILS'}] {what}: {detail}" for what, ok, detail in out]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few requests, one pass each")
    p.add_argument(
        "--corrupt-expectation",
        action="store_true",
        help="gate self-test: expect a wrong exit code from the first request",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, cpu_pinned = pin_to_one_cpu()
    # SIGTERM unwinds like an exception, so the cleanup below still runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "seqdecomp" / "__init__.py").is_file():
        print(f"perfbench: no seqdecomp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqdecomp
    import seqdecomp.cli

    if Path(seqdecomp.__file__).resolve().parent != SRC / "seqdecomp":
        print(f"perfbench: seqdecomp was imported from {seqdecomp.__file__}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # a fixed-width name keeps every argv the same length from run to run
    workdir = WORK / f"{args.workload}-{os.getpid():08d}"
    workdir.mkdir(parents=True)
    spawner = Spawner(env)
    try:
        return _run(args, spawner, workdir, seqdecomp, environment(args.seed, nproc, cpu_pinned))
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, spawner: Spawner, workdir: Path, package, stamp: dict) -> int:
    wl = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
    child_ref = speed.Speed(child_task(spawner, workdir), speed.CHILD_INTERVAL_S)
    setup_s = setups(args, spawner, child_ref, workdir)
    expect = gate.expectations(wl)
    if args.corrupt_expectation:
        expect[wl.requests[0].rid].exit_code = 3
    kernel_ref = speed.Speed(speed.kernel_task(workloads.KERNEL_WEIGHTS[args.workload]),
                             speed.KERNEL_INTERVAL_S)
    bench = Bench(wl, expect, spawner, kernel_ref, child_ref)
    main = package.cli.main
    if args.trace:
        metrics, info = run_traced(args, bench, main, package)
        units = PER_LAYER
    else:
        metrics, info = run_untraced(args, bench, main, setup_s)
        units = END_TO_END
    info["speed"] = {"kernel": kernel_ref.summary(), "child": child_ref.summary()}
    info["per_request"] = dict(info.get("per_request", {}), raw=bench.raw,
                               kernel=list(zip(kernel_ref.times, kernel_ref.slowdown)),
                               child=list(zip(child_ref.times, child_ref.slowdown)))
    n = len(wl.requests)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n} requests per pass, closed loop, one client; "
          f"{json.dumps({k: v for k, v in info.items() if k != 'per_request'})}")
    for key, unit in units.items():
        print(f"{key} {metrics[key]:.6g} {unit}")
    fail_rate = len(bench.failures) / bench.attempted
    print(f"fail_rate {fail_rate:.6g} ratio ({len(bench.failures)} failed of {bench.attempted} attempted)")
    correct = not bench.failures
    if args.trace:
        mismatched = info["count_mismatches"]
        print(f"count self-check: {'identical' if not mismatched else 'MISMATCH ' + ', '.join(mismatched)}")
        correct = correct and not mismatched
        for line in predictions(args.workload, metrics, info):
            print(line)
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    print(f"environment {json.dumps(stamp)}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, info=info,
                  environment=stamp, fail_rate=fail_rate, failures=bench.failures)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
