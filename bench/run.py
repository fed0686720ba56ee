"""legscale benchmark: cold-process CLI workloads, timed end to end or traced.

    python3 bench/run.py --workload sweep|tables|eval --seed N --seconds S --trace 0|1

Run from the repository root. Each CLI invocation runs in a fresh
interpreter through bench/shim.py with PYTHONPATH=src, one at a time from
a single client (a closed loop, no threads), because CLI users pay every
cache fill on every call. A pass runs the workload's invocations once in
order; passes repeat while the next one is expected to end within S seconds.

Before each timed invocation the benchmark spawns bench/probe.py, a fixed
stdlib-only job in a fresh interpreter, and one set-up child. Every spawn
is timed in wall seconds from spawn to exit. A shared host runs fresh
processes up to a third slower for minutes at a time, so the end-to-end
times are scaled by PROBE_REF_S / (the median probe time of the run): they
are in reference seconds (unit ref_s), those of a host on which the probe
takes PROBE_REF_S. The probe must be a fresh process: the drift hits
start-up and first-touch memory, and a probe timed inside the long-lived
benchmark process did not follow it. setup_s is scaled the same way but
keeps the unit s, which the BENCHMARK.json format requires. The raw wall
times and the probe times are printed and saved as well (raw_pass_s,
raw_setup_s, probe_s).

--trace 0 reports the end-to-end metrics:
  setup_s              fresh interpreter plus `import legscale.cli`, median
                       over the run's set-up spawns (one per invocation);
  pass_s               sum over the invocations of each one's median
                       spawn-to-exit time over the passes;
  invocation_geomean_s geometric mean of those medians, so every command
                       weighs the same;
  peak_rss_mb          largest child peak RSS of a pass, median over passes;
                       each child reports its own VmHWM (see bench/shim.py).
The per-command times (verify_s, table_a_s, ...) and failed_ratio are
printed by name as well.

--trace 1 alternates untraced passes with passes through bench/traced.py and
reports per function the calls of one pass and its self time as a share of
the traced passes, the verify subjects' self and total shares, growth
exponents from the two-size pairs, and the tracing overhead. A growth
exponent is measured only on the workload that holds its size pair; the
others report it as 0 and print it as not measured, since every per-layer
metric must be a number on every workload.

Every output is checked exactly (bench/checks.py) outside the timed span.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. Results and spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import workloads
from shim import HWM_PREFIX
from traced import LAYERS, POLY_METHODS, VERIFY_SUBJECTS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 150
PROBE_REF_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "pass_s": "ref_s",
    "invocation_geomean_s": "ref_s",
    "peak_rss_mb": "MB",
}


def traced_functions() -> List[str]:
    names = [f"{layer}.{f}" for layer, fs in LAYERS.items() if layer not in ("verify", "cli") for f in fs]
    return sorted(names + [f"polynomials.Poly.{m}" for m in POLY_METHODS])


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in traced_functions():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
    units["polynomials.legendre_bonnet.misses"] = "count"
    for subject in VERIFY_SUBJECTS:
        units[f"verify.{subject}.self_pct"] = "%"
        units[f"verify.{subject}.total_pct"] = "%"
    units["cli.main.self_pct"] = "%"
    for name in workloads.GROWTH_FUNCTIONS:
        units[f"{name}.growth"] = "exponent"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.untraced_pass_s"] = "s"
    units["trace.traced_pass_s"] = "s"
    return units


class Child(NamedTuple):
    """Outcome of one child process."""

    seconds: float
    code: int
    stdout: bytes
    stderr: bytes

    @property
    def rss_mb(self) -> float:
        """Peak RSS the child reported through bench/shim.py."""
        for line in reversed(self.stderr.decode("utf-8", "replace").splitlines()):
            if line.startswith(HWM_PREFIX):
                return int(line[len(HWM_PREFIX):]) / 1024
        raise RuntimeError("bench/shim.py did not report its peak RSS")


def _on_alarm(signum, frame):
    raise TimeoutError


def spawn(cmd: Sequence[str], env: Dict[str, str]) -> Child:
    """Run cmd to completion and time it from spawn to exit.

    The wait blocks in waitpid and a SIGALRM bounds it: Popen.wait(timeout)
    polls with sleeps of up to 50 ms, which would round every time up.
    """
    stdout_path, stderr_path = OUT / "stdout.txt", OUT / "stderr.txt"
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            code = proc.wait()
        except TimeoutError:
            proc.kill()
            code = proc.wait()
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - start
    return Child(seconds, code, stdout_path.read_bytes(), stderr_path.read_bytes())


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, check) -> None:
        self.workload = workload
        self.seed = seed
        self.check = check  # (argv, stdout text) -> None or the reason it is wrong
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures: List[str] = []
        self.setup: List[float] = []
        self.probes: List[float] = []
        self._verified: Dict[int, bytes] = {}
        self._next_invocation = 0

    def time_setup(self) -> float:
        """Wall time of one fresh interpreter importing the CLI."""
        child = spawn([sys.executable, "-c", "import legscale.cli"], self.env)
        if child.code != 0:
            raise RuntimeError(f"`import legscale.cli` failed with exit code {child.code}")
        return child.seconds

    def probe(self) -> float:
        """Wall time of one bench/probe.py child."""
        child = spawn([sys.executable, str(BENCH / "probe.py")], self.env)
        if child.code != 0:
            raise RuntimeError(f"bench/probe.py failed with exit code {child.code}")
        return child.seconds

    def _check(self, index: int, child: Child) -> None:
        self.attempted += 1
        argv = self.workload.invocations[index].argv
        reason = None
        if child.code != 0:
            reason = f"exit code {child.code}"
        elif self._verified.get(index) != child.stdout:
            reason = self.check(argv, child.stdout.decode("utf-8", "replace"))
            if reason is None:
                self._verified[index] = child.stdout
        if reason:
            self.failures.append(f"{' '.join(argv)}: {reason}")

    def run_pass(self) -> List[Child]:
        """One untraced pass, with a probe and a set-up spawn before each invocation."""
        children = []
        for index, inv in enumerate(self.workload.invocations):
            self.probes.append(self.probe())
            self.setup.append(self.time_setup())
            child = spawn([sys.executable, str(BENCH / "shim.py"), *inv.argv], self.env)
            self._check(index, child)
            children.append(child)
        return children

    def run_traced_pass(self) -> Tuple[List[Child], List[dict]]:
        """One pass through bench/traced.py; returns each child and its trace."""
        children, traces = [], []
        for index, inv in enumerate(self.workload.invocations):
            self._next_invocation += 1
            trace_path = OUT / "trace.json"
            cmd = [sys.executable, str(BENCH / "traced.py"), str(trace_path),
                   str(self._next_invocation), *inv.argv]
            child = spawn(cmd, self.env)
            self._check(index, child)
            children.append(child)
            traces.append(json.loads(trace_path.read_text()) if child.code == 0 else {})
        return children, traces


def run_until(deadline: float, one_cycle) -> None:
    """Repeat one_cycle while the next cycle is expected to end by the deadline."""
    while True:
        start = time.perf_counter()
        one_cycle()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def median_times(passes: Sequence[Sequence]) -> List[float]:
    """Per invocation, the median of its `.seconds` over the passes."""
    return [statistics.median(t.seconds for t in times) for times in zip(*passes)]


def end_to_end(runner: Runner, deadline: float) -> Tuple[dict, dict]:
    passes: List[List[Child]] = []
    run_until(deadline, lambda: passes.append(runner.run_pass()))
    probe_s = statistics.median(runner.probes)
    raw = median_times(passes)
    medians = [t * PROBE_REF_S / probe_s for t in raw]
    groups: Dict[str, float] = {}
    for inv, seconds in zip(runner.workload.invocations, medians):
        groups[inv.group] = groups.get(inv.group, 0.0) + seconds
    metrics = {
        "setup_s": statistics.median(runner.setup) * PROBE_REF_S / probe_s,
        "pass_s": sum(medians),
        "invocation_geomean_s": math.exp(statistics.fmean(math.log(t) for t in medians)),
        "peak_rss_mb": statistics.median(
            max((c.rss_mb for c in p if c.code == 0), default=0.0) for p in passes
        ),
    }
    detail = {
        "raw": {
            "raw_pass_s": sum(raw),
            "raw_setup_s": statistics.median(runner.setup),
            "probe_s": probe_s,
        },
        "raw_passes_s": [[c.seconds for c in p] for p in passes],
        "probes_s": runner.probes,
        "commands_s": groups,
    }
    return metrics, detail


def per_layer(runner: Runner, deadline: float) -> Tuple[dict, dict]:
    untraced: List[List[Child]] = []
    traced: List[List[Child]] = []
    traces: List[List[dict]] = []

    def cycle() -> None:
        untraced.append(runner.run_pass())
        children, pass_traces = runner.run_traced_pass()
        traced.append(children)
        traces.append(pass_traces)

    run_until(deadline, cycle)
    traced_ns = sum(c.seconds for p in traced for c in p) * 1e9

    def stat(trace: dict, name: str, field: int) -> int:
        return trace.get("stats", {}).get(name, [0, 0, 0])[field]

    def total(name: str, field: int, passes: Sequence[List[dict]]) -> int:
        return sum(stat(t, name, field) for p in passes for t in p)

    metrics: Dict[str, float] = {}
    for name in traced_functions():
        metrics[f"{name}.calls"] = total(name, 0, traces[:1])
        metrics[f"{name}.self_pct"] = 100 * total(name, 1, traces) / traced_ns
    metrics["polynomials.legendre_bonnet.misses"] = sum(t.get("bonnet_misses", 0) for t in traces[0])
    for subject in VERIFY_SUBJECTS:
        metrics[f"verify.{subject}.self_pct"] = 100 * total(f"verify.{subject}", 1, traces) / traced_ns
        metrics[f"verify.{subject}.total_pct"] = 100 * total(f"verify.{subject}", 2, traces) / traced_ns
    metrics["cli.main.self_pct"] = 100 * total("cli.main", 1, traces) / traced_ns
    not_measured: Dict[str, str] = {}
    for name in workloads.GROWTH_FUNCTIONS:
        pair = runner.workload.growth_pairs.get(name)
        small = large = 0
        if pair:
            small = sum(stat(p[pair[0]], name, 2) for p in traces)
            large = sum(stat(p[pair[1]], name, 2) for p in traces)
        if small and large:
            metrics[f"{name}.growth"] = math.log2(large / small)
        else:
            metrics[f"{name}.growth"] = 0.0
            not_measured[f"{name}.growth"] = (
                "no size pair on this workload" if not pair else "not called at both sizes"
            )
    metrics["trace.untraced_pass_s"] = sum(median_times(untraced))
    metrics["trace.traced_pass_s"] = sum(median_times(traced))
    metrics["trace.overhead_ratio"] = metrics["trace.traced_pass_s"] / metrics["trace.untraced_pass_s"]

    names = sorted({n for p in traces for t in p for n in t.get("stats", {})})
    self_s = {name: total(name, 1, traces) / len(traces) / 1e9 for name in names}
    trace_file = OUT / f"trace-{runner.workload.name}-seed{runner.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": runner.workload.name,
        "seed": runner.seed,
        "span_fields": ["invocation", "span", "parent", "name", "start_ns", "end_ns"],
        "invocations": [
            {k: t[k] for k in ("invocation", "argv", "stats", "bonnet_misses", "dropped_spans")}
            for p in traces for t in p if t
        ],
        "spans": [span for p in traces for t in p for span in t.get("spans", [])],
    }))
    detail = {
        "self_s_per_pass": self_s,
        "not_measured": not_measured,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, detail


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "legscale" / "cli.py").is_file():
        sys.stderr.write(f"error: no legscale sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    import checks  # imports legscale from src/

    workload = workloads.build(args.workload, args.seed)
    runner = Runner(workload, args.seed, checks.check)
    deadline = time.perf_counter() + args.seconds
    try:
        runner.time_setup()  # warm-up, untimed: it may compile the package's bytecode
        if args.trace:
            metrics, detail = per_layer(runner, deadline)
            units = per_layer_units()
        else:
            metrics, detail = end_to_end(runner, deadline)
            units = END_TO_END
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    for inv in workload.invocations:
        print("  legscale " + " ".join(inv.argv))
    for group, value in detail.get("commands_s", {}).items():
        print(f"{group} {value:.4f} ref_s")
    for name, value in detail.get("raw", {}).items():
        print(f"{name} {value:.4f} s (wall, not scaled by the probe)")
    for name, value in detail.get("self_s_per_pass", {}).items():
        print(f"{name}.self_s {value:.6f} s")
    not_measured = detail.get("not_measured", {})
    for name, unit in units.items():
        note = f" (not measured: {not_measured[name]})" if name in not_measured else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    failed = len(runner.failures)
    print(f"failed_ratio {failed / max(runner.attempted, 1):.6g} ratio")
    for reason in runner.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "argv": [list(inv.argv) for inv in workload.invocations],
        "raw_setup_s": runner.setup,
        "failures": runner.failures,
        **detail,
    }, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
