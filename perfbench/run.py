"""Time-to-verdict benchmark for the fusionkit command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--golden PATH]

Run from the root of a fusionkit checkout; the package is taken from
``src/``.  Each workload is a fixed list of ``python -m fusionkit.cli``
invocations.  Every invocation runs in a fresh interpreter, because users
pay cold caches on every CLI call, and the invocations run one at a time
from this process: a closed loop with one client and at most one child.

With ``--trace 0`` the run repeats untraced passes over the workload for
about ``--seconds`` and reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced passes with passes through ``traced.py`` and reports
per-layer metrics.  Every invocation's output is checked against
``golden.json``; on ``variety`` a negative control must also fail.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from traced import LAYERS, MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
INVOCATION_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0          # the whole run must end well within 180 s
SETUP_PROBES = 15
THETA_VALUE_RTOL = 1e-9

# Reported times are at a fixed reference speed.  The shared 2-core VM this
# benchmark was written on changes speed in steps of up to 2x that last from
# seconds to minutes (one invocation took 1.4-2.8 s back to back), which no
# run length averages out.  So every timed child is bracketed by runs of this
# fixed CPU-bound script, and its times are scaled by REFERENCE_S over the
# mean of the two reference times around it.  There, the spread of medians
# of repeated runs fell from 18 % to 3 % for a 2 s invocation and from 25 %
# to 9 % for a 4.5 s one.  REFERENCE_S is about the script's time on that VM,
# so scaled times read as seconds there.  Raw seconds are printed too.
REFERENCE_S = 0.2
REFERENCE_CODE = """\
import cmath
from fractions import Fraction
total = Fraction(0)
for i in range(1, 12000):
    total += Fraction(i % 7, i % 5 + 1) * (i % 3)
counts = {}
for i in range(120000):
    key = (i % 1000, i % 7)
    counts[key] = counts.get(key, 0) + 1
z = 0j
for i in range(60000):
    z += cmath.exp(1j * i / 977)
"""

# setup_s probes are import-bound, and when the VM slows down they slow less
# than the CPU-bound script above, so scaling by it leaves a speed-dependent
# error.  They are scaled instead by a fresh interpreter that imports what the
# CLI imports from outside fusionkit.  Over one 150 s stretch on that VM the
# spread of 15-probe medians was 12 % raw, 7 % scaled by the CPU-bound script
# and 3 % scaled by this one.
IMPORT_REFERENCE_S = 0.12
IMPORT_REFERENCE_CODE = "import argparse, cmath, fractions, functools, itertools, json, numpy"

# Each workload: the algebras its invocations build (for setup_s) and the
# CLI invocations, as templates filled with the seed.
WORKLOADS = {
    "variety": {
        "algebras": [("A", 3), ("G", 2)],
        "invocations": [
            "verify A3 --k 1 --suite identity",
            "verify G2 --k 2 --suite identity",
        ],
        "negative_control": True,
    },
    "generic": {
        "algebras": [("A", 2)],
        "invocations": ["verify A2 --k inf --suite identity --seed {seed}"],
        # Residuals here scale with the characters' size at the seeded
        # points, which is large near a wall, so the headroom of one seed
        # says little about another (seeds 0-39 span 3.3-5.1 decades).
        # The headroom is read from one more, untimed pass at this seed.
        "headroom_seed": 0,
    },
    "rings": {
        "algebras": [("A", 2), ("D", 5)],
        "invocations": [
            "verify A2 --k 6 --suite bounds",
            "verify A2 --k 6 --suite conjugacy",
            "verify A2 --k 4 --suite csmodel --seed {seed}",
            "fuse D5 --k 1 --mu 1,0,0,0,0 --nu 0,0,0,1,0 --oracle",
        ],
    },
    "theta": {
        "algebras": [("A", 3)],
        "invocations": [
            "verify A3 --k 1 --suite theta",
            "theta A3 --k 1 --char --mu 1,0,0 --tau 0+1i --u 0.05,0.02,0.01",
        ],
    },
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Child:
    code: int | None          # None when killed on timeout
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    scale: float = 1.0        # factor to reference speed, see REFERENCE_S

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def run_child(argv, timeout: float) -> Child:
    """Run argv to exit, collecting both pipes; time from spawn to exit and
    take the child's own peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    buffers = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    killed = False
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        selector.register(proc.stderr, selectors.EVENT_READ)
        deadline = start + timeout
        while selector.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd].extend(chunk)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = buffers[proc.stdout.fileno()].decode()
    err = buffers[proc.stderr.fileno()].decode()
    proc.stdout.close()
    proc.stderr.close()
    return Child(None if killed else proc.returncode, out, err, wall,
                 usage.ru_maxrss / 1024.0)


def cli_argv(template: str, seed: int, traced: bool) -> list:
    args = template.format(seed=seed).split()
    if traced:
        return [sys.executable, str(HERE / "traced.py")] + args
    return [sys.executable, "-m", "fusionkit.cli"] + args


# ---------------------------------------------------------------------------
# verdicts


def observe(template: str, child: Child) -> tuple[dict, list]:
    """The verdict-bearing part of one invocation's output, and the
    (tolerance, max_abs_residual) pair of each verify case."""
    record = {"exit": child.code}
    residuals = []
    command = template.split()[0]
    lines = [line for line in child.stdout.splitlines() if line.strip()]
    if command == "verify":
        reports = [json.loads(line) for line in lines]
        record["cases"] = [[r["case_id"], r["passed"], r["points_checked"]] for r in reports]
        residuals = [(r["tolerance"], r["max_abs_residual"]) for r in reports]
    elif command == "fuse":
        result = json.loads(lines[-1])
        record["table"] = [[e["weight"], e["coefficient"]] for e in result["table"]]
        record["oracle_matches"] = result.get("oracle_matches")
    elif command == "theta":
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        record["value"] = [float(row["value_re"]), float(row["value_im"])]
    return record, residuals


def matches_golden(observed: dict, golden: dict) -> bool:
    if "value" in golden:
        got, want = complex(*observed["value"]), complex(*golden["value"])
        if abs(got - want) > THETA_VALUE_RTOL * max(1.0, abs(want)):
            return False
        observed = {k: v for k, v in observed.items() if k != "value"}
        golden = {k: v for k, v in golden.items() if k != "value"}
    return observed == golden


def check_invocation(template: str, child: Child, golden: dict):
    """(ok, numeric residual pairs) for one invocation."""
    if child.code is None:
        return False, []
    try:
        observed, residuals = observe(template, child)
    except (ValueError, KeyError, IndexError):
        return False, []
    return matches_golden(observed, golden[template]), residuals


def headroom(residuals) -> float:
    """min log10(tolerance / residual) over numeric cases, in decades.
    Exact integer reports (tolerance 0) are skipped; an exact zero residual
    counts as the smallest normal double, so the value stays finite.  With
    no numeric case at all (every invocation failed) it is 0."""
    return min((math.log10(tol / max(res, sys.float_info.min))
                for tol, res in residuals if tol > 0), default=0.0)


def run_negative_control(timeout: float) -> bool:
    child = run_child([sys.executable, str(HERE / "negative_control.py")], timeout)
    if child.code != 0:
        return False
    try:
        report = json.loads(child.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        return False
    return report.get("passed") is False and report.get("points_checked") == 125


# ---------------------------------------------------------------------------
# environment


def read_proc(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def load_average() -> list:
    return [float(x) for x in read_proc("/proc/loadavg").split()[:3]]


def environment() -> dict:
    cpuinfo = read_proc("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": models[0] if models else None,
        "nproc": len(models) or None,
    }


# ---------------------------------------------------------------------------
# measurement


class Run:
    """Pass bookkeeping for one benchmark run."""

    def __init__(self, name: str, seed: int, golden: dict):
        self.seed = seed
        self.golden = golden
        self.spec = WORKLOADS[name]
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.residuals = []
        self.passes = {False: [], True: []}   # traced? -> passes -> children
        self.last_reference = {}              # reference code -> its last time

    def timeout(self) -> float:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        return max(1.0, min(INVOCATION_TIMEOUT_S, left))

    def reference(self, code: str) -> float:
        child = run_child([sys.executable, "-c", code], self.timeout())
        if child.code != 0:
            raise RuntimeError(f"reference script failed: {child.stderr.strip()}")
        return child.wall_s

    def measure(self, argv, code=REFERENCE_CODE, seconds=REFERENCE_S) -> Child:
        """Run argv between two runs of the reference script code, whose time
        at reference speed is seconds, and set its scale factor.  The
        reference after one child is the one before the next."""
        before = self.last_reference.get(code) or self.reference(code)
        child = run_child(argv, self.timeout())
        after = self.last_reference[code] = self.reference(code)
        child.scale = 2 * seconds / (before + after)
        return child

    def setup_seconds(self) -> tuple[float, float]:
        """Median time, scaled and raw, of a fresh interpreter that imports
        the CLI, builds the workload's algebras and exits."""
        builds = "; ".join(f"build_algebra({s!r}, {r})" for s, r in self.spec["algebras"])
        code = f"import fusionkit.cli; from fusionkit.algebra import build_algebra; {builds}"
        probes = []
        for _ in range(SETUP_PROBES):
            child = self.measure([sys.executable, "-c", code],
                                 IMPORT_REFERENCE_CODE, IMPORT_REFERENCE_S)
            if child.code != 0:
                raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
            probes.append(child)
        return (statistics.median(c.scaled_s for c in probes),
                statistics.median(c.wall_s for c in probes))

    def one_pass(self, traced: bool, seed: int | None = None) -> list:
        """Run every invocation once; return (child, residuals) pairs."""
        results = []
        for template in self.spec["invocations"]:
            child = self.measure(cli_argv(template, self.seed if seed is None else seed, traced))
            ok, residuals = check_invocation(template, child, self.golden)
            if traced:
                ok = ok and parse_trace(child.stderr) is not None
            self.attempted += 1
            self.failed += not ok
            results.append((child, residuals))
        return results

    def timed_pass(self, traced: bool) -> float:
        """One pass whose children count toward the metrics; returns its
        elapsed time, reference runs included."""
        start = time.perf_counter()
        results = self.one_pass(traced)
        self.passes[traced].append([child for child, _ in results])
        if not traced:
            self.residuals = [r for _, residuals in results for r in residuals]
        return time.perf_counter() - start

    def headroom(self) -> tuple[float, float]:
        """residual_headroom as reported, and at the run's own seed."""
        own = headroom(self.residuals)
        seed = self.spec.get("headroom_seed")
        if seed is None or seed == self.seed:
            return own, own
        return headroom([r for _, rs in self.one_pass(False, seed) for r in rs]), own

    def negative_control(self):
        if self.spec.get("negative_control"):
            self.attempted += 1
            self.failed += not run_negative_control(self.timeout())


def parse_trace(stderr: str):
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


def per_invocation_median(passes, value) -> list:
    """For each invocation, the median over passes of value(child)."""
    return [statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0]))]


def end_to_end(run: Run, seconds: float) -> dict:
    setup, raw_setup = run.setup_seconds()
    measure_start = time.perf_counter()
    pass_times = [run.timed_pass(traced=False)]
    while (time.perf_counter() - measure_start) + statistics.median(pass_times) <= seconds:
        pass_times.append(run.timed_pass(traced=False))
    run.negative_control()
    room, own_room = run.headroom()
    print(f"residual_headroom at --seed {run.seed}: {own_room:.6g} decades")
    untraced = run.passes[False]
    wall = sum(per_invocation_median(untraced, lambda c: c.scaled_s))
    raw_wall = sum(per_invocation_median(untraced, lambda c: c.wall_s))
    print(f"raw seconds: wall {raw_wall:.6g}, setup {raw_setup:.6g}")
    rss = max(per_invocation_median(untraced, lambda c: c.maxrss_mb))
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "residual_headroom": (room, "decades"),
        "passed_share": (1.0 - run.failed / run.attempted, "ratio"),
    }


def sum_traces(children) -> dict | None:
    """Add the trace records of one pass's invocations together, with times
    scaled to reference speed.  None if any invocation left no trace."""
    total = {"calls": {}, "self_s": {}, "local_s": {}, "counters": {},
             "eval_D_cache": {}, "root_s": 0.0}
    for child in children:
        trace = parse_trace(child.stderr)
        if trace is None:
            return None
        for group in ("calls", "self_s", "local_s", "counters", "eval_D_cache"):
            scale = child.scale if group in ("self_s", "local_s") else 1
            for key, value in trace[group].items():
                total[group][key] = total[group].get(key, 0) + value * scale
        total["root_s"] += trace["root_s"] * child.scale
    return total


def layer_metrics(total: dict) -> dict:
    calls, self_s, local_s = total["calls"], total["self_s"], total["local_s"]
    metrics = {}
    for layer in LAYERS:
        keys = [k for k in calls if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(self_s[k] for k in keys), "s")
        metrics[f"{layer}.calls"] = (sum(calls[k] for k in keys), "count")
    cache = total["eval_D_cache"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics.update({
        "algebra.orbit_elements": (total["counters"]["algebra.orbit_elements"], "count"),
        "algebra.weyl_words_applied": (calls.get("algebra.apply_word", 0), "count"),
        "algebra.pairings": (calls.get("algebra.inner_product", 0), "count"),
        "weights.weight_system.calls": (calls.get("weights.weight_system", 0), "count"),
        "weights.weyl_dimension.calls": (calls.get("weights.weyl_dimension", 0), "count"),
        "characters.eval_D.calls": (calls.get("characters.eval_D", 0), "count"),
        "characters.eval_D.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "characters.eval_char.calls": (calls.get("characters.eval_char", 0), "count"),
        "fusion.tensor_decompose.calls": (calls.get("fusion.tensor_decompose", 0), "count"),
        "fusion.fuse_level_k.calls": (calls.get("fusion.fuse_level_k", 0), "count"),
        "fusion.verlinde_table.self_s": (local_s.get("fusion.verlinde_table", 0.0), "s"),
        "csmodel.s_operator.calls": (calls.get("csmodel.s_operator", 0), "count"),
        "csmodel.s_operator.self_s": (local_s.get("csmodel.s_operator", 0.0), "s"),
        "csmodel.primary_state.calls": (calls.get("csmodel.primary_state", 0), "count"),
        "theta.theta_sum.calls": (calls.get("theta.theta_sum", 0), "count"),
        "theta.theta_sum.self_s": (local_s.get("theta.theta_sum", 0.0), "s"),
        "identity.points_checked": (total["counters"]["identity.points_checked"], "count"),
        "cli.main.span_s": (total["root_s"], "s"),
    })
    return metrics


def per_layer(run: Run, seconds: float) -> dict:
    measure_start = time.perf_counter()
    round_times = []
    while not round_times or ((time.perf_counter() - measure_start)
                              + statistics.median(round_times) <= seconds):
        begin = time.perf_counter()
        run.timed_pass(traced=False)
        run.timed_pass(traced=True)
        round_times.append(time.perf_counter() - begin)
    run.negative_control()
    complete = [t for t in map(sum_traces, run.passes[True]) if t is not None]
    if not complete:
        return {}
    per_pass = [layer_metrics(t) for t in complete]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    walls = {traced: sum(per_invocation_median(passes, lambda c: c.scaled_s))
             for traced, passes in run.passes.items()}
    metrics["trace_overhead_s"] = (walls[True] - walls[False], "s")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="verdict record to check against (default: golden.json)")
    args = parser.parse_args(argv)

    if not (SRC / "fusionkit" / "cli.py").is_file():
        print(f"error: no fusionkit sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(args.golden.read_text())

    load_start = load_average()
    run = Run(args.workload, args.seed, golden)
    metrics = per_layer(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    load_end = load_average()

    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"environment": {**environment(), "loadavg_start": load_start,
                                      "loadavg_end": load_end}}))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {run.attempted}  failed {run.failed}  "
          f"failed_share {run.failed / run.attempted:.4f}")
    for traced, passes in filter(lambda item: item[1], run.passes.items()):
        walls = " ".join(f"{sum(c.wall_s for c in p):.3f}/{sum(c.scaled_s for c in p):.3f}"
                         for p in passes)
        print(f"  {'traced' if traced else 'untraced'} pass walls, raw/scaled (s): {walls}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
