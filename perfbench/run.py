"""Benchmark driver: runs one workload through the quantrep CLI and reports
its metrics as the last line of standard output.

    python3 perfbench/run.py --workload latent-m --seed 1 --seconds 30 --trace 0

Every CLI call is a fresh child process (``child.py``), started one at a
time from this process, with BLAS/OpenMP pinned to one thread. A run sets
up the inputs several times (``setup_s`` is the median; all but the first
set-up run between passes), and repeats the workload's CLI steps
("passes") for ``--seconds`` of pass time, at least twice, and reports
medians over the passes. With ``--trace 1`` passes alternate
untraced and traced; the traced ones give the per-layer metrics and the
difference gives ``trace.overhead_s``. Result files of every pass must be
byte-identical (``run_meta.json`` excepted); outputs and quality figures
are checked, and a failed check counts the invocation as failed.
Work files go to ``.perfbench_runs/<workload>/`` under the checkout root.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import layers
import workloads

SETUP_REPS = 3
MIN_PASSES = 2
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 150
EXCLUDED = ("run_meta.json",)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd1_s": "s", "cmd2_s": "s", "peak_rss_mb": "MB"}


class Invocation:
    def __init__(self, step, code, start_ns, end_ns, usage, span_id, trace_file):
        self.step = step
        self.code = code
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.span_id = span_id
        self.trace_file = trace_file
        self.problems = [] if code == 0 else [f"exit code {code}"]

    @property
    def wall_s(self):
        return (self.end_ns - self.start_ns) / 1e9


def _tree(path):
    """Relative path -> bytes for every result file under ``path``."""
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            if name not in EXCLUDED:
                full = os.path.join(base, name)
                with open(full, "rb") as fh:
                    out[os.path.relpath(full, path)] = fh.read()
    return out


def _differences(a, b):
    ta, tb = _tree(a), _tree(b)
    return sorted(k for k in set(ta) | set(tb) if ta.get(k) != tb.get(k))


class Bench:
    def __init__(self, root, workload, seed, seconds, trace, full_size):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.full_size = full_size
        self.rel = os.path.join(".perfbench_runs", workload.name)
        self.work = os.path.join(root, self.rel)
        self.logs = os.path.join(self.work, "logs")
        self.invocations = []
        self.spans = []     # driver-side spans: passes, set-ups, child processes
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{v: str(THREADS) for v in THREAD_VARS})
        self.env.pop("PERFBENCH_TRACE", None)
        self._oracle_memo = {}

    def child(self, step, run_id, parent, traced):
        """Run one CLI call; its wall time runs from spawn to reap."""
        span_id = f"{parent}.{sum(1 for s in self.spans if s[4] == parent)}"
        env = dict(self.env)
        trace_file = None
        if traced:
            trace_file = os.path.join(self.logs, f"{span_id}.trace.json")
            env.update(PERFBENCH_TRACE=trace_file, PERFBENCH_RUN=run_id,
                       PERFBENCH_PARENT=span_id)
        cmd = [sys.executable, os.path.join(self.root, "perfbench", "child.py"),
               self.root, "--", *step.argv]
        with open(os.path.join(self.logs, f"{span_id}.out"), "wb") as out, \
                open(os.path.join(self.logs, f"{span_id}.err"), "wb") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.spans.append([span_id, f"process.{step.subcommand}", start, end, parent, run_id])
        inv = Invocation(step, proc.returncode, start, end, usage, span_id,
                         trace_file)
        if inv.code == 0:
            inv.problems += workloads.check_files(step)
        self.invocations.append(inv)
        return inv

    def oracle(self, cases):
        """Objectives from ``oracle.py`` for shift-matching cases, run in a
        child process outside any timed span; passes whose estimates match
        an earlier pass reuse its answer."""
        request = json.dumps(cases, sort_keys=True)
        key = [request]
        for case in cases:
            with open(case["estimate"], "rb") as fh:
                key.append(fh.read())
        key = tuple(key)
        if key not in self._oracle_memo:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(self.root, "perfbench", "oracle.py"),
                     self.root, request],
                    cwd=self.root, env=self.env, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired as exc:
                raise RuntimeError(f"oracle.py timed out after {exc.timeout} s") from exc
            if proc.returncode != 0:
                raise RuntimeError(f"oracle.py exit {proc.returncode}: {proc.stderr[-500:]}")
            self._oracle_memo[key] = json.loads(proc.stdout)
        return self._oracle_memo[key]

    def _group(self, kind, root_span, invs, start, end, run_id):
        self.spans.append([root_span, kind, start, end, None, run_id])
        return {"span": root_span, "invocations": invs, "start": start, "end": end}

    def setup(self, k, traced):
        """Generate the inputs; the first set-up keeps them, later ones must match."""
        cur_rel = os.path.join(self.rel, "inputs_cur")
        cur = os.path.join(self.root, cur_rel)
        shutil.rmtree(cur, ignore_errors=True)
        os.makedirs(cur)
        run_id = f"{self.wl.name}-{self.seed}-setup{k}"
        start = time.monotonic_ns()
        invs = [self.child(workloads.Step("gen", argv, cur_rel), run_id, f"s{k}", traced)
                for argv in self.wl.generate(cur_rel)]
        if all(not inv.problems for inv in invs):
            self.wl.derive(cur)
        end = time.monotonic_ns()
        inputs = os.path.join(self.work, "inputs")
        if k == 0:
            os.rename(cur, inputs)
        else:
            for path in _differences(inputs, cur):
                invs[-1].problems.append(f"input {path} differs from the first set-up")
            shutil.rmtree(cur)
        group = self._group("setup", f"s{k}", invs, start, end, run_id)
        group["wall_s"] = (end - start) / 1e9
        return group

    def run_pass(self, k, traced):
        cur_rel = os.path.join(self.rel, "cur")
        cur = os.path.join(self.root, cur_rel)
        shutil.rmtree(cur, ignore_errors=True)
        os.makedirs(cur)
        run_id = f"{self.wl.name}-{self.seed}-pass{k}"
        start = time.monotonic_ns()
        steps = self.wl.steps(os.path.join(self.rel, "inputs"), cur_rel)
        invs = {s.label: self.child(s, run_id, f"p{k}", traced) for s in steps}
        end = time.monotonic_ns()
        quality = {}
        if all(not inv.problems for inv in invs.values()):
            try:
                quality, problems = self.wl.quality(cur, os.path.join(self.work, "inputs"),
                                                    self.oracle)
            except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
                quality, problems = {}, [(steps[-1].label, f"unreadable result: {exc!r}")]
            problems += workloads.check_quality(self.wl, quality, self.full_size)
            for label, message in problems:
                invs[label].problems.append(message)
        dest = os.path.join(self.work, f"pass{k}")
        os.rename(cur, dest)
        if k > 0:
            first = os.path.join(self.work, "pass0")
            for path in _differences(first, dest):
                owner = next((s.label for s in steps
                              if path.startswith(os.path.relpath(s.out_dir, cur_rel) + os.sep)),
                             steps[-1].label)
                invs[owner].problems.append(f"{path} differs from pass 0")
        group = self._group("pass", f"p{k}", list(invs.values()), start, end, run_id)
        group.update(traced=traced, quality=quality,
                     wall_s=sum(inv.wall_s for inv in invs.values()),
                     cmd_s=[invs[s.label].wall_s for s in steps[:2]],
                     rss_mb=max(inv.rss_mb for inv in invs.values()))
        return group

    def layer_group(self, group):
        """Per-layer metrics of one traced set-up or pass."""
        spans = [s for s in self.spans
                 if s[0] == group["span"] or s[4] == group["span"]]
        counts, timers = {}, {}
        for inv in group["invocations"]:
            try:
                with open(inv.trace_file, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                inv.problems.append(f"trace file unreadable: {exc}")
                continue
            spans += data["spans"]
            for key, value in data["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key, value in data["timers_ns"].items():
                timers[key] = timers.get(key, 0) + value
        group["spans"] = spans
        return layers.group_metrics(spans, counts, timers)

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.logs)
        # later set-ups run between passes, so that their median samples the
        # machine across the run rather than in one burst at its start
        setups = [self.setup(0, self.trace)]
        passes = []
        measured_s = 0.0
        while len(passes) < MIN_PASSES or (
                measured_s + statistics.median(
                    (p["end"] - p["start"]) / 1e9 for p in passes) <= self.seconds):
            passes.append(self.run_pass(len(passes), self.trace and len(passes) % 2 == 1))
            measured_s += (passes[-1]["end"] - passes[-1]["start"]) / 1e9
            if len(setups) < SETUP_REPS:
                setups.append(self.setup(len(setups), self.trace))
        while len(setups) < SETUP_REPS:
            setups.append(self.setup(len(setups), self.trace))
        plain = [p for p in passes if not p["traced"]]
        metrics = {
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "cmd1_s": statistics.median(p["cmd_s"][0] for p in plain),
            "cmd2_s": statistics.median(p["cmd_s"][1] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        if not self.trace:
            return setups, passes, {name: {"value": v, "unit": E2E_UNITS[name]}
                                    for name, v in metrics.items()}
        traced = [p for p in passes if p["traced"]]
        overhead = statistics.median(p["wall_s"] for p in traced) - metrics["wall_s"]
        result = layers.combine([self.layer_group(p) for p in traced],
                                [self.layer_group(s) for s in setups], overhead)
        quality = passes[0]["quality"]
        for name, (unit, _, _, _) in workloads.QUALITY.items():
            result[f"quality.{name}"] = {"value": quality.get(name, 0.0), "unit": unit}
        return setups, passes, result


def provenance(root, args):
    git_rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "quantrep")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_rev": git_rev,
            "src_sha256": digest.hexdigest(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "threads": THREADS,
            "thread_vars": list(THREAD_VARS), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-check")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "quantrep", "cli.py")):
        print(f"perfbench: no quantrep sources under {root}/src", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    prov = provenance(root, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    bench = Bench(root, workload, args.seed, args.seconds, bool(args.trace),
                  args.size == "full")
    setups, passes, metrics = bench.run()

    failed = [inv for inv in bench.invocations if inv.problems]
    for group in setups + passes:
        for inv in group["invocations"]:
            print(f"{group['span']:>4} {inv.step.label:<7} {' '.join(inv.step.argv[:2]):<28}"
                  f" exit={inv.code} wall={inv.wall_s:.3f}s cpu={inv.cpu_s:.3f}s"
                  f" rss={inv.rss_mb:.1f}MB"
                  + "".join(f"\n     FAILED: {p}" for p in inv.problems))
    print("quality " + json.dumps(passes[0]["quality"], sort_keys=True))
    print(f"failed_frac {len(failed)}/{len(bench.invocations)}")
    summary = {"correct": not failed, "attempted": len(bench.invocations),
               "failed": len(failed), "metrics": metrics}
    with open(os.path.join(bench.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "computed_counts": list(layers.COMPUTED),
                   "quality": passes[0]["quality"],
                   "problems": {inv.span_id: inv.problems for inv in failed},
                   **summary}, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(bench.work, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "run_id"],
                       "spans": [s for g in setups + passes for s in g.get("spans", ())]},
                      fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
