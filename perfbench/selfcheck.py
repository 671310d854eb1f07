"""Fast self-check: every workload once at tiny sizes, untraced and traced.

    python3 perfbench/selfcheck.py

Asserts that each run ends with a well-formed result line that names every
metric of BENCHMARK.json with its unit, that all invocations and checks
passed, and that in the traced run the self times of the layer spans plus
the interpreter's start and exit account for the traced CLI wall time.
Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: {result['failed']}/{result['attempted']} failed\n"
                              + stdout)
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(expected):
                errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                              f"extra {sorted(set(metrics) - set(expected))}")
            for name, unit in expected.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{where}: {name} = {got}")
            if trace:
                value = {k: v["value"] for k, v in metrics.items()}
                accounted = (sum(value[f"{layer}.self_s"] for layer in
                                 ("cli", "datasets", "linear", "quantile", "ood",
                                  "calibration", "shift"))
                             + value["interpreter.self_s"] + value["trace.install_s"])
                if abs(accounted - value["trace.wall_s"]) > 1e-3 * value["trace.wall_s"]:
                    errors.append(f"{where}: self times sum to {accounted:.4f}s, "
                                  f"traced wall is {value['trace.wall_s']:.4f}s")
            print(f"ok {where}" if not errors else f"checked {where}", flush=True)
    if errors:
        raise SystemExit("\n".join(errors))
    print("selfcheck passed")


if __name__ == "__main__":
    main()
