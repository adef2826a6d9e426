#!/usr/bin/env python3
"""Build and run the zombie-ssd replay benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload web-dvp --seed 42 --seconds 40 --trace 0

The script builds the `perfbench` package in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build` at the repository root), runs
it with every argument passed through, and forwards its output. The
binary's last line holds every metric it measured; this script replaces
that line with one that keeps exactly the metrics `BENCHMARK.json` names
for the mode (`end_to_end` with `--trace 0`, `per_layer` with
`--trace 1`), and fails if any of them is missing or undefined.

`ZSSD_*` variables are removed from the environment first, so no
simulator knob can change a workload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def wanted_metrics(argv):
    """The `BENCHMARK.json` metrics for the mode `argv` selects."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = "1" in [b for a, b in zip(argv, argv[1:]) if a == "--trace"]
    return spec["per_layer" if traced else "end_to_end"]


def main(argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZSSD_")}
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    wanted = wanted_metrics(argv)
    bench = subprocess.run(
        [str(target / "release" / "perfbench"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = bench.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if bench.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        fail(f"benchmark failed with exit code {bench.returncode}")

    result = json.loads(lines[-1])
    measured = result["metrics"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        entry = measured.get(name)
        if entry is None or entry["value"] is None:
            fail(f"metric {name} was not measured")
        if entry["unit"] != metric["unit"]:
            fail(f"metric {name} measured in {entry['unit']}, expected {metric['unit']}")
        metrics[name] = entry
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
