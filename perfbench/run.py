"""Benchmark of the wasmsmell pipeline: four workloads, each in a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload this generates the seeded inputs and their planted
truth in ``.perfbench_work/``, times set-up in fresh interpreters,
starts ``work.py`` for the timed pass and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Every time is
scaled to a reference machine speed; see ``calib.py``.  The last line
of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (with ``--workload all``, one such line per
workload).  See perfbench/README.md for what each workload measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calib import REFERENCE_CHUNK_S, chunk  # noqa: E402
from gen import generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fuzz-parse", "analyze-flat", "analyze-branchy", "curate")
RUN_LIMIT_S = 170  # a run, set-up included, ends well inside three minutes
# Set-up is timed in fresh interpreters, a few before each worker, so that the
# probes sample the whole run rather than one moment of it.  Each probe is
# scaled to the reference speed by the machine-speed chunks run just before it.
SETUP_PROBES_PER_WORKER = 5
CHUNKS_PER_PROBE = 4
# Fresh worker processes per run, each for a share of the time: a process's
# speed depends on its own memory layout and hash seed, so averaging a few
# narrows the run-to-run spread.
WORKERS = 3
# Tail percentile per workload: the highest with at least ten items of one
# round beyond it (500 fuzz strings; 40 items otherwise).
TAIL_PERCENTILE = {"fuzz-parse": 98, "analyze-flat": 75, "analyze-branchy": 75, "curate": 75}

# Set-up as a user pays it: a fresh interpreter imports the package and makes
# the first call into each layer, on inputs too small to do real work.
PROBE = r"""
import time
t0 = time.perf_counter()
import wasmsmell, wasmsmell.cli
from wasmsmell import analyze_source, canonical_json, is_relevant
analyze_source(b"int main(void){char*p=(char*)malloc(4);free(p);free(p);return 0;}", "p.c")
is_relevant("A webassembly port of a small game engine.")
canonical_json({"ready": True})
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_probes(n: int) -> list[float]:
    """Set-up times of n fresh interpreters, scaled to the reference speed."""
    times = []
    for _ in range(n):
        chunk_s = sum(chunk() for _ in range(CHUNKS_PER_PROBE)) / CHUNKS_PER_PROBE
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]) * REFERENCE_CHUNK_S / chunk_s)
    return times


def write_inputs(work: Path, files: dict[str, bytes], truth: bytes):
    for rel, data in files.items():
        path = work / "inputs" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (work / "truth.json").write_bytes(truth)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def run_worker(name: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "work.py"), str(ROOT), str(work), name,
         str(seconds), "1" if trace else "0", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        files, truth = generate(name, seed)
        deterministic = (files, truth) == generate(name, seed)
        write_inputs(work, files, truth)
        del files
        if trace:
            parts = [run_worker(name, seed, seconds, True, work, deadline)]
        else:
            setup_probes(1)  # untimed: fills the bytecode cache, warms the chunk
            setup_times, parts = [], []
            for _ in range(WORKERS):
                setup_times += setup_probes(SETUP_PROBES_PER_WORKER)
                parts.append(run_worker(name, seed, seconds / WORKERS, False, work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": deterministic and all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
    }
    if not deterministic:
        print(f"{name}: seed {seed} generated different inputs twice", file=sys.stderr)
    if trace:
        result["metrics"] = parts[0]["metrics"]
        return result
    speed = statistics.fmean(p["scale"] for p in parts)
    print(f"{name}: machine ran at {speed:.3f} of the reference speed; times are scaled to it")
    durations = [d for p in parts for d in p["durations"]]
    busy = sum(durations) + sum(p["extra"] for p in parts)
    result["metrics"] = {
        "items_per_s": {"value": len(durations) / busy, "unit": "1/s"},
        "item_tail_ms": {"value": percentile(durations, TAIL_PERCENTILE[name]) * 1000, "unit": "ms"},
        "peak_rss_mib": {"value": max(p["peak_kib"] for p in parts) / 1024, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wasmsmell" / "__init__.py").is_file():
        print(f"error: no wasmsmell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
