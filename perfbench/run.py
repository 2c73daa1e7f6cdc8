"""sdlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds ``src/sdlab``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a human-readable summary.  The full record (machine facts, every
pass time, check failures, per-layer table) is written to
``perfbench/.out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOADS = ("scenario-suite", "ensemble-3d", "lattice-analysis")
SETUP_PROBES = 2  # set-up-only processes, besides the measuring one
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import metrics  # noqa: E402


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _sdlab_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sdlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(blas: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset")
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sdlab_commit": _sdlab_commit(),
        "sdlab_src_sha256": _source_digest(),
    }


class WorkerFailed(RuntimeError):
    pass


def _worker(args, scratch: Path, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (start reading, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch), *extra]
    start = perf_counter()
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {res.returncode}:\n{res.stderr[-4000:]}")
    return start, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_begin = perf_counter()
    if not (ROOT / "src" / "sdlab" / "__init__.py").is_file():
        print(f"perfbench: no sdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"tmp-{os.getpid()}"
    spans_path = OUT / f"spans-{tag}.json"
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                start, res = _worker(args, scratch, ["--setup-only"], 60.0)
                setup.append(res["ready"] - start)
        extra = ["--spans", str(spans_path)] if args.trace else []
        start, res = _worker(args, scratch, extra,
                             DEADLINE_S - (perf_counter() - t_begin))
        setup.append(res["ready"] - start)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(res["failures"])
    attempted = res["attempted"]
    values = metrics.per_layer(res) if args.trace else metrics.end_to_end(setup, res)
    machine = machine_facts(res["blas"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup_samples_s": setup,
              "attempted": attempted, "failed": failed, "metrics": values, "worker": res}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=float))

    print(f"perfbench {tag}: {len(res['walls'])} untraced passes"
          + (f", {len(res['traced_walls'])} traced" if args.trace else ""))
    print("machine " + json.dumps(machine))
    print(f"checks: attempted={attempted} failed={failed} "
          f"error_rate={failed / max(attempted, 1):.4g}")
    for line in res["failures"][:5]:
        print("  FAILED " + line.splitlines()[0])
    for name, secs in res.get("part_walls", {}).items():
        print(f"  {name}: {secs:.4f} s per run (median, untraced)")
    if args.trace:
        if res["missing_layers"]:
            print("  not in this sdlab (reported as 0): " + ", ".join(res["missing_layers"]))
        for name, share in metrics.self_shares(res):
            print(f"  self share {share:6.1%}  {name}")
    print(f"record: {(OUT / f'report-{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
