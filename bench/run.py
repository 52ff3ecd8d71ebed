"""Run one workload of the trajcurate benchmark and print its metrics.

    python3 bench/run.py --workload curate --seed 0 --seconds 30 --trace 0

Run it from the repository root. It imports `trajcurate` from `src/` of the
same tree and exits with an error, printing no result, when that is missing.
The metric names and units come from BENCHMARK.json: `--trace 0` prints the
`end_to_end` metrics, `--trace 1` the `per_layer` ones. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it repeat the figures with the
environment. A fuller report, and for traced runs every span, is written
under `.bench_build/bench/`.

BLAS is pinned to BLAS_THREADS threads before numpy is imported: the
matmuls are small, and one thread was faster than two on a 2-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("curate", "train", "datagen")


def code_hash() -> str:
    """Hash of the package and benchmark sources, which key stored digests."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "trajcurate").rglob("*.py")) + sorted(
        Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


def check_digest(store: Path, key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same code and seed left;
    record it if there is none. Returns a problem description or None."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, digest) != digest:
        return f"outputs differ from an earlier run with the same seed ({key})"
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "trajcurate" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {src / 'trajcurate'} or {spec_path} not found; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import trajcurate
    if not Path(trajcurate.__file__).resolve().is_relative_to(src):
        print(f"error: imported trajcurate from {trajcurate.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import write_spans

    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".bench_build" / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           out_dir / "work")
    missing = {m["name"] for m in declared} ^ set(result.metrics)
    if missing:
        print(f"error: computed and declared metrics differ: {sorted(missing)}",
              file=sys.stderr)
        return 2
    key = f"{args.workload} seed={args.seed} code={code_hash()[:16]}"
    problem = check_digest(out_dir / "digests.json", key, result.digest)
    if problem:
        result.problems.append(problem)
    correct = not result.problems and result.failed == 0

    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": result.attempted,
              "failed": result.failed, "failed_frac": result.failed / result.attempted,
              "tail_percentile": result.tail_percentile,
              "digest": result.digest, "problems": result.problems,
              "correct": correct, "metrics": metrics, "item_ms": result.item_ms,
              "setup_s_each": result.setup_s}
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if result.spans:
        write_spans(result.spans, out_dir / f"spans-{stem}.jsonl")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"items={result.attempted} failed={result.failed} "
          f"tail=p{result.tail_percentile} digest={result.digest[:16]}")
    for problem in result.problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
