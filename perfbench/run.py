"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh
process (peak RSS is a process high-water mark) where workloads.py pins
the BLAS/OpenMP pools to one thread.  Set-up is measured in that process
and in SETUP_PROBES more fresh processes, and reported as the median.
Timings are CPU times scaled to the reference speed of the host-speed
probe (calibrate.py); the record keeps the raw CPU times beside them.

stdout ends with two lines: a JSON run record (machine, versions, seed,
commit, workload details), then the result object
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 10


def git_commit(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_worker(args, extra, timeout):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src", "ris_detnet")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"no ris_detnet sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    main_run = run_worker(args, [], timeout=2 * args.seconds + 60)
    setup = [main_run["setup_s"]]
    setup_cpu = [main_run["setup_cpu_s"]]
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            probe = run_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)
            setup.append(probe["setup_s"])
            setup_cpu.append(probe["setup_cpu_s"])
        values = dict(main_run["end_to_end"], setup_s=statistics.median(setup),
                      peak_rss_mb=main_run["peak_rss_mb"])
        declared = spec["end_to_end"]
    else:
        values, declared = main_run["layers"], spec["per_layer"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit_op": main_run["unit_op"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": main_run["numpy"], "scipy": main_run["scipy"],
        "thread_pins": main_run["thread_pins"], "git_commit": git_commit(root),
        "source_digest": source_digest(src),
        "ops": main_run["ops"], "failed": main_run["failed"],
        "latency_samples": main_run["latency_samples"],
        "wall_s": main_run["wall_s"], "cpu_s": main_run["cpu_s"],
        "cpu_share": main_run["cpu_s"] / main_run["wall_s"], "work": main_run["work"],
        "speed_factor": main_run["speed_factor"], "speed_samples": main_run["speed_samples"],
        "setup_samples_s": setup, "setup_cpu_samples_s": setup_cpu,
        "detail": main_run["detail"],
    }
    for key in ("raw_cpu", "absent", "traced", "traced_detail"):
        if key in main_run:
            record[key] = main_run[key]
    print(json.dumps({"record": record}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": main_run["failed"] == 0, "attempted": main_run["ops"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
