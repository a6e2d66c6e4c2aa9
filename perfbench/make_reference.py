"""Regenerate perfbench/analysis_reference.json from the checkout's code.

    python3 perfbench/make_reference.py

Run from the repository root.  The table is the correctness reference of
the analysis workload: one row per grid point with the eval-profile
bound_tmin, bound_tmax and varpi.  Regenerate it only when the model is
meant to change its numbers, and say so in the change.
"""
import json
import os
import random
import sys
import time

from workloads import (ANALYSIS_TABLE, LAMBDAS, WINDOWS, analysis_envs,
                       analysis_point, import_package)

BLOCKLENGTHS_PER_POINT = 8      # grid depth: distinct blocklengths per combination
GRID_SEED = 20250311
COLUMNS = ["lam", "t_min", "t_max", "user", "power_index", "codeword", "blocklength",
           "bound_tmin", "bound_tmax", "varpi", "clamped", "vacuous"]


def main():
    ris = import_package()
    envs = analysis_envs(ris)
    env = next(iter(envs.values()))
    n_power = len(env.codebook.power_levels)
    n_codewords = len(env.codebook.phase_codewords)
    rng = random.Random(GRID_SEED)
    rows = []
    t0 = time.perf_counter()
    for lam in LAMBDAS:
        for t_min, t_max in WINDOWS:
            for user in range(env.n_users):
                for power_index in range(n_power):
                    for codeword in range(n_codewords):
                        for _ in range(BLOCKLENGTHS_PER_POINT):
                            n = round(rng.uniform(env.n_floor, env.n_ceiling), 6)
                            row = {"lam": lam, "t_min": t_min, "t_max": t_max,
                                   "user": user, "power_index": power_index,
                                   "codeword": codeword, "blocklength": n}
                            res = analysis_point(envs, row)
                            row.update(bound_tmin=res.bound_tmin, bound_tmax=res.bound_tmax,
                                       varpi=res.varpi,
                                       clamped=int(res.clamped["tmin"] or res.clamped["tmax"]),
                                       vacuous=int(res.clamped["vacuous"]))
                            rows.append([row[c] for c in COLUMNS])
        print(f"lambda={lam}: {len(rows)} rows, {time.perf_counter() - t0:.0f} s",
              file=sys.stderr)
    with open(ANALYSIS_TABLE, "w", encoding="utf-8") as fh:
        json.dump({"columns": COLUMNS, "rows": rows}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {os.path.relpath(ANALYSIS_TABLE)}")


if __name__ == "__main__":
    main()
