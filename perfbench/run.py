"""End-to-end benchmark of the chowops CLI, with a per-layer split.

    python3 perfbench/run.py --workload equalizer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, both modes

Each sample is one `chowops.cli.main(argv)` call in a fresh interpreter
(perfbench/child.py), so every sample pays the import, the lazy set-up and
the cache warm-up, as every CLI user does.  With --trace 0 the samples are
untraced and the end-to-end metrics are printed; with --trace 1 traced and
untraced samples alternate and the per-layer metrics are printed
(perfbench/layers.py).  Every sample's output is checked against
perfbench/reference.json.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
REFERENCE = json.loads((HERE / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SAMPLE_TIMEOUT_S = 90
MIN_SAMPLES = 3          # untraced CLI samples per --trace 0 run
MIN_TRACED = 2           # traced (and untraced) samples per --trace 1 run
SETUP_SAMPLES = 3        # extra import-only samples per run, for setup_s

# Names and reasons: BENCHMARK.json; the argv of each: make_input.
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- inputs ------------------------------------------------------------------


def s6_generators(seed: int) -> list[list[int]]:
    """A generating pair of S6 drawn from the seed.

    Conjugating one fixed pair would not do: the program numbers elements
    in breadth-first order of words in the generators, so conjugate pairs
    give the same multiplication table.  Different pairs relabel it.
    """
    rng = random.Random(seed)
    while True:
        gens = [rng.sample(range(6), 6) for _ in range(2)]
        seen = {tuple(range(6))}
        frontier = list(seen)
        while frontier:
            frontier = [b for a in frontier for g in gens
                        for b in [tuple(a[i] for i in g)] if b not in seen]
            seen.update(frontier)
        if len(seen) == 720:
            return gens


def make_input(workload: str, seed: int) -> list[str]:
    """Write the workload's group file and return the CLI argv.

    The abelian workloads use the catalog presentation of (Z/p)^3, which
    is unique, so their input does not depend on the seed.  group_engine
    gets S6 from a generating pair drawn from the seed.
    """
    if workload == "group_engine":
        group = {"degree": 6, "generators": s6_generators(seed), "name": "S6"}
        args = ["reps", "--prime", "2", "--rank", "3"]
    else:
        p = 3 if workload == "equalizer" else 2
        group = {"abelian": [p, p, p], "faithful_degree": 3,
                 "name": f"(Z/{p})^3"}
        args = {
            "equalizer": ["localize", "--prime", "3", "--level", "3",
                          "--cutoff", "10"],
            "level_sweep": ["d0", "--prime", "2", "--cutoff", "12",
                            "--faithful-degree", "3"],
            "certificate": ["quillen-check", "--prime", "2", "--cutoff", "14"],
        }[workload]
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload}-{seed}.json"
    path.write_text(json.dumps(group))
    return args + ["--group", str(path)]


# -- correctness ---------------------------------------------------------------


@functools.cache
def commuting_involution_triples(degree: int) -> int:
    """Triples of pairwise commuting x with x^2 = 1 in S_degree, counted
    directly from permutations: the number the orbit sizes must sum to."""
    ident = tuple(range(degree))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(degree))

    inv = [g for g in itertools.permutations(ident) if compose(g, g) == ident]
    masks = []
    for x in inv:
        masks.append(sum(1 << j for j, y in enumerate(inv)
                         if compose(x, y) == compose(y, x)))
    total = 0
    for x, mx in enumerate(masks):
        for y in range(len(inv)):
            if mx >> y & 1:
                total += bin(mx & masks[y]).count("1")
    return total


def check_output(workload: str, seed: int, stdout: str) -> bool:
    """Byte-equal to the reference; for group_engine at other seeds, whose
    element labels differ, the label-free invariants instead."""
    ref = REFERENCE[workload]
    sha = hashlib.sha256(stdout.encode()).hexdigest()
    if workload != "group_engine":
        return sha == ref["stdout_sha256"]
    if seed == ref["seed"]:
        return sha == ref["stdout_sha256"]
    lines = stdout.splitlines()
    meta = dict(ln[2:].split("\t", 1) for ln in lines if ln.startswith("# "))
    body = [ln.split("\t") for ln in lines if not ln.startswith("# ")]
    if meta != ref["meta"] or not body:
        return False
    if body[0] != ["class", "orbit_size", "representative"]:
        return False
    rows = body[1:]
    if [r[0] for r in rows] != [str(i) for i in range(len(rows))]:
        return False
    sizes = collections.Counter(r[1] for r in rows)
    return (len(rows) == int(ref["meta"]["classes"])
            and sizes == collections.Counter(ref["orbit_sizes"])
            and sum(int(r[1]) for r in rows) == commuting_involution_triples(6))


# -- sampling ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(mode: str, argv: list[str]) -> dict | None:
    """One fresh-interpreter sample; None when the child did not report."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, *argv], cwd=ROOT,
            env=child_env(), capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        return None
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["imported_at"] - t_spawn
    res["wall_s"] = wall
    return res


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run samples for `seconds`, check each, and return the run record."""
    argv = make_input(workload, seed)
    start = time.monotonic()
    deadline = start + seconds
    imports = [spawn("import", []) for _ in range(SETUP_SAMPLES + 1)]
    if None in imports:
        raise SystemExit("error: chowops.cli does not import")
    setups = [r["setup_s"] for r in imports[1:]]  # [0] wrote the .pyc files
    untraced, traced, walls = [], [], []
    attempted = failed = 0
    outputs = set()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        enough = (len(untraced) >= (MIN_TRACED if trace else MIN_SAMPLES)
                  and (not trace or len(traced) >= MIN_TRACED))
        now = time.monotonic()
        if failed and now >= deadline:   # failing samples never get enough
            break
        if enough and now + statistics.median(walls) > deadline:
            break
        res = spawn("trace" if want_traced else "run", argv)
        attempted += 1
        if (res is None or res["rc"] != 0
                or not check_output(workload, seed, res["stdout"])):
            failed += 1
            continue
        walls.append(res["wall_s"])
        outputs.add(res.pop("stdout"))
        (traced if want_traced else untraced).append(res)
        if not trace:
            setups.append(res["setup_s"])
    selftest = len(outputs) <= 1
    run_s = [u["run_s"] for u in untraced]
    if trace:
        counts = [{k: v for k, v in t["layers"].items()
                   if not k.endswith("self_s")} for t in traced]
        selftest = (selftest and len(counts) >= MIN_TRACED
                    and all(c == counts[0] for c in counts))
        values = trace_metrics(run_s, traced)
    else:
        values = {
            "run_s": statistics.median(run_s) if run_s else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                u["maxrss_kb"] for u in untraced) / 1024 if untraced else 0.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
    spec = SPEC["per_layer" if trace else "end_to_end"]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds, "measured_s": time.monotonic() - start,
        "env": environment(imports[0]),
        "samples": {"run_s": run_s, "setup_s": setups,
                    "traced_run_s": [t["run_s"] for t in traced]},
        "result": {
            "correct": failed == 0 and selftest,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                    "unit": m["unit"]} for m in spec},
        },
    }


def trace_metrics(run_s: list[float], traced: list[dict]) -> dict:
    """Median self time per layer over the traced samples, the exact
    counters, and the median traced-minus-untraced run time over adjacent
    pairs (samples alternate untraced, traced), which cancels the drift of
    a shared machine's speed."""
    if not traced or not run_s:
        return {}
    out = dict(traced[0]["layers"])     # the counters repeat exactly
    for k in out:
        if k.endswith("self_s"):
            out[k] = statistics.median(t["layers"][k] for t in traced)
    out["trace.overhead_s"] = statistics.median(
        t["run_s"] - u for u, t in zip(run_s, traced))
    return out


def environment(sample: dict) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {"kernel_backend": sample["kernel_backend"],
            "python": sample["python"], "numpy": sample["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "git_rev": rev}


# -- entry point ---------------------------------------------------------------


def report(record: dict) -> None:
    samples = record["samples"]
    runs = samples["run_s"]
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  correct {record['result']['correct']}  "
          f"samples: {len(runs)} untraced, {len(samples['traced_run_s'])} "
          f"traced, {len(samples['setup_s'])} set-ups")
    if runs:
        print(f"# untraced run_s median {statistics.median(runs):.4f} s, "
              f"best {min(runs):.4f} s, worst {max(runs):.4f} s")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, in both trace modes)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out", help="also write the run records to this file")
    args = ap.parse_args()
    if not (ROOT / "src" / "chowops" / "cli.py").is_file():
        print(f"error: no chowops sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    modes = [args.trace] if args.trace is not None else (
        [0] if args.workload else [0, 1])
    records = []
    for workload in workloads:
        for trace in modes:
            record = measure(workload, args.seed, args.seconds, bool(trace))
            report(record)
            records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    if len(records) == 1:     # the result line; exit 0 even if incorrect
        print(json.dumps(records[0]["result"]))
        return 0
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
