"""Compare two result files written by `run.py --out`.

    python3 perfbench/compare.py OLD.json NEW.json

Prints every metric of every (workload, trace mode) present in both files,
old and new, and flags an end-to-end metric that got worse by more than
its bound in BENCHMARK.json.  Results taken on different kernel backends
(compiled rref versus the numpy fallback) measure different programs, so
the comparison is refused with exit code 2.
"""

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path):
    return {(r["workload"], r["trace"]): r
            for r in json.loads(Path(path).read_text())}


def main(old_path, new_path):
    old, new = load(old_path), load(new_path)
    backends = {r["env"]["kernel_backend"]
                for r in [*old.values(), *new.values()]}
    if len(backends) > 1:
        print(f"error: results span kernel backends {sorted(backends)}; "
              "compare runs taken on one backend", file=sys.stderr)
        return 2
    regressed = False
    for key in sorted(old.keys() & new.keys()):
        print(f"# {key[0]} trace {key[1]}  "
              f"rev {old[key]['env']['git_rev'][:10]} -> "
              f"{new[key]['env']['git_rev'][:10]}")
        om = old[key]["result"]["metrics"]
        nm = new[key]["result"]["metrics"]
        for name in [n for n in om if n in nm]:
            a, b = om[name]["value"], nm[name]["value"]
            change = (b - a) / a if a else 0.0
            flag = ""
            spec = BOUNDS.get(name)
            if spec:
                worse = -change if spec["better"] == "higher" else change
                if worse > spec["bound"]:
                    flag, regressed = "  WORSE THAN BOUND", True
            print(f"{name:40s} {a:>14.6g} {b:>14.6g} {change:>+8.1%} "
                  f"{om[name]['unit']}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
