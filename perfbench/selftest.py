"""Tiny-size self-test of the benchmark (under a minute).

Checks that

* every workload emits exactly the metrics ``BENCHMARK.json`` names,
  each with its declared unit, with and without tracing, and answers
  correctly at tiny sizes;
* the brute-force oracle of every workload catches an index that
  returns wrong tids.

Run from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "sql_read": {
        "n": 300, "d": 3, "pool": 64, "cache": 16, "negative_pool": 4,
        "clients": 8, "warmup": 32, "round_s": 0.5, "check_every": 3,
        "setups": 2,
    },
    "mixed_rw": {
        "n": 200, "d": 3, "burst": 8, "burst_every": 0.5,
        "check_every": 3, "setups": 2,
    },
    "build": {
        "n_appri": 300, "d_appri": 3, "n_exact": 400, "queries": 4,
        "references": 2, "setups": 2,
    },
}
SECONDS = 3.0  # traced runs split it in two; each loop needs 0.5 s


def _declared() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def _shuffled(tids):
    """Wrong tids of the right shape: the answer in reverse order."""
    return tids[::-1].copy() if len(tids) > 1 else tids + 1


def _stubs():
    """(workload, owner class, method) whose answers the stub corrupts."""
    from repro import DynamicRobustIndex, RobustIndex

    return {
        "sql_read": (RobustIndex, "query_batch"),
        "mixed_rw": (DynamicRobustIndex, "query"),
        "build": (RobustIndex, "query"),
    }


def _corrupt(owner, attr):
    from repro import QueryResult

    original = owner.__dict__[attr]

    def stub(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        if isinstance(out, list):
            return [QueryResult(_shuffled(r.tids), r.retrieved, r.layers_scanned)
                    for r in out]
        return QueryResult(_shuffled(out.tids), out.retrieved, out.layers_scanned)

    setattr(owner, attr, stub)
    return original


def main() -> int:
    if not run.prepare():
        return 2
    end_to_end, per_layer = _declared()
    problems = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as scratch:
        out_dir = Path(scratch)
        for workload, sizes in TINY.items():
            before = len(problems)
            for trace, declared in ((False, end_to_end), (True, per_layer)):
                result = run.run(workload, 7, SECONDS, trace, out_dir, sizes)
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                if emitted != declared:
                    problems.append(
                        f"{workload} trace={int(trace)}: metrics {emitted} "
                        f"differ from BENCHMARK.json {declared}"
                    )
                if not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace={int(trace)}: {result}")
            owner, attr = _stubs()[workload]
            original = _corrupt(owner, attr)
            try:
                result = run.run(workload, 7, SECONDS, False, out_dir, sizes)
            finally:
                setattr(owner, attr, original)
            if result["correct"] or result["failed"] < 1:
                problems.append(f"{workload}: oracle missed a wrong-tid index")
            print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
