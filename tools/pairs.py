"""Run the benchmark on two revisions in alternating pairs and record both.

Usage, from the root of a checkout:

    python3 tools/pairs.py BASE HEAD --workload suite:10 --workload kernel:10 \\
        --workload enum:3 --workload cli:3 --seed 7 --out BENCH_0.json

Each revision is extracted with ``git archive`` into a temporary directory,
and the unchanged ``perfbench/run.py --trace 0`` of that extraction runs there
as one child process at a time.  Pair k runs BASE first when k is even and
HEAD first when k is odd, so a drift in machine speed falls on both sides.
Metric names, directions and bounds, and the run length ``run_seconds``,
come from ``BENCHMARK.json`` of the working tree.

The record holds every pair, each side's failed ops per workload, and per
workload and metric both sides' median and quartiles, the pairs HEAD won
(ties count for neither side) and a verdict:

* ``unresolved``: the spread between BASE's quartiles, relative to its
  median, is wider than the bound, and not every HEAD run beats every BASE
  run;
* ``worse past bound``: HEAD's median is worse than BASE's by more than the
  bound;
* ``within bound`` otherwise.

``gain`` is true when there are at least ten pairs, HEAD won at least nine
tenths of them and the medians differ, in HEAD's favour, by more than BASE's
quartile spread.  A
metric that reads 0 on both sides (``q_ops_per_s`` of a workload without Q
ops) is ``not measured``.  Each side also records ``src_lines``, the line
count of its ``src/evoalg/*.py``, so the line count sits next to the
numbers.  Nothing is written inside the repository but the record named by
``--out``.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fewer pairs than this show no gain, however they fall.
MIN_GAIN_PAIRS = 10


def quartiles(values):
    """Median and the first and third quartiles (inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(base, head, better, bound):
    """Summary of one metric over paired runs: ``base[k]`` and ``head[k]``
    come from pair k; ``better`` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    b, h = quartiles(base), quartiles(head)
    out = {"base": b, "head": h, "pairs": len(base)}
    out["head_wins"] = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    out["ties"] = sum(x == y for x, y in zip(base, head))
    if b["median"] == 0 and h["median"] == 0:
        return {**out, "change": None, "verdict": "not measured", "gain": False}
    change = (h["median"] - b["median"]) / b["median"]
    spread = (b["q3"] - b["q1"]) / b["median"]
    separated = sign * (min(head) - max(base) if sign > 0 else max(head) - min(base)) > 0
    if spread > bound and not separated:
        verdict = "unresolved"
    elif sign * change < -bound:
        verdict = "worse past bound"
    else:
        verdict = "within bound"
    gain = (
        len(base) >= MIN_GAIN_PAIRS
        and out["head_wins"] >= 0.9 * len(base)
        and sign * (h["median"] - b["median"]) > b["q3"] - b["q1"]
    )
    return {**out, "change": change, "base_spread": spread, "verdict": verdict, "gain": gain}


def summarise(pairs, metrics):
    """Per-metric comparison of a workload's pairs; ``metrics`` maps a
    name to its ``(better, bound)``."""
    return {
        name: compare(
            [p["base"]["metrics"][name] for p in pairs],
            [p["head"]["metrics"][name] for p in pairs],
            better,
            bound,
        )
        for name, (better, bound) in metrics.items()
    }


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True
    ).stdout


def extract(rev, dest):
    """The tree of ``rev`` under ``dest``; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def src_lines(checkout):
    """Lines of ``src/evoalg/*.py`` under ``checkout``, as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "evoalg", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; its last stdout line, as parsed JSON,
    with each metric reduced to its value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    last["metrics"] = {name: m["value"] for name, m in last["metrics"].items()}
    return last


def workload_spec(text):
    name, _, count = text.partition(":")
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME:PAIRS, got {text!r}")
    return name, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the parent revision")
    parser.add_argument("head", help="the revision measured against it")
    parser.add_argument("--workload", type=workload_spec, action="append", required=True,
                        metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    record = {
        "seed": args.seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workloads": [],
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {}
        for side in ("base", "head"):
            checkouts[side] = os.path.join(tmp, side)
            record[side] = {"rev": getattr(args, side),
                            "commit": extract(getattr(args, side), checkouts[side]),
                            "src_lines": src_lines(checkouts[side])}
        for name, count in args.workload:
            pairs = []
            for k in range(count):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], name, args.seed, seconds)
                pairs.append(pair)
                print(f"{name} pair {k + 1}/{count}: " + ", ".join(
                    f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']:.4g}"
                    for side in ("base", "head")), file=sys.stderr)
            failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("base", "head")}
            record["workloads"].append(
                {"workload": name, "pairs": pairs, "failed_ops": failed,
                 "metrics": summarise(pairs, metrics)}
            )
            # Written after each workload, so a long run keeps what it has.
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
