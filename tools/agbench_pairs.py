#!/usr/bin/env python3
"""Paired agbench runs: a parent checkout against the working tree.

Usage (from the repository root):

    python3 tools/agbench_pairs.py --parent <dir> --workload <name> \
        [--pairs 10] [--seconds 8] [--seed 1] [--claim chip_steps_per_s] \
        [--out BENCH_<workload>.json]

The default output is BENCH_<workload>.json for seed 1 and
BENCH_<workload>_seed<n>.json for any other seed, so runs of one
workload on several seeds are kept side by side.

<dir> is a second checkout of the parent commit (git clone or git
archive). Each pair runs `python3 agbench/run.py` once in <dir> and once
here, alternating which side goes first, so slow phases of a shared host
land on both sides. Each side builds into its own .bench_build/.

The output file holds, for every end-to-end metric of BENCHMARK.json,
each side's median, quartiles and IQR and the change/parent median
ratio; for the claimed metric the fraction of pairs the change won; the
per-pair values with each run's fast/slow mode; a machine tag (nproc,
CPU model); both git SHAs; and, for each side, the git tree SHA of
every directory the benchmark builds from (src/, agbench/) as the tree
held it when measured, uncommitted edits included, so a run can be
matched to a commit later with `git rev-parse <commit>:src`. Only
stdlib.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

# A run is "slow" when its op_ms_p50 is this far above the fastest run
# of the same side: agbench's serial service is bimodal on shared hosts.
SLOW_FACTOR = 1.2

# The directories agbench/run.py builds the measured program from.
SOURCE_DIRS = ("src", "agbench")


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parse_run_line(text):
    """Metric name -> value from the last line agbench/run.py prints."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("run printed nothing")
    raw = json.loads(lines[-1])
    if not raw.get("correct", False):
        raise ValueError("run reported correct=false")
    return {name: m["value"] for name, m in raw["metrics"].items()}


def modes(runs):
    """'F'/'S' per run: slow when op_ms_p50 is SLOW_FACTOR above the
    side's fastest run."""
    p50 = [r.get("op_ms_p50") for r in runs]
    if any(v is None for v in p50):
        return ["?"] * len(runs)
    fastest = min(p50)
    return ["S" if v > SLOW_FACTOR * fastest else "F" for v in p50]


def summarize(parent_runs, change_runs, metrics, claim):
    """Per-metric medians/IQRs, the claim's win fraction and per-pair rows.

    metrics: BENCHMARK.json end_to_end entries (name, better, ...).
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same non-zero number of runs per side")
    out = {"pairs": len(parent_runs), "metrics": {}}
    for spec in metrics:
        name = spec["name"]
        p = [r[name] for r in parent_runs]
        c = [r[name] for r in change_runs]
        side = {}
        for label, xs in (("parent", p), ("change", c)):
            q1, med, q3 = (quantile(xs, q) for q in (0.25, 0.5, 0.75))
            side[label] = {"median": med, "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        higher = spec["better"] == "higher"
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        pm = side["parent"]["median"]
        side["ratio"] = side["change"]["median"] / pm if pm else None
        side["better"] = spec["better"]
        side["win_fraction"] = wins / len(p)
        out["metrics"][name] = side
    if claim is not None:
        if claim not in out["metrics"]:
            raise ValueError("claimed metric %r is not end-to-end" % claim)
        m = out["metrics"][claim]
        gap = m["change"]["median"] - m["parent"]["median"]
        if m["better"] == "lower":
            gap = -gap
        out["claim"] = {"metric": claim,
                        "win_fraction": m["win_fraction"],
                        "ratio": m["ratio"],
                        "beyond_parent_iqr": gap > m["parent"]["iqr"]}
    pm, cm = modes(parent_runs), modes(change_runs)
    out["runs"] = [{"parent": a, "change": b, "parent_mode": ma,
                    "change_mode": mb}
                   for a, b, ma, mb in zip(parent_runs, change_runs, pm, cm)]
    return out


def machine_tag():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def git_sha(root):
    """HEAD of root, with '+dirty' when the tree has uncommitted changes
    (None outside a git checkout)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                               capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("+dirty" if dirty else "")


def source_trees(root, dirs=SOURCE_DIRS):
    """Directory -> git tree SHA of its working-tree content.

    Stages the working tree into a throwaway index, so the repository's
    own index is untouched; equals `git rev-parse HEAD:<dir>` once the
    measured content is committed. None outside a git checkout.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))

        def git(*args):
            return subprocess.run(["git"] + list(args), cwd=root, env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()

        try:
            git("read-tree", "HEAD")
            git("add", "-A", "--", *dirs)
            return {d: git("write-tree", "--prefix=%s/" % d) for d in dirs}
        except (OSError, subprocess.CalledProcessError):
            return None


def default_out(workload, seed):
    """BENCH_<workload>.json for seed 1, else with a _seed<n> suffix."""
    suffix = "" if seed == 1 else "_seed%d" % seed
    return "BENCH_%s%s.json" % (workload, suffix)


def run_once(root, args):
    cmd = [sys.executable, "agbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError("%s: run failed in %s" % (args.workload, root))
    return parse_run_line(done.stdout)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", default="chip_steps_per_s")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs <= 0:
        parser.error("--pairs must be positive")
    here = os.getcwd()
    parent = os.path.abspath(args.parent)
    with open(os.path.join(here, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    # Identify both trees before the first build reads them.
    identity = {"parent_sha": git_sha(parent), "change_sha": git_sha(here),
                "parent_trees": source_trees(parent),
                "change_trees": source_trees(here)}
    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        order = [(parent, parent_runs), (here, change_runs)]
        if i % 2 == 1:
            order.reverse()
        for root, runs in order:
            runs.append(run_once(root, args))
        print("pair %d/%d: %s parent %.4g change %.4g" % (
            i + 1, args.pairs, args.claim, parent_runs[-1][args.claim],
            change_runs[-1][args.claim]), file=sys.stderr)

    result = summarize(parent_runs, change_runs, metrics, args.claim)
    result.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine_tag()})
    result.update(identity)
    out = args.out or default_out(args.workload, args.seed)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(result.get("claim")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
