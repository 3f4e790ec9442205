#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the fig11/prog1 sweep stack.

    python3 perfbench/run.py [--workload fig11-mwpm|fig11-uf|prog1-uf|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds the worker package next to
it (perfbench/Cargo.toml) and the fig11/prog1 binaries from the repository's
sources, then runs the workload's sweep again and again, each sweep in a
fresh worker process writing a fresh output directory under .perfbench/.
Every sweep runs serially: one engine worker, no sample pool, so
setup_s + run_s <= wall_s. Times are medians over the sweeps of the run.
The run ends within --seconds: after the sweeps it runs the equivalent
fig11/prog1 command once and requires its artifacts to be byte-identical to
the first sweep's, which ties the worker's grids to the binaries' defaults.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced sweeps and reports the per-layer metrics of perfbench/layers.json;
trace.overhead_s is traced minus untraced wall time.

Every sweep is checked (see the worker); the run exits 1 if any check fails.
The last line of stdout is one JSON object: correct, attempted and failed
(grid points) and metrics. The other lines are the human-readable report.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("fig11-mwpm", "fig11-uf", "prog1-uf")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("logical_error_rate", "failures/shot"),
)
# Fewest sweeps (or untraced/traced pairs) a run reports a median over.
MIN_ROUNDS = 3
# A run must end within 180 s of its start once the worker is built.
HARD_LIMIT_S = 165.0
# Smallest relative gap between the mirrored and the real prepare times
# that counts as drift when the traced sweeps' own spread is smaller still.
DRIFT_FLOOR = 0.10


class BenchError(Exception):
    pass


def load_layers():
    metrics = json.loads((BENCH / "layers.json").read_text())["metrics"]
    bench_file = ROOT / "BENCHMARK.json"
    if bench_file.exists():
        bench = json.loads(bench_file.read_text())
        declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        ours = [(m["name"], m["unit"], m["better"]) for m in metrics]
        if declared != ours:
            raise BenchError("BENCHMARK.json per_layer differs from perfbench/layers.json")
        if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(END_TO_END):
            raise BenchError("BENCHMARK.json end_to_end differs from run.py's END_TO_END")
    return metrics


def cargo_build(args, targets):
    """Builds with cargo from the repository root; returns the paths of
    the executable targets named in `targets`, by name."""
    cmd = ["cargo", "build", "--release", "--offline", "--message-format=json-render-diagnostics"]
    proc = subprocess.run(cmd + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"cargo build {' '.join(args)} failed")
    exes = {}
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    missing = [t for t in targets if t not in exes]
    if missing:
        raise BenchError(f"cargo build produced no {', '.join(missing)} executable")
    return {t: exes[t] for t in targets}


def run_child(cmd, deadline):
    """Runs `cmd` to completion; returns (stdout, rusage). The child is
    killed if it outlives `deadline` (a time.monotonic() value)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited with {proc.returncode}")
    return out, usage


def run_sweep(exe, workload, seed, out_dir, traced, deadline):
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--out", str(out_dir)]
    out, usage = run_child(cmd + (["--trace"] if traced else []), deadline)
    rep = json.loads(out.strip().splitlines()[-1])
    rep["peak_rss_mib"] = usage.ru_maxrss / 1024.0
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["dir"] = out_dir
    return rep


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spread(values):
    """(max - min) / median of a run's sweeps."""
    m = median(values)
    return (max(values) - min(values)) / m if m > 0 else 0.0


def compare_cli(rep, cli_exes, deadline):
    """Runs the equivalent figure-binary command and compares artifacts
    byte for byte. Returns a worker-style check."""
    binary = rep["cli"][0]
    cli_dir = Path(rep["dir"]).parent / "cli"
    shutil.rmtree(cli_dir, ignore_errors=True)
    run_child([cli_exes[binary]] + rep["cli"][1:] + ["--out", str(cli_dir)], deadline)
    stem = binary
    differing = [
        suffix
        for suffix in (".csv", ".jsonl", ".meta.json")
        if not filecmp.cmp(Path(rep["dir"]) / (stem + suffix), cli_dir / (stem + suffix), shallow=False)
    ]
    return {
        "name": "artifacts_equal_cli",
        "ok": not differing,
        "detail": " ".join(rep["cli"]) + (f": {differing} differ" if differing else ": identical"),
    }


def measure(exe, cli_exes, workload, seed, seconds, traced, layers):
    """Runs one workload for `seconds`; returns the final JSON object."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    steal0 = steal_ticks()
    run_dir = OUT / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    plain, tracedreps = [], []
    # The CLI comparison after the sweeps costs about one untraced sweep.
    slowest_plain = 0.0
    while True:
        t0 = time.monotonic()
        plain.append(run_sweep(exe, workload, seed, run_dir / f"plain-{len(plain)}", False, deadline))
        slowest_plain = max(slowest_plain, time.monotonic() - t0)
        if traced:
            tracedreps.append(
                run_sweep(exe, workload, seed, run_dir / f"traced-{len(tracedreps)}", True, deadline)
            )
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if len(plain) >= MIN_ROUNDS and elapsed + per_round + slowest_plain > seconds:
            break
        if elapsed + 1.5 * per_round + 1.5 * slowest_plain > HARD_LIMIT_S:
            if len(plain) < MIN_ROUNDS:
                raise BenchError(f"{workload}: sweeps too slow for {MIN_ROUNDS} rounds")
            break
    measured_s = time.monotonic() - start
    steal1 = steal_ticks()

    reps = plain + tracedreps
    checks = [dict(c, sweep=Path(r["dir"]).name) for r in reps for c in r["checks"]]
    first = plain[0]
    # Every sweep of a run uses the same seed, so every sweep, traced or
    # not, must reproduce the first one's per-point failure counts.
    for r in reps[1:]:
        if r["point_failures"] != first["point_failures"]:
            checks.append({
                "name": "failures_reproduce",
                "ok": False,
                "detail": f"{Path(r['dir']).name}: {r['point_failures']} != {first['point_failures']}",
                "sweep": Path(r["dir"]).name,
            })
    checks.append(dict(compare_cli(first, cli_exes, deadline), sweep=Path(first["dir"]).name))
    correct = all(c["ok"] for c in checks)
    attempted = sum(r["points"] for r in reps)
    failed = sum(r["failed_points"] for r in reps)

    e2e = {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "run_s": median([r["run_s"] for r in plain]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in plain]),
        "logical_error_rate": first["failures"] / first["shots"] if first["shots"] else 0.0,
    }
    units = dict(END_TO_END)
    print(
        f"== {workload}  seed {seed}  {first['points']} points x {first['shots_per_point']} shots"
        f"  {len(plain)} untraced" + (f" + {len(tracedreps)} traced" if traced else "")
        + f" sweeps in {measured_s:.1f} s"
    )
    for name, value in e2e.items():
        values = [r[name] for r in plain] if name != "logical_error_rate" else [value]
        extra = f"  (median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})" if len(values) > 1 else ""
        print(f"  {name:<22} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'failed_share':<22} {failed:>8}/{attempted} points")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}
    if traced:
        layer = {name: median([r["layers"][name] for r in tracedreps]) for name in tracedreps[0]["layers"]}
        layer["trace.overhead_s"] = median([r["wall_s"] for r in tracedreps]) - e2e["wall_s"]
        # The traced run side is the program's own, but the traced prepare
        # is a mirror of public calls: it must take as long as the real
        # prepare of the same points, timed right after it in each sweep.
        ratios = [r["mirror_setup_s"] / r["real_setup_s"] for r in tracedreps if r["real_setup_s"] > 0] or [1.0]
        drift = abs(median(ratios) - 1.0)
        limit = max(DRIFT_FLOOR, spread(ratios))
        layer["trace.setup_drift"] = drift
        layer["trace.drift_flags"] = int(drift > limit)
        if drift > limit:
            print(
                f"  DRIFT: mirrored prepare differs from the real one by {drift:.1%} (limit {limit:.1%}):"
                " the mirror no longer matches the program, so setup layer times may be misattributed"
            )
        print(f"  {'per-layer metric':<34} {'value':>14} {'unit':<13} {'layer':<38} moves")
        for m in layers:
            print(
                f"  {m['name']:<34} {layer[m['name']]:>14.6g} {m['unit']:<13} {m['layer']:<38}"
                f" {m['moves']} on {','.join(m['workloads'])}"
            )
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in layers}

    for c in checks:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['sweep']}: {c['name']}: {c['detail']}")
    print(f"  checks: {len(checks)} run, {sum(not c['ok'] for c in checks)} failed")
    provenance = {
        "workload": workload,
        "seed": seed,
        "shots_per_point": first["shots_per_point"],
        "nproc": os.cpu_count(),
        "engine_workers": 1,
        "sample_threads": 1,
        "commit": git_commit(),
        "process_cpu_s": sum(r["cpu_s"] for r in reps),
        "steal_ticks": steal1 - steal0 if steal0 >= 0 and steal1 >= 0 else None,
        "measured_s": measured_s,
        "elapsed_s": time.monotonic() - start,
        "sweeps": len(reps),
    }
    print("  provenance: " + json.dumps(provenance))
    (run_dir / "run.json").write_text(json.dumps({"provenance": provenance, "checks": checks}) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2020)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        layers = load_layers()
        exe = cargo_build(["--manifest-path", str(BENCH / "Cargo.toml")], ["perfbench-worker"])
        cli_exes = cargo_build(["-p", "vlq-bench", "--bin", "fig11", "--bin", "prog1"], ["fig11", "prog1"])
        correct = True
        for w in WORKLOADS if args.workload == "all" else (args.workload,):
            result = measure(exe["perfbench-worker"], cli_exes, w, args.seed, args.seconds, args.trace == 1, layers)
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
