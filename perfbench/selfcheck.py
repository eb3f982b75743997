"""Self-check of the benchmark code. Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seeds 0,7]

It checks that
  * workload inputs and command lines are deterministic per seed and differ
    between seeds;
  * the output check rejects a value off by more than 1e-9 relative, a
    changed count and a missing key, and accepts a 1e-12 relative change;
  * a run against a deliberately wrong reference reports correct = false;
  * every workload, end-to-end metric and per-layer metric named in
    BENCHMARK.json is emitted by runs on each seed, and those runs pass
    their output checks;
  * repeating the first seed's untimed and traced runs passes too: the
    repeat compares the table outputs of two processes byte for byte, and
    the per-layer counts, byte sizes and ratios repeat exactly;
  * a directory holding only BENCHMARK.json and the benchmark files makes
    the benchmark exit non-zero without printing a result.

It also reports whether the program's known hash-order defect is still
there: `fit_latent_rt` run under two string-hash seeds must give values
that agree to 1e-9, and the report says whether its bytes differ.

Every run happens in a copy of the checkout under perfbench/.work, so the
self-check neither reads nor changes the output digests of earlier runs.
The full check takes about ten minutes on a 2-core host. Exits 0 when
everything holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()
SCRATCH = run.STATE / "selfcheck"


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def digests(directory: Path) -> dict[str, str]:
    """Digests of the table files; manifests carry a timestamp and are left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if p.suffix in (".csv", ".json") and not p.name.endswith(".manifest.json")}


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    """A copy of the files the benchmark needs, without earlier run state."""
    skip = shutil.ignore_patterns(".work", "__pycache__")
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(run.HERE, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def bench(args: list[str], cwd: Path) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_inputs(workloads, seeds: list[int], failures: list[str]) -> None:
    for name in run.WORKLOADS:
        made = []
        for k, seed in enumerate([seeds[0], seeds[0], seeds[1]]):
            work = SCRATCH / f"{name}-{k}"
            work.mkdir(parents=True)
            workloads.prepare(name, seed, work)
            made.append((digests(work), [c.argv for c in workloads.commands(name, seed)]))
        check(made[0] == made[1], f"{name}: inputs and commands repeat for seed {seeds[0]}",
              failures)
        if name != "pipeline":   # pipeline's only input is its `simulate --seed` argument
            check(made[0][0] != made[2][0], f"{name}: seeds {seeds[0]} and {seeds[1]} "
                  "give different inputs", failures)
        check(made[0][1] != made[2][1], f"{name}: seeds give different command lines", failures)


def check_checker(reference: dict, failures: list[str]) -> None:
    values = reference["pipeline"]["0"]["multifactor"]
    key = "multifactor.profiling.k3.max"
    count = "multifactor.profiling.k3.evaluated"
    check(not run.mismatches(values, dict(values)), "identical values pass", failures)
    check(not run.mismatches(values, {**values, key: values[key] * (1 + 1e-12)}),
          "a 1e-12 relative change passes", failures)
    check(bool(run.mismatches(values, {**values, key: values[key] * (1 + 1e-6)})),
          "a 1e-6 relative change fails", failures)
    check(bool(run.mismatches(values, {**values, count: values[count] + 1})),
          "a changed count fails", failures)
    check(bool(run.mismatches(values, {k: v for k, v in values.items() if k != key})),
          "a missing value fails", failures)


def check_runs(benchmark: dict, seeds: list[int], failures: list[str]) -> None:
    per_mode = {0: {m["name"] for m in benchmark["end_to_end"]},
                1: {m["name"] for m in benchmark["per_layer"]}}
    names = {w["name"] for w in benchmark["workloads"]}
    check(names == set(run.WORKLOADS), "BENCHMARK.json names exactly the run.py workloads",
          failures)
    exact = {m["name"] for m in benchmark["per_layer"] if m["unit"] != "s"}
    checkout = copy_checkout(SCRATCH / "checkout")
    for name in run.WORKLOADS:
        traced = []
        for i, seed in enumerate(seeds + seeds[:1]):
            for trace, expected in per_mode.items():
                code, result, output = bench(["--workload", name, "--seed", str(seed),
                                              "--seconds", "0", "--trace", str(trace)], checkout)
                label = f"{name} seed {seed} trace {trace}"
                if i == len(seeds):
                    label += " (repeat)"
                ok = code == 0 and result is not None
                check(ok and result["correct"] and result["failed"] == 0,
                      f"{label}: runs and passes its output checks", failures)
                check(ok and set(result["metrics"]) == expected,
                      f"{label}: emits every metric of BENCHMARK.json", failures)
                if not ok or not result["correct"]:
                    print(output)
                if ok and trace == 1 and seed == seeds[0]:
                    traced.append({k: v["value"] for k, v in result["metrics"].items()
                                   if k in exact})
        check(len(traced) == 2 and traced[0] == traced[1],
              f"{name}: per-layer counts repeat exactly on seed {seeds[0]}", failures)


def check_wrong_reference(reference: dict, failures: list[str]) -> None:
    checkout = copy_checkout(SCRATCH / "wrong")
    wrong = json.loads(json.dumps(reference))
    values = wrong["latent"]["0"]["fit_latent_rt"]
    values["em_rt.objective"] *= 1 + 1e-6
    (checkout / "perfbench" / "reference.json").write_text(json.dumps(wrong))
    code, result, output = bench(["--workload", "latent", "--seed", "0",
                                  "--seconds", "0", "--trace", "0"], checkout)
    check(code == 0 and result is not None and not result["correct"] and result["failed"] >= 1
          and "em_rt.objective: got" in output,
          "a run against a wrong reference reports correct = false, naming the value", failures)


def check_hash_order(workloads, seed: int, failures: list[str]) -> None:
    """Run `fit_latent_rt` under two string-hash seeds. The benchmark fixes
    the hash seed, so this is the one place the known defect shows."""
    work = SCRATCH / "hash-order"
    work.mkdir(parents=True)
    workloads.prepare("latent", seed, work)
    cmd = next(c for c in workloads.commands("latent", seed) if c.name == "fit_latent_rt")
    runs = []
    for hash_seed in ("1", "2"):
        child = run.Child(ROOT / "src")
        child.env["PYTHONHASHSEED"] = hash_seed
        result = child.riskbn(list(cmd.argv), work)
        ok = result["code"] == 0
        runs.append((ok, {t: (work / t).read_bytes() for t in cmd.tables} if ok else {},
                     cmd.extract(work, result["stdout"]) if ok else {}))
    check(runs[0][0] and runs[1][0] and not run.mismatches(runs[0][2], runs[1][2]),
          "fit_latent_rt values agree to 1e-9 under hash seeds 1 and 2", failures)
    differ = [t for t in cmd.tables if runs[0][1].get(t) != runs[1][1].get(t)]
    print("known program defect, fit_latent_rt bytes follow the hash seed: "
          + (f"still there ({', '.join(differ)} differ)" if differ else "not seen"))


def check_bare_directory(failures: list[str]) -> None:
    bare = copy_checkout(SCRATCH / "bare", with_src=False)
    code, result, _ = bench(["--workload", "pipeline", "--seed", "0", "--seconds", "1",
                             "--trace", "0"], cwd=bare)
    check(code != 0 and result is None, "without the program: non-zero exit and no result",
          failures)


def main() -> int:
    parser = argparse.ArgumentParser(description="self-check of the riskbn benchmark")
    parser.add_argument("--seeds", default="0,7",
                        help="development and held-out seed (default 0,7)")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    run.use_checkout(ROOT)
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((run.HERE / "reference.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    failures: list[str] = []
    try:
        check_inputs(workloads, seeds, failures)
        check_checker(reference, failures)
        check_bare_directory(failures)
        check_wrong_reference(reference, failures)
        check_hash_order(workloads, seeds[0], failures)
        check_runs(benchmark, seeds, failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
