"""riskbn benchmark: end-to-end `riskbn` command sequences and a traced
in-process replay that times each layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 56 --trace 0

Workloads: pipeline and latent (see README.md beside this file).
``--trace 0`` times the workload's `riskbn` commands as subprocesses and
reports wall_s, setup_s and peak_rss_mb; ``--trace 1`` replays the same
calls in this process with a span around each one and reports the
per-layer metrics. Every run checks the outputs against ``reference.json``
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--record`` runs one sample and
stores its outputs as the reference for that workload and seed instead.
"""

from __future__ import annotations

import os

# One BLAS thread per process: with one child at a time the load never
# exceeds the benchmark process plus one riskbn process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
# The string-hash seed of this process and of every riskbn child. riskbn
# multiplies elimination factors in set order, so the last digits of some
# floats follow the hash seed (README.md, "Known failures"); with it fixed,
# a repeat of a seed is a repeat of the whole process input.
HASH_SEED = "0"

import argparse
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

WORKLOADS = ("pipeline", "latent")
HERE = Path(__file__).resolve().parent
STATE = HERE / ".work"
REFERENCE = HERE / "reference.json"
MIN_IMPORTS = 3          # fresh-interpreter imports per run, before the workload samples
VALIDATE_REPEATS = 3
REL_TOL = 1e-9           # the repository's exactness tolerance

PER_LAYER_SPANS = (
    "cli.import", "cli.validate",
    "data.simulate", "data.save", "data.load", "data.filter", "data.summarize",
    "core.serialize", "core.parse",
    "inference.posterior", "inference.joint_table", "inference.evidence_probability",
    "inference.ancestral_sample",
    "learning.fit_cpts", "learning.em_fit", "learning.log_likelihood",
    "learning.em_fit_rt", "learning.log_likelihood_rt",
    "analysis.strength", "analysis.multifactor_game", "analysis.multifactor_profiling",
    "analysis.risk_profiles",
)
LAYERS = ("cli", "data", "core", "inference", "learning", "analysis")


def use_checkout(root: Path) -> Path:
    """Put ``root/src`` first on the import path and check that ``riskbn``
    comes from it. Exits without a result when the checkout has no source."""
    src = root / "src"
    if not (src / "riskbn" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'riskbn'} not found; run from the root of a riskbn checkout")
    sys.path.insert(0, str(src))
    import riskbn
    if Path(riskbn.__file__).resolve().parent != (src / "riskbn").resolve():
        sys.exit(f"error: riskbn imported from {riskbn.__file__}, not from {src}")
    return src


# --- children ------------------------------------------------------------------

class Child:
    """Runs one child process at a time and reports its wall time, exit
    code, peak RSS and output."""

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, argv: list[str], cwd: Path) -> dict:
        with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {"seconds": seconds, "code": proc.returncode, "rss_kb": usage.ru_maxrss,
                    "stdout": out.read().decode(errors="replace"),
                    "stderr": err.read().decode(errors="replace")}

    def riskbn(self, args, cwd: Path) -> dict:
        return self.run([sys.executable, "-m", "riskbn.cli", *args], cwd)

    def import_riskbn(self, cwd: Path) -> dict:
        return self.run([sys.executable, "-c", "import riskbn"], cwd)


# --- output checks -------------------------------------------------------------

def same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        a, b = float(a), float(b)
        return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def mismatches(got: dict, want: dict) -> list[str]:
    """Keys whose values differ beyond REL_TOL (floats) or at all (others)."""
    return [f"{k}: got {got.get(k, '<missing>')!r}, reference {want.get(k, '<missing>')!r}"
            for k in sorted(set(got) | set(want))
            if k not in got or k not in want or not same(got[k], want[k])]


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources: byte-identity of outputs
    is required between runs that share it."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestCache:
    """Table-output digests of earlier runs with the same code and seed."""

    def __init__(self, key: str):
        self.path = STATE / "digests.json"
        self.key = key
        self.all = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.seen = dict(self.all.get(key, {}))

    def check(self, name: str, digest: str) -> bool:
        return self.seen.setdefault(name, digest) == digest

    def save(self) -> None:
        self.all[self.key] = self.seen
        self.path.write_text(json.dumps(self.all, indent=1, sort_keys=True) + "\n")


# --- untraced run --------------------------------------------------------------

def run_sequence(child: Child, commands, work: Path, cache: DigestCache,
                 reference: dict | None, problems: list[str]) -> dict:
    """One sample: every command of the workload once, outputs checked."""
    sample = {"wall": 0.0, "rss_kb": 0, "failed": 0, "values": {}, "per_command": {}}
    for cmd in commands:
        result = child.riskbn(cmd.argv, work)
        sample["wall"] += result["seconds"]
        sample["rss_kb"] = max(sample["rss_kb"], result["rss_kb"])
        sample["per_command"][cmd.name] = result["seconds"]
        errors = []
        if result["code"] != 0:
            errors.append(f"exit code {result['code']}: {result['stderr'].strip()[-500:]}")
        else:
            outputs = {f"{cmd.name}:{t}": (work / t).read_bytes() for t in cmd.tables}
            outputs[f"{cmd.name}:stdout"] = result["stdout"].encode()
            for name, data in outputs.items():
                if not cache.check(name, hashlib.sha256(data).hexdigest()):
                    errors.append(f"{name} differs from an earlier run of the same code and seed")
            try:
                values = cmd.extract(work, result["stdout"])
            except (OSError, ValueError, KeyError, AttributeError) as exc:
                errors.append(f"output unreadable: {exc!r}")
                values = {}
            sample["values"][cmd.name] = values
            if reference is not None:
                errors += mismatches(values, reference.get(cmd.name, {}))
        if errors:
            sample["failed"] += 1
            problems += [f"{cmd.name}: {e}" for e in errors]
    return sample


def measure(child: Child, workload: str, seed: int, seconds: float, work: Path,
            cache: DigestCache, reference: dict | None, problems: list[str]) -> dict:
    import workloads

    commands = workloads.commands(workload, seed)
    start = time.perf_counter()
    imports = [child.import_riskbn(work) for _ in range(MIN_IMPORTS)]
    samples = []
    while True:
        samples.append(run_sequence(child, commands, work, cache, reference, problems))
        if time.perf_counter() - start + samples[-1]["wall"] > seconds:
            break
    while time.perf_counter() - start + statistics.median(i["seconds"] for i in imports) <= seconds:
        imports.append(child.import_riskbn(work))

    bad_imports = [i for i in imports if i["code"] != 0]
    problems += [f"import riskbn: exit code {i['code']}" for i in bad_imports]
    walls = [s["wall"] for s in samples]
    return {
        "attempted": len(samples) * len(commands) + len(imports),
        "failed": sum(s["failed"] for s in samples) + len(bad_imports),
        "metrics": {
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "setup_s": (statistics.median(i["seconds"] for i in imports), "s", len(imports)),
            "peak_rss_mb": (max(s["rss_kb"] for s in samples) / 1024, "MB", len(samples)),
        },
        "detail": {name: statistics.median(s["per_command"][name] for s in samples)
                   for name in samples[0]["per_command"]},
        "values": samples[0]["values"],
    }


# --- traced run ----------------------------------------------------------------

def traced(child: Child, workload: str, seed: int, work: Path, reference: dict | None,
           problems: list[str]) -> dict:
    import workloads
    from spans import Tracer, span_cost

    tracer = Tracer(f"{workload}-s{seed}-{os.getpid()}-{time.time_ns()}")
    children = []
    for _ in range(MIN_IMPORTS):
        with tracer.span("cli.import"):
            children.append(child.import_riskbn(work))
    counts, checked = workloads.replay(workload, seed, tracer.span, work)
    for _ in range(VALIDATE_REPEATS):
        with tracer.span("cli.validate"):
            children.append(child.riskbn(["validate", "model.json"], work))

    failed = sum(1 for c in children if c["code"] != 0)
    problems += [f"child exit code {c['code']}: {c['stderr'].strip()[-500:]}"
                 for c in children if c["code"] != 0]
    if reference is not None:
        flat = {k: v for values in reference.values() for k, v in values.items()}
        wrong = mismatches(checked, {k: flat.get(k, "<missing>") for k in checked})
        problems += [f"replay: {w}" for w in wrong]
        failed += bool(wrong)
    tracer.write(STATE / "traces" / f"{workload}-s{seed}.json")

    metrics = {f"{name}_s": (tracer.median(name), "s", len(tracer.durations(name)))
               for name in PER_LAYER_SPANS}
    for layer, seconds in tracer.self_times().items():
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] = (seconds, "s", 1)
    metrics.update({name: (value, unit, 1) for name, (value, unit) in counts.items()})
    for suffix in ("", "_rt"):
        iterations = counts[f"learning.em_iterations{suffix}"][0]
        metrics[f"learning.em_iter{suffix}_s"] = (
            metrics[f"learning.em_fit{suffix}_s"][0] / iterations, "s", iterations)
    metrics.update({
        "trace.spans": (len(tracer.spans), "count", 1),
        "trace.overhead_s": (len(tracer.spans) * span_cost(), "s", len(tracer.spans)),
    })
    return {"attempted": len(tracer.spans), "failed": failed, "metrics": metrics,
            "detail": {}, "values": {}}


# --- entry point ---------------------------------------------------------------

def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop. It does not depend on
    riskbn, so a shift in it between runs is the host, not the program."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def environment(src: Path) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
        "src": str(src),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference instead of checking")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record stores the outputs of the timed commands; use it with --trace 0")

    root = Path.cwd()
    src = use_checkout(root)
    import workloads

    env = environment(src)
    env["loadavg_before"] = os.getloadavg()
    env["host_probe_ms_before"] = host_probe_ms()
    seed = args.seed % workloads.COHORT_SEEDS
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = None if args.record else references.get(args.workload, {}).get(str(seed))
    problems: list[str] = []
    if reference is None and not args.record:
        problems.append(f"no reference for {args.workload} cohort seed {seed} in {REFERENCE}")

    work = STATE / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = Child(src)
    cache = DigestCache(f"{code_digest(root)}/{args.workload}/{args.seed}")
    try:
        child.import_riskbn(work)   # warm the bytecode and file caches, untimed
        if args.trace:
            result = traced(child, args.workload, seed, work, reference, problems)
        else:
            workloads.prepare(args.workload, seed, work)
            seconds = 0.0 if args.record else args.seconds
            result = measure(child, args.workload, seed, seconds, work, cache, reference,
                             problems)
            cache.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["host_probe_ms_after"] = host_probe_ms()

    if args.record:
        references.setdefault(args.workload, {})[str(seed)] = result["values"]
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    failed = result["failed"] + (1 if reference is None and not args.record else 0)
    attempted = result["attempted"]
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed} (cohort seed {seed}), "
          f"trace {args.trace}: {attempted} attempted, {failed} failed, "
          f"failed_frac = {failed / attempted:.4g} ratio")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    for name, seconds in result["detail"].items():
        print(f"  command {name}: {seconds:.4g} s (median)")
    for problem in problems:
        print(f"check failed: {problem}")
    for value, _, _ in result["metrics"].values():
        if not math.isfinite(value):
            print("check failed: a metric is not finite")
            failed += 1
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start again, in this same process, with the fixed hash seed.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
