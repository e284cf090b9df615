#!/usr/bin/env python3
"""evalkit benchmark: the user pipeline on a seeded corpus, timed and checked.

Usage (from the repository root):
    python3 perfbench/run.py --workload shellcode-asm --seed 1 --seconds 40 --trace 0

Each run generates the workload's corpus from --seed, measures set-up time
in fresh interpreters, then repeats whole rounds of
`eval --jobs 1`, `eval --jobs <nproc>`, `analyze` and `preprocess` (forward
and --destandardize) until --seconds are spent, each round in a fresh worker
process. The first round's outputs are checked against computations made
apart from evalkit (checks.py); later rounds must reproduce them byte for
byte. With --trace 1 one round runs under the tracer (spans.py) instead and
the per-layer metrics are printed. The last line of standard output is the
JSON result; the run's files, environment record and spans are left in
.perfbench/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from gen import GENERATORS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
AS_ARGV = ["as", "--32", "-msyntax=intel", "-mnaked-reg", "-o", "/dev/null"]

PROBE = (
    "import sys\n"
    "import evalkit.cli as cli\n"
    "from evalkit.corpus import load_corpus\n"
    "load_corpus(sys.argv[1], 'jsonl')\n"
    "cli.load_metric_config(None, sys.argv[2] or None)\n"
)
PROBES_PER_ROUND = 2


@dataclass(frozen=True)
class Workload:
    size: int  # samples in the corpus of a timed run
    trace_size: int  # samples in the corpus of a traced run
    analyze_repeat: int  # analyze operations per round
    preprocess_repeat: int  # preprocess operations per round
    checked: int  # samples compared with the reference metrics
    checker: str | None = None  # --checker argument


WORKLOADS = {
    "shellcode-asm": Workload(size=150, trace_size=1000, analyze_repeat=8, preprocess_repeat=8,
                              checked=40),
    "python-multiline": Workload(size=16, trace_size=60, analyze_repeat=16, preprocess_repeat=16,
                                 checked=6),
    "asm-toolchain": Workload(size=100, trace_size=400, analyze_repeat=8, preprocess_repeat=8,
                              checked=30,
                              checker="cmd:" + " ".join(AS_ARGV) + " {file}"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def stages(wl: Workload, run: Path, corpus: Path, nproc: int) -> list[dict]:
    c = str(corpus)
    checker = ["--checker", wl.checker] if wl.checker else []
    e1, e2, an, std, back = (str(run / d) for d in ("eval1", "evalN", "analysis", "std", "back"))
    return [
        {"name": "eval", "repeat": 1, "rss": True, "outputs": [f"{e1}/results.csv"],
         "argv": [["eval", "--corpus", c, "--out", e1, "--jobs", "1", *checker]]},
        {"name": "eval_parallel", "repeat": 1, "outputs": [f"{e2}/results.csv"],
         "argv": [["eval", "--corpus", c, "--out", e2, "--jobs", str(nproc), *checker]]},
        {"name": "analyze", "repeat": wl.analyze_repeat, "outputs": [an],
         "argv": [["analyze", "--corpus", c, "--results", f"{e1}/results.csv", "--out", an]]},
        {"name": "preprocess", "repeat": wl.preprocess_repeat, "outputs": [std, back],
         "argv": [["preprocess", "--corpus", c, "--out", std],
                  ["preprocess", "--corpus", f"{std}/corpus.jsonl", "--out", back,
                   "--destandardize", "--sidecar", f"{std}/standardization_maps.jsonl"]]},
    ]


def run_worker(spec: dict, run: Path, env: dict) -> dict:
    """One fresh worker process; returns its result, or {} if it failed."""
    path = run / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    result = Path(spec["result"])
    result.unlink(missing_ok=True)
    with open(run / "worker.log", "a", encoding="utf-8") as log:
        try:
            code = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")), str(path)],
                                  env=env, stdout=log, stderr=log, timeout=170).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result.exists():
        print(f"perfbench: worker exited {code}; see {run / 'worker.log'}", file=sys.stderr)
        return {}
    return json.loads(result.read_text(encoding="utf-8"))


def check_round(run: Path, records, truth, wl: Workload, seed: int, result: dict) -> dict:
    """Deep checks of one round's outputs: the ids failed in each stage.

    A stage whose first operation exited nonzero, or whose output cannot be
    read as the format it should have, fails every sample.
    """
    rng = random.Random(f"check/{seed}")
    ids = [r["id"] for r in records]
    notes: list[str] = []
    scores: dict = {}

    def eval_checks() -> set:
        nonlocal scores
        bad, msgs, scores = checks.check_results(run / "eval1" / "results.csv", records, truth,
                                                 rng.sample(ids, min(len(ids), wl.checked)))
        notes.extend(msgs)
        if wl.checker:
            sub = rng.sample(records, min(len(records), wl.checked))
            more, msgs = checks.check_assembler(sub, scores, AS_ARGV, run / "tmp")
            bad |= more
            notes.extend(msgs)
        return bad

    def parallel_checks() -> set:
        one = (run / "eval1" / "results.csv").read_bytes().splitlines()
        many = (run / "evalN" / "results.csv").read_bytes().splitlines()
        differ = {row.split(b",")[0].decode() for row in set(one) ^ set(many)} & set(ids)
        if differ or one != many:
            notes.append(f"--jobs {len(os.sched_getaffinity(0))} results.csv differs from --jobs 1")
            return set(ids) if one != many and not differ else differ
        return set()

    def analyze_checks() -> set:
        msgs = checks.check_analysis(run / "analysis", records, scores)
        notes.extend(msgs)
        return set(ids) if msgs else set()

    def preprocess_checks() -> set:
        bad, msgs = checks.check_preprocess(run / "std", run / "back", records, truth)
        notes.extend(msgs)
        return bad

    failed: dict[str, set] = {}
    for name, check in (("eval", eval_checks), ("eval_parallel", parallel_checks),
                        ("analyze", analyze_checks), ("preprocess", preprocess_checks)):
        code = result["stages"][name]["codes"][0]
        if code != 0:
            notes.append(f"{name} exited {code}")
            failed[name] = set(ids)
            continue
        try:
            failed[name] = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            notes.append(f"{name} output unreadable: {type(exc).__name__}: {exc}")
            failed[name] = set(ids)
    failed["eval_parallel"] |= failed["eval"]
    for note in notes[:40]:
        print(f"check failed: {note}", file=sys.stderr)
    return failed


def verify(run: Path, records, truth, wl: Workload, seed: int, result: dict) -> tuple[dict, dict]:
    """Check the first round; returns (failed ids per stage, output digest per stage)."""
    if not result:
        return {}, {}
    checked = check_round(run, records, truth, wl, seed, result)
    digests = {name: stage["digests"][0] for name, stage in result["stages"].items()}
    digests["eval_parallel"] = digests["eval"]  # must reproduce --jobs 1 byte for byte
    return checked, digests


def account(result: dict, checked: dict, reference: dict, n: int) -> tuple[int, int]:
    """(attempted, failed) samples of one round. An operation whose output
    matches the checked one's digest fails the same samples; any other output,
    or a nonzero exit, fails every sample of the operation."""
    attempted = failed = 0
    for name, ids in checked.items():
        stage = result.get("stages", {}).get(name)
        if stage is None:
            continue
        for code, dig in zip(stage["codes"], stage["digests"]):
            attempted += n
            if code != 0 or dig != reference[name]:
                failed += n
            else:
                failed += len(ids)
    return attempted, failed


def environment(result: dict, nproc: int) -> dict:
    def first_line(argv: list[str]) -> str:
        try:
            out = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT)
        except OSError:
            return "not found"
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout else "unknown"

    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "kernel_backend": result.get("backend", "unknown"),
        "evalkit": result.get("version", "unknown"),
        "nproc": nproc,
        "commit": first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
        "as": first_line(["as", "--version"]),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="corpus size (default: the workload's; small values make a smoke run)")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if not (SRC / "evalkit" / "cli.py").is_file():
        return fail(f"evalkit sources not found under {SRC}")
    if wl.checker and shutil.which("as") is None:
        return fail("the GNU assembler `as` is not on PATH; asm-toolchain needs it")
    size = args.size or (wl.trace_size if args.trace else wl.size)
    nproc = len(os.sched_getaffinity(0))
    run = ROOT / ".perfbench" / args.workload
    shutil.rmtree(run, ignore_errors=True)
    (run / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(run / "tmp"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    records, truth = GENERATORS[args.workload](size, args.seed)
    corpus = run / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    plan = stages(wl, run, corpus, nproc)
    spec = {"stages": plan, "size": size,
            "corpus": str(corpus), "spans": str(run / "spans.json"), "trace": bool(args.trace)}

    probe = [sys.executable, "-c", PROBE, str(corpus), wl.checker or ""]
    setup: list[float] = []
    rounds: list[dict] = []
    spent = 0.0
    if not args.trace:  # the first probe also writes the bytecode caches
        code = subprocess.run(probe, env=env, stdout=subprocess.DEVNULL).returncode
        if code:
            return fail(f"set-up probe exited {code}")
    while not rounds or (not args.trace and spent + spent / len(rounds) <= args.seconds):
        start = time.perf_counter()
        if not args.trace:
            for _ in range(PROBES_PER_ROUND):
                # A blocking wait: Popen.wait with a timeout polls with sleeps of
                # up to 50 ms, which would quantize the measured time.
                t0 = time.perf_counter()
                subprocess.run(probe, env=env, stdout=subprocess.DEVNULL)
                setup.append(time.perf_counter() - t0)
        rounds.append(run_worker(dict(spec, result=str(run / f"result{len(rounds)}.json")), run, env))
        spent += time.perf_counter() - start
        if len(rounds) == 1:  # check before the next round overwrites the outputs
            verified = verify(run, records, truth, wl, args.seed, rounds[0])
    (run / "setup.json").write_text(json.dumps(setup), encoding="utf-8")
    result = rounds[0]
    ops = sum(stage["repeat"] for stage in plan)
    attempted = failed = 0
    for res in rounds:
        a, f = account(res, *verified, size) if res and verified[0] else (size * ops, size * ops)
        attempted, failed = attempted + a, failed + f

    env_record = dict(environment(result, nproc), workload=args.workload, seed=args.seed, size=size)
    (run / "env.json").write_text(json.dumps(env_record, indent=2) + "\n", encoding="utf-8")
    print("env: " + json.dumps(env_record))

    metrics: dict[str, dict] = {}
    if args.trace and result:
        for note in result["notes"]:
            print(f"note: {note}")
        for name, (value, unit) in result["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
    elif not args.trace:
        good = [r for r in rounds if r]

        def rate(stage: str) -> float:
            times = [t for r in good for t in r["stages"][stage]["times"]]
            return size / statistics.median(times) if times else 0.0

        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        for name, stage in (("eval_samples_per_s", "eval"),
                            ("eval_parallel_samples_per_s", "eval_parallel"),
                            ("analyze_samples_per_s", "analyze"),
                            ("preprocess_samples_per_s", "preprocess")):
            metrics[name] = {"value": rate(stage), "unit": "1/s"}
        rss = [r["peak_rss_mb"] for r in good]
        metrics["peak_rss_mb"] = {"value": statistics.median(rss) if rss else 0.0, "unit": "MB"}
        print(f"rounds: {len(rounds)}; set-up probes: {len(setup)}; samples per operation: {size}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
