"""Run evalkit CLI stages in one fresh process and time them.

Usage: python3 perfbench/worker.py SPEC.json

SPEC lists stages. A stage is one operation, a sequence of evalkit command
lines, repeated `repeat` times; each repetition is timed around
`evalkit.cli.main` in this already-started process, so interpreter start and
imports are not counted, and its output files are digested after the clock
stops. The peak resident memory is read after the stage marked `rss`, which
runs first, so it is the peak of a process that has run only that stage.
With `trace`, the first stage is run once untraced, then every stage again
under the tracer, and the kernels are timed directly on the corpus pairs.
The results go to SPEC["result"] as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in map(Path, paths):
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """This process's resident high-water mark (VmHWM).

    getrusage's ru_maxrss is not used: Linux folds the forking parent's
    resident size into it at exec, so a child of a large parent would report
    the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_stage(main, stage: dict) -> dict:
    times, codes, digests = [], [], []
    for _ in range(stage["repeat"]):
        code: int | str = 0
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                for argv in stage["argv"]:
                    code = main(argv)
                    if code:
                        break
            except Exception:  # a crash fails the operation; keep the record
                code = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - start)
        codes.append(code)
        digests.append(digest(stage["outputs"]))
    return {"times": times, "codes": codes, "digests": digests}


def kernel_bench(corpus: str, repeats: int = 3) -> dict[str, float]:
    """Mean per-pair time of the active kernels, called directly (untraced) on
    the workload's own pairs: character Levenshtein on the raw snippets and LCS
    on whitespace tokens, the median of `repeats` passes."""
    from evalkit import _kernels

    with open(corpus, encoding="utf-8") as fh:
        pairs = [(r["prediction"], r["reference"]) for r in map(json.loads, fh)]
    token_pairs = [(p.split(), r.split()) for p, r in pairs]
    out = {}
    for name, fn, data in (("levenshtein", _kernels.levenshtein, pairs),
                           ("lcs", _kernels.lcs_length, token_pairs)):
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in data:
                fn(a, b)
            runs.append((time.perf_counter() - start) / len(data))
        out[name] = statistics.median(runs)
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import evalkit
    from evalkit.cli import main as cli_main

    result: dict = {"backend": evalkit.kernel_backend(), "version": evalkit.__version__,
                    "stages": {}}
    stages = spec["stages"]
    if spec.get("trace"):
        from spans import Tracer, summarize

        first = dict(stages[0], repeat=1)
        untraced = run_stage(cli_main, first)["times"][0]
        tracer = Tracer()
        tracer.install()
        try:
            for stage in stages:
                tracer.stage = stage["name"]
                result["stages"][stage["name"]] = run_stage(cli_main, stage)
        finally:
            tracer.uninstall()
        metrics, notes = summarize(tracer.spans, spec["size"])
        bench = kernel_bench(spec["corpus"])
        metrics["kernels.levenshtein_bench_us_per_pair"] = (bench["levenshtein"] * 1e6, "us")
        metrics["kernels.lcs_bench_us_per_pair"] = (bench["lcs"] * 1e6, "us")
        metrics["trace.eval_untraced_s"] = (untraced, "s")
        metrics["trace.eval_traced_s"] = (result["stages"][stages[0]["name"]]["times"][0], "s")
        result["metrics"], result["notes"] = metrics, notes
        Path(spec["spans"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        for stage in stages:
            result["stages"][stage["name"]] = run_stage(cli_main, stage)
            if stage.get("rss"):
                result["peak_rss_mb"] = peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
