"""Checks of evalkit's outputs against computations made apart from evalkit.

The references are written from the metric definitions: textbook dynamic
programs for Levenshtein distance and LCS, Counter n-gram overlap, unigram
counts for METEOR's F-mean, `math.fsum` for offsets and scipy for the
correlations. Each check returns the ids of the samples whose output is wrong
(or all ids, for an aggregate output such as the analysis tables) together
with one message per problem.
"""

from __future__ import annotations

import csv
import json
import math
import re
import subprocess
import warnings
from collections import Counter
from pathlib import Path

CANONICAL = (
    "CA",
    *(f"ROUGE-{n}-{part}" for n in (1, 2, 3, 4) for part in ("P", "R", "F1")),
    "ROUGE-L-P", "ROUGE-L-R", "ROUGE-L-F1",
    "BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4",
    "EM", "METEOR", "ED",
)
# METEOR's default parameters (Banerjee & Lavie 2005 weighting).
ALPHA, BETA, GAMMA = 0.9, 3.0, 0.5
TOL = 1e-6  # results.csv carries 6 decimals
RENDER_TOL = 5e-4 + 1e-9  # analysis tables carry 3 decimals

_WS = re.compile(r"[ \t\f\v]+")
_PUNCT_CHUNK = re.compile(r"[A-Za-z0-9_]+|[+\-*/%=!<>&|^~]+|\S")


def _tokens(text: str, split) -> list[str]:
    out: list[str] = []
    for k, segment in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n")):
        if k:
            out.append("\n")
        out.extend(split(segment))
    return out


def code_tokens(text: str) -> list[str]:
    """Whitespace tokens with one token per newline (the n-gram metrics' view)."""
    return _tokens(text, lambda seg: [t for t in _WS.split(seg) if t])


def punct_tokens(text: str) -> list[str]:
    """Word runs, operator runs and single other characters (METEOR's view)."""
    return _tokens(text, _PUNCT_CHUNK.findall)


# ---------------------------------------------------------------------------
# Reference metrics


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[len(b)]


def lcs(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def _grams(seq: list[str], n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _prf(match: int, n_pred: int, n_ref: int) -> tuple[float, float, float]:
    p = match / n_pred if n_pred else 0.0
    r = match / n_ref if n_ref else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def bleu(pred: list[str], ref: list[str], max_n: int) -> float:
    """Unsmoothed sentence BLEU; an order neither side has n-grams for counts 1."""
    if not pred:
        return 0.0
    logs = 0.0
    for n in range(1, max_n + 1):
        pg = _grams(pred, n)
        if not pg:
            p = 0.0 if len(ref) >= n else 1.0
        else:
            p = sum((pg & _grams(ref, n)).values()) / sum(pg.values())
        if p == 0.0:
            return 0.0
        logs += math.log(p)
    bp = 1.0 if len(pred) >= len(ref) else math.exp(1 - len(ref) / len(pred))
    return bp * math.exp(logs / max_n)


def reference_scores(pred: str, ref: str) -> dict[str, float]:
    """Every metric but CA and METEOR, from the definitions."""
    p, r = code_tokens(pred), code_tokens(ref)
    out: dict[str, float] = {}
    for n in (1, 2, 3, 4):
        pg, rg = _grams(p, n), _grams(r, n)
        scores = _prf(sum((pg & rg).values()), sum(pg.values()), sum(rg.values()))
        out.update(zip((f"ROUGE-{n}-P", f"ROUGE-{n}-R", f"ROUGE-{n}-F1"), scores))
        out[f"BLEU-{n}"] = bleu(p, r, n)
    scores = _prf(lcs(p, r), len(p), len(r)) if p and r else (0.0, 0.0, 0.0)
    out.update(zip(("ROUGE-L-P", "ROUGE-L-R", "ROUGE-L-F1"), scores))
    trim = lambda s: [line.rstrip() for line in s.split("\n")]  # noqa: E731
    out["EM"] = float(trim(pred) == trim(ref))
    longest = max(len(pred), len(ref))
    out["ED"] = 1.0 - levenshtein(pred, ref) / longest if longest else 1.0
    return out


def meteor_bounds(pred: str, ref: str) -> tuple[float, float]:
    """[Fmean * (1 - gamma), Fmean] from unigram matches: any chunk count fits."""
    p, r = punct_tokens(pred), punct_tokens(ref)
    m = sum((Counter(p) & Counter(r)).values())
    if m == 0:
        return 0.0, 0.0
    prec, rec = m / len(p), m / len(r)
    fmean = prec * rec / (ALPHA * prec + (1 - ALPHA) * rec)
    return fmean * (1 - GAMMA), fmean


# ---------------------------------------------------------------------------
# eval


def read_results(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else []), rows[1:]


def check_results(path: Path, records: list[dict], truth: dict, sub: list[str]) -> tuple[set, list, dict]:
    """results.csv against the corpus; returns (failed ids, messages, scores by id).

    Every row gets the shape, range, CA, METEOR-bound and identical-pair
    checks; the ids in `sub` are also compared with the reference metrics.
    """
    ids = [r["id"] for r in records]
    header, rows = read_results(path)
    if header != ["id", *CANONICAL]:
        return set(ids), [f"{path}: header {header[:4]}... is not id + the 23 canonical metrics"], {}
    failed: set[str] = set()
    problems: list[str] = []

    def fail(sid: str, why: str) -> None:
        failed.add(sid)
        if len(problems) < 20:
            problems.append(f"{sid}: {why}")

    got_ids = [row[0] for row in rows]
    if got_ids != sorted(ids):
        missing = set(ids) - set(got_ids)
        for sid in missing or ids:
            fail(sid, "row missing, duplicated or out of id order")
    scores: dict[str, dict[str, float]] = {}
    for row in rows:
        sid = row[0]
        if len(row) != len(header) or not all(re.fullmatch(r"\d\.\d{6}", v) for v in row[1:]):
            fail(sid, f"malformed row {row[:4]}")
            continue
        vec = dict(zip(CANONICAL, map(float, row[1:])))
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vec.values()):
            fail(sid, "value outside [0, 1]")
        scores[sid] = vec
    by_id = {r["id"]: r for r in records}
    for sid, vec in scores.items():
        rec = by_id.get(sid)
        if rec is None:
            fail(sid, "id not in corpus")
            continue
        pred, ref = rec["prediction"], rec["reference"]
        if vec["CA"] != float(truth[sid]["valid"]):
            fail(sid, f"CA {vec['CA']} but the generator built valid={truth[sid]['valid']}")
        lo, hi = meteor_bounds(pred, ref)
        if not lo - TOL <= vec["METEOR"] <= hi + TOL:
            fail(sid, f"METEOR {vec['METEOR']} outside [{lo:.6f}, {hi:.6f}]")
        if truth[sid]["identical"]:
            n_tok = len(code_tokens(ref))
            expect = {"EM": 1.0, "ED": 1.0}
            expect.update({f"ROUGE-L-{x}": 1.0 for x in ("P", "R", "F1")})
            for n in (1, 2, 3, 4):
                if n_tok >= n:
                    expect.update({f"ROUGE-{n}-{x}": 1.0 for x in ("P", "R", "F1")})
                    expect[f"BLEU-{n}"] = 1.0
            m = len(punct_tokens(ref))
            expect["METEOR"] = 1 - GAMMA * (1 / m) ** BETA
            for name, want in expect.items():
                if abs(vec[name] - want) > TOL:
                    fail(sid, f"identical pair: {name} {vec[name]} != {want:.6f}")
    for sid in sub:
        rec = by_id[sid]
        if sid not in scores:
            continue
        for name, want in reference_scores(rec["prediction"], rec["reference"]).items():
            if abs(scores[sid][name] - want) > TOL:
                fail(sid, f"{name} {scores[sid][name]} != reference {want:.6f}")
    return failed, problems, scores


def check_assembler(records: list[dict], scores: dict, argv: list[str], tmp: Path):
    """CA of the given samples against the GNU assembler's own verdict."""
    failed, problems = set(), []
    for rec in records:
        src = tmp / "direct.s"
        src.write_text(rec["prediction"], encoding="utf-8")
        verdict = subprocess.run([*argv, str(src)], stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL, timeout=30).returncode == 0
        got = scores.get(rec["id"], {}).get("CA")
        if got != float(verdict):
            failed.add(rec["id"])
            problems.append(f"{rec['id']}: CA {got} but `as` says accepted={verdict}")
    return failed, problems


# ---------------------------------------------------------------------------
# analyze


def _rendered(cell: str) -> float | None:
    return None if cell == "undef" else float(cell)


def _close(cell: str, want: float | None) -> bool:
    got = _rendered(cell)
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= RENDER_TOL


def check_analysis(out: Path, records: list[dict], scores: dict) -> list[str]:
    """Offsets, correlations and counts of one `analyze` output directory."""
    from scipy import stats as sps

    problems: list[str] = []
    labeled = [r for r in records if "sc" in r]
    parts = {
        "whole": labeled,
        "correct": [r for r in labeled if r["sc"] == 1],
        "wrong": [r for r in labeled if r["sc"] == 0],
    }
    with open(out / "offsets.csv", encoding="utf-8", newline="") as fh:
        table = {row["metric"]: row for row in csv.DictReader(fh)}
    if list(table) != [*CANONICAL, "Average"]:
        return [f"offsets.csv rows {list(table)[:3]}... are not the canonical metrics"]
    for part, members in parts.items():
        sc_mean = math.fsum(r["sc"] for r in members) / len(members)
        means, offs = [], []
        for metric in CANONICAL:
            mean = math.fsum(scores[r["id"]][metric] for r in members) / len(members)
            means.append(mean)
            offs.append(abs(mean - sc_mean))
            row = table[metric]
            if not (_close(row[f"{part}_value"], mean) and _close(row[f"{part}_offset"], offs[-1])):
                problems.append(f"offsets {part}/{metric}: {row[f'{part}_value']}, "
                                f"{row[f'{part}_offset']} != {mean:.4f}, {offs[-1]:.4f}")
        avg = table["Average"]
        if not (_close(avg[f"{part}_value"], math.fsum(means) / len(means))
                and _close(avg[f"{part}_offset"], math.fsum(offs) / len(offs))):
            problems.append(f"offsets {part}/Average does not match")

    with open(out / "correlation.csv", encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    corr = {row["metric"]: row for row in csv.DictReader(lines)}
    sc = [r["sc"] for r in labeled]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for metric in CANONICAL:
            row = corr.get(metric)
            if row is None:
                problems.append(f"correlation.csv has no row for {metric}")
                continue
            x = [scores[r["id"]][metric] for r in labeled]
            r_want = float(sps.pearsonr(x, sc)[0])
            tau_want = float(sps.kendalltau(x, sc)[0])
            r_want = None if math.isnan(r_want) else r_want
            tau_want = None if math.isnan(tau_want) else tau_want
            if not (_close(row["pearson_r"], r_want) and _close(row["kendall_tau"], tau_want)
                    and row["n"] == str(len(labeled))):
                problems.append(f"correlation {metric}: r={row['pearson_r']} tau={row['kendall_tau']}"
                                f" n={row['n']}, scipy r={r_want} tau={tau_want} n={len(labeled)}")

    meta = json.loads((out / "analysis_meta.json").read_text(encoding="utf-8"))
    want = {"samples": str(len(records)), "labeled": str(len(labeled)),
            "unlabeled_skipped": str(len(records) - len(labeled))}
    for key, value in want.items():
        if meta.get(key) != value:
            problems.append(f"analysis_meta {key}={meta.get(key)} but the generator made {value}")
    return problems


# ---------------------------------------------------------------------------
# preprocess


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_preprocess(std: Path, back: Path, records: list[dict], truth: dict) -> tuple[set, list]:
    """Standardize then destandardize restores every sample; every placed literal is mapped."""
    failed, problems = set(), []
    sidecar = {row["id"]: row["map"] for row in _jsonl(std / "standardization_maps.jsonl")}
    restored = {row["id"]: row for row in _jsonl(back / "corpus.jsonl")}
    for rec in records:
        sid = rec["id"]
        if restored.get(sid) != rec:
            failed.add(sid)
            problems.append(f"{sid}: round trip gave {restored.get(sid, {}).get('intent')!r}")
            continue
        mapped = set(sidecar.get(sid, {}).values())
        lost = [lit for lit in truth[sid]["literals"] if lit not in mapped]
        if lost:
            failed.add(sid)
            problems.append(f"{sid}: literals {lost} missing from the sidecar")
    return failed, problems[:20]
