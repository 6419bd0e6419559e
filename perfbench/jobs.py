"""Workload definitions and report checks.

A workload is a list of jobs, each one ``sentagree`` command line run
through ``sentagree.cli.main``.  Its inputs are generated by
:mod:`gen` from the workload seed.  A *round* runs the whole job list
once; the benchmark repeats rounds in a closed loop, one job at a time.

The full profile has 16 input variants per workload: the variant of a
run is its seed modulo :data:`VARIANTS`.  The smoke profile runs variant 0.  The reference reports for every variant
were recorded from the program (``run.py --record``), so every seed is
checked against a reference made from the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16
WORKLOADS = ("curve", "compare", "nb-wide", "agreement")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: A float report value passes when |value - reference| <= ABS_TOL + REL_TOL * |reference|;
#: whole numbers must be equal.
ABS_TOL = 0.02
REL_TOL = 0.02

#: Input sizes.  ``full`` is what the benchmark measures; ``smoke`` runs
#: every workload through the same code at a tiny size.
PROFILES = {
    "full": {
        "curve": {"posts": 200, "step": 50, "k": 10},
        "compare": {"posts": 200, "k": 3},
        "nb-wide": {"posts": 3000, "width": 20000, "k": 10},
        "agreement": {"posts": 15000},
    },
    "smoke": {
        "curve": {"posts": 90, "step": 45, "k": 5},
        "compare": {"posts": 60, "k": 3},
        "nb-wide": {"posts": 200, "width": 2000, "k": 5},
        "agreement": {"posts": 400},
    },
}

#: Label noise of the three ``compare`` corpora; the names become the
#: dataset names in the report.
COMPARE_NOISE = {"noise05": 0.05, "noise15": 0.15, "noise30": 0.30}


@dataclass(frozen=True)
class Job:
    name: str
    argv: list[str]
    output: Path
    json_report: bool = True  # False: a data file, checked byte for byte


def plan(workload: str, profile: str, workdir: Path, variant: int) -> tuple[list, list[Job]]:
    """The workload's inputs, as ``(path, write)`` pairs, and its jobs.

    Writing the inputs is the benchmark's cost, kept apart from the
    program's: ``run.py`` calls every ``write()`` before the workload
    process starts.
    """
    import gen  # here, not at the top: the workload process must not load numpy before set-up

    size = PROFILES[profile][workload]
    out = workdir / "out"
    seed = ["--seed", str(variant)]

    def gold(name: str, spec, *stream: int):
        path = workdir / f"{name}.csv"
        return path, lambda: gen.write_gold(path, spec, (variant, *stream))

    if workload == "curve":
        posts = size["posts"]
        # Lexicons small enough that sentiment words clear min_df = 5 in the
        # first prefix, and the new ones again only in the last: a dip and a
        # recovery, as in a real lexicon shift.
        spec = gen.GoldSpec(
            posts, label_noise=0.1, vocab_width=600, lexicon=4, shift_at=posts // 2, shift_lexicon=6,
        )
        inputs = [gold("shifted", spec, 1)]
        return inputs, [Job("curve", [
            "curve", "--input", str(inputs[0][0]), "--variant", "TwoPlaneSVMbin",
            "--k", str(size["k"]), "--step", str(size["step"]), *seed,
            "--out", str(out / "curve.json"),
        ], out / "curve.json")]

    if workload == "compare":
        inputs = [
            gold(name, gen.GoldSpec(size["posts"], label_noise=noise, vocab_width=1000), 2, index)
            for index, (name, noise) in enumerate(COMPARE_NOISE.items())
        ]
        flags = [flag for path, _ in inputs for flag in ("--input", str(path))]
        return inputs, [Job("compare", [
            "compare", *flags, "--k", str(size["k"]), *seed,
            "--out", str(out / "compare.json"),
        ], out / "compare.json")]

    if workload == "nb-wide":
        spec = gen.GoldSpec(
            size["posts"], label_noise=0.1, vocab_width=size["width"], zipf_skew=1.0,
            filler_words=10,
        )
        inputs = [gold("wide", spec, 3)]
        return inputs, [Job("crossval", [
            "crossval", "--input", str(inputs[0][0]), "--variant", "NaiveBayes",
            "--k", str(size["k"]), *seed, "--out", str(out / "crossval.json"),
        ], out / "crossval.json")]

    if workload == "agreement":
        path = workdir / "annotations.csv"
        inputs = [(path, lambda: gen.write_table(path, size["posts"], (variant, 4)))]
        return inputs, [
            Job("agreement", ["agreement", "--input", str(path), *seed,
                              "--out", str(out / "agreement.json")], out / "agreement.json"),
            Job("ordering", ["ordering", "--input", str(path),
                             "--out", str(out / "ordering.json")], out / "ordering.json"),
            Job("merge", ["merge", "--input", str(path), "--out", str(out / "gold.csv")],
                out / "gold.csv", json_report=False),
        ]

    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, profile: str, workdir: Path, variant: int) -> list[Job]:
    """Write the workload's input files into ``workdir``; return its jobs."""
    inputs, job_list = plan(workload, profile, workdir, variant)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for _, write in inputs:
        write()
    return job_list


# --- references and checks -------------------------------------------------------


def reference_path(profile: str) -> Path:
    return REFERENCE_DIR / f"{profile}.json"


def load_references(profile: str, workload: str, variant: int) -> dict:
    """Reference entries ``{job name: {"sha256", "report"}}`` for one variant."""
    data = json.loads(reference_path(profile).read_text(encoding="utf-8"))
    return data.get(workload, {}).get(str(variant), {})


def reference_entry(job: Job, data: bytes) -> dict:
    report = json.loads(data) if job.json_report else None
    return {"sha256": hashlib.sha256(data).hexdigest(), "report": report}


def _within(value, ref, where: str) -> str | None:
    if isinstance(ref, (bool, int, str)) or ref is None or isinstance(value, bool):
        # Strings, flags and whole numbers (pair counts, prefix sizes, k,
        # seeds) are not results of a solver and must match exactly.
        if type(value) is type(ref) and value == ref:
            return None
        return f"{where}: {value!r} != {ref!r}"
    if isinstance(ref, float):
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{where}: {value!r} is not a finite number"
        if abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref):
            return None
        return f"{where}: {value!r} is outside the tolerance of {ref!r}"
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return f"{where}: list shape differs"
        for i, (v, r) in enumerate(zip(value, ref)):
            bad = _within(v, r, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            return f"{where}: keys differ"
        for key in ref:
            bad = _within(value[key], ref[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    return f"{where}: unexpected reference value {ref!r}"


def check_report(job: Job, data: bytes | None, ref: dict | None) -> str | None:
    """``None`` when the job's output passes, else the reason it fails.

    Output byte-identical to the reference passes.  Otherwise a JSON
    report passes when its structure and every non-numeric value match
    and every number is within the fixed tolerance; a data file (the
    merged gold corpus) must be byte-identical.
    """
    if data is None:
        return "no output written"
    if ref is None:
        return "no reference recorded for this job"
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return None
    if not job.json_report:
        return "output differs from the reference"
    try:
        report = json.loads(data)
    except ValueError:
        return "report is not valid JSON"
    return _within(report, ref["report"], job.name)


def alpha_interval(job: Job, data: bytes) -> list[float]:
    """The interval-alpha values a report carries.

    Cross-validation reports give their mean CV alpha (one per curve
    prefix); ``compare`` gives its score table, which is interval alpha
    by default; ``agreement`` gives its annotator-pair point estimates.
    """
    if not job.json_report:
        return []
    report = json.loads(data)
    command = report.get("command")
    if command in ("crossval", "curve"):
        return [row["mean"] for row in report["rows"] if row["measure"] == "alpha_interval"]
    if command == "compare":
        return [v for scores in report["scores"].values() for v in scores.values()]
    if command == "agreement":
        return [
            row["point"] for row in report["rows"]
            if row["measure"] == "alpha_interval" and row["point"] is not None
        ]
    return []
