"""Benchmark of the sentagree batch toolkit.

One run measures one workload::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads (see ``jobs.py``) run ``sentagree`` command lines through
``sentagree.cli.main`` in a closed loop, one job at a time, in a single
process with no worker threads; BLAS threads are pinned to 1.

* ``curve``: ``curve --variant TwoPlaneSVMbin --k 10`` over four
  prefixes of a corpus whose lexicon shifts midway.
* ``compare``: ``compare`` of all six variants over three corpora with
  5%, 15% and 30% label noise.
* ``nb-wide``: ``crossval --variant NaiveBayes --k 10`` on a corpus with
  a 20,000-word Zipf vocabulary.
* ``agreement``: ``agreement``, ``ordering`` and ``merge`` on one raw
  annotation table.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones:

* ``wall_s``: median seconds of one round of the workload's jobs;
* ``setup_s``: median seconds to import the program, over four fresh
  processes (input generation is not part of it);
* ``peak_rss_mb``: peak resident memory of the workload's process.

Both times are corrected to the reference speed (see ``speed.py``): each
round and each import is multiplied by the machine's speed sampled while
it ran, so the swings of a shared host do not read as changes of the
program.  The times as measured are in the ``info:`` line.

With ``--trace 1`` the metrics are the per-layer ones of ``spans.py``,
from a run whose every other round records spans; the spans are written to
``perfbench/.work/trace-<workload>-seed<N>.json``.  A job fails when it
exits non-zero, raises, or its report fails the reference check;
``failed / attempted`` is the failure rate.  The line before the result
(``info: {...}``) carries the quartiles, the failure rate, the mean
interval alpha of the reports (CV alpha on the classifier workloads,
annotator alpha on ``agreement``), input generation time and the facts
of the build: src line count, size of ``sentagree.__all__``, Python,
numpy and scipy versions, and ``nproc``.

Other modes::

    python3 perfbench/run.py --smoke    # every workload at tiny size, plus the self-check
    python3 perfbench/run.py --record   # re-record the reference reports
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _child(*args: str, timeout: float) -> str:
    """Run ``child.py`` and return its last line of output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=_child_env(), capture_output=True, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "sentagree").rglob("*.py"))
    )


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure(workload: str, seed: int, seconds: float, trace: bool, profile: str = "full") -> tuple[dict, dict]:
    """Run one workload; return the result object and the info object."""
    variant = seed % jobs.VARIANTS
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    trace_file = WORK / f"trace-{workload}-seed{seed}.json"
    try:
        started = time.perf_counter()
        jobs.make_inputs(workload, profile, workdir, variant)
        gen_s = time.perf_counter() - started
        setups = [json.loads(_child("probe", str(SRC), timeout=60)) for _ in range(SETUP_PROBES)]
        summary = json.loads(_child(
            "run", str(SRC), workload, profile, str(variant), str(workdir), str(seconds),
            "1" if trace else "0", str(trace_file), timeout=CHILD_TIMEOUT_S,
        ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(summary["setup"])
    walls = summary["walls"]
    corrected = summary["corrected"]
    failures = summary["failures"]
    attempted = summary["attempted"]
    if trace:
        metrics = {
            name: {"value": summary["layers"][name], "unit": unit}
            for name, (unit, _) in spans.LAYER_METRICS.items()
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(corrected), "unit": "s"},
            "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    info = {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "profile": profile,
        "rounds": len(walls),
        "walls": walls,
        "wall_s_quartiles": _quartiles(corrected),
        "measured_wall_s_quartiles": _quartiles(walls),
        "speeds": [ref / wall for wall, ref in zip(walls, corrected)],
        "setup_s_samples": [ref for _, ref in setups],
        "measured_setup_s_samples": [raw for raw, _ in setups],
        "fail_rate": len(failures) / attempted,
        "alpha_interval": statistics.fmean(summary["alpha"]) if summary["alpha"] else None,
        "failures": failures[:5],
        "input_gen_s": gen_s,
        "facts": {**summary["facts"], "src_lines": _src_lines(), "nproc": os.cpu_count()},
    }
    if trace:
        info.update(
            traced_rounds=len(summary["traced_walls"]),
            layer_self_s=summary["layer_self_s"],
            trace_file=str(trace_file.relative_to(HERE.parent)),
        )
    return result, info


# --- smoke mode, self-check and reference recording ------------------------------


def self_check() -> list[str]:
    """Show that a corrupted report is counted as a failed job."""
    import child

    problems = []
    workdir = WORK / f"self-check-{os.getpid()}"
    try:
        job_list = jobs.make_inputs("agreement", "smoke", workdir, 0)
        child.set_up(SRC)
        refs = jobs.load_references("smoke", "agreement", 0)
        _, _, failures, _ = child.run_round(job_list, refs)
        if failures:
            problems.append(f"clean round failed: {failures}")

        report = json.loads(job_list[0].output.read_bytes())
        report["rows"][0]["n_pairs"] += 1  # one pair lost or gained is a wrong count
        corrupted = json.dumps(report).encode()
        if jobs.check_report(job_list[0], corrupted, refs["agreement"]) is None:
            problems.append("an agreement report with one pair too many passed the check")
        reformatted = json.dumps(json.loads(job_list[0].output.read_bytes()), indent=4).encode()
        if jobs.check_report(job_list[0], reformatted, refs["agreement"]) is not None:
            problems.append("a reformatted but equal report failed the check")

        tampered = {name: dict(entry) for name, entry in refs.items()}
        tampered["ordering"]["sha256"] = "0" * 64
        tampered["ordering"]["report"] = json.loads(json.dumps(refs["ordering"]["report"]))
        tampered["ordering"]["report"]["rows"][0]["relative_gain"] += 0.5
        tampered["merge"]["sha256"] = "0" * 64
        _, _, failures, _ = child.run_round(job_list, tampered)
        if sorted(f.split(":", 1)[0] for f in failures) != ["merge", "ordering"]:
            problems.append(f"mismatching reports were not counted as failed jobs: {failures}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def smoke() -> int:
    problems = []
    for workload in jobs.WORKLOADS:
        result, info = measure(workload, 0, 0, trace=True, profile="smoke")
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"self_s={json.dumps(info['layer_self_s'])}")
        if not result["correct"]:
            problems.append(f"{workload}: {info['failures']}")
        if set(result["metrics"]) != set(spans.LAYER_METRICS):
            problems.append(f"{workload}: per-layer metrics incomplete")
    problems += self_check()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def record() -> int:
    """Record the reference report of every job, variant, workload and profile."""
    import child

    child.set_up(SRC)
    for profile in jobs.PROFILES:
        data: dict[str, dict[str, dict]] = {}
        for workload in jobs.WORKLOADS:
            data[workload] = {}
            for variant in range(jobs.VARIANTS if profile == "full" else 1):
                workdir = WORK / f"record-{os.getpid()}"
                try:
                    job_list = jobs.make_inputs(workload, profile, workdir, variant)
                    _, _, failures, _ = child.run_round(job_list, {})
                    if any(not f.endswith("no reference recorded for this job") for f in failures):
                        raise RuntimeError(f"{workload} variant {variant}: {failures}")
                    data[workload][str(variant)] = {
                        job.name: jobs.reference_entry(job, job.output.read_bytes()) for job in job_list
                    }
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                print(f"recorded {profile} {workload} {variant}", file=sys.stderr)
        # One input variant per line, so a re-record shows as a readable diff.
        blocks = [
            f"{json.dumps(workload)}: {{\n"
            + ",\n".join(f"{json.dumps(v)}: {json.dumps(e, sort_keys=True)}" for v, e in variants.items())
            + "\n}"
            for workload, variants in data.items()
        ]
        text = "{\n" + ",\n".join(blocks) + "\n}\n"
        jobs.reference_path(profile).write_text(text, encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny size and self-check")
    parser.add_argument("--record", action="store_true", help="re-record the reference reports")
    args = parser.parse_args(argv)

    if not (SRC / "sentagree" / "__init__.py").is_file():
        print(f"error: no sentagree sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
