"""The workload process: set-up, the closed loop of rounds, the checks.

``run.py`` starts this script in a fresh interpreter for each workload,
so peak memory belongs to one workload alone.  Two modes:

``child.py probe SRC``
    import the program and print the set-up seconds, as measured and
    corrected to the reference speed.
``child.py run SRC WORKLOAD PROFILE VARIANT WORKDIR SECONDS TRACE TRACE_FILE``
    run rounds of the workload's jobs and print one JSON summary line.

Every timed stretch (the import, each round) runs under a
:class:`speed.SpeedProbe`, and is reported both as measured and
corrected to the reference speed.

With ``TRACE`` 1 untraced rounds alternate with rounds that have the span
recorder installed, so both kinds see the same phases of the machine's
speed.  The difference of their median corrected round times is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import jobs
import spans
from speed import SpeedProbe

MIN_ROUNDS = 3
ROUNDS_CUTOFF_S = 100.0  # a very slow program stops after this, even with fewer rounds


def set_up(src: Path) -> tuple[float, float]:
    """Import the program; return the seconds it took, as measured and
    corrected to the reference speed."""
    sys.path.insert(0, str(src))
    with SpeedProbe() as probe:
        started = time.perf_counter()
        import sentagree.cli  # noqa: F401

        elapsed = time.perf_counter() - started
    loaded = Path(sys.modules["sentagree"].__file__).resolve()
    if loaded.parent != (src / "sentagree").resolve():
        raise SystemExit(f"sentagree was imported from {loaded}, not from {src}")
    return elapsed, elapsed * probe.speed()


def run_round(job_list: list, refs: dict) -> tuple[float, float, list[str], list[float]]:
    """Run every job once; return the timed wall seconds as measured and
    corrected to the reference speed, the failures and the
    interval-alpha values of the reports."""
    from sentagree import cli

    for job in job_list:
        job.output.unlink(missing_ok=True)
    errors: list[str | None] = []
    with SpeedProbe() as probe:
        started = time.perf_counter()
        for job in job_list:
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = cli.main(job.argv)
                errors.append(None if code == 0 else f"exit {code}: {stderr.getvalue().strip()}")
            except SystemExit as exc:
                errors.append(f"exit {exc.code}: {stderr.getvalue().strip()}")
            except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
                errors.append(f"raised {exc!r}")
        wall = time.perf_counter() - started

    failures = []
    alphas: list[float] = []
    for job, error in zip(job_list, errors):
        data = job.output.read_bytes() if job.output.exists() else None
        error = error or jobs.check_report(job, data, refs.get(job.name))
        if error:
            failures.append(f"{job.name}: {error}")
        else:
            alphas += jobs.alpha_interval(job, data)
    return wall, wall * probe.speed(), failures, alphas


def loop(seconds: float, one_round) -> None:
    """Closed loop: call ``one_round()`` back to back until ``seconds``
    have passed and it has run at least ``MIN_ROUNDS`` times (once when
    ``seconds`` is 0)."""
    least = MIN_ROUNDS if seconds > 0 else 1
    started = time.perf_counter()
    done = 0
    while not done or time.perf_counter() - started < (seconds if done >= least else ROUNDS_CUTOFF_S):
        one_round()
        done += 1


def run(argv: list[str]) -> dict:
    src, workload, profile, variant, workdir, seconds, trace, trace_file = argv
    setup = set_up(Path(src))
    import numpy
    import scipy
    import sentagree

    variant, seconds, trace = int(variant), float(seconds), trace == "1"
    _, job_list = jobs.plan(workload, profile, Path(workdir), variant)
    refs = jobs.load_references(profile, workload, variant)
    walls: list[float] = []  # as measured
    corrected: list[float] = []  # at the reference speed
    traced: list[float] = []  # corrected, of the traced rounds
    failures: list[str] = []
    alphas: list[float] = []
    tracer = spans.Tracer()
    rounds: list[dict[str, float]] = []
    marks = [0]

    def one_round() -> None:
        wall, wall_ref, failed, alpha = run_round(job_list, refs)
        walls.append(wall)
        corrected.append(wall_ref)
        failures.extend(failed)
        alphas[:] = alpha
        if not trace:
            return
        spans.install(tracer)
        try:
            _, wall_ref, failed, _ = run_round(job_list, refs)
        finally:
            tracer.uninstall()
        traced.append(wall_ref)
        failures.extend(failed)
        rounds.append(spans.round_metrics(tracer.spans[marks[-1]:], tracer.distinct))
        marks.append(len(tracer.spans))
        tracer.distinct.clear()

    loop(seconds, one_round)
    summary = {
        "setup": setup,
        "walls": walls,
        "corrected": corrected,
        "alpha": alphas,
        "facts": {
            "sentagree_all": len(sentagree.__all__),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        layers = spans.median_metrics(rounds)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(corrected)
        summary.update(
            layers=layers,
            layer_self_s=spans.layer_self_times(tracer.spans[marks[-2]:marks[-1]]),
            traced_walls=traced,
        )
        tracer.dump(Path(trace_file), {
            "workload": workload,
            "variant": variant,
            "rounds": [[marks[i], marks[i + 1]] for i in range(len(marks) - 1)],
            "round_walls": traced,
            "layers": layers,
        })

    summary.update(
        attempted=(len(walls) + len(traced)) * len(job_list),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return summary


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "probe":
        print(json.dumps(set_up(Path(rest[0]))))
        return 0
    print(json.dumps(run(rest)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
