"""One workload run in a fresh process: set up, run passes, judge every job.

Started by ``run.py`` with the BLAS and OpenMP thread counts pinned to 1.
It imports ``localalg`` from the checkout's ``src`` and runs one tiny warm-up
job; the time from the parent's spawn to that point is the set-up time. With
``--setup-only`` it stops there. Otherwise it writes the workload's spec
files, runs whole passes over the job list back to back (one thread, closed
loop) until the next pass would end after ``--seconds``, and judges every
job against its oracle. With ``--trace 1`` untraced and traced passes
alternate. The last stdout line is one JSON object for the parent.

Times are reported twice: raw, and in reference seconds. A shared host runs
this code up to twice as slowly, switching between a fast and a slow state
within seconds and staying mostly slow for minutes at a time, which moves
raw medians by 10-40% between runs. So a fixed reference kernel
(``ReferenceKernel``), which mixes the kinds of work the workloads do, runs
between jobs for a tenth of the run's time. A job's time divided by the mean
time of the kernel runs within a second of it, times the kernel's nominal
time, is the job's time on the host where the nominal times were taken. A
slower program raises that ratio; a slower host raises both of its terms.
The mean, not the median, because a short kernel run sees one host state
while a job sees a mix of both. Set-up time is scaled the same way.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP = ("algebra", "--preset", "dual")
KERNEL_SHARE = 0.1  # share of a run's time spent in reference kernel runs
NEAR_S = 1.0  # a job is scaled by the kernel runs that ended this close to it


class ReferenceKernel:
    """Fixed work that does not touch ``localalg``, mixing the kinds the
    workloads spend their time on: a recursive tree walk (expr, lift), cos/sin
    design matrices and a derivative matrix (min-leaf), small-block assembly
    with SVD and least squares (forms), a four-operand einsum (standardize).

    ``NOMINAL_S`` is each part's fastest time over 400 runs on the host the
    benchmark was defined on (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4 with
    OpenBLAS), so scaled times read as seconds on that host at full speed.
    """

    NOMINAL_S = {"walk": 0.0011, "trig": 0.0019, "assemble": 0.0017, "einsum": 0.0012}

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.tree = self._tree(19)
        self.points = rng.uniform(0.0, 6.3, (128, 4))
        self.freqs = rng.integers(-2, 3, (312, 4)).astype(float)
        self.tall = rng.standard_normal((64, 40))
        self.small = rng.standard_normal((7, 7))
        self.cube = rng.standard_normal((7, 7, 7))
        self.parts = [getattr(self, "_" + p) for p in self.NOMINAL_S]
        self.nominal_s = sum(self.NOMINAL_S.values())

    def scale(self, runs: list[float]) -> float:
        """Factor from raw to reference seconds, given kernel run times. The
        highest and lowest tenth are left out of their mean, so that a run
        held up by a context switch does not count."""
        runs = sorted(runs)
        cut = len(runs) // 10
        return self.nominal_s / statistics.fmean(runs[cut:len(runs) - cut])

    def __call__(self) -> float:
        """Seconds one run of every part takes now."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    @staticmethod
    def _tree(depth: int):
        if depth <= 0:
            return None
        return (depth % 2, ReferenceKernel._tree(depth - 1), ReferenceKernel._tree(depth - 2))

    def _walk(self):
        def walk(node, x: float) -> float:
            if node is None:
                return x
            a, b = walk(node[1], x), walk(node[2], x)
            return a + b if node[0] else a * b * 0.5

        return walk(self.tree, 0.999)

    def _trig(self):
        np = self.np
        phases = self.points @ self.freqs.T
        values = np.empty((len(self.points), 625))
        values[:, 0] = 1.0
        values[:, 1::2] = np.cos(phases)
        values[:, 2::2] = np.sin(phases)
        deriv = np.zeros((625, 625))
        for p in range(312):
            deriv[2 + 2 * p, 1 + 2 * p] = -1.0
            deriv[1 + 2 * p, 2 + 2 * p] = 1.0
        return values @ (deriv @ values[0])

    def _assemble(self):
        np = self.np
        rows = []
        for _ in range(40):
            block = np.zeros((2, 16))
            for c in range(4):
                block[:, 2 * c:2 * c + 2] += 0.5 * np.eye(2)
                block[:, 8 + 2 * c:10 + 2 * c] -= np.eye(2)
            rows.append(block)
        np.linalg.svd(np.vstack(rows), full_matrices=True)
        np.linalg.svd(self.tall)
        return np.linalg.lstsq(self.tall, self.tall[:, 0], rcond=None)

    def _einsum(self):
        s = self.small
        for _ in range(2):
            self.np.einsum("si,tj,stu,ku->ijk", s, s, self.cube, s)


def import_localalg():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import localalg.cli

    where = Path(localalg.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"localalg imported from {where}, not from {src}")
    return localalg.cli


def run_job(cli, argv) -> tuple[object, str, float]:
    """(exit code or exception name, stdout, wall seconds) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback is a failed job, not a crash
            code = type(e).__name__
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="monotonic clock reading just before the parent spawned this")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cli = import_localalg()
    code, _, _ = run_job(cli, WARMUP)
    if code != 0:
        raise SystemExit(f"warm-up job {' '.join(WARMUP)} exited {code}")
    setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started
    kernel = ReferenceKernel()
    factor = kernel.scale([kernel() for _ in range(10)])
    setup = {"setup_raw_s": setup_raw, "setup_s": setup_raw * factor}
    if args.setup_only:
        print(json.dumps(setup))
        return

    from tracer import Tracer
    from workloads import generate

    # relative to the checkout root, which is the working directory
    work = Path(".bench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, files = generate(args.workload, args.seed, work)
        work.mkdir(parents=True)
        for name, text in files.items():
            (work / name).write_text(text, encoding="utf-8")
        result = run_passes(cli, kernel, jobs, args, Tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    result.update(setup, env=environment(),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))


def run_passes(cli, kernel, jobs, args, tracer_cls) -> dict:
    modes = (False, True) if args.trace else (False,)  # traced?
    raw = {traced: [] for traced in modes}  # per pass, per job wall
    spans = {traced: [] for traced in modes}  # per pass, per job (start, end)
    ref_at, ref_s = [], []  # every kernel run: when it ended, how long it took
    snapshots = []
    failures: dict[str, dict] = {}
    attempted = 0

    def reference() -> None:
        """Run the kernel until it has had KERNEL_SHARE of the time so far."""
        while not ref_s or sum(ref_s) < KERNEL_SHARE * (time.perf_counter() - start):
            ref_s.append(kernel())
            ref_at.append(time.perf_counter())

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            outcomes, pass_spans = [], []
            tracer = tracer_cls() if traced else contextlib.nullcontext()
            for job in jobs:
                reference()
                began = time.perf_counter()
                with tracer:
                    outcomes.append(run_job(cli, job.argv))
                pass_spans.append((began, time.perf_counter()))
            if traced:
                snapshots.append(tracer.snapshot())
            raw[traced].append([wall for _, _, wall in outcomes])
            spans[traced].append(pass_spans)
            for job, (code, out, _) in zip(jobs, outcomes):
                attempted += 1
                reason = job.judge(code, out)
                if reason is not None:
                    entry = failures.setdefault(" ".join(job.argv), {
                        "class": job.cls, "reason": reason, "count": 0})
                    entry["count"] += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    reference()  # so the last job has kernel runs on both sides

    def scale(span: tuple[float, float]) -> float:
        lo = bisect.bisect_left(ref_at, span[0] - NEAR_S)
        hi = bisect.bisect_right(ref_at, span[1] + NEAR_S)
        return kernel.scale(ref_s[lo:hi])

    scaled = {traced: [[w * scale(sp) for w, sp in zip(walls, sps)]
                       for walls, sps in zip(raw[traced], spans[traced])]
              for traced in modes}
    for snap, sps in zip(snapshots, spans.get(True, [])):
        factor = statistics.median(scale(sp) for sp in sps)
        for fields in snap.values():
            fields["s"] *= factor
            fields["self_s"] *= factor
    return {
        "jobs": len(jobs),
        "passes": len(raw[False]),
        "attempted": attempted,
        "failures": failures,
        "wall_s": sum_of_job_medians(scaled[False]),
        "wall_raw_s": sum_of_job_medians(raw[False]),
        "traced_wall_s": sum_of_job_medians(scaled[True]) if args.trace else None,
        "trace": median_snapshot(snapshots) if args.trace else None,
    }


def sum_of_job_medians(passes: list[list[float]]) -> float:
    """Each job's median over the passes, summed over the jobs."""
    return sum(statistics.median(per_job) for per_job in zip(*passes))


def median_snapshot(snaps: list[dict]) -> dict:
    """Each traced function's fields, median over the traced passes."""
    return {key: {fld: statistics.median(s[key].get(fld, 0) for s in snaps)
                  for fld in snaps[0][key]}
            for key in snaps[0]}


if __name__ == "__main__":
    main()
