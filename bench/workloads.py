"""Seeded job lists for the localalg benchmark, each job with its oracle.

A job is one ``localalg`` command line plus what its output must show. The
expected values are counted from the inputs alone (staircase shapes, preset
definitions, the torus dimension formulas of the socle decomposition), never
by running another code path of the program.

Workloads:

- ``verify_leaf``: ``verify`` at the default grid; min-leaf dominates.
- ``forms_solve``: ``forms`` below the column cap; assembly and block SVDs.
- ``lift_swell``: ``lift`` and ``check`` of the ten corpus expressions at m=2
  on trunc:6..8; ``taylor_lift`` dominates.
- ``spec_algebras``: monomial quotients of R[x,y] and presets written as
  ``--spec`` files, plus malformed inputs that must end in exit 2, 3 or 5.
- ``known_failures``: inputs the program mishandles today (basis-changed
  specs with nu >= 3, the robustness defects of ROADMAP item 4). Not a timed
  workload: it reports the baseline failure census.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The ten stock expressions in x1, x2. A fixed copy, so that the inputs
# belong to the benchmark and not to the program under test.
CORPUS = (
    "x1^2",
    "sin(x1)",
    "exp(x1) * sin(x2)",
    "x1 * x2",
    "1 / (2 + x1)",
    "log(3 + x1)",
    "x1^3 - 2*x1*x2 + x2^2",
    "cos(x1 * x2)",
    "sin(x1)^2 + cos(x1)^2",
    "exp(x1 + x2) / (1 + x1^2)",
)
X1_ONLY = tuple(e for e in CORPUS if "x2" not in e)

TIMED = ("verify_leaf", "forms_solve", "lift_swell", "spec_algebras")
WORKLOADS = TIMED + ("known_failures",)

# Exit codes a rejected input may end in (parse/domain, invalid algebra, cap).
CLEAN_REJECT = (2, 3, 5)

# ``lift`` passes when the two routes agree to this share of the result scale.
LIFT_DIFF_RTOL = 1e-10

QUOTIENT_SIZES = (9, 12, 16, 20)


@dataclass(frozen=True)
class Job:
    """One command line and the oracle its output is judged by."""

    cls: str
    argv: tuple[str, ...]
    codes: tuple[int, ...] = (0,)
    expect: tuple[tuple[str, str], ...] = ()
    lift_rtol: float | None = None

    def judge(self, code, out: str) -> str | None:
        """Reason the job failed, or None when it passed.

        ``code`` is the exit code, or a string naming an uncaught exception.
        """
        if isinstance(code, str):
            return f"uncaught {code}"
        if code not in self.codes:
            return f"exit {code}, expected {'/'.join(map(str, self.codes))}"
        if self.codes != (0,):
            return None
        lines = out.splitlines()
        failed = [ln.split()[1] for ln in lines
                  if ln.startswith("CHECK ") and ln.split()[2:3] == ["FAIL"]]
        if failed:
            return "CHECK FAIL: " + ",".join(failed)
        keys = machine_block(lines)
        for key, want in self.expect:
            if keys.get(key) != want:
                return f"{key}={keys.get(key)}, oracle {want}"
        if self.lift_rtol is not None:
            return _judge_lift(keys, lines, self.lift_rtol)
        return None


def machine_block(lines: list[str]) -> dict[str, str]:
    """KEY=VALUE lines, plus ``KEY#``: the number of comma-separated items."""
    keys: dict[str, str] = {}
    for ln in lines:
        if "=" in ln and not ln.startswith("CHECK "):
            key, value = ln.split("=", 1)
            keys[key] = value
            keys[key + "#"] = str(len([v for v in value.split(",") if v]))
    return keys


def _judge_lift(keys: dict[str, str], lines: list[str], rtol: float) -> str | None:
    taylor = next((ln for ln in lines if ln.startswith("TAYLOR ")), None)
    if taylor is None or "DIFF" not in keys:
        return "missing TAYLOR or DIFF"
    coeffs = []
    for tok in taylor.split()[1:]:
        try:
            coeffs.append(abs(float(tok)))
        except ValueError:
            continue
    scale = max([1.0] + coeffs)
    diff = float(keys["DIFF"])
    if not math.isfinite(scale) or not diff <= rtol * scale:
        return f"DIFF={keys['DIFF']} above {rtol:g} x scale {scale:.3g}"
    return None


# -- monomial algebras -----------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """R[x_1..x_v] modulo every monomial outside a down-set of exponents.

    ``cells`` is the down-set (the staircase), unit first and sorted by
    degree; the invariants below are counted from it.
    """

    name: str
    cells: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.cells)

    @property
    def nu(self) -> int:
        return max(sum(c) for c in self.cells) + 1

    def filtration_dims(self) -> tuple[int, ...]:
        degrees = [sum(c) for c in self.cells]
        return tuple(sum(1 for d in degrees if d >= k) for k in range(1, self.nu + 1))

    def socle_size(self) -> int:
        cells = set(self.cells)
        v = len(self.cells[0])
        return sum(
            1 for c in self.cells[1:]
            if all(tuple(e + (i == k) for i, e in enumerate(c)) not in cells
                   for k in range(v))
        )

    def tensor(self) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.cells)}
        C = np.zeros((self.n,) * 3)
        for i, a in enumerate(self.cells):
            for j, b in enumerate(self.cells):
                k = index.get(tuple(x + y for x, y in zip(a, b)))
                if k is not None:
                    C[i, j, k] = 1.0
        return C

    def oracle(self) -> tuple[tuple[str, str], ...]:
        return (
            ("N", str(self.n)),
            ("RADICAL_DIM", str(self.n - 1)),
            ("FILTRATION_DIMS", ",".join(map(str, self.filtration_dims()))),
            ("NU", str(self.nu)),
            ("SOCLE#", str(self.socle_size())),
        )


def _graded(cells) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(cells, key=lambda c: (sum(c), tuple(-e for e in c))))


def trunc(k: int) -> Monomial:
    return Monomial(f"trunc:{k}", _graded((i,) for i in range(k)))


def square(r: int) -> Monomial:
    cells = [(0,) * r] + [tuple(int(i == k) for i in range(r)) for k in range(r)]
    return Monomial(f"square:{r}", _graded(cells))


def staircase(rng: random.Random, n: int) -> Monomial:
    """A random down-set of n cells in N^2, grown one addable corner at a time.

    Degrees stay within two of the smallest possible, which keeps nu (and so
    the Taylor order of ``check``) at most 9 for n <= 25.
    """
    dmax = next(d for d in range(n) if (d + 1) * (d + 2) // 2 >= n) + 2
    cells = {(0, 0)}
    while len(cells) < n:
        addable = sorted(
            (a, b) for a in range(dmax + 1) for b in range(dmax + 1 - a)
            if (a, b) not in cells
            and (a == 0 or (a - 1, b) in cells)
            and (b == 0 or (a, b - 1) in cells)
        )
        cells.add(rng.choice(addable))
    return Monomial(f"quotient{n}", _graded(cells))


def _label(cell: tuple[int, ...]) -> str:
    return "1" if not any(cell) else "m" + "_".join(map(str, cell))


def _spec(labels: list[str], C: np.ndarray) -> str:
    n = len(labels)
    lines = [f"algebra n={n}", "basis " + " ".join(labels)]
    for i in range(1, n):
        for j in range(i, n):
            terms = [(C[i, j, k], labels[k]) for k in range(n) if C[i, j, k] != 0.0]
            if not terms:
                continue
            rhs = f"{terms[0][0]:.17g}*{terms[0][1]}"
            for c, lab in terms[1:]:
                rhs += f" {'-' if c < 0 else '+'} {abs(c):.17g}*{lab}"
            lines.append(f"mul {labels[i]} {labels[j]} = {rhs}")
    return "\n".join(lines) + "\n"


def monomial_spec(alg: Monomial) -> str:
    """Spec text in the monomial basis."""
    return _spec([_label(c) for c in alg.cells], alg.tensor())


def basis_changed_spec(alg: Monomial, rng: np.random.Generator) -> str:
    """Spec text in a random basis: the unit stays first, every other basis
    vector is a random combination of the radical monomials."""
    n = alg.n
    P = np.eye(n)
    P[1:, 1:] = rng.standard_normal((n - 1, n - 1))
    C = np.einsum("si,tj,stu,ku->ijk", P, P, alg.tensor(), np.linalg.inv(P))
    return _spec(["1"] + [f"f{i}" for i in range(1, n)], C)


# -- job generation -----------------------------------------------------------------


def preset(name: str) -> Monomial:
    """The monomial algebra a ``--preset`` name stands for."""
    if name == "dual":
        return trunc(2)
    kind, arg = name.split(":")
    return trunc(int(arg)) if kind == "trunc" else square(int(arg))


def verify_job(name: str, m: int, d: int) -> Job:
    alg = preset(name)
    n, s = alg.n, alg.socle_size()
    nullity = n + s * ((2 * d + 1) ** m - 1)
    return Job("verify", ("verify", "--preset", name, "--m", str(m), "--degree", str(d)),
               expect=(("NULLSPACE_DIM", str(nullity)), ("SOCLE_DIM", str(s))))


def forms_job(name: str, m: int, d: int) -> Job:
    alg = preset(name)
    n, s = alg.n, alg.socle_size()
    zero_mean = s * ((2 * d + 1) ** m - 1)
    return Job("forms", ("forms", "--preset", name, "--m", str(m), "--degree", str(d)),
               expect=(("FORM_NULLSPACE_DIM", str(zero_mean + n * m)),
                       ("ZERO_MEAN_DIM", str(zero_mean)),
                       ("H0_DIM", str(n)),
                       ("BOUND", str(n * n * m))))


def element_literal(coeffs) -> str:
    """``c0 + c1 e1 - c2 e2 ...`` in the standard labels, 17 digits."""
    text = repr(float(coeffs[0]))
    for i, c in enumerate(coeffs[1:], start=1):
        text += f" {'-' if c < 0 else '+'} {abs(float(c))!r} e{i}"
    return text


def _point(rng: random.Random, n: int, m: int) -> str:
    return "; ".join(
        element_literal([rng.uniform(0.2, 0.8)] + [rng.uniform(-1.0, 1.0) for _ in range(n - 1)])
        for _ in range(m)
    )


VERIFY_CONFIGS = (("dual", 2, 2), ("trunc:3", 2, 1), ("square:2", 2, 1), ("trunc:3", 1, 2))
FORMS_CONFIGS = (("trunc:4", 1, 2), ("trunc:3", 1, 3), ("square:2", 1, 3),
                 ("dual", 2, 2), ("trunc:3", 2, 1), ("square:2", 2, 1))


def _spec_job_pair(alg: Monomial, path: str, rng: random.Random, cls: str) -> list[Job]:
    expr = rng.choice(X1_ONLY)
    return [
        Job(cls, ("algebra", "--spec", path), expect=alg.oracle()),
        Job(cls, ("check", "--spec", path, "--expr", expr, "--at", _point(rng, alg.n, 1))),
    ]


def _malformed(rng: random.Random, work: Path, files: dict[str, str]) -> list[Job]:
    files["header.alg"] = "algebra size=3\nbasis 1 a b\n"
    files["split.alg"] = "algebra n=2\nbasis 1 u\nmul u u = 1*u\n"
    files["unknown.alg"] = "algebra n=2\nbasis 1 a\nmul a b = 1*a\n"
    bogus = rng.choice(("cube:3", "trunc:x", "dual2", "square"))
    argvs = [
        ("lift", "--preset", "trunc:3", "--expr", "x1", "--at", f"1 + {rng.randint(2, 9)}e1"),
        ("algebra", "--preset", bogus),
        ("algebra", "--spec", str(work / "header.alg")),
        ("algebra", "--spec", str(work / "split.alg")),
        ("check", "--spec", str(work / "split.alg"), "--expr", "x1", "--at", "1"),
        ("algebra", "--spec", str(work / "unknown.alg")),
        ("lift", "--preset", "dual", "--expr", "log(x1)", "--at", repr(-rng.uniform(0.1, 2))),
        ("lift", "--preset", "dual", "--expr", "x1 +", "--at", "1"),
        ("lift", "--preset", "dual", "--expr", "x3", "--at", "1"),
        ("verify", "--preset", "dual", "--m", "2", "--cap", str(rng.randint(2, 40))),
        ("forms", "--preset", "dual", "--cap", str(rng.randint(2, 20))),
        ("verify", "--preset", "dual", "--degree", "abc"),
    ]
    return [Job("malformed", a, codes=CLEAN_REJECT) for a in argvs]


def _known_failures(rng: random.Random, nprng: np.random.Generator, work: Path,
                    files: dict[str, str], quotients: list[Monomial]) -> list[Job]:
    jobs = []
    for alg in quotients + [trunc(3), trunc(4)]:
        fname = f"changed_{alg.name.replace(':', '')}.alg"
        files[fname] = basis_changed_spec(alg, nprng)
        jobs += _spec_job_pair(alg, str(work / fname), rng, "basis_changed")
    files["huge.alg"] = "algebra n=2\nbasis 1 a\nmul a a = 1e400*a\n"
    files["duplicate.alg"] = "algebra n=3\nbasis 1 a b\nmul a a = 1*b\nmul a a = 0\n"
    argvs = [
        ("algebra", "--preset", "trunc:1"),
        ("lift", "--preset", "trunc:1", "--expr", "x1", "--at", "1"),
        ("forms", "--preset", "trunc:1"),
        ("verify", "--preset", "dual", "--degree", "-1"),
        ("verify", "--preset", "dual", "--m", "-1"),
        ("verify", "--preset", "dual", "--m", "0"),
        ("verify", "--preset", "dual", "--grid", "0"),
        ("algebra", "--spec", str(work / "huge.alg")),
        ("lift", "--preset", "dual", "--expr", "exp(x1)^1000", "--at", "1 + 1 e1"),
        ("algebra", "--spec", str(work / "duplicate.alg")),
    ]
    return jobs + [Job("roadmap_item4", a, codes=CLEAN_REJECT) for a in argvs]


def generate(workload: str, seed: int, work: Path) -> tuple[list[Job], dict[str, str]]:
    """Jobs of one pass and the spec files they read (name -> text).

    The files belong in ``work``; the same seed gives the same jobs and files.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    nprng = np.random.default_rng(seed)
    files: dict[str, str] = {}
    if workload == "verify_leaf":
        jobs = [verify_job(*cfg) for cfg in VERIFY_CONFIGS]
    elif workload == "forms_solve":
        jobs = [forms_job(*cfg) for cfg in FORMS_CONFIGS]
    elif workload == "lift_swell":
        jobs = []
        for k in (6, 7, 8):
            for expr in CORPUS:
                at = _point(rng, k, 2)
                base = ("--preset", f"trunc:{k}", "--expr", expr, "--at", at)
                jobs.append(Job("lift", ("lift",) + base, lift_rtol=LIFT_DIFF_RTOL))
                jobs.append(Job("check", ("check",) + base))
    else:
        # Staircases come from a seed-only stream, so both spec workloads
        # see the same quotients for a given seed.
        shapes = random.Random(seed)
        quotients = [staircase(shapes, n) for n in QUOTIENT_SIZES]
        if workload == "spec_algebras":
            jobs = []
            for alg in quotients + [trunc(3), trunc(4), square(rng.randint(2, 4))]:
                fname = f"{alg.name.replace(':', '')}.alg"
                files[fname] = monomial_spec(alg)
                jobs += _spec_job_pair(alg, str(work / fname), rng, "spec")
            jobs += _malformed(rng, work, files)
        else:
            jobs = _known_failures(rng, nprng, work, files, quotients)
    rng.shuffle(jobs)
    return jobs, files
