"""The benchmark's workloads.

Each workload turns a seed into a fixed list of operations.  The number of
operations never depends on the seed, so runs on different seeds compare.
Every operation carries its expected output and a check, so a change that
alters a verdict shows up as a failed operation, not as a speed-up.

* weak-sweep: in-process Hermite-Biehler weak-stability certificates of
  (x+1)A_{n-1} + k x A_{n-2}; loads `stability` and `polynomial`.
* oracle: in-process brute-force descent distributions, compared with the
  closed-form generators; loads `oracle` only.
* cli-batch: one `eulerstab` command per operation, each in a fresh Python
  process; loads `cli`, cold generation, interlacing and Hurwitz
  determinants.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from typing import Any, Callable, List, Optional

from tracing import Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
LAUNCHER = os.path.join(HERE, "launch.py")
EXPECTED_CLI = os.path.join(HERE, "expected_cli.json")

# Variables that would make a CLI child do work the benchmark does not ask
# for: the cache re-derives one entry chosen by an unseeded random.choice.
_CHILD_ENV_DROP = ("EULERSTAB_CACHE_DIR", "EULERSTAB_EXTENDED")


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _CHILD_ENV_DROP}
    env["PYTHONPATH"] = SRC
    return env


class _InProcess:
    """A workload whose operations call eulerstab in this process.  Set-up
    imports the package, wraps its layers when tracing, then builds the
    operations and warms caches in `make_ops`."""

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> List[Op]:
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import eulerstab  # noqa: F401  (import time is part of set-up)

        if tracer is not None:
            self.trace(tracer)
        return self.make_ops(seed)

    def make_ops(self, seed: int) -> List[Op]:
        raise NotImplementedError

    def trace(self, tracer: Tracer) -> None:
        install(tracer)

    def untrace(self, tracer: Tracer) -> None:
        tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def output_bytes(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# weak-sweep


def _certify(lab, stability, n: int, k: Fraction):
    return stability.hermite_biehler_weakly_stable(lab.stability_family(n, k))


def _verdict_is(cert, expected) -> bool:
    return cert.verdict == expected


class WeakSweep(_InProcess):
    """Ranks 2..12, as many k per rank as `default_k_grid` has: k = -n plus
    rationals in [-n, 5] with seeded numerators over denominators 1..6.
    Below -n the theorem predicts nothing, so no k is drawn there."""

    name = "weak-sweep"

    def __init__(self, tiny: bool = False) -> None:
        self.max_rank = 4 if tiny else 12

    def make_ops(self, seed: int) -> List[Op]:
        from eulerstab import lab, stability

        rng = random.Random(seed)
        ops = []
        for n in range(2, self.max_rank + 1):
            ks = [Fraction(-n)]
            for j in range(len(lab.default_k_grid(n)) - 1):
                q = 1 + j % 6  # same denominators on every seed, so costs compare
                ks.append(Fraction(rng.randint(-n * q, 5 * q), q))
            for k in ks:
                run = functools.partial(_certify, lab, stability, n, k)
                ops.append(Op(f"n={n} k={k}", run, stability.WEAKLY_STABLE, _verdict_is))
        # Cache warm-up: fills the type-A generators every operation reads.
        lab.stability_family(self.max_rank, 0)
        return ops


# ---------------------------------------------------------------------------
# oracle


def _distribution(oracle, group: str, stat: str, n: int, flt: str):
    return oracle.distribution(group, stat, n, flt)


def _equal(out, expected) -> bool:
    return out == expected


class Oracle(_InProcess):
    """The acceptance list of `distribution` calls for ranks 4..6 (type A with
    4..7 letters); the seed only permutes their order.  Ranks below 4 take
    microseconds, which would time the loop rather than the enumeration."""

    name = "oracle"

    def __init__(self, tiny: bool = False) -> None:
        self.ranks = range(2, 4) if tiny else range(4, 7)

    def make_ops(self, seed: int) -> List[Op]:
        from eulerstab import eulerian as e
        from eulerstab import oracle

        lo, hi = self.ranks[0], self.ranks[-1]
        specs = [(("A", "des", m, "all"), e.eulerian_a(m - 1)) for m in range(lo, hi + 2)]
        for n in self.ranks:
            specs.append((("B", "des", n, "all"), e.eulerian_b(n)))
            specs.append((("B", "des", n, "last_positive"), e.half_b(n).plus))
            specs.append((("B", "des", n, "last_negative"), e.half_b(n).minus))
            specs.append((("B", "affdes", n, "all"), e.affine_b(n)))
            specs.append((("D", "des", n, "all"), e.eulerian_d(n)))
            specs.append((("D", "des", n, "last_positive"), e.half_d(n).plus))
            specs.append((("D", "des", n, "last_negative"), e.half_d(n).minus))
            specs.append((("B", "des_d", n, "last_positive"), 2 * e.half_d(n).plus))
        random.Random(seed).shuffle(specs)
        ops = [
            Op("/".join(map(str, spec)), functools.partial(_distribution, oracle, *spec), want, _equal)
            for spec, want in specs
        ]
        oracle.distribution("B", "des", 2)  # warm-up
        return ops


# ---------------------------------------------------------------------------
# cli-batch


@dataclasses.dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


class Launcher:
    """Runs `perfbench/launch.py CLI_ARGS...` one child at a time.  The
    timed and the traced run start every child through this same launcher;
    only the `--spans` argument differs."""

    def __init__(self) -> None:
        self.env = child_env()
        self.tracer = None
        self.max_rss_kb = 0
        self.output_bytes = 0
        os.makedirs(OUT_DIR, exist_ok=True)

    def run(self, cli_args: List[str]) -> CliResult:
        argv = [sys.executable, LAUNCHER]
        spans_path = os.path.join(OUT_DIR, "child-spans.json")
        if self.tracer is not None:
            if os.path.exists(spans_path):
                os.remove(spans_path)  # a child that dies early must not leave old spans
            argv += ["--spans", spans_path]
        err_path = os.path.join(OUT_DIR, "child-stderr.txt")
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(argv + cli_args, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        self.output_bytes += len(out)
        if self.tracer is not None:
            with open(spans_path) as fh:
                self.tracer.extend(json.load(fh))
        return CliResult(proc.returncode, out, stderr)


def _stdout_matches(res: CliResult, digest: str) -> bool:
    return res.code == 0 and hashlib.sha256(res.stdout).hexdigest() == digest


def _reports_read(res: CliResult, status: str) -> bool:
    if res.code != 0:
        return False
    doc = json.loads(res.stdout)
    records = doc["items"] if "items" in doc else [doc]
    return all(rec["status"] == status for rec in records)


# Every family from its lowest rank to 24, the formats alternating so both
# serializers run on every kind of family (A, the B family, the D family).
_GEN_FAMILIES = (
    ("A", 0, "json"),
    ("B", 1, "csv"),
    ("AffineB", 1, "json"),
    ("BPlus", 1, "csv"),
    ("BMinus", 1, "json"),
    ("D", 2, "csv"),
    ("DPlus", 2, "json"),
    ("DMinus", 2, "csv"),
)


def fixed_commands(tiny: bool = False) -> List[List[str]]:
    """Commands whose stdout must be byte-identical to the recorded one."""
    if tiny:
        return [
            ["scan", "--conjecture", "stable", "--n", "3", "--format", "json"],
            ["gen", "--family", "D", "--n", "2", "--n-max", "5", "--format", "csv"],
        ]
    return [
        ["scan", "--conjecture", "stable", "--n", "10", "--format", "json"],
        ["verify", "--check", "interlacing", "--n-max", "7", "--format", "json"],
        ["verify", "--check", "half-reciprocal", "--n-max", "7", "--format", "json"],
        *(["gen", "--family", family, "--n", str(lo), "--n-max", "24", "--format", fmt]
          for family, lo, fmt in _GEN_FAMILIES),
        ["gen", "--family", "A", "--n", "1", "--n-max", "5", "--roots"],
        ["verify", "--check", "identities", "--n-max", "12", "--format", "json"],
        ["verify", "--check", "operator-symbol", "--n-max", "6", "--format", "json"],
        ["zigzag", "--n", "300", "--format", "json"],
    ]


def seeded_commands(seed: int, tiny: bool = False) -> List[List[str]]:
    """distinct-roots scans at seeded k: 8 rationals per rank spanning both
    conjectured regions and the gap between them."""
    rng = random.Random(seed)
    cmds = []
    for n in (4,) if tiny else (6, 10):
        ks = []
        for _ in range(8):
            q = rng.randint(1, 6)
            ks.append(str(Fraction(rng.randint((-n * (n - 1) - 10) * q, 10 * q), q)))
        cmds.append(["scan", "--conjecture", "distinct-roots", "--n", str(n),
                     "--ks=" + ",".join(ks), "--format", "json"])
    return cmds


def load_expected() -> dict:
    with open(EXPECTED_CLI) as fh:
        return json.load(fh)["stdout_sha256"]


class CliBatch:
    """Fixed-argv commands checked byte for byte, plus seeded distinct-roots
    scans checked by their report status.  Every operation pays interpreter
    start, import and cold generation, as a CLI user does."""

    name = "cli-batch"

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        self.launcher = Launcher()

    def setup(self, seed: int, tracer: Optional[Tracer] = None) -> List[Op]:
        expected = load_expected()
        ops = []
        for argv in fixed_commands(self.tiny):
            label = " ".join(argv)
            run = functools.partial(self.launcher.run, argv)
            ops.append(Op(label, run, expected[label], _stdout_matches))
        for argv in seeded_commands(seed, self.tiny):
            run = functools.partial(self.launcher.run, argv)
            ops.append(Op(" ".join(argv), run, "pass", _reports_read))
        # Untimed warm-up: compiles bytecode and loads the interpreter's
        # files before the first timed operation.
        self.launcher.run(["zigzag", "--n", "3"])
        self.launcher.max_rss_kb = 0
        self.launcher.tracer = tracer
        return ops

    def trace(self, tracer: Tracer) -> None:
        self.launcher.tracer = tracer

    def untrace(self, tracer: Tracer) -> None:
        self.launcher.tracer = None

    def peak_rss_mb(self) -> float:
        return self.launcher.max_rss_kb / 1024

    def output_bytes(self) -> int:
        return self.launcher.output_bytes


WORKLOADS = {cls.name: cls for cls in (WeakSweep, Oracle, CliBatch)}
