"""cli: the README's command lines, run one after another as subprocesses.

Why: a user of the command line pays interpreter start, ``import orlicz``
(about two thirds of a command, half of it ``scipy.special``), scenario
loading and the command itself; the import, ``scenario`` and ``cli`` layers
are measured only here. Every command puts ``--format structured`` before
the subcommand, and its report must match the one recorded at the seed
commit: keys, statuses and witnesses exactly, numbers to 1e-9 relative,
``timestamp`` and the suite's ``elapsed_seconds`` ignored. The commands run
on one CPU with the benchmark, whose speed chunks (speed.py) run between
their time slices.

The README's ``orlicz verify --count N --seed 42`` line also runs, in its
documented flag order and at a small count. It exits 2 at the seed commit
(global flags are accepted only before the subcommand), which counts as a
failed command (a known defect); once it succeeds, its text report must
match the one the global flag order gives. Any other nonzero exit or report
that differs from the reference makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

from common import KNOWN_DEFECT, Gate, Op, expect

WHY = "README command lines as subprocesses: interpreter start, import, scenario load and command"
REFERENCE = Path(__file__).with_name("reference") / "cli.json"
VERIFY_COUNT = 5
VERIFY_SEEDS = (42, 1, 2, 3, 4, 5, 6, 7)
IGNORED = ("timestamp", "elapsed_seconds")

COMMANDS = {
    "norm": ["norm", "f", "--scenario", "scenarios/finite_basic.json", "--young", "power_abs:2"],
    "conjugate": ["conjugate", "--young", "power_over_p:3"],
    "hderiv": ["hderiv", "collapse", "--scenario", "scenarios/finite_basic.json"],
    "density": ["density", "collapse", "--scenario", "scenarios/constant_collapse.json"],
    "domain": ["domain", "chi1", "--scenario", "scenarios/constant_collapse.json", "--map", "collapse"],
    "approximate": ["approximate", "f", "--scenario", "scenarios/geometric_collapse.json",
                    "--map", "collapse"],
    "bounded": ["bounded", "square", "--scenario", "scenarios/powerlaw_square.json"],
    "lp-check": ["lp-check", "--scenario", "scenarios/finite_basic.json", "--map", "collapse",
                 "--weight", "u", "--function", "f"],
    "adjoint-check": ["adjoint-check", "--scenario", "scenarios/finite_basic.json", "--map",
                      "collapse", "--function", "f", "--dual-function", "g"],
}


def structured_argv(name: str, verify_seed: int | None = None) -> list[str]:
    if name == "verify":
        return ["--seed", str(verify_seed), "--format", "structured", "verify",
                "--count", str(VERIFY_COUNT)]
    return ["--format", "structured"] + COMMANDS[name]


# The README line as documented: flags after the subcommand, text output.
DOCUMENTED_VERIFY = ["verify", "--count", str(VERIFY_COUNT), "--seed", "42"]
# The same request in the flag order the parser accepts at the seed commit.
DOCUMENTED_VERIFY_REFERENCE = ["--seed", "42", "verify", "--count", str(VERIFY_COUNT)]


def build(o, seed: int, stream: int):
    import numpy as np

    ref = json.loads(REFERENCE.read_text())
    rng = np.random.default_rng([seed, stream, 11])
    names = list(COMMANDS) + ["verify", "verify_documented"]
    return {"ref": ref, "orders": [list(rng.permutation(names)) for _ in range(16)],
            "seed_offset": int(rng.integers(0, len(VERIFY_SEEDS)))}


def cycle_commands(inputs, c):
    """(name, argv, reference) for every command of cycle c."""
    ref = inputs["ref"]
    out = []
    for name in inputs["orders"][c % len(inputs["orders"])]:
        if name == "verify":
            s = VERIFY_SEEDS[(inputs["seed_offset"] + c) % len(VERIFY_SEEDS)]
            out.append((name, structured_argv(name, s), ref["verify"][str(s)]))
        elif name == "verify_documented":
            out.append((name, list(DOCUMENTED_VERIFY), ref["verify_documented"]))
        else:
            out.append((name, structured_argv(name), ref[name]))
    return out


# ---------------------------------------------------------------------------
# Checking reports
# ---------------------------------------------------------------------------


def same_report(got, want, path="") -> None:
    """Raise Gate unless the reports agree: keys, strings and booleans exactly,
    numbers to 1e-9 relative; IGNORED keys are skipped."""
    if isinstance(want, dict):
        expect(isinstance(got, dict), f"{path}: expected an object")
        keys_w = {k for k in want if k not in IGNORED}
        keys_g = {k for k in got if k not in IGNORED}
        expect(keys_g == keys_w, f"{path}: keys differ: {sorted(keys_g ^ keys_w)}")
        for k in sorted(keys_w):
            same_report(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        expect(isinstance(got, list) and len(got) == len(want), f"{path}: list length differs")
        for i, (a, b) in enumerate(zip(got, want)):
            same_report(a, b, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        expect(isinstance(got, (int, float)) and not isinstance(got, bool), f"{path}: not a number")
        expect(got == want or abs(got - want) <= 1e-9 * max(abs(got), abs(want)),
               f"{path}: {got!r} != {want!r}")
    else:
        expect(got == want, f"{path}: {got!r} != {want!r}")


def parse_text_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key.split(".")[-1] not in IGNORED:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out


def check_command(name, want, result) -> str:
    """Gate one command's result; returns "ok", or KNOWN_DEFECT for the
    documented-order verify line exiting nonzero."""
    if name == "verify_documented":
        if result.code != 0:
            return KNOWN_DEFECT
        same_report(parse_text_report(result.stdout), want)
        return "ok"
    expect(result.code == want["exit"], f"{name}: exit {result.code}, expected {want['exit']}")
    try:
        report = json.loads(result.stdout)
    except ValueError as exc:
        raise Gate(f"{name}: report is not JSON: {exc}")
    same_report(report, want["report"], name)
    return "ok"


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root: Path, env: dict, timeout: float = 120.0):
    """Run a child to completion; returns (exit code, stdout, stderr, wall
    seconds, max RSS in MB) with the RSS from wait4 for this child alone."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise subprocess.TimeoutExpired(argv, timeout)
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    return (proc.returncode, b"".join(chunks[proc.stdout]).decode(),
            b"".join(chunks[proc.stderr]).decode(), wall, usage.ru_maxrss / 1024.0)


class Result:
    """One command's exit code and output."""

    def __init__(self, code, stdout, stderr):
        self.code, self.stdout, self.stderr = code, stdout, stderr

    def __repr__(self):
        return f"exit {self.code}: {self.stderr.strip()[-200:]}"


def make_cycles(o, inputs, root: Path | None = None, rss: list | None = None):
    """Requests for ``common.run_cycles``. With ``root`` every command is a
    subprocess started there, and its peak RSS is appended to ``rss``;
    without it, the command runs in this process through ``cli.main(argv)``
    so that it can be traced."""
    cli = importlib.import_module(o.__name__ + ".cli")
    env = child_env(root) if root is not None else None

    def in_subprocess(argv):
        code, out, err, _, rss_mb = run_child([sys.executable, "-m", "orlicz.cli"] + argv, root, env)
        rss.append(rss_mb)
        return Result(code, out, err)

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return Result(code, out.getvalue(), err.getvalue())

    run = in_process if root is None else in_subprocess

    def cycle(c):
        return [Op(name, lambda argv=argv: run(argv),
                   lambda res, raised, name=name, want=want: check_command(name, want, res))
                for name, argv, want in cycle_commands(inputs, c)]

    return cycle


def run_checked(argv, root: Path, env: dict) -> str:
    """The last stdout line of a child that must succeed."""
    code, out, err, _, _ = run_child(argv, root, env)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.strip()}")
    return out.strip().splitlines()[-1]


def median_child_ms(argv, root: Path, env: dict, repeats: int = 3, inner: bool = False) -> float:
    """Median wall time of a child in ms; with ``inner`` the child prints its
    own measurement in seconds on its last stdout line."""
    import statistics

    times = []
    for _ in range(repeats):
        if inner:
            times.append(float(run_checked(argv, root, env)))
        else:
            times.append(run_child(argv, root, env)[3])
    return statistics.median(times) * 1e3


def import_probe_argv() -> list[str]:
    code = ("import time; t = time.perf_counter(); import orlicz; "
            "print(time.perf_counter() - t)")
    return [sys.executable, "-c", code]
