"""Record the reference data the benchmark's correctness gates compare with.

Run from the repository root at the commit whose behaviour is the reference:

    python3 perfbench/make_references.py

It writes ``perfbench/reference/verify_totals.json`` (total_checks of
verify_suite(seed, COUNT) for every suite seed the verify workload draws)
and ``perfbench/reference/cli.json`` (exit code and structured report of
every command the cli workload runs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import wl_cli  # noqa: E402
import wl_verify  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import orlicz

    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    totals = {}
    for s in range(wl_verify.POOL):
        rep = orlicz.verify_suite(s, wl_verify.COUNT)
        if rep.failed:
            raise SystemExit(f"suite seed {s} has failing checks; not a reference")
        totals[str(s)] = rep.total_checks
    (out / "verify_totals.json").write_text(json.dumps(
        {"count": wl_verify.COUNT, "totals": totals}, indent=1, sort_keys=True) + "\n")

    env = wl_cli.child_env(root)
    cli = [sys.executable, "-m", "orlicz.cli"]

    def record(argv):
        code, stdout, stderr, _, _ = wl_cli.run_child(cli + argv, root, env)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}: {stderr}")
        return {"argv": argv, "exit": code, "report": json.loads(stdout)}

    ref = {name: record(wl_cli.structured_argv(name)) for name in wl_cli.COMMANDS}
    ref["verify"] = {str(s): record(wl_cli.structured_argv("verify", s))
                     for s in wl_cli.VERIFY_SEEDS}
    code, stdout, stderr, _, _ = wl_cli.run_child(
        cli + wl_cli.DOCUMENTED_VERIFY_REFERENCE, root, env)
    if code != 0:
        raise SystemExit(f"documented verify reference exited {code}: {stderr}")
    ref["verify_documented"] = wl_cli.parse_text_report(stdout)
    (out / "cli.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
