#!/usr/bin/env python3
"""Record the outputs that ``run.py`` compares against with the default seed.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each workload and each of its input
sets, the parsed output of every command (``null`` for a command that
fails).  Re-record only when a change to reported values is intended.
"""

from __future__ import annotations

import json
import subprocess

import run


def main() -> int:
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    workloads = {}
    for name, wl in run.WORKLOADS.items():
        sets = []
        for j in range(wl.inputs):
            p = run.run_pass(cli, wl, run.DEFAULT_SEED, j)
            sets.append([None if error is not None else run.parse_output(cmd, text)
                         for cmd, error, text in zip(wl.commands, p.errors, p.outputs)])
        workloads[name] = sets
        print(f"{name}: {wl.inputs} input set(s) recorded")
    commit = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=30).stdout.strip()
    run.REFERENCE.write_text(json.dumps({
        "recorded_at": commit or None, "seed": run.DEFAULT_SEED, "rtol": run.RTOL,
        "workloads": workloads}, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
