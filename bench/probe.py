"""Set-up of one benchmark process: import fkin, then generate the
workload's tables and validate every configuration with the parser that
`fkin run` uses.

Run as a script (``python3 bench/probe.py WORKLOAD SEED``) it does the
set-up in a fresh process and prints ``ready``; the benchmark times that
from process start to the line, which is its ``setup_s``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Prepared:
    """A table with its validated configuration (an ``fkin.cli.RunConfig``)."""

    table: object
    parsed: object


def setup(workload, seed):
    """Import fkin and return the validated tables of ``workload``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fkin.cli

    import workloads

    prepared = []
    for table in workloads.generate(workload, seed):
        parsed = fkin.cli.parse_config(table.config)
        if table.grid_t_end is not None and parsed.mode != "kinetic":
            raise ValueError(f"{table.id}: a grid table needs a kinetic problem")
        prepared.append(Prepared(table, parsed))
    return prepared


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
