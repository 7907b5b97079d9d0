"""Spill directories and shard workers are gone when a process exits.

A chunked log that spills, queried with ``pair_workers=2``, forks a shard
pool whose workers build (and spill) the columns of a later question on
their own.  The pool is torn down at exit by ``pool.terminate()``, which
kills the workers before any finalizer of theirs runs — so whatever they
own leaks.  The script below runs that scenario in a fresh interpreter and
the test inspects what it left behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.pairshard import _fork_context

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
import os
import random
import sys
from pathlib import Path

from repro.core.api import PerfXplainSession
from repro.core.explainer import PerfXplainConfig
from repro.logs.records import TaskRecord
from repro.logs.store import ExecutionLog

rng = random.Random(3)
log = ExecutionLog()
for index in range(480):
    job = index // 24
    features = {
        "job": f"j{job}",
        "host": f"h{rng.randrange(6)}",
        "op": ("MAP", "REDUCE")[job % 2],
        "size": float(rng.choice([64, 128, 256])),
        "mem": float(rng.randrange(8)),
    }
    duration = 10.0 * (1 + job % 5) * rng.choice([1.0, 1.05, 3.0])
    log.add_task(TaskRecord(f"t{index}", f"j{job}", features, duration))
# The first question's columns fit the working set, so the pool forks
# before the parent has spilled anything; the second question's columns
# are new to that pool, so its workers encode them and spill first.  (Its
# blocked atoms never reach the workers: candidates are grouped on them.
# ``size_compare`` is not blocked, and ``size`` is new to the pool.)
log.configure_blocks(chunk_rows=64, max_resident_chunks=20, spill_directory=sys.argv[1])
session = PerfXplainSession(log, config=PerfXplainConfig(pair_workers=2))
for despite in ("job_isSame = T", "host_isSame = T AND op_isSame = T AND size_compare = SIM"):
    session.explain(
        f"FOR TASKS ?, ? DESPITE {despite} "
        "OBSERVED duration_compare = GT EXPECTED duration_compare = SIM"
    )
spilled = Path(sys.argv[1]).glob("repro-chunks-*/chunk-*.pkl")
tags = sorted({int(path.name.split("-")[1]) for path in spilled})
print(json.dumps({"pid": os.getpid(), "spilled_by": tags}))
"""


def _session_members(session_id: int) -> list[int]:
    """Live processes (zombies excluded) of one session, from ``/proc``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session_id and fields[0] != "Z":
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(
    _fork_context() is None or not Path("/proc/self/stat").exists(),
    reason="requires the fork start method and /proc",
)
def test_no_spill_directory_or_worker_outlives_the_process(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # A session of its own: every process the script forks stays in it,
    # even once re-parented.
    process = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(spill)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=300)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert process.returncode == 0, stderr
    report = json.loads(stdout.splitlines()[-1])
    # The scenario really had the workers spill beside the parent.
    assert [pid for pid in report["spilled_by"] if pid != report["pid"]]

    deadline = time.monotonic() + 10.0
    while _session_members(process.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    leftover = _session_members(process.pid)
    for pid in leftover:
        os.kill(pid, signal.SIGKILL)
    assert leftover == []
    assert sorted(entry.name for entry in spill.iterdir()) == []
