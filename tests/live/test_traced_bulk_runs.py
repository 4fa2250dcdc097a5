"""The traced quick ``live_bulk`` run, repeated: the transport's stress test.

Under cProfile a 16-member bulk transaction often outlives the client's
50 ms timeout while its response is already on the way.  Such a timeout
must cost one request member (a probe), not the group: when it resent
all 16 members and the server answered every duplicate with the whole
16-member response, these runs hung in a quarter of tries alone and in
most tries with two at once.  Two seeds that hung then run side by side
here, each bounded by a timeout, so a hang fails the test instead of
stalling the suite.
"""

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.live

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SEEDS = (1, 5)
TIMEOUT_S = 90


def _start(seed):
    return subprocess.Popen(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "live_bulk",
         "--quick", "--trace", "1", "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_traced_quick_bulk_runs_finish_with_every_transaction_ok():
    runs = [(seed, _start(seed)) for seed in SEEDS]
    outputs = []
    try:
        for seed, process in runs:
            out, err = process.communicate(timeout=TIMEOUT_S)
            outputs.append((seed, process.returncode, out, err))
    except subprocess.TimeoutExpired:
        pytest.fail(f"a traced live_bulk run gave no result within {TIMEOUT_S} s")
    finally:
        for _seed, process in runs:
            if process.poll() is None:
                process.kill()
                process.communicate()
    for seed, code, out, err in outputs:
        assert "transactions failed" not in err, f"seed {seed}: {err}"
        if code:
            # The run's own premise, which trips at about 1 run in 40
            # with or without this transport: a hop ack left over from
            # one profiled pass makes two clean passes' counts differ.
            assert "differ between two clean passes" in err, f"seed {seed}: {err}"
            continue
        line = json.loads(out.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0, f"seed {seed}: {line}"
