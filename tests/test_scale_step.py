"""``scripts/scale_step.py`` runs end to end at a small location count."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "scale_step.py")


def test_scale_step_runs_and_its_round_trips_hold():
    # Each phase runs in its own child process, from the checkout's src.
    done = subprocess.run([sys.executable, SCRIPT, "--n", "50"], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["n"] == 50
    assert report["build"]["graph_round_trip_equal"] is True
    assert report["sample"]["round_trip_equal"] is True
    assert report["sample"]["write_peak_rss_mb"] >= report["sample"]["peak_rss_mb"]
