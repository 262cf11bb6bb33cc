"""Heavy optional imports load only in the workloads that use them: networkx
for the GNN graphs, scipy.ndimage for the image generator."""

import os
import pathlib
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = pathlib.Path(repro.__file__).resolve().parents[1]

# Imports what the benchmark's training workloads and the LM experiment
# import, then prints which heavy modules are loaded, before and after
# building one small dataset of each kind.
_PROBE = """
import sys

sys.path.insert(0, sys.argv[1])
import training  # noqa: F401
from repro.experiments.lm import run_lm  # noqa: F401
from repro.data import cifar100_like, wiki_talk_like

HEAVY = ("networkx", "scipy.ndimage")


def loaded():
    return ",".join(name for name in HEAVY if name in sys.modules)


print("imported:" + loaded())
cifar100_like(n_train=20, n_test=20, image_size=8, n_classes=4, seed=0)
wiki_talk_like(n_nodes=40, n_communities=2, seed=0)
print("built:" + loaded())
"""


def test_training_imports_leave_out_networkx_and_ndimage():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, str(REPO_ROOT / "perfbench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.split()
    assert "imported:" in lines, result.stdout
    # The generators still import what they use when they run.
    assert "built:networkx,scipy.ndimage" in lines, result.stdout
