"""Heavy optional imports load only in the workloads that use them: networkx
and scipy.sparse for the GNN graphs.  Training loads scipy's compiled CSR
kernel module alone, without the ``scipy.sparse`` package around it, and
makes image data without ``scipy.ndimage``."""

import os
import pathlib
import subprocess
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = pathlib.Path(repro.__file__).resolve().parents[1]

# Imports what the benchmark's training workloads and the LM experiment
# import, then prints which heavy modules are loaded: after the imports,
# after building both benchmark workloads (LM and VGG, data to method), and
# after building one GNN graph.
_PROBE = """
import sys

sys.path.insert(0, sys.argv[1])
import training
from repro.experiments.lm import run_lm  # noqa: F401
from repro.data import wiki_talk_like


def loaded(stage):
    names = sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "networkx"))
    print(stage + ":" + ",".join(names))


loaded("imported")
training.build_lm(0)
training.build_vgg(0)
loaded("built")
wiki_talk_like(n_nodes=40, n_communities=2, seed=0)
loaded("graph")
"""


def _run(code: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_training_imports_leave_out_networkx_and_ndimage():
    """Nor any scipy package (scipy, scipy.sparse, scipy.ndimage,
    scipy.special): of scipy, only the compiled CSR kernels load."""
    lines = _run(_PROBE, str(REPO_ROOT / "perfbench"))
    assert "imported:scipy.sparse._sparsetools" in lines, lines
    assert "built:scipy.sparse._sparsetools" in lines, lines
    # The graph generator still imports what it uses when it runs.
    graph = next(line for line in lines if line.startswith("graph:"))
    assert {"networkx", "scipy.sparse", "scipy.sparse._sparsetools"} <= set(
        graph.removeprefix("graph:").split(",")
    ), graph
    assert "scipy.ndimage" not in graph, graph


_SHARED = """
import sys

import numpy as np

if sys.argv[1] == "before":
    import scipy.sparse as sp
    import repro.sparse.kernels as kernels
else:
    import repro.sparse.kernels as kernels
    assert "scipy.sparse" not in sys.modules
    import scipy.sparse as sp
from scipy.sparse import _sparsetools

assert _sparsetools is kernels._sparsetools is sys.modules["scipy.sparse._sparsetools"]
rng = np.random.default_rng(0)
dense = rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.2)
x = rng.standard_normal((20, 3))
np.testing.assert_allclose(sp.csr_matrix(dense) @ x, dense @ x, rtol=1e-12, atol=1e-12)
print("shared")
"""


def test_scipy_sparse_shares_the_kernel_module_imported_before_or_after():
    for order in ("before", "after"):
        assert _run(_SHARED, order) == ["shared"], order


def test_this_install_loads_the_kernel_file_directly():
    """The extension file is found, so the fallback ``import`` (which runs
    ``scipy/sparse/__init__.py``) is not taken."""
    code = (
        "import sys; import repro.sparse.kernels as k; "
        "print(k._sparsetools.__spec__.origin, 'scipy.sparse' in sys.modules, "
        "'scipy' in sys.modules)"
    )
    origin, sparse_loaded, scipy_loaded = _run(code)
    assert pathlib.Path(origin).parent.name == "sparse", origin
    assert (sparse_loaded, scipy_loaded) == ("False", "False")

