"""No command loads ``numpy.random``, and the entropy suite's unitaries come
from a formula.

``numpy.random`` brings in ``secrets``, ``hashlib`` and libcrypto, about
5 MB of resident memory that only ``verify`` used, for the twenty random
unitaries of ``suite_entropy_unitary_invariance``.  Those are now
``verify._entangling_unitaries()``, a product of Pauli rotations with fixed
angles, so no command draws anything; the tests below check that the
unitaries are unitary, entangling, pinned and independent of the BLAS kernel
and numpy's SIMD dispatch.

The saving needs numpy 2, which loads ``numpy.random`` only on first use.
numpy 1.x imports it with numpy itself, so there every command checks only
that it loads none of these modules beyond what ``import numpy`` loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_output_hashes import kernel_environments, run_under, sha256

import corr_radiance
from corr_radiance.cli import COMMANDS, EXIT_OK
from corr_radiance.verify import _entangling_unitaries

SMALL = {"fig2": ["--grid-d", "5", "--grid-b", "5"], "fig3": ["--grid-d", "5"],
         "fig4": ["--grid-d", "5", "--grid-b", "5"], "fig5": ["--grid-d", "5"]}

CHILD = """
import json, sys
NAMES = ("numpy.random", "secrets", "hashlib")
import numpy
with_numpy = [name for name in NAMES if name in sys.modules]
from corr_radiance.cli import main
code = main(sys.argv[2:])
added = [name for name in NAMES if name in sys.modules and name not in with_numpy]
with open(sys.argv[1], "w") as report:
    json.dump({"code": code, "numpy": with_numpy, "added": added}, report)
"""


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_imports_numpy_random(command, tmp_path):
    report = tmp_path / "report.json"
    argv = [command, *SMALL.get(command, []), "--out", str(tmp_path / "table")]
    env = dict(os.environ, PYTHONPATH=str(Path(corr_radiance.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(report), *argv], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = json.loads(report.read_text())
    assert loaded["code"] == EXIT_OK
    assert loaded["added"] == []
    if int(np.__version__.split(".")[0]) >= 2:
        assert loaded["numpy"] == []


# SHA-256 of ``_entangling_unitaries().tobytes()``
UNITARIES_SHA256 = "464f99f880ff7dca092558afd3c0f5b2b2c8fe5933fcc80e78fe2c1f5d658c8f"


def test_each_unitary_is_unitary():
    us = _entangling_unitaries()
    assert us.shape == (20, 4, 4) and us.dtype == np.complex128
    products = np.einsum("kab,kcb->kac", us, us.conj())
    assert np.max(np.abs(products - np.eye(4))) <= 1e-14


def test_each_unitary_entangles():
    """Operator Schmidt rank 4: the realigned matrix R[(a c), (b d)] =
    U[(a b), (c d)] has four singular values well away from zero, so no U_k
    is a product of one-atom unitaries."""
    realigned = _entangling_unitaries().reshape(20, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(20, 4, 4)
    singular = np.linalg.svd(realigned, compute_uv=False)
    assert np.all(singular > 1e-3 * singular[:, :1])


def test_unitaries_bytes_are_pinned():
    assert sha256(_entangling_unitaries().tobytes()) == UNITARIES_SHA256


@pytest.mark.skipif(not kernel_environments(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS or a SIMD feature numpy can switch off")
def test_unitaries_bytes_do_not_depend_on_the_kernel():
    child = ("import hashlib, sys; from corr_radiance.verify import _entangling_unitaries as u; "
             "sys.stdout.write(hashlib.sha256(u().tobytes()).hexdigest())")
    for kernel in kernel_environments():
        run = run_under(kernel, ["-c", child])
        assert (run.returncode, run.stdout.decode()) == (0, UNITARIES_SHA256), kernel
