"""The bytes every command writes, pinned by SHA-256.

Each case runs ``main`` in-process as ``corr-radiance <command> --format <fmt>
[--grid-d N --grid-b N] --out FILE`` at the default kl = pi and sin beta =
0.2 and hashes the file.  The verify cases also pin what ``verify`` prints
and its exit status, at ``--tol-scale`` 1 and at 0, where every suite with a
nonzero deviation fails.  These began as the hashes of the table in
CHANGES.md, and CHANGES.md names each pin a later change moved; a change
that moves one changes what the package outputs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_batch_identity import cpu_flags, dynamic_arch_openblas

import corr_radiance
from corr_radiance.cli import EXIT_OK, EXIT_VERIFY, main

# (command, format, --grid-d, --grid-b) -> SHA-256 of the written table;
# None leaves the option at its default of 101
TABLES = {
    ("fig2", "csv", 101, 101): "84c13c369d5a042e0e01120920771c6642bfad303368b2e94c5c331fb6a2ed86",
    ("fig2", "csv", 401, 401): "bf80a950a4c8daf47be134039d4ed0c84efddcf86c80d093f6053e1b4340c45d",
    ("fig2", "json", 101, 101): "94b71c18575a5814439cb2b8f05cc2ef31ee2a5cbae1bb0ce13aa85483265304",
    ("fig2", "json", 401, 401): "e5d088915742fff1c147e09b69e6484472928920d8cc9505ca55636f1216df00",
    ("fig3", "csv", 101, 101): "00f3e163cab3974daad9bd5198d3f3529eeb9f40839f75e4d0e210462c05fefe",
    ("fig3", "csv", 401, 401): "f4b99b5d3fd26787098689dac321051d3cad39eaa7ac884fabc2076f64d4c816",
    ("fig3", "csv", 25001, None): "71ef43fb890f3db9cfc873f20beec86b7776012bd48d1fb0f9bfcbdc41f31920",
    ("fig3", "json", 101, 101): "0c87ecfb0e7541079a16c2ee9b8b6f0ab11111109c25a08f960ec7ea3e55e0b6",
    ("fig3", "json", 401, 401): "69618224d05e35c5db2f0eccceb5409a0fbeb315d642e14bdfb946e7a2c895bd",
    ("fig3", "json", 25001, None): "c87f813c5b87363cdd367bd90555ec953f256a2b724ce6cd4c39573a45c552b0",
    ("fig4", "csv", 101, 101): "0731110b31c798574158247728807e8160eeb58a5bca10496556f9b429eba9de",
    ("fig4", "csv", 401, 401): "3b7afe214a32a6177b4de0db47c60810207b0dd852074dd80479a2c84ed30a70",
    ("fig4", "json", 101, 101): "429d9b921d1b47568b728119715d71196985d677c1ebb6a269df97d5fb5c0dab",
    ("fig4", "json", 401, 401): "b81c37b29ab67cbfe3f17f3ee7f163b9c93983ca8575ffcbc4a28a3cef7c3422",
    ("fig5", "csv", 101, 101): "99f1a9351bce903c0a6e10a729ba264fab0913a28abb9f8cbd4a4259fc4ad734",
    ("fig5", "csv", 401, 401): "d1eba146be017f532580955e3d1e61247c6bf8e558e8456f15948b3a95db073f",
    ("fig5", "csv", 25001, None): "a4a214e10261952b102cd8dcfbbd04f235afb5af758e3599b34884358f3ffe50",
    ("fig5", "json", 101, 101): "279f9b6b24f38d707c66a87d3f399e2ae62fff65fb2bb7ea6f21b37f4bc2a286",
    ("fig5", "json", 401, 401): "2a1f72062d2fc87fd6cf071280a1c2c4935455bb5f28e9c330b155d89b805102",
    ("fig5", "json", 25001, None): "b53b78c7f648afe661e28fa6470d04083dd12c96ffe88daaa166317036b0f3dd",
    ("transition", "csv", 101, 101): "83177ef92d3bdb758c2368b37fc5bba14df0db47a83e3dcc85eb6c738ecc71a4",
    ("transition", "csv", 401, 401): "83177ef92d3bdb758c2368b37fc5bba14df0db47a83e3dcc85eb6c738ecc71a4",
    ("transition", "json", 101, 101): "add1ed26c42278358ce5df4fa1d8ce84dbd925f9d4892e2377e2825557d70eb8",
    ("transition", "json", 401, 401): "b0cd7b1022e460a8396d57026adb6c4075bb6025763e997c3b0a2b195fcb8edc",
    ("verify", "csv", 101, 101): "4b0f0d554be04bca8df2e6cb33f1b61d5b4b2017c1754041c6071103331086d0",
    ("verify", "csv", 401, 401): "4b0f0d554be04bca8df2e6cb33f1b61d5b4b2017c1754041c6071103331086d0",
    ("verify", "json", 101, 101): "8536931134a6ce7a4f13b17381f8b4d034a8b6dce98b68e2b232c24e30818d6b",
    ("verify", "json", 401, 401): "1e1c4de79285717874358cd6adf757d0dec039f3d9a2d9bf08e4fd679e49fb5a",
}

# --format -> SHA-256 of the table of ``verify --tol-scale 0``
FAILING_VERIFY_TABLES = {
    "csv": "09879b597c7823f0b16cf10f39d810c845d6c01e329d37664781fada2be5aadc",
    "json": "d04ec6c8956d5f5dc2b43c58667ecabc83612aa9ad7a863b5e8dfb374e1edf72",
}

# --tol-scale -> (exit status, SHA-256 of what ``verify`` prints)
VERIFY_STDOUT = {
    "1": (EXIT_OK, "5e26344d621e712f6e6e450e6eb021b33403f82c52d45538268a4ded4845bdfe"),
    "0": (EXIT_VERIFY, "b94f7d4e646fb28843aebfb1c917242643e22d51e772380b21d499f9cfedbb01"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_hash(tmp_path, argv) -> tuple[int, str]:
    out = tmp_path / "table"
    code = main([*argv, "--out", str(out)])
    return code, sha256(out.read_bytes())


def grid_options(grid_d, grid_b) -> list[str]:
    options = ["--grid-d", str(grid_d)]
    return options if grid_b is None else [*options, "--grid-b", str(grid_b)]


@pytest.mark.parametrize(
    "case", list(TABLES), ids=lambda case: "-".join(str(part) for part in case if part)
)
def test_table_bytes(case, tmp_path):
    command, fmt, grid_d, grid_b = case
    code, digest = table_hash(tmp_path, [command, "--format", fmt, *grid_options(grid_d, grid_b)])
    assert code == EXIT_OK
    assert digest == TABLES[case]


@pytest.mark.parametrize("fmt", list(FAILING_VERIFY_TABLES))
def test_failing_verify_table_bytes(fmt, tmp_path):
    code, digest = table_hash(tmp_path, ["verify", "--tol-scale", "0", "--format", fmt])
    assert code == EXIT_VERIFY
    assert digest == FAILING_VERIFY_TABLES[fmt]


@pytest.mark.parametrize("tol_scale", list(VERIFY_STDOUT))
def test_verify_stdout_bytes_and_exit_status(tol_scale, capsys):
    code = main(["verify", "--tol-scale", tol_scale])
    assert (code, sha256(capsys.readouterr().out.encode())) == VERIFY_STDOUT[tol_scale]


def openblas_kernels() -> list[str]:
    """The OpenBLAS kernels this CPU can run, by OPENBLAS_CORETYPE name."""
    flags = cpu_flags()
    needs = {"Prescott": set(), "SandyBridge": {"avx"}, "Haswell": {"avx2", "fma"}}
    return [kernel for kernel, flag_set in needs.items() if flag_set <= flags]


def numpy_simd_features() -> list[str]:
    """The SIMD features numpy picks its loops for at run time that this CPU
    has, by NPY_DISABLE_CPU_FEATURES name."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [feature for feature in umath.__cpu_dispatch__ if umath.__cpu_features__.get(feature)]


def kernel_environments() -> list[dict[str, str]]:
    """Each OpenBLAS kernel this CPU can run, when numpy's OpenBLAS picks one
    at run time, and numpy with every run-time SIMD feature switched off."""
    envs = [{"OPENBLAS_CORETYPE": kernel} for kernel in openblas_kernels()] if dynamic_arch_openblas() else []
    features = numpy_simd_features()
    if features:
        envs.append({"NPY_DISABLE_CPU_FEATURES": " ".join(features)})
    return envs


def run_under(kernel: dict[str, str], args: list[str]) -> subprocess.CompletedProcess:
    """``python *args`` in a child with ``kernel`` in its environment and this
    package's source first on its path."""
    src = str(Path(corr_radiance.__file__).resolve().parents[1])
    env = {
        **os.environ,
        **kernel,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)


@pytest.mark.skipif(not kernel_environments(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS or a SIMD feature numpy can switch off")
def test_verify_stdout_bytes_do_not_depend_on_the_blas_kernel():
    for kernel in kernel_environments():
        run = run_under(kernel, ["-m", "corr_radiance.cli", "verify"])
        assert (run.returncode, sha256(run.stdout)) == VERIFY_STDOUT["1"], kernel
