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
    ("fig2", "csv", 101, 101): "496dcc585ff7d6abef006821b728d0f29830f2e18d54266757b6b4a9f0b6c887",
    ("fig2", "csv", 401, 401): "ecacaf34ff5e0bed70c162832cb36605b5a8c1662095f763ce2f2e31acd79363",
    ("fig2", "json", 101, 101): "9ffcabf2e2381cf65ecaa4bbbbf38e0050ac466c5226d033aa0c89ec75c02794",
    ("fig2", "json", 401, 401): "95125080ecaaafe1d93c5ae5fd62a531e9443f6b2491a4f39b1c5832f5507446",
    ("fig3", "csv", 101, 101): "205f7c65fdcae5dcb6ab59f5a110d94f626ad18a9078f2a354eeb5e5ab6dba5a",
    ("fig3", "csv", 401, 401): "e30a6623b17fd832650f3f9af2a18a1153fe625b6862a7abaa150be6dda9d895",
    ("fig3", "csv", 25001, None): "b818184bb478f9dd93d25c5b9981b82bf61be1111d91171da81c79cb587c1901",
    ("fig3", "json", 101, 101): "8a9b6fe5f27a9dea0e526b09f6b727dfeaac94e19cd86c4fd9c8bc80edef5853",
    ("fig3", "json", 401, 401): "dbb749179607b08a3c07e4f2a6e87125ee5aaec281b0e0a4e08e17a9b9bbd74d",
    ("fig3", "json", 25001, None): "ebedba2d7ba4df206c370d7c665b2825756acac71bf0f60ce4248158ea8ba689",
    ("fig4", "csv", 101, 101): "cd0400f38e99ac3f0aa26659d0d1d57160ecd2d8cbd3f5be0eeea54b7dd7899b",
    ("fig4", "csv", 401, 401): "ca584ba23f8b03f6f0ce285943512ac7e7735358c9f94280283960b217b371fb",
    ("fig4", "json", 101, 101): "6a60d90cd9742c228e31016f92168550cff4785c945f2badc76e904cafe92d93",
    ("fig4", "json", 401, 401): "117143df6e51f3eceb51359165b06f29d5a1c75624f059ac113464860e5fbe2f",
    ("fig5", "csv", 101, 101): "cfcc0d570ed41d542fcc45a0e97d98944b6488656052ccd48a10b6b0385f41a3",
    ("fig5", "csv", 401, 401): "63ae8dc93b53beec0e882a75abcfdf36fe370ed3b16104f2ba0f42fafd108e48",
    ("fig5", "csv", 25001, None): "aca3be2b7b85841d08a4c080cc35090637517a727f2c2fdd9c28679e0200042a",
    ("fig5", "json", 101, 101): "00cbcff1d830152637ce207365ac93de194b4d66f77a8e4e581345a492cc05d0",
    ("fig5", "json", 401, 401): "f315dabc4976657679354926777a4a61a1dee8419579098cb3fe87322eb9197e",
    ("fig5", "json", 25001, None): "d6a10d434ecd2af4a7fc9414f82c5abf62c91758a5b95fd98347897df14885a1",
    ("transition", "csv", 101, 101): "83177ef92d3bdb758c2368b37fc5bba14df0db47a83e3dcc85eb6c738ecc71a4",
    ("transition", "csv", 401, 401): "83177ef92d3bdb758c2368b37fc5bba14df0db47a83e3dcc85eb6c738ecc71a4",
    ("transition", "json", 101, 101): "add1ed26c42278358ce5df4fa1d8ce84dbd925f9d4892e2377e2825557d70eb8",
    ("transition", "json", 401, 401): "b0cd7b1022e460a8396d57026adb6c4075bb6025763e997c3b0a2b195fcb8edc",
    ("verify", "csv", 101, 101): "73355af59b9f9c4e41df1f2f426066d6cd1ed6bbc90153aa78987ddedbdc0292",
    ("verify", "csv", 401, 401): "73355af59b9f9c4e41df1f2f426066d6cd1ed6bbc90153aa78987ddedbdc0292",
    ("verify", "json", 101, 101): "e1ab2e4c86be4f4ab2490b36200a0ed17d9b98fc43fba57bc89e204036e686a4",
    ("verify", "json", 401, 401): "e67b40d49fcc71d02ea50b59286a746541d60cd3bde5eb5e642760c5ab4b7238",
}

# --format -> SHA-256 of the table of ``verify --tol-scale 0``
FAILING_VERIFY_TABLES = {
    "csv": "a0acd61b71512900b07ae8b77f20d39d1c795bdc9bd590971f7f1d09f0138040",
    "json": "34b6c33672cf785b3e8889996f291f9f443d9b1e0316ad33a99262a4a0a21f6e",
}

# --tol-scale -> (exit status, SHA-256 of what ``verify`` prints)
VERIFY_STDOUT = {
    "1": (EXIT_OK, "371f2b663f3a219eadee7c50f3a1ec8821fc046e7c0abdee00e0a90dfde02eb5"),
    "0": (EXIT_VERIFY, "b42c8a80f67eaa6319d55b9affd72e74582ba16ac5dceef2d59c993540ca8164"),
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
