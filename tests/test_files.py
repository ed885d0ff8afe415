"""Output files: every writer replaces what was at its path."""

import numpy as np
import pytest

from entroprop.cli import ExperimentConfig, echo_config, write_csv
from entroprop.datasets import write_cifar10, write_idx
from entroprop.files import write_file
from entroprop.nets import Dense, LayerParams, NetworkSpec
from entroprop.weights_io import write_dump


def _dump(path, n):
    write_dump(NetworkSpec((Dense(n, n),)),
               [LayerParams(np.eye(n), np.zeros(n))], path)


def _cifar(path, n):
    write_cifar10(path, np.zeros((n, 3, 32, 32)), np.zeros(n))


def _config(path, n):
    echo_config(ExperimentConfig(latents=tuple(range(1, n + 1))), path.parent)


WRITERS = {
    "write_file": lambda path, n: write_file(path, bytes(range(n))),
    "write_csv": lambda path, n: write_csv(path, ["a"], [[i] for i in range(n)]),
    "echo_config": _config,
    "write_dump": _dump,
    "write_idx": lambda path, n: write_idx(path, np.arange(n, dtype=np.uint8)),
    "write_cifar10": _cifar,
}
FILE_NAMES = {"echo_config": "config_used.txt"}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewrite_with_shorter_content_leaves_only_new_bytes(name, tmp_path):
    write = WRITERS[name]
    file_name = FILE_NAMES.get(name, "out.bin")
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    fresh.mkdir()
    rewritten.mkdir()
    write(fresh / file_name, 3)
    write(rewritten / file_name, 40)
    write(rewritten / file_name, 3)
    assert (rewritten / file_name).read_bytes() == (fresh / file_name).read_bytes()
