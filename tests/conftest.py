"""Fixtures shared by the test modules."""

import struct

import numpy as np
import pytest

from levysid import read_dataset


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    """``make(Z, X, h)``: Z beside X as a binary dataset file in a directory
    of its own, read back with read_dataset, the reader the CLI uses. A 1-D
    array is one column; the file is written as given, so read_dataset and
    the blocks read from it make every check."""

    def make(Z, X, h):
        Z, X = (np.asarray(A, dtype=np.float64) for A in (Z, X))
        Z, X = (A[:, None] if A.ndim == 1 else A for A in (Z, X))
        assert Z.shape == X.shape, (Z.shape, X.shape)
        path = tmp_path_factory.mktemp("dataset") / "pairs.bin"
        path.write_bytes(b"LSID" + struct.pack("<BIQd", 1, Z.shape[1], Z.shape[0], h)
                         + np.hstack([Z, X]).astype("<f8").tobytes())
        return read_dataset(path)

    return make
