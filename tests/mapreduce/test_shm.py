"""Shared-memory transport tests (repro.mapreduce.shm).

The transport-independent plane contract lives in
``test_plane_contract.py``; here is what only segments do.
"""

import numpy as np
import pytest

from repro.mapreduce import shm
from repro.utils.errors import MapReduceError


@pytest.fixture(autouse=True)
def clean_attachments():
    """Each test starts and ends with no cached attachments."""
    shm.detach_all()
    yield
    shm.detach_all()


class TestSharedArrayPlane:
    def test_close_unlinks_everything(self):
        plane = shm.SharedArrayPlane(min_bytes=1024)
        refs = [plane.register(np.zeros(1000, dtype=np.float64) + i) for i in range(3)]
        names = {ref[0] for ref in refs}
        assert names <= shm.live_segments()
        plane.close()
        assert not (names & shm.live_segments())
        shm.detach_all()  # drop cached views before the segment vanishes
        with pytest.raises(MapReduceError):
            shm.attach(refs[0])

    def test_shared_bytes_accounting(self):
        array = np.zeros(4096, dtype=np.float64)
        with shm.SharedArrayPlane(min_bytes=1024) as plane:
            plane.register(array)
            assert plane.shared_bytes >= array.nbytes

    def test_dumps_without_plane_is_plain_pickle(self):
        big = np.arange(5000, dtype=np.float64)
        restored = shm.loads(shm.dumps(big), shm.attach)
        assert np.array_equal(restored, big)
        assert restored.flags.writeable
