"""SharedArray: a numpy view over one shared-memory block."""

import numpy as np

from repro.parallel import SharedArray


class TestSharedArray:
    def test_shared_array_round_trip(self):
        shared = SharedArray((2, 3), dtype=np.float32)
        try:
            shared.array[...] = 7.0
            assert np.all(shared.array == 7.0)
        finally:
            shared.close()
