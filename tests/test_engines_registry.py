"""Array path-loss contract once held by the engine kernels.

The batch pipeline calls the array forms in :mod:`repro.rf.pathloss`
directly. Like the scalar form, they must reject a negative distance
rather than return a loss for it.
"""

import numpy as np
import pytest

from repro.rf.pathloss import (
    free_space_path_loss_db_array,
    free_space_path_loss_db_multifreq,
)


def test_numba_kernels_reject_negative_distance():
    bad = np.array([-1.0, 100.0])
    with pytest.raises(ValueError):
        free_space_path_loss_db_array(bad, 1090e6)
    with pytest.raises(ValueError):
        free_space_path_loss_db_multifreq(bad, np.array([98.1e6, 1090e6]))
