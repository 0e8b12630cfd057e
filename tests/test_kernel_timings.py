"""L0 kernel timings (pytest-benchmark); deselected by default.

Run them with `python -m pytest -m bench`.  The states come from the
budgeted regime (noise 0.01, budget 10 spread over K = 4 subchannels,
eps 0.05), cut to their first K dimensions for K = 1 and 2.
"""

import numpy as np
import pytest

import rsgame as rs

H = np.array([0.54, 0.226, 0.279, 0.222])
A = np.array([4.0, 3.0, 2.0, 1.0])
F = np.array([0.01, 0.01, 0.65, 1.92])
EPS = 0.05


@pytest.mark.bench
@pytest.mark.parametrize("k", [1, 2, 4])
def test_worst_case_observation(benchmark, k):
    spec = rs.make_spec(direct=H[None, :k], cross=np.zeros((1, 1, k)),
                        noise=0.01, leaders=(), action_max=10.0, budget=[10.0])
    wco = benchmark(rs.worst_case_observation, spec, 0, A[:k], F[:k], EPS,
                    tol=1e-11)
    assert np.linalg.norm(wco.values - F[:k]) == pytest.approx(EPS, rel=1e-9)
