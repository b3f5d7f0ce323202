"""Random access must return exactly what decompression returns.

``NeaTSStorage`` measures its corrections against the vectorised
``Model.evaluate``; ``access`` adds them to the scalar ``Model.evaluate_at``.
The two must agree bit for bit, or a last-bit difference moves the floor by
one and ``access(k)`` is off by one (seen on exponential fragments when the
scalar path used ``math.exp`` and the vector path numpy's ``exp``).
"""

import numpy as np
import pytest

import repro
from repro.core.models import ALL_MODELS, DEFAULT_MODELS, get_model
from repro.data import DATASETS


@pytest.mark.parametrize("name", ALL_MODELS)
def test_evaluate_at_equals_one_element_evaluate(name):
    model = get_model(name)
    rng = np.random.default_rng(11)
    xs = np.concatenate([np.arange(1, 1025), rng.integers(1025, 1 << 40, 100)])
    for _ in range(25):
        scale = 10.0 ** rng.integers(-8, 3, model.n_params)
        params = tuple(float(p) for p in rng.normal(0, 10, model.n_params) * scale)
        whole = model.evaluate(params, xs.astype(np.float64))
        for x, v in zip(xs.tolist(), whole.tolist()):
            one = model.evaluate(params, np.array([x], dtype=np.float64))[0]
            assert model.evaluate_at(params, x) == one == v, (params, x)


@pytest.mark.parametrize(
    "dataset,n,seed",
    [
        # The slice that showed the off-by-one before the fix.
        ("LON", 2560, 365366569),
        ("LON", 1024, 1),
        ("LON", 3000, 2),
        ("LAT", 1024, 1),
        ("LAT", 3000, 2),
    ],
)
def test_access_matches_every_value(dataset, n, seed):
    y = DATASETS[dataset].generate(n, seed=seed)[:1024]
    comp = repro.compress(y, codec="neats", models=DEFAULT_MODELS)
    assert np.array_equal(comp.decompress(), y)
    assert [k for k in range(len(y)) if comp.access(k) != y[k]] == []
