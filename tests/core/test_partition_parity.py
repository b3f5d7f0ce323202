"""Fragment parity for Algorithm 1: speedups must not move a single fragment.

Two independent guards:

* **Golden digests.**  sha256 of the NeaTS payload (``to_payload()``, the
  ``NeaTSStorage.to_bytes()`` layout) for every dataset generator at
  n = 50 and n = 1024, recorded before the DP loop was optimised.  Only
  models whose transforms and evaluation are IEEE-exact (``+ - * /`` and
  ``sqrt``) are used, so the digests do not depend on the platform's libm.
  A digest of the generated input is checked first, so a generator that
  drifts is reported as such and not as a partitioning change.
* **Reference loop.**  :func:`reference_partition` is a verbatim copy of
  the original DP loop (every fragment opened eagerly, its parameters fitted
  on the spot with one ``RangeLineFitter.add`` per point).  The library's
  :func:`~repro.core.partition.partition` must return the same fragments
  with bit-identical parameters for every model kind, for NeaTS-L's lossy
  weight, and inside SNeaTS.
"""

import hashlib

import numpy as np
import pytest

import repro.core.compressor as compressor
from repro.core.compressor import NeaTS, default_eps_set
from repro.core.convex import RangeLineFitter
from repro.core.models import ALL_MODELS, FragmentFit, Model, get_model, make_approximation
from repro.core.partition import (
    Fragment,
    PartitionResult,
    _model_cost_bits,
    correction_bits,
    partition,
    partition_lossy,
)
from repro.core.transforms import precompute_transform
from repro.data import DATASETS

IEEE_EXACT_MODELS = (
    "linear",
    "quadratic",
    "radical",
    "quadratic_linear",
    "cubic_linear",
    "cubic_quadratic",
)
GOLDEN_SEED = 12

# (dataset, n) -> (sha256 of the int64 input, first 16 hex digits;
#                  sha256 of the NeaTS payload)
GOLDEN = {
    ("IT", 50): (
        "1b50bfda0fc5385c",
        "43d9d00828197e27496a318b579200f934c8ae11d1ecb85ccd6312ebac7f0659",
    ),
    ("US", 50): (
        "21ef67c068eea67d",
        "ade713eb822a3cfdf4939cae2aa84eb66df65975e91ee2f643f6103e9360eccf",
    ),
    ("ECG", 50): (
        "d8653a2c512259de",
        "c0a340ce470097b8dba885a57f9abcfdc41527d1ccfa6e6465e5170dd1fac9ce",
    ),
    ("WD", 50): (
        "4f7bac2d86525201",
        "751b9a2aba9519888923ea349ee86706d5fb228b3d635d3893b9b0fda0c67df3",
    ),
    ("AP", 50): (
        "75dce27161858204",
        "5f92e6c28f969ed08609639edee4f32e79d2084da8a177dc06d2da112581b6bb",
    ),
    ("UK", 50): (
        "6d8a82a893c7fb49",
        "603609fb74149bf5c4a4bd9bc4e12a78dc576889a96c8203a95aa2125e1d9cb1",
    ),
    ("GE", 50): (
        "449aac09ab92598b",
        "79511a4906a73d5a2c17a2febabe00a64fbc37938f1a4d3ca768c2b17e900ee0",
    ),
    ("LAT", 50): (
        "16b6c06cfc7c0c4e",
        "15b940645c8454e1dbbd18b048263718fa6048042705676f9441a9a79aef746a",
    ),
    ("LON", 50): (
        "ff0cf5a8ce1afd5e",
        "9343bbd8d91c2e5395203ec90e1c3df1e40e3978a81171bdb9290fe623579a79",
    ),
    ("DP", 50): (
        "40b3d0b7a1e55011",
        "31a0fdb6d065307167789e4012eff747df615feb4fd1387932ad682be25faac0",
    ),
    ("CT", 50): (
        "4b009c8204c55b92",
        "47c60b971199a7bc699a8a08835003e1fc8eda9725143d051bee0b67d688dc0c",
    ),
    ("DU", 50): (
        "529e446e2cd155cb",
        "d53ecf81894a6cd7fd631949ee761cb53e4c2ee6044422be0418b4de7d2f8bfe",
    ),
    ("BT", 50): (
        "40d269c6e2a8f30f",
        "68e48680dd3f030fb0e31b6e12c6a1a91c779966a1e5ed9afc5751683269d1d2",
    ),
    ("BW", 50): (
        "1dca3bc7ef1acaa4",
        "dc9cec060354f62b9ca6817ce4c3481e2496a5ad574d8fb4f56ede44aa7e6148",
    ),
    ("BM", 50): (
        "65f154cf7c8391f1",
        "02a1acf4153890132f0d958f58bdd7578239f41a829f8dbd58f10a374b17088f",
    ),
    ("BP", 50): (
        "1c6b9af108ec2ed1",
        "28087fc41a977c990a02056a562bb2b66b3d279dcf6e07b3718141e27879fed4",
    ),
    ("IT", 1024): (
        "59daa63f728a0f21",
        "4f1a3fe684d548225716ea9d967041eabd128ba20782887586fca4aab849d349",
    ),
    ("US", 1024): (
        "dd9a3d9f31419a5a",
        "31ede042717a8e27fc3fbc4f682993a52c7b1e417096b0d5d657a474d11945fb",
    ),
    ("ECG", 1024): (
        "ff3f84d9dd57feec",
        "7113961528628c1689857b7af90e409e552ca4eeb1b46792452f6ed72e203a56",
    ),
    ("WD", 1024): (
        "f8a63e9c3096cec8",
        "62e2c9a7249445f8c3a211a3430078c93306cd5200460e0792767c3c6ec4b7cb",
    ),
    ("AP", 1024): (
        "ce1bae10f55f2188",
        "11778e68acc80b991a68c28a2ab71dcf87555d3e71f01739409284bbdf5fb57c",
    ),
    ("UK", 1024): (
        "89e98c3ed9fc3113",
        "dbb33d5afd028fbeb936b13e3b69776b43d2397ba0661f0c51d79d282c246c3c",
    ),
    ("GE", 1024): (
        "13a0a62babcf5e7c",
        "1b25fea810ec1950931593bb323629dcf215c29b8a016088ab35c232b7db521b",
    ),
    ("LAT", 1024): (
        "5b29840d69ad83bb",
        "3eedd0b3271b7f251a625b591a0aae3113806cd9c018abae6720983605a993f1",
    ),
    ("LON", 1024): (
        "7752059c13e5300f",
        "b115a06d3b3c1625944f7920903fe23dd2a8b2fa671166a6ec001b281550f967",
    ),
    ("DP", 1024): (
        "432de7686280f468",
        "285c8aef465eac229371a8adf3e05de412067e032478b163957394a62427f177",
    ),
    ("CT", 1024): (
        "aefeb86835f8ffef",
        "7bf3491d454358a574f8eba623afd1e4248e6bf621d42ddb46bdcfc0458111d3",
    ),
    ("DU", 1024): (
        "3c0cc69a24d3f5a9",
        "117ec4f20a7a33defeb780b11ce1a195ffa983ad9cf9e3a0b79aeaf6f69a97e0",
    ),
    ("BT", 1024): (
        "148df86847f314ce",
        "d3b2c2c56f44aae5fb3bdc0233ff1483cc6f882661f7216d58ddb1ca6193474e",
    ),
    ("BW", 1024): (
        "f998732b585c7822",
        "c1e03597e4e0635727e7dd9336beac7f520098012a1c149ce9f9b4bba92be0ee",
    ),
    ("BM", 1024): (
        "848602b1e63a19ef",
        "f7b6a11e93210a8dfd9a75385decfc11f5742eae2a6fb670a6a28537f2f47fdf",
    ),
    ("BP", 1024): (
        "c4b4f11a0d0d43b0",
        "0f4954025c222e3089f02ad4371ca0504f7951545e9fc71fb10d89b466455741",
    ),
}


# -- the original DP loop, kept verbatim as the reference ----------------------


def _reference_longest_fragment(pre, start: int) -> FragmentFit:
    fitter = RangeLineFitter()
    add = fitter.add
    t, lo, hi = pre.t, pre.lo, pre.hi
    k = start
    n = pre.n
    while k < n and add(t[k], lo[k], hi[k]):
        k += 1
    if k == start:  # first point rejected: cannot happen post-shift
        raise RuntimeError(
            f"model {pre.model.name!r} cannot start at index {start}"
        )
    m, b = fitter.line()
    return FragmentFit(start, k, pre.model.params_from_line(m, b))


def reference_partition(
    z: np.ndarray,
    models: list[Model | str],
    eps_set: list[float],
    lossy: bool = False,
) -> PartitionResult:
    n = len(z)
    if n == 0:
        return PartitionResult([], 0.0)
    resolved = [get_model(m) if isinstance(m, str) else m for m in models]

    pairs: list[tuple[Model, float, int, int]] = []
    cached: list = []
    for model in resolved:
        kappa = _model_cost_bits(model)
        for eps in eps_set:
            cbits = 0 if lossy else correction_bits(eps)
            pairs.append((model, eps, cbits, kappa))
            cached.append(precompute_transform(model, eps, z))

    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    # previous[v] = (u, pair_index, params): fragment [u, v) via that pair.
    previous: list[tuple[int, int, tuple[float, ...]] | None] = [None] * (n + 1)
    # Current fragment per pair: None or a FragmentFit with start <= k < end.
    current: list[FragmentFit | None] = [None] * len(pairs)

    for k in range(n):
        dk = distance[k]
        for idx, (model, eps, cbits, kappa) in enumerate(pairs):
            frag = current[idx]
            if frag is None or frag.end <= k:
                # A new edge must be opened at k (line 10 of Algorithm 1).
                pre = cached[idx]
                if pre is not None:
                    frag = _reference_longest_fragment(pre, k)
                else:
                    frag = make_approximation(z, k, model, eps)
                current[idx] = frag
            else:
                # Relax the prefix edge (frag.start, k) — lines 12-15.
                i = frag.start
                w = (k - i) * cbits + kappa
                cand = distance[i] + w
                if cand < distance[k]:
                    distance[k] = cand
                    previous[k] = (i, idx, frag.params)
                    dk = cand
        # Relax suffix edges (k, frag.end) — lines 16-20.
        dk = distance[k]
        for idx, (model, eps, cbits, kappa) in enumerate(pairs):
            frag = current[idx]
            j = frag.end
            w = (j - k) * cbits + kappa
            cand = dk + w
            if cand < distance[j]:
                distance[j] = cand
                previous[j] = (k, idx, frag.params)

    # Read the shortest path backwards (lines 21-26).
    fragments: list[Fragment] = []
    v = n
    while v > 0:
        entry = previous[v]
        if entry is None:  # pragma: no cover - the DAG is always connected
            raise RuntimeError(f"no path reaches node {v}")
        u, idx, params = entry
        model, eps, _, _ = pairs[idx]
        fragments.append(Fragment(u, v, model.name, eps, params))
        v = u
    fragments.reverse()
    return PartitionResult(fragments, distance[n])


# -- helpers -------------------------------------------------------------------


def _shifted(y: np.ndarray, eps_set) -> np.ndarray:
    return y.astype(np.float64) + (1 + max(eps_set) - int(y.min()))


def _assert_same(got: PartitionResult, want: PartitionResult) -> None:
    assert got.cost_bits == want.cost_bits
    assert len(got.fragments) == len(want.fragments)
    for a, b in zip(got.fragments, want.fragments):
        # Fragment equality compares the params tuples float by float.
        assert a == b, (a, b)


def _series(name: str, n: int, seed: int = 3) -> np.ndarray:
    return DATASETS[name].generate(n, seed=seed)


# -- golden digests --------------------------------------------------------------


@pytest.mark.parametrize("name,n", sorted(GOLDEN))
def test_payload_matches_golden_digest(name, n):
    y = DATASETS[name].generate(n, seed=GOLDEN_SEED)
    input_digest, payload_digest = GOLDEN[(name, n)]
    assert hashlib.sha256(y.tobytes()).hexdigest()[:16] == input_digest, (
        "the dataset generator's output changed; the payload digest is moot"
    )
    payload = NeaTS(models=IEEE_EXACT_MODELS).compress(y).to_payload()
    assert hashlib.sha256(payload).hexdigest() == payload_digest


def test_golden_covers_every_generator():
    assert sorted(GOLDEN) == sorted((name, n) for name in DATASETS for n in (50, 1024))


# -- in-process comparison against the reference loop -------------------------


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("dataset", ["IT", "ECG", "BT"])
def test_each_model_matches_reference_loop(model, dataset):
    y = _series(dataset, 300)
    eps_set = [float(e) for e in default_eps_set(y, stride=2)]
    z = _shifted(y, eps_set)
    _assert_same(partition(z, [model], eps_set), reference_partition(z, [model], eps_set))


@pytest.mark.parametrize("dataset", ["US", "LON", "DU", "BW"])
def test_all_models_together_match_reference_loop(dataset):
    y = _series(dataset, 400)
    eps_set = [float(e) for e in default_eps_set(y, stride=3)]
    z = _shifted(y, eps_set)
    models = list(ALL_MODELS)
    _assert_same(partition(z, models, eps_set), reference_partition(z, models, eps_set))


@pytest.mark.parametrize("dataset", ["IT", "GE", "BP"])
def test_lossy_partition_matches_reference_loop(dataset):
    y = _series(dataset, 400)
    models = list(ALL_MODELS)
    for eps in (0.0, 3.0, 50.0):
        z = _shifted(y, [eps])
        _assert_same(
            partition_lossy(z, models, eps), reference_partition(z, models, [eps], lossy=True)
        )


def test_walks_and_plateaus_match_reference_loop():
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.integers(-40, 41, 500)).astype(np.int64)
    plateaus = np.repeat(rng.integers(-3, 4, 25), 20).astype(np.int64)
    spiky = rng.integers(-5, 6, 400) + (rng.random(400) < 0.03) * 10**9
    for y in (walk, plateaus, spiky.astype(np.int64), np.zeros(64, dtype=np.int64)):
        eps_set = [float(e) for e in default_eps_set(y)]
        z = _shifted(y, eps_set)
        models = ["linear", "exponential", "quadratic", "radical", "gaussian"]
        _assert_same(partition(z, models, eps_set), reference_partition(z, models, eps_set))


@pytest.mark.parametrize("dataset", ["AP", "CT"])
def test_sneats_matches_reference_loop(dataset, monkeypatch):
    y = _series(dataset, 1000)
    codec = NeaTS.with_model_selection(sample_fraction=0.2, top_k=4)
    got = codec.compress(y)
    monkeypatch.setattr(compressor, "partition", reference_partition)
    want = codec.compress(y)
    assert got.fragments == want.fragments
    assert got.to_payload() == want.to_payload()
