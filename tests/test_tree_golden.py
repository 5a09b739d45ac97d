"""Pinned tree fits: the growers may change, the fitted trees may not.

Each case fits one estimator and folds three things into a sha256: the
canonical payload bytes of its ``to_state()`` (the bundle format), its
predictions on held-out rows, and -- where the fit exposes them -- its
``training_predictions_``.  The cases cover both tree flavours (variance
and Newton) under both splitters, with sample weights and ``max_features``,
a subsampled/column-sampled booster, an exact-splitter Huber booster, a
LambdaMART ranker with query groups, and the whole ``RTLTimer`` payload of
the small tier-1 training config.  Any change to split finding, leaf
values, node order or the state layout shows up here.

After an intended change to tree growth, print fresh digests with
``PYTHONPATH=src:. python tests/test_tree_golden.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import RTLTimer
from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    HuberObjective,
    LambdaMARTRanker,
    NewtonTreeRegressor,
)
from repro.serve.registry import state_payload

#: sha256 per estimator case (see :func:`_cases`).
ESTIMATOR_DIGESTS = {
    "gbm-huber-exact": "216b8eb9df86523480e6169b06c0e5b6c85fe735e506eeadc889c1332692e881",
    "gbm-subsample-colsample": "c188bcc9d4c6acf0ccdf7d2b3ee4590ece1de6b0a5425c7f876ce956e3d4f516",
    "lambdamart-groups": "af95e79e4c9354fac715b848b15992ecda8d8d0343996109964639584a873704",
    "newton-exact": "845f63c37a67704f3446dfa4f319d2ecf754491d8be2b0a91ebed8b205356a06",
    "newton-fit-exact": "0d4df81473beb11341089e7733bbf2a954bccf7bb5a10057bf577d78da61b069",
    "newton-fit-hist": "cc3232513a99c1412b61d58e287a0a5fcd69e060f0c553758918af739bc031e3",
    "newton-hist": "8e632b4b03c2d03375a297d6b886c9c82379e1f9d708fd9a53aa701bbe416d67",
    "variance-exact": "ad7341ab9ecff538eb5db51b867a1551618dcc567ad102087e96661e069d1e9b",
    "variance-hist": "c43bbc8791f2a236a2cd9f5d153b1601fd6e610f35582099dc0dbbc06a1e7e4b",
}
#: sha256 of ``state_payload(RTLTimer(TINY_TIMER_CONFIG).fit(tiny_records[:4]).to_state())``.
TIMER_DIGEST = "ec79cdf73fb084e996e9dd2466e43eedba168f04f16065e41109a3dc9183254c"


def _data():
    """Mixed data: tied integer columns, continuous columns, >256 distinct values."""
    rng = np.random.default_rng(2024)
    rows = 420
    X = np.column_stack(
        [
            rng.integers(0, 12, size=rows).astype(float),
            rng.normal(size=rows),
            rng.integers(0, 40, size=rows).astype(float),
            rng.uniform(-2.0, 2.0, size=rows),
            np.full(rows, 1.5),
        ]
    )
    y = 1.5 * X[:, 0] - 2.0 * X[:, 1] + np.sin(X[:, 3]) + 0.3 * rng.normal(size=rows)
    weights = rng.uniform(0.2, 3.0, size=rows)
    grad = 0.5 * y - rng.normal(size=rows)
    hess = rng.uniform(0.5, 2.0, size=rows)
    fresh = rng.normal(size=(150, X.shape[1])) * 4.0
    return X, y, weights, grad, hess, fresh


def _cases():
    X, y, weights, grad, hess, fresh = _data()
    relevance = (X[:, 0] > 5).astype(int) + (X[:, 1] > 0.3).astype(int)
    queries = np.arange(len(y)) // 35
    builds = {}
    for splitter in ("hist", "exact"):
        builds[f"variance-{splitter}"] = lambda s=splitter: DecisionTreeRegressor(
            splitter=s, max_depth=7, min_samples_leaf=2, max_features=0.6, seed=5
        ).fit(X, y, sample_weight=weights)
        builds[f"newton-{splitter}"] = lambda s=splitter: NewtonTreeRegressor(
            splitter=s, max_depth=6, max_features=0.8, reg_lambda=0.5, seed=9
        ).fit_gradients(X, grad, hess)
        builds[f"newton-fit-{splitter}"] = lambda s=splitter: NewtonTreeRegressor(
            splitter=s, max_depth=5, seed=1
        ).fit(X, y)
    builds["gbm-subsample-colsample"] = lambda: GradientBoostingRegressor(
        n_estimators=15, max_depth=4, subsample=0.8, colsample=0.7, seed=4
    ).fit(X, y)
    builds["gbm-huber-exact"] = lambda: GradientBoostingRegressor(
        n_estimators=10, max_depth=4, splitter="exact", objective=HuberObjective(0.8)
    ).fit(X, y)
    builds["lambdamart-groups"] = lambda: LambdaMARTRanker(
        n_estimators=10, max_depth=4, seed=2
    ).fit(X, relevance, queries)
    return builds, fresh


def _digest(model, fresh) -> str:
    digest = hashlib.sha256(state_payload(model.to_state()))
    digest.update(np.ascontiguousarray(model.predict(fresh), dtype=np.float64).tobytes())
    training = getattr(model, "training_predictions_", None)
    if training is not None and getattr(model, "splitter", "hist") == "hist":
        digest.update(np.ascontiguousarray(training, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _timer_digest(records) -> str:
    from tests.test_registry import TINY_TIMER_CONFIG

    timer = RTLTimer(TINY_TIMER_CONFIG).fit(records[:4])
    return hashlib.sha256(state_payload(timer.to_state())).hexdigest()


@pytest.mark.parametrize("case", sorted(ESTIMATOR_DIGESTS))
def test_estimator_fit_is_pinned(case):
    builds, fresh = _cases()
    assert _digest(builds[case](), fresh) == ESTIMATOR_DIGESTS[case]


def test_timer_payload_is_pinned(tiny_records):
    assert _timer_digest(tiny_records) == TIMER_DIGEST


if __name__ == "__main__":
    from repro.core.dataset import DatasetConfig, build_design_record
    from tests.conftest import TINY_SPECS

    builds, fresh = _cases()
    for name in sorted(builds):
        print(f'    "{name}": "{_digest(builds[name](), fresh)}",')
    records = [build_design_record(spec, DatasetConfig()) for spec in TINY_SPECS]
    print(f'TIMER_DIGEST = "{_timer_digest(records)}"')
