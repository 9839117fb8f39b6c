"""Knob combinations change how bytes move, never what the ML side learns.

Every run must reproduce the rows-plane reference: the same training set
and the same model weights.  Covers the columnar plane on the two pipelines
that write the SQL result to the DFS (``run_naive``, ``run_insql``) and the
transport x columnar x batch_rows product on ``run_insql_stream``.
"""

import itertools

import numpy as np
import pytest

from repro import make_deployment
from repro.workloads import generate_retail

ARGS = {"iterations": 5}


def _train(approach, **knobs):
    deployment = make_deployment(**knobs)
    wl = generate_retail(
        deployment.engine, deployment.dfs, num_users=200, num_carts=2_000, seed=31
    )
    deployment.pipeline.byte_scale = wl.byte_scale
    result = getattr(deployment.pipeline, approach)(
        wl.prep_sql, wl.spec, "svm_with_sgd", ARGS
    ).ml_result
    training_set = sorted(
        (lp.label, tuple(lp.features)) for lp in result.dataset.collect()
    )
    return training_set, result.model.weights


def _assert_same(run, reference):
    assert run[0] == reference[0]
    np.testing.assert_allclose(run[1], reference[1], rtol=1e-12)


@pytest.fixture(scope="module")
def rows_plane():
    """The reference: default knobs, rows plane, per approach."""
    return {
        approach: _train(approach)
        for approach in ("run_naive", "run_insql", "run_insql_stream")
    }


@pytest.mark.parametrize("approach", ["run_naive", "run_insql"])
def test_dfs_pipelines_run_on_the_columnar_plane(approach, rows_plane):
    reference = rows_plane[approach]
    assert len(reference[0]) > 0
    _assert_same(_train(approach, columnar=True), reference)


@pytest.mark.parametrize(
    "transport,columnar,batch_rows",
    list(itertools.product(["memory", "socket"], [False, True], [1, 256])),
)
def test_stream_knob_matrix(transport, columnar, batch_rows, rows_plane):
    run = _train(
        "run_insql_stream",
        transport=transport,
        columnar=columnar,
        batch_rows=batch_rows,
    )
    _assert_same(run, rows_plane["run_insql_stream"])
