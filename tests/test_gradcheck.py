import numpy as np
import pytest

import strandseg.gradcheck as gc
from strandseg.gradcheck import (DEFAULT_STEP, _hinge_margins_ok,
                                 check_discriminative, make_fixture, rel_err,
                                 run_suite)
from strandseg.network import LossConfig


def test_rel_err_floors_denominator():
    # small absolute disagreements near zero are judged absolutely
    assert rel_err(0.0, 5e-5) == 5e-5
    assert rel_err(2.0, 2.0002) == pytest.approx(1e-4, rel=1e-3)
    assert rel_err(2000.0, 2000.2) == pytest.approx(1e-4, rel=1e-3)


def test_hinge_margin_screen():
    cfg = LossConfig()  # delta_v = 0.5
    # two points 0.5 from their mean: exactly on the variance hinge
    on_kink = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    ids = np.array([1, 1])
    assert not _hinge_margins_ok(on_kink, ids, cfg, margin=5e-3)
    clear = np.array([[0.0, 0, 0], [0.2, 0, 0]])
    assert _hinge_margins_ok(clear, ids, cfg, margin=5e-3)


@pytest.mark.parametrize("vectors, ids, ok", [
    # singleton means exactly delta_d = 3 apart: on the distance hinge
    ([[0.0, 0, 0], [3.0, 0, 0]], [1, 2], False),
    # coincident means, each member 0.1 from its mean
    ([[0.0, 0, 0], [0.2, 0, 0], [0.1, 0, 0]], [1, 1, 2], False),
    # two clear clusters; a mean's zero distance to itself is no pair
    ([[0.0, 0, 0], [0.2, 0, 0], [10.0, 0, 0], [10.2, 0, 0]], [1, 1, 2, 2], True),
], ids=["means-delta_d-apart", "coincident-means", "clear-clusters"])
def test_hinge_margin_screen_two_clusters(vectors, ids, ok):
    assert _hinge_margins_ok(np.array(vectors), np.array(ids), LossConfig(), margin=5e-3) is ok


def test_make_fixture_properties():
    params, image, labels = make_fixture(0)
    assert image.shape == (16, 16)
    assert labels.shape == (8, 8)
    present = set(np.unique(labels)) - {0}
    assert len(present) in (2, 3)
    assert make_fixture(0)[1].tobytes() == image.tobytes()  # deterministic


def test_check_discriminative_seeds():
    for seed in range(3):
        assert check_discriminative(seed) <= 1e-4


def test_run_suite_single_fixture():
    report = run_suite(seed=0, fixtures=1)
    assert report["passed"] is True
    assert report["fixtures"] == 1
    assert report["max_rel_err_disc"] <= 1e-4
    assert report["max_rel_err_total"] <= 1e-4
    assert report["step"] == DEFAULT_STEP


def _recording_loss(arrays, moves):
    """A loss stub that appends (flat index, signed move) of the one entry of
    `arrays` that differs from its value at the first call, and returns 0."""
    start = np.concatenate([a.reshape(-1) for a in arrays])

    def loss():
        now = np.concatenate([a.reshape(-1) for a in arrays])
        (moved,) = np.flatnonzero(now != start)  # exactly one entry moved
        moves.append((int(moved), float(now[moved] - start[moved])))
        return 0.0

    return start, loss


def _assert_up_down_each(moves, n_entries):
    assert [i for i, _ in moves] == [i for i in range(n_entries) for _ in (0, 1)]
    assert [d > 0 for _, d in moves] == [True, False] * n_entries
    assert np.allclose([abs(d) for _, d in moves], DEFAULT_STEP, rtol=1e-6, atol=0)


def test_check_total_moves_every_parameter_entry_up_then_down(monkeypatch):
    params, image, labels = make_fixture(0)
    arrays = [params[name] for name in gc.PARAM_ORDER]
    moves = []
    start, loss = _recording_loss(arrays, moves)
    monkeypatch.setattr(gc, "total_loss", lambda *args: (loss(), {}))
    gc.check_total(params, image, labels)
    _assert_up_down_each(moves, 4868)
    assert np.array_equal(np.concatenate([a.reshape(-1) for a in arrays]), start)


def test_check_discriminative_moves_every_field_entry_up_then_down(monkeypatch):
    moves, stub = [], {}

    def discriminative_loss(emb, labels, cfg):
        if "loss" not in stub:  # the analytic call comes first
            stub["field"] = emb
            stub["start"], stub["loss"] = _recording_loss([emb], moves)
            return 0.0, np.zeros_like(emb)
        assert emb is stub["field"]
        return stub["loss"](), None

    monkeypatch.setattr(gc, "discriminative_loss", discriminative_loss)
    gc.check_discriminative(0)
    _assert_up_down_each(moves, 120)
    assert np.array_equal(stub["field"].reshape(-1), stub["start"])
