"""Per-packet label channel and window majority decisions."""
import numpy as np
import pytest

from floodsim import ConfigError, RngStream, detector
from floodsim.detector import DetectorModel, classify_stream
from floodsim.model import PacketClass
from oracles import reference_classify_stream, strict_majority_prob, window_decision


def test_model_validation():
    with pytest.raises(ConfigError):
        DetectorModel(tpr=1.2)
    with pytest.raises(ConfigError):
        DetectorModel(tnr=-0.1)
    with pytest.raises(ConfigError):
        DetectorModel(window=0)


KLASS = np.array([PacketClass.ATTACK, PacketClass.BENIGN] * 50, np.uint8)


def test_perfect_detector_is_identity():
    model = DetectorModel(tpr=1.0, tnr=1.0)
    np.testing.assert_array_equal(classify_stream(KLASS, model, RngStream(1, 0)), KLASS)


def test_inverted_detector():
    model = DetectorModel(tpr=0.0, tnr=0.0)
    np.testing.assert_array_equal(classify_stream(KLASS, model, RngStream(2, 0)), 1 - KLASS)


def test_stream_label_rates():
    model = DetectorModel()
    n = 1_000_000
    attack = classify_stream(np.ones(n, np.uint8), model, RngStream(3, 0))
    benign = classify_stream(np.zeros(n, np.uint8), model, RngStream(4, 0))
    assert abs(attack.mean() - model.tpr) < 1e-3
    assert abs((1 - benign.mean()) - model.tnr) < 1e-3


def test_stream_label_depends_only_on_position():
    # one uniform per packet: flipping one class leaves other labels alone
    model = DetectorModel()
    k1 = np.zeros(1000, np.uint8)
    k2 = k1.copy()
    k2[0] = 1
    l1 = classify_stream(k1, model, RngStream(5, 0))
    l2 = classify_stream(k2, model, RngStream(5, 0))
    np.testing.assert_array_equal(l1[1:], l2[1:])


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("blocks", [1, 2, 5])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_blockwise_labels_match_one_draw(monkeypatch, block, blocks, edge):
    # the labels and the stream left behind equal one draw of every uniform,
    # at lengths one short of, equal to and one past a whole number of blocks
    monkeypatch.setattr(detector, "BLOCK", block)
    n = blocks * block + edge
    klass = RngStream(8, n).generator.integers(0, 2, n).astype(np.uint8)
    model = DetectorModel(tpr=0.6, tnr=0.3)
    got_rng, want_rng = RngStream(9, n), RngStream(9, n)
    got = classify_stream(klass, model, got_rng)
    want = reference_classify_stream(klass, model, want_rng)
    np.testing.assert_array_equal(got, want, strict=True)
    assert got_rng.generator.random() == want_rng.generator.random()


def test_strict_majority():
    assert window_decision([1] * 5 + [0] * 4)          # 5 of 9
    assert not window_decision([1] * 5 + [0] * 5)      # tie of 10 stays quiet
    assert not window_decision([0] * 8)
    assert window_decision([1])
    assert not window_decision([0])


def test_window_decision_permutation_invariant():
    rng = np.random.default_rng(6)
    for _ in range(30):
        labels = rng.integers(0, 2, int(rng.integers(1, 25)))
        want = window_decision(labels)
        for _ in range(5):
            assert window_decision(rng.permutation(labels)) == want


def test_window_decision_validation():
    with pytest.raises(ValueError):
        window_decision([])
    with pytest.raises(ValueError):
        window_decision([1, 0], expected_len=3)
    assert window_decision([1, 1, 0], expected_len=3)


def test_detection_power_on_pure_attack_windows():
    model = DetectorModel()  # window 9
    wins = 100_000
    labels = classify_stream(np.ones(wins * 9, np.uint8), model, RngStream(7, 0))
    votes = labels.reshape(wins, 9).sum(axis=1)
    freq = float((2 * votes > 9).mean())
    assert freq > 0.9999
    # exact binomial tail agrees the miss rate is negligible
    assert strict_majority_prob(9, model.tpr) > 0.9999
