"""Core types: time conversion, traces, service model, rng streams."""
import numpy as np
import pytest

from floodsim import ConfigError, RngStream, ServiceTimeModel, to_ns, to_seconds
from floodsim.model import NS_PER_S, PacketClass, Regime, Trace, substream


def test_to_ns_scalar_is_python_int():
    v = to_ns(0.1)
    assert v == 100_000_000
    assert isinstance(v, int)


def test_to_ns_rounds_to_nearest():
    assert to_ns(1e-9) == 1
    assert to_ns(1.4e-9) == 1
    assert to_ns(1.6e-9) == 2


def test_to_ns_array():
    out = to_ns([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(out, [0, 500_000_000, NS_PER_S])
    assert out.dtype == np.int64


def test_to_ns_rejects_non_finite():
    with pytest.raises(ValueError):
        to_ns(float("nan"))
    with pytest.raises(ValueError):
        to_ns([1.0, float("inf")])


def test_to_seconds_round_trip():
    assert to_seconds(to_ns(2.5)) == 2.5
    np.testing.assert_allclose(to_seconds(np.array([1, NS_PER_S])), [1e-9, 1.0])


def test_trace_counts():
    tr = Trace([10, 1_500_000_000], [PacketClass.BENIGN, PacketClass.ATTACK], [1, 0])
    assert tr.arrival_ns.dtype == np.int64
    assert len(tr) == 2
    assert tr.attack_count() == 1


def test_trace_validate_ordering():
    tr = Trace(np.array([5, 3]), np.zeros(2, np.uint8), np.zeros(2, np.int32))
    with pytest.raises(ValueError, match="sorted"):
        tr.validate()


def test_trace_validate_class_values():
    tr = Trace(np.array([1, 2]), np.array([0, 7], np.uint8), np.zeros(2, np.int32))
    with pytest.raises(ValueError, match="class"):
        tr.validate()


def test_trace_validate_negative_arrival():
    tr = Trace(np.array([-1, 2]), np.zeros(2, np.uint8), np.zeros(2, np.int32))
    with pytest.raises(ValueError):
        tr.validate()


def test_trace_mismatched_arrays():
    with pytest.raises(ValueError):
        Trace(np.array([1]), np.zeros(2, np.uint8), np.zeros(2, np.int32))


def test_trace_empty():
    tr = Trace.empty()
    assert len(tr) == 0
    tr.validate()


def test_service_model_validation():
    with pytest.raises(ConfigError):
        ServiceTimeModel(mean_normal_s=0.0)
    with pytest.raises(ConfigError):
        ServiceTimeModel(var_attack_s2=-1.0)
    with pytest.raises(ConfigError):
        ServiceTimeModel(outlier_prob=1.5)
    with pytest.raises(ConfigError):
        ServiceTimeModel(outlier_scale=0.0)
    with pytest.raises(ConfigError):
        ServiceTimeModel(ceiling_s=0.0)


def test_service_model_regime_stats():
    # z = 0 draws the regime's mean, z = 1 one standard deviation above it,
    # and a deep negative z the floor at a hundredth of the regime's mean
    m = ServiceTimeModel(mean_normal_s=2e-3, var_normal_s2=4e-6, mean_attack_s=5e-3,
                         var_attack_s2=9e-6, outlier_prob=0.0)
    z, u = np.array([0.0, 1.0, -1e6]), np.ones(3)
    np.testing.assert_array_equal(m.draw_ns(Regime.NORMAL, z, u), to_ns([2e-3, 4e-3, 2e-5]))
    np.testing.assert_array_equal(m.draw_ns(Regime.ATTACK, z, u), to_ns([5e-3, 8e-3, 5e-5]))


def draws(seed, n):
    """n standard normals and n uniforms, as simulate_server pre-draws them."""
    g = RngStream(seed, 9).generator
    return g.standard_normal(n), g.random(n)


def test_sampling_zero_variance_is_exact():
    m = ServiceTimeModel(var_normal_s2=0.0)
    out = m.draw_ns(Regime.NORMAL, *draws(1, 5))
    np.testing.assert_array_equal(out, np.full(5, to_ns(m.mean_normal_s)))
    assert out.dtype == np.int64


def test_sampling_floor():
    # enormous variance: raw normals go deeply negative, floor must hold
    m = ServiceTimeModel(mean_normal_s=1e-3, var_normal_s2=1.0)
    out = m.draw_ns(Regime.NORMAL, *draws(2, 2000))
    assert out.min() >= to_ns(1e-5)


def test_sampling_ceiling_clips_after_outliers():
    m = ServiceTimeModel(outlier_prob=1.0, outlier_scale=1e3, ceiling_s=3.1e-3)
    out = m.draw_ns(Regime.ATTACK, *draws(3, 2000))
    assert out.max() <= to_ns(3.1e-3)


def test_outliers_only_in_attack_regime():
    m = ServiceTimeModel(outlier_prob=1.0, outlier_scale=10.0, var_normal_s2=0.0,
                         var_attack_s2=0.0)
    normal = m.draw_ns(Regime.NORMAL, *draws(4, 100))
    attack = m.draw_ns(Regime.ATTACK, *draws(4, 100))
    np.testing.assert_array_equal(normal, np.full(100, to_ns(m.mean_normal_s)))
    np.testing.assert_array_equal(attack, np.full(100, to_ns(m.mean_attack_s * 10)))


def test_outliers_follow_the_uniforms():
    m = ServiceTimeModel(outlier_prob=0.5, outlier_scale=10.0, var_attack_s2=0.0)
    out = m.draw_ns(Regime.ATTACK, np.zeros(4), np.array([0.1, 0.6, 0.49, 0.5]))
    base = to_ns(m.mean_attack_s)
    np.testing.assert_array_equal(out, [10 * base, base, 10 * base, base])


def test_rng_stream_reproducible():
    a = RngStream(7, 3).generator.random(10)
    b = RngStream(7, 3).generator.random(10)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ():
    a = RngStream(7, 3).generator.random(10)
    b = RngStream(7, 4).generator.random(10)
    c = RngStream(8, 3).generator.random(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_arithmetic():
    s = substream(RngStream(5, 3), 7)
    assert (s.seed, s.stream_id) == (5, 3 * 1009 + 7)
