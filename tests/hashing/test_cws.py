"""Unit + property + statistical tests for the CWS family."""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    CCWS,
    ICWS,
    LICWS,
    PCWS,
    SAMPLER_NAMES,
    cws_collision_similarity,
    generalized_jaccard,
    make_sampler,
)

ALL_SAMPLERS = [ICWS, CCWS, PCWS, LICWS]


class TestGeneralizedJaccard:
    def test_identical(self):
        a = np.array([0.5, 1.0, 0.0])
        assert generalized_jaccard(a, a) == 1.0

    def test_disjoint_support(self):
        assert generalized_jaccard(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_known_value(self):
        a = np.array([2.0, 0.0])
        b = np.array([1.0, 1.0])
        assert generalized_jaccard(a, b) == pytest.approx(1.0 / 3.0)

    def test_both_zero(self):
        assert generalized_jaccard(np.zeros(3), np.zeros(3)) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            generalized_jaccard(np.array([-1.0]), np.array([1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            generalized_jaccard(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            generalized_jaccard(np.array([bad, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            generalized_jaccard(np.array([1.0, 1.0]), np.array([1.0, bad]))

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        n = min(len(a), len(b))
        left, right = np.array(a[:n]), np.array(b[:n])
        sim = generalized_jaccard(left, right)
        assert 0.0 <= sim <= 1.0
        assert sim == pytest.approx(generalized_jaccard(right, left))


@pytest.mark.parametrize("sampler_cls", ALL_SAMPLERS)
class TestCWSCommon:
    def test_signature_shapes(self, sampler_cls):
        sampler = sampler_cls(d=16, seed=0)
        elements, quantiles = sampler.signature(np.random.default_rng(0).uniform(size=40))
        assert elements.shape == (16,) and quantiles.shape == (16,)

    def test_elements_are_valid_indices(self, sampler_cls):
        weights = np.random.default_rng(1).uniform(size=30)
        elements, _ = sampler_cls(d=32, seed=0).signature(weights)
        assert elements.min() >= 0 and elements.max() < 30

    def test_deterministic(self, sampler_cls):
        weights = np.random.default_rng(2).uniform(size=50)
        a = sampler_cls(d=8, seed=3).signature(weights)
        b = sampler_cls(d=8, seed=3).signature(weights)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_scale_consistency_of_selected_elements(self, sampler_cls):
        # CWS consistency property: argmin selection only depends on
        # relative weights for ICWS-style log samplers; for all variants,
        # identical input must give identical output (trivially), and a
        # tiny perturbation should change few slots.
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.2, 1.0, size=100)
        sampler = sampler_cls(d=256, seed=0)
        base, _ = sampler.signature(weights)
        perturbed, _ = sampler.signature(weights * 1.001)
        assert np.mean(base == perturbed) > 0.9

    def test_zero_weights_never_selected(self, sampler_cls):
        weights = np.array([0.0, 0.5, 0.0, 0.8, 0.0])
        elements, _ = sampler_cls(d=64, seed=0).signature(weights)
        assert set(elements.tolist()) <= {1, 3}

    def test_all_zero_column_defined(self, sampler_cls):
        elements, quantiles = sampler_cls(d=8, seed=0).signature(np.zeros(10))
        np.testing.assert_array_equal(elements, 0)

    def test_empty_rejected(self, sampler_cls):
        with pytest.raises(ValueError):
            sampler_cls(d=8, seed=0).signature(np.array([]))

    def test_negative_rejected(self, sampler_cls):
        with pytest.raises(ValueError):
            sampler_cls(d=8, seed=0).signature(np.array([-0.5, 1.0]))

    def test_nan_inf_sanitized(self, sampler_cls):
        weights = np.array([np.nan, np.inf, 0.5, 0.7])
        elements, _ = sampler_cls(d=16, seed=0).signature(weights)
        assert set(elements.tolist()) <= {2, 3}

    def test_compress_returns_weights(self, sampler_cls):
        weights = np.random.default_rng(5).uniform(size=30)
        compressed = sampler_cls(d=12, seed=0).compress(weights)
        assert compressed.shape == (12,)
        assert all(value in weights for value in compressed)

    def test_invalid_dimension(self, sampler_cls):
        with pytest.raises(ValueError):
            sampler_cls(d=0)

    @pytest.mark.parametrize("d", [4.5, 8.0, True, "8", None])
    def test_non_integer_dimension_rejected(self, sampler_cls, d):
        with pytest.raises(ValueError, match="integer"):
            sampler_cls(d=d)

    def test_numpy_integer_dimension_accepted(self, sampler_cls):
        elements, _ = sampler_cls(d=np.int64(8), seed=0).signature(np.ones(5))
        assert elements.shape == (8,)

    def test_similar_vectors_collide_more(self, sampler_cls):
        rng = np.random.default_rng(6)
        base = rng.uniform(size=200)
        near = np.clip(base + rng.normal(0, 0.02, 200), 0, None)
        far = rng.permutation(base)  # same values, destroyed alignment
        sampler = sampler_cls(d=512, seed=0)
        sim_near = np.mean(sampler.signature(base)[0] == sampler.signature(near)[0])
        sim_far = np.mean(sampler.signature(base)[0] == sampler.signature(far)[0])
        assert sim_near > sim_far


def _interleaved_columns():
    """Columns of lengths 5, 1001, 1001, 333, 1001, then an all-zero
    column and one with NaN and +-inf, all hashed by one instance."""
    rng = np.random.default_rng(20230417)
    columns = [rng.uniform(size=n) for n in (5, 1001, 1001, 333, 1001)]
    columns.append(np.zeros(1001))
    special = rng.uniform(size=1001)
    special[[3, 500]] = np.nan
    special[[7, 900]] = np.inf
    special[11] = -np.inf
    columns.append(special)
    return columns


#: SHA-256 of every column's (elements, quantiles) bytes and of every
#: column's compress() bytes, recorded with the samplers that drew their
#: random fields afresh on each call.
PINNED_DIGESTS = {
    ICWS: (
        "1e72d6b792e3422be07e018a5b54c76c85038213db0ebe7b97316db389415838",
        "8c24782a236bb4a652eb4304e8ba6d3b7a946c341780ae0a94c9a24ed176171b",
    ),
    CCWS: (
        "5b79b56702273caaf9ece79ec6a8473c3cb2b7e75077d5b69beac37235505e26",
        "dc540c9c8a3c0726f891fdac7ceb5affb1ce328fdf918d85e3494d4a0ddc7fa7",
    ),
    PCWS: (
        "1a9d1f68ca46dd89e9ce6839d8c4cadad3e9dbc63008b83b8087bbf4be44e514",
        "054ad4b7c78e3af4e9e29a3c09f385c51c0c83dd718d1fd3cd5ea85aaa1a51da",
    ),
    LICWS: (
        "533a358344e349a8cda5d54a816f5bcbce99374016818ccca6495552567f204e",
        "8c24782a236bb4a652eb4304e8ba6d3b7a946c341780ae0a94c9a24ed176171b",
    ),
}


def _count_field_draws(monkeypatch, sampler_cls):
    calls = []
    draw = sampler_cls._random_fields

    def counting(self, n_elements):
        calls.append(n_elements)
        return draw(self, n_elements)

    monkeypatch.setattr(sampler_cls, "_random_fields", counting)
    return calls


def _retained_arrays(sampler):
    """Every ndarray the sampler's instance state keeps alive."""
    found, stack = [], list(vars(sampler).values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return found


@pytest.mark.parametrize("sampler_cls", ALL_SAMPLERS)
class TestFieldCache:
    def test_signatures_bit_identical_to_pinned_digest(self, sampler_cls):
        sampler = sampler_cls(d=48, seed=7)
        signatures, compressed = hashlib.sha256(), hashlib.sha256()
        for column in _interleaved_columns():
            elements, quantiles = sampler.signature(column)
            signatures.update(elements.tobytes())
            signatures.update(quantiles.tobytes())
            compressed.update(sampler.compress(column).tobytes())
        assert (signatures.hexdigest(), compressed.hexdigest()) == (
            PINNED_DIGESTS[sampler_cls]
        )

    def test_reused_instance_equals_fresh_instance(self, sampler_cls):
        reused = sampler_cls(d=48, seed=7)
        for column in _interleaved_columns():
            got = reused.signature(column)
            want = sampler_cls(d=48, seed=7).signature(column)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_fields_drawn_once_per_column_length(self, sampler_cls, monkeypatch):
        calls = _count_field_draws(monkeypatch, sampler_cls)
        sampler = sampler_cls(d=16, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(4):
            sampler.signature(rng.uniform(size=50))
        assert calls == [50]
        for _ in range(3):
            sampler.compress(rng.uniform(size=20))
        assert calls == [50, 20]
        sampler.signature(rng.uniform(size=50))
        assert calls == [50, 20, 50]

    def test_only_last_length_retained(self, sampler_cls):
        sampler = sampler_cls(d=16, seed=0)
        rng = np.random.default_rng(0)
        for n in (50, 20, 70):
            sampler.signature(rng.uniform(size=n))
        retained = _retained_arrays(sampler)
        assert len(retained) == 3
        assert {array.shape for array in retained} == {(16, 70)}
        assert not any(array.flags.writeable for array in retained)

    def test_copies_carry_no_fields(self, sampler_cls):
        fresh = sampler_cls(d=48, seed=7)
        used = sampler_cls(d=48, seed=7)
        column = np.random.default_rng(0).uniform(size=1001)
        want = used.signature(column)
        assert _retained_arrays(used)
        assert len(pickle.dumps(used)) == len(pickle.dumps(fresh))
        for twin in (copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert _retained_arrays(twin) == []
            got = twin.signature(column)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestICWSUnbiasedness:
    """ICWS's defining property: collision probability = gen. Jaccard."""

    def test_estimator_matches_truth(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=150)
        b = np.clip(a + rng.normal(0, 0.15, 150), 0, None)
        truth = generalized_jaccard(a, b)
        sampler = ICWS(d=4096, seed=1)
        estimate = cws_collision_similarity(sampler.signature(a), sampler.signature(b))
        assert abs(estimate - truth) < 0.03

    def test_collision_similarity_shape_mismatch(self):
        with pytest.raises(ValueError):
            cws_collision_similarity(
                (np.zeros(3), np.zeros(3)), (np.zeros(4), np.zeros(4))
            )


class TestLICWSZeroBit:
    def test_quantiles_all_zero(self):
        weights = np.random.default_rng(0).uniform(size=40)
        _, quantiles = LICWS(d=32, seed=0).signature(weights)
        np.testing.assert_array_equal(quantiles, 0)

    def test_elements_match_icws(self):
        # 0-bit CWS selects the same elements as ICWS with the same seed.
        weights = np.random.default_rng(1).uniform(size=40)
        icws_elements, _ = ICWS(d=64, seed=7).signature(weights)
        licws_elements, _ = LICWS(d=64, seed=7).signature(weights)
        np.testing.assert_array_equal(icws_elements, licws_elements)


class TestFactory:
    def test_all_names_construct(self):
        for name in SAMPLER_NAMES:
            sampler = make_sampler(name, d=4, seed=0)
            assert sampler.name == name

    def test_case_insensitive(self):
        assert make_sampler("CCWS").name == "ccws"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler("superhash")
