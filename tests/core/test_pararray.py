"""Tests for repro.core.pararray."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pararray import ParArray, normalize_index
from repro.errors import ConfigurationError


class TestConstruction:
    def test_from_sequence_1d(self):
        pa = ParArray([10, 20, 30])
        assert pa.shape == (3,)
        assert pa.to_list() == [10, 20, 30]

    def test_from_range(self):
        assert ParArray(range(4)).to_list() == [0, 1, 2, 3]

    def test_from_nested_list_2d(self):
        pa = ParArray([[1, 2, 3], [4, 5, 6]], shape=(2, 3))
        assert pa[(1, 2)] == 6
        assert pa.to_nested_list() == [[1, 2, 3], [4, 5, 6]]

    def test_from_mapping(self):
        pa = ParArray({(0, 0): "a", (0, 1): "b"}, shape=(1, 2))
        assert pa[(0, 1)] == "b"

    def test_mapping_requires_shape(self):
        with pytest.raises(ConfigurationError, match="shape"):
            ParArray({0: "a"})

    def test_mapping_with_int_keys_normalized(self):
        pa = ParArray({0: "a", 1: "b"}, shape=(2,))
        assert pa[0] == "a"

    def test_copy_constructor_shares_data(self):
        pa = ParArray([1, 2])
        pb = ParArray(pa)
        assert pb == pa and pb.dist == pa.dist

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ParArray([[1, 2], [3]], shape=(2, 2))

    def test_missing_indices_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ParArray({(0,): 1}, shape=(2,))

    def test_extra_indices_rejected(self):
        with pytest.raises(ConfigurationError, match="extra"):
            ParArray({(0,): 1, (1,): 2, (2,): 3}, shape=(2,))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            ParArray([1], shape=(0,))

    def test_3d_sequence_rejected(self):
        with pytest.raises(ConfigurationError):
            ParArray([1], shape=(1, 1, 1))


class TestConstructionMessages:
    """Every construction error, word for word, and row-major order
    however the elements were supplied."""

    @pytest.mark.parametrize("build, message", [
        (lambda: ParArray([]), "invalid ParArray shape (0,)"),
        (lambda: ParArray([], shape=()),
         "sequence construction supports 1-D/2-D shapes, got ()"),
        (lambda: ParArray({}, shape=()),
         "indices do not cover shape (): missing [()], extra []"),
        (lambda: ParArray([1, 2], shape=(3,)),
         "indices do not cover shape (3,): missing [(2,)], extra []"),
        (lambda: ParArray([1, 2, 3, 4], shape=(3,)),
         "indices do not cover shape (3,): missing [], extra [(3,)]"),
        (lambda: ParArray([1, 2], shape=(2.0,)),
         "invalid ParArray shape (2.0,)"),
        (lambda: ParArray([], shape=(-1,)), "invalid ParArray shape (-1,)"),
        (lambda: ParArray([], shape=(0, 3)), "invalid ParArray shape (0, 3)"),
        (lambda: ParArray([[1, 2], [3]], shape=(2, 2)),
         "nested list does not match shape (2, 2)"),
        (lambda: ParArray([1], shape=(1, 1, 1)),
         "sequence construction supports 1-D/2-D shapes, got (1, 1, 1)"),
        (lambda: ParArray({0: 1}),
         "mapping construction requires an explicit shape"),
        (lambda: ParArray({(0,): 1}, shape=(3,)),
         "indices do not cover shape (3,): missing [(1,), (2,)], extra []"),
        (lambda: ParArray({(0,): 1, (1,): 2, (5,): 3, (7,): 1}, shape=(2,)),
         "indices do not cover shape (2,): missing [], extra [(5,), (7,)]"),
        (lambda: ParArray({(0, 0): 1, (1, 1): 2}, shape=(2, 2)),
         "indices do not cover shape (2, 2): missing [(0, 1), (1, 0)], "
         "extra []"),
        (lambda: ParArray({"a": 1}, shape=(1,)),
         "invalid ParArray index 'a'"),
        (lambda: ParArray({(): 5}, shape=()), "invalid ParArray shape ()"),
    ])
    def test_error_messages_are_exact(self, build, message):
        with pytest.raises(ConfigurationError) as err:
            build()
        assert str(err.value) == message

    def test_mapping_in_any_order_iterates_row_major(self):
        pa = ParArray({(i, j): 10 * i + j for j in range(3) for i in range(2)},
                      shape=(2, 3))
        assert pa.to_list() == [0, 1, 2, 10, 11, 12]
        assert list(pa.indices()) == [(0, 0), (0, 1), (0, 2),
                                      (1, 0), (1, 1), (1, 2)]

    def test_three_dimensional_mapping_is_row_major(self):
        pa = ParArray({(i, j, k): 100 * i + 10 * j + k
                       for k in range(2) for j in range(2) for i in range(2)},
                      shape=(2, 2, 2))
        assert list(pa) == [0, 1, 10, 11, 100, 101, 110, 111]


class TestAccess:
    def test_int_and_tuple_index_equivalent(self):
        pa = ParArray([5, 6, 7])
        assert pa[1] == pa[(1,)] == 6

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            ParArray([1, 2])[5]

    def test_bad_index_type_raises(self):
        with pytest.raises(ConfigurationError):
            ParArray([1, 2])["x"]

    def test_len_is_leading_dim(self):
        assert len(ParArray([[1], [2], [3]], shape=(3, 1))) == 3

    def test_size_is_total(self):
        assert ParArray([[1, 2], [3, 4]], shape=(2, 2)).size == 4

    def test_iteration_row_major(self):
        pa = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        assert list(pa) == [1, 2, 3, 4]

    def test_indices_row_major(self):
        pa = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        assert list(pa.indices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_contains(self):
        assert 2 in ParArray([1, 2, 3])
        assert 9 not in ParArray([1, 2, 3])

    def test_to_nested_list_on_1d(self):
        assert ParArray([1, 2]).to_nested_list() == [1, 2]


class TestImmutability:
    def test_with_items_builds_new_array(self):
        pa = ParArray([1, 2, 3])
        pb = pa.with_items(lambda idx, v: v * 10)
        assert pb.to_list() == [10, 20, 30]
        assert pa.to_list() == [1, 2, 3]

    def test_with_items_receives_indices(self):
        pa = ParArray([[0, 0], [0, 0]], shape=(2, 2))
        pb = pa.with_items(lambda idx, _v: idx)
        assert pb[(1, 0)] == (1, 0)

    def test_replace_single_component(self):
        pa = ParArray([1, 2, 3])
        pb = pa.replace(1, 99)
        assert pb.to_list() == [1, 99, 3]
        assert pa.to_list() == [1, 2, 3]

    def test_replace_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ParArray([1]).replace(4, 0)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(ParArray([1]))


class TestEquality:
    def test_equal_arrays(self):
        assert ParArray([1, 2]) == ParArray([1, 2])

    def test_different_values(self):
        assert ParArray([1, 2]) != ParArray([1, 3])

    def test_different_shapes(self):
        assert ParArray([1, 2]) != ParArray([1, 2, 3])
        assert ParArray([[1], [2]], shape=(2, 1)) != ParArray([1, 2])

    def test_numpy_leaves_compared_by_value(self):
        a = ParArray([np.array([1, 2]), np.array([3])])
        b = ParArray([np.array([1, 2]), np.array([3])])
        assert a == b
        c = ParArray([np.array([1, 2]), np.array([4])])
        assert a != c

    def test_numpy_leaves_different_lengths(self):
        assert ParArray([np.array([1, 2])]) != ParArray([np.array([1, 2, 3])])

    def test_tuple_leaves_with_arrays(self):
        a = ParArray([(1, np.array([2]))])
        b = ParArray([(1, np.array([2]))])
        assert a == b

    def test_non_pararray_comparison(self):
        assert ParArray([1]) != [1]

    def test_nested_pararray_equality(self):
        a = ParArray([ParArray([1, 2]), ParArray([3])])
        b = ParArray([ParArray([1, 2]), ParArray([3])])
        assert a == b


class TestRepr:
    def test_small_1d_shows_contents(self):
        assert "10" in repr(ParArray([10, 20]))

    def test_large_shows_shape(self):
        assert "shape" in repr(ParArray(list(range(100))))


class TestNormalizeIndex:
    def test_int_becomes_tuple(self):
        assert normalize_index(3) == (3,)

    def test_tuple_passes_through(self):
        assert normalize_index((1, 2)) == (1, 2)

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_index(True)


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_roundtrip_list_property(xs):
    assert ParArray(xs).to_list() == xs


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_with_items_identity_property(xs):
    pa = ParArray(xs)
    assert pa.with_items(lambda _i, v: v) == pa
