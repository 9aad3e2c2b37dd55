"""Closed-form period predictions."""

import pytest

from nanopipe.errors import OracleUnavailable
from nanopipe.oracle import analytic_oracle


def test_pipelined_pool2_takes_the_max():
    assert analytic_oracle([8000, 20830, 6000], "pipelined", 2) == 20830


def test_serialized_takes_the_sum():
    assert analytic_oracle([8000, 20830, 6000], "serialized", 2) == 34830


def test_pool_of_one_collapses_to_the_sum():
    assert analytic_oracle([8000, 20830, 6000], "pipelined", 1) == 34830


def test_single_stage_identical_in_both_modes():
    for mode in ("pipelined", "serialized"):
        assert analytic_oracle([7000], mode, 2) == 7000


def test_unsupported_shapes_are_declared_unavailable():
    with pytest.raises(OracleUnavailable):
        analytic_oracle([], "pipelined", 2)
    with pytest.raises(OracleUnavailable):
        analytic_oracle([1000], "warp", 2)
