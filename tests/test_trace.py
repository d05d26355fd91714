"""The tick-time invariant ``check_rows``: each row of a block is one
tick trace, nonnegative and strictly increasing."""
import numpy as np
import pytest

from ticklab.protocols import check_rows


class TestTickTrace:
    @pytest.mark.parametrize("times", [[-0.1], [-0.1, 1.0], [1.0, 1.0],
                                       [1.0, 2.0, 1.5]])
    def test_rejects_negative_or_non_increasing(self, times):
        with pytest.raises(ValueError, match="nonnegative and strictly"):
            check_rows(np.array([times]))


def test_check_rows_checks_every_row():
    check_rows(np.array([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        check_rows(np.array([[0.0, 1.0], [3.0, 3.0]]))
    with pytest.raises(ValueError):
        check_rows(np.array([[0.0, 1.0], [-1.0, 3.0]]))
