import numpy as np
import pytest

from ticklab import TickTrace
from ticklab.trace import check_rows


class TestTickTrace:
    def test_accepts_increasing_and_empty_traces(self):
        assert len(TickTrace(np.array([0.0, 0.5, 2.0]))) == 3
        assert len(TickTrace(np.array([]))) == 0
        assert TickTrace(1.5).times.tolist() == [1.5]
        assert TickTrace([1.0, 3.0]).gaps.tolist() == [2.0]

    @pytest.mark.parametrize("times", [[-0.1], [-0.1, 1.0], [1.0, 1.0],
                                       [1.0, 2.0, 1.5]])
    def test_rejects_negative_or_non_increasing(self, times):
        with pytest.raises(ValueError, match="nonnegative and strictly"):
            TickTrace(np.array(times))

    def test_rejects_more_than_one_dimension(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            TickTrace(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_check_rows_checks_every_row():
    check_rows(np.array([[0.0, 1.0], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        check_rows(np.array([[0.0, 1.0], [3.0, 3.0]]))
    with pytest.raises(ValueError):
        check_rows(np.array([[0.0, 1.0], [-1.0, 3.0]]))
