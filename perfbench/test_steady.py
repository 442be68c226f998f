"""Unit tests for the spread computation in steady.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from steady import spread


class SpreadTest(unittest.TestCase):
    def test_exclusive_quartiles_over_median(self):
        # Exclusive quartiles of 1..9: positions 2.5 and 7.5 -> 2.5, 7.5.
        self.assertAlmostEqual(spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 5.0 / 5.0)

    def test_order_does_not_matter_and_ten_runs(self):
        values = [10.4, 9.8, 10.0, 10.1, 9.9, 10.2, 10.3, 9.7, 10.0, 10.05]
        # Sorted: 9.7 9.8 9.9 10.0 10.0 10.05 10.1 10.2 10.3 10.4;
        # q1 at position 2.75 -> 9.875, q3 at 8.25 -> 10.225, median 10.025.
        self.assertAlmostEqual(spread(values), (10.225 - 9.875) / 10.025)
        self.assertAlmostEqual(spread(sorted(values)), spread(values))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([3.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
