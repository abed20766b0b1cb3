"""Unit tests for repro.rules.apriori."""

import pytest

from repro.errors import RuleMiningError
from repro.rules.apriori import apriori, coverage


class TestBasics:
    def test_empty_transactions(self):
        result = apriori([], min_support_pct=20)
        assert result.itemsets == []
        assert result.n_transactions == 0

    def test_single_transaction(self):
        result = apriori([("a", "b")], min_support_pct=50)
        items = {frozenset(s.items) for s in result.itemsets}
        assert frozenset({"a"}) in items
        assert frozenset({"a", "b"}) in items

    def test_support_threshold_respected(self):
        transactions = [("a",)] * 8 + [("b",)] * 2
        result = apriori(transactions, min_support_pct=50)
        items = {next(iter(s.items)) for s in result.itemsets}
        assert items == {"a"}

    def test_percentage_semantics(self):
        # 20% of 10 transactions = 2; "b" appears twice -> kept.
        transactions = [("a",)] * 8 + [("b",)] * 2
        result = apriori(transactions, min_support_pct=20)
        items = {next(iter(s.items)) for s in result.itemsets}
        assert items == {"a", "b"}

    def test_counts_and_support(self):
        transactions = [("a",)] * 3 + [("a", "b")] * 2
        result = apriori(transactions, min_support_pct=20)
        by_items = {s.items: s for s in result.itemsets}
        assert by_items[frozenset({"a"})].count == 5
        assert by_items[frozenset({"a"})].support == pytest.approx(1.0)
        assert by_items[frozenset({"a", "b"})].count == 2
        assert by_items[frozenset({"a", "b"})].support == pytest.approx(0.4)

    def test_invalid_support_rejected(self):
        with pytest.raises(RuleMiningError):
            apriori([("a",)], min_support_pct=0)
        with pytest.raises(RuleMiningError):
            apriori([("a",)], min_support_pct=101)

    def test_max_size_limits_itemsets(self):
        transactions = [("a", "b", "c", "d")] * 5
        result = apriori(transactions, min_support_pct=50, max_size=2)
        assert max(len(s) for s in result.itemsets) == 2


class TestAprioriProperty:
    def test_subsets_of_frequent_are_frequent(self):
        transactions = [
            ("a", "b", "c"),
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("a", "b", "c"),
        ]
        result = apriori(transactions, min_support_pct=40)
        frequent = {s.items for s in result.itemsets}
        for itemset in frequent:
            if len(itemset) > 1:
                for item in itemset:
                    assert itemset - {item} in frequent

    def test_support_antimonotone(self):
        transactions = [("a", "b", "c")] * 3 + [("a", "b")] * 3 + [("a",)] * 4
        result = apriori(transactions, min_support_pct=10)
        by_items = {s.items: s.count for s in result.itemsets}
        assert by_items[frozenset({"a"})] >= by_items[frozenset({"a", "b"})]
        assert by_items[frozenset({"a", "b"})] >= by_items[
            frozenset({"a", "b", "c"})
        ]


class TestMaximal:
    def test_maximal_excludes_subsets(self):
        transactions = [("a", "b", "c")] * 10
        result = apriori(transactions, min_support_pct=50)
        maximal = result.maximal()
        assert len(maximal) == 1
        assert maximal[0].items == frozenset({"a", "b", "c"})

    def test_maximal_keeps_incomparable_sets(self):
        transactions = [("a", "b")] * 5 + [("c", "d")] * 5
        result = apriori(transactions, min_support_pct=40)
        maximal = {s.items for s in result.maximal()}
        assert frozenset({"a", "b"}) in maximal
        assert frozenset({"c", "d"}) in maximal

    def test_of_size(self):
        transactions = [("a", "b")] * 4
        result = apriori(transactions, min_support_pct=50)
        assert len(result.of_size(1)) == 2
        assert len(result.of_size(2)) == 1


class TestCoverage:
    def test_full_coverage(self):
        transactions = [("a", "b")] * 4
        result = apriori(transactions, min_support_pct=50)
        assert coverage(transactions, result.maximal()) == pytest.approx(1.0)

    def test_partial_coverage(self):
        transactions = [("a",)] * 6 + [("z",)] * 4
        result = apriori(transactions, min_support_pct=50)
        # Only "a" is frequent; it covers 60% of the data.
        assert coverage(transactions, result.maximal()) == pytest.approx(0.6)

    def test_empty(self):
        assert coverage([], []) == 0.0


class TestHashSeedIndependence:
    """Rule order must not depend on ``PYTHONHASHSEED``."""

    SCRIPT = """
from repro.rules.summarize import summarize_transactions
transactions = [
    (("src", 1), ("sport", 2), ("dst", 3), ("dport", 4)),
    (("src", 1), ("sport", 2)),
    (("dst", 3), ("dport", 4)),
]
rules = summarize_transactions(transactions, min_support_pct=50.0).rules
print([(r.src, r.sport, r.dst, r.dport) for r in rules])
"""

    def test_tied_rules_keep_one_order_across_hash_seeds(self):
        """Two maximal 2-itemsets with equal (size, count), first seen
        in the same transaction: their order used to follow hash order."""
        import os
        import subprocess
        import sys

        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        orders = set()
        for seed in ("0", "1", "2", "5"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": src_root,
            }
            orders.add(
                subprocess.run(
                    [sys.executable, "-c", self.SCRIPT],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert orders == {"[(None, None, 3, 4), (1, 2, None, None)]\n"}
