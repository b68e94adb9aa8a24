"""Tests for the FP-tree of the FP-Growth reference."""

from tests.classic.fpgrowth_reference import FPTree


def build(transactions, min_count=1):
    return FPTree(((t, 1) for t in transactions), min_count)


class TestConstruction:
    def test_empty(self):
        tree = build([])
        assert tree.is_empty

    def test_all_items_filtered(self):
        tree = build([["a"], ["b"]], min_count=2)
        assert tree.is_empty

    def test_item_counts(self):
        tree = build([["a", "b"], ["a"], ["b", "c"]])
        assert tree.item_counts == {"a": 2, "b": 2, "c": 1}

    def test_min_count_filters(self):
        tree = build([["a", "b"], ["a"]], min_count=2)
        assert "b" not in tree.item_counts
        assert "a" in tree.item_counts

    def test_shared_prefix_compression(self):
        tree = build([["a", "b"], ["a", "b"], ["a", "c"]])
        # Root has a single 'a' child with count 3.
        (a_node,) = tree.root.children.values()
        assert a_node.item == "a"
        assert a_node.count == 3
        assert set(a_node.children) == {"b", "c"}

    def test_weighted_insertion(self):
        tree = FPTree([(["a"], 5), (["a", "b"], 2)], min_count=1)
        assert tree.item_counts == {"a": 7, "b": 2}


class TestQueries:
    def test_nodes_of_links_all_occurrences(self):
        # a and c are more frequent than b, so b lands below both and
        # therefore occupies two distinct nodes.
        tree = build([["a", "b"], ["a"], ["a"], ["c", "b"], ["c"], ["c"]])
        b_nodes = list(tree.nodes_of("b"))
        assert len(b_nodes) == 2
        assert all(n.item == "b" for n in b_nodes)

    def test_nodes_of_unknown_item(self):
        tree = build([["a"]])
        assert list(tree.nodes_of("zzz")) == []

    def test_conditional_pattern_base(self):
        tree = build(
            [["a", "b"], ["a", "b"], ["a"], ["a"], ["c", "b"], ["c"], ["c"], ["c"]]
        )
        base = tree.conditional_pattern_base("b")
        as_sets = {(tuple(path), count) for path, count in base}
        assert as_sets == {(("a",), 2), (("c",), 1)}

    def test_prefix_path_excludes_self_and_root(self):
        tree = build([["a", "b", "c"]])
        # Deepest node's prefix is the two items above it.
        node = tree.root
        while node.children:
            (node,) = node.children.values()
        assert len(node.prefix_path()) == 2

    def test_single_path_detected(self):
        tree = build([["a", "b"], ["a"]])
        path = tree.single_path()
        assert path is not None
        assert [item for item, _ in path] == ["a", "b"]
        assert [count for _, count in path] == [2, 1]

    def test_branching_tree_not_single_path(self):
        tree = build([["a"], ["b"]])
        assert tree.single_path() is None

    def test_items_ascending_frequency(self):
        tree = build([["a", "b"], ["a"], ["a", "c"], ["b"]])
        order = tree.items_ascending()
        counts = [tree.item_counts[i] for i in order]
        assert counts == sorted(counts)
