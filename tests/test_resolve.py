"""Resolution driver: trees, finality, budget, ledger balance."""

import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from folsing.cli import main, shipped_corpus_root
from folsing.errors import BlowupBudgetExceeded, NonIsolatedSingularity
from folsing.parsing import parse_field, parse_form
from folsing.poly import MultiPoly, VectorFieldGerm
from folsing.resolve import resolve, verify_ledger
from folsing.towers import FieldElement


class TestSimpleCases:
    def test_regular_point(self):
        tree = resolve(parse_field("1*ddx + x*ddy"))
        assert tree.blowup_count == 0
        assert tree.root.final
        assert tree.root.classification.tag == "Regular"

    def test_saddle_is_already_final(self):
        tree = resolve(parse_field("x*ddx - y*ddy"))
        assert tree.blowup_count == 0
        assert tree.root.classification.tag == "SiegelRational"

    def test_saddle_node_final(self):
        tree = resolve(parse_field("x^2*ddx + y*ddy"))
        assert tree.blowup_count == 0
        assert tree.root.classification.tag == "SaddleNode"

    def test_nonisolated_rejected(self):
        with pytest.raises(NonIsolatedSingularity):
            resolve(parse_field("x*y*ddx + x*y*ddy"))

    def test_budget(self):
        with pytest.raises(BlowupBudgetExceeded):
            resolve(parse_field("2*y*ddx + 3*x^2*ddy"), max_blowups=2)


class TestResonantNode:
    def test_ratio_two_single_blowup(self):
        # eigenvalues 2, 1: one blow-up splits into final points
        tree = resolve(parse_field("2*x*ddx + y*ddy"))
        assert tree.blowup_count >= 1
        assert tree.all_final()
        rows, ok = verify_ledger(tree)
        assert ok

    def test_radial_dicritical_leafless(self):
        tree = resolve(parse_field("x*ddx + y*ddy"))
        assert tree.blowup_count == 1
        assert tree.root.children == []
        assert tree.all_final()
        rows, ok = verify_ledger(tree)
        assert ok
        assert rows[0]["multiplicity"] == 1
        assert rows[0]["constant"] == 1  # k=1 dicritical: k^2+k-1 = 1


class TestCuspOracle:
    def test_exactly_three_blowups(self):
        tree = resolve(parse_field("2*y*ddx + 3*x^2*ddy"))
        assert tree.blowup_count == 3
        assert tree.all_final()

    def test_ledger_rows(self):
        tree = resolve(parse_field("2*y*ddx + 3*x^2*ddy"))
        rows, ok = verify_ledger(tree)
        assert ok
        by_node = {r["node"]: r for r in rows}
        # root: I0 = 2 = (k=1: -1) + 3
        assert by_node[0]["multiplicity"] == 2
        assert by_node[0]["constant"] == -1
        # second: I0 = 3 = -1 + 4
        # third: I0 = 4 = (k=2: 1) + 3
        mults = sorted(r["multiplicity"] for r in rows)
        assert mults == [2, 3, 4]
        consts = {r["multiplicity"]: r["constant"] for r in rows}
        assert consts[2] == -1 and consts[3] == -1 and consts[4] == 1

    def test_final_leaves_are_siegel(self):
        tree = resolve(parse_field("2*y*ddx + 3*x^2*ddy"))
        leaves = tree.leaves()
        assert len(leaves) == 3
        for leaf in leaves:
            assert leaf.classification.tag == "SiegelRational"

    def test_divisor_components(self):
        tree = resolve(parse_field("2*y*ddx + 3*x^2*ddy"))
        assert len(tree.components) == 3
        selfs = sorted(c["self_intersection"] for c in tree.components)
        # third center sits on the first two components (corner point)
        assert selfs == [-3, -2, -1]


class TestLedgerExamples:
    CASES = [
        "x*ddx - y*ddy",
        "2*y*ddx + 3*x^2*ddy",
        "-y^2*ddx + x^2*ddy",
        "x^2*ddx + (y - x)*ddy",
        "x*ddx + y*ddy",
        "(x^2 + y^3)*ddx + x*y*ddy",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_balanced(self, src):
        tree = resolve(parse_field(src))
        rows, ok = verify_ledger(tree)
        assert ok, rows
        assert tree.all_final()

    def test_strict_decrease_when_order_high(self):
        # children multiplicities must sum strictly below I0 whenever k > 1,
        # which is what forces the resolution to terminate
        for src in self.CASES:
            tree = resolve(parse_field(src))
            for row in tree.ledger_rows():
                if row["order"] > 1:
                    total = sum(c["galois_multiplicity"] * c["multiplicity"]
                                for c in row["children"])
                    assert total < row["multiplicity"]


class TestGaloisInResolution:
    def test_conjugate_cluster_counts_with_weight(self):
        # tangent cone y*(2x^2 - y^2): rational direction plus conjugate pair
        tree = resolve(parse_field("(x^2 + y^2)*ddx + 3*x*y*ddy"))
        rows, ok = verify_ledger(tree)
        assert ok
        cluster = [n for n in tree.nodes if n.galois_multiplicity > 1]
        assert cluster and cluster[0].galois_multiplicity == 2
        assert cluster[0].tower.depth == 1
        assert cluster[0].final
        root_row = [r for r in rows if r["node"] == 0][0]
        assert root_row["multiplicity"] == 4
        assert root_row["constant"] == 1


class TestRandomQuadratics:
    coeffs = st.integers(min_value=-3, max_value=3)

    @given(st.lists(coeffs, min_size=10, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_ledger_balance_random(self, cs):
        terms = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        f = MultiPoly(2, {e: c for e, c in zip(terms, cs[:5])})
        g = MultiPoly(2, {e: c for e, c in zip(terms, cs[5:])})
        vf = VectorFieldGerm([f, g])
        if vf.is_zero():
            return
        try:
            tree = resolve(vf, max_blowups=24)
        except NonIsolatedSingularity:
            return
        rows, ok = verify_ledger(tree)
        assert ok, rows
        assert tree.all_final()


class TestSerialization:
    def test_json_shape(self):
        tree = resolve(parse_field("2*y*ddx + 3*x^2*ddy"))
        data = tree.to_json()
        assert data["blowups"] == 3
        assert data["final"] is True
        assert len(data["nodes"]) == len(tree.nodes)
        assert all("classification" in n for n in data["nodes"])

    def test_dot_output(self):
        tree = resolve(parse_field("x*ddx - y*ddy"))
        dot = tree.to_dot()
        assert dot.startswith("digraph resolution {")
        assert "SiegelRational" in dot


class TestNoDepthZeroWrapper:
    """Over Q(i) and Q the tower elements are GaussianRationals: no
    FieldElement of a depth-0 tower is ever built.  The wrapper cost about
    a third of the throughput of resolution and first-integral jobs."""

    @pytest.fixture()
    def built_depths(self, monkeypatch):
        depths = []
        init = FieldElement.__init__

        def recording_init(self, tower, rep):
            depths.append(tower.depth)
            init(self, tower, rep)

        monkeypatch.setattr(FieldElement, "__init__", recording_init)
        return depths

    @pytest.mark.parametrize("command", ["resolve", "first-integral"])
    def test_shipped_corpus(self, built_depths, command):
        runner = CliRunner()
        files = sorted((p for p in shipped_corpus_root().iterdir()
                        if p.name.endswith(".vf")), key=lambda p: p.name)
        assert files
        wrapped_base = []
        for path in files:
            start = len(built_depths)
            result = runner.invoke(main, [command, "--in", str(path)])
            assert result.exit_code in (0, 1), (path.name, result.output)
            if 0 in built_depths[start:]:
                wrapped_base.append(path.name)
        assert wrapped_base == []

    def test_extensions_still_build_elements(self, built_depths):
        # the conjugate tangent directions of this germ live in a depth-1
        # tower, so the recorder does see FieldElements being built
        result = CliRunner().invoke(
            main, ["resolve", "--expr", "(x^2 + y^2)*ddx + 3*x*y*ddy"])
        assert result.exit_code == 0
        assert built_depths and min(built_depths) == 1
