"""DAG segmentation: chains and fork-join branch regions (Figure 5)."""

import pytest

from repro.errors import GraphError
from repro.nn.graph import BranchSegment, ChainSegment, NetworkGraph
from repro.nn.layers import Concat, Conv2D, Dense
from repro.nn.models import build

from ..conftest import make_branch_net, make_chain_net, make_residual_net


class TestChainSegmentation:
    def test_pure_chain_is_one_segment(self):
        segments = make_chain_net().segments()
        assert len(segments) == 1
        assert isinstance(segments[0], ChainSegment)
        assert len(segments[0].layers) == 9

    def test_segments_cover_all_layers(self):
        net = make_branch_net()
        segments = net.segments()
        covered = set()
        for seg in segments:
            if isinstance(seg, ChainSegment):
                covered.update(seg.layers)
            else:
                for branch in seg.branches:
                    covered.update(branch)
        assert covered == set(net.topo_order())


class TestForkJoin:
    def test_fire_style_branches(self):
        net = make_branch_net()
        segments = net.segments()
        branch_segs = [s for s in segments if isinstance(s, BranchSegment)]
        assert len(branch_segs) == 1
        seg = branch_segs[0]
        assert seg.join == "concat"
        assert sorted(len(b) for b in seg.branches) == [2, 2]

    def test_identity_shortcut_branch_is_empty(self):
        net = make_residual_net()
        seg = next(
            s for s in net.segments() if isinstance(s, BranchSegment)
        )
        assert seg.join == "add"
        lengths = sorted(len(b) for b in seg.branches)
        assert lengths == [0, 3]  # identity shortcut + 3-layer main path

    def test_fork_layer_stays_in_preceding_chain(self):
        net = make_branch_net()
        segments = net.segments()
        first = segments[0]
        assert isinstance(first, ChainSegment)
        assert first.layers[-1] == "squeeze"

    def test_join_starts_following_chain(self):
        net = make_branch_net()
        segments = net.segments()
        after = segments[2]
        assert isinstance(after, ChainSegment)
        assert after.layers[0] == "concat"


class TestPaperNetworks:
    def test_squeezenet_has_eight_fire_forks(self):
        segments = build("squeezenet").segments()
        branch_segs = [s for s in segments if isinstance(s, BranchSegment)]
        assert len(branch_segs) == 8
        assert all(seg.join.endswith("/concat") for seg in branch_segs)

    def test_resnet_has_eight_block_forks(self):
        segments = build("resnet18").segments()
        branch_segs = [s for s in segments if isinstance(s, BranchSegment)]
        assert len(branch_segs) == 8
        assert all(seg.join.endswith("/add") for seg in branch_segs)

    def test_resnet_mixes_identity_and_projection_shortcuts(self):
        segments = build("resnet18").segments()
        shortcut_lengths = []
        for seg in segments:
            if isinstance(seg, BranchSegment):
                shortcut_lengths.append(min(len(b) for b in seg.branches))
        # layer1 blocks + second blocks of each stage: identity (0);
        # first blocks of stages 2-4: projection conv+bn (2).
        assert shortcut_lengths.count(0) == 5
        assert shortcut_lengths.count(2) == 3

    @pytest.mark.parametrize("name", ["fcnn", "lenet", "alexnet", "vgg16"])
    def test_chain_networks_have_no_branches(self, name):
        segments = build(name).segments()
        assert all(isinstance(s, ChainSegment) for s in segments)
        assert len(segments) == 1


class TestUnsupportedShapes:
    def test_nested_fork_rejected(self):
        net = NetworkGraph("nested", (4, 8, 8))
        fork = net.add(Conv2D("stem", 4, 1))
        # Left branch itself forks — unsupported.
        inner = net.add(Conv2D("left", 4, 1), inputs=[fork])
        net.add(Conv2D("left_a", 4, 1), inputs=[inner])
        net.add(Conv2D("left_b", 4, 1), inputs=[inner])
        net.add(Concat("inner_join"), inputs=["left_a", "left_b"])
        net.add(Conv2D("right", 8, 1), inputs=[fork])
        net.add(Concat("outer_join"), inputs=["inner_join", "right"])
        with pytest.raises(GraphError, match="nested fork|different layers"):
            net.segments()

    def test_branches_must_reconverge_at_same_join(self):
        net = NetworkGraph("diverge", (4,))
        fork = net.add(Dense("stem", 4))
        net.add(Dense("a", 4), inputs=[fork])
        net.add(Dense("b", 4), inputs=[fork])
        net.add(Dense("a2", 4), inputs=["a"])
        net.add(Dense("b2", 4), inputs=["b"])
        # Two sinks: also invalid, but segmentation walks from the fork.
        with pytest.raises(GraphError):
            net.segments()
