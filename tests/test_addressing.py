import copy
import pickle

import pytest

from wsnsec.addressing import NodeAddress


class TestRange:
    @pytest.mark.parametrize("bad", [-1, 256])
    def test_group_id_out_of_range(self, bad):
        with pytest.raises(ValueError, match="group_id"):
            NodeAddress(bad, 1)

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_node_id_out_of_range(self, bad):
        with pytest.raises(ValueError, match="node_id"):
            NodeAddress(1, bad)

    @pytest.mark.parametrize("edge", [0, 255])
    def test_edges_accepted(self, edge):
        a = NodeAddress(edge, edge)
        assert (a.group_id, a.node_id) == (edge, edge)

    def test_keyword_construction(self):
        assert NodeAddress(group_id=3, node_id=4) == NodeAddress(3, 4)


class TestValueSemantics:
    def test_orders_by_group_then_node(self):
        addrs = [NodeAddress(2, 0), NodeAddress(1, 255), NodeAddress(1, 2), NodeAddress(0, 9)]
        assert sorted(addrs) == [
            NodeAddress(0, 9), NodeAddress(1, 2), NodeAddress(1, 255), NodeAddress(2, 0)
        ]
        assert NodeAddress(1, 2) < NodeAddress(1, 3) <= NodeAddress(1, 3) < NodeAddress(2, 0)
        assert NodeAddress(2, 0) > NodeAddress(1, 255)

    def test_equality_and_hash(self):
        a = NodeAddress(7, 9)
        assert a == NodeAddress(7, 9)
        assert a != NodeAddress(9, 7)
        assert hash(a) == hash((a.group_id, a.node_id)) == hash(NodeAddress(7, 9))
        assert {a: 1}[NodeAddress(7, 9)] == 1
        # The simulator and codec look address-keyed entries up by plain tuple.
        assert {a: 1}[(7, 9)] == 1

    def test_str_and_parse_roundtrip(self):
        a = NodeAddress(12, 200)
        assert str(a) == "12.200"
        assert NodeAddress.parse(str(a)) == a

    @pytest.mark.parametrize("text", ["12", "1.2.3", "a.b", "1.256", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError, match="bad address"):
            NodeAddress.parse(text)

    def test_encode_and_decode_roundtrip(self):
        a = NodeAddress(0xAB, 0x01)
        assert a.encode() == b"\xab\x01"
        assert NodeAddress.decode(a.encode()) == a
        with pytest.raises(ValueError):
            NodeAddress.decode(b"\x01")

    def test_repr(self):
        assert repr(NodeAddress(1, 2)) == "NodeAddress(group_id=1, node_id=2)"

    def test_immutable(self):
        a = NodeAddress(1, 2)
        with pytest.raises(AttributeError):
            a.group_id = 3
        with pytest.raises(AttributeError):
            a.node_id = 3
        with pytest.raises(AttributeError):
            a.extra = 3
        assert a == NodeAddress(1, 2)


class TestCopyAndPickle:
    def test_copy_and_deepcopy(self):
        a = NodeAddress(5, 6)
        for b in (copy.copy(a), copy.deepcopy(a)):
            assert b == a and type(b) is NodeAddress
            assert (b.group_id, b.node_id) == (5, 6)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_roundtrip(self, protocol):
        a = NodeAddress(5, 6)
        b = pickle.loads(pickle.dumps(a, protocol))
        assert b == a and type(b) is NodeAddress and hash(b) == hash(a)
        assert repr(b) == repr(a)
