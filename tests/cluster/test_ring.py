"""Consistent-hash ring: placement, balance, and minimal movement."""

import pytest

from repro.cluster import HashRing

MEMBERS = ["shard-0", "shard-1", "shard-2", "shard-3"]


def sample_keys(count=2000):
    return [f"chunk-{index:05d}" for index in range(count)]


class TestPlacement:
    def test_owners_are_distinct_members(self):
        ring = HashRing(MEMBERS, replicas=2)
        for key in sample_keys(100):
            owners = ring.owners(key)
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert all(owner in MEMBERS for owner in owners)

    def test_primary_is_first_owner(self):
        ring = HashRing(MEMBERS, replicas=3)
        for key in sample_keys(50):
            assert ring.primary(key) == ring.owners(key)[0]

    def test_placement_is_deterministic(self):
        one = HashRing(MEMBERS, replicas=2)
        two = HashRing(list(reversed(MEMBERS)), replicas=2)
        for key in sample_keys(200):
            assert one.owners(key) == two.owners(key)

    def test_replicas_capped_at_member_count(self):
        ring = HashRing(["a", "b"], replicas=3)
        assert len(ring.owners("k")) == 2

    def test_count_override(self):
        ring = HashRing(MEMBERS, replicas=1)
        assert len(ring.owners("k", count=3)) == 3

    def test_empty_ring(self):
        ring = HashRing([], replicas=2)
        assert ring.owners("k") == []
        assert ring.primary("k") is None


class TestBalance:
    def test_load_spread_within_tolerance(self):
        ring = HashRing(MEMBERS, replicas=2)
        load = {name: 0 for name in MEMBERS}
        keys = sample_keys()
        for key in keys:
            for owner in ring.owners(key):
                load[owner] += 1
        expected = len(keys) * 2 / len(MEMBERS)
        for name, count in load.items():
            assert count == pytest.approx(expected, rel=0.35), (name, load)


class TestMembershipChanges:
    @staticmethod
    def owner_diff(old, new, keys) -> dict:
        """key -> (old owners, new owners) where the owner sets differ."""
        return {
            key: (old.owners(key), new.owners(key))
            for key in keys if set(old.owners(key)) != set(new.owners(key))
        }

    def test_add_member_moves_a_bounded_fraction(self):
        old = HashRing(MEMBERS, replicas=2)
        new = HashRing(MEMBERS + ["shard-4"], replicas=2)
        keys = sample_keys()
        moved = self.owner_diff(old, new, keys)
        # ideal share for the fifth member is 1/5 of placements; allow slack
        assert 0 < len(moved) < len(keys) * 0.5
        for key, (old_owners, new_owners) in moved.items():
            assert old_owners != new_owners
            assert "shard-4" in new_owners or set(old_owners) != set(new_owners)

    def test_unmoved_keys_keep_their_owners(self):
        old = HashRing(MEMBERS, replicas=2)
        new = HashRing(MEMBERS + ["shard-4"], replicas=2)
        keys = sample_keys()
        moved = self.owner_diff(old, new, keys)
        for key in keys:
            if key not in moved:
                assert old.owners(key) == new.owners(key)

    def test_remove_member_reassigns_only_its_keys(self):
        old = HashRing(MEMBERS, replicas=2)
        new = HashRing(MEMBERS, replicas=2)
        new.remove_member("shard-3")
        assert "shard-3" not in new
        for key in sample_keys(500):
            new_owners = new.owners(key)
            assert "shard-3" not in new_owners
            old_owners = old.owners(key)
            if "shard-3" not in old_owners:
                assert old_owners == new_owners

    def test_duplicate_member_rejected(self):
        ring = HashRing(MEMBERS)
        with pytest.raises(ValueError):
            ring.add_member("shard-0")
