"""Consistent-hash placement ring: keys -> R-of-N member stores.

The cluster plane shards segment records (chunks and files) and metadata
documents across member stores.  Placement must be (a) deterministic —
every client computes the same owners from the same membership, with no
coordination service; (b) balanced — each member owns roughly ``1/N`` of
the key space; and (c) stable — adding or removing one member moves only
the keys whose ownership actually changed, not the whole key space.

A classic consistent-hash ring with virtual nodes gives all three: each
member is hashed onto the ring at ``vnodes`` positions, a key's owners
are the first ``replicas`` *distinct* members found walking clockwise
from the key's own hash, and membership changes only reassign the arcs
adjacent to the touched member's tokens.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Mapping

__all__ = ["HashRing"]

#: Default virtual nodes per member.  64 tokens keep the per-member load
#: within a few percent of uniform for small clusters while the ring
#: stays tiny (N * 64 sorted ints).
DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """Stable 64-bit position on the ring (leading SHA-256 bytes)."""
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class HashRing:
    """Deterministic key placement over a set of named members.

    ``replicas`` is the replication factor R: :meth:`owners` returns up
    to R distinct members per key, in ring (preference) order.  The ring
    is a pure placement function — it holds member *names*, never store
    handles, so snapshots are cheap and rebalance plans can diff two
    rings without touching any data.
    """

    def __init__(
        self,
        members: Iterable[str] | Mapping[str, object] = (),
        replicas: int = 2,
        vnodes: int = DEFAULT_VNODES,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.replicas = int(replicas)
        self.vnodes = int(vnodes)
        self._members: set[str] = set()
        self._tokens: list[int] = []
        self._token_owner: dict[int, str] = {}
        for name in members:
            self.add_member(name)

    # -- membership --------------------------------------------------------

    def members(self) -> list[str]:
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def add_member(self, name: str) -> None:
        if not name:
            raise ValueError("member name must be non-empty")
        if name in self._members:
            raise ValueError(f"member {name!r} is already on the ring")
        self._members.add(name)
        for index in range(self.vnodes):
            token = _hash64(f"{name}#{index}")
            # 64-bit collisions are astronomically unlikely; resolve the
            # tie deterministically anyway so every client agrees
            while token in self._token_owner and self._token_owner[token] != name:
                token = (token + 1) % (1 << 64)
            if token not in self._token_owner:
                bisect.insort(self._tokens, token)
            self._token_owner[token] = name

    def remove_member(self, name: str) -> None:
        if name not in self._members:
            raise KeyError(f"member {name!r} is not on the ring")
        self._members.discard(name)
        dead = [t for t, owner in self._token_owner.items() if owner == name]
        for token in dead:
            del self._token_owner[token]
            index = bisect.bisect_left(self._tokens, token)
            if index < len(self._tokens) and self._tokens[index] == token:
                del self._tokens[index]

    # -- placement ---------------------------------------------------------

    def owners(self, key: str, count: int | None = None) -> list[str]:
        """The first ``count`` (default R) distinct members clockwise from
        ``key``'s ring position, in preference order.

        Fewer than ``count`` names come back when the ring has fewer
        members — a one-member "cluster" simply owns everything once.
        """
        if not self._members:
            return []
        wanted = self.replicas if count is None else int(count)
        wanted = min(wanted, len(self._members))
        start = bisect.bisect_right(self._tokens, _hash64(key))
        owners: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._tokens)):
            token = self._tokens[(start + offset) % len(self._tokens)]
            name = self._token_owner[token]
            if name in seen:
                continue
            seen.add(name)
            owners.append(name)
            if len(owners) == wanted:
                break
        return owners

    def primary(self, key: str) -> str | None:
        """The key's first-preference member (``owners(key)[0]``)."""
        owners = self.owners(key, count=1)
        return owners[0] if owners else None

    # -- snapshots / diffing ----------------------------------------------

    def copy(self) -> "HashRing":
        """Independent snapshot with identical membership and placement."""
        return HashRing(self.members(), replicas=self.replicas, vnodes=self.vnodes)

    def moved_keys(self, other: "HashRing", keys: Iterable[str]) -> dict[str, tuple[list[str], list[str]]]:
        """Keys whose owner set differs between ``self`` (old) and
        ``other`` (new); maps key -> (old_owners, new_owners).

        The rebalancer streams exactly these keys and nothing else.
        """
        moved: dict[str, tuple[list[str], list[str]]] = {}
        for key in keys:
            old = self.owners(key)
            new = other.owners(key)
            if set(old) != set(new):
                moved[key] = (old, new)
        return moved

    def __repr__(self) -> str:
        return (
            f"HashRing({len(self._members)} members, R={self.replicas}, "
            f"vnodes={self.vnodes})"
        )
