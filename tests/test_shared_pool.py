"""Tests for the cross-group shared-pool extension (Section VI-G)."""

import random

import pytest

from repro.config import scaled_config
from repro.arch.remap import Mode
from repro.core import ChameleonSharedPool


@pytest.fixture
def arch():
    return ChameleonSharedPool(scaled_config(fast_mb=1.0), swap_threshold=2)


def members_of(arch, group):
    return [
        arch.geometry.segment_at(group, local)
        for local in range(arch.geometry.segments_per_group)
    ]


def address_of(arch, segment):
    return segment * arch.geometry.segment_bytes


def fill_group(arch, group):
    for member in members_of(arch, group):
        arch.isa_alloc(member)


class TestBorrowing:
    def test_full_group_borrows_idle_donor_slot(self, arch):
        fill_group(arch, 0)  # donee: fully allocated, PoM mode
        # Group 1 stays untouched: cache mode, >= 2 free segments.
        assert arch.group_state(0).mode is Mode.POM
        # Two competing hot segments: the main counter captures one in
        # the group's own stacked slot; the runner-up lands in the
        # borrowed slot.
        hot = members_of(arch, 0)[2]
        warm = members_of(arch, 0)[3]
        hot_hit = warm_hit = False
        for i in range(120):
            hot_hit = arch.access(address_of(arch, hot), i * 2e5).fast_hit
            warm_hit = arch.access(
                address_of(arch, warm), i * 2e5 + 1e5
            ).fast_hit
            if hot_hit and warm_hit:
                break
        assert arch.counters["shared_pool.borrows"] >= 1
        assert arch.counters["shared_pool.borrow_hits"] >= 1
        # With one segment in the group's own stacked slot and one in
        # the borrowed slot, both competitors end up fast.
        assert hot_hit and warm_hit

    def test_no_donor_no_borrow(self, arch):
        # Allocate everything: no group has >= 2 free segments.
        for group in range(arch.geometry.num_groups):
            fill_group(arch, group)
        target = members_of(arch, 0)[2]
        for i in range(20):
            arch.access(address_of(arch, target), i * 1e5)
        assert arch.counters["shared_pool.borrows"] == 0

    def test_donor_with_single_free_segment_not_eligible(self, arch):
        fill_group(arch, 0)
        # Group 1: allocate all but one -> exactly 1 free: not a donor.
        for group in range(1, arch.geometry.num_groups):
            members = members_of(arch, group)
            for member in members[:-1]:
                arch.isa_alloc(member)
        target = members_of(arch, 0)[2]
        for i in range(20):
            arch.access(address_of(arch, target), i * 1e5)
        assert arch.counters["shared_pool.borrows"] == 0

    def test_revocation_on_donor_allocation(self, arch):
        fill_group(arch, 0)
        hot = members_of(arch, 0)[2]
        warm = members_of(arch, 0)[3]
        for i in range(120):
            arch.access(address_of(arch, hot), i * 2e5)
            arch.access(address_of(arch, warm), i * 2e5 + 1e5)
            if arch.active_borrows:
                break
        assert arch.active_borrows == 1
        target = warm
        donor_group = arch._borrows[0].donor_group
        # The donor's own stacked segment gets allocated: donor caches
        # for itself or leaves cache mode -> borrow must be revoked.
        fill_group(arch, donor_group)
        arch.access(address_of(arch, target), 1e8)
        assert arch.counters["shared_pool.revocations"] >= 1

    def test_borrow_hits_count_as_fast(self, arch):
        fill_group(arch, 0)
        target = members_of(arch, 0)[2]
        baseline_hits = arch.counters["arch.fast_hits"]
        for i in range(60):
            arch.access(address_of(arch, target), i * 1e5)
        assert arch.counters["arch.fast_hits"] > baseline_hits

    def test_inherits_opt_behaviour_for_cache_groups(self, arch):
        members = members_of(arch, 3)
        arch.isa_alloc(members[1])
        arch.access(address_of(arch, members[1]), 0.0)
        assert arch.group_state(3).cached == 1


def scan_donor(arch, exclude):
    """The reference donor choice: a linear scan of the materialised
    groups in materialisation order, then the first never-touched group
    (which boots in cache mode, fully free — a candidate)."""
    for group, state in arch._groups.items():
        if group != exclude and arch._is_donor_candidate(group, state):
            return group
    for group in range(arch._next_virgin_group, arch.geometry.num_groups):
        untouched = group not in arch._groups and group not in arch._lent
        if group != exclude and untouched:
            return group
    return None


class CheckedPool(ChameleonSharedPool):
    """Asserts at every donor lookup that the index agrees with the
    reference scan."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups = []

    def _find_donor(self, exclude):
        expected = scan_donor(self, exclude)
        chosen = super()._find_donor(exclude)
        assert chosen == expected, (exclude, chosen, expected)
        self.lookups.append(chosen)
        return chosen


class TestDonorIndex:
    """The donor index picks exactly what a full scan in
    materialisation order would."""

    @pytest.mark.parametrize("seed", range(6))
    def test_indexed_choice_equals_linear_scan(self, seed):
        rng = random.Random(seed)
        arch = CheckedPool(scaled_config(fast_mb=0.0625), swap_threshold=2)
        geometry = arch.geometry
        # Four fully allocated (PoM-mode) donees take most of the
        # demand traffic.  ISA traffic churns the other groups around
        # half occupancy, and the remaining accesses make them cache:
        # donors keep entering and leaving candidacy.
        donees = rng.sample(range(geometry.num_groups), 4)
        for group in donees:
            fill_group(arch, group)
        others = [
            segment
            for group in range(geometry.num_groups)
            if group not in donees
            for segment in members_of(arch, group)
        ]
        allocated = set()
        now = 0.0
        for _ in range(8000):
            now += 1e4
            roll = rng.random()
            if roll < 0.2:
                segment = rng.choice(others)
                if segment in allocated:
                    arch.isa_free(segment)
                    allocated.discard(segment)
                else:
                    arch.isa_alloc(segment)
                    allocated.add(segment)
                continue
            if roll < 0.75:
                segment = rng.choice(members_of(arch, rng.choice(donees)))
            else:
                segment = rng.choice(others)
            arch.access(address_of(arch, segment), now, roll < 0.4)
        assert len(arch.lookups) > 20
        assert sum(chosen is not None for chosen in arch.lookups) > 10
        assert arch.counters["shared_pool.revocations"] > 0

    def test_revoked_donor_is_eligible_again(self):
        arch = CheckedPool(scaled_config(fast_mb=0.0625), swap_threshold=2)
        fill_group(arch, 0)
        hot = members_of(arch, 0)[2]
        for i in range(10):
            arch.access(address_of(arch, hot), i * 1e5)
        donor = arch._borrows[0].donor_group
        assert arch._find_donor(exclude=0) != donor  # lent: not a donor
        # The donor starts caching for itself, which revokes the loan ...
        member = members_of(arch, donor)[1]
        arch.isa_alloc(member)
        arch.access(address_of(arch, member), 2e6)
        assert arch.group_state(donor).cached is not None
        arch.access(address_of(arch, hot), 3e6)
        assert 0 not in arch._borrows
        assert arch._find_donor(exclude=0) != donor  # still caching
        # ... and once its cached segment is freed it is idle again.
        arch.isa_free(member)
        assert arch.group_state(donor).cached is None
        assert arch._find_donor(exclude=0) == donor

    def test_isa_freed_group_is_eligible_again(self):
        arch = CheckedPool(scaled_config(fast_mb=0.0625), swap_threshold=2)
        fill_group(arch, 1)
        assert arch._find_donor(exclude=1) == 0  # first untouched group
        fill_group(arch, 0)
        assert arch._find_donor(exclude=1) == 2  # group 0 is full now
        members = members_of(arch, 0)
        arch.isa_free(members[4])
        assert arch._find_donor(exclude=2) == 3  # one free: not enough
        arch.isa_free(members[5])
        assert arch._find_donor(exclude=2) == 0  # earliest materialised
        assert arch._find_donor(exclude=0) == 2
