"""Tests for segment geometry and SRRT group state."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import build_design
from repro.config import scaled_config
from repro.arch.remap import GroupState, Mode, SegmentGeometry


@pytest.fixture
def geometry():
    return SegmentGeometry.from_config(scaled_config())


class TestSegmentGeometry:
    def test_counts(self, geometry):
        assert geometry.ratio == 5
        assert geometry.segments_per_group == 6
        assert geometry.num_groups == geometry.num_fast_segments

    def test_fast_segments_map_to_local_zero(self, geometry):
        for segment in (0, 1, geometry.num_fast_segments - 1):
            group, local = geometry.group_and_local(segment)
            assert local == 0
            assert group == segment

    def test_slow_segments_interleave_groups(self, geometry):
        nf = geometry.num_fast_segments
        group, local = geometry.group_and_local(nf)
        assert (group, local) == (0, 1)
        group, local = geometry.group_and_local(nf + 1)
        assert (group, local) == (1, 1)
        group, local = geometry.group_and_local(2 * nf)
        assert (group, local) == (0, 2)

    def test_segment_at_inverts_group_and_local(self, geometry):
        for segment in range(0, geometry.total_segments, 997):
            group, local = geometry.group_and_local(segment)
            assert geometry.segment_at(group, local) == segment

    def test_every_group_has_full_membership(self, geometry):
        members = [
            geometry.segment_at(5, local)
            for local in range(geometry.segments_per_group)
        ]
        assert len(set(members)) == geometry.segments_per_group

    def test_address_bounds(self, geometry):
        with pytest.raises(ValueError):
            geometry.segment_of(-1)
        with pytest.raises(ValueError):
            geometry.segment_of(
                geometry.total_segments * geometry.segment_bytes
            )

    def test_slot_zero_is_fast(self, geometry):
        in_fast, address = geometry.slot_device_address(3, 0, 64)
        assert in_fast
        assert address == 3 * geometry.segment_bytes + 64

    def test_slow_slots_are_device_local(self, geometry):
        in_fast, address = geometry.slot_device_address(0, 1, 0)
        assert not in_fast
        assert address == 0
        in_fast, address = geometry.slot_device_address(1, 1, 0)
        assert address == geometry.segment_bytes

    def test_offset_bounds(self, geometry):
        with pytest.raises(ValueError):
            geometry.slot_device_address(0, 0, geometry.segment_bytes)

    def test_invalid_group_or_local(self, geometry):
        with pytest.raises(ValueError):
            geometry.segment_at(geometry.num_groups, 0)
        with pytest.raises(ValueError):
            geometry.segment_at(0, geometry.ratio + 1)

    @given(st.integers(min_value=0))
    @settings(max_examples=60)
    def test_bijection_property(self, raw):
        geometry = SegmentGeometry(
            segment_bytes=2048, num_fast_segments=16, num_slow_segments=80
        )
        segment = raw % geometry.total_segments
        group, local = geometry.group_and_local(segment)
        assert 0 <= group < geometry.num_groups
        assert 0 <= local <= geometry.ratio
        assert geometry.segment_at(group, local) == segment


class TestGroupState:
    def test_boots_identity(self):
        state = GroupState(size=6)
        assert state.is_identity()
        assert state.resident_of_fast() == 0

    def test_swap_slots(self):
        state = GroupState(size=6)
        state.swap_slots(0, 3)
        assert state.seg_at[0] == 3
        assert state.slot_of[3] == 0
        assert state.slot_of[0] == 3
        state.validate()

    def test_swap_is_involution(self):
        state = GroupState(size=4)
        state.swap_slots(0, 2)
        state.swap_slots(0, 2)
        assert state.is_identity()

    def test_abv_counts(self):
        state = GroupState(size=3)
        assert state.any_free
        state.abv = [True, True, True]
        assert not state.any_free
        assert state.allocated_count == 3

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            GroupState(size=1)

    def test_validate_catches_corruption(self):
        state = GroupState(size=3)
        state.seg_at = [0, 0, 2]
        with pytest.raises(AssertionError):
            state.validate()

    def test_validate_catches_pom_with_cache(self):
        state = GroupState(size=3, mode=Mode.POM)
        state.cached = 1
        with pytest.raises(AssertionError):
            state.validate()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=50,
        )
    )
    def test_permutation_invariant_under_random_swaps(self, swaps):
        state = GroupState(size=6)
        for a, b in swaps:
            state.swap_slots(a, b)
        state.validate()
        assert sorted(state.seg_at) == list(range(6))


class TestBootTemplate:
    """First touches clone one validated boot ``GroupState`` per design
    instead of constructing and validating a new one."""

    @pytest.mark.parametrize("mode", [Mode.POM, Mode.CACHE])
    def test_clone_equals_a_fresh_state(self, mode):
        template = GroupState(size=6, mode=mode)
        clone = template.clone()
        assert clone == GroupState(size=6, mode=mode)
        assert clone is not template
        assert vars(clone) == vars(template)

    def test_groups_share_no_lists(self):
        arch = build_design("Chameleon", scaled_config())
        template = arch._boot
        pristine = GroupState(size=template.size, mode=template.mode)
        first, second = arch.group_state(0), arch.group_state(1)
        first.swap_slots(0, 2)
        first.abv[3] = True
        first.cached = 2
        second.seg_at.append(9)
        assert template == pristine
        assert arch.group_state(2) == pristine
        assert second.slot_of == pristine.slot_of
        assert second.abv == pristine.abv and second.cached is None
        assert arch.group_state(0) is first

    @pytest.mark.parametrize(
        "label, mode",
        [
            ("PoM", Mode.POM),
            ("CAMEO", Mode.POM),
            ("Chameleon", Mode.CACHE),
            ("Chameleon-Opt", Mode.CACHE),
            ("Polymorphic", Mode.CACHE),
        ],
    )
    def test_designs_boot_through_the_template(self, label, mode, monkeypatch):
        arch = build_design(label, scaled_config())
        size = arch.geometry.segments_per_group
        assert arch._boot == GroupState(size=size, mode=mode)

        def constructed(state):
            raise AssertionError("a first touch built a GroupState")

        # Any construction validates; a clone does not.
        monkeypatch.setattr(GroupState, "validate", constructed)
        state = arch.group_state(3)
        arch.access(arch.geometry.segment_bytes * 5 + 8, 0.0)
        monkeypatch.undo()
        assert state == GroupState(size=size, mode=mode)
        assert state is not arch._boot
        assert 5 in arch._groups

    def test_supplied_states_are_still_validated(self):
        with pytest.raises(AssertionError, match="permutation"):
            GroupState(size=3, seg_at=[0, 0, 2], slot_of=[0, 1, 2])
        with pytest.raises(AssertionError, match="invert"):
            GroupState(size=3, seg_at=[1, 0, 2], slot_of=[0, 1, 2])
        with pytest.raises(AssertionError, match="cached"):
            GroupState(size=3, mode=Mode.POM, cached=1)
