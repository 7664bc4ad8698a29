"""Input checks of the seeded synthetic generators."""

import pytest

from mbrobust.synthetic import planted_dataset_mixed_alignment


def test_mixed_alignment_rejects_more_noise_than_free_items():
    with pytest.raises(ValueError, match="noise_per_user=3 exceeds the 2 items"):
        planted_dataset_mixed_alignment(seed=0, num_users=4, num_items=4, num_groups=1,
                                        target_per_user=2, noise_per_user=3)


def test_mixed_alignment_noise_can_fill_every_free_item():
    ds = planted_dataset_mixed_alignment(seed=0, num_users=4, num_items=4, num_groups=1,
                                         target_per_user=2, noise_per_user=2)
    target, noise = ds.edges["buy"], ds.edges["noise"]
    every_pair = {(u, i) for u in range(4) for i in range(4)}
    assert set(noise) == every_pair - set(target)
