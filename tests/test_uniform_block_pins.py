"""The 3k-2 construction's heads pinned where it backtracks most.

The oracle comparisons in test_uniform_block.py reach 200-block copies
with 9-29 failed re-attachments.  These relabelled 800-block copies fail
49 and 72 times, so each frame retry, the fresh orientation per greedy
core and the planned promotions are exercised many times over; their
heads are pinned by sha256 of repr(heads).
"""

import hashlib

import pytest

from orientkit import construct
from orientkit.errors import ConstructionError
from orientkit.instances import random_class_instance
from oracles import relabeled

PINS = {   # relabelling seed: (failed re-attachments, sha256)
    3: (49,
        "3d9a3df843dca7c44df66dcfdad03aacdb214b15e38d21e70e8bf6b32af6220f"),
    11: (72,
         "73ac4aeeb4501f693c16952139d9d70a079b2ad9d24d65cc94b5ba3623e9877c"),
}


@pytest.mark.parametrize("seed", sorted(PINS))
def test_backtracking_800_block_heads_are_pinned(monkeypatch, seed):
    real, failures = construct._UniformReducer._reattach, []

    def counted(self, det):
        try:
            return real(self, det)
        except ConstructionError:
            failures.append(det.u)
            raise

    monkeypatch.setattr(construct._UniformReducer, "_reattach", counted)
    g = relabeled(random_class_instance("uniform-block", 800, 1), seed)
    d = construct.uniform_block_orient(g, None, 3)
    digest = hashlib.sha256(repr(d.heads).encode()).hexdigest()
    assert (len(failures), digest) == PINS[seed]
