"""One store, two clocks, one geometry.

The simulated session reads the mapped block store as its
:class:`~repro.dms.source.BlockSource`; the serial extractor runs the
same command on real cores over the same store instance.  For the
batch commands and the streamed ones that merge by canonical unit, at
group 1 and 2 and under both schedules, the DES result's geometry bytes
equal the extractor's merged bytes.
"""

import pytest

from repro import ViracochaSession
from repro.commands import DEMO_PARAMS
from repro.io import geometry_to_bytes
from repro.parallel import ParallelExtractor, ShmBlockStore
from tests.conftest import cached_engine

COMMANDS = (
    "iso-dataman", "iso-simple", "vortex-dataman", "vortex-simple", "cutplane",
    "cutplane-streamed", "vortex-streamed", "iso-viewer",
)


@pytest.fixture(scope="module")
def store():
    with ShmBlockStore.from_synthetic(cached_engine(4, 2)) as shm:
        yield shm


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("group", [1, 2])
@pytest.mark.parametrize("command", COMMANDS)
def test_des_geometry_bytes_equal_the_real_path(store, command, group, schedule):
    params = dict(DEMO_PARAMS[command], schedule=schedule)
    des = ViracochaSession(store, n_workers=2).run(
        command, params=params, group_size=group
    )
    with ParallelExtractor(store, workers=2, executor="serial") as ext:
        real = ext.run(command, params=params, group_size=group)
    assert real.result.n_triangles > 0
    assert geometry_to_bytes(des.geometry) == geometry_to_bytes(real.result)
