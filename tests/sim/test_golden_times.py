"""Golden regression grid: the optimized hot path must reproduce the seed
engine's results bit-for-bit.

``tests/data/golden_sim_times.json`` was captured from the pre-optimization
engine over a machines x algorithms x sizes grid.  ``simulated_time`` floats
are compared with ``==`` (no tolerance): the fast path is only allowed to
change wall-clock time, never a simulation result.  JSON round-trips Python
floats exactly, so the archived values are the seed engine's doubles.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import Machine
from repro.collectives.base import get_algorithm
from repro.collectives.runner import RunOptions, run_allgather
from repro.topology import erdos_renyi_topology

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_sim_times.json"

#: machine name -> (factory, (ranks, density, topology seed)); must match
#: how the golden file was generated (see its "note" field).
MACHINES = {
    "single_switch_8": (
        lambda: Machine.single_switch(nodes=2, sockets_per_node=2, ranks_per_socket=2),
        (8, 0.5, 7),
    ),
    "niagara_32": (
        lambda: Machine.niagara_like(nodes=4, ranks_per_socket=4),
        (32, 0.3, 1234),
    ),
    "niagara_64": (
        lambda: Machine.niagara_like(nodes=8, ranks_per_socket=4, nodes_per_group=2),
        (64, 0.2, 42),
    ),
}


def _rows():
    rows = json.loads(GOLDEN_PATH.read_text())["rows"]
    return [
        pytest.param(row, id=f'{row["machine"]}-{row["algorithm"]}-{row["msg_bytes"]}')
        for row in rows
    ]


@pytest.mark.parametrize("row", _rows())
def test_matches_seed_engine_exactly(row):
    factory, (n, density, seed) = MACHINES[row["machine"]]
    machine = factory()
    topology = erdos_renyi_topology(n, density, seed=seed)
    algorithm = get_algorithm(row["algorithm"], **row["kwargs"])
    run = run_allgather(
        algorithm, topology, machine, row["msg_bytes"]
    )
    assert run.simulated_time == row["simulated_time"]
    assert run.messages_sent == row["messages_sent"]
    assert run.bytes_sent == row["bytes_sent"]


@pytest.mark.parametrize("row", _rows())
def test_fast_path_matches_seed_engine_exactly(row):
    """The same grid through ``sim_mode="auto"``: the schedule executor
    must replay every golden row exactly."""
    factory, (n, density, seed) = MACHINES[row["machine"]]
    machine = factory()
    topology = erdos_renyi_topology(n, density, seed=seed)
    algorithm = get_algorithm(row["algorithm"], **row["kwargs"])
    run = run_allgather(
        algorithm, topology, machine, row["msg_bytes"],
        options=RunOptions(sim_mode="auto"),
    )
    assert run.sim_path == "fastpath"
    assert run.simulated_time == row["simulated_time"]
    assert run.messages_sent == row["messages_sent"]
    assert run.bytes_sent == row["bytes_sent"]
