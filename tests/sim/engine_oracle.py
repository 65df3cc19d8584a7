"""Run a static :class:`~repro.sim.schedule.Schedule` on the real Engine.

The fast path's executor claims bit-identity with the discrete-event
engine; this helper is the oracle that claim is checked against.  Each
rank's op list becomes an Engine program issuing exactly those calls:

* ``("charge", nbytes)`` -> ``comm.charge_memcpy(nbytes)``
* ``("send", dst, nbytes, tag)`` -> ``comm.isend(dst, nbytes, tag)``
* ``("recv", src, tag)`` -> ``comm.irecv(src, tag)``
* ``("wait",)`` -> ``yield comm.waitall(pending)``

and a ``None`` rank becomes a program that returns ``None`` (never
spawned, exactly like an algorithm rank with nothing to do).  A
``block_size`` multiplies every byte count, mirroring
:func:`~repro.sim.fastpath.execute_schedule` on a block-unit schedule.
"""

from repro.sim.engine import Engine
from repro.sim.fastpath import FastRunOutcome


def _program(ops, block_size):
    if ops is None:
        return lambda comm: None

    def program(comm):
        pending = []
        for op in ops:
            kind = op[0]
            if kind == "charge":
                comm.charge_memcpy(op[1] * block_size)
            elif kind == "send":
                pending.append(comm.isend(op[1], op[2] * block_size, op[3]))
            elif kind == "recv":
                pending.append(comm.irecv(op[1], op[2]))
            else:  # wait
                yield comm.waitall(pending)
                pending = []

    return program


def run_on_engine(schedule, machine, block_size=1, *, max_sim_time=None,
                  max_events=None):
    """Execute ``schedule`` on the Engine; outcome in the fast path's shape.

    Raises the engine's own ``SimTimeoutError``/``DeadlockError``.
    """
    engine = Engine(n_ranks=schedule.n_ranks, machine=machine,
                    max_sim_time=max_sim_time, max_events=max_events)
    engine.spawn_all(lambda rank: _program(schedule.ops[rank], block_size))
    simulated = engine.run()
    return FastRunOutcome(
        simulated, engine.finish_times(), engine.messages_sent,
        engine.bytes_sent, engine.events_processed,
    )
