"""A host-only change keeps the calendar exact.

Three small fixed programs, one per lane mix, pin what a change to the
host path (event construction, link wake-ups, session warm path, executor
device resolution) may not move: how many calendar entries
``Environment.step`` pops, the simulated clock bit for bit, and how many
plan items the dispatcher completed. ``step`` is counted by rebinding the
class attribute, exactly as ``benchmarks/e2e/trace.py`` counts
``simnet.events.steps`` — so inlining the pop into ``Environment.run``
reads 0 here before it zeroes the harness counter.

The values were recorded on the commit before the host path was first
optimised (PR 17's parent); they change only with the simulated schedule.
"""

import pytest

import repro.core.session as session_module
from repro.apps.cg import run_cg
from repro.apps.sgd import run_sgd
from repro.figures.fig7_stream import run_fig7
from repro.simnet.events import Environment

# name -> (program, steps, float.hex(env.now) per environment in first-step
# order, fast_path_items summed over runs, runs launched)
PROGRAMS = {
    # send/recv + light-lane ops over three transports on two machines.
    "fig7": (
        lambda: run_fig7(iterations=2, sizes=(2,)),
        477,
        ["0x1.3aeb4f518a5cfp-4", "0x1.5e2863f4cc309p-6",
         "0x1.e3e880c858473p-8", "0x1.150c6f22c69dfp-4",
         "0x1.8d59c6737a68cp-7", "0x1.93e22a7df16e6p-9",
         "0x1.949da5905a2bep-6", "0x1.3153b21c9544fp-6",
         "0x1.44381027a8fbap-8"],
        144,
        36,
    ),
    # driven-generator lane: queues, tile reads, concurrent run_gen.
    "cg": (
        lambda: run_cg(n=512, num_gpus=2, iterations=3, shape_only=True),
        749,
        ["0x1.cc3d9941c7df3p-8"],
        437,
        20,
    ),
    # collective lane + pure-op chains on concrete tensors.
    "sgd_collective": (
        lambda: run_sgd(num_workers=2, steps=2, mode="collective"),
        154,
        ["0x1.341ac5513c2e3p-9"],
        90,
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_host_path_keeps_steps_clock_and_items(name, monkeypatch):
    program, steps, clocks, fast_path_items, runs = PROGRAMS[name]
    step, launch = Environment.step, session_module.launch_plan
    envs, metadata = [], []
    calls = [0]

    def counting_step(self):
        calls[0] += 1
        if self not in envs:
            envs.append(self)
        return step(self)

    def recording_launch(state):
        metadata.append(state.metadata)
        return launch(state)

    monkeypatch.setattr(Environment, "step", counting_step)
    monkeypatch.setattr(session_module, "launch_plan", recording_launch)
    program()
    assert calls[0] == steps
    assert [env.now.hex() for env in envs] == clocks
    assert sum(m.fast_path_items for m in metadata) == fast_path_items
    assert len(metadata) == runs
